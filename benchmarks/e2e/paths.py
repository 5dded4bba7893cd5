"""Where the benchmark reads the program from and writes its own files.

Imports nothing from ``repro``: :func:`activate` has to run before the
first ``repro`` import, because ``repro.harness.runner`` reads
``GEM_CACHE_DIR`` when it is imported.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def source_digest() -> str:
    """Digest of every file under ``src/repro`` (the program under test)."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def activate() -> str:
    """Put the program on ``sys.path`` and point its compile cache at a
    directory keyed by the source digest, so a pickle compiled from other
    sources can never be what is measured.  Returns the cache directory."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"benchmarks/e2e: no program to measure ({SRC}/repro is missing)")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cache = os.path.join(OUT, f"cache-{source_digest()}")
    if not os.path.isdir(cache):
        # caches of other sources are dead weight: at most one is kept
        if os.path.isdir(OUT):
            for entry in os.listdir(OUT):
                if entry.startswith("cache-"):
                    shutil.rmtree(os.path.join(OUT, entry), ignore_errors=True)
        os.makedirs(cache)
    os.environ["GEM_CACHE_DIR"] = cache
    return cache
