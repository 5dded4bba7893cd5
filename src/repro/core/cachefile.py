"""Where the on-disk caches live, and how a file gets there whole.

Three kinds of artifact share one directory — compile pickles
(:mod:`repro.harness.runner`), the native cycle kernel
(:func:`repro.core.backend.load_kernel`) and persisted fused plans
(:func:`repro.core.fused.fused_program`) — and any number of processes
may fill it at once.  Pickles and plans are written through
:func:`write_atomic` (the kernel is compiled in a temp directory of its
own and renamed the same way), so a reader sees a complete file or none;
each artifact carries its own integrity check, so nothing here needs to
be durable.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable


def cache_dir() -> str:
    """``$GEM_CACHE_DIR``, default ``.gem_cache/`` under the working
    directory — read at call time, so a test or a benchmark that points
    the variable elsewhere is obeyed without a re-import."""
    return os.environ.get("GEM_CACHE_DIR", os.path.join(os.getcwd(), ".gem_cache"))


def write_atomic(path: str, write: Callable[[BinaryIO], None]) -> None:
    """Create ``path`` by streaming ``write(file)`` into a uniquely named
    temp file beside it and renaming that into place.

    Racing writers of one path each rename a complete file (the last one
    wins, and they all wrote the same thing); a writer that fails leaves
    nothing behind.  Raises :class:`OSError` when the directory cannot
    be created or written — a cache write is optional, so callers catch
    it and carry on with the value they hold.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # exclusive create under a name no other process or thread picks:
    # ordinary umask permissions, unlike mkstemp's owner-only files
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
