"""GEM core: the paper's contribution.

The compile flow (paper §III) is:

RTL circuit
  → :mod:`repro.core.synthesis`   (word-level lowering to E-AIG, §III-B)
  → :mod:`repro.core.ram_mapping` (RAM blocks + adapters + polyfill, §III-B)
  → :mod:`repro.core.depth_opt`   (depth-oriented AIG optimization, §III-B)
  → :mod:`repro.core.partition`   (multi-stage RepCut, §III-C)
  → :mod:`repro.core.merging`     (Algorithm 1 partition merging, §III-C)
  → :mod:`repro.core.placement`   (Algorithm 2 boomerang placement, §III-D)
  → :mod:`repro.core.assembler`   (VLIW ISA assembly, §III-E)
  → :mod:`repro.core.bitstream`   (the container a run loads)
  → :mod:`repro.core.interpreter` (word-parallel virtual-GPU execution)

:class:`repro.core.compiler.GemCompiler` drives the whole flow and
:class:`repro.core.compiler.GemSimulator` is the user-facing run API.
Every knob lives in :mod:`repro.core.config`, which imports no flow
module, so reading a compiled design back loads none of them.
"""

__all__ = ["EAIG", "Ram"]


def __getattr__(name: str):
    # Everything is imported on first touch: `import repro.core` must not
    # load the compile flow into a run that only reads a compiled design.
    if name in ("EAIG", "Ram"):
        from repro.core import eaig

        return getattr(eaig, name)
    if name in ("GemCompiler", "GemConfig", "GemSimulator", "CompileReport"):
        from repro.core import compiler

        return getattr(compiler, name)
    if name in ("ExecutionEngine", "WORD_LANES"):
        from repro.core import engine

        return getattr(engine, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
