"""Differential fuzzing subsystem (docs/FUZZING.md).

Four independent execution paths implement the same RTL semantics in this
repository — the stage-fused executor, the ISA-literal per-partition
reference interpreter, the levelized gate-level reference, and the word-level
golden model.  This package keeps them honest on *adversarial* structure,
the way GATSPI and Parendi validate their simulators against reference
engines over large randomized workloads:

* :mod:`repro.fuzz.designgen` — a seeded random design generator whose
  output is a JSON-serializable :class:`~repro.fuzz.designgen.DesignSpec`
  (so every generated design is replayable and shrinkable);
* :mod:`repro.fuzz.oracle` — compiles a spec and runs N-way lockstep
  across engines and batch sizes, reporting the first divergence;
* :mod:`repro.fuzz.shrink` — delta-debugs a failing design+stimulus to a
  minimal ``.gemrepro`` repro;
* :mod:`repro.fuzz.corpus` — the ``.gemrepro`` format, the persisted
  corpus, and the coverage-guided fuzz loop behind ``gem fuzz``.
"""

from repro.fuzz.corpus import (
    Corpus,
    FuzzStats,
    load_repro,
    replay_repro,
    run_fuzz,
    write_repro,
)
from repro.fuzz.designgen import (
    PROFILES,
    DesignSpec,
    GeneratedDesign,
    ShapeKnobs,
    generate_design,
    random_spec,
    random_stimuli,
)
from repro.fuzz.oracle import (
    COMPILE_PROFILES,
    FuzzDivergence,
    OracleConfig,
    OracleResult,
    compile_profile,
    run_oracle,
)
from repro.fuzz.shrink import ShrinkResult, shrink

__all__ = [
    "COMPILE_PROFILES",
    "Corpus",
    "DesignSpec",
    "FuzzDivergence",
    "FuzzStats",
    "GeneratedDesign",
    "OracleConfig",
    "OracleResult",
    "PROFILES",
    "ShapeKnobs",
    "ShrinkResult",
    "compile_profile",
    "generate_design",
    "load_repro",
    "random_spec",
    "random_stimuli",
    "replay_repro",
    "run_fuzz",
    "run_oracle",
    "shrink",
    "write_repro",
]
