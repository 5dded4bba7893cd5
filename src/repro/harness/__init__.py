"""Experiment harness: design registry, measurements, tables, calibration.

* :mod:`repro.harness.runner` — build/compile/measure pipeline with an
  on-disk cache, shared by every benchmark;
* :mod:`repro.harness.tables` — regenerate the paper's Table I and
  Table II rows from real flow outputs plus the performance models;
* :mod:`repro.harness.calibrate` — one-anchor-per-engine calibration
  (EXPERIMENTS.md documents the methodology);
* :mod:`repro.harness.cli` — the ``gem`` command: ``gem compile`` / ``run`` /
  ``tables`` / ``cosim`` / ``faultcampaign`` / ``perf`` / ``fuzz`` / ``chaos``
  / ``tune`` / ``probe`` (also ``python -m repro.harness.cli``).
"""

__all__ = ["DESIGNS", "compile_design", "design_circuit", "measure_activity"]


def __getattr__(name: str):
    # the registry loads the compiler; `gem perf show` and `--help` must not
    if name in __all__:
        from repro.harness import runner

        return getattr(runner, name)
    raise AttributeError(f"module 'repro.harness' has no attribute {name!r}")
