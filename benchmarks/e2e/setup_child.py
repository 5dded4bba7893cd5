"""One fresh interpreter from spawn to ready-to-step: a ``setup_s`` sample.

The parent passes the wall-clock time at which it spawned this process;
the sample runs from there (interpreter start included) until the
compiler or simulator and the stimuli exist.  ``repro`` is imported inside
:func:`main` so that the import is part of what is timed.
"""

from __future__ import annotations

import json
import time

from benchmarks.e2e.hostclock import HostClock


def main(workload: str, seed: int, spawned_at: float) -> None:
    with HostClock() as clock:
        t0 = time.perf_counter()
        from benchmarks.e2e.workloads import WORKLOADS, build_cold_circuit, make_inputs

        spec = WORKLOADS[workload]
        if spec.design is None:
            from repro.core.compiler import compile_circuit  # noqa: F401 - ready to compile
        else:
            from repro.harness.runner import compile_design
        t1 = time.perf_counter()
        if spec.design is None:
            # nothing is compiled yet on this path: the circuit is what a user has
            build_cold_circuit()
            t2 = t3 = time.perf_counter()
        else:
            design = compile_design(spec.design)  # disk-cache hit
            t2 = time.perf_counter()
            design.simulator(batch=spec.batch)
            t3 = time.perf_counter()
        make_inputs(spec, seed)
        t4 = time.perf_counter()
    spawned = t4 - (time.time() - spawned_at)
    # the phases are too short to carry their own host-speed estimate:
    # all of them take the slow-down seen over the whole set-up
    slowdown, _ = clock.slowdown(spawned, t4)
    print(
        json.dumps(
            {
                "setup_s": clock.reference_seconds(spawned, t4),
                "import_s": clock.reference_seconds(t0, t1, slowdown),
                "compile_s": clock.reference_seconds(t1, t2, slowdown),
                "simulator_s": clock.reference_seconds(t2, t3, slowdown),
                "stimuli_s": clock.reference_seconds(t3, t4, slowdown),
            }
        )
    )
