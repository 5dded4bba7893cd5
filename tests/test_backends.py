"""Execution-backend seam: resolution, fallback, and kernel equivalence.

The contract under test (docs/ENGINE.md §6):

* ``resolve_backend`` maps names to live backends, falls back to numpy
  with exactly one warning per process when a dependency is missing,
  and hard-fails only under ``strict=True``;
* the numba backend's ``compile_stage`` — the wrapper and the one
  generic stage kernel — is bit-identical to the numpy stage at every
  lane geometry.  numba is not installed on the development host, so
  the kernel runs as plain Python through a stub ``njit``
  (:func:`tests.helpers.stub_numba`); the ``skipif`` variants run the
  real JIT in the CI backend-smoke job.
"""

import logging

import numpy as np
import pytest

import repro.core.backend as backend_mod
from repro.core.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    resolve_backend,
    reset_backend_state,
)
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.errors import BackendUnavailableError, GemError
from tests.helpers import random_circuit, stub_numba

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


@pytest.fixture(autouse=True)
def _clean_backend_state():
    reset_backend_state()
    yield
    reset_backend_state()


def _design(seed=7, n_ops=40, with_memory=False):
    circuit = random_circuit(seed, n_ops=n_ops, with_memory=with_memory)
    return GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)


def _lockstep(ref, dut, batch, cycles=24):
    """Random per-lane stimuli through both; outputs, state, RAMs equal."""
    rng = np.random.default_rng(batch)
    names = list(ref._pi_tables)
    for _ in range(cycles):
        vecs = [
            {n: int(v) for n, v in zip(names, rng.integers(0, 1 << 12, len(names)))}
            for _ in range(batch)
        ]
        assert ref.step_lanes(vecs) == dut.step_lanes(vecs)
    assert np.array_equal(ref.global_state, dut.global_state)
    for a, b in zip(ref.ram_arrays, dut.ram_arrays):
        assert np.array_equal(a, b)


class TestResolution:
    def test_none_means_numpy(self):
        assert resolve_backend(None).name == "numpy"
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_instance_passes_through(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst

    def test_unknown_name_raises_typed(self):
        with pytest.raises(BackendUnavailableError) as exc:
            resolve_backend("tpu")
        assert isinstance(exc.value, GemError)
        assert "tpu" in str(exc.value)

    def test_instances_are_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_available_backends_always_has_numpy(self):
        assert "numpy" in available_backends()

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_strict_raises_when_numba_missing(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend("numba", strict=True)


class TestFallbackWarnsOnce:
    """A missing dependency downgrades to numpy, loudly, once."""

    class _Unavailable(ArrayBackend):
        name = "numba"

        def __init__(self):
            raise BackendUnavailableError("deliberately unavailable for the test")

    def test_fallback_warns_once_and_still_resolves(self, monkeypatch, caplog):
        monkeypatch.setitem(backend_mod._CLASSES, "numba", self._Unavailable)
        with caplog.at_level(logging.WARNING, logger="repro.core.backend"):
            first = resolve_backend("numba")
            second = resolve_backend("numba")
        warnings = [
            r for r in caplog.records if "falling back to numpy" in r.getMessage()
        ]
        assert len(warnings) == 1, "exactly one fallback warning per process"
        assert "deliberately unavailable" in warnings[0].getMessage()
        assert first.name == "numpy" and second.name == "numpy"

    def test_simulator_falls_back_and_runs(self, monkeypatch, caplog):
        monkeypatch.setitem(backend_mod._CLASSES, "numba", self._Unavailable)
        design = _design()
        with caplog.at_level(logging.WARNING, logger="repro.core.backend"):
            sim = design.simulator(batch=4, backend="numba")
        assert sim.backend.name == "numpy"
        sim.step({})  # and it still simulates


class TestCompiledKernelEquivalence:
    """compile_stage kernels must match the numpy stage bit-for-bit."""

    @pytest.mark.parametrize("batch", [1, 3, 64, 128, 256])
    def test_generic_compile_stage_matches_numpy(self, batch):
        """The numba backend's generic stage kernel, run as plain Python
        under the stub ``njit``, in lockstep with numpy on a RAM-bearing
        design: single-word batches through the ``(n, 1)`` reshape views,
        K-word planes as they are."""
        design = _design(seed=11, n_ops=60, with_memory=True)
        with stub_numba():
            dut = design.simulator(batch=batch, backend="numba")
            assert dut.backend.name == "numba"
            ref = design.simulator(batch=batch, backend="numpy")
            assert ref.ram_arrays, "the design must exercise the RAM-port path"
            _lockstep(ref, dut, batch)

    def test_numba_stage_reports_its_time_as_fold(self):
        design = _design(seed=11, n_ops=60, with_memory=True)
        with stub_numba():
            sim = design.simulator(backend="numba", profile=True)
            sim.step({})
        assert sim.phase_times["fold"] > 0.0
        assert sim.phase_times["gather"] == 0.0

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    @pytest.mark.parametrize("batch", [1, 64, 128])
    def test_numba_matches_numpy(self, batch):
        design = _design(seed=13, n_ops=60, with_memory=True)
        ref = design.simulator(batch=batch, backend="numpy")
        dut = design.simulator(batch=batch, backend="numba")
        assert dut.backend.name == "numba"
        _lockstep(ref, dut, batch)


class TestOracleEnrollment:
    """Backends ride the differential oracle at rotated lane batches."""

    def test_backend_runs_as_extra_oracle_engine(self):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        gen = generate_design(1234, "mixed")
        stimuli = random_stimuli(gen.spec, 1234, 12)
        # the stub njit runs the backend-DUT lockstep without the real
        # dependency
        with stub_numba():
            result = run_oracle(
                gen.spec,
                stimuli,
                OracleConfig(batches=(1, 128), backends=("numpy", "numba")),
            )
        assert result.ok
        assert "backend:numba" in result.coverage

    def test_unavailable_backend_skips_with_marker(self):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        gen = generate_design(99, "mixed")
        stimuli = random_stimuli(gen.spec, 99, 8)
        result = run_oracle(
            gen.spec,
            stimuli,
            OracleConfig(batches=(1, 16), backends=("numpy", "tpu")),
        )
        assert result.ok
        assert "backend-skip:tpu" in result.coverage

    def test_config_round_trips_backends(self):
        from repro.fuzz.oracle import OracleConfig

        config = OracleConfig(backends=("numpy", "numba"))
        back = OracleConfig.from_json(config.to_json())
        assert back.backends == ("numpy", "numba")
        # older configs without the key hydrate with the default
        legacy = OracleConfig.from_json({"batches": [1, 4]})
        assert legacy.backends == ("numpy",)
