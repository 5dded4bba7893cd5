"""The block seam as properties (docs/ENGINE.md §6).

A block of ``n`` cycles is one backend call and one pass of the pack
layer, and where a stream is cut into blocks is invisible:

* for random cut points of one per-lane stimulus stream — a block of one
  cycle everywhere and one block for everything included — the native
  kernel, the numpy loop and the ISA-literal ``ReferenceInterpreter``
  produce the outputs, ``state.digest()``, work counters and probe
  samples of the cycle-at-a-time reference run, at every lane geometry,
  on 2- and 4-state designs, with a lane quarantined mid-stream;
* a malformed vector mid-stream surfaces before its block runs: the
  state is on a block boundary and ``sim.cycle`` says which;
* every stimulus entry point holds a value to one integer rule;
* the pack layer's NumPy calls do not grow with the block's length, and
  probe sinks see the same stream for every chunking of it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.backend import available_backends
from repro.errors import LaneConfigError
from repro.obs.activity import ActivityAccumulator
from repro.obs.probe import ProbeTap, WaveRing, build_probe_plan
from repro.simref.isa_interp import ReferenceInterpreter
from tests.test_engine_lanes import _rotated_lanes, _scalar_io_design

CYCLES = 12
QUARANTINE_AT = 7

#: where a stream of CYCLES cycles is cut, as a bit mask over its cycle boundaries
CUTS = st.integers(0, (1 << (CYCLES - 1)) - 1)


def _registry_case(name, batch, values=2):
    # the reference at 1024 lanes costs what the rest of the matrix does
    slow = batch == 1024 and name != "openpiton1"
    return pytest.param(name, batch, values, marks=pytest.mark.slow if slow else ())


class _Engine:
    """One engine under test with a probe attached: a ring and an
    activity accumulator on every net."""

    def __init__(self, design, batch, make):
        self.sim = make(batch)
        plan = build_probe_plan(design)
        self.ring = WaveRing(plan, capacity=CYCLES)
        self.activity = ActivityAccumulator(plan)
        ProbeTap(plan, [self.ring, self.activity]).attach(self.sim)

    def run(self, stream, cuts):
        """The stream in blocks cut where ``cuts`` has a bit set (and at
        the quarantine, which is a cycle-boundary operation)."""
        outputs, start = [], 0
        for cycle in range(1, CYCLES + 1):
            if cycle == CYCLES or cycle == QUARANTINE_AT or cuts >> (cycle - 1) & 1:
                outputs += self.sim.run_lanes(iter(stream[start:cycle]))
                start = cycle
            if cycle == QUARANTINE_AT:
                self.sim.quarantine_lanes([self.sim.batch // 2])
        return outputs

    def observed(self):
        samples = [(cycle, words.tolist()) for cycle, words in self.ring.entries()]
        counts = [c.tolist() for c in (self.activity.t0, self.activity.t1, self.activity.tc)]
        return self.sim.state.digest(), self.sim.counters, self.sim.cycle, samples, counts


@pytest.mark.parametrize(
    "name, batch, values",
    [
        *(
            _registry_case(name, batch)
            for name in ("openpiton1", "rocketchip", "gemmini")
            for batch in (1, 3, 64, 128, 1024)
        ),
        _registry_case("openpiton1", 3, values=4),
        _registry_case("openpiton1", 128, values=4),
    ],
)
def test_where_a_stream_is_cut_into_blocks_is_invisible(name, batch, values):
    from repro.harness.runner import compile_design, design_workloads

    design = compile_design(name, values=values)
    stimuli = next(iter(design_workloads(name).values())).stimuli
    stream = list(_rotated_lanes(stimuli, batch, CYCLES))
    makers = {
        backend: (lambda b, backend=backend: design.simulator(batch=b, backend=backend))
        for backend in available_backends()
    }
    makers["reference"] = lambda b: ReferenceInterpreter(design.program, batch=b)

    every_cycle = (1 << (CYCLES - 1)) - 1
    baseline = _Engine(design, batch, makers["reference"])
    want_outputs = baseline.run(stream, every_cycle)
    want = baseline.observed()
    assert baseline.sim.block_cycles >= CYCLES or batch == 1024, "cut 0 is one block"

    @given(cuts=CUTS)
    @example(cuts=0)
    @example(cuts=every_cycle)
    @settings(max_examples=4, deadline=None, derandomize=True)
    def check(cuts):
        for label, make in makers.items():
            if label == "reference" and cuts == every_cycle:
                continue  # the baseline itself
            engine = _Engine(design, batch, make)
            assert engine.run(stream, cuts) == want_outputs, (label, cuts)
            assert engine.observed() == want, (label, cuts)

    check()


# -- a bad vector mid-stream --------------------------------------------------------


@pytest.fixture(scope="module")
def designs():
    return {2: _scalar_io_design(), 4: _scalar_io_design(values=4)}


def _vectors(cycles, batch):
    rng = np.random.default_rng(cycles)
    return [
        [{"en": int(rng.integers(2)), "k": int(rng.integers(256)), "x": int(rng.integers(1 << 62))}
         for _ in range(batch)]
        for _ in range(cycles)
    ]  # fmt: skip


@pytest.mark.parametrize("driver", ["run", "run_lanes"])
def test_a_bad_vector_mid_stream_leaves_the_state_on_a_block_boundary(designs, driver):
    batch, block = 3, 16
    stream = _vectors(100, batch)
    if driver == "run":
        stream = [lanes[0] for lanes in stream]
        stream[37] = {"k": 1.5}
    else:
        stream[37] = stream[37][:2]  # one lane short
    sim, ref = designs[2].simulator(batch=batch), designs[2].simulator(batch=batch)
    sim.block_cycles = ref.block_cycles = block
    pulled = []

    def generator():  # no len(), no second pass
        for vec in stream:
            pulled.append(vec)
            yield vec

    with pytest.raises(LaneConfigError, match="input 'k'" if driver == "run" else "got 2"):
        getattr(sim, driver)(generator())
    assert sim.cycle == 32 and len(pulled) == 48, "blocks 0 and 1 ran, block 2 was refused whole"
    want = getattr(ref, driver)(stream[:32])
    assert sim.state.digest() == ref.state.digest() and sim.counters == ref.counters
    # and the stream picks up from there
    assert getattr(sim, driver)(stream[32:37]) == getattr(ref, driver)(stream[32:37])
    assert len(want) == 32


# -- one integer rule ---------------------------------------------------------------

_VALUES = [
    (1.5, None),
    ("7", None),
    (np.float64(2.0), None),
    (np.int64(5), 5),
    (True, 1),
    (-1, 0xFF),
    (0x1FE, 0xFE),
]


@pytest.mark.parametrize("values", [2, 4])
@pytest.mark.parametrize("value, masked", _VALUES, ids=[repr(v) for v, _ in _VALUES])
@pytest.mark.parametrize(
    "form", ["step", "step_lanes", "step_lanes-uniform", "step_arrays", "advance_lanes", "run"]
)
def test_every_entry_point_holds_a_value_to_the_same_integer_rule(designs, values, form, value, masked):
    """``operator.index`` decides: NumPy integers and bools are values,
    negative and over-wide ones are masked to the 8-bit port, and a
    float, a string or a NumPy float is a ``LaneConfigError`` naming the
    port before any state is written."""
    batch = 4
    sim = designs[values].simulator(batch=batch)

    def drive(v):
        if form == "step":
            return sim.step({"k": v})["lo"]
        if form == "run":
            return sim.run(iter([{"k": v}]))[0]["lo"]
        if form == "step_lanes":
            return sim.step_lanes([{"k": v}, {"k": 2}, {}, {}])[0]["lo"]
        if form == "step_lanes-uniform":
            return sim.step_lanes([{"k": v}] * batch)[3]["lo"]
        if form == "advance_lanes":
            sim.advance_lanes({"k": v})
            return sim.outputs()["lo"]
        return int(sim.step_arrays({"k": np.array([v] * batch)})["lo"][0])

    if masked is None:
        before = sim.state.digest()
        with pytest.raises(LaneConfigError, match="input 'k'") as refused:
            drive(value)
        assert isinstance(refused.value, (ValueError, TypeError))
        assert sim.cycle == 0 and sim.state.digest() == before
    else:
        assert drive(value) == masked  # lo = x[7:0] ^ k with x = 0


# -- the pack layer and the probe sinks ---------------------------------------------


@pytest.mark.parametrize("batch", [1, 5, 128])
def test_the_pack_layer_makes_no_numpy_call_per_cycle(designs, batch, monkeypatch):
    sim = designs[2].simulator(batch=batch, backend="numpy")
    engine, loaded = sim.engine, sim.loaded
    calls = []
    for name in ("zeros", "empty", "packbits", "unpackbits", "ascontiguousarray", "asarray", "where"):
        original = getattr(np, name)
        monkeypatch.setattr(
            np, name, lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw)
        )
    counts = []
    for n in (1, 37):
        stream = _vectors(n, batch)
        columns = {name: [[vec[name] for vec in lanes] for lanes in stream] for name in stream[0][0]}
        calls.clear()
        block = engine.pack_block(loaded.pi_slices, columns, n)
        unpacked = engine.unpack_block(loaded.pi_slices, block)
        counts.append(list(calls))
        for name, column in unpacked.items():
            assert column.tolist() == [[vec[name] for vec in lanes] for lanes in stream]
    assert counts[0] == counts[1] and counts[0]


@pytest.mark.parametrize("batch", [1, 6, 128])
@given(cuts=st.lists(st.integers(1, 39), max_size=6))
@settings(max_examples=20, deadline=None)
def test_probe_sinks_see_one_stream_whatever_its_chunking(designs, batch, cuts):
    design = designs[2]
    stream = _vectors(40, batch)
    plan = build_probe_plan(design)

    def observe(bounds):
        ring, activity = WaveRing(plan, capacity=25), ActivityAccumulator(plan)
        sim = design.simulator(batch=batch)
        ProbeTap(plan, [ring, activity]).attach(sim)
        for lo, hi in zip([0, *bounds], [*bounds, 40]):
            sim.run_lanes(stream[lo:hi])
        entries = [(cycle, words.tolist()) for cycle, words in ring.entries()]
        return entries, ring.dropped, activity.cycles, *(
            c.tolist() for c in (activity.t0, activity.t1, activity.tc)
        )

    whole = observe([])
    assert whole[1:3] == (15, 40) and [cycle for cycle, _ in whole[0]] == list(range(15, 40))
    assert observe(sorted(set(cuts))) == whole == observe(range(1, 40))
