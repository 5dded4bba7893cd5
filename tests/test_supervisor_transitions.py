"""The supervisor's recovery ladder, as a table and as a property.

* ``decide`` is the whole policy, so its unit test *is* the transition
  table of docs/RESILIENCE.md §1: one parametrised row per fault class ×
  ledger corner.  No design is compiled.
* Whatever faults a run meets, it ends undegraded with every lane it did
  not quarantine bit-identical to a clean run — outputs and final state —
  or degraded on the gate-level reference with the clean outputs; and the
  transitions it recorded are ones ``decide`` produces when the ledger is
  replayed over them.
* ``KINDS`` is held against docs/OBSERVABILITY.md.
"""

import functools
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.errors import (
    CheckpointError,
    GemTimeoutError,
    LaneDivergenceError,
    StateCorruptionError,
)
from repro.runtime.chaos import FakeClock, _compile_small
from repro.runtime.faults import FaultInjector
from repro.runtime.supervisor import (
    KINDS,
    Action,
    Ledger,
    Policy,
    Supervisor,
    decide,
    state_digest_lanes,
)
from repro.runtime.watchdog import Deadline

# -- (a) the table -------------------------------------------------------------------

CORRUPT = StateCorruptionError("digest mismatch")
TIMEOUT = GemTimeoutError("too slow")
LANE3 = LaneDivergenceError("lane 3", lanes=(3,))
BATCHED = Policy(batch=8)  # max_retries 3, quarantine_after 2, redundant shadow
PACED = Policy(backoff_base=0.25, backoff_cap=0.75)

TABLE = {
    # a fault that is not a timeout: retry, with exponential backoff ...
    "first transient": (CORRUPT, Ledger(consecutive=1), Policy(), Action("retry")),
    "any GemError": (CheckpointError("x"), Ledger(consecutive=1), Policy(), Action("retry")),
    "backoff 1": (CORRUPT, Ledger(consecutive=1), PACED, Action("retry", delay=0.25)),
    "backoff 2": (CORRUPT, Ledger(consecutive=2), PACED, Action("retry", delay=0.5)),
    "backoff capped": (CORRUPT, Ledger(consecutive=3), PACED, Action("retry", delay=0.75)),
    # ... until max_retries attempts in a row got no further
    "consecutive = max_retries": (CORRUPT, Ledger(consecutive=3), Policy(), Action("retry")),
    "consecutive = max_retries + 1": (
        CORRUPT, Ledger(consecutive=4), Policy(), Action("degrade", reason="retries-exhausted"),
    ),
    # a lane that diverges quarantine_after times in a row is quarantined
    "streak = quarantine_after - 1": (
        LANE3, Ledger(consecutive=1, streaks={3: 1}), BATCHED, Action("retry"),
    ),
    "streak = quarantine_after": (
        LANE3, Ledger(consecutive=2, streaks={3: 2}), BATCHED, Action("quarantine", lanes=(3,)),
    ),
    "only the persistent lanes": (
        LaneDivergenceError("two", lanes=(5, 1)),
        Ledger(consecutive=2, streaks={1: 1, 5: 2}),
        BATCHED,
        Action("quarantine", lanes=(5,)),
    ),
    "quarantine restarts the backoff": (
        LANE3,
        Ledger(consecutive=3, streaks={3: 2}),
        Policy(batch=8, backoff_base=0.25),
        Action("quarantine", delay=0.25, lanes=(3,)),
    ),
    "quarantine beats retries-exhausted": (
        LANE3, Ledger(consecutive=4, streaks={3: 4}), BATCHED, Action("quarantine", lanes=(3,)),
    ),
    "a lane already quarantined is not news": (
        LANE3,
        Ledger(consecutive=1, streaks={3: 5}, quarantined=frozenset({3})),
        BATCHED,
        Action("retry"),
    ),
    "last healthy lane": (
        LANE3,
        Ledger(consecutive=2, streaks={3: 2}, quarantined=frozenset(range(8)) - {3}),
        BATCHED,
        Action("degrade", lanes=(3,), reason="every-lane-quarantined"),
    ),
    # lanes mean nothing without a batch and a shadow to compare them in
    "lane divergence at batch 1": (
        LaneDivergenceError("lane 0", lanes=(0,)),
        Ledger(consecutive=2, streaks={0: 2}),
        Policy(batch=1),
        Action("retry"),
    ),
    "lane divergence without a shadow": (
        LANE3, Ledger(consecutive=2, streaks={3: 2}), Policy(batch=8, shadow=None), Action("retry"),
    ),
    # a timeout retries under a tighter deadline while the deadline grants one
    "timeout, extensions left": (TIMEOUT, Ledger(can_extend=True), Policy(), Action("tighten")),
    "timeout, however many retries": (
        TIMEOUT, Ledger(consecutive=9, can_extend=True), Policy(), Action("tighten"),
    ),
    "timeout, none left": (
        TIMEOUT, Ledger(can_extend=False), Policy(), Action("degrade", reason="grace-exhausted"),
    ),
}


@pytest.mark.parametrize("row", TABLE)
def test_decide(row):
    fault, ledger, policy, action = TABLE[row]
    assert decide(fault, ledger, policy) == action


# -- (b) the property ----------------------------------------------------------------

MAX_EXTENSIONS = 2


@functools.cache
def _clean(seed, batch):
    """The design, its stimuli, the clean single-lane stream (lanes all see
    the same stimuli) and a clean batch's final per-lane digests."""
    design, stimuli = _compile_small(seed)
    sim = design.simulator(batch=batch)
    golden = [sim.step(vec) for vec in stimuli]
    return design, stimuli, golden, state_digest_lanes(sim)


class _Spy:
    """A design that remembers the simulators it built (the primary first)."""

    def __init__(self, design):
        self.design, self.built = design, []
        self.synth = design.synth

    def simulator(self, **kwargs):
        self.built.append(self.design.simulator(**kwargs))
        return self.built[-1]


def _hook(faults, batch, clock):
    """``state`` / ``ram``: one seeded bit flip in a lane at a cycle, once;
    ``poison``: that lane's bit of one state word flipped every cycle from
    then on; ``hang``: the fake clock jumps every cycle from then on."""
    injector, fired = FaultInjector(0), set()

    def hook(interp, cycle):
        clock.advance(0.001)
        for index, (kind, at, lane) in enumerate(faults):
            lane %= batch
            if kind == "hang" and cycle >= at:
                clock.advance(100.0)
            elif kind == "poison" and cycle >= at:
                interp.global_state[at % interp.global_state.size] ^= 1 << lane
            elif kind in ("state", "ram") and cycle == at and index not in fired:
                fired.add(index)
                flip = injector.flip_state_bit if kind == "state" else injector.flip_ram_bit
                flip(interp, cycle, lane=lane)

    return hook


def _replay(result, policy):
    """Charge the recorded faults to a fresh ledger, in order: ``decide``
    gives the recorded action each time.  Returns every action with the
    kinds recorded after it, up to the next fault."""
    consecutive, streaks, quarantined, high_water, extensions = 0, {}, frozenset(), 0, 0
    steps = []
    for transition in result.transitions:
        if transition.kind != "fault":
            if steps:
                steps[-1][1].append(transition.kind)
            continue
        detail = transition.detail
        if detail["high_water"] > high_water:  # got further than ever: a clean slate
            high_water, consecutive, streaks = detail["high_water"], 0, {}
        cls = getattr(errors, detail["error"])
        fault = cls("", lanes=detail["lanes"]) if cls is LaneDivergenceError else cls("")
        if cls is not GemTimeoutError:
            consecutive += 1
            for lane in policy.lanes_of(fault):
                streaks[lane] = streaks.get(lane, 0) + 1
        ledger = Ledger(consecutive, dict(streaks), quarantined, extensions < MAX_EXTENSIONS)
        action = decide(fault, ledger, policy)
        assert action == detail["action"]
        if action.lanes:
            quarantined, consecutive = quarantined.union(action.lanes), 0
        extensions += action.kind == "tighten"
        steps.append((action, []))
    return steps


FAULTS = st.lists(
    st.tuples(
        st.sampled_from(("state", "ram", "poison", "hang")), st.integers(1, 30), st.integers(0, 3)
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((11, 23)), st.sampled_from((1, 4)), st.sampled_from((None, 4, 7)), FAULTS)
def test_every_fault_sequence_ends_clean_or_typed_degraded(seed, batch, checkpoint_every, faults):
    design, stimuli, golden, clean_digests = _clean(seed, batch)
    spy, clock = _Spy(design), FakeClock()
    supervisor = Supervisor(
        spy,
        batch=batch,
        checkpoint_every=checkpoint_every,
        max_retries=2,
        fault_hook=_hook(faults, batch, clock),
        deadline=Deadline(wall_s=5.0, clock=clock, max_extensions=MAX_EXTENSIONS),
    )
    result = supervisor.run(stimuli)

    if result.degraded:
        assert result.engine == "simref" and result.outputs == golden
    else:
        digests = state_digest_lanes(spy.built[0])
        for lane in set(range(batch)) - set(result.quarantined_lanes):
            assert result.lane_stream(lane) == golden
            assert digests[lane] == clean_digests[lane]

    after = {"retry": ["rollback"], "tighten": ["rollback"], "quarantine": ["quarantine", "rollback"]}
    steps = _replay(result, supervisor)
    for action, followed in steps:
        quarantine = ["quarantine"] if action.lanes else []
        assert followed == after.get(action.kind, [*quarantine, "degrade"])
    assert result.degraded == any(action.kind == "degrade" for action, _ in steps)
    assert result.faults_detected == len(steps)


# -- (c) the emit table against the docs ---------------------------------------------


def test_kinds_are_the_documented_counters_and_instants():
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md").read_text()
    documented = set(re.findall(r"`(gem_\w+_total)`", doc))
    counters = {kind.counter for kind in KINDS.values() if kind.counter}
    assert counters <= documented
    assert {name for name in documented if name.startswith("gem_supervisor_")} <= counters
    (row,) = [line for line in doc.splitlines() if line.startswith("| `supervisor`")]
    instants = set(re.findall(r"`(?:supervisor)?\.(\w+)`", row))
    assert instants == {name for name, kind in KINDS.items() if kind.instant is not None}
