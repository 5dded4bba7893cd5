"""Cooperative watchdog deadlines: wall-clock and cycle budgets.

A hung or runaway simulation is as fatal to a multi-hour campaign as a
corrupted one — a run that never returns forfeits its GPU reservation
and every cycle it already simulated.  :class:`Deadline` bounds a
supervised run with two cooperative budgets:

* **wall seconds** — elapsed time on an injectable monotonic clock;
* **max cycles** — total cycles *executed*, replayed cycles included,
  so a rollback loop that stops making forward progress still trips.

Checks are cooperative: the supervisor calls :meth:`Deadline.check` at
every cycle boundary, and a trip raises
:class:`~repro.errors.GemTimeoutError` — a :class:`~repro.errors.GemError`
subclass, so the supervisor's recovery ladder catches it like any other
fault: rollback to the last good checkpoint and retry under a
*tightened* budget (:meth:`Deadline.extend` grants exponentially
shrinking grace), then degrade when the grace is exhausted.  A hang
becomes a recoverable event instead of a lost run.

The clock is a constructor parameter (default ``time.monotonic``) so
tests and the chaos harness drive deadline behavior with a fake clock —
no real sleeping, fully deterministic.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import GemTimeoutError

__all__ = ["Deadline"]


class Deadline:
    """A cooperative wall-clock / cycle budget for one supervised run.

    Parameters
    ----------
    wall_s:
        Wall-clock budget in seconds (``None`` = unbounded).  The timer
        starts at the first :meth:`start` call, not at construction.
    max_cycles:
        Budget of *executed* cycles, replays included (``None`` =
        unbounded).  Distinct from a stimulus-length cap: a supervisor
        stuck in a rollback loop executes cycles without consuming new
        stimuli and still trips this budget.
    clock:
        Monotonic time source; injectable for deterministic tests.
    grace_factor:
        Fraction of the original budget granted per :meth:`extend`
        (halving by default: 1/2, then 1/4, then 1/8 of ``wall_s``).
    max_extensions:
        How many tightened-budget retries :meth:`extend` grants before
        reporting exhaustion (the supervisor then degrades).
    """

    def __init__(
        self,
        wall_s: float | None = None,
        max_cycles: int | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        grace_factor: float = 0.5,
        max_extensions: int = 3,
    ) -> None:
        if wall_s is not None and wall_s <= 0:
            raise ValueError("wall_s must be positive")
        if max_cycles is not None and max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        if not 0 < grace_factor < 1:
            raise ValueError("grace_factor must be in (0, 1)")
        self.wall_s = wall_s
        self.max_cycles = max_cycles
        self.clock = clock
        self.grace_factor = grace_factor
        self.max_extensions = max_extensions
        self.extensions = 0
        self.cycles_executed = 0
        self._started_at: float | None = None
        self._expires_at: float | None = None
        self._cycle_limit = max_cycles

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the wall-clock timer (idempotent — first call wins)."""
        if self._started_at is None:
            self._started_at = self.clock()
            if self.wall_s is not None:
                self._expires_at = self._started_at + self.wall_s

    def note_cycles(self, n: int = 1) -> None:
        """Record ``n`` executed cycles against the cycle budget."""
        self.cycles_executed += n

    # -- interrogation --------------------------------------------------------

    def elapsed(self) -> float:
        """Wall seconds since :meth:`start` (0 before it)."""
        if self._started_at is None:
            return 0.0
        return self.clock() - self._started_at

    def remaining_wall(self) -> float | None:
        """Wall seconds left, or ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return self._expires_at - self.clock()

    def expired(self) -> str | None:
        """The tripped budget (``"wall"`` / ``"cycles"``) or ``None``."""
        if self._expires_at is not None and self.clock() > self._expires_at:
            return "wall"
        if self._cycle_limit is not None and self.cycles_executed > self._cycle_limit:
            return "cycles"
        return None

    def check(self) -> None:
        """Raise :class:`GemTimeoutError` if a budget has expired."""
        reason = self.expired()
        if reason == "wall":
            raise GemTimeoutError(
                f"wall-clock deadline exceeded ({self.elapsed():.2f}s elapsed, "
                f"budget {self.wall_s:.2f}s + {self.extensions} extension(s))",
                reason="wall",
            )
        if reason == "cycles":
            raise GemTimeoutError(
                f"cycle budget exceeded ({self.cycles_executed} cycles executed, "
                f"budget {self._cycle_limit})",
                reason="cycles",
            )

    # -- recovery -------------------------------------------------------------

    def extend(self) -> bool:
        """Grant one tightened-budget retry; ``False`` when exhausted.

        Each grant is ``grace_factor`` of the *previous* grant (starting
        from the original budget), so retries get exponentially less
        slack: a transient hang recovers, a persistent one runs out of
        grace after ``max_extensions`` attempts and the caller degrades.
        Both budgets are extended from *now* — wall by the shrinking
        grace seconds, cycles by the shrinking cycle allowance.
        """
        if not self.can_extend():
            return False
        self.extensions += 1
        factor = self.grace_factor**self.extensions
        if self.wall_s is not None:
            self._expires_at = self.clock() + self.wall_s * factor
        if self.max_cycles is not None:
            self._cycle_limit = self.cycles_executed + int(self.max_cycles * factor)
        return True

    def can_extend(self) -> bool:
        """Whether :meth:`extend` would grant another retry: extensions
        are left and the next cycle grace is at least one cycle."""
        if self.extensions >= self.max_extensions:
            return False
        factor = self.grace_factor ** (self.extensions + 1)
        return self.max_cycles is None or int(self.max_cycles * factor) >= 1

    def describe(self) -> str:
        parts = []
        if self.wall_s is not None:
            parts.append(f"wall {self.wall_s:g}s")
        if self.max_cycles is not None:
            parts.append(f"{self.max_cycles} cycles")
        return " + ".join(parts) or "unbounded"
