"""Killing-form evaluation counters and the closed-form cost model.

The counter is the cost instrument for the whole engine: it counts every
bilinear-form evaluation, and for the orbit closure the cost model's d
fundamental reflections per walked vector (a reflection is form-equivalent
work), however few images the walk actually builds.  The form primitives
themselves are pure; each phase adds its forms in bulk (pingpong once per
orbit walk, the Peterson sum and the oracle once per lattice point).
Weyl-vector pairings are linear functionals and are deliberately not
counted.
"""

from __future__ import annotations

from math import comb, factorial

PHASE_PINGPONG = "pingpong"
PHASE_SUM = "peterson-sum"
PHASE_ORACLE = "oracle"


class KillingCounter:
    """Monotone per-phase counter: one counter per run; not shared across threads."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def tick(self, phase: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counter is monotone")
        self._counts[phase] = self._counts.get(phase, 0) + n

    def count(self, phase: str | None = None) -> int:
        if phase is None:
            return sum(self._counts.values())
        return self._counts.get(phase, 0)

    def by_phase(self) -> dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"KillingCounter({self.by_phase()})"


def k_ascent_measured(counter: KillingCounter) -> int:
    """Forms spent by the graded-ascent run: orbit closure plus Peterson sums."""
    return counter.count(PHASE_PINGPONG) + counter.count(PHASE_SUM)


def k_naive_closed(d: int, h: int) -> int:
    """Closed-form count of Killing forms for the naive full-lattice algorithm:

        4 * (C(h + 2d - 1, 2d) - ceil(h^d / d!))

    Exact integer arithmetic throughout.
    """
    if d < 1 or h < 1:
        raise ValueError("need d >= 1 and h >= 1")
    ceil_term = -((-(h ** d)) // factorial(d))
    return 4 * (comb(h + 2 * d - 1, 2 * d) - ceil_term)


def counter_snapshot(run) -> dict:
    """Report per-phase counts for a completed run (engine or oracle table).

    The run must expose .cm, .cap and .counter.  The report compares the
    measured ascent cost against the closed-form naive cost at the same
    height; the ratio is informational only, None when ka is 0 or the
    quotient does not fit a float (the engine itself never uses floats).
    """
    phases = run.counter.by_phase()
    kn = k_naive_closed(run.cm.d, run.cap)
    ka = k_ascent_measured(run.counter)
    try:
        ratio = kn / ka if ka else None
    except OverflowError:  # the quotient is beyond the float range
        ratio = None
    return {
        "phases": phases,
        "k_ascent": ka if ka else None,
        "oracle": phases.get(PHASE_ORACLE) or None,
        "k_naive_closed": kn,
        "ratio": ratio,
    }
