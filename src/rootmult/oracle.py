"""Naive full-lattice Peterson evaluation, the engine's correctness oracle.

Walks every positive lattice point of height <= cap in ascending order and
applies the recurrence over all subroots of the coordinate box, with no
knowledge of roots, orbits or the chamber; only the simple roots are
seeded.  Deliberately shares nothing with the graded-ascent engine beyond
the Cartan and lattice primitives, not even the step from c to the
multiplicity, which it solves in fractions over its own table, and stays
single-threaded: it is a test instrument, determinism over speed.

Intended for d <= 3 and cap <= 15; the cost grows like the closed-form
naive bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .cartan import CartanMatrix, killing, reflect, rho_pair
from .lattice import Vec, coord_gcd, height, render, subroots, unit
from .metrics import PHASE_ORACLE, KillingCounter
from .peterson import NonIntegerMultiplicity, c_value, query_mult


class OracleTable:
    """naive_compute's c, mult and zero-denominator points (gaps) up to cap."""

    def __init__(self, cm: CartanMatrix, cap: int, counter: KillingCounter | None = None):
        self.cm = cm
        self.cap = cap
        self.counter = counter if counter is not None else KillingCounter()
        self.c: dict[Vec, Fraction] = {}
        self.mult: dict[Vec, int] = {}
        self.gaps: list[Vec] = []

    def export_rows(self):
        """Rows for every point carrying multiplicity, engine-schema order."""
        vecs = sorted(
            (v for v, m in self.mult.items() if m > 0),
            key=lambda v: (height(v), v),
        )
        for v in vecs:
            nrm = killing(self.cm, v, v)
            kind = "real" if nrm > 0 else "imaginary"
            cval = self.c[v]
            yield {
                "coords": v,
                "height": height(v),
                "norm": nrm,
                "c": f"{cval.numerator}/{cval.denominator}",
                "mult": self.mult[v],
                "kind": kind,
            }


def _points_of_height(d: int, h: int) -> Iterator[Vec]:
    """Non-negative integer vectors with coordinate sum h, lexicographic."""
    if d == 1:
        yield (h,)
        return
    for first in range(h + 1):
        for rest in _points_of_height(d - 1, h - first):
            yield (first,) + rest


def _descend_mult(tab: OracleTable, beta: Vec) -> int:
    """Multiplicity of a positive-norm primitive vector via one reflection.

    Such a vector pairs positively with some simple root; the reflection
    there drops the height, and multiplicity is Weyl invariant.  A mixed
    sign image means beta was no root at all.
    """
    cm = tab.cm
    for i in range(cm.d):
        image = reflect(cm, i, beta)
        if image[i] < beta[i]:
            if all(x >= 0 for x in image):
                return tab.mult[image]
            return 0
    raise AssertionError(f"{render(beta)} has positive norm but no descent")


def _zero_denominator_c(tab: OracleTable, beta: Vec) -> Fraction:
    """Fallback c-value where the recurrence denominator vanishes.

    Vanishing forces (beta, beta) = 2 (rho, beta) > 0, so the divisor logic
    for positive-norm vectors applies: c = 1/l when beta/l carries
    multiplicity (l = gcd of coordinates), and for primitive beta the value
    is its own multiplicity, recovered by descending a height-lowering
    reflection to an already-stored point.
    """
    n = coord_gcd(beta)
    if n >= 2:
        return Fraction(1, n) if tab.mult[tuple(b // n for b in beta)] > 0 else Fraction(0)
    return Fraction(_descend_mult(tab, beta))


def naive_compute(
    cm: CartanMatrix, cap: int, counter: KillingCounter | None = None
) -> OracleTable:
    """Compute c and mult on every positive lattice point of height <= cap.

    Simple roots are seeded with c = 1; every other point gets the full
    recurrence sum over all box subroots, one counted form per subroot plus
    one for the denominator, ticked once per point.  Zero-denominator points
    (the denominator alone) take the fallback and are logged in .gaps.
    Each multiplicity solves c(beta) = sum_{n | g} m(beta/n)/n (g = gcd
    beta) for its n = 1 term, m(beta) = c(beta) - sum_{n | g, n >= 2}
    m(beta/n)/n, from the multiplicities of the lower beta/n this table
    holds, and must be a non-negative integer, else NonIntegerMultiplicity.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    tab = OracleTable(cm, cap, counter)
    simples = set(unit(cm.d, i) for i in range(cm.d))

    for h in range(1, cap + 1):
        for beta in _points_of_height(cm.d, h):
            if beta in simples:
                cval = Fraction(1)
            else:
                forms = 1  # the denominator's (beta, beta)
                denom = killing(cm, beta, beta) - rho_pair(cm, beta)
                if denom == 0:
                    cval = _zero_denominator_c(tab, beta)
                    tab.gaps.append(beta)
                else:
                    total = Fraction(0)
                    for gamma in subroots(beta):
                        forms += 1
                        rest = tuple(b - g for b, g in zip(beta, gamma))
                        form = killing(cm, gamma, rest)
                        cg = tab.c[gamma]
                        cr = tab.c[rest]
                        if form and cg and cr:
                            total += form * cg * cr
                    cval = total / denom
                tab.counter.tick(PHASE_ORACLE, forms)
            tab.c[beta] = cval

            m = Fraction(cval)
            g = coord_gcd(beta)
            for n in range(2, g + 1):
                if g % n == 0:
                    m -= Fraction(tab.mult[tuple(b // n for b in beta)], n)
            if m.denominator != 1 or m < 0:
                raise NonIntegerMultiplicity(
                    f"oracle m({render(beta)}) = {m} is not a non-negative integer"
                )
            tab.mult[beta] = int(m)
    return tab


def compare_tables(table, tab: OracleTable) -> list[dict]:
    """Disagreements between an engine table and an oracle table.

    Checks every positive lattice point up to the smaller cap where either
    side reports a nonzero c or multiplicity; exact rational comparison.
    """
    cap = min(table.cap, tab.cap)
    mismatches = []
    for h in range(1, cap + 1):
        for v in _points_of_height(table.cm.d, h):
            ec = c_value(table, v)
            em = query_mult(table, v)
            oc = tab.c.get(v, Fraction(0))
            om = tab.mult.get(v, 0)
            if (ec, em) != (oc, om) and (ec or em or oc or om):
                mismatches.append(
                    {"coords": v, "engine": (ec, em), "oracle": (oc, om)}
                )
    return mismatches
