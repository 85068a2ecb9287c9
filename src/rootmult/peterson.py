"""The graded-ascent multiplicity engine.

Roots are discovered in ascending height order.  Real roots come from
pingponging the simple roots.  Imaginary roots are found by evaluating the
Peterson recurrence

    c(beta) = [ sum_{gamma < beta} (gamma, beta - gamma) c(gamma) c(beta - gamma) ]
              / ((beta, beta) - 2 (rho, beta))

at each point of the fundamental chamber, where the sum only needs the
vectors whose c-value is nonzero: previously recorded roots, and positive
multiples n*gamma of recorded real roots, which contribute c = 1/n without
ever being stored.  Multiplicities follow by Moebius inversion over the
divisor lattice of gcd(beta), and each new root's orbit is closed by
pingpong before the next height is processed.

Everything is exact: c-values are fractions, multiplicities integers.  No
floating point is used anywhere in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanMatrix, killing, rho_pair
from .chamber import chamber_points
from .lattice import (
    Vec,
    coord_gcd,
    height,
    leq,
    mobius,
    render,
    unit,
    vdiv,
    vscale,
    vsub,
)
from .metrics import PHASE_SUM, KillingCounter
from .weyl import pingpong

KIND_REAL = "real"
KIND_IMAGINARY = "imaginary"


class NonIntegerMultiplicity(ArithmeticError):
    """Moebius inversion produced a non-integer or negative multiplicity, or
    a chamber point has a nonzero c-value but multiplicity 0.

    This is the engine's strongest self-check: it can only fire on an
    upstream bug, never on valid input.
    """


class ZeroDenominator(ArithmeticError):
    """(beta, beta) = 2 (rho, beta); impossible for nonzero chamber points."""


class HeightExceedsCap(ValueError):
    """Query beyond the height range the table was computed for."""


@dataclass
class RootRecord:
    c: Fraction
    mult: int
    kind: str


class RootTable:
    """Graded store of every discovered vector with its (c, mult, kind).

    Filled in by one run (pingpong and the driver write to it); read-only
    once compute_all returns.
    """

    def __init__(self, cm: CartanMatrix, cap: int, counter: KillingCounter | None = None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cm = cm
        self.cap = cap
        self.counter = counter if counter is not None else KillingCounter()
        self.entries: dict[Vec, RootRecord] = {}
        self._by_height: dict[int, list[Vec]] = {}
        self._reals_by_height: dict[int, list[Vec]] = {}

    def __contains__(self, beta: Vec) -> bool:
        return beta in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, beta: Vec) -> RootRecord | None:
        return self.entries.get(beta)

    def record(self, beta: Vec, c: Fraction, mult: int, kind: str) -> None:
        h = height(beta)
        if not (0 < h <= self.cap) or any(b < 0 for b in beta):
            raise ValueError(f"cannot record {beta}: not positive within cap")
        if beta in self.entries:
            raise ValueError(f"{beta} already recorded")
        self.entries[beta] = RootRecord(c=Fraction(c), mult=mult, kind=kind)
        self._by_height.setdefault(h, []).append(beta)
        if kind == KIND_REAL:
            self._reals_by_height.setdefault(h, []).append(beta)

    def at_height(self, h: int) -> list[Vec]:
        return self._by_height.get(h, [])

    def reals_at_height(self, h: int) -> list[Vec]:
        return self._reals_by_height.get(h, [])

    def roots(self) -> list[Vec]:
        """All recorded vectors with positive multiplicity, (height, lex)."""
        return [
            v
            for h in sorted(self._by_height)
            for v in sorted(self._by_height[h])
            if self.entries[v].mult > 0
        ]

    def export_rows(self):
        """One row per recorded vector: coords, height, norm, c, mult, kind.

        Sorted by (height, lex).  Norms are computed outside the counter so
        exporting never perturbs the cost measurement.
        """
        for h in sorted(self._by_height):
            for v in sorted(self._by_height[h]):
                rec = self.entries[v]
                yield {
                    "coords": v,
                    "height": h,
                    "norm": killing(self.cm, v, v),
                    "c": f"{rec.c.numerator}/{rec.c.denominator}",
                    "mult": rec.mult,
                    "kind": rec.kind,
                }


def c_value(table: RootTable, gamma: Vec) -> Fraction:
    """c(gamma) from the table plus the scaled-real rule.

    Recorded vectors answer directly.  An unrecorded gamma can only have a
    nonzero c-value if gamma = n * r for a recorded real root r, in which
    case c(gamma) = 1/n; everything else is 0.  Pure lookup, no form
    evaluations.
    """
    rec = table.entries.get(gamma)
    if rec is not None:
        return rec.c
    n = coord_gcd(gamma)
    if n >= 2:
        base = table.entries.get(vdiv(gamma, n))
        if base is not None and base.kind == KIND_REAL:
            return Fraction(1, n)
    return Fraction(0)


def _pair_candidates(table: RootTable, beta: Vec) -> list[tuple[Vec, Fraction]]:
    """Candidate lower halves u of decompositions beta = u + v with c(u) != 0.

    Everything with height(u) <= height(beta)/2, u <= beta componentwise:
    recorded entries straight from the height buckets, plus multiples of
    recorded real roots with their Lemma-style c = 1/n.
    """
    half = height(beta) // 2
    out: list[tuple[Vec, Fraction]] = []
    for h in range(1, half + 1):
        for u in table.at_height(h):
            if leq(u, beta):
                out.append((u, table.entries[u].c))
    for h in range(1, half // 2 + 1):
        for r in table.reals_at_height(h):
            n = 2
            while n * h <= half:
                u = vscale(n, r)
                if leq(u, beta):
                    out.append((u, Fraction(1, n)))
                n += 1
    return out


def _sum_terms(table: RootTable, beta: Vec, cands) -> Fraction:
    h = height(beta)
    cm = table.cm
    counter = table.counter
    total = Fraction(0)
    for u, cu in cands:
        v = vsub(beta, u)
        if 2 * height(u) == h:
            if u > v:
                continue  # unordered pair already visited from the other side
            factor = 1 if u == v else 2
        else:
            factor = 2
        cv = c_value(table, v)
        if not cv:
            continue
        total += factor * killing(cm, u, v, counter, PHASE_SUM) * cu * cv
    return total


def peterson_c(table: RootTable, beta: Vec) -> Fraction:
    """Evaluate the Peterson recurrence at a chamber point.

    Every chamber point of smaller height must already have been processed
    and every known root pingponged; the sum then ranges over exactly the
    decompositions with both c-values nonzero.  Unordered pairs are visited
    once and doubled (the self-pair beta = 2u counts once), which halves the
    form count; every evaluated form ticks the counter.
    """
    denom = killing(table.cm, beta, beta, table.counter, PHASE_SUM) - rho_pair(
        table.cm, beta
    )
    if denom == 0:
        raise ZeroDenominator(f"(beta, beta) = 2 (rho, beta) at {render(beta)}")
    return _sum_terms(table, beta, _pair_candidates(table, beta)) / denom


def mobius_mult(table: RootTable, beta: Vec, c_beta: Fraction | None = None) -> int:
    """Multiplicity by Moebius inversion along the divisors of gcd(beta):

        m(beta) = sum_{n | gcd beta} mu(n)/n * c(beta/n)

    Raises NonIntegerMultiplicity if the result is not a non-negative
    integer, which would mean an upstream bug.
    """
    if c_beta is None:
        c_beta = c_value(table, beta)
    total = Fraction(c_beta)
    g = coord_gcd(beta)
    for n in range(2, g + 1):
        if g % n == 0:
            mu = mobius(n)
            if mu:
                total += Fraction(mu, n) * c_value(table, vdiv(beta, n))
    if total.denominator != 1 or total < 0:
        raise NonIntegerMultiplicity(
            f"m({render(beta)}) = {total} is not a non-negative integer"
        )
    return int(total)


def compute_all(
    cm: CartanMatrix,
    cap: int,
    counter: KillingCounter | None = None,
) -> RootTable:
    """Find every positive root of height <= cap with its multiplicity.

    Initializes m = c = 1 on the simple roots and pingpongs them, then walks
    the chamber points in ascending (height, lex) order: Peterson c-value,
    Moebius multiplicity, and - for actual roots - an orbit closure that
    propagates the values.  A chamber point that is not a root must have
    c = 0: a nonzero c would make some beta/n (n >= 2) a root, and that
    vector lies in the chamber too, so it is imaginary and its multiple
    beta is a root.  A violation raises NonIntegerMultiplicity.
    """
    table = RootTable(cm, cap, counter)
    for i in range(cm.d):
        table.record(unit(cm.d, i), Fraction(1), 1, KIND_REAL)
    for i in range(cm.d):
        pingpong(cm, unit(cm.d, i), cap, table)

    for beta in chamber_points(cm, cap):
        c = peterson_c(table, beta)
        mult = mobius_mult(table, beta, c)
        if mult > 0:
            table.record(beta, c, mult, KIND_IMAGINARY)
            pingpong(cm, beta, cap, table)
        elif c:
            raise NonIntegerMultiplicity(
                f"c({render(beta)}) = {c} but m = 0 at a chamber point"
            )
    return table


def query_mult(table: RootTable, beta: Vec) -> int:
    """Multiplicity of an arbitrary lattice vector, using m(beta) = m(-beta).

    Vectors of mixed sign are never roots and answer 0 at any height; for
    the rest the height must be within the table's cap.
    """
    if len(beta) != table.cm.d:
        raise ValueError("dimension mismatch")
    if not any(beta):
        return 0
    if all(b <= 0 for b in beta):
        beta = tuple(-b for b in beta)
    elif not all(b >= 0 for b in beta):
        return 0
    if height(beta) > table.cap:
        raise HeightExceedsCap(
            f"height {height(beta)} exceeds table cap {table.cap}"
        )
    rec = table.entries.get(beta)
    return rec.mult if rec is not None else 0
