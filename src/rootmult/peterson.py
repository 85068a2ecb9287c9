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

A diagram automorphism sigma (a node permutation preserving S, see
cartan.automorphisms) maps the chamber to itself and preserves the form,
rho and height, so c(sigma beta) = c(beta) (Kac, Infinite-dimensional Lie
algebras, 4.19 and 11.13).  The Peterson sum is therefore evaluated once
per orbit of chamber points under these permutations, at the orbit's
first point in (height, lex) order, and its value is reused at the other
points; every point still gets its own Moebius inversion, record and
pingpong, since the images lie in different Weyl orbits.

Everything is exact and integer inside.  With g = gcd(beta), g*c(beta) is
an integer, because c(beta) = sum_{n | g} m(beta/n)/n; compute_all checks
that once per chamber point, right after the Peterson sum, and from there
on the table takes only integers: a record stores gc beside g, the
multiplicity and the norm (beta, beta), which also decides the kind (real
iff positive).  The Peterson sum and the Moebius inversion work on those
integers.  Fraction appears only at the edges: one per evaluated chamber
point, and in c_value and RootRecord.c for readers.  No floating point is
used anywhere in the engine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, le, mul, sub
from typing import NamedTuple

from .cartan import CartanMatrix, automorphisms, killing, rho_pair
from .chamber import chamber_points
from .lattice import (
    Vec,
    coord_gcd,
    divisors,
    height,
    mobius,
    render,
    unit,
    vdiv,
    vscale,
)
from .metrics import PHASE_SUM, KillingCounter
from .weyl import pingpong

KIND_REAL = "real"
KIND_IMAGINARY = "imaginary"


class NonIntegerMultiplicity(ArithmeticError):
    """Moebius inversion produced a non-integer or negative multiplicity, a
    c-value times gcd(beta) is not an integer, or a chamber point has a
    nonzero c-value but multiplicity 0.

    This is the engine's strongest self-check: it can only fire on an
    upstream bug, never on valid input.
    """


class ZeroDenominator(ArithmeticError):
    """(beta, beta) = 2 (rho, beta); impossible for nonzero chamber points."""


class HeightExceedsCap(ValueError):
    """Query beyond the height range the table was computed for."""


class RootRecord(NamedTuple):
    """The values of one Weyl orbit, shared by every recorded member.

    g is the gcd of the coordinates and gc the integer g * c; g, c, the
    multiplicity and the norm (beta, beta) are all Weyl invariants.
    Immutable, because one record serves a whole orbit.
    """

    g: int
    gc: int
    mult: int
    norm: int

    @property
    def c(self) -> Fraction:
        return Fraction(self.gc, self.g)

    @property
    def kind(self) -> str:
        """Real iff (beta, beta) > 0 (Kac, Prop. 5.10), else imaginary."""
        return KIND_REAL if self.norm > 0 else KIND_IMAGINARY


class RootTable:
    """Graded store of every discovered vector with its orbit's RootRecord.

    The engine's one state object: it carries the Cartan matrix, the cap
    and the counter of its run.  Filled in by one run (pingpong and the
    driver write to it); read-only once compute_all returns.  The Peterson
    sum reads it through candidate buckets, one per height, built on first
    use; a height at or below the highest built bucket is frozen and takes
    no further records.
    """

    def __init__(self, cm: CartanMatrix, cap: int, counter: KillingCounter | None = None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cm = cm
        self.cap = cap
        self.counter = counter if counter is not None else KillingCounter()
        self.entries: dict[Vec, RootRecord] = {}
        self._by_height: dict[int, list[Vec]] = {}
        self._buckets: dict[int, tuple[list[int], list[tuple]]] = {}
        self._frozen = 0

    def __contains__(self, beta: Vec) -> bool:
        return beta in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, beta: Vec) -> RootRecord | None:
        return self.entries.get(beta)

    def make_record(self, beta: Vec, gc: int, mult: int) -> RootRecord:
        """A new orbit's record for its first member beta, given gc = g * c.

        The norm (beta, beta) is computed outside the counter: it is stored
        for readers and export, not spent by any phase.
        """
        return RootRecord(coord_gcd(beta), gc, mult, killing(self.cm, beta, beta))

    def record(self, beta: Vec, rec: RootRecord) -> None:
        """Store beta with rec, the record of its orbit (shared, not copied)."""
        h = height(beta)
        if not (0 < h <= self.cap) or any(b < 0 for b in beta):
            raise ValueError(f"cannot record {beta}: not positive within cap")
        if beta in self.entries:
            raise ValueError(f"{beta} already recorded")
        if h <= self._frozen:
            raise ValueError(
                f"cannot record {beta}: height {h} is frozen, the Peterson "
                f"candidates up to height {self._frozen} are already indexed"
            )
        if rec.g != coord_gcd(beta):
            raise ValueError(f"cannot record {beta} with g = {rec.g}")
        self.entries[beta] = rec
        self._by_height.setdefault(h, []).append(beta)

    def at_height(self, h: int) -> list[Vec]:
        return self._by_height.get(h, [])

    def candidates(self, h: int) -> tuple[list[int], list[tuple]]:
        """The Peterson candidate bucket of height h; freezes every height <= h.

        One entry (u0, u, g, gc, S u) per vector u of height h with c(u) != 0:
        every recorded u, and every multiple u = n r (n >= 2) of a recorded
        real root r (norm > 0), whose g = n and gc = 1.  Entries are sorted
        by their first coordinate u0, returned beside the list of those keys.
        """
        bucket = self._buckets.get(h)
        if bucket is None:
            s, entries = self.cm.s, self.entries

            def entry(u, g, gc):
                return (u[0], u, g, gc, tuple(sum(map(mul, row, u)) for row in s))

            rows = [entry(u, entries[u].g, entries[u].gc) for u in self.at_height(h)]
            for n in range(2, h + 1):
                if h % n == 0:
                    rows.extend(entry(vscale(n, r), n, 1)
                                for r in self.at_height(h // n)
                                if entries[r].norm > 0)
            rows.sort(key=itemgetter(0))
            bucket = self._buckets[h] = ([e[0] for e in rows], rows)
            self._frozen = max(self._frozen, h)
        return bucket

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

        Sorted by (height, lex).  Norms come from the records, so exporting
        evaluates no form and never perturbs the cost measurement.
        """
        for h in sorted(self._by_height):
            for v in sorted(self._by_height[h]):
                rec = self.entries[v]
                k = gcd(rec.gc, rec.g)  # c = gc/g in lowest terms
                yield {
                    "coords": v,
                    "height": h,
                    "norm": rec.norm,
                    "c": f"{rec.gc // k}/{rec.g // k}",
                    "mult": rec.mult,
                    "kind": rec.kind,
                }


def _gc(table: RootTable, gamma: Vec) -> int:
    """gcd(gamma) * c(gamma): the record's gc, 1 for an unrecorded multiple
    of a recorded real root (c = 1/n at gcd n), else 0."""
    rec = table.entries.get(gamma)
    if rec is not None:
        return rec.gc
    n = coord_gcd(gamma)
    if n >= 2:
        base = table.entries.get(vdiv(gamma, n))
        if base is not None and base.norm > 0:
            return 1
    return 0


def c_value(table: RootTable, gamma: Vec) -> Fraction:
    """c(gamma) from the table plus the scaled-real rule.

    Recorded vectors answer directly.  An unrecorded gamma can only have a
    nonzero c-value if gamma = n * r for a recorded real root r, in which
    case c(gamma) = 1/n; everything else is 0.  Pure lookup, no form
    evaluations.
    """
    gc = _gc(table, gamma)
    return Fraction(gc, coord_gcd(gamma)) if gc else Fraction(0)


def _pair_candidates(table: RootTable, beta: Vec) -> list[tuple]:
    """Candidate lower halves u of decompositions beta = u + v with c(u) != 0.

    Every bucket entry (u0, u, g, gc, S u) with height(u) = h <= height(beta)/2
    and u <= beta componentwise.  Chamber points are minimal in height within
    their orbit, so once beta is reached nothing more is recorded at height
    <= height(beta)/2 and those buckets are final.  In the bucket of height h,
    u <= beta forces h - (height(beta) - beta0) <= u0 <= beta0, a bisected
    range that leq then filters (for rank 2 the range is exact).
    """
    top = height(beta)
    b0 = beta[0]
    rest = top - b0
    out: list[tuple] = []
    for h in range(1, top // 2 + 1):
        keys, entries = table.candidates(h)
        out.extend(
            e
            for e in entries[bisect_left(keys, h - rest):bisect_right(keys, b0)]
            if all(map(le, e[1], beta))  # leq(u, beta), inlined
        )
    return out


def _sum_terms(table: RootTable, beta: Vec, cands) -> tuple[int, int]:
    """The Peterson sum as an integer fraction (numerator, denominator).

    A pair contributes factor * (u, v) * c(u) * c(v) with c = gc / g, so its
    integer numerator factor * (u, v) * gc_u * gc_v is accumulated under the
    denominator g_u * g_v; the few denominators are combined once at the
    end.  Unordered pairs are visited once and doubled (the self-pair
    beta = 2u counts once).  One bulk tick counts the forms evaluated here
    and the denominator's (beta, beta).
    """
    top = height(beta)
    entries = table.entries
    by_den: dict[int, int] = {}
    forms = 0
    for _, u, g_u, gc_u, su in cands:
        v = tuple(map(sub, beta, u))
        if 2 * sum(u) == top:
            if u > v:
                continue  # unordered pair already visited from the other side
            factor = 1 if u == v else 2
        else:
            factor = 2
        rec = entries.get(v)
        if rec is not None:
            g_v, gc_v = rec.g, rec.gc
        else:
            gc_v = _gc(table, v)
            if not gc_v:
                continue
            g_v = gcd(*v)
        forms += 1
        den = g_u * g_v
        term = factor * gc_u * gc_v * sum(map(mul, v, su))
        by_den[den] = by_den.get(den, 0) + term
    table.counter.tick(PHASE_SUM, forms + 1)  # + 1: peterson_c's (beta, beta)
    common = lcm(*by_den)
    return sum(num * (common // den) for den, num in by_den.items()), common


def peterson_c(table: RootTable, beta: Vec) -> Fraction:
    """Evaluate the Peterson recurrence at a chamber point.

    Every chamber point of smaller height must already have been processed
    and every known root pingponged; the sum then ranges over exactly the
    decompositions with both c-values nonzero.  Every evaluated form ticks
    the counter, in one bulk tick from _sum_terms that includes the
    denominator's (beta, beta); a zero denominator raises before any tick.
    """
    denom = killing(table.cm, beta, beta) - rho_pair(table.cm, beta)
    if denom == 0:
        raise ZeroDenominator(f"(beta, beta) = 2 (rho, beta) at {render(beta)}")
    num, den = _sum_terms(table, beta, _pair_candidates(table, beta))
    return Fraction(num, den * denom)


def mobius_mult(table: RootTable, beta: Vec, gc: int) -> int:
    """Multiplicity by Moebius inversion along the divisors of g = gcd(beta):

        m(beta) = sum_{n | g} mu(n)/n * c(beta/n),

    and c(beta/n) = gc(beta/n) * n/g, so g * m(beta) = sum_{n | g} mu(n) gc(beta/n)
    in integers, with gc = g * c(beta) given and the smaller terms read from
    the table.  Raises NonIntegerMultiplicity if the result is not a
    non-negative integer, which would mean an upstream bug.
    """
    g = coord_gcd(beta)
    total = 0
    for n, gamma in divisors(beta):
        mu = mobius(n)
        if mu:
            total += mu * (gc if n == 1 else _gc(table, gamma))
    if total < 0 or total % g:
        raise NonIntegerMultiplicity(
            f"m({render(beta)}) = {Fraction(total, g)} is not a non-negative integer"
        )
    return total // g


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
    beta is a root.  A violation, or a c-value whose g * c is not an
    integer, raises NonIntegerMultiplicity.

    The Peterson sum runs only at the first point of each orbit under the
    diagram automorphisms: its images are chamber points of the same
    height that come later in lex order, and they wait in pending with its
    g * c until the walk reaches them.  When the group is trivial (E10,
    E11) there are no generators and every point is summed.
    """
    table = RootTable(cm, cap, counter)
    for i in range(cm.d):
        alpha = unit(cm.d, i)
        table.record(alpha, table.make_record(alpha, 1, 1))
    for i in range(cm.d):
        pingpong(table, unit(cm.d, i))

    gens = automorphisms(cm)
    pending: dict[Vec, int] = {}  # gc of chamber points whose orbit was summed
    for beta in chamber_points(cm, cap):
        gc = pending.pop(beta, None)
        if gc is None:
            gc = peterson_c(table, beta) * coord_gcd(beta)
            if gc.denominator != 1:
                raise NonIntegerMultiplicity(
                    f"gcd * c({render(beta)}) = {gc} is not an integer"
                )
            gc = gc.numerator
            for image in _images(beta, gens):
                pending[image] = gc
        mult = mobius_mult(table, beta, gc)
        if mult > 0:
            table.record(beta, table.make_record(beta, gc, mult))
            pingpong(table, beta)
        elif gc:
            raise NonIntegerMultiplicity(
                f"c({render(beta)}) = {Fraction(gc, coord_gcd(beta))} "
                f"but m = 0 at a chamber point"
            )
    return table


def _images(beta: Vec, gens) -> list[Vec]:
    """beta's images other than beta under the group the permutations gens
    generate, the coordinates of an image being beta's, permuted."""
    orbit = [beta]
    seen = {beta}
    for v in orbit:  # grows while it is read
        for sigma in gens:
            image = tuple(map(v.__getitem__, sigma))
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit[1:]


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
