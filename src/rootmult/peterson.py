"""The graded-ascent multiplicity engine.

Roots are found in ascending height order.  The real roots come from
walking the Weyl orbits of the simple roots ("pingpong").  At each point
beta of the fundamental chamber, in (height, lex) order, the Peterson
recurrence

    c(beta) = [ sum_{gamma < beta} (gamma, beta - gamma) c(gamma) c(beta - gamma) ]
              / ((beta, beta) - 2 (rho, beta))

gives c(beta) = sum_{n | gcd(beta)} m(beta/n)/n, solved for its n = 1
term, the multiplicity, from the records of the lower chamber points
beta/n; each new root's orbit is walked before the next height.  Only
vectors with c != 0 enter the sum: the recorded roots, and the scaled
reals n r (n >= 2, r a real root), which are not roots and have c = 1/n.

Automorphisms.  A diagram automorphism sigma (a node permutation
preserving S, see cartan.automorphisms) maps the chamber to itself and
preserves the form, rho and the height, so c(sigma beta) = c(beta) (Kac,
Infinite-dimensional Lie algebras, 4.19 and 11.13).  The sum is therefore
evaluated once per orbit of chamber points under these permutations, at
the orbit's first point in lex order, and the other points reuse its
value; each point still gets its own multiplicity, record and walk,
since the images lie in different Weyl orbits.

Key layout.  Every vector inside the engine is one non-negative int, its
KeyCodec key for the box [0, cap]^d.  Each coordinate gets a field of w =
cap.bit_length() + 1 bits, so the top bit of every field (its guard bit)
is clear in every key.  Coordinate 0 takes the most significant field, so
int order is lex order.  A lookup of the partner key(beta) - key(u)
misses every u not <= beta componentwise: for u <= beta no field borrows
and each field of the difference is beta_i - u_i, but otherwise the
difference is negative or the lowest field with u_i > beta_i takes no
borrow from below and wraps to at least 2^(w - 1), setting its guard
bit, so it is the key of no vector of the box.  key(n gamma) = n
key(gamma), so exact division by n divides gamma, and s_i changes only
coordinate i, so an image is key - (p_i << shifts[i]).

Tuples appear only at the API edge (RootTable.key, get, entries, roots,
lines_by_height, c_value, query_mult), which checks them before encoding
and adds no level, and as compute_all's chamber points, each encoded once,
whose coordinates pingpong (its seed) and peterson_c (its beta) read too.

The walk.  pingpong walks a seed's Weyl orbit upward from its lowest
member, a simple root or a chamber point, by the reflections that raise
the height.  That reaches the whole orbit below the cap: a positive root
that is neither simple nor in the chamber has an i with p_i = <beta,
alpha_i^vee> > 0 whose image s_i(beta) is a positive root of smaller
height (Kac, Ch. 5), so every positive root of height <= cap comes down,
through positive roots, to one of those lowest members, and read upward
that chain is a walk of raising moves.  The orbit's values are Weyl
invariants, so every member is recorded with the seed's RootRecord
object, and the table's levels are the walk's only visited set.  The walk
carries each vector's height and pairing vector p = A beta: s_i raises
the height iff p_i < 0, and moves p by p_i times column i of A.  The
seed's p comes from compute_all: column i of A for alpha_i, and for a
chamber point the p its norm is read from.  An image needs no check of
its own: only its field i moves, to beta_i - p_i <= h - p_i <= cap, so
it is a key of the box (Key layout) of height h - p_i whatever p, and
its gcd is the seed's, a Weyl invariant.  So the walk checks the seed's
g once, and an image's height only against the frozen ones.

Integers.  With g = gcd(beta), g c(beta) = sum_{n | g} m(beta/n) g/n is
an integer, and g divides h = ht(beta), so a(beta) = h c(beta) = gc h/g is
an integer too.  compute_all checks g c once per chamber point, after the
sum; from there on the table holds only integers: a record stores g, gc,
the multiplicity and the norm (beta, beta), and mobius_mult solves for
h m(beta) in integers; a height h, once final, freezes for the Peterson
sum into one dict, key -> (a, norm), over its vectors with c = a/h != 0.  The Peterson sum takes each pair's form from stored
norms, 2 (u, v) = (beta, beta) - (u, u) - (v, v), and still charges the
cost model one form per pair.  Fractions are built only for readers
(c_value, RootRecord.c) and for NonIntegerMultiplicity messages, by
_fraction, so a run that does neither never loads fractions.  No floating
point is used.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, lshift, mul, sub
from typing import TYPE_CHECKING, NamedTuple

from .cartan import CartanMatrix, automorphisms, rho_pair
from .chamber import chamber_points
from .lattice import Vec, render, unit
from .metrics import PHASE_PINGPONG, PHASE_SUM, KillingCounter

if TYPE_CHECKING:
    from fractions import Fraction

KIND_REAL = "real"
KIND_IMAGINARY = "imaginary"

CSV_HEADER = "coords,height,norm,c,mult,kind\n"  # above RootTable.lines_by_height's CSV rows


def _fraction(num: int, den: int = 1) -> Fraction:
    """Fraction(num, den), importing fractions on the first call."""
    from fractions import Fraction

    return Fraction(num, den)


class KeyCodec:
    """One non-negative int per vector of the box [0, cap]^d: coordinate
    i in the bit field at shifts[i] (module docstring, Key layout).
    encode does not check its input: callers ensure 0 <= v_i <= cap (the
    root table's key() does)."""

    def __init__(self, d: int, cap: int):
        self.bits = bits = cap.bit_length() + 1
        self.mask = (1 << bits) - 1
        self.shifts = tuple(range(bits * (d - 1), -1, -bits))  # coordinate i's field
        self.limit = 1 << (bits * d)

    def encode(self, v: Vec) -> int:
        return sum(map(lshift, v, self.shifts))

    def decode(self, key: int) -> Vec:
        return tuple([key >> s & self.mask for s in self.shifts])


class NonIntegerMultiplicity(ArithmeticError):
    """The divisor sum of c solved to a non-integer or negative multiplicity, a
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
        return _fraction(self.gc, self.g)

    @property
    def kind(self) -> str:
        """Real iff (beta, beta) > 0 (Kac, Prop. 5.10), else imaginary."""
        return KIND_REAL if self.norm > 0 else KIND_IMAGINARY


class RootTable:
    """Graded store of every discovered vector with its orbit's RootRecord.

    The engine's one state object: it carries the Cartan matrix, the cap,
    the counter of its run, the KeyCodec of the box [0, cap]^d, moves,
    pingpong's cache (i, p_i) -> p_i times column i of A, and levels, its
    one store of records: height -> {key -> RootRecord}.  A
    read by the walk may add an empty level in 1..cap, which exports
    nothing.  frozen[h - 1], built by freeze, maps each vector of height h
    with c = a/h != 0 to (a, norm).  compute_all fills the table; once it
    returns, the engine records nothing more, and on the finished table
    only c_value and peterson_c freeze the heights they read, which adds
    frozen dicts and never a record.
    """

    def __init__(self, cm: CartanMatrix, cap: int, counter: KillingCounter | None = None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cm = cm
        self.cap = cap
        self.counter = counter if counter is not None else KillingCounter()
        self.codec = KeyCodec(cm.d, cap)
        self.moves: dict[tuple[int, int], tuple[int, ...]] = {}  # (i, p_i) -> p_i column i
        self.levels: defaultdict[int, dict[int, RootRecord]] = defaultdict(dict)
        self.frozen: list[dict[int, tuple[int, int]]] = []  # height h at h - 1

    def key(self, beta: Vec) -> int | None:
        """beta's key, or None unless beta has d coordinates in 0..cap.

        The check comes first: a short tuple, or a coordinate that does not
        fit its field, would otherwise encode to another vector's key.
        """
        if len(beta) != self.cm.d or min(beta) < 0 or max(beta) > self.cap:
            return None
        return self.codec.encode(beta)

    def __contains__(self, beta: Vec) -> bool:
        return self.get(beta) is not None

    def __len__(self) -> int:
        return sum(map(len, self.levels.values()))

    def get(self, beta: Vec) -> RootRecord | None:
        key = self.key(beta)  # checked before any level is read
        return None if key is None else self.levels.get(sum(beta), {}).get(key)

    @property
    def entries(self) -> dict[Vec, RootRecord]:
        """A copy of the records keyed by vector, by height and within a
        height in record order, built on each access: for readers, never
        used by the engine."""
        decode, levels = self.codec.decode, self.levels
        return {decode(k): rec for h in sorted(levels) for k, rec in levels[h].items()}

    def record(self, key: int, h: int, rec: RootRecord) -> None:
        """Store the vector of key, of height h, with rec, the record of its
        orbit (shared, not copied).

        Raises ValueError unless 0 <= key < limit and its fields, decoded,
        sum to h with 0 < h <= cap (so no field reaches its guard bit), h is
        not frozen, the key is not recorded yet, and rec.g is the gcd of
        its coordinates.
        """
        codec = self.codec
        beta = codec.decode(key) if 0 <= key < codec.limit else None
        if beta is None or not 0 < h <= self.cap or sum(beta) != h:
            raise ValueError(f"cannot record {beta or hex(key)}: not positive within cap")
        level = self.levels[h]
        if key in level:
            raise ValueError(f"{beta} already recorded")
        if h <= len(self.frozen):
            raise ValueError(
                f"cannot record {beta}: height {h} is frozen, the scaled "
                f"reals up to height {len(self.frozen)} are already built"
            )
        if rec.g != gcd(*beta):
            raise ValueError(f"cannot record {beta} with g = {rec.g}")
        level[key] = rec

    def freeze(self, h: int) -> None:
        """Freeze every height up to h not frozen yet: height b takes no
        further records and gets frozen[b - 1], key -> (a, norm) for each
        vector of height b with c = a/b != 0.  First its roots, a = gc b/g;
        then its scaled reals n r, for each recorded real root r (norm > 0)
        and n >= 2 with n ht(r) = b, which take a = ht(r) (c = 1/n) and norm
        n^2 (r, r).  No multiple of a real root is a root, so no key is
        both.  One (a, norm) tuple serves every key of a record at b.  Adds
        no level."""
        levels, frozen = self.levels, self.frozen
        while len(frozen) < h:
            b = len(frozen) + 1
            entry, last = {}, None
            for k, rec in levels.get(b, {}).items():
                if rec is not last:  # a walk stores its orbit's keys together
                    last, pair = rec, (rec.gc * (b // rec.g), rec.norm)
                entry[k] = pair
            for n in range(2, b + 1):
                if b % n == 0:
                    last = None
                    for k, rec in levels.get(b // n, {}).items():
                        if rec.norm > 0:
                            if rec is not last:
                                last, pair = rec, (b // n, n * n * rec.norm)
                            entry[n * k] = pair
            frozen.append(entry)

    def roots(self) -> list[Vec]:
        """All recorded vectors with positive multiplicity, (height, lex)."""
        decode = self.codec.decode
        return [decode(k) for _, level in sorted(self.levels.items())
                for k, rec in sorted(level.items()) if rec.mult > 0]

    def lines_by_height(self, fmt: str):
        """One row per recorded vector (coords, height, norm, c in lowest
        terms, mult, kind), as CSV lines under CSV_HEADER (not included) if
        fmt is "csv" or JSON lines with sorted keys if "json" (else
        ValueError), one str per height in (height, lex) order.  Norms come
        from the records, so exporting evaluates no form.  Each height
        formats one row template per record present, with %s%s where the
        two halves of the coordinates go: the key's high ceil(d/2) fields
        (key >> shift) and its low floor(d/2) fields (key & low_mask, empty
        at rank 1), each distinct half formatted once for the whole
        export: at e10@80, 584 high and 509 low halves serve 15,627 rows."""
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")

        def template(rec: RootRecord, h: int) -> str:
            g = gcd(rec.gc, rec.g)  # c = gc/g in lowest terms
            c = f"{rec.gc // g}/{rec.g // g}"
            if fmt == "csv":
                return f"%s%s,{h},{rec.norm},{c},{rec.mult},{rec.kind}\n"
            return (f'{{"c": "{c}", "coords": [%s%s], "height": {h}, '
                    f'"kind": "{rec.kind}", "mult": {rec.mult}, "norm": {rec.norm}}}\n')

        sep = ";" if fmt == "csv" else ", "
        d, n = self.cm.d, (self.cm.d + 1) // 2  # n high fields, d - n low ones
        shift = self.codec.shifts[n - 1]  # the low fields lie below it
        low_mask = (1 << shift) - 1
        highs = _HalfTexts(sep.join(["%d"] * n), n, self.cap)
        lows = _HalfTexts((sep + "%d") * (d - n), d - n, self.cap)
        for h, level in sorted(self.levels.items()):
            rows = {rec: template(rec, h) for rec in set(level.values())}
            yield "".join([rows[level[k]] % (highs[k >> shift], lows[k & low_mask])
                           for k in sorted(level)])


class _HalfTexts(dict):
    """half-key -> fmt % its n coordinates, decoded by KeyCodec(n, cap) and
    formatted on first use."""

    def __init__(self, fmt: str, n: int, cap: int):
        self.fmt, self.decode = fmt, KeyCodec(n, cap).decode

    def __missing__(self, half: int) -> str:
        text = self[half] = self.fmt % self.decode(half)
        return text


def pingpong(table: RootTable, seed: Vec, key: int, h: int, p: tuple[int, ...]) -> list[int]:
    """Close the seed's Weyl orbit under the table's height cap, by
    ascent (module docstring, The walk).

    The seed comes with its key, height and pairing vector p = A seed;
    p is required and not checked.  The seed must be recorded (else
    KeyError) with g = gcd(seed), the one g check of the walk (else
    ValueError), and must be the lowest member of its orbit: a seed with
    some p_i > 0 and seed_i >= p_i, whose image s_i(seed) is positive and
    lower, raises ValueError, since the walk would miss what lies above
    that image.

    Walks breadth-first from the seed, on keys.  An image the table does
    not hold is stored with the seed's record object and walked in turn,
    or at a frozen height raises the ValueError of RootTable.record; one
    it holds must carry that record or equal values (E10's simple roots
    are recorded apart but share one orbit), else AssertionError, and is
    not walked again.  Returns the keys of the new records in record order
    ([] on a second run): the walk's own list less its seed, not a copy,
    which at E10's first walk would add its size to the peak RSS.  Ticks
    d * len(walk) pingpong forms, the seed's included, on table.counter
    once, at its end.  Its key constants come from table.codec, and each
    move of p, p_i times column i of A, from the rows of A, once per (i,
    p_i) into table.moves.
    """
    record = table.levels.get(h, {}).get(key)
    if record is None:
        raise KeyError(f"pingpong seed {seed} is not recorded in the table")
    if record.g != gcd(*seed):
        raise ValueError(f"pingpong seed {seed} has gcd {gcd(*seed)}, its record g = {record.g}")
    cm, cap = table.cm, table.cap
    for i, (p_i, b_i) in enumerate(zip(p, seed)):
        if 0 < p_i <= b_i:
            raise ValueError(
                f"pingpong seed {seed} is not the lowest member of its orbit: "
                f"reflection {i} lowers it"
            )
    levels, frozen, moves, a = table.levels, len(table.frozen), table.moves, cm.a
    shifts = table.codec.shifts

    walk = [key]
    # Height and pairing vector of the walked vectors not yet expanded, in
    # walk order: each is dropped once its vector is expanded, so only the
    # frontier's are held, and as tuples, which are smaller than lists.
    frontier = deque([(h, p)])
    for key in walk:  # grows while it is read
        h, p = frontier.popleft()
        for i, p_i in enumerate(p):
            if p_i >= 0 or h - p_i > cap:
                continue
            image, up = key - (p_i << shifts[i]), h - p_i
            level = levels[up]
            existing = level.get(image)
            if existing is None:
                if up <= frozen:  # record raises, so its message lives there
                    table.record(image, up, record)
                level[image] = record
                walk.append(image)
                move = moves.get((i, p_i))
                if move is None:  # maps: a comprehension would make i and p_i closure cells
                    move = moves[i, p_i] = tuple(map(p_i.__mul__, map(itemgetter(i), a)))
                frontier.append((up, tuple(map(sub, p, move))))
            elif existing is not record and (existing.gc, existing.mult) != (
                record.gc, record.mult
            ):
                raise AssertionError(
                    f"orbit member {table.codec.decode(image)} already recorded "
                    f"with conflicting values"
                )
    table.counter.tick(PHASE_PINGPONG, cm.d * len(walk))
    del walk[0]
    return walk


def _edge_key(table: RootTable, beta: Vec) -> tuple[int, int] | None:
    """(key, height) of beta, or None for the zero vector and a beta with a
    negative coordinate; raises what c_value and query_mult raise."""
    if len(beta) != table.cm.d:
        raise ValueError("dimension mismatch")
    if min(beta) < 0 or not any(beta):
        return None
    h = sum(beta)
    if h > table.cap:
        raise HeightExceedsCap(f"height {h} exceeds table cap {table.cap}")
    return table.codec.encode(beta), h


def c_value(table: RootTable, gamma: Vec) -> Fraction:
    """c(gamma) = a/h, read from the frozen dict of its height h: a recorded
    root's c, 1/n for a scaled real n r, and 0 for every other gamma,
    among them the zero vector and a gamma with a negative coordinate.
    A gamma of the wrong length raises ValueError, and one above the cap
    HeightExceedsCap: the table cannot tell its c.  No form evaluations;
    freezes the heights up to gamma's.
    """
    edge = _edge_key(table, gamma)
    if edge is None:
        return _fraction(0)
    key, h = edge
    table.freeze(h)
    a, _ = table.frozen[h - 1].get(key, (0, 0))
    return _fraction(a, h)


def peterson_c(table: RootTable, beta: Vec, key: int, top: int, norm: int) -> tuple[int, int]:
    """The Peterson recurrence at beta, given its key, height top and norm
    (beta, beta), as an integer fraction (numerator, denominator).

    Every height below top must be final, as it is at a chamber point once
    every chamber point of smaller height is processed and every known
    root walked: chamber points are lowest in their orbits and walks only
    raise the height.  Freezes the heights up to top - 1.  A zero
    denominator raises ZeroDenominator before any tick.  Ticks one form
    per pair and one for (beta, beta).

    Every entry u -> (a_u, norm_u) of frozen[h - 1], h <= top/2, is
    scanned, and one lookup of kv = key - ku in frozen[top - h - 1]
    decides it, missing every u not <= beta (module docstring, Key
    layout).  A hit (a_v, norm_v) adds 2 (u, v) c(u) c(v) =
    (norm - norm_u - norm_v) a_u a_v / (h (top - h)) to its height's one
    integer.  At h = top/2 the full scan meets u = v (beta = 2u) once and
    each other pair twice: the denominator 2 h^2 halves it, and
    ceil(hits / 2) pairs are counted.  The heights meet over their common denominator, which
    _scales(top) gives with each height's multiplier.
    """
    denom = norm - rho_pair(table.cm, beta)
    if denom == 0:
        raise ZeroDenominator(f"(beta, beta) = 2 (rho, beta) at {render(beta)}")
    table.freeze(top - 1)
    frozen = table.frozen
    common, scales = _scales(top)
    num, forms = 0, 1  # (beta, beta)
    for h, scale in enumerate(scales, 1):
        us = frozen[h - 1]
        get = frozen[top - h - 1].get  # at v's height
        acc = misses = 0
        for ku, (a_u, norm_u) in us.items():
            pair = get(key - ku)
            if pair is None:
                misses += 1
                continue
            a_v, norm_v = pair
            acc += a_u * a_v * (norm - norm_u - norm_v)
        num += acc * scale
        forms += len(us) - misses
    if not top & 1:  # the middle height, scanned last
        forms -= (len(us) - misses) >> 1
    table.counter.tick(PHASE_SUM, forms)
    return num, common * denom


@lru_cache(maxsize=1)  # chamber points arrive in height order
def _scales(top: int) -> tuple[int, tuple[int, ...]]:
    """The common denominator of peterson_c's heights at height top, with
    each height's multiplier, common // its denominator, in order."""
    dens = [h * (top - h) for h in range(1, (top + 1) // 2)]
    if not top & 1:
        dens.append(top * top >> 1)
    common = lcm(*dens)
    return common, tuple([common // den for den in dens])


def mobius_mult(table: RootTable, key: int, h: int, g: int, gc: int) -> int:
    """Multiplicity of beta, the vector of key, given its height h from the
    caller, g = gcd(beta) and gc = g c(beta), by solving c(beta) =
    sum_{n | g} m(beta/n)/n for its n = 1 term:

        h m(beta) = a(beta) - sum_{n | g, n >= 2} (h/n) m(beta/n),

    in integers (module docstring, Integers), with a(beta) = gc h/g.  Each
    beta/n is a chamber point of height h/n, already processed, so it has
    a record, at key // n, exactly when it is a root; m(beta/n) is that
    record's multiplicity, else 0.  Freezes nothing.  Raises
    NonIntegerMultiplicity if the result is not a non-negative integer,
    which would mean an upstream bug.
    """
    total, levels = gc * (h // g), table.levels
    for n in range(2, g + 1):
        if g % n == 0:
            rec = levels.get(h // n, {}).get(key // n)
            if rec is not None:
                total -= h // n * rec.mult
    if total < 0 or total % h:
        raise NonIntegerMultiplicity(
            f"m({render(table.codec.decode(key))}) = {_fraction(total, h)} "
            f"is not a non-negative integer"
        )
    return total // h


def compute_all(
    cm: CartanMatrix,
    cap: int,
    counter: KillingCounter | None = None,
) -> RootTable:
    """Find every positive root of height <= cap with its multiplicity.

    Records m = c = 1 on the simple roots and pingpongs them, then walks
    the chamber points in ascending (height, lex) order: the Peterson sum
    at the first point of each orbit under the diagram automorphisms
    (module docstring, Automorphisms), the multiplicity by mobius_mult, and
    for a root a record and a walk of its orbit.  Each point's key, height, g =
    gcd(beta), pairing vector p = A beta and norm (beta, beta) = sum_i
    beta_i sym_i p_i (S = diag(sym) A) are derived once, here, and handed
    to each of those steps, p to pingpong; g * c comes from the sum's
    integer fraction by one divmod.  A chamber point that is not a root
    must have c = 0: a nonzero c would make some beta/n (n >= 2) a root,
    and that vector lies in the chamber too, so it is imaginary and its
    multiple beta is a root.  A violation, or a c-value whose g * c is not
    an integer, raises NonIntegerMultiplicity.  The automorphism generators
    are found once, before the first point, and only if there is one, so a
    matrix without chamber points never searches for them.
    """
    table = RootTable(cm, cap, counter)
    codec = table.codec
    # a walk never comes back to height 1; A alpha_i is column i of A
    for i, (shift, column) in enumerate(zip(codec.shifts, zip(*cm.a))):
        table.record(1 << shift, 1, RootRecord(1, 1, 1, cm.s[i][i]))
        pingpong(table, unit(cm.d, i), 1 << shift, 1, column)

    points = chamber_points(cm, cap)
    gens = automorphisms(cm) if points else ()
    pending: dict[Vec, int] = {}  # gc of chamber points whose orbit was summed
    a, sym = cm.a, cm.sym
    for beta in points:
        key, top, g = codec.encode(beta), sum(beta), gcd(*beta)
        p = tuple([sum(map(mul, row, beta)) for row in a])
        norm = sum(map(mul, map(mul, beta, sym), p))  # S = diag(sym) A
        gc = pending.pop(beta, None)
        if gc is None:
            num, den = peterson_c(table, beta, key, top, norm)
            gc, rem = divmod(num * g, den)
            if rem:
                raise NonIntegerMultiplicity(
                    f"gcd * c({render(beta)}) = {_fraction(num * g, den)} is not an integer"
                )
            for image in _images(beta, gens):
                pending[image] = gc
        mult = mobius_mult(table, key, top, g, gc)
        if mult > 0:
            table.record(key, top, RootRecord(g, gc, mult, norm))
            pingpong(table, beta, key, top, p)
        elif gc:
            raise NonIntegerMultiplicity(
                f"c({render(beta)}) = {_fraction(gc, g)} but m = 0 at a chamber point"
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
    """Multiplicity of any lattice vector, using m(beta) = m(-beta).

    The zero vector and vectors of mixed sign answer 0 at any height.  A
    beta of the wrong length raises ValueError, and one above the cap
    HeightExceedsCap.
    """
    if all(b <= 0 for b in beta):
        beta = tuple(-b for b in beta)
    edge = _edge_key(table, beta)
    if edge is None:
        return 0
    key, h = edge
    rec = table.levels.get(h, {}).get(key)
    return rec.mult if rec is not None else 0
