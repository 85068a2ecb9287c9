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

Every vector inside the engine is one non-negative int, its KeyCodec key
for the box [0, cap]^d.  Each coordinate gets a field of w bytes, w the
smallest power of two with cap < 2^(8w - 1), so the top bit of every field
(its guard bit) is clear in every key.  Coordinate 0 takes the most
significant field, so int order is lex order, and export sorts ints.  With
G the mask of the guard bits:

- u <= beta componentwise iff (key(beta) - key(u)) & G == 0: if it holds,
  no field borrows and each field of the difference is beta_i - u_i, in
  [0, 2^(8w - 1)); if not, the lowest field with u_i > beta_i takes no
  borrow from below and wraps to at least 2^(8w - 1), so its guard bit is
  set;
- then key(beta) - key(u) is key(beta - u), so the Peterson sum finds
  v = beta - u with one subtraction;
- key(n gamma) = n key(gamma), so exact division by n divides gamma;
- s_i changes only coordinate i, so an image is key - (p << shifts[i]);
- the height is the top field of key * ones, exact whenever the
  coordinates sum below 2^(8w) (no field of the product carries), which
  holds for every vector of the box with height <= cap.

The table's records, its height index, the candidate buckets and
pingpong's walk all hold keys.  Tuples appear only at the API edge:
RootTable.key checks a tuple's length and range before encoding it (so
nothing outside the box lands on another vector's key), and get, in,
entries, roots, export_rows, lines_by_height, c_value and query_mult
decode or encode there.  compute_all derives each chamber point's key,
height, g = gcd(beta) and norm (beta, beta) once, from the tuple that
chamber_points yields, and hands them to peterson_c, mobius_mult,
RootTable.record (whose guards still check key, height and g) and
pingpong.  The Peterson sum is one pass per chamber point over the
candidate buckets of heights 1..top/2, each entry (key, g, gc, norm) of a
vector with c != 0; the guard-mask test keeps the entries u <= beta, and
in the bucket of height top/2 only those with u <= v in key order, so
every unordered pair {u, v} is visited once.

pingpong walks a seed root's Weyl orbit upwards: from the seed, the lowest
member of its orbit, it takes only the reflections that raise the height,
keeps every image of height at most the cap, and records each new member
with the seed's own RootRecord: its values are Weyl invariants, so the
whole orbit shares one record object.  The root table is the walk's only
visited set, so no recorded vector is reflected twice.

Raising moves alone reach the whole orbit below the cap.  A positive root
beta that is not a simple root and not in the fundamental chamber has an i
with p_i = <beta, alpha_i^vee> > 0 whose image s_i(beta) is a positive root
of smaller height (Kac, Infinite-dimensional Lie algebras, Ch. 5), so
every positive root of height <= cap comes down, through positive roots of
falling height, to a simple root or to the chamber point of its orbit.
Read upwards, that chain is a walk of raising moves, none above beta's
height.  compute_all seeds exactly those lowest members and each walk
expands every vector it records, so a lowering move could only find a
vector that is already recorded, and the walk does not try one.

The walk carries, for each vector it has yet to expand, its height and its
pairing vector p = A beta.  The reflection s_i changes only coordinate i,
by -p_i, so it raises the height exactly when p_i < 0; the image is then
positive, its key is key - (p_i << shifts[i]), its height h - p_i, and its
pairing vector p - p_i * (column i of A), a scaled column built once per
(i, p_i) in a walk.  No tuple of coordinates is built per image; the table
records each new key under its carried height (RootTable.record_key), and
the walk returns keys.  cartan.reflect is the pure single-step API on
tuples and the tests' arbiter for the walk; pingpong does not call it.
The counter charges the cost model's d reflections (one form-equivalent
evaluation each) per walked vector, in one bulk tick per walk.

Everything is exact and integer inside.  With g = gcd(beta), g*c(beta) is
an integer, because c(beta) = sum_{n | g} m(beta/n)/n; compute_all checks
that once per chamber point, right after the Peterson sum, and from there
on the table takes only integers: a record stores gc beside g, the
multiplicity and the norm (beta, beta), which also decides the kind (real
iff positive).  The Peterson sum takes each pair's form from stored norms,
2 (u, v) = (beta, beta) - (u, u) - (v, v), with (n r, n r) = n^2 (r, r)
for a scaled real root, and still charges the cost model one form per
pair.  The sum returns an integer fraction, and g*c is one divmod of
g times its numerator by its denominator, the remainder checked.  The
Moebius inversion reads c(beta/n) at key(beta) / n.  Fraction appears
only in c_value and RootRecord.c, for readers, and in error messages.
No floating point is used anywhere in the engine.
"""

from __future__ import annotations

import struct
from collections import defaultdict, deque
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from .cartan import CartanMatrix, automorphisms, killing, rho_pair
from .chamber import chamber_points
from .lattice import Vec, height, mobius, render, unit
from .metrics import PHASE_PINGPONG, PHASE_SUM, KillingCounter

KIND_REAL = "real"
KIND_IMAGINARY = "imaginary"

MAX_CAP = (1 << 63) - 1  # the widest field KeyCodec packs is 8 bytes


class KeyCodec:
    """One non-negative int per vector of the box [0, cap]^d, in the
    layout of the module docstring.

    encode does not check its input: callers ensure 0 <= v_i <= cap (the
    root table's key() does).  decode is one struct unpack.
    """

    def __init__(self, d: int, cap: int):
        if cap > MAX_CAP:
            raise ValueError(f"cap {cap} is above {MAX_CAP}")
        w = 1
        while cap >> (8 * w - 1):
            w *= 2
        bits = 8 * w
        self.size = w * d
        self.top_shift = bits * (d - 1)
        self.shifts = tuple(range(self.top_shift, -1, -bits))  # coordinate i's field
        self.mask = (1 << bits) - 1
        self.limit = 1 << (bits * d)
        self.ones = (self.limit - 1) // self.mask  # 1 in every field
        self.guard = self.ones << (bits - 1)  # the top bit of every field
        self._struct = struct.Struct(f">{d}{'BHIQ'[w.bit_length() - 1]}")

    def encode(self, v: Vec) -> int:
        return int.from_bytes(self._struct.pack(*v), "big")

    def decode(self, key: int) -> Vec:
        return self._struct.unpack(key.to_bytes(self.size, "big"))

    def height(self, key: int) -> int:
        return (key * self.ones >> self.top_shift) & self.mask


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

    The engine's one state object: it carries the Cartan matrix, the cap,
    the counter of its run and the KeyCodec of the box [0, cap]^d, and
    records maps key -> RootRecord.  Filled in by one run (pingpong and
    the driver write to it); read-only once compute_all returns.  The
    Peterson sum reads it through candidate buckets, one per height, built
    on first use in ascending height; a height whose bucket is built is
    frozen and takes no further records.
    """

    def __init__(self, cm: CartanMatrix, cap: int, counter: KillingCounter | None = None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cm = cm
        self.cap = cap
        self.counter = counter if counter is not None else KillingCounter()
        self.codec = KeyCodec(cm.d, cap)
        self.columns = tuple(zip(*cm.a))  # pingpong's update of p = A beta
        self.records: dict[int, RootRecord] = {}
        self._by_height: dict[int, list[int]] = {}
        self._buckets: list[list[tuple]] = []  # the bucket of height h at h - 1

    def key(self, beta: Vec) -> int | None:
        """beta's key, or None unless beta has d coordinates in 0..cap.

        The check comes first: a short tuple, or a coordinate that does not
        fit its field, would otherwise encode to another vector's key.
        """
        if len(beta) != self.cm.d or min(beta) < 0 or max(beta) > self.cap:
            return None
        return self.codec.encode(beta)

    def __contains__(self, beta: Vec) -> bool:
        return self.key(beta) in self.records

    def __len__(self) -> int:
        return len(self.records)

    def get(self, beta: Vec) -> RootRecord | None:
        return self.records.get(self.key(beta))

    @property
    def entries(self) -> dict[Vec, RootRecord]:
        """A copy of the records keyed by vector, in record order, built
        on each access: for readers, never used by the engine."""
        decode = self.codec.decode
        return {decode(k): rec for k, rec in self.records.items()}

    def record(self, key: int, h: int, rec: RootRecord) -> None:
        """Store the vector of key, of height h, with rec, the record of its
        orbit (shared, not copied).

        The guards hold on the key: clear guard bits and 0 < key < limit
        make every field a non-negative coordinate; one multiply checks the
        carried height h <= cap, which then bounds every coordinate (the
        multiply is exact unless the fields sum to 2^(8w) or more, which
        takes three fields far above the cap); and g is checked against the
        decoded coordinates.
        """
        codec = self.codec
        if (key & codec.guard or not (0 < key < codec.limit and 0 < h <= self.cap)
                or codec.height(key) != h):
            shown = codec.decode(key) if 0 <= key < codec.limit else hex(key)
            raise ValueError(f"cannot record {shown}: not positive within cap")
        beta = codec.decode(key)
        if key in self.records:
            raise ValueError(f"{beta} already recorded")
        if h <= len(self._buckets):
            raise ValueError(
                f"cannot record {beta}: height {h} is frozen, the Peterson "
                f"candidates up to height {len(self._buckets)} are already built"
            )
        if rec.g != gcd(*beta):
            raise ValueError(f"cannot record {beta} with g = {rec.g}")
        self.records[key] = rec
        self._by_height.setdefault(h, []).append(key)

    # pingpong records its images through this second name of the same
    # function, so a wrapper on record (bench/job.py times one span per
    # call) sees only compute_all's calls: one per simple root and per
    # chamber point that is a root.
    record_key = record

    def candidates(self, h: int) -> list[list[tuple]]:
        """The Peterson candidate buckets of heights 1..h, in that order;
        builds every missing one, which freezes those heights.

        The bucket of height b holds one entry (key, g, gc, norm) per
        vector u of height b with c(u) != 0: every recorded u, and every
        multiple u = n r (n >= 2) of a recorded real root r (norm > 0),
        whose key is n key(r), g = n, gc = 1 and norm n^2 (r, r).  Entries
        are in the order they were built, not sorted.
        """
        records, by_height, buckets = self.records, self._by_height, self._buckets
        while len(buckets) < h:
            b = len(buckets) + 1
            rows = []
            for k in by_height.get(b, ()):
                rec = records[k]
                rows.append((k, rec.g, rec.gc, rec.norm))
            for n in range(2, b + 1):
                if b % n == 0:
                    for k in by_height.get(b // n, ()):
                        rec = records[k]
                        if rec.norm > 0:
                            rows.append((n * k, n, 1, n * n * rec.norm))
            buckets.append(rows)
        return buckets[:h]

    def _sorted_keys(self):
        """(height, key) of every record in (height, lex) order."""
        for h in sorted(self._by_height):
            for k in sorted(self._by_height[h]):
                yield h, k

    def roots(self) -> list[Vec]:
        """All recorded vectors with positive multiplicity, (height, lex)."""
        records, decode = self.records, self.codec.decode
        return [decode(k) for _, k in self._sorted_keys() if records[k].mult > 0]

    def export_rows(self):
        """One row per recorded vector: coords, height, norm, c, mult, kind.

        Sorted by (height, lex).  Norms come from the records, so exporting
        evaluates no form and never perturbs the cost measurement.
        """
        records, decode = self.records, self.codec.decode
        for h, k in self._sorted_keys():
            rec = records[k]
            g = gcd(rec.gc, rec.g)  # c = gc/g in lowest terms
            yield {
                "coords": decode(k),
                "height": h,
                "norm": rec.norm,
                "c": f"{rec.gc // g}/{rec.g // g}",
                "mult": rec.mult,
                "kind": rec.kind,
            }

    def lines_by_height(self, fmt: str):
        """export_rows as CSV lines (no header) if fmt is "csv", else as
        JSON lines with sorted keys, one str per height in (height, lex)
        order.  A record's text around the coordinates and height is
        formatted once, and each height builds one %d line template per
        record present."""
        records, decode, parts = self.records, self.codec.decode, {}
        for rec in set(records.values()):
            g = gcd(rec.gc, rec.g)  # c = gc/g in lowest terms
            c = f"{rec.gc // g}/{rec.g // g}"
            if fmt == "csv":
                parts[rec] = "", f",{rec.norm},{c},{rec.mult},{rec.kind}\n"
            else:
                parts[rec] = (f'{{"c": "{c}", "coords": [',
                              f'"kind": "{rec.kind}", "mult": {rec.mult}, "norm": {rec.norm}}}\n')
        sep, middle = (";", ",%d") if fmt == "csv" else (", ", '], "height": %d, ')
        coords = sep.join(["%d"] * self.cm.d)
        for h in sorted(self._by_height):
            row = coords + middle % h
            keys = sorted(self._by_height[h])
            template = {}
            for rec in {records[k] for k in keys}:
                head, tail = parts[rec]
                template[rec] = head + row + tail
            yield "".join([template[records[k]] % decode(k) for k in keys])


def pingpong(table: RootTable, seed: Vec, key: int, h: int) -> list[int]:
    """Close the seed's Weyl orbit under the table's height cap, by ascent.

    The seed comes with its key and height, as compute_all derived them.
    It must be recorded and must be the lowest member of its orbit,
    as compute_all's seeds (simple roots and chamber points) are: a seed
    with some p_i > 0 and seed_i >= p_i, whose image s_i(seed) is positive
    and lower, raises ValueError, since the walk would miss what lies above
    that image.

    Walks breadth-first from the seed, on keys, by the raising moves of
    height <= cap (module docstring).  An image that the table does not
    hold is recorded with the seed's record object and walked in turn; one
    it holds must carry that record or equal values (E10's simple roots
    are recorded apart but share one orbit) and is not walked again.
    Returns the keys of the new records in record order ([] on a second
    run): the walk's own list less its seed, not a copy, which at E10's
    first walk would add its size to the peak RSS.  table.codec.decode
    turns a key into its vector.  Ticks d * len(walk) pingpong forms,
    the seed's included, on table.counter once, at its end.
    """
    record = table.records.get(key)
    if record is None:
        raise KeyError(f"pingpong seed {seed} is not recorded in the table")
    cm, cap, codec = table.cm, table.cap, table.codec
    p = tuple(sum(map(mul, row, seed)) for row in cm.a)
    for i, (p_i, b_i) in enumerate(zip(p, seed)):
        if 0 < p_i <= b_i:
            raise ValueError(
                f"pingpong seed {seed} is not the lowest member of its orbit: "
                f"reflection {i} lowers it"
            )
    get, record_key = table.records.get, table.record_key
    shifts = codec.shifts
    columns = table.columns
    scaled = {}  # (i, p_i) -> p_i * (column i of A), built on first use

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
            image = key - (p_i << shifts[i])
            existing = get(image)
            if existing is None:
                record_key(image, h - p_i, record)
                walk.append(image)
                col = scaled.get((i, p_i))
                if col is None:
                    col = scaled[i, p_i] = tuple([p_i * a for a in columns[i]])
                frontier.append((h - p_i, tuple(map(sub, p, col))))
            elif existing is not record and (existing.gc, existing.mult) != (
                record.gc, record.mult
            ):
                raise AssertionError(
                    f"orbit member {codec.decode(image)} already recorded "
                    f"with conflicting values"
                )
    table.counter.tick(PHASE_PINGPONG, cm.d * len(walk))
    del walk[0]
    return walk


def _lookup(table: RootTable, key: int) -> tuple[int, int, int] | None:
    """(g, gc, norm) of the vector of key if c != 0 there: its record's
    values, or (n, 1, n^2 (r, r)) for a multiple n r of a recorded real
    root r; None when c = 0."""
    rec = table.records.get(key)
    if rec is not None:
        return rec.g, rec.gc, rec.norm
    n = gcd(*table.codec.decode(key))
    if n >= 2:
        base = table.records.get(key // n)
        if base is not None and base.norm > 0:
            return n, 1, n * n * base.norm
    return None


def c_value(table: RootTable, gamma: Vec) -> Fraction:
    """c(gamma) from the table plus the scaled-real rule.

    Recorded vectors answer directly.  An unrecorded gamma can only have a
    nonzero c-value if gamma = n * r for a recorded real root r, in which
    case c(gamma) = 1/n; everything else is 0, and so is a gamma with a
    negative coordinate.  A gamma of the wrong length raises ValueError and
    a non-negative gamma above the table's cap HeightExceedsCap, as in
    query_mult: the table cannot tell its c-value.  Pure lookup, no form
    evaluations.
    """
    if len(gamma) != table.cm.d:
        raise ValueError("dimension mismatch")
    if min(gamma) < 0:
        return Fraction(0)
    if height(gamma) > table.cap:
        raise HeightExceedsCap(f"height {height(gamma)} exceeds table cap {table.cap}")
    found = _lookup(table, table.key(gamma))
    return Fraction(found[1], found[0]) if found else Fraction(0)


def peterson_c(table: RootTable, beta: Vec, key: int, top: int, norm: int) -> tuple[int, int]:
    """The Peterson recurrence at the chamber point beta, given its key,
    height top and norm (beta, beta), as an integer fraction
    (numerator, denominator).

    Every chamber point of smaller height must already have been processed
    and every known root pingponged; the sum then ranges over exactly the
    decompositions with both c-values nonzero.  A zero denominator raises
    ZeroDenominator before any tick.

    Chamber points are minimal in height within their orbit, so once beta
    is reached the buckets of height <= top/2 are final.  Every entry u of
    those buckets is scanned, and the guard-mask test is the only test for
    u <= beta.  It holds also where key - ku is negative (u_0 > beta_0):
    Python's ints borrow as infinite two's complement, so the low fields of
    a negative difference are those of the difference modulo 2^(8wd), and
    the lowest field with u_i > beta_i still sets its guard bit.  At
    h = top/2 an entry is also skipped when ku > key - ku, so each
    unordered pair {u, v} is visited once, from u <= v.  A pair
    adds 2 (u, v) c(u) c(v), half that if u = v (beta = 2u), with c = gc/g
    and 2 (u, v) = (beta, beta) - (u, u) - (v, v) from stored norms: an
    integer numerator under the denominator g_u * g_v, the few
    denominators combined once at the end.  The cost model still charges
    one form per pair, in one bulk tick with the denominator's (beta, beta).
    """
    denom = norm - rho_pair(table.cm, beta)
    if denom == 0:
        raise ZeroDenominator(f"(beta, beta) = 2 (rho, beta) at {render(beta)}")
    guard = table.codec.guard
    get = table.records.get
    by_den: defaultdict[int, int] = defaultdict(int)
    forms = 1  # (beta, beta)
    for h, bucket in enumerate(table.candidates(top // 2), 1):
        middle = 2 * h == top
        for ku, g_u, gc_u, norm_u in bucket:
            kv = key - ku
            if kv & guard or middle and ku > kv:
                continue
            rec = get(kv)
            if rec is not None:
                g_v, gc_v, _, norm_v = rec
            else:
                found = _lookup(table, kv)
                if found is None:
                    continue
                g_v, gc_v, norm_v = found
            forms += 1
            term = gc_u * gc_v * (norm - norm_u - norm_v)
            by_den[g_u * g_v] += term if ku != kv else term >> 1
    table.counter.tick(PHASE_SUM, forms)
    common = lcm(*by_den)
    return sum(num * (common // den) for den, num in by_den.items()), common * denom


def mobius_mult(table: RootTable, key: int, g: int, gc: int) -> int:
    """Multiplicity by Moebius inversion along the divisors of g = gcd(beta),
    beta the vector of key:

        m(beta) = sum_{n | g} mu(n)/n * c(beta/n),

    and c(beta/n) = gc(beta/n) * n/g, so g * m(beta) = sum_{n | g} mu(n) gc(beta/n)
    in integers, with gc = g * c(beta) given and the smaller terms read from
    the table, at key / n.  Raises NonIntegerMultiplicity if the result is
    not a non-negative integer, which would mean an upstream bug.
    """
    total = gc
    if g > 1:
        for n in range(2, g + 1):
            if g % n == 0:
                mu = mobius(n)
                if mu:
                    found = _lookup(table, key // n)
                    if found:
                        total += mu * found[1]
    if total < 0 or total % g:
        raise NonIntegerMultiplicity(
            f"m({render(table.codec.decode(key))}) = {Fraction(total, g)} "
            f"is not a non-negative integer"
        )
    return total // g


def compute_all(
    cm: CartanMatrix,
    cap: int,
    counter: KillingCounter | None = None,
) -> RootTable:
    """Find every positive root of height <= cap with its multiplicity.

    Records m = c = 1 on the simple roots and pingpongs them, then walks
    the chamber points in ascending (height, lex) order: Peterson c-value,
    Moebius multiplicity, and - for actual roots - a record and an orbit
    closure that propagates the values.  Each point's key, height, g =
    gcd(beta) and norm (beta, beta) are derived once, here, and handed to
    each of those steps; g * c comes from the sum's integer fraction by one
    divmod.  A chamber point that is not a root must have c = 0: a nonzero
    c would make some beta/n (n >= 2) a root, and that vector lies in the
    chamber too, so it is imaginary and its multiple beta is a root.  A
    violation, or a c-value whose g * c is not an integer, raises
    NonIntegerMultiplicity.

    The Peterson sum runs only at the first point of each orbit under the
    diagram automorphisms: its images are chamber points of the same
    height that come later in lex order, and they wait in pending with its
    g * c until the walk reaches them.  The generators are found at the
    first summed point, so a matrix without chamber points never searches
    for them; when the group is trivial (E10, E11) there are none and every
    point is summed.
    """
    table = RootTable(cm, cap, counter)
    codec = table.codec
    for i, shift in enumerate(codec.shifts):
        table.record(1 << shift, 1, RootRecord(1, 1, 1, cm.s[i][i]))
    for i, shift in enumerate(codec.shifts):
        pingpong(table, unit(cm.d, i), 1 << shift, 1)

    gens = None
    pending: dict[Vec, int] = {}  # gc of chamber points whose orbit was summed
    for beta in chamber_points(cm, cap):
        key, top, g = codec.encode(beta), sum(beta), gcd(*beta)
        norm = killing(cm, beta, beta)
        gc = pending.pop(beta, None)
        if gc is None:
            num, den = peterson_c(table, beta, key, top, norm)
            gc, rem = divmod(num * g, den)
            if rem:
                raise NonIntegerMultiplicity(
                    f"gcd * c({render(beta)}) = {Fraction(num * g, den)} is not an integer"
                )
            if gens is None:
                gens = automorphisms(cm)
            for image in _images(beta, gens):
                pending[image] = gc
        mult = mobius_mult(table, key, g, gc)
        if mult > 0:
            table.record(key, top, RootRecord(g, gc, mult, norm))
            pingpong(table, beta, key, top)
        elif gc:
            raise NonIntegerMultiplicity(
                f"c({render(beta)}) = {Fraction(gc, g)} but m = 0 at a chamber point"
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
    rec = table.get(beta)
    return rec.mult if rec is not None else 0
