import re
from fractions import Fraction
from itertools import zip_longest
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from rootmult import (
    HeightExceedsCap,
    NonIntegerMultiplicity,
    build,
    c_value,
    chamber_points,
    compare_tables,
    compute_all,
    coord_gcd,
    killing,
    mobius_mult,
    naive_compute,
    peterson_c,
    preset_matrix,
    query_mult,
    reflect,
    rho_pair,
    subroots,
)
from rootmult import peterson
from rootmult.lattice import height, unit, vsub
from rootmult.peterson import (
    KIND_IMAGINARY,
    KIND_REAL,
    RootRecord,
    RootTable,
    ZeroDenominator,
)
from rootmult.metrics import PHASE_SUM
from helpers import (
    A2, AFFINE_A1, AFFINE_A2, HYP3, HYP3D, RANK1, box_points, mobius, record,
    symmetrizable_gcms,
)


def test_peterson_c_affine_null_root():
    table = compute_all(build(AFFINE_A1), 4)
    assert table.get((1, 1)).c == 1          # -4 / -4
    assert table.get((2, 2)).c == Fraction(3, 2)   # -12 / -8


def test_peterson_c_hyperbolic_first_chamber_point():
    table = compute_all(build(HYP3), 8)
    assert table.get((1, 1)).c == 1          # 2*(-3) / (-2 - 4)


def test_peterson_c_rejects_zero_denominator():
    cm = build(AFFINE_A1)
    table = RootTable(cm, 5)
    record(table, (1, 0))
    record(table, (0, 1))
    # (3,1) satisfies (beta, beta) = 2 (rho, beta) = 8
    with pytest.raises(ZeroDenominator):
        peterson_c(table, (3, 1), table.key((3, 1)), 4, killing(cm, (3, 1), (3, 1)))


def test_zero_denominator_inside_compute_all_raises(monkeypatch):
    # No chamber point has (beta, beta) = 2 (rho, beta); a rho_pair that
    # returns the norm makes the first one reach a zero denominator.
    monkeypatch.setattr("rootmult.peterson.rho_pair", lambda cm, beta: killing(cm, beta, beta))
    with pytest.raises(ZeroDenominator):
        compute_all(build(HYP3), 8)


def test_mobius_mult_examples():
    cm = build(AFFINE_A1)
    table = compute_all(cm, 6)
    assert table.get((2, 2)).mult == 1       # 3/2 - 1/2
    assert table.get((1, 1)).mult == 1       # gcd 1: m = c
    assert table.get((3, 3)).mult == 1
    gc = table.get((3, 3)).gc
    assert table.get((3, 3)).c == mobius_mult(table, table.key((3, 3)), 6, 3, gc) + Fraction(1, 3)


def test_non_integer_gc_at_a_chamber_point_raises(monkeypatch):
    # g = 2 at affine-a1's (2, 2): c = 1/3 would make g * c = 2/3
    original = peterson.peterson_c

    def third_at_2_2(table, beta, key, top, norm):
        return (1, 3) if beta == (2, 2) else original(table, beta, key, top, norm)

    monkeypatch.setattr("rootmult.peterson.peterson_c", third_at_2_2)
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape("gcd * c((2,2)) = 2/3 is not an integer")):
        compute_all(build(AFFINE_A1), 4)


def test_mobius_mult_raises_on_negative_or_indivisible_sum():
    table = compute_all(build(AFFINE_A1), 4)
    # g = 2 at (2, 2) and gc(1, 1) = 1: 2 m = gc(2, 2) - 1
    key = table.key((2, 2))
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape("m((2,2)) = -1/2 is not a non-negative integer")):
        mobius_mult(table, key, 4, 2, 0)   # 2 m = -1
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape("m((2,2)) = 1/2 is not a non-negative integer")):
        mobius_mult(table, key, 4, 2, 2)   # 2 m = 1
    assert mobius_mult(table, key, 4, 2, 3) == 1


@pytest.mark.parametrize("name,cap", [("affine-a1", 60), ("hyp-2-3", 100)])
def test_mobius_mult_matches_the_fraction_inversion(name, cap):
    # mobius_mult solves the divisor sum for its n = 1 term in integers,
    # h m(beta) = a(beta) - sum_{n | g, n >= 2} (h/n) m(beta/n) with a = h c;
    # the reference is the Moebius inversion m(beta) = sum_{n | g} mu(n)/n
    # c(beta/n) in fractions, each c(beta/n) from the records, with the
    # tests' own mu.  beta/n lies in the chamber, so it is a root or has
    # c = 0, never a scaled real.
    cm = build(preset_matrix(name))
    table = compute_all(cm, cap)
    gs = set()
    for beta in chamber_points(cm, cap):
        g = coord_gcd(beta)
        gs.add(g)
        expected = Fraction(0)
        for n in range(1, g + 1):
            rec = table.get(tuple(x // n for x in beta)) if g % n == 0 else None
            if rec:
                expected += Fraction(mobius(n), n) * rec.c
        rec = table.get(beta)
        assert mobius_mult(table, table.key(beta), sum(beta), g, rec.gc if rec else 0) == expected
    assert max(gs) == cap // 2  # (30, 30) on affine-a1: mu(30) = -1 is reached


@pytest.mark.parametrize("mult,shown", [(2, "1/2"), (4, "-1/2")])
def test_mobius_mult_raises_on_a_doctored_record(monkeypatch, mult, shown):
    # At affine-a1's (2, 2), h = 4 and 4 m = a(2, 2) - 2 m(1, 1) = 6 - 2; a
    # record of (1, 1) that reads m = 2 or 4 leaves 2 or -2.
    table = compute_all(build(AFFINE_A1), 4)
    half = table.key((1, 1))
    rec = table.levels[2][half]
    assert rec.mult == 1
    monkeypatch.setitem(table.levels[2], half, rec._replace(mult=mult))
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape(f"m((2,2)) = {shown} is not a non-negative integer")):
        mobius_mult(table, table.key((2, 2)), 4, 2, table.get((2, 2)).gc)


@pytest.mark.parametrize("name,cap", [("e11", 40), ("hyp-2-3", 100)])
def test_c_readers_agree(name, cap):
    # c is read from the records (RootRecord.c, which export formats) and
    # from the frozen dicts (c_value, like the sum): on every recorded
    # vector they agree, and every scaled real n r reads 1/n.
    cm = build(preset_matrix(name))
    table = compute_all(cm, cap)
    entries = table.entries
    for v, rec in entries.items():
        assert c_value(table, v) == rec.c
    assert len(table.frozen) == cap
    scaled = [(n, tuple(n * x for x in r)) for r, rec in entries.items() if rec.norm > 0
              for n in range(2, cap // height(r) + 1)]
    assert scaled
    for n, u in scaled:
        assert c_value(table, u) == Fraction(1, n)


def test_records_hold_integer_gc_and_orbit_invariants():
    for grid, cap in ((AFFINE_A1, 16), (HYP3, 30), (AFFINE_A2, 10),
                      (preset_matrix("e10"), 40)):
        cm = build(grid)
        table = compute_all(cm, cap)
        for v, rec in table.entries.items():
            assert rec.g == coord_gcd(v)
            assert rec.c == Fraction(rec.gc, rec.g) == c_value(table, v)
            assert rec.norm == killing(cm, v, v)
    with pytest.raises(AttributeError):
        rec.mult = 2   # immutable: one record is shared by a whole orbit


def test_record_below_a_frozen_height_raises():
    cm = build(HYP3)
    table = compute_all(cm, 10)
    # the chamber point (5, 5) built the scaled reals up to height 9;
    # (2, 0) and (9, 0) are not roots, so only the freeze can refuse them
    for beta in ((2, 0), (9, 0)):
        with pytest.raises(ValueError, match="frozen"):
            record(table, beta)
    record(table, (10, 0))
    # building the scaled reals of height 3 on a fresh table builds those
    # below it too, and freezes every height <= 3
    table = RootTable(cm, 10)
    for alpha in ((1, 0), (0, 1)):
        record(table, alpha)
    table.freeze(3)
    for beta in ((1, 1), (2, 1)):
        with pytest.raises(ValueError, match="frozen"):
            record(table, beta)
    record(table, (2, 2), 2, 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 12))
# The middle bucket (2h = top) counts ceil(hits / 2) pairs, whether or not
# u = v = beta/2 is one: HYP3D's (1, 1, 2) has an even key but no half,
# its (0, 2, 2) the half (0, 1, 1); AFFINE_A1's (4, 4) pairs the scaled
# reals (4, 0) and (0, 4) and has the half (2, 2).
@example(grid=HYP3D, cap=6)
@example(grid=AFFINE_A1, cap=8)
def test_peterson_sum_equals_a_brute_force_sum(grid, cap):
    # At every chamber point: the value against the recurrence summed over
    # all of subroots(beta), the form count against the unordered pairs
    # {u, v} (u below half the height, or at half with u <= v); then each
    # frozen height's (a, norm) entries against its roots and a scan of
    # the recorded real roots.
    cm = build(grid)
    table = compute_all(cm, cap)
    for beta in chamber_points(cm, cap):
        top = height(beta)
        total, visited = Fraction(0), 0
        for u in subroots(beta):
            v = vsub(beta, u)
            cu, cv = c_value(table, u), c_value(table, v)
            if cu and cv:
                total += killing(cm, u, v) * cu * cv
                visited += 2 * height(u) < top or (2 * height(u) == top and u <= v)
        before = table.counter.count(PHASE_SUM)
        norm = killing(cm, beta, beta)
        value = Fraction(*peterson_c(table, beta, table.key(beta), top, norm))
        assert value == total / (norm - rho_pair(cm, beta))
        assert table.counter.count(PHASE_SUM) - before == 1 + visited
    assert_frozen_heights_match_the_records(table)


@pytest.mark.parametrize("grid,cap,empty", [
    (A2, 6, [3, 4, 5, 6]),
    (AFFINE_A1, 8, []),
])
def test_frozen_heights_bind_their_partner_lookups(grid, cap, empty):
    # Freezing height b builds the one dict the Peterson sum reads for a
    # partner of height b; an empty height still gets one, holding its
    # scaled reals (A2 has no root above height 2, but 3 alpha_1 at 3).
    table = compute_all(build(grid), cap)
    assert [b for b in range(1, cap + 1) if not table.levels.get(b)] == empty
    assert_frozen_heights_match_the_records(table)
    assert len(table.frozen) == cap
    assert all(table.frozen[b - 1] for b in empty)


def assert_frozen_heights_match_the_records(table):
    # Freezes every height up to the cap (final once compute_all returns),
    # which adds no level, then holds each frozen[b - 1] against the roots
    # of levels[b] and the multiples n r (n >= 2) of a scan of the recorded
    # real roots r: key -> (a, norm) with c = a/b, the roots first, and no
    # key both a root and a scaled real.
    cm, decode = table.cm, table.codec.decode
    before = set(table.levels)
    table.freeze(table.cap)
    assert set(table.levels) == before
    reals = [(r, rec) for r, rec in table.entries.items() if rec.norm > 0]
    for b, entry in enumerate(table.frozen, 1):
        level = table.levels.get(b, {})
        roots = {decode(k): (rec.gc * (b // rec.g), rec.norm) for k, rec in level.items()}
        # one (a, norm) object per record, shared by the keys of its orbit
        assert len({id(entry[k]) for k in level}) == len({id(rec) for rec in level.values()})
        scaled = {}
        for r, rec in reals:
            n, rest = divmod(b, height(r))
            if n >= 2 and not rest:
                u = tuple(n * x for x in r)
                scaled[u] = (b // n, killing(cm, u, u))
                assert scaled[u][1] == n * n * rec.norm
        assert not roots.keys() & scaled.keys()
        got = {decode(k): pair for k, pair in entry.items()}
        assert list(got)[:len(roots)] == list(roots)
        assert got == {**roots, **scaled}


# hyp-2-3 sums only at beta_0 <= beta_1 (the first point of each orbit
# under the node swap), where u_0 <= beta_0 and ht(u) <= top/2 force
# u_1 <= beta_1: the partner key of each entry u not <= beta is negative.
@pytest.mark.parametrize("grid,cap,kinds", [
    (HYP3, 60, {"negative"}),
    (preset_matrix("e10"), 40, {"negative", "wrapped"}),
])
def test_entries_not_below_beta_miss_the_lookup(monkeypatch, grid, cap, kinds):
    # peterson_c decides each entry u of a frozen height h <= top/2 by the
    # lookup of its partner key alone: for u not <= beta that key is
    # negative or has a wrapped field above the cap, so neither the roots
    # nor the frozen dict of the partner's height hold it.
    original = peterson.peterson_c
    rejected = {"negative": 0, "wrapped": 0}

    def checked(table, beta, key, top, norm):
        result = original(table, beta, key, top, norm)
        bits = table.codec.bits
        guard = sum(1 << (s + bits - 1) for s in table.codec.shifts)  # each field's top bit
        levels, frozen = table.levels, table.frozen
        for h in range(1, top // 2 + 1):
            for ku in frozen[h - 1]:
                kv = key - ku
                if kv & guard:
                    rejected["negative" if kv < 0 else "wrapped"] += 1
                    assert kv not in levels.get(top - h, {})
                    assert kv not in frozen[top - h - 1]
        return result

    monkeypatch.setattr("rootmult.peterson.peterson_c", checked)
    table = compute_all(build(grid), cap)
    assert {kind for kind, n in rejected.items() if n} == kinds, rejected
    assert_frozen_heights_match_the_records(table)


def test_peterson_c_out_of_order_matches_in_order():
    # The sum's denominators are cached for the last height only: calls in
    # descending height, alternating between two tables, must still give
    # each point the integer fraction of an in-order call.
    calls = []
    for grid in (HYP3, AFFINE_A1):
        cm = build(grid)
        table = compute_all(cm, 40)
        points = []
        for beta in chamber_points(cm, 40):
            args = (table, beta, table.key(beta), height(beta), killing(cm, beta, beta))
            value = peterson_c(*args)
            assert Fraction(*value) == c_value(table, beta)
            points.append((args, value))
        calls.append(points[::-1])
    assert all(len(points) > 10 for points in calls)
    for points in zip_longest(*calls):
        for args, value in filter(None, points):
            assert peterson_c(*args) == value


def recurrence_off_the_chamber(grid, cap):
    # Holds the Peterson sum against c_value at every lattice point of
    # height 2..cap of the finished table, chamber point or not, and
    # returns (checked, skipped): a point whose denominator (beta, beta) -
    # 2 (rho, beta) is 0 is skipped.
    cm = build(grid)
    table = compute_all(cm, cap)
    checked = skipped = 0
    for beta in box_points(cm.d, cap):
        top = height(beta)
        if not 2 <= top <= cap:
            continue
        norm = killing(cm, beta, beta)
        if norm == rho_pair(cm, beta):
            skipped += 1
            continue
        value = Fraction(*peterson_c(table, beta, table.key(beta), top, norm))
        assert value == c_value(table, beta), beta
        checked += 1
    return checked, skipped


@pytest.mark.parametrize("grid,cap,checked,skipped", [(HYP3, 60, 1882, 6),
                                                      (AFFINE_A1, 40, 848, 10)])
def test_the_recurrence_holds_off_the_chamber(grid, cap, checked, skipped):
    assert recurrence_off_the_chamber(grid, cap) == (checked, skipped)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=4), cap=st.integers(2, 10))
def test_the_recurrence_holds_off_the_chamber_for_any_gcm(grid, cap):
    recurrence_off_the_chamber(grid, cap)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=4), cap=st.integers(1, 10))
@example(grid=[[2, -3], [-6, 2]], cap=10)  # symmetrizer (2, 1)
def test_compute_all_hands_pingpong_the_pairing_vector_of_its_norm(grid, cap):
    # compute_all derives p = A beta once per chamber point, reads the norm
    # from it (S = diag(sym) A) and passes it on to pingpong, as it passes
    # column i of A with the simple root alpha_i
    cm = build(grid)
    for beta in chamber_points(cm, cap):
        p = [sum(map(mul, row, beta)) for row in cm.a]
        assert sum(map(mul, map(mul, beta, cm.sym), p)) == killing(cm, beta, beta)
    walk, seeds = peterson.pingpong, []

    def checked(table, seed, key, h, p):
        assert tuple(p) == tuple(sum(map(mul, row, seed)) for row in cm.a)
        seeds.append(seed)
        return walk(table, seed, key, h, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peterson, "pingpong", checked)
        compute_all(cm, cap)
    assert seeds[:cm.d] == [unit(cm.d, i) for i in range(cm.d)]


def test_c_value_covers_scaled_reals_without_storing():
    table = compute_all(build(AFFINE_A1), 8)
    assert (2, 0) not in table
    assert c_value(table, (2, 0)) == Fraction(1, 2)
    assert c_value(table, (0, 3)) == Fraction(1, 3)
    assert c_value(table, (3, 1)) == 0
    assert c_value(table, (2, 2)) == Fraction(3, 2)

    table = compute_all(build(HYP3), 5)
    assert c_value(table, (5, 0)) == Fraction(1, 5)
    # killing((4,1),(4,1)) = 32 - 12 - 12 + 2 = 10 > 0, and (4,1) is not a root
    assert killing(table.cm, (4, 1), (4, 1)) == 10
    assert c_value(table, (4, 1)) == 0


def test_nonzero_c_without_multiplicity_is_an_integrity_error(monkeypatch):
    # A non-root chamber point with c != 0 cannot occur; if Moebius
    # inversion ever reports m = 0 there, the run stops instead of
    # recording the point.
    original = peterson.mobius_mult
    monkeypatch.setattr("rootmult.peterson.mobius_mult", lambda table, key, h, g, gc: 0)
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape("c((1,1)) = 1 but m = 0 at a chamber point")):
        compute_all(build(AFFINE_A1), 4)
    # only at g = 2, so the first failure is (2, 2), where c = 3/2
    monkeypatch.setattr("rootmult.peterson.mobius_mult", lambda table, key, h, g, gc:
                        0 if g == 2 else original(table, key, h, g, gc))
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape("c((2,2)) = 3/2 but m = 0 at a chamber point")):
        compute_all(build(AFFINE_A1), 4)


@pytest.mark.parametrize("grid,cap,calls", [
    ([[2 if i == j else 0 for j in range(6)] for i in range(6)], 5, 0),
    (A2, 10, 0),
    (HYP3, 20, 1),
], ids=["2I-rank6", "a2", "hyp-2-3"])
def test_automorphisms_are_searched_only_once_a_point_is_summed(monkeypatch, grid, cap,
                                                                 calls):
    # The generators serve only to share sums between chamber points, so a
    # matrix without chamber points (2 I of rank 6, A2) never searches.
    found = []
    original = peterson.automorphisms
    monkeypatch.setattr("rootmult.peterson.automorphisms",
                        lambda cm: found.append(cm) or original(cm))
    compute_all(build(grid), cap)
    assert len(found) == calls


def test_compute_all_finite_type():
    table = compute_all(build(A2), 10)
    assert table.roots() == [(0, 1), (1, 0), (1, 1)]
    assert all(table.get(v).mult == 1 for v in table.roots())

    t1 = compute_all(build(RANK1), 5)
    assert t1.roots() == [(1,)]


def test_compute_all_affine_cap_4():
    table = compute_all(build(AFFINE_A1), 4)
    assert set(table.roots()) == {(1, 0), (0, 1), (2, 1), (1, 2), (1, 1), (2, 2)}
    assert all(table.get(v).mult == 1 for v in table.roots())


def test_compute_all_hyp_cap_3():
    table = compute_all(build(HYP3), 3)
    assert set(table.roots()) == {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}


def test_query_mult():
    table = compute_all(build(AFFINE_A1), 6)
    assert query_mult(table, (-1, 0)) == 1       # m(beta) = m(-beta)
    assert query_mult(table, (1, 1)) == 1
    assert query_mult(table, (2, 0)) == 0        # scaled real, not a root
    assert query_mult(table, (1, -1)) == 0       # mixed signs
    assert query_mult(table, (0, 0)) == 0
    with pytest.raises(HeightExceedsCap):
        query_mult(table, (4, 4))
    with pytest.raises(HeightExceedsCap):
        query_mult(table, (-4, -4))


@pytest.mark.parametrize("grid,cap", [(AFFINE_A1, 12), (HYP3, 12), (A2, 12),
                                      (AFFINE_A2, 10), (HYP3D, 9), (RANK1, 8),
                                      ([[2, -1], [-3, 2]], 10)])
def test_engine_matches_naive_oracle(grid, cap):
    cm = build(grid)
    assert compare_tables(compute_all(cm, cap), naive_compute(cm, cap)) == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_relabeling_the_nodes_permutes_the_table(data):
    # The Peterson sum is reused across automorphism images of chamber
    # points, and a relabeling changes which image comes first in lex
    # order; the table must not notice.
    grid = data.draw(symmetrizable_gcms(max_rank=4), label="grid")
    d = len(grid)
    perm = data.draw(st.permutations(range(d)), label="perm")
    cap = data.draw(st.integers(1, 12), label="cap")
    relabeled = [[grid[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
    table = compute_all(build(grid), cap)
    moved = compute_all(build(relabeled), cap)
    assert moved.entries == {
        tuple(v[perm[i]] for i in range(d)): rec for v, rec in table.entries.items()
    }


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=2), cap=st.integers(1, 10))
def test_engine_matches_oracle_on_block_doubled_gcms(grid, cap):
    # A + A has the block swap on top of A's own automorphisms, and chamber
    # points with support in both blocks that are not roots (c = 0).
    d = len(grid)
    doubled = [row + [0] * d for row in grid] + [[0] * d + row for row in grid]
    cm = build(doubled)
    assert compare_tables(compute_all(cm, cap), naive_compute(cm, cap)) == []


def test_weyl_invariance_of_multiplicity():
    cm = build(HYP3)
    table = compute_all(cm, 14)
    for beta in table.roots():
        for i in range(cm.d):
            image = reflect(cm, i, beta)
            if all(x >= 0 for x in image) and any(image) and height(image) <= 14:
                assert query_mult(table, image) == query_mult(table, beta)


def test_scale_invariance_of_c_and_mult():
    cm = build(HYP3)
    doubled = cm.scaled(2)
    t1 = compute_all(cm, 16)
    t2 = compute_all(doubled, 16)
    assert set(t1.entries) == set(t2.entries)
    for v, rec in t1.entries.items():
        other = t2.get(v)
        assert (rec.c, rec.mult, rec.kind) == (other.c, other.mult, other.kind)


def test_real_roots_have_mult_one_and_positive_norm():
    for grid in (HYP3, AFFINE_A2, HYP3D):
        cm = build(grid)
        table = compute_all(cm, 10)
        for v, rec in table.entries.items():
            nrm = killing(cm, v, v)
            if rec.kind == KIND_REAL:
                assert rec.mult == 1 and rec.c == 1 and nrm > 0
            if rec.mult > 0 and nrm <= 0:
                assert rec.kind == KIND_IMAGINARY


def test_closure_under_multiples_of_imaginary_roots():
    cm = build(HYP3)
    cap = 20
    table = compute_all(cm, cap)
    for v, rec in table.entries.items():
        if rec.kind != KIND_IMAGINARY:
            continue
        n = 2
        while n * height(v) <= cap:
            assert query_mult(table, tuple(n * x for x in v)) >= 1
            n += 1


def test_c_minus_mult_is_divisor_tail():
    # c(beta) - m(beta) = sum_{n >= 2, n | gcd beta} m(beta/n)/n
    import math

    cm = build(AFFINE_A1)
    table = compute_all(cm, 16)
    for v, rec in table.entries.items():
        g = math.gcd(*v)
        tail = sum(
            (Fraction(table.get(tuple(x // n for x in v)).mult, n)
             if table.get(tuple(x // n for x in v)) else Fraction(0))
            for n in range(2, g + 1)
            if g % n == 0
        )
        assert rec.c - rec.mult == tail


def test_table_record_guards():
    cm = build(A2)
    table = RootTable(cm, 3)
    record(table, (1, 0))
    with pytest.raises(ValueError):
        record(table, (1, 0))
    with pytest.raises(ValueError, match="g = 1"):   # gcd(2, 0) = 2
        table.record(table.key((2, 0)), 2, RootRecord(1, 1, 1, 8))
    with pytest.raises(ValueError):
        record(table, (0, 0))
    with pytest.raises(ValueError):
        record(table, (2, 2))
    with pytest.raises(ValueError):
        RootTable(cm, 0)


def test_record_guards_hold_on_the_key():
    # record takes a key and a carried height and checks both; rank 3 at
    # cap 5 packs 4 bits per coordinate
    table = RootTable(build(HYP3D), 5)
    codec = table.codec
    rec = RootRecord(1, 1, 1, 2)
    key = codec.encode((1, 0, 0))
    for bad, h in ((key, 2),             # carried height is not the key's
                   (key - 1, 0),         # (1, 0, -1): borrows, guard bits set
                   (key + codec.limit, 1),   # a field above the box
                   (-key, 1), (0, 0)):
        with pytest.raises(ValueError, match="not positive within cap"):
            table.record(bad, h, rec)
    table.record(key, 1, rec)
    assert table.get((1, 0, 0)) is rec


def test_record_reads_the_height_past_a_wrapping_multiply():
    # at cap 127 a coordinate has 8 bits, and (127, 127, 4), of height
    # 258, multiplies out to 258 mod 256 = 2
    table = RootTable(build([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), 127)
    key = table.codec.encode((127, 127, 4))
    with pytest.raises(ValueError, match="not positive within cap"):
        table.record(key, 2, RootRecord(1, 1, 1, 2))
    assert len(table) == 0


def test_tuples_outside_the_box_reach_no_key():
    # At cap 5 a coordinate has 4 bits: a tuple that is too short or has
    # a coordinate outside 0..5 must answer as absent, not as whichever
    # vector its bits would encode to.
    table = compute_all(build(AFFINE_A1), 5)
    for beta in ((1,), (0, 256), (300, 0), (-1, 3)):
        assert table.get(beta) is None and beta not in table
        assert beta not in table.entries
    assert c_value(table, (-1, 3)) == 0
    assert query_mult(table, (-1, 3)) == 0
    with pytest.raises(ValueError, match="dimension"):
        c_value(table, (1,))
    with pytest.raises(ValueError, match="dimension"):
        query_mult(table, (1,))
    for beta in ((0, 256), (300, 0)):
        with pytest.raises(HeightExceedsCap):
            query_mult(table, beta)
        with pytest.raises(HeightExceedsCap):
            c_value(table, beta)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=4), cap=st.integers(1, 14))
def test_levels_hold_each_record_once_and_edge_reads_add_no_level(grid, cap):
    # Every key sits in the level of its height, within 1..cap, and its
    # record's g is the gcd of its coordinates (pingpong checks g on its
    # seed alone, so this checks it on every walked image); the table's
    # size, its entries and its exported CSV rows agree; reads at the tuple
    # edge of negative, zero, wrong-length and above-cap tuples add no
    # level; and an empty level exports nothing.
    cm = build(grid)
    table = compute_all(cm, cap)
    for h, level in table.levels.items():
        assert 1 <= h <= cap
        for k, rec in level.items():
            beta = table.codec.decode(k)
            assert sum(beta) == h and rec.g == coord_gcd(beta)
    text = "".join(table.lines_by_height("csv"))
    assert len(table) == len(table.entries) == text.count("\n")
    heights = set(table.levels)
    d = cm.d
    probes = [(-1,) * d, (-1,) + (1,) * (d - 1), (0,) * d, (1,) * (d + 1), (),
              (cap + 1,) + (0,) * (d - 1), (cap,) * d]
    for beta in probes:
        assert (beta in table) == (table.get(beta) is not None)
        assert table.get(beta) is None or beta == (cap,) * d
        for read in (c_value, query_mult):
            try:
                read(table, beta)
            except ValueError:  # wrong length, or HeightExceedsCap
                pass
    assert set(table.levels) == heights
    assert "".join(table.lines_by_height("csv")) == text
    for h in range(1, cap + 1):  # an empty level at every height without records
        table.levels[h]
    assert "".join(table.lines_by_height("csv")) == text


def test_c_value_above_the_cap_raises():
    # Above the cap the table cannot tell c; these vectors have c != 0
    # (affine-a1 at height 6: c(3, 3) = 4/3 and c(6, 0) = 1/6; hyp-2-3:
    # c(2, 3) = 2), so answering 0 would be wrong.
    table = compute_all(build(AFFINE_A1), 5)
    for beta in ((3, 3), (6, 0)):
        with pytest.raises(HeightExceedsCap, match="exceeds table cap 5"):
            c_value(table, beta)
    six = compute_all(build(AFFINE_A1), 6)
    assert c_value(six, (3, 3)) == Fraction(4, 3) and c_value(six, (6, 0)) == Fraction(1, 6)
    with pytest.raises(HeightExceedsCap):
        c_value(compute_all(build(HYP3), 4), (2, 3))
    assert c_value(compute_all(build(HYP3), 5), (2, 3)) == 2
    # below the cap, vectors of mixed or negative sign and zero still answer 0
    assert c_value(table, (-3, 3)) == c_value(table, (-6, 0)) == c_value(table, (0, 0)) == 0


def test_csv_lines_sorted_and_schema():
    table = compute_all(build(AFFINE_A1), 5)
    rows = [line.split(",") for line in "".join(table.lines_by_height("csv")).splitlines()]
    assert all(len(row) == 6 for row in rows)
    keys = [(int(row[1]), tuple(map(int, row[0].split(";")))) for row in rows]
    assert keys == sorted(keys) and len(keys) == len(table)
    assert ["1;1", "2", "0", "1/1", "1", "imaginary"] in rows


def test_lines_by_height_refuses_an_unknown_format():
    # "csv" and "json" only: an upper-case or unknown name is not JSON
    table = compute_all(build(AFFINE_A1), 5)
    for fmt in ("CSV", "JSON", "xml", ""):
        with pytest.raises(ValueError, match="unknown format"):
            list(table.lines_by_height(fmt))


def test_ha1_level_one_multiplicities_are_partition_numbers():
    # Feingold-Frenkel (Math. Ann. 263, 1983): in HA1^(1) a root with
    # beta_2 = 1 has multiplicity p(n), n = 1 - (beta, beta)/2.
    cm = build([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
    table = compute_all(cm, 60)
    level_one = [v for v in table.roots() if v[2] == 1]
    depths = [1 - killing(cm, v, v) // 2 for v in level_one]
    p = [1] + [0] * max(depths)
    for part in range(1, len(p)):
        for n in range(part, len(p)):
            p[n] += p[n - part]
    assert len(level_one) == 223 and max(depths) == 29 and p[29] == 4565
    assert [table.get(v).mult for v in level_one] == [p[n] for n in depths]


def test_e10_level_one_multiplicities_are_eight_colour_partitions():
    # Feingold-Frenkel (Math. Ann. 263, 1983): node 9 ends the long chain
    # of E10, and a root with beta_9 = 1 has multiplicity p_8(n), the number
    # of partitions of n = 1 - (beta, beta)/2 into parts of 8 colours.
    from rootmult import preset_matrix

    cm = build(preset_matrix("e10"))
    table = compute_all(cm, 80)
    level_one = [v for v in table.roots() if v[9] == 1]
    depths = [1 - killing(cm, v, v) // 2 for v in level_one]
    p8 = [1] + [0] * max(depths)
    for _colour in range(8):
        for part in range(1, len(p8)):
            for n in range(part, len(p8)):
                p8[n] += p8[n - part]
    assert p8 == [1, 8, 44]
    assert len(level_one) == 6322
    assert [table.get(v).mult for v in level_one] == [p8[n] for n in depths]


# The non-symmetric affine types of Kac (Infinite-dimensional Lie
# algebras, Tables Aff 1-3), a_ij = <alpha_i^vee, alpha_j>, each with its
# labels delta, r (1 for X_l^(1)) and N (of X_N^(r); unused at r = 1).
# The twisted matrices are the transposes of the untwisted ones whose
# dual labels they carry, except A_2l^(2).
NONSYMMETRIC_AFFINE = {
    "B3^(1)": ([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -2, 2]],
               (1, 1, 2, 2), 1, 3),
    "B4^(1)": ([[2, 0, -1, 0, 0], [0, 2, -1, 0, 0], [-1, -1, 2, -1, 0],
                [0, 0, -1, 2, -1], [0, 0, 0, -2, 2]], (1, 1, 2, 2, 2), 1, 4),
    "C3^(1)": ([[2, -1, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
               (1, 2, 2, 1), 1, 3),
    "C4^(1)": ([[2, -1, 0, 0, 0], [-2, 2, -1, 0, 0], [0, -1, 2, -1, 0],
                [0, 0, -1, 2, -2], [0, 0, 0, -1, 2]], (1, 2, 2, 2, 1), 1, 4),
    "F4^(1)": ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
                [0, 0, -2, 2, -1], [0, 0, 0, -1, 2]], (1, 2, 3, 4, 2), 1, 4),
    "G2^(1)": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], (1, 2, 3), 1, 2),
    "A2^(2)": ([[2, -4], [-1, 2]], (2, 1), 2, 2),
    "A4^(2)": ([[2, -2, 0], [-1, 2, -2], [0, -1, 2]], (2, 2, 1), 2, 4),
    "A5^(2)": ([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -2], [0, 0, -1, 2]],
               (1, 1, 2, 1), 2, 5),
    "A7^(2)": ([[2, 0, -1, 0, 0], [0, 2, -1, 0, 0], [-1, -1, 2, -1, 0],
                [0, 0, -1, 2, -2], [0, 0, 0, -1, 2]], (1, 1, 2, 2, 1), 2, 7),
    "D3^(2)": ([[2, -2, 0], [-1, 2, -1], [0, -2, 2]], (1, 1, 1), 2, 3),
    "D5^(2)": ([[2, -2, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
                [0, 0, -1, 2, -1], [0, 0, 0, -2, 2]], (1, 1, 1, 1, 1), 2, 5),
    "E6^(2)": ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -2, 0],
                [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]], (1, 2, 3, 2, 1), 2, 6),
    "D4^(3)": ([[2, -1, 0], [-1, 2, -3], [0, -1, 2]], (1, 2, 1), 3, 4),
}


@pytest.mark.parametrize("grid,delta,r,n", NONSYMMETRIC_AFFINE.values(),
                         ids=NONSYMMETRIC_AFFINE.keys())
def test_nonsymmetric_affine_multiplicities_match_kac(grid, delta, r, n):
    # Kac, Cor. 8.3: mult(j delta) = l for X_l^(1); for X_N^(r), r = 2, 3,
    # it is l if r | j and (N - l)/(r - 1) otherwise.  Every other root is
    # real: multiplicity 1 and positive norm.  A delta = 0 comes first, so
    # a transposed matrix fails as the wrong input.
    assert all(sum(map(mul, row, delta)) == 0 for row in grid)
    cm, ell = build(grid), len(grid) - 1
    cap = 12 * sum(delta)
    table = compute_all(cm, cap)
    imaginary = {tuple(j * x for x in delta): j for j in range(1, 13)}
    for v, rec in table.entries.items():
        j = imaginary.pop(v, None)
        if j is None:
            assert rec.mult == 1 and rec.norm > 0, v
        else:
            assert rec.norm == 0, v
            assert rec.mult == (ell if j % r == 0 else (n - ell) // (r - 1)), v
    assert imaginary == {}
