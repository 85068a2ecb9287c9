from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from rootmult.lattice import height, vsub
from rootmult.peterson import (
    KIND_IMAGINARY,
    KIND_REAL,
    RootRecord,
    RootTable,
    ZeroDenominator,
)
from rootmult.metrics import PHASE_SUM
from helpers import (
    A2, AFFINE_A1, AFFINE_A2, HYP3, HYP3D, RANK1, box_points, record, symmetrizable_gcms,
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
    assert table.get((3, 3)).c == mobius_mult(table, table.key((3, 3)), 3, gc) + Fraction(1, 3)


def test_non_integer_gc_at_a_chamber_point_raises(monkeypatch):
    # g = 2 at affine-a1's (2, 2): c = 1/3 would make g * c = 2/3
    original = peterson.peterson_c

    def third_at_2_2(table, beta, key, top, norm):
        return (1, 3) if beta == (2, 2) else original(table, beta, key, top, norm)

    monkeypatch.setattr("rootmult.peterson.peterson_c", third_at_2_2)
    with pytest.raises(NonIntegerMultiplicity, match="not an integer"):
        compute_all(build(AFFINE_A1), 4)


def test_mobius_mult_raises_on_negative_or_indivisible_sum():
    table = compute_all(build(AFFINE_A1), 4)
    # g = 2 at (2, 2) and gc(1, 1) = 1: 2 m = gc(2, 2) - 1
    key = table.key((2, 2))
    with pytest.raises(NonIntegerMultiplicity):
        mobius_mult(table, key, 2, 0)   # 2 m = -1
    with pytest.raises(NonIntegerMultiplicity):
        mobius_mult(table, key, 2, 2)   # 2 m = 1
    assert mobius_mult(table, key, 2, 3) == 1


def test_records_hold_integer_gc_and_orbit_invariants():
    for grid, cap in ((AFFINE_A1, 16), (HYP3, 30), (AFFINE_A2, 10),
                      (preset_matrix("e10"), 40)):
        cm = build(grid)
        table = compute_all(cm, cap)
        for v, rec in table.entries.items():
            assert rec.g == coord_gcd(v)
            assert rec.c == Fraction(rec.gc, rec.g) == c_value(table, v)
            assert rec.norm == killing(cm, v, v)
        for row in table.export_rows():
            assert row["norm"] == killing(cm, row["coords"], row["coords"])
    with pytest.raises(AttributeError):
        rec.mult = 2   # immutable: one record is shared by a whole orbit


def test_record_below_a_frozen_height_raises():
    cm = build(HYP3)
    table = compute_all(cm, 10)
    # the chamber point (5, 5) indexed the candidates up to height 5;
    # (2, 0) is not a root, so only the freeze can refuse it
    with pytest.raises(ValueError, match="frozen"):
        record(table, (2, 0))
    record(table, (6, 0))
    # building the bucket of height 3 on a fresh table builds those below
    # it too, and freezes every height <= 3
    table = RootTable(cm, 10)
    for alpha in ((1, 0), (0, 1)):
        record(table, alpha)
    table.candidates(3)
    for beta in ((1, 1), (2, 1)):
        with pytest.raises(ValueError, match="frozen"):
            record(table, beta)
    record(table, (2, 2), 2, 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 12))
def test_peterson_sum_equals_a_brute_force_sum(grid, cap):
    # At every chamber point: the value against the recurrence summed over
    # all of subroots(beta), the form count against the pairs the one-pass
    # sum should visit (u below half the height, or at half with u <= v),
    # and each candidate bucket against a scan of its height.
    cm = build(grid)
    table = compute_all(cm, cap)
    decode = table.codec.decode
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
        for h in range(1, top // 2 + 1):
            entries = table.candidates(h)[h - 1]
            expected = {u: c_value(table, u) for u in box_points(cm.d, h) if height(u) == h}
            assert sorted(decode(e[0]) for e in entries) == sorted(u for u, c in expected.items() if c)
            for key, g, gc, norm in entries:
                u = decode(key)
                assert Fraction(gc, g) == expected[u] and g == coord_gcd(u)
                assert norm == killing(cm, u, u)


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
    monkeypatch.setattr("rootmult.peterson.mobius_mult", lambda table, key, g, gc: 0)
    with pytest.raises(NonIntegerMultiplicity):
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


def test_record_key_guards_hold_on_the_key():
    # pingpong records by key and carried height; rank 3 at cap 5 packs
    # one byte per coordinate
    table = RootTable(build(HYP3D), 5)
    codec = table.codec
    rec = RootRecord(1, 1, 1, 2)
    key = codec.encode((1, 0, 0))
    for bad, h in ((key, 2),             # carried height is not the key's
                   (key - 1, 0),         # (1, 0, -1): borrows, guard bits set
                   (key + codec.limit, 1),   # a field above the box
                   (-key, 1), (0, 0)):
        with pytest.raises(ValueError, match="not positive within cap"):
            table.record_key(bad, h, rec)
    table.record_key(key, 1, rec)
    assert table.get((1, 0, 0)) is rec


def test_tuples_outside_the_box_reach_no_key():
    # At cap 5 a coordinate has one byte: a tuple that is too short or has
    # a coordinate outside 0..5 must answer as absent, not as whichever
    # vector its bytes would encode to.
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
    # below the cap, vectors of mixed or negative sign still answer 0
    assert c_value(table, (-3, 3)) == c_value(table, (-6, 0)) == 0


def test_export_rows_sorted_and_schema():
    table = compute_all(build(AFFINE_A1), 5)
    rows = list(table.export_rows())
    keys = [(r["height"], r["coords"]) for r in rows]
    assert keys == sorted(keys)
    assert set(rows[0]) == {"coords", "height", "norm", "c", "mult", "kind"}
    null = next(r for r in rows if r["coords"] == (1, 1))
    assert null["norm"] == 0 and null["c"] == "1/1" and null["kind"] == "imaginary"


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
