import pytest
from hypothesis import given, settings, strategies as st

from rootmult import RootTable, build, reflect
from rootmult.lattice import height
from rootmult.metrics import PHASE_PINGPONG
from rootmult.peterson import compute_all
from helpers import (
    A2, AFFINE_A1, HYP3, AFFINE_A2, HYP3D, brute_real_roots, record, reflect_walk,
    symmetrizable_gcms, walk_from,
)


def fresh_table(cm, cap):
    table = RootTable(cm, cap)
    for i in range(cm.d):
        alpha = tuple(1 if j == i else 0 for j in range(cm.d))
        record(table, alpha)
    return table


def walk(table, seed):
    """pingpong's new members, decoded from their keys."""
    return tuple(map(table.codec.decode, walk_from(table, seed)))


def test_reflect_simple_root_negates():
    for grid in (A2, HYP3, AFFINE_A2):
        cm = build(grid)
        for i in range(cm.d):
            alpha = tuple(1 if j == i else 0 for j in range(cm.d))
            assert reflect(cm, i, alpha) == tuple(-x for x in alpha)


def test_reflect_hand_values():
    cm = build(HYP3)
    assert reflect(cm, 1, (1, 0)) == (1, 3)
    assert reflect(cm, 0, (1, 1)) == (2, 1)


def test_reflect_is_involution():
    cm = build(AFFINE_A2)
    beta = (2, 5, 1)
    for i in range(cm.d):
        assert reflect(cm, i, reflect(cm, i, beta)) == beta


def test_reflect_index_out_of_range():
    cm = build(A2)
    with pytest.raises(IndexError):
        reflect(cm, 2, (1, 0))
    with pytest.raises(IndexError):
        reflect(cm, -1, (1, 0))
    with pytest.raises(ValueError):
        reflect(cm, 0, (1, 0, 0))


def test_pingpong_truncates_at_cap():
    cm = build(HYP3)
    table = fresh_table(cm, 4)
    # next orbit element (8,3) has height 11
    assert walk(table, (1, 0)) == ((1, 3),)
    assert set(table.entries) == {(1, 0), (0, 1), (1, 3)}

    table = fresh_table(cm, 1)
    assert walk(table, (1, 0)) == ()
    assert set(table.entries) == {(1, 0), (0, 1)}


def test_pingpong_propagates_seed_values():
    cm = build(HYP3)
    table = fresh_table(cm, 3)
    record(table, (1, 1))
    assert set(walk(table, (1, 1))) == {(2, 1), (1, 2)}
    for member in ((1, 1), (2, 1), (1, 2)):
        rec = table.get(member)
        assert rec.c == 1 and rec.mult == 1 and rec.kind == "imaginary"


def test_pingpong_shares_the_seed_record_object():
    cm = build(HYP3)
    table = fresh_table(cm, 20)
    seed = table.get((1, 0))
    walked = walk(table, (1, 0))
    assert walked == ((1, 3), (8, 3))
    assert all(table.get(v) is seed for v in walked)


def test_pingpong_conflict_is_an_assertion_error():
    cm = build(AFFINE_A1)
    table = fresh_table(cm, 4)
    # (1, 2) is s_1(1, 0); recording it apart with another multiplicity
    # must stop the walk that reaches it
    record(table, (1, 2), 1, 2)
    with pytest.raises(AssertionError, match="conflicting values"):
        walk_from(table, (1, 0))


def test_pingpong_requires_recorded_seed():
    cm = build(HYP3)
    table = fresh_table(cm, 5)
    with pytest.raises(KeyError):
        walk_from(table, (1, 1))


def test_pingpong_refuses_a_seed_that_is_not_lowest_in_its_orbit():
    # (1, 3) = s_1(1, 0) has p = A(1, 3) = (-7, 3): s_1 takes it back down
    # to (1, 0), so a walk of raising moves from it would miss that part
    # of its orbit.  The refusal records and charges nothing.
    cm = build(HYP3)
    table = fresh_table(cm, 12)
    record(table, (1, 3))
    with pytest.raises(ValueError, match="not the lowest member"):
        walk_from(table, (1, 3))
    assert len(table) == 3 and table.counter.count(PHASE_PINGPONG) == 0


def test_pingpong_idempotent():
    cm = build(AFFINE_A1)
    table = fresh_table(cm, 9)
    first = walk_from(table, (1, 0))
    size = len(table)
    assert first and len(table) == 2 + len(first)
    assert walk_from(table, (1, 0)) == []
    assert len(table) == size


def assert_walks_match_reflect_walk(grid, cap):
    # Each simple root's walk returns what a plain raising walk of reflect
    # adds, in its order, for d forms per walked vector; together they
    # record exactly the real roots, which brute_real_roots finds walking
    # both ways.
    cm = build(grid)
    table = fresh_table(cm, cap)
    seen = set(table.entries)
    for i in range(cm.d):
        alpha = tuple(1 if j == i else 0 for j in range(cm.d))
        before = table.counter.count(PHASE_PINGPONG)
        walked = walk(table, alpha)
        assert walked == reflect_walk(cm, cap, alpha, seen)
        assert table.counter.count(PHASE_PINGPONG) - before == cm.d * (1 + len(walked))
    assert set(table.entries) == seen == brute_real_roots(cm, cap)


# The non-symmetric matrices tell the column of A, which updates the
# carried pairing vector, from the row, which computes it.
@pytest.mark.parametrize("grid,cap", [(A2, 8), (AFFINE_A1, 9), (HYP3, 12),
                                      (AFFINE_A2, 8), (HYP3D, 8),
                                      ([[2, -1], [-4, 2]], 40),
                                      ([[2, -2], [-3, 2]], 40)])
def test_real_roots_match_breadth_first_closure(grid, cap):
    assert_walks_match_reflect_walk(grid, cap)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 20))
def test_pingpong_equals_reflect_walk(grid, cap):
    assert_walks_match_reflect_walk(grid, cap)


def test_orbit_members_share_stored_values():
    cm = build(AFFINE_A1)
    table = compute_all(cm, 12)
    for beta, rec in table.entries.items():
        for i in range(cm.d):
            image = reflect(cm, i, beta)
            other = table.get(image)
            if other is not None:
                assert (other.c, other.mult) == (rec.c, rec.mult)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 20))
def test_compute_all_tables_are_closed_under_all_reflections(grid, cap):
    # The walks take raising moves only; the table they leave must still be
    # closed under every s_i, lowering ones included, within the cap, with
    # equal values across each orbit.  Imaginary orbits are covered too,
    # which the real-root closure above cannot check.
    cm = build(grid)
    entries = compute_all(cm, cap).entries
    for beta, rec in entries.items():
        for i in range(cm.d):
            image = reflect(cm, i, beta)
            if min(image) >= 0 and height(image) <= cap:
                other = entries.get(image)
                assert other is not None, f"s_{i}{beta} = {image} not recorded"
                assert (other.gc, other.mult) == (rec.gc, rec.mult)
