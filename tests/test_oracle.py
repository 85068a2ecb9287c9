from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rootmult import (
    KillingCounter,
    build,
    compare_tables,
    compute_all,
    k_naive_closed,
    naive_compute,
)
from rootmult.metrics import PHASE_ORACLE
from rootmult.oracle import _points_of_height
from helpers import A2, AFFINE_A1, AFFINE_A2, HYP3, RANK1, symmetrizable_gcms


def test_points_of_height_enumeration():
    pts = list(_points_of_height(2, 3))
    assert pts == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert pts == sorted(pts)
    assert len(list(_points_of_height(3, 5))) == 21  # C(7, 2)


def test_affine_hand_values():
    tab = naive_compute(build(AFFINE_A1), 4)
    assert tab.c[(1, 1)] == 1
    assert tab.c[(2, 2)] == Fraction(3, 2)
    assert tab.c[(2, 1)] == 1
    assert tab.c[(2, 0)] == Fraction(1, 2)
    assert tab.mult[(2, 2)] == 1
    assert tab.mult[(2, 0)] == 0


def test_finite_type_mult_support():
    tab = naive_compute(build(A2), 6)
    nonzero = sorted(v for v, m in tab.mult.items() if m)
    assert nonzero == [(0, 1), (1, 0), (1, 1)]

    tab1 = naive_compute(build(RANK1), 5)
    assert [v for v, m in tab1.mult.items() if m] == [(1,)]


def test_zero_denominator_points_are_logged_and_resolved():
    # (3,1) and (1,3) satisfy (beta, beta) = 2 (rho, beta) in affine A1
    tab = naive_compute(build(AFFINE_A1), 4)
    assert sorted(tab.gaps) == [(1, 3), (3, 1)]
    assert tab.c[(3, 1)] == 0 and tab.mult[(3, 1)] == 0

    # scaled-real gap: in rank 1, (n) for n >= 2 never vanishes, but the
    # affine A2 cycle has plenty; all must still give exact values
    tab3 = naive_compute(build(AFFINE_A2), 6)
    assert tab3.gaps != []
    for v in tab3.gaps:
        assert tab3.c[v].denominator >= 1  # resolved, no crash


def test_oracle_domain_is_full_positive_cone():
    cap = 5
    tab = naive_compute(build(AFFINE_A1), cap)
    expected = [v for h in range(1, cap + 1) for v in _points_of_height(2, h)]
    assert set(tab.c) == set(expected)
    assert set(tab.mult) == set(expected)


@pytest.mark.parametrize("grid,cap", [(AFFINE_A1, 10), (HYP3, 10), (A2, 10),
                                      (AFFINE_A2, 8), (RANK1, 10)])
def test_oracle_counter_below_closed_form(grid, cap):
    cm = build(grid)
    counter = KillingCounter()
    naive_compute(cm, cap, counter)
    assert counter.count(PHASE_ORACLE) <= k_naive_closed(cm.d, cap)
    assert counter.count(PHASE_ORACLE) > 0


def test_oracle_export_matches_engine_export():
    # same schema, same rows: the exports can be diffed file-to-file
    cm = build(AFFINE_A1)
    engine_text = "".join(compute_all(cm, 6).lines_by_height("csv"))
    oracle_text = "".join(
        f"{';'.join(map(str, row['coords']))},{row['height']},{row['norm']},{row['c']},"
        f"{row['mult']},{row['kind']}\n"
        for row in naive_compute(cm, 6).export_rows()
    )
    assert engine_text == oracle_text != ""


def test_oracle_counts_only_oracle_phase():
    counter = KillingCounter()
    naive_compute(build(A2), 5, counter)
    assert set(counter.by_phase()) == {PHASE_ORACLE}
    with pytest.raises(ValueError, match="cap must be >= 1"):
        naive_compute(build(A2), 0, counter)


def test_oracle_tables_share_no_state_and_tick_the_given_counter():
    cm = build(AFFINE_A1)
    first, second = naive_compute(cm, 4), naive_compute(cm, 4)
    for name in ("c", "mult", "gaps", "counter"):
        assert getattr(first, name) is not getattr(second, name)
    assert first.c == second.c and first.gaps == second.gaps != []
    # the --oracle-check --metrics path: the engine's counter is passed on
    counter = KillingCounter()
    counter.tick("pingpong", 7)
    tab = naive_compute(cm, 4, counter)
    assert tab.counter is counter
    assert counter.count("pingpong") == 7
    assert counter.count(PHASE_ORACLE) == first.counter.count(PHASE_ORACLE) > 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 9))
def test_engine_matches_oracle_on_random_gcms(grid, cap):
    cm = build(grid)
    assert compare_tables(compute_all(cm, cap), naive_compute(cm, cap)) == []
