import pytest

from rootmult import (
    KillingCounter,
    build,
    compute_all,
    counter_snapshot,
    k_ascent_measured,
    k_naive_closed,
    naive_compute,
)
from rootmult.metrics import PHASE_ORACLE, PHASE_PINGPONG, PHASE_SUM
from helpers import A2, AFFINE_A1, AFFINE_A2, HYP3, HYP3D


def test_k_naive_closed_small_values():
    assert k_naive_closed(1, 1) == 0
    assert k_naive_closed(2, 10) == 2660
    assert k_naive_closed(2, 20) == 34620
    assert k_naive_closed(2, 30) == 161880
    assert k_naive_closed(2, 40) == 490440
    assert k_naive_closed(2, 100) == 17665100


def test_k_naive_closed_h50_formula_value():
    # The reference table prints 1116300 at h = 50, but the closed
    # form 4*(C(53,4) - 2500/2) gives 1166300; the printed entry is a one-digit
    # misprint.  The acceptance suite applies the erratum (REFERENCE_ERRATA)
    # and checks it against the other printed entries; this test pins the
    # formula itself.
    assert k_naive_closed(2, 50) == 4 * (292825 - 1250) == 1166300


def test_k_naive_closed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        k_naive_closed(0, 5)
    with pytest.raises(ValueError):
        k_naive_closed(2, 0)


def test_counter_tick_and_phases():
    c = KillingCounter()
    c.tick(PHASE_ORACLE)
    c.tick(PHASE_SUM)
    c.tick(PHASE_SUM, 3)
    assert c.count() == 5
    assert c.count(PHASE_SUM) == 4
    assert c.count(PHASE_PINGPONG) == 0
    assert c.by_phase() == {PHASE_ORACLE: 1, PHASE_SUM: 4}
    with pytest.raises(ValueError):
        c.tick(PHASE_SUM, -1)


def test_measured_ascent_monotone_in_height():
    cm = build(HYP3)
    previous = -1
    for cap in (4, 8, 12, 16, 20):
        counter = KillingCounter()
        compute_all(cm, cap, counter)
        measured = k_ascent_measured(counter)
        assert measured >= previous
        previous = measured


def test_measured_ascent_beats_naive_closed_form():
    cm = build(HYP3)
    for cap in (10, 20, 30):
        counter = KillingCounter()
        compute_all(cm, cap, counter)
        assert k_ascent_measured(counter) < k_naive_closed(2, cap)


def test_snapshot_report_shape():
    cm = build(HYP3)
    counter = KillingCounter()
    table = compute_all(cm, 12, counter)
    report = counter_snapshot(table)
    assert report["k_naive_closed"] == k_naive_closed(2, 12)
    assert report["k_ascent"] == k_ascent_measured(counter)
    assert report["oracle"] is None
    assert report["ratio"] > 1
    assert set(report["phases"]) == {PHASE_PINGPONG, PHASE_SUM}
    # Past the float range the quotient is None: 2 I of rank 20 has only
    # its simple roots, but the closed-form naive cost at the largest
    # height has 712 digits.
    wide = counter_snapshot(compute_all(build([[2 * (i == j) for j in range(20)]
                                               for i in range(20)]), 2**63 - 1))
    assert wide["k_ascent"] == 400 and len(str(wide["k_naive_closed"])) == 712
    assert wide["ratio"] is None

    oracle_tab = naive_compute(cm, 8)
    oreport = counter_snapshot(oracle_tab)
    assert oreport["k_ascent"] is None
    assert oreport["oracle"] == oracle_tab.counter.count("oracle")


def test_e10_pingpong_count_at_cap_10():
    # The reference table reports 950 for E10 at height 10.  At that height
    # there are no chamber points yet, so the measured cost is the pingpong
    # phase alone: each of the 95 real roots of height <= 10 is reflected
    # d = 10 times, once, since the root table is the walk's visited set.
    from rootmult import preset_matrix

    cm = build(preset_matrix("e10"))
    counter = KillingCounter()
    compute_all(cm, 10, counter)
    assert counter.count(PHASE_SUM) == 0
    assert k_ascent_measured(counter) == 950


@pytest.mark.parametrize("grid,cap", [
    (A2, 5),
    (AFFINE_A1, 12),
    (HYP3, 40),
    ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], 20),
    ("e10", 40),
    (HYP3D, 16),
], ids=["a2", "affine-a1", "hyp-2-3", "ha1", "e10", "hyp-3d"])
def test_each_recorded_vector_is_reflected_once(grid, cap):
    # Simple roots and imaginary chamber points are expanded as pingpong
    # seeds, every other vector when it is recorded, and nothing twice.
    # HYP3D's symmetric group permutes its chamber points: a point whose
    # Peterson sum is reused from an earlier image is still recorded and
    # walked, once.
    from rootmult import preset_matrix

    cm = build(preset_matrix(grid) if isinstance(grid, str) else grid)
    counter = KillingCounter()
    table = compute_all(cm, cap, counter)
    assert counter.count(PHASE_PINGPONG) == cm.d * len(table)


HA1 = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
AFFINE_A1_SQUARED = [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
CHAIN4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -2, 2]]


@pytest.mark.parametrize("grid,cap,pingpong,peterson_sum", [
    (HYP3, 40, 748, 6_332),
    ("e10", 40, 8_540, 121),
    ("e10", 100, 665_140, 3_775),
    ("e11", 30, 7_821, 121),
    (HA1, 20, 657, 1_120),
    (HYP3D, 16, 1_491, 2_404),
    (AFFINE_A1_SQUARED, 16, 192, 112),
    (HYP3D, 30, 8_796, 47_827),
    (CHAIN4, 30, 9_552, 22_820),
], ids=["hyp-2-3", "e10", "e10-100", "e11", "ha1", "hyp-3d", "affine-a1-squared",
        "hyp-3d-30", "chain4"])
def test_compute_all_form_counts_are_pinned(grid, cap, pingpong, peterson_sum):
    # The form count is the paper's cost model: each phase must add exactly
    # the forms it evaluated, wherever in the phase the ticks happen.  A
    # Peterson sum is evaluated once per orbit of chamber points under the
    # diagram automorphisms: the swap halves hyp-2-3's sums (11,622 forms
    # if every point were summed), S_3 cuts HYP3D's (9,890) and the block
    # swaps of the decomposable AFFINE_A1_SQUARED cut its (216).  E10, E11,
    # HA1 and CHAIN4 have no automorphism, so each of their points is
    # summed.  HYP3D at 30 and CHAIN4 are where most candidates u are not
    # <= beta, so that their partner lookup misses.
    from rootmult import preset_matrix

    cm = build(preset_matrix(grid) if isinstance(grid, str) else grid)
    counter = KillingCounter()
    compute_all(cm, cap, counter)
    assert counter.by_phase() == {PHASE_PINGPONG: pingpong, PHASE_SUM: peterson_sum}


@pytest.mark.parametrize("grid,forms,gaps", [
    (HYP3, 917, 2),
    (AFFINE_A1, 869, 4),
    (AFFINE_A2, 7_206, 21),
], ids=["hyp-2-3", "affine-a1", "affine-a2"])
def test_oracle_form_counts_are_pinned(grid, forms, gaps):
    # One form for the denominator of every non-simple lattice point, plus
    # one per box subroot where the denominator is nonzero.
    tab = naive_compute(build(grid), 10)
    assert tab.counter.by_phase() == {PHASE_ORACLE: forms}
    assert len(tab.gaps) == gaps
