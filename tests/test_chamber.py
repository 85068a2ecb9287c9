import pytest
from hypothesis import given, settings, strategies as st

from rootmult import (
    CapExceeded,
    build,
    chamber_points,
    extreme_rays,
    hilbert_basis,
    in_chamber,
    killing,
    preset_matrix,
)
from rootmult.lattice import height, leq, vsub
from helpers import (
    A2,
    AFFINE_A1,
    AFFINE_A2,
    HYP3,
    HYP3D,
    RANK1,
    brute_chamber_points,
    brute_hilbert_basis,
    symmetrizable_gcms,
)


def test_in_chamber_examples():
    cm = build(HYP3)
    assert in_chamber(cm, (1, 1))       # S rows give -1, -1
    assert not in_chamber(cm, (1, 0))   # row 1 gives 2
    assert in_chamber(cm, (3, 2))       # rows give 0, -5
    assert not in_chamber(cm, (0, 0))
    assert not in_chamber(cm, (-1, 2))


def test_extreme_rays_small_cases():
    assert extreme_rays(build(A2)) == []
    assert extreme_rays(build(RANK1)) == []
    assert extreme_rays(build(AFFINE_A1)) == [(1, 1)]
    assert extreme_rays(build(HYP3)) == [(2, 3), (3, 2)]
    assert extreme_rays(build(AFFINE_A2)) == [(1, 1, 1)]
    assert extreme_rays(build(HYP3D)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_extreme_rays_lie_in_chamber():
    for grid in (HYP3, AFFINE_A1, AFFINE_A2, HYP3D, [[2, -1], [-3, 2]]):
        cm = build(grid)
        for ray in extreme_rays(cm):
            assert in_chamber(cm, ray)


def test_hilbert_basis_examples():
    assert list(hilbert_basis(build(A2))) == []
    assert list(hilbert_basis(build(AFFINE_A1))) == [(1, 1)]
    assert list(hilbert_basis(build(HYP3))) == [(1, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize(
    "grid,lim",
    [(A2, 8), (AFFINE_A1, 8), (HYP3, 8), (AFFINE_A2, 6), (HYP3D, 6),
     ([[2, -4], [-4, 2]], 10), ([[2, -1], [-3, 2]], 10), (RANK1, 5)],
)
def test_hilbert_basis_matches_box_search(grid, lim):
    cm = build(grid)
    assert list(hilbert_basis(cm)) == brute_hilbert_basis(cm, lim)


def test_hilbert_basis_generators_are_chamber_points():
    for grid in (HYP3, AFFINE_A2, HYP3D, [[2, -4], [-4, 2]]):
        cm = build(grid)
        for g in hilbert_basis(cm):
            assert in_chamber(cm, g)


def test_hilbert_basis_minimal():
    # no generator reduces another: g - h is never a chamber point
    for grid in (HYP3, AFFINE_A2, HYP3D, [[2, -4], [-4, 2]], [[2, -1], [-3, 2]]):
        cm = build(grid)
        hb = hilbert_basis(cm)
        assert not any(
            leq(h, g) and in_chamber(cm, vsub(g, h)) for g in hb for h in hb
        )


def test_cap_exceeded_on_tiny_budget():
    with pytest.raises(CapExceeded):
        hilbert_basis(build(HYP3), max_height=3)


def test_chamber_points_examples():
    assert chamber_points(build(AFFINE_A1), 5) == [(1, 1), (2, 2)]
    assert chamber_points(build(HYP3), 5) == [(1, 1), (2, 2), (2, 3), (3, 2)]
    assert chamber_points(build(A2), 30) == []


@pytest.mark.parametrize("grid,cap", [(HYP3, 12), (AFFINE_A1, 12), (AFFINE_A2, 10),
                                      (HYP3D, 9), ([[2, -1], [-3, 2]], 12)])
def test_chamber_points_matches_brute_force(grid, cap):
    cm = build(grid)
    got = chamber_points(cm, cap)
    assert got == brute_chamber_points(cm, cap)
    assert got == sorted(set(got), key=lambda v: (height(v), v))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 10), data=st.data())
def test_chamber_points_match_brute_force_on_random_gcms(grid, cap, data):
    cm = build(grid)
    box = data.draw(st.none() | st.tuples(*[st.integers(0, cap)] * cm.d))
    expected = brute_chamber_points(cm, cap)
    if box is not None:
        expected = [v for v in expected if leq(v, box)]
    assert chamber_points(cm, cap, box) == expected


@pytest.mark.parametrize("perm", [
    (9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    (2, 1, 5, 3, 8, 6, 0, 9, 4, 7),
    (4, 5, 9, 3, 8, 2, 1, 6, 7, 0),
])
def test_e10_chamber_points_do_not_depend_on_node_order(perm):
    grid = preset_matrix("e10")
    expected = chamber_points(build(grid), 80)
    relabelled = [[grid[p][q] for q in perm] for p in perm]
    # node i of the relabelled matrix is node perm[i] of e10
    got = chamber_points(build(relabelled), 80)
    back = [tuple(v[perm.index(k)] for k in range(10)) for v in got]
    assert len(expected) == 4
    assert sorted(back, key=lambda v: (height(v), v)) == expected


def test_chamber_points_have_nonpositive_norm():
    for grid in (HYP3, AFFINE_A1, AFFINE_A2, HYP3D):
        cm = build(grid)
        for beta in chamber_points(cm, 12):
            assert killing(cm, beta, beta) <= 0


def test_e10_basis_is_its_ray_lattice():
    cm = build(preset_matrix("e10"))
    rays = extreme_rays(cm)
    hb = hilbert_basis(cm)
    assert len(rays) == 10
    assert list(hb) == sorted(rays, key=lambda r: (height(r), r))
    # the affine e9 null root is the lowest generator
    assert height(hb[0]) == 30
