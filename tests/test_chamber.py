import subprocess
import sys
from fractions import Fraction

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
from rootmult import chamber, hilbert
from rootmult.chamber import _det_adjugate, _finite_type_inverse
from helpers import (
    A2,
    AFFINE_A1,
    AFFINE_A2,
    CLI_ENV,
    HYP3,
    HYP3D,
    RANK1,
    brute_chamber_points,
    brute_extreme_rays,
    brute_hilbert_basis,
    leq,
    symmetrizable_gcms,
    vsub,
)


def test_in_chamber_examples():
    cm = build(HYP3)
    assert in_chamber(cm, (1, 1))       # S rows give -1, -1
    assert not in_chamber(cm, (1, 0))   # row 1 gives 2
    assert in_chamber(cm, (3, 2))       # rows give 0, -5
    assert not in_chamber(cm, (0, 0))
    assert not in_chamber(cm, (-1, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        in_chamber(cm, (1, 1, 1))


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=4))
def test_extreme_rays_match_brute_force_on_random_gcms(grid):
    cm = build(grid)
    assert extreme_rays(cm) == brute_extreme_rays(cm)


def test_extreme_rays_self_check_raises_also_under_python_O(monkeypatch):
    monkeypatch.setattr(hilbert, "in_chamber", lambda cm, ray: False)
    with pytest.raises(AssertionError, match="outside the chamber"):
        extreme_rays(build(HYP3))
    # an assert statement would vanish under -O and return the rays
    script = (
        "from rootmult import build, hilbert\n"
        "hilbert.in_chamber = lambda cm, ray: False\n"
        "try:\n"
        f"    hilbert.extreme_rays(build({HYP3}))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=CLI_ENV)
    assert proc.returncode == 0


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=3))
def test_hilbert_basis_matches_box_search_on_random_gcms(grid):
    # every generator lies under the sum of the extreme rays
    cm = build(grid)
    lim = max(map(sum, zip(*brute_extreme_rays(cm))), default=0)
    if lim > 12:
        return
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
    # e11's generator bound, height 2338, is above its fixed budget 220.
    with pytest.raises(CapExceeded):
        hilbert_basis(build(preset_matrix("e11")))


def test_chamber_points_examples():
    assert chamber_points(build(AFFINE_A1), 5) == [(1, 1), (2, 2)]
    assert chamber_points(build(HYP3), 5) == [(1, 1), (2, 2), (2, 3), (3, 2)]
    assert chamber_points(build(A2), 30) == []


def test_chamber_points_refuses_a_box_of_the_wrong_length():
    # also at finite type, which has no chamber points
    for grid, box in ((HYP3, (3, 3, 0)), (HYP3, (3,)), (A2, (3,))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            chamber_points(build(grid), 6, box)


@pytest.mark.parametrize("grid,cap", [(HYP3, 12), (AFFINE_A1, 12), (AFFINE_A2, 10),
                                      (HYP3D, 9), ([[2, -1], [-3, 2]], 12)])
def test_chamber_points_matches_brute_force(grid, cap):
    cm = build(grid)
    got = chamber_points(cm, cap)
    assert got == brute_chamber_points(cm, cap)
    assert got == sorted(set(got), key=lambda v: (sum(v), v))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(), cap=st.integers(1, 10), data=st.data())
def test_chamber_points_match_brute_force_on_random_gcms(grid, cap, data):
    cm = build(grid)
    box = data.draw(st.none() | st.tuples(*[st.integers(0, cap)] * cm.d))
    expected = brute_chamber_points(cm, cap)
    if box is not None:
        expected = [v for v in expected if leq(v, box)]
    assert chamber_points(cm, cap, box) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=5), data=st.data())
def test_chamber_points_match_brute_force_at_rank_4_and_5(grid, data):
    # the lower bound (d) and the last coordinate's range, where free
    # blocks of rank 2 to 4 are finite type
    cm = build(grid)
    cap = data.draw(st.integers(1, 9 if cm.d <= 4 else 7))
    box = data.draw(st.none() | st.tuples(*[st.integers(0, cap)] * cm.d))
    expected = brute_chamber_points(cm, cap)
    if box is not None:
        expected = [v for v in expected if leq(v, box)]
    assert chamber_points(cm, cap, box) == expected


E10_PERMS = ((9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
             (2, 1, 5, 3, 8, 6, 0, 9, 4, 7),
             (4, 5, 9, 3, 8, 2, 1, 6, 7, 0))
E11_PERMS = ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
             (5, 2, 6, 0, 7, 4, 8, 9, 3, 10, 1),
             (10, 9, 0, 6, 8, 1, 7, 5, 3, 2, 4))


@pytest.mark.parametrize("name,cap,count,perm", [
    *(pytest.param("e10", 80, 4, perm, id=f"perm{n}") for n, perm in enumerate(E10_PERMS)),
    *(pytest.param("e10", 120, 10, perm, id=f"e10-120-perm{n}")
      for n, perm in enumerate(E10_PERMS)),
    *(pytest.param("e11", 50, 2, perm, id=f"e11-50-perm{n}") for n, perm in enumerate(E11_PERMS)),
])
def test_e10_chamber_points_do_not_depend_on_node_order(name, cap, count, perm):
    # a relabelling changes which free blocks are finite type, so which
    # depths bound by (c) and (d): a check where no brute force reaches
    grid = preset_matrix(name)
    expected = chamber_points(build(grid), cap)
    relabelled = [[grid[p][q] for q in perm] for p in perm]
    # node i of the relabelled matrix is node perm[i] of the preset
    got = chamber_points(build(relabelled), cap)
    back = [tuple(v[perm.index(k)] for k in range(len(perm))) for v in got]
    assert len(expected) == count
    assert sorted(back, key=lambda v: (sum(v), v)) == expected


def test_chamber_points_have_nonpositive_norm():
    for grid in (HYP3, AFFINE_A1, AFFINE_A2, HYP3D):
        cm = build(grid)
        for beta in chamber_points(cm, 12):
            assert killing(cm, beta, beta) <= 0


def test_a_positive_definite_matrix_costs_one_elimination(monkeypatch):
    # (beta, beta) = sum_j beta_j (beta, alpha_j) <= 0 at a chamber point, so
    # a positive definite S has none: 2 I of rank 40 stops after the block
    # of all of S, without the 39 smaller blocks
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return _det_adjugate(rows)

    monkeypatch.setattr(chamber, "_det_adjugate", counted)
    grid = [[2 * (i == j) for j in range(40)] for i in range(40)]
    assert chamber_points(build(grid), 5) == []
    assert sizes == [40]


def test_e10_basis_is_its_ray_lattice():
    cm = build(preset_matrix("e10"))
    rays = extreme_rays(cm)
    hb = hilbert_basis(cm)
    assert len(rays) == 10
    assert list(hb) == sorted(rays, key=lambda r: (sum(r), r))
    # the affine e9 null root is the lowest generator
    assert sum(hb[0]) == 30


def fraction_gauss_jordan(rows):
    """Reference: determinant and inverse (None when det is 0) by Gauss-Jordan
    elimination over Fractions."""
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        p = m[col][col]
        det *= p
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det), [row[n:] for row in m]


def reference_finite_type_inverse(block):
    det, inv = fraction_gauss_jordan(block)
    if inv is None or det < 0 or any(x < 0 for row in inv for x in row):
        return None
    return det, [[int(x * det) for x in row] for row in inv]


@st.composite
def square_matrices(draw):
    """Integer matrices of order <= 6, entries -5..5; one row is optionally
    overwritten by a multiple of another, so singular ones are common."""
    n = draw(st.integers(1, 6))
    m = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-2, 2))
        m[i] = [k * x for x in m[j]]
    return m


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(m=square_matrices())
def test_integer_elimination_matches_fractions(m):
    det, adj = _det_adjugate(m)
    ref_det, ref_inv = fraction_gauss_jordan(m)
    assert det == ref_det
    if det == 0:
        assert adj is None
        return
    n = len(m)
    assert adj == [[x * det for x in row] for row in ref_inv]
    product = [[sum(m[i][l] * adj[l][j] for l in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", ["e10", "e11", "hyp-2-3"])
def test_suffix_blocks_keep_their_finite_type_verdict(name):
    s = build(preset_matrix(name)).s
    d = len(s)
    verdicts = []
    for k in range(d):
        block = [row[k:] for row in s[k:]]
        det, adj = _det_adjugate(block)
        ref_det, ref_inv = fraction_gauss_jordan(block)
        assert det == ref_det
        assert adj == [[int(x * det) for x in row] for row in ref_inv]
        verdict = _finite_type_inverse(block)
        assert verdict == reference_finite_type_inverse(block)
        verdicts.append(verdict is not None)
    # the whole matrix is indefinite, the last node alone is finite type
    assert not verdicts[0] and verdicts[-1]
