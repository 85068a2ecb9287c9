import random

import pytest

from rootmult import NotGCM, NotSymmetrizable, build, killing, rho_pair
from helpers import A2, AFFINE_A1, HYP3, AFFINE_A2


def test_rank_one():
    cm = build([[2]])
    assert cm.d == 1
    assert cm.sym == (1,)
    assert cm.s == ((2,),)


def test_symmetric_matrix_has_trivial_symmetrizer():
    cm = build(HYP3)
    assert cm.sym == (1, 1)
    assert cm.s == ((2, -3), (-3, 2))


def test_nonsymmetric_symmetrizer():
    # d1 * (-1) = d2 * (-3) forces (3, 1) after clearing denominators.
    cm = build([[2, -1], [-3, 2]])
    assert cm.sym == (3, 1)
    assert cm.s == ((6, -3), (-3, 2))


def test_symmetrizer_is_coprime_per_build():
    cm = build([[2, -2], [-1, 2]])
    assert cm.sym == (1, 2)
    g = cm.sym[0]
    for x in cm.sym[1:]:
        import math

        g = math.gcd(g, x)
    assert g == 1


def test_not_gcm_rejections():
    with pytest.raises(NotGCM):
        build([[1]])
    with pytest.raises(NotGCM):
        build([[2, 1], [1, 2]])
    with pytest.raises(NotGCM):
        build([[2, -1], [0, 2]])  # zero-pattern asymmetry


def test_not_symmetrizable_cycle():
    # Ratios around the 3-cycle multiply to 1/4 != 1.
    with pytest.raises(NotSymmetrizable):
        build([[2, -1, -1], [-2, 2, -1], [-1, -2, 2]])


def test_malformed_grids():
    with pytest.raises(ValueError):
        build([])
    with pytest.raises(ValueError):
        build([[2, -1]])
    with pytest.raises(ValueError):
        build([[2, -1.5], [-1, 2]])


def test_killing_examples():
    cm = build(HYP3)
    assert killing(cm, (1, 0), (1, 0)) == 2
    assert killing(cm, (1, 1), (1, 1)) == -2
    assert killing(cm, (1, 0), (0, 1)) == -3


def test_killing_dimension_mismatch():
    cm = build(HYP3)
    with pytest.raises(ValueError):
        killing(cm, (1, 0, 0), (0, 1))
    with pytest.raises(ValueError):
        killing(cm, (1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        rho_pair(cm, (1,))


def test_rho_pair_examples():
    assert rho_pair(build(AFFINE_A1), (1, 1)) == 4
    assert rho_pair(build(HYP3), (2, 2)) == 8
    assert rho_pair(build(HYP3), (0, 0)) == 0


@pytest.mark.parametrize("grid", [A2, AFFINE_A1, HYP3, AFFINE_A2, [[2, -1], [-3, 2]]])
def test_killing_symmetric_bilinear(grid):
    cm = build(grid)
    rng = random.Random(7)
    vecs = [
        tuple(rng.randrange(-4, 5) for _ in range(cm.d)) for _ in range(8)
    ]
    for beta in vecs:
        for gamma in vecs:
            assert killing(cm, beta, gamma) == killing(cm, gamma, beta)
    for b1 in vecs[:4]:
        for b2 in vecs[:4]:
            for gamma in vecs[:4]:
                s = tuple(x + y for x, y in zip(b1, b2))
                assert killing(cm, s, gamma) == killing(cm, b1, gamma) + killing(
                    cm, b2, gamma
                )


@pytest.mark.parametrize("grid", [A2, AFFINE_A1, HYP3, AFFINE_A2, [[2, -1], [-3, 2]]])
def test_form_consistent_with_cartan_rows(grid):
    # 2 (beta, alpha_i) / (alpha_i, alpha_i) must reproduce the A-row pairing.
    cm = build(grid)
    rng = random.Random(11)
    for _ in range(20):
        beta = tuple(rng.randrange(-5, 6) for _ in range(cm.d))
        for i in range(cm.d):
            alpha = tuple(1 if j == i else 0 for j in range(cm.d))
            lhs = 2 * killing(cm, beta, alpha)
            rhs = killing(cm, alpha, alpha) * sum(
                cm.a[i][j] * beta[j] for j in range(cm.d)
            )
            assert lhs == rhs


def test_scaled_form_scales_outputs():
    cm = build(HYP3)
    doubled = cm.scaled(2)
    rng = random.Random(3)
    for _ in range(10):
        beta = tuple(rng.randrange(-4, 5) for _ in range(2))
        gamma = tuple(rng.randrange(-4, 5) for _ in range(2))
        assert killing(doubled, beta, gamma) == 2 * killing(cm, beta, gamma)
        assert rho_pair(doubled, beta) == 2 * rho_pair(cm, beta)

