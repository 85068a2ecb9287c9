import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from time import perf_counter

import pytest
from hypothesis import given, settings

from rootmult import (
    CartanMatrix,
    NotGCM,
    NotSymmetrizable,
    automorphisms,
    build,
    killing,
    preset_matrix,
    rho_pair,
)
from helpers import A2, AFFINE_A1, HYP3, AFFINE_A2, symmetrizable_gcms


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


def test_symmetrizer_rescales_its_component_in_integers():
    # From d_0 = 1: d_1 = 1/2 scales the component by 2, then d_2 = 1/3
    # scales it by 3.
    grid = [[2, -1, 0], [-2, 2, -1], [0, -3, 2]]
    assert build(grid).sym == (6, 3, 1) == fraction_symmetrizer(grid)


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
    # The ratios d_j / d_i = a_ij / a_ji around each cycle multiply to a
    # product != 1: 1/4 and 2 around the 3-cycles, 6 around 0-1-2-3-0.
    for grid in ([[2, -1, -1], [-2, 2, -1], [-1, -2, 2]],
                 [[2, -1, -1], [-1, 2, -2], [-1, -1, 2]],
                 [[2, -2, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -3], [-1, 0, -1, 2]]):
        assert fraction_symmetrizer(grid) is None
        with pytest.raises(NotSymmetrizable, match="around a cycle"):
            build(grid)


def fraction_symmetrizer(grid):
    """The coprime symmetrizer of each component by Fraction arithmetic:
    d_j = d_i a_ij / a_ji propagated from d = 1 at the component's first
    node, then scaled to coprime integers.  None if a cycle conflicts."""
    d = len(grid)
    ratios = [None] * d
    for start in range(d):
        if ratios[start] is not None:
            continue
        component, ratios[start] = [start], Fraction(1)
        for i in component:  # grows while it is read
            for j in range(d):
                if j != i and grid[i][j]:
                    want = ratios[i] * Fraction(grid[i][j], grid[j][i])
                    if ratios[j] is None:
                        ratios[j] = want
                        component.append(j)
                    elif ratios[j] != want:
                        return None
        scale = lcm(*(ratios[k].denominator for k in component))
        ints = [int(ratios[k] * scale) for k in component]
        for k, x in zip(component, ints):
            ratios[k] = x // gcd(*ints)
    return tuple(ratios)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=5))
def test_integer_symmetrizer_matches_a_fraction_reference(grid):
    cm = build(grid)
    assert cm.sym == fraction_symmetrizer(grid)
    assert all(cm.s[i][j] == cm.s[j][i] for i in range(cm.d) for j in range(cm.d))


def test_each_component_gets_its_own_coprime_symmetrizer():
    # Components {0, 3}, {1, 4} and {2}, interleaved: d_3 / d_0 = 1/3 and
    # d_4 / d_1 = 2, each scaled to coprime integers on its own.
    grid = [[2, 0, 0, -1, 0],
            [0, 2, 0, 0, -2],
            [0, 0, 2, 0, 0],
            [-3, 0, 0, 2, 0],
            [0, -1, 0, 0, 2]]
    cm = build(grid)
    assert cm.sym == (3, 1, 1, 1, 2) == fraction_symmetrizer(grid)
    assert cm.s[0][3] == cm.s[3][0] == -3 and cm.s[1][4] == cm.s[4][1] == -2


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
    with pytest.raises(ValueError, match="positive integer"):
        cm.scaled(0)


def test_cartan_matrix_is_an_immutable_hashable_record():
    cm = build([[2, -1], [-3, 2]])
    for field in ("d", "a", "sym", "s"):
        with pytest.raises(AttributeError):
            setattr(cm, field, None)
    again = build([[2, -1], [-3, 2]])
    assert cm == again and cm is not again
    assert hash(cm) == hash(again)
    assert len(cm) == 4 and tuple(cm) == (cm.d, cm.a, cm.sym, cm.s)
    doubled = cm.scaled(2)
    assert type(doubled) is CartanMatrix
    assert (doubled.d, doubled.a) == (cm.d, cm.a)
    assert doubled.sym == (6, 2) and doubled.s == ((12, -6), (-6, 4))
    assert doubled != cm



def closure(gens, d):
    """Every permutation the generators generate, by breadth-first products."""
    group = [tuple(range(d))]
    seen = set(group)
    for p in group:  # grows while it is read
        for g in gens:
            q = tuple(map(p.__getitem__, g))
            if q not in seen:
                seen.add(q)
                group.append(q)
    return seen


def is_automorphism(cm, sigma):
    return all(cm.s[sigma[i]][sigma[j]] == cm.s[i][j]
               for i in range(cm.d) for j in range(cm.d))


def assert_transversal(gens):
    # each generator fixes the nodes before its first moved node k and
    # sends k to a later node
    for sigma in gens:
        k = next(i for i, x in enumerate(sigma) if x != i)
        assert sigma[k] > k


AFFINE_A3 = [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]


@pytest.mark.parametrize("grid,order", [
    ("hyp-2-3", 2),
    ("hyp-2-7", 2),
    ("e10", 1),
    ("e11", 1),
    ([[2, -1], [-2, 2]], 1),
    ([[2, -1], [-4, 2]], 1),
    ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], 2),
    (AFFINE_A3, 8),
    (AFFINE_A2, 6),
], ids=["hyp-2-3", "hyp-2-7", "e10", "e11", "b2", "twisted", "end-swap",
        "affine-a3", "affine-a2"])
def test_automorphism_group_orders(grid, order):
    cm = build(preset_matrix(grid) if isinstance(grid, str) else grid)
    gens = automorphisms(cm)
    assert all(is_automorphism(cm, g) for g in gens)
    assert_transversal(gens)
    assert len(closure(gens, cm.d)) == order
    if order == 1:
        assert gens == ()


def test_automorphisms_of_named_diagrams():
    assert automorphisms(build(HYP3)) == ((1, 0),)
    # s = diag(2, 1, 2) A: the end nodes agree, the middle one differs
    assert automorphisms(build([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])) == ((2, 1, 0),)


def test_complete_graph_group_is_generated_not_enumerated():
    grid = [[2 if i == j else -1 for j in range(8)] for i in range(8)]
    cm = build(grid)
    times = []
    for _ in range(3):
        start = perf_counter()
        gens = automorphisms(cm)
        times.append(perf_counter() - start)
    assert min(times) < 0.05
    assert len(gens) <= 28
    assert len(closure(gens, 8)) == 40_320


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=4))
def test_automorphisms_generate_exactly_the_brute_force_group(grid):
    cm = build(grid)
    expected = {p for p in permutations(range(cm.d)) if is_automorphism(cm, p)}
    gens = automorphisms(cm)
    assert_transversal(gens)
    assert len(gens) <= cm.d * (cm.d - 1) // 2
    assert closure(gens, cm.d) == expected
