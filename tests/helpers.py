"""Shared fixtures-in-spirit: test matrices and independent brute-force oracles.

The oracles here deliberately avoid the package's orbit/chamber/engine code
paths so they can arbitrate: plain box scans, breadth-first closures and
Fraction eliminations over subsets of the chamber's constraints.
"""

import os
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from hypothesis import strategies as st

import rootmult
from rootmult import RootRecord, build, in_chamber, killing, pingpong, reflect

A2 = [[2, -1], [-1, 2]]
AFFINE_A1 = [[2, -2], [-2, 2]]
HYP3 = [[2, -3], [-3, 2]]
AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
HYP3D = [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]
RANK1 = [[2]]

ALL_SMALL = [A2, AFFINE_A1, HYP3, AFFINE_A2, HYP3D, RANK1]

# The command line in a subprocess, importing the package from where this
# test run imported it (pytest's pythonpath setting reaches only pytest).
ROOTMULT = [sys.executable, "-m", "rootmult"]
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(rootmult.__file__)),
    os.environ.get("PYTHONPATH"),
])))


def leq(a, b):
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def vsub(a, b):
    """Componentwise a - b."""
    return tuple(x - y for x, y in zip(a, b))


def mobius(n):
    """Moebius function of n >= 1 by trial division, the arbiter of the
    tests that check an inversion of c against the textbook formula."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def box_points(d, lim):
    """All non-negative integer vectors with coordinates <= lim."""
    return product(*(range(lim + 1),) * d)


def brute_chamber_points(cm, cap):
    """Chamber lattice points of height <= cap by scanning the full box."""
    pts = [
        v
        for v in box_points(cm.d, cap)
        if sum(v) <= cap and in_chamber(cm, v)
    ]
    return sorted(pts, key=lambda v: (sum(v), v))


def brute_hilbert_basis(cm, lim):
    """Irreducible chamber points found by bounded box search.

    lim must be generous enough to contain every generator; the callers
    use limits validated against the expected bases.
    """
    gens = []
    for beta in sorted(
        (v for v in box_points(cm.d, lim) if in_chamber(cm, v)),
        key=lambda v: (sum(v), v),
    ):
        if not any(leq(g, beta) and in_chamber(cm, vsub(beta, g)) for g in gens):
            gens.append(beta)
    return gens


def null_ray(rows, d):
    """The primitive integer vector spanning the null space of rows (d
    columns) when it is a line, else None; Gauss-Jordan over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(d):
        r = next((r for r in range(len(pivots), len(m)) if m[r][col]), None)
        if r is None:
            continue
        k = len(pivots)
        m[k], m[r] = m[r], m[k]
        m[k] = [x / m[k][col] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][col]:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[k])]
        pivots.append(col)
    if len(pivots) != d - 1:
        return None
    (free,) = set(range(d)) - set(pivots)
    x = [Fraction(0)] * d
    x[free] = Fraction(1)
    for k, col in enumerate(pivots):
        x[col] = -m[k][free]
    scale = lcm(*(v.denominator for v in x))
    ints = [int(v * scale) for v in x]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def brute_extreme_rays(cm):
    """Extreme rays of the chamber cone, sorted (height, lex), as the lines
    cut out by d - 1 of its 2d constraints (x_i = 0 or (S x)_j = 0) that
    in_chamber accepts in one direction."""
    d = cm.d
    constraints = [tuple(int(i == j) for j in range(d)) for i in range(d)] + list(cm.s)
    rays = set()
    for rows in combinations(constraints, d - 1):
        ray = null_ray(rows, d)
        if ray is None:
            continue
        for v in (ray, tuple(-x for x in ray)):
            if in_chamber(cm, v):
                rays.add(v)
    return sorted(rays, key=lambda v: (sum(v), v))


def brute_real_roots(cm, cap):
    """Reflection closure of the simple roots through positives of height <= cap,
    via a plain breadth-first search carrying no multiplicity data."""
    simples = {tuple(1 if j == i else 0 for j in range(cm.d)) for i in range(cm.d)}
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(cm.d):
            coef = sum(cm.a[i][j] * beta[j] for j in range(cm.d))
            image = beta[:i] + (beta[i] - coef,) + beta[i + 1 :]
            if image not in seen and min(image) >= 0 and sum(image) <= cap:
                seen.add(image)
                frontier.append(image)
    return seen


def record(table, beta, gc=1, mult=1):
    """Record the tuple beta in table with a new orbit record, g and the
    norm taken from beta, the way compute_all records a chamber point;
    returns beta's key."""
    key = table.codec.encode(beta)
    rec = RootRecord(gcd(*beta), gc, mult, killing(table.cm, beta, beta))
    table.record(key, sum(beta), rec)
    return key


def walk_from(table, seed):
    """pingpong from the tuple seed, given its key, height and pairing
    vector A seed as compute_all hands them down."""
    p = tuple(sum(map(mul, row, seed)) for row in table.cm.a)
    return pingpong(table, seed, table.key(seed), sum(seed), p)


def reflect_walk(cm, cap, seed, seen):
    """The images a breadth-first walk of raising moves from seed adds to
    seen, in visit order: every positive image of height above the walked
    vector's and <= cap not yet in seen, trying all d reflections of each
    walked vector through reflect."""
    walk = [seed]
    for beta in walk:
        for i in range(cm.d):
            image = reflect(cm, i, beta)
            if (image not in seen and min(image) >= 0
                    and sum(beta) < sum(image) <= cap):
                seen.add(image)
                walk.append(image)
    return tuple(walk[1:])


@st.composite
def symmetrizable_gcms(draw, max_rank=3):
    """GCMs of rank <= max_rank, a_ij = 2 s_ij / s_ii of a symmetric S with
    s_ii = 2 e_i and off-diagonal entries multiples of lcm(e_i, e_j).
    Unequal e_i give non-symmetric matrices, zero bonds decomposable ones."""
    d = draw(st.integers(1, max_rank))
    e = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    grid = [[2] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            s_ij = -draw(st.integers(0, 2)) * lcm(e[i], e[j])
            grid[i][j], grid[j][i] = s_ij // e[i], s_ij // e[j]
    return grid


def build_all(grids):
    return [build(g) for g in grids]
