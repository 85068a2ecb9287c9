"""Shared fixtures-in-spirit: test matrices and independent brute-force oracles.

The oracles here deliberately avoid the package's orbit/chamber/engine code
paths so they can arbitrate: plain box scans and breadth-first closures.
"""

import os
import sys
from itertools import product
from math import gcd, lcm

from hypothesis import strategies as st

import rootmult
from rootmult import RootRecord, build, in_chamber, killing, pingpong, reflect
from rootmult.lattice import height, leq, vsub

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
    return sorted(pts, key=lambda v: (height(v), v))


def brute_hilbert_basis(cm, lim):
    """Irreducible chamber points found by bounded box search.

    lim must be generous enough to contain every generator; the callers
    use limits validated against the expected bases.
    """
    gens = []
    for beta in sorted(
        (v for v in box_points(cm.d, lim) if in_chamber(cm, v)),
        key=lambda v: (height(v), v),
    ):
        if not any(leq(g, beta) and in_chamber(cm, vsub(beta, g)) for g in gens):
            gens.append(beta)
    return gens


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
            if image not in seen and min(image) >= 0 and height(image) <= cap:
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
    """pingpong from the tuple seed, given its key and height as
    compute_all hands them down."""
    return pingpong(table, seed, table.key(seed), sum(seed))


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
                    and height(beta) < height(image) <= cap):
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
