"""Root-lattice vectors and the combinatorial predicates the algorithms iterate over.

A lattice vector is a plain tuple of ints giving its coefficients in the
simple-root basis.  Everything here is a pure function on such tuples,
used by the engine, the chamber enumeration or the naive oracle; the
step from c to a multiplicity is not here, since the engine and the
oracle each take it by their own code.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

Vec = tuple[int, ...]


def height(beta: Vec) -> int:
    """Sum of the coordinates of a lattice vector."""
    return sum(beta)


def coord_gcd(beta: Vec) -> int:
    """gcd of the coordinates; gcd of the zero vector is 0 by convention."""
    return math.gcd(*beta)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def unit(d: int, i: int) -> Vec:
    """The i-th simple root as a standard basis vector (0-based index)."""
    return tuple(1 if j == i else 0 for j in range(d))


def render(beta: Vec) -> str:
    """Canonical text form, e.g. (1,3); used in all output files."""
    return "(" + ",".join(str(b) for b in beta) + ")"


def subroots(beta: Vec) -> Iterator[Vec]:
    """Yield every gamma with 0 <= gamma <= beta componentwise, excluding 0 and
    beta itself, in lexicographic order.

    The count is prod(beta_i + 1) - 2.  Lazy so the Peterson sum is
    deterministic and pairs (gamma, beta - gamma) can be visited once.
    """
    zero = (0,) * len(beta)
    for gamma in product(*(range(b + 1) for b in beta)):
        if gamma != zero and gamma != beta:
            yield gamma


def divisors(beta: Vec) -> Iterator[tuple[int, Vec]]:
    """Yield all pairs (n, gamma) with n >= 1 and n * gamma == beta.

    Exactly the n dividing coord_gcd(beta) occur; (1, beta) is always first.
    """
    if not any(beta):
        raise ValueError("zero vector has no divisor decomposition")
    g = coord_gcd(beta)
    for n in range(1, g + 1):
        if g % n == 0:
            yield n, tuple(b // n for b in beta)

