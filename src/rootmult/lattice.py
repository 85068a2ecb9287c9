"""Root-lattice vectors.

A lattice vector is a plain tuple of ints giving its coefficients in the
simple-root basis.  The helpers here are the pure functions on such tuples
that the engine, the Hilbert-basis path and the naive oracle share.  The
oracle's own lattice helpers (coord_gcd, subroots, divisors) are in
rootmult.oracle, and the step from c to a multiplicity is in neither
place: the engine and the oracle each take it by their own code.
"""

from __future__ import annotations

Vec = tuple[int, ...]


def height(beta: Vec) -> int:
    """Sum of the coordinates of a lattice vector."""
    return sum(beta)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def unit(d: int, i: int) -> Vec:
    """The i-th simple root as a standard basis vector (0-based index)."""
    return tuple(1 if j == i else 0 for j in range(d))


def render(beta: Vec) -> str:
    """Canonical text form, e.g. (1,3); used in all output files."""
    return "(" + ",".join(str(b) for b in beta) + ")"
