"""Root-lattice vectors and the combinatorial predicates the algorithms iterate over.

A lattice vector is a plain tuple of ints giving its coefficients in the
simple-root basis.  Everything here is a pure function, shared by the
graded-ascent engine and by the naive oracle, except KeyCodec, the packed
integer form in which the engine keys the vectors of a bounded box.
"""

from __future__ import annotations

import math
import struct
from itertools import product
from typing import Iterator

Vec = tuple[int, ...]

MAX_CAP = (1 << 63) - 1  # the widest field KeyCodec packs is 8 bytes


class KeyCodec:
    """One non-negative int per vector of the box [0, cap]^d.

    Each coordinate gets a field of w bytes, w the smallest power of two
    with cap < 2^(8w - 1), so the top bit of every field (its guard bit)
    is clear in every key.  Coordinate 0 takes the most significant field,
    so int order is lex order.  With G the mask of the guard bits:

    - u <= beta componentwise iff (key(beta) - key(u)) & G == 0: if it
      holds, no field borrows and each field of the difference is
      beta_i - u_i, in [0, 2^(8w - 1)); if not, the lowest field with
      u_i > beta_i takes no borrow from below and wraps to at least
      2^(8w - 1), so its guard bit is set;
    - then key(beta) - key(u) is key(beta - u);
    - key(n gamma) = n key(gamma), so exact division by n divides gamma;
    - s_i changes only coordinate i, so an image is key - (p << shifts[i]);
    - the height is the top field of key * ones, exact whenever the
      coordinates sum below 2^(8w) (no field of the product carries), which
      holds for every vector of the box with height <= cap.

    encode does not check its input: callers ensure 0 <= v_i <= cap (the
    root table's key() does).  decode is one struct unpack.
    """

    def __init__(self, d: int, cap: int):
        if cap > MAX_CAP:
            raise ValueError(f"cap {cap} is above {MAX_CAP}")
        w = 1
        while cap >> (8 * w - 1):
            w *= 2
        bits = 8 * w
        self.size = w * d
        self.top_shift = bits * (d - 1)
        self.shifts = tuple(range(self.top_shift, -1, -bits))  # coordinate i's field
        self.mask = (1 << bits) - 1
        self.limit = 1 << (bits * d)
        self.ones = (self.limit - 1) // self.mask  # 1 in every field
        self.guard = self.ones << (bits - 1)  # the top bit of every field
        self._struct = struct.Struct(f">{d}{'BHIQ'[w.bit_length() - 1]}")

    def encode(self, v: Vec) -> int:
        return int.from_bytes(self._struct.pack(*v), "big")

    def decode(self, key: int) -> Vec:
        return self._struct.unpack(key.to_bytes(self.size, "big"))

    def height(self, key: int) -> int:
        return (key * self.ones >> self.top_shift) & self.mask


def height(beta: Vec) -> int:
    """Sum of the coordinates of a lattice vector."""
    return sum(beta)


def is_positive(beta: Vec) -> bool:
    """True iff beta is nonzero with all coordinates >= 0."""
    return any(beta) and all(b >= 0 for b in beta)


def coord_gcd(beta: Vec) -> int:
    """gcd of the coordinates; gcd of the zero vector is 0 by convention."""
    return math.gcd(*beta)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(n: int, a: Vec) -> Vec:
    return tuple(n * x for x in a)


def vdiv(a: Vec, n: int) -> Vec:
    """Exact division of every coordinate by n."""
    q = tuple(x // n for x in a)
    if any(x % n for x in a):
        raise ValueError(f"{a} is not divisible by {n}")
    return q


def leq(a: Vec, b: Vec) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


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


def mobius(n: int) -> int:
    """Moebius function by trial division (n stays small: n <= height cap)."""
    if n < 1:
        raise ValueError("mobius undefined for n < 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result
