"""Generalized Cartan matrices, their symmetrization and the invariant form.

A symmetrizable GCM A decomposes as A = D B with D a positive diagonal
matrix.  We store the integer matrix S = diag(d_i) * A instead of the
rational B: S agrees with the invariant form up to one global positive
scale, and every quantity computed downstream (c-values, multiplicities,
chamber membership) is invariant under that scale.  The chamber's algebra
on blocks of S stays in integers too: a fraction-free elimination whose
intermediate entries are minors, so each of its divisions is exact.  The
symmetrizer is canonicalized to coprime positive integers so output is
reproducible.  killing (the form) and reflect (a fundamental reflection)
are pure functions on tuples, which the tests use as arbiters for the
engine's packed-key arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .lattice import Vec


class NotGCM(ValueError):
    """The grid violates a generalized-Cartan-matrix axiom."""


class NotSymmetrizable(ValueError):
    """The ratio constraints d_i a_ij = d_j a_ji are inconsistent."""


class CartanMatrix(NamedTuple):
    d: int
    a: tuple[tuple[int, ...], ...]
    sym: tuple[int, ...]
    s: tuple[tuple[int, ...], ...]

    def scaled(self, factor: int) -> "CartanMatrix":
        """Same matrix with the form replaced by factor * S.

        Deliberately skips the coprime canonicalization; exists so the
        scale-invariance of c-values and multiplicities can be asserted.
        """
        if factor < 1:
            raise ValueError("scale factor must be a positive integer")
        return self._replace(
            sym=tuple(factor * x for x in self.sym),
            s=tuple(tuple(factor * x for x in row) for row in self.s),
        )


def build(entries) -> CartanMatrix:
    """Validate a square integer grid as a symmetrizable GCM.

    Returns the matrix together with its minimal integer symmetrizer,
    found by propagating d_j = d_i * a_ij / a_ji over each Dynkin-graph
    component and clearing denominators.

    Raises NotGCM on an axiom violation, NotSymmetrizable if the ratio
    constraints conflict around a cycle, ValueError on a malformed grid.
    """
    rows = [list(r) for r in entries]
    d = len(rows)
    if d < 1:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != d:
            raise ValueError("matrix is not square")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"non-integer entry {x!r}")
    a = tuple(tuple(r) for r in rows)

    for i in range(d):
        if a[i][i] != 2:
            raise NotGCM(f"diagonal entry a[{i}][{i}] = {a[i][i]} != 2")
        for j in range(d):
            if i == j:
                continue
            if a[i][j] > 0:
                raise NotGCM(f"positive off-diagonal entry a[{i}][{j}] = {a[i][j]}")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise NotGCM(f"zero pattern asymmetric at ({i},{j})")

    # Propagate symmetrizer ratios over each connected component.
    ratios: list[Fraction | None] = [None] * d
    for start in range(d):
        if ratios[start] is not None:
            continue
        component = [start]
        ratios[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(d):
                if j == i or a[i][j] == 0:
                    continue
                want = ratios[i] * Fraction(a[i][j], a[j][i])
                if ratios[j] is None:
                    ratios[j] = want
                    component.append(j)
                    queue.append(j)
                elif ratios[j] != want:
                    raise NotSymmetrizable(
                        f"inconsistent symmetrizer ratio around a cycle at ({i},{j})"
                    )
        # Smallest positive integers realizing the component's ratios.
        denom_lcm = lcm(*(r.denominator for r in (ratios[k] for k in component)))
        ints = [ratios[k] * denom_lcm for k in component]
        g = gcd(*(x.numerator for x in ints))
        for k, val in zip(component, ints):
            ratios[k] = Fraction(val, g)

    sym = tuple(int(r) for r in ratios)
    s = tuple(tuple(sym[i] * a[i][j] for j in range(d)) for i in range(d))
    for i in range(d):
        for j in range(d):
            if s[i][j] != s[j][i]:
                raise NotSymmetrizable(f"symmetrization failed at ({i},{j})")
    return CartanMatrix(d=d, a=a, sym=sym, s=s)


def automorphisms(cm: CartanMatrix) -> tuple[tuple[int, ...], ...]:
    """A strong generating set of the diagram automorphisms of cm.

    A diagram automorphism is a node permutation sigma with
    s[sigma i][sigma j] == s[i][j]; it preserves the diagonal 2 d_i, hence A
    as well.  For each node k and each node j > k that some automorphism
    fixing 0..k-1 sends k to, one such automorphism is returned, as the
    tuple (sigma 0, ..., sigma (d-1)): at most d(d-1)/2 permutations, and
    the empty tuple when the group is trivial.  Together they generate the
    whole group, which is never enumerated.

    Each is found by backtracking on the nodes in order, where node i may
    go to j only if their diagonal entries and sorted rows agree and
    s[j][sigma k] == s[i][k] for every node k already assigned.
    """
    s, d = cm.s, cm.d
    shape = [(s[i][i], sorted(s[i])) for i in range(d)]

    def fits(sigma: list[int], j: int) -> bool:
        """Whether sigma, the images of nodes 0..i-1, extends by i -> j."""
        i = len(sigma)
        return (shape[j] == shape[i] and j not in sigma
                and all(s[j][sk] == s[i][k] for k, sk in enumerate(sigma)))

    def complete(sigma: list[int]) -> tuple[int, ...] | None:
        if len(sigma) == d:
            return tuple(sigma)
        for j in range(d):
            if fits(sigma, j):
                found = complete(sigma + [j])
                if found is not None:
                    return found
        return None

    gens = []
    for k in range(d):
        fixed = list(range(k))
        for j in range(k + 1, d):
            sigma = complete(fixed + [j]) if fits(fixed, j) else None
            if sigma is not None:
                gens.append(sigma)
    return tuple(gens)


def killing(cm: CartanMatrix, beta: Vec, gamma: Vec) -> int:
    """The invariant bilinear form beta^T * S * gamma.

    A pure integer function: callers that spend forms count them in bulk,
    once per phase, on their own KillingCounter.
    """
    if len(beta) != cm.d or len(gamma) != cm.d:
        raise ValueError("dimension mismatch")
    return sum(map(mul, beta, [sum(map(mul, row, gamma)) for row in cm.s]))


def reflect(cm: CartanMatrix, i: int, beta: Vec) -> Vec:
    """Image of beta under the i-th fundamental reflection (0-based index):

        s_i(beta) = beta - (sum_j a_ij beta_j) alpha_i

    A pure function and the public single-step API; the tests check
    pingpong's walk against a plain walk of it.
    """
    if not 0 <= i < cm.d:
        raise IndexError(f"reflection index {i} out of range for rank {cm.d}")
    if len(beta) != cm.d:
        raise ValueError("dimension mismatch")
    coef = sum(aij * bj for aij, bj in zip(cm.a[i], beta) if bj)
    return beta[:i] + (beta[i] - coef,) + beta[i + 1 :]


def rho_pair(cm: CartanMatrix, beta: Vec) -> int:
    """2 * (rho, beta) where rho is the Weyl vector: sum_i beta_i * S_ii,
    and S_ii = 2 sym_i since a_ii = 2.

    Induced by 2 (rho, alpha_i) = (alpha_i, alpha_i).  A linear functional,
    so it never counts as a form evaluation.
    """
    if len(beta) != cm.d:
        raise ValueError("dimension mismatch")
    return 2 * sum(map(mul, beta, cm.sym))
