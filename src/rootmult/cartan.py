"""Generalized Cartan matrices, their symmetrization and the invariant form.

A symmetrizable GCM A decomposes as A = D B with D a positive diagonal
matrix.  We store the integer matrix S = diag(d_i) * A instead of the
rational B: S agrees with the invariant form up to one global positive
scale, and every quantity computed downstream (c-values, multiplicities,
chamber membership) is invariant under that scale.  The chamber's algebra
on blocks of S stays in integers too: a fraction-free elimination whose
intermediate entries are minors, so each of its divisions is exact.  The
symmetrizer is propagated in integers along each component of the Dynkin
graph and canonicalized to coprime positive integers so output is
reproducible.  The form and the fundamental reflections as pure functions
on tuples (killing, reflect) are in rootmult.oracle, whose arbiters they
are: the engine does its own arithmetic on packed keys.

A root-lattice vector is a plain tuple of ints, its coefficients in the
simple-root basis (Vec).  The two helpers on such tuples that the engine,
the Hilbert-basis path and the oracle share live here too: unit, a simple
root, and render, the text form of every output file.  A vector's height
is the sum of its coordinates, and every caller writes it as sum.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple

Vec = tuple[int, ...]


def unit(d: int, i: int) -> Vec:
    """The i-th simple root as a standard basis vector (0-based index)."""
    return tuple(1 if j == i else 0 for j in range(d))


def render(beta: Vec) -> str:
    """Canonical text form, e.g. (1,3); used in all output files."""
    return "(" + ",".join(str(b) for b in beta) + ")"


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
    found by propagating d_j = d_i * a_ij / a_ji in integers over each
    Dynkin-graph component from d = 1 at its first node: a quotient that is
    not whole scales every value of the component assigned so far, and the
    component is divided by its gcd at the end.  Every edge that reaches
    an assigned node is checked there, so S = diag(d_i) * A is symmetric.

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

    # Propagate d_j = d_i a_ij / a_ji in integers over each component: a
    # quotient that is not whole scales the values assigned so far.
    sym = [0] * d
    for start in range(d):
        if sym[start]:
            continue
        component, sym[start] = [start], 1
        for i in component:  # grows while it is read
            for j in range(d):
                if j == i or a[i][j] == 0:
                    continue
                num, den = -sym[i] * a[i][j], -a[j][i]  # a_ij, a_ji < 0
                if not sym[j]:
                    scale = den // gcd(num, den)  # 1 when den divides num
                    for k in component:
                        sym[k] *= scale
                    sym[j] = num * scale // den
                    component.append(j)
                elif sym[j] * den != num:
                    raise NotSymmetrizable(
                        f"inconsistent symmetrizer ratio around a cycle at ({i},{j})"
                    )
        g = gcd(*(sym[k] for k in component))
        for k in component:
            sym[k] //= g

    sym = tuple(sym)
    s = tuple(tuple(sym[i] * a[i][j] for j in range(d)) for i in range(d))
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


def rho_pair(cm: CartanMatrix, beta: Vec) -> int:
    """2 * (rho, beta) where rho is the Weyl vector: sum_i beta_i * S_ii,
    and S_ii = 2 sym_i since a_ii = 2.

    Induced by 2 (rho, alpha_i) = (alpha_i, alpha_i).  A linear functional,
    so it never counts as a form evaluation.
    """
    if len(beta) != cm.d:
        raise ValueError("dimension mismatch")
    return 2 * sum(map(mul, beta, cm.sym))
