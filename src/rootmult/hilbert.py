"""The Hilbert basis of the fundamental imaginary chamber, on request.

The chamber cone {x >= 0 : (S x)_j <= 0 for all j} sits in the positive
orthant, hence is pointed, so its lattice points form a finitely generated
semigroup with a unique minimal generating set, the Hilbert basis.  The
engine never needs it: it walks the chamber points that
chamber.chamber_points enumerates.  --hilbert-basis and the library ask
for the basis, and this module is loaded then:

1. extreme rays of the cone by the double-description method, as
   primitive integer vectors, each carrying its tight set (the constraints
   it meets with equality) from one facet to the next;
2. shortcut: a single ray generates alone, and a simplicial cone whose
   ray matrix has determinant +-1 is generated freely by its rays (this
   covers the finite, affine and classic hyperbolic cases);
3. otherwise a bounded graded completion: every irreducible lattice point
   lies componentwise under the sum of the extreme rays, so enumerate the
   chamber points of that box in (height, lex) order and keep each point
   beta such that no beta - g, g an earlier generator, is a point already
   enumerated.

A generator bound of height above 10 * d * max |S_ij| raises CapExceeded
instead of starting a completion that may not finish.  All of it is
integer arithmetic; the unimodularity test takes its determinant from
chamber's fraction-free elimination.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

from .cartan import CartanMatrix, Vec, unit
from .chamber import _det_adjugate, chamber_points


class CapExceeded(RuntimeError):
    """The Hilbert-basis completion hit its safety bound before finishing."""


def in_chamber(cm: CartanMatrix, beta: Vec) -> bool:
    """True iff beta is a nonzero non-negative vector with (S beta)_j <= 0 for
    every j (equivalently (beta, alpha_j) <= 0, the symmetrizer being positive)."""
    if len(beta) != cm.d:
        raise ValueError("dimension mismatch")
    if not any(beta) or any(b < 0 for b in beta):
        return False
    for row in cm.s:
        if sum(r * b for r, b in zip(row, beta) if b) > 0:
            return False
    return True


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v)


def extreme_rays(cm: CartanMatrix) -> list[Vec]:
    """Extreme rays of the chamber cone as primitive integer vectors, sorted
    (height, lex).

    Incremental double description seeded with the positive orthant, adding
    the facets -(S x)_j >= 0 one at a time.  Each ray carries its tight set,
    the constraints it meets with equality: x_i >= 0 is constraint i and the
    facet of row j is d + j.  A kept ray with value 0 on the new facet gains
    it; the ray spanned by a pair of values vp > 0 > vn is a positive
    combination of the two, both >= 0 on every earlier constraint, so it is
    tight exactly where both are, and on the new facet.  Two rays are
    adjacent by the standard combinatorial test: no third ray's tight set
    contains the intersection of theirs.
    """
    d = cm.d
    tight = {unit(d, i): frozenset(range(d)) - {i} for i in range(d)}
    for facet, srow in enumerate(cm.s, d):
        vals = {ray: -sum(map(mul, srow, ray)) for ray in tight}
        kept = {ray: z | {facet} if not vals[ray] else z
                for ray, z in tight.items() if vals[ray] >= 0}
        for p, vp in vals.items():
            if vp <= 0:
                continue
            for n, vn in vals.items():
                if vn >= 0:
                    continue
                common = tight[p] & tight[n]
                if any(common <= z for r, z in tight.items() if r != p and r != n):
                    continue
                ray = _primitive(tuple(vp * rn - vn * rp for rp, rn in zip(p, n)))
                kept[ray] = common | {facet}
        tight = kept

    if not all(in_chamber(cm, ray) for ray in tight):
        raise AssertionError("double description left a ray outside the chamber")
    return sorted(tight, key=lambda r: (sum(r), r))


def hilbert_basis(cm: CartanMatrix) -> tuple[Vec, ...]:
    """Minimal generating set of the chamber semigroup, sorted (height, lex),
    by steps 2 and 3 of the module docstring.

    max_height = 10 * d * max |S_ij| bounds the height of any generator the
    completion is willing to certify; CapExceeded signals that the basis
    could not be completed within the bound.
    """
    max_height = 10 * cm.d * max(abs(x) for row in cm.s for x in row)

    rays = extreme_rays(cm)
    if len(rays) <= 1:
        # An empty chamber has no generators; a primitive ray generates alone.
        return tuple(rays)
    if len(rays) == cm.d and abs(_det_adjugate(rays)[0]) == 1:
        # Unimodular simplicial cone: the semigroup is free on the rays.
        return tuple(rays)

    bound = tuple(map(sum, zip(*rays)))
    top = sum(bound)
    if top > max_height:
        raise CapExceeded(
            f"certified generator height bound {top} exceeds max_height {max_height}"
        )

    # beta - g is <= bound and earlier in (height, lex) than beta, so it is
    # in the chamber exactly when it is a point already enumerated; when g
    # is not <= beta it has a negative coordinate, and no point has one.
    generators: list[Vec] = []
    seen: set[Vec] = set()
    for beta in chamber_points(cm, top, bound):
        if not any(tuple(map(sub, beta, g)) in seen for g in generators):
            generators.append(beta)
        seen.add(beta)
    return tuple(generators)
