"""Named Cartan matrices for the command line and the test suite.

e10 and e11 are the simply-laced trees T(2,3,7) and T(2,3,8): three chains
of p-1, q-1 and r-1 nodes joined at a central node.  Building them from
the tree shape fixes the node ordering once and for all: the central node
is index 0, followed by the chains in (p, q, r) order, each walked
outward from the center.
"""

from __future__ import annotations


def tree_matrix(p: int, q: int, r: int) -> list[list[int]]:
    """Symmetric GCM of the tree T(p, q, r)."""
    if min(p, q, r) < 2:
        raise ValueError("need p, q, r >= 2")
    d = (p - 1) + (q - 1) + (r - 1) + 1
    a = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    idx = 1
    for length in (p - 1, q - 1, r - 1):
        prev = 0
        for _ in range(length):
            a[prev][idx] = a[idx][prev] = -1
            prev = idx
            idx += 1
    return a


def preset_matrix(name: str) -> list[list[int]]:
    """Resolve a preset name to its integer grid.

    Known names: a2, affine-a1, e10, e11 and the rank-2 family hyp-2-K
    (e.g. hyp-2-3 is [[2,-3],[-3,2]]), K >= 1 spelled in canonical ASCII
    digits: no sign, padding, whitespace or underscore.  Any other name
    raises ValueError.
    """
    if name == "a2":
        return [[2, -1], [-1, 2]]
    if name == "affine-a1":
        return [[2, -2], [-2, 2]]
    if name == "e10":
        return tree_matrix(2, 3, 7)
    if name == "e11":
        return tree_matrix(2, 3, 8)
    if name.startswith("hyp-2-"):
        suffix = name[len("hyp-2-") :]
        try:
            k = int(suffix)
        except ValueError:
            k = 0
        if k >= 1 and suffix == str(k):
            return [[2, -k], [-k, 2]]
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("a2", "affine-a1", "e10", "e11", "hyp-2-K")
