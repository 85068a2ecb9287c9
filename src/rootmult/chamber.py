"""The fundamental imaginary chamber and its lattice points.

The chamber cone is {x >= 0 : (S x)_j <= 0 for all j}; it always sits in
the positive orthant, hence is pointed, so its lattice points form a
finitely generated semigroup with a unique minimal generating set (the
Hilbert basis, which rootmult.hilbert computes on request).

The engine needs only the chamber points up to a height cap, and
chamber_points enumerates them directly by a pruned coordinate DFS: where
the coordinates still free form a finite-type block, its inverse bounds
the next coordinate from above and the fixed rows bound it from below,
and the last coordinate, where every row has closed, is emitted as one
range.

All of it is integer arithmetic.  Determinants and adjugates (the
finite-type bounds of the DFS, and the unimodularity test of
rootmult.hilbert) come from a fraction-free Gauss-Jordan elimination whose
divisions are exact.
"""

from __future__ import annotations

from operator import mul

from .cartan import CartanMatrix, Vec


def _det_adjugate(rows) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate (None when det is 0) of a square integer
    matrix M by fraction-free (Bareiss) Gauss-Jordan elimination of [M | I].

    Step k, with pivot p_k = m[k][k], replaces every other row by
    (p_k row - row[k] row_k) // p_(k-1).  Each new entry is, up to sign, a
    minor of order k + 1 of the row-permuted [M | I] and, by Sylvester's
    identity, a multiple of p_(k-1), so the division is exact.  The last
    pivot is det and the right half adj, both up to the sign of the swaps.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        pk, p = m[k], m[k][k]
        m = [row if r == k else [(p * x - row[k] * y) // prev for x, y in zip(row, pk)]
             for r, row in enumerate(m)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def _finite_type_inverse(block) -> tuple[int, list[list[int]]] | None:
    """(det, adjugate) of a principal block of S when it is positive definite.

    S_FF has nonpositive off-diagonal entries, so it is positive definite
    exactly when it is invertible with an entrywise non-negative inverse
    (a nonsingular M-matrix): det > 0 and adjugate >= 0, both from the
    integer elimination of _det_adjugate, whose divisions are exact.
    """
    det, adj = _det_adjugate(block)
    if det <= 0 or any(x < 0 for row in adj for x in row):
        return None
    return det, adj


def chamber_points(cm: CartanMatrix, cap: int, box: Vec | None = None) -> list[Vec]:
    """All chamber lattice points of height <= cap, and <= box componentwise
    when box is given, sorted (height, lex); a box of the wrong length
    raises ValueError.

    A DFS fixes the coordinates in index order and keeps the partial row
    sums rows_j = sum of s_jl x_l over the fixed l.  Four necessary
    conditions prune it:

    (a) closing rows: once coordinate i fixes the last of row j's support,
        row j is final, so it bounds x_i from above (j = i) or below (j < i);
    (b) an open row with rows_j > 0 must reach <= 0 within the remaining
        height, through its most negative entry on a free coordinate;
    (c) when the free block S_FF (coordinates k and after, at depth k) is
        positive definite (finite type), its inverse is entrywise >= 0, so
        every free z satisfies z <= u = S_FF^-1 (-rows_F), and z_l <=
        floor(u_l) caps each free coordinate, x_k first.  No cap is
        negative: a free row j >= k sums s_jl x_l over fixed l < k only,
        all off the diagonal, so rows_j <= 0 and u >= 0;
    (d) under (c), the free coordinates after k add at least
        sum_(l > k) s_jl floor(u_l) to a fixed row j < k, since s_jl <= 0
        off the diagonal: x_k must cancel what is left, so
        x_k >= ceil((rows_j + that sum) / -s_jk) when s_jk < 0, and the
        node is dead when s_jk = 0 and what is left is positive.

    Every row has closed by the last coordinate, so (a) alone bounds it,
    and the whole range of it, less the zero vector, is emitted at once.
    The DFS emits in lex order; one stable sort by height finishes.  A
    chamber point has (beta, beta) = sum_j beta_j (beta, alpha_j) <= 0, so
    a positive definite S (the block of (c) at depth 0) has none: no other
    block is built.
    """
    d, s = cm.d, cm.s
    if box is not None and len(box) != d:
        raise ValueError("dimension mismatch")
    if _finite_type_inverse(s) is not None:
        return []
    last = [max(l for l in range(d) if s[j][l]) for j in range(d)]
    closing = [[j for j in range(k + 1) if last[j] == k] for k in range(d)]
    # falls[k][j]: min(0, s_jl for l >= k), the fastest row j can fall
    falls = [[min((0, *row[k:])) for row in s] for k in range(d)]
    # the (c) and (d) bounds at depth k < d - 1: free block inverses scaled
    # to integers, and each open fixed row's s_jk with its entries after k
    blocks = [None] + [_finite_type_inverse([row[k:] for row in s[k:]]) for k in range(1, d - 1)]
    fixed = [[(j, s[j][k], s[j][k + 1:]) for j in range(k) if last[j] >= k] for k in range(d)]
    out: list[Vec] = []
    x = [0] * d

    def rec(k: int, rows: list[int], rem: int) -> None:
        lo, hi = 0, rem if box is None else min(rem, box[k])
        for j in closing[k]:
            if j == k:
                hi = min(hi, -rows[k] // s[k][k])
            else:
                lo = max(lo, -(rows[j] // s[j][k]))
        if k == d - 1:
            head = tuple(x[:k])
            out.extend([(*head, v) for v in range(lo if rem < cap else max(lo, 1), hi + 1)])
            return
        if blocks[k] is not None:
            det, adj = blocks[k]
            need = [-r for r in rows[k:]]
            free = [sum(map(mul, arow, need)) // det for arow in adj]
            hi = min(hi, free[0])
            del free[0]
            for j, s_jk, tail in fixed[k]:
                rest = rows[j] + sum(map(mul, tail, free))
                if rest > 0:
                    if not s_jk:
                        return
                    lo = max(lo, -(rest // s_jk))
        fall = falls[k + 1]
        for v in range(lo, hi + 1):
            x[k] = v
            # S is symmetric: row k is the column that x_k multiplies
            nxt = [r + c * v for r, c in zip(rows, s[k])]
            left = rem - v
            if all(r + left * f <= 0 for r, f in zip(nxt, fall)):
                rec(k + 1, nxt, left)

    rec(0, [0] * d, cap)
    out.sort(key=sum)
    return out

