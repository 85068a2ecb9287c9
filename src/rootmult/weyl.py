"""Fundamental reflections and the pingpong orbit closure.

pingpong walks a seed root's Weyl orbit upwards: from the seed, the lowest
member of its orbit, it takes only the reflections that raise the height,
keeps every image of height at most the cap, and records each new member
with the seed's own RootRecord: its values are Weyl invariants, so the
whole orbit shares one record object.  The root table is the walk's one
state object: it supplies the Cartan matrix, the cap, the counter and the
KeyCodec, and it is the walk's only visited set, so no recorded vector is
reflected twice.

Raising moves alone reach the whole orbit below the cap.  A positive root
beta that is not a simple root and not in the fundamental chamber has an i
with p_i = <beta, alpha_i^vee> > 0 whose image s_i(beta) is a positive root
of smaller height (Kac, Infinite-dimensional Lie algebras, Ch. 5), so
every positive root of height <= cap comes down, through positive roots of
falling height, to a simple root or to the chamber point of its orbit.
Read upwards, that chain is a walk of raising moves, none above beta's
height.  compute_all seeds exactly those lowest members and each walk
expands every vector it records, so a lowering move could only find a
vector that is already recorded, and the walk does not try one.

The walk runs on keys (one int per vector, coordinate i in the field at
codec.shifts[i]) and carries, for each vector it has yet to expand, its
height and its pairing vector p = A beta.  The reflection s_i changes only
coordinate i, by -p_i, so it raises the height exactly when p_i < 0; the
image is then positive, its key is key - (p_i << shifts[i]), its height
h - p_i, and its pairing vector p - p_i * (column i of A), a scaled column
built once per (i, p_i) in a walk.  No tuple of coordinates is built per
image; the table records each new key under its carried height
(RootTable.record_key), and the walk returns keys.  reflect is the pure
single-step API on tuples and the tests' arbiter for the walk; pingpong
does not call it.  The counter charges the cost model's d reflections (one
form-equivalent evaluation each) per walked vector, in one bulk tick per
walk.
"""

from __future__ import annotations

from collections import deque
from operator import mul, sub

from .cartan import CartanMatrix
from .lattice import Vec
from .metrics import PHASE_PINGPONG


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


def pingpong(table, seed: Vec) -> tuple[int, ...]:
    """Close the seed's Weyl orbit under the table's height cap, by ascent.

    The seed must be recorded and must be the lowest member of its orbit,
    as compute_all's seeds (simple roots and chamber points) are: a seed
    with some p_i > 0 and seed_i >= p_i, whose image s_i(seed) is positive
    and lower, raises ValueError, since the walk would miss what lies above
    that image.

    Walks breadth-first from the seed, on keys (see KeyCodec).  A walked
    vector beta of height h is expanded with its pairing vector p, computed
    for the seed and carried with h for every other vector.  s_i(beta)
    replaces beta_i by beta_i - p_i; only the raising moves, p_i < 0, are
    taken, and of those only the ones with h - p_i <= cap.  Such an image
    is positive, and its key is key - (p_i << shift_i).  One that the table
    does not hold is recorded with the seed's record object and walked in
    turn with height h - p_i and pairing vector p - p_i * (column i of A);
    one it holds must carry that record or equal values (E10's simple roots
    are recorded apart but share one orbit) and is not walked again.
    Returns the keys of the new records in record order (() on a second
    run); table.codec.decode turns one into its vector.

    The cost model charges d reflections per walked vector, so the walk
    ticks d * len(walk) pingpong forms on table.counter once, at its end.
    """
    record = table.get(seed)
    if record is None:
        raise KeyError(f"pingpong seed {seed} is not recorded in the table")
    cm, cap, codec = table.cm, table.cap, table.codec
    p = tuple(sum(map(mul, row, seed)) for row in cm.a)
    for i, (p_i, b_i) in enumerate(zip(p, seed)):
        if 0 < p_i <= b_i:
            raise ValueError(
                f"pingpong seed {seed} is not the lowest member of its orbit: "
                f"reflection {i} lowers it"
            )
    get, record_key = table.records.get, table.record_key
    shifts = codec.shifts
    columns = tuple(zip(*cm.a))
    scaled = {}  # (i, p_i) -> p_i * (column i of A), built on first use

    walk = [codec.encode(seed)]
    # Height and pairing vector of the walked vectors not yet expanded, in
    # walk order: each is dropped once its vector is expanded, so only the
    # frontier's are held, and as tuples, which are smaller than lists.
    frontier = deque([(sum(seed), p)])
    for key in walk:  # grows while it is read
        h, p = frontier.popleft()
        for i, p_i in enumerate(p):
            if p_i >= 0 or h - p_i > cap:
                continue
            image = key - (p_i << shifts[i])
            existing = get(image)
            if existing is None:
                record_key(image, h - p_i, record)
                walk.append(image)
                col = scaled.get((i, p_i))
                if col is None:
                    col = scaled[i, p_i] = tuple([p_i * a for a in columns[i]])
                frontier.append((h - p_i, tuple(map(sub, p, col))))
            elif existing is not record and (existing.gc, existing.mult) != (
                record.gc, record.mult
            ):
                raise AssertionError(
                    f"orbit member {codec.decode(image)} already recorded "
                    f"with conflicting values"
                )
    table.counter.tick(PHASE_PINGPONG, cm.d * len(walk))
    return tuple(walk[1:])
