"""Fundamental reflections and the pingpong orbit closure.

pingpong walks a seed root's Weyl orbit, keeping every image that stays
positive with height at most the cap, and records each new member with the
seed's own RootRecord: its values are Weyl invariants, so the whole orbit
shares one record object.  The root table is the walk's one state object:
it supplies the Cartan matrix, the cap and the counter, and it is the
walk's only visited set, so no recorded vector is reflected twice.
reflect is pure; pingpong counts its reflections (one form-equivalent
evaluation each) in one bulk tick.
"""

from __future__ import annotations

from .cartan import CartanMatrix
from .lattice import Vec, height, is_positive
from .metrics import PHASE_PINGPONG


def reflect(cm: CartanMatrix, i: int, beta: Vec) -> Vec:
    """Image of beta under the i-th fundamental reflection (0-based index):

        s_i(beta) = beta - (sum_j a_ij beta_j) alpha_i

    A pure function.  The coefficient is a full row pairing, so a caller
    that counts forms counts each reflection as one evaluation.
    """
    if not 0 <= i < cm.d:
        raise IndexError(f"reflection index {i} out of range for rank {cm.d}")
    if len(beta) != cm.d:
        raise ValueError("dimension mismatch")
    coef = sum(aij * bj for aij, bj in zip(cm.a[i], beta) if bj)
    return beta[:i] + (beta[i] - coef,) + beta[i + 1 :]


def pingpong(table, seed: Vec) -> tuple[Vec, ...]:
    """Close the seed's Weyl orbit under the table's height cap.

    Walks breadth-first from the seed, forming all d reflections of each
    vector.  A positive image of height <= table.cap that the table does not
    hold is recorded with the seed's record object and walked in turn; one
    it holds must carry that record or equal values (E10's simple roots are
    recorded apart but share one orbit) and is not walked again.  Returns
    the new records in record order (() on a second run).  The seed must
    already be recorded.  Every walked vector is reflected d times, so the
    walk ticks d * len(walk) pingpong forms on table.counter once, at its end.
    """
    record = table.get(seed)
    if record is None:
        raise KeyError(f"pingpong seed {seed} is not recorded in the table")
    cm, cap = table.cm, table.cap

    walk = [seed]
    for beta in walk:  # grows while it is read
        for i in range(cm.d):
            gamma = reflect(cm, i, beta)
            if height(gamma) > cap or not is_positive(gamma):
                continue
            existing = table.get(gamma)
            if existing is None:
                table.record(gamma, record)
                walk.append(gamma)
            elif existing is not record and (existing.gc, existing.mult) != (
                record.gc, record.mult
            ):
                raise AssertionError(
                    f"orbit member {gamma} already recorded with conflicting values"
                )
    table.counter.tick(PHASE_PINGPONG, cm.d * len(walk))
    return tuple(walk[1:])
