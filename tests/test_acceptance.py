"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criterion 1's reference table misprints one digit of its h = 50 entry
(1116300 for 1166300).  The printed table is kept verbatim and the correction
is applied through REFERENCE_ERRATA, which the test checks against the
table's own other entries before using it.
"""

import json
import random
import subprocess
import time
from fractions import Fraction

import pytest

from rootmult import (
    KillingCounter,
    build,
    compare_tables,
    compute_all,
    hilbert_basis,
    k_ascent_measured,
    k_naive_closed,
    killing,
    naive_compute,
    preset_matrix,
    query_mult,
    reflect,
)
from rootmult.lattice import height
from rootmult.peterson import KIND_REAL
from helpers import A2, AFFINE_A1, AFFINE_A2, CLI_ENV, HYP3, ROOTMULT, brute_hilbert_basis


def verdict(n, label, ok):
    print(f"CRITERION {n} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


# -- 1. cost-model table ----------------------------------------------------

REFERENCE_K_NAIVE = {
    10: 2660,
    20: 34620,
    30: 161880,
    40: 490440,
    50: 1116300,   # misprint, see REFERENCE_ERRATA
    100: 17665100,
}

# The printed h = 50 entry differs from 1166300 in its third digit.  All six
# reference heights are even, so ceil(h^2/2) = h^2/2 and the d = 2 cost
# 4*(C(h+3,4) - h^2/2) is a quartic in h; the quartic through the other five
# printed entries gives 1166300 at h = 50, so the table contradicts itself
# whatever the program computes.  The test re-derives that value before
# asserting the closed form against it.
REFERENCE_ERRATA = {50: 1166300}


def interpolate(points, x):
    """Value at x of the lowest-degree polynomial through points, exactly."""
    total = Fraction(0)
    for xi, yi in points.items():
        term = Fraction(yi)
        for xj in points:
            if xj != xi:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize("h,expected", sorted(REFERENCE_K_NAIVE.items()))
def test_criterion_1_cost_model_table(h, expected):
    if h in REFERENCE_ERRATA:
        others = {k: v for k, v in REFERENCE_K_NAIVE.items() if k != h}
        assert interpolate(others, h) == REFERENCE_ERRATA[h], (
            f"erratum for h={h} disagrees with the quartic through the other "
            "printed entries"
        )
        expected = REFERENCE_ERRATA[h]
    got = k_naive_closed(2, h)
    ok = verdict(1, f"k_naive_closed(2,{h})", got == expected)
    assert ok, (
        f"k_naive_closed(2,{h}) = {got}, expected {expected}. "
        "The printed h=50 entry 1116300 is a one-digit misprint of 1166300 "
        "and is corrected through REFERENCE_ERRATA."
    )


# -- 2. oracle equivalence --------------------------------------------------

def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    for grid in (AFFINE_A1, HYP3, A2, AFFINE_A2):
        cm = build(grid)
        mismatches = compare_tables(compute_all(cm, 15), naive_compute(cm, 15))
        assert not mismatches, f"{grid}: {mismatches[:5]}"
    elapsed = time.monotonic() - start
    assert verdict(2, f"engine == oracle at cap 15 ({elapsed:.1f}s)", elapsed < 30)


# -- 3. affine closed form --------------------------------------------------

def test_criterion_3_affine_closed_form():
    table = compute_all(build(AFFINE_A1), 40)
    ok = all(query_mult(table, (n, n)) == 1 for n in range(1, 21))
    ok = ok and all(
        query_mult(table, (n + 1, n)) == 1 and query_mult(table, (n, n + 1)) == 1
        for n in range(0, 20)
    )
    # and nothing else is a root
    ok = ok and all(
        v[0] == v[1] or abs(v[0] - v[1]) == 1 for v in table.roots()
    )
    assert verdict(3, "affine A1 multiplicities at cap 40", ok)


# -- 4. hilbert bases -------------------------------------------------------

def test_criterion_4_hilbert_bases():
    cases = [
        (HYP3, [(1, 1), (2, 3), (3, 2)], 8),
        (AFFINE_A1, [(1, 1)], 8),
        (A2, [], 8),
    ]
    ok = True
    for grid, expected, lim in cases:
        cm = build(grid)
        got = list(hilbert_basis(cm))
        ok = ok and got == expected == brute_hilbert_basis(cm, lim)
    assert verdict(4, "hilbert bases cross-validated by box search", ok)


# -- 5. e10 scale -----------------------------------------------------------

def test_criterion_5_e10_cap_60():
    cm = build(preset_matrix("e10"))
    start = time.monotonic()
    table = compute_all(cm, 60, KillingCounter())
    elapsed = time.monotonic() - start
    assert elapsed < 900, f"e10 cap 60 took {elapsed:.0f}s"

    for v, rec in table.entries.items():
        if killing(cm, v, v) > 0:
            assert rec.kind == KIND_REAL and rec.mult == 1

    rng = random.Random(20260808)
    roots = table.roots()
    checked = 0
    while checked < 1000:
        beta = roots[rng.randrange(len(roots))]
        i = rng.randrange(cm.d)
        image = reflect(cm, i, beta)
        if any(x < 0 for x in image) or height(image) > 60:
            continue
        assert query_mult(table, image) == query_mult(table, beta)
        checked += 1

    # a known anchor: the affine e9 null-root chain keeps multiplicity 8
    delta = hilbert_basis(cm)[0]
    assert height(delta) == 30
    assert table.get(delta).mult == 8
    assert table.get(tuple(2 * x for x in delta)).mult == 8
    assert verdict(5, f"e10 cap 60 in {elapsed:.1f}s, {len(roots)} roots", True)


# -- 6. speedup inequality --------------------------------------------------

def test_criterion_6_speedup_inequality():
    cm = build(HYP3)
    measured = {}
    for h in range(10, 101, 10):
        counter = KillingCounter()
        compute_all(cm, h, counter)
        measured[h] = k_ascent_measured(counter)
        assert measured[h] < k_naive_closed(2, h), (h, measured[h])
    reference = 566541
    ok = reference / 4 <= measured[100] <= reference * 4
    assert verdict(
        6, f"K_ascent(100) = {measured[100]} vs reference {reference} (x4 band)", ok
    )


# -- 7. property suite ------------------------------------------------------

def test_criterion_7_property_suite():
    # scale invariance under S -> 2S
    cm = build(HYP3)
    t1, t2 = compute_all(cm, 15), compute_all(cm.scaled(2), 15)
    assert set(t1.entries) == set(t2.entries)
    assert all(
        (t1.get(v).c, t1.get(v).mult) == (t2.get(v).c, t2.get(v).mult)
        for v in t1.entries
    )

    # subroot / divisor identities
    from rootmult import coord_gcd, divisors, subroots

    for beta in [(2, 3), (4, 2), (3, 3)]:
        subs = list(subroots(beta))
        n = 1
        for b in beta:
            n *= b + 1
        assert len(subs) == n - 2
        assert all(height(g) < height(beta) for g in subs)
        assert [k for k, _ in divisors(beta)] == [
            k for k in range(1, coord_gcd(beta) + 1) if coord_gcd(beta) % k == 0
        ]

    # pingpong idempotence
    from rootmult import RootTable, pingpong

    table = RootTable(cm, 12)
    table.record((1, 0), table.make_record((1, 0), 1, 1))
    table.record((0, 1), table.make_record((0, 1), 1, 1))
    first = pingpong(table, (1, 0))
    size = len(table)
    assert first and len(table) == 2 + len(first)
    assert pingpong(table, (1, 0)) == ()
    assert len(table) == size

    # byte-identical repeated CLI runs
    args = [*ROOTMULT, "--preset", "hyp-2-3", "--height", "12", "--format",
            "csv", "--hilbert-basis", "--metrics", "--quiet"]
    out1 = subprocess.run(args, capture_output=True, env=CLI_ENV).stdout
    out2 = subprocess.run(args, capture_output=True, env=CLI_ENV).stdout
    assert out1 == out2 and out1
    report = json.loads(out1.splitlines()[-1])
    assert report["k_ascent"] == k_ascent_measured_from(report)

    assert verdict(7, "scale invariance, lattice identities, idempotence, "
                      "deterministic output", True)


def k_ascent_measured_from(report):
    return report["phases"].get("pingpong", 0) + report["phases"].get(
        "peterson-sum", 0
    )
