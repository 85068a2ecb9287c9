import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rootmult import coord_gcd, divisors, render, subroots
from rootmult.cartan import unit
from rootmult.peterson import KeyCodec
from helpers import leq, mobius, vsub


def test_coord_gcd():
    assert coord_gcd((2, 4)) == 2
    assert coord_gcd((1, 3)) == 1
    assert coord_gcd((0, 0)) == 0
    assert coord_gcd((6,)) == 6


def test_vector_helpers():
    assert unit(3, 1) == (0, 1, 0)
    assert render((1, 3)) == "(1,3)"
    assert render((7,)) == "(7)"


def test_subroots_examples():
    assert list(subroots((1, 1))) == [(0, 1), (1, 0)]
    assert list(subroots((2, 2))) == [
        (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
    ]
    assert list(subroots((1, 0))) == []


@pytest.mark.parametrize("beta", [(1, 1), (2, 2), (3, 1), (2, 0, 1), (1, 2, 3)])
def test_subroot_count_and_closure(beta):
    subs = list(subroots(beta))
    expected = 1
    for b in beta:
        expected *= b + 1
    assert len(subs) == expected - 2
    assert len(set(subs)) == len(subs)
    for gamma in subs:
        assert sum(gamma) < sum(beta)
        # closed under gamma -> beta - gamma
        assert vsub(beta, gamma) in set(subs)


def test_subroots_lexicographic():
    subs = list(subroots((2, 1)))
    assert subs == sorted(subs)


def test_divisors_examples():
    assert list(divisors((2, 2))) == [(1, (2, 2)), (2, (1, 1))]
    assert list(divisors((1, 3))) == [(1, (1, 3))]
    assert list(divisors((6, 4))) == [(1, (6, 4)), (2, (3, 2))]
    with pytest.raises(ValueError):
        list(divisors((0, 0)))


def test_divisors_gcd_consistency():
    rng = random.Random(5)
    for _ in range(30):
        beta = tuple(rng.randrange(0, 9) for _ in range(3))
        if not any(beta):
            continue
        g = coord_gcd(beta)
        pairs = list(divisors(beta))
        assert [n for n, _ in pairs] == [n for n in range(1, g + 1) if g % n == 0]
        for n, gamma in pairs:
            assert tuple(n * x for x in gamma) == beta


def test_mobius_small_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 36: 0}
    for n, mu in expected.items():
        assert mobius(n) == mu


def test_mobius_divisor_sum_identity():
    # sum_{n | g} mu(n) is 1 at g = 1 and 0 otherwise
    for g in range(1, 60):
        total = sum(mobius(n) for n in range(1, g + 1) if g % n == 0)
        assert total == (1 if g == 1 else 0)


# 127 and 128 straddle the eight- to nine-bit field switch; 2**63 and
# 2**100 need fields wider than 64 bits.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_key_codec_round_trips_and_keeps_order_and_differences(data):
    cap = data.draw(st.one_of(st.integers(1, 300),
                              st.sampled_from([127, 128, 32767, 32768, 2**63, 2**100])),
                    label="cap")
    d = data.draw(st.integers(1, 4), label="d")
    vectors = st.tuples(*[st.integers(0, cap)] * d)
    u, beta = data.draw(vectors, label="u"), data.draw(vectors, label="beta")
    low = tuple(map(min, u, beta))  # always <= beta
    codec = KeyCodec(d, cap)
    bits = codec.bits
    mask = (1 << bits) - 1
    guard = sum(1 << (s + bits - 1) for s in codec.shifts)  # each field's top bit
    assert bits == cap.bit_length() + 1 and codec.limit == 1 << (bits * d)
    ku, kb, kl = codec.encode(u), codec.encode(beta), codec.encode(low)
    assert (codec.decode(ku), codec.decode(kb), codec.decode(kl)) == (u, beta, low)
    assert tuple((kb >> s) & mask for s in codec.shifts) == beta
    assert (not (kb - ku) & guard) == leq(u, beta)
    assert not (kb - kl) & guard
    assert kb - kl == codec.encode(vsub(beta, low))
    assert (ku < kb) == (u < beta) and (ku == kb) == (u == beta)
