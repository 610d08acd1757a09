import dataclasses
import math
import random
from fractions import Fraction

import pytest
from sympy import isprime
from hypothesis import given, settings, strategies as st

from rootcover.errors import BadInput, CertificationError
from rootcover.hj import (
    _chain,
    chain_record,
    dual_record,
    hj_dual,
    hj_evaluate,
    hj_expand,
    hj_length,
)


def chain_record_steps(n, q):
    """chain_record with one division step per coefficient (the test oracle).

    Each step k_a = ceil(m_{a-1}/m_a) moves both sequences by one, and the
    steps with k_a != 2 add their terms; see the chain_record docstring.
    """
    s = s0 = s1 = s2 = excess = 0
    m_prev, m_cur, n_prev, n_cur = n, q, 0, 1  # m_{a-1}, m_a, n_{a-1}, n_a
    while m_cur:
        k = -((-m_prev) // m_cur)
        m_next, n_next = k * m_cur - m_prev, k * n_cur - n_prev
        s += 1
        if k != 2:
            e = (m_cur + n_cur - n) * (2 - k)
            s0 += e
            s1 += e * (m_next - m_prev)
            s2 += e * (n_next - n_prev)
            excess += k - 2
        m_prev, m_cur, n_prev, n_cur = m_cur, m_next, n_cur, n_next
    ends = q + n_prev  # q + q', since the loop ends on n_s = q'
    return (
        s,
        n * (excess - s) + ends,
        s0,
        s1 + (n - q) * s0,
        s2 - s0,
        ends + 2 - 2 * n + n * excess,
    )


KERNEL_MODULI = (3, 5, 7, 17, 101, 1009, 4001)


def test_expand_examples():
    e = hj_expand(7, 5)
    assert e.ks == (2, 2, 3)
    assert e.s == 3
    assert e.m_seq == (7, 5, 3, 1, 0)
    assert e.n_seq == (0, 1, 2, 3, 7)
    assert e.q_inv == 3
    assert e.excess == 1

    e = hj_expand(5, 1)
    assert e.ks == (5,) and e.s == 1 and e.q_inv == 1 and e.excess == 3

    e = hj_expand(5, 4)
    assert e.ks == (2, 2, 2, 2) and e.s == 4 and e.excess == 0


def test_expand_bad_input():
    for n, q in [(7, 0), (7, 7), (7, 9), (1, 1), (10, 4)]:
        with pytest.raises(BadInput):
            hj_expand(n, q)
        with pytest.raises(BadInput):
            chain_record(n, q)


def test_evaluate_examples():
    assert hj_evaluate([2, 2, 3]) == Fraction(7, 5)
    assert hj_evaluate([5]) == 5
    for k in range(1, 9):
        assert hj_evaluate([2] * k) == Fraction(k + 1, k)
    with pytest.raises(BadInput):
        hj_evaluate([])
    with pytest.raises(BadInput):
        hj_evaluate([2, 1, 3])


def test_dual_examples():
    assert hj_dual(hj_expand(7, 5)).ks == (3, 2, 2)
    d = hj_dual(hj_expand(5, 1))
    assert d.ks == (5,)  # 1' = 1, self-dual
    e = hj_expand(17, 5)
    assert hj_dual(hj_dual(e)) == e
    # a record whose coefficients do not match its sequences fails certification
    with pytest.raises(CertificationError):
        hj_dual(dataclasses.replace(hj_expand(7, 5), ks=(3, 2, 2)))


def _check_structure(n, q, prime=None):
    e = hj_expand(n, q)
    s = e.s
    m, nn = e.m_seq, e.n_seq
    assert m[0] == n and m[1] == q and m[s] == 1 and m[s + 1] == 0
    assert nn[0] == 0 and nn[1] == 1 and nn[s + 1] == n
    assert all(m[a] > m[a + 1] for a in range(s + 1))
    assert all(nn[a] < nn[a + 1] for a in range(s + 1))
    for a in range(1, s + 1):
        assert e.ks[a - 1] >= 2
        assert m[a + 1] == e.ks[a - 1] * m[a] - m[a - 1]
        assert nn[a + 1] == e.ks[a - 1] * nn[a] - nn[a - 1]
    for a in range(s + 1):
        assert m[a] * nn[a + 1] - m[a + 1] * nn[a] == n
        assert math.gcd(m[a], m[a + 1]) == 1
    if prime is None:
        prime = isprime(n)
    for a in range(1, s + 1):
        # gcd(m_a, n_a) = 1 holds for prime n; in general it only divides n
        # (n = 6, q = 5 has m_2 = 4, n_2 = 2)
        if prime:
            assert math.gcd(m[a], nn[a]) == 1
        else:
            assert n % math.gcd(m[a], nn[a]) == 0
    assert (e.q_inv * q) % n == 1
    return e


def test_gcd_of_companion_sequences_can_exceed_one_for_composite_n():
    e = hj_expand(6, 5)
    assert math.gcd(e.m_seq[2], e.n_seq[2]) == 2


def test_structure_exhaustive_small():
    for n in range(2, 200):
        for q in range(1, n):
            if math.gcd(q, n) != 1:
                continue
            e = _check_structure(n, q)
            assert hj_evaluate(e.ks) == Fraction(n, q)


def test_dual_reversal_small():
    for n in range(2, 120):
        for q in range(1, n):
            if math.gcd(q, n) != 1:
                continue
            e = hj_expand(n, q)
            d = hj_dual(e)
            assert d.ks == tuple(reversed(e.ks))
            assert d.s == e.s  # length symmetry l(q, n) = l(q', n)
            assert d.excess == e.excess


def test_length_cap():
    assert hj_length(100, 99) == 99
    assert hj_length(100, 99, cap=50) is None
    assert hj_length(7, 5) == 3
    assert hj_length(7, 5, cap=3) == 3


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=5000))
def test_roundtrip_random(n):
    for q in (1, n - 1, n // 2):
        q = max(1, min(q, n - 1))
        if math.gcd(q, n) != 1:
            continue
        e = hj_expand(n, q)
        assert hj_evaluate(e.ks) == Fraction(n, q)


def test_chain_record_matches_step_oracle_on_every_residue():
    for n in KERNEL_MODULI:
        for q in range(1, n):
            want = chain_record_steps(n, q)
            assert chain_record(n, q) == want, (n, q)
            s = want[0]
            # the cap cuts exactly past s, also inside a run of 2s
            assert _chain(n, q, s) == want, (n, q)
            assert _chain(n, q, s - 1) is None, (n, q)
            assert hj_length(n, q) == s
            assert hj_length(n, q, cap=s) == s and hj_length(n, q, cap=s - 1) is None


def test_chain_record_matches_step_oracle_on_random_large_moduli():
    rng = random.Random(20260)
    checked = 0
    while checked < 400:
        n = rng.randrange(2, 10**rng.randrange(2, 13))
        q = rng.randrange(1, n) if n > 2 else 1
        if math.gcd(n, q) != 1:
            continue
        checked += 1
        assert chain_record(n, q) == chain_record_steps(n, q), (n, q)
        assert chain_record(n, 1) == chain_record_steps(n, 1), n


def test_chain_record_all_twos_chain_takes_one_step():
    # n/(n-1) = [2, ..., 2]: n - 1 coefficients, no excess, no wall sum, and
    # one Euclidean step for the kernel even at n = 10^12 + 39
    for n in (3, 17, 1009, 10**12 + 39):
        assert chain_record(n, n - 1) == (n - 1, -(n - 1) * (n - 2), 0, 0, 0, 0)
        assert _chain(n, n - 1, n - 2) is None
    assert chain_record(1009, 1008) == chain_record_steps(1009, 1008)


def test_dual_record_matches_chain_record_of_inverse():
    for n in KERNEL_MODULI:
        for q in range(1, n):
            q_inv = pow(q, -1, n)
            assert dual_record(n, q, chain_record(n, q)) == chain_record(n, q_inv), (n, q)
    rng = random.Random(20261)
    for _ in range(300):
        n = rng.randrange(3, 10**12)
        q = rng.randrange(1, n)
        if math.gcd(n, q) == 1:
            q_inv = pow(q, -1, n)
            assert dual_record(n, q, chain_record(n, q)) == chain_record(n, q_inv)
