import math
import random
from fractions import Fraction

import pytest
from sympy import nextprime, primerange

from rootcover.dedekind import barkan_residual, dedekind_fast, dedekind_sum, power_sums
from rootcover.errors import BadInput, NotCoprime
from test_exact import sawtooth


def sawtooth_oracle(a_list, n):
    """Direct product-of-sawtooth evaluation, independent of the integer form."""
    total = Fraction(0)
    for i in range(1, n):
        prod = Fraction(1)
        for a in a_list:
            prod *= sawtooth(Fraction(i * a, n))
        total += prod
    return total


def reciprocity_sum(q, n):
    """s(q, n) = sum ((i/n))((iq/n)) by the reciprocity descent.

    s(h, k) + s(k, h) = -1/4 + (h^2 + k^2 + 1)/(12 h k), applied along the
    Euclidean remainder chain; s(0, 1) = 0 closes the recursion.  The O(log n)
    reference for dedekind_fast, independent of the chain pass that it reads.
    """
    h, k = q % n, n
    num, den = 0, 1  # running sum as num/den
    sign = 1
    while h > 0:
        # add sign * ((h^2 + k^2 + 1)/(12 h k) - 1/4)
        term_num = h * h + k * k + 1 - 3 * h * k
        term_den = 12 * h * k
        num = num * term_den + sign * term_num * den
        den *= term_den
        sign = -sign
        h, k = k % h, h
    return Fraction(num, den)


def test_dedekind_sum_examples():
    assert dedekind_sum([1, 5], 7) == Fraction(-1, 14)
    assert dedekind_sum([1, 2], 7) == Fraction(1, 14)
    assert dedekind_sum([1, 1, 1], 11) == 0
    with pytest.raises(BadInput):
        dedekind_sum([1, 2], 2)


def test_dedekind_sum_matches_sawtooth_oracle():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randrange(3, 40)
        d = rng.randrange(1, 5)
        args = [rng.randrange(-10, 30) for _ in range(d)]
        assert dedekind_sum(args, n) == sawtooth_oracle(args, n)


def test_periodicity_in_the_arguments():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(3, 80)
        args = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 4))]
        shifted = [a + n * rng.randrange(-3, 4) for a in args]
        assert dedekind_sum(args, n) == dedekind_sum(shifted, n)
        assert dedekind_sum(args, n) == dedekind_sum([a % n for a in args], n)


def test_odd_dimension_vanishes():
    # dimension 1: exhaustive over every residue, n <= 200
    for n in range(3, 201):
        for q in range(1, n):
            if math.gcd(q, n) == 1:
                assert dedekind_sum([q], n) == 0
    # higher odd dimensions: fixed patterns across moduli
    for n in range(3, 60):
        for args in ([2, 3, 5], [1, 1, 1, 2, 2]):
            assert dedekind_sum(args, n) == 0


def test_sign_rule():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(3, 120)
        d = rng.randrange(1, 5)
        args = [rng.randrange(1, n) for _ in range(d)]
        neg = [-a for a in args]
        assert dedekind_sum(neg, n) == (-1) ** d * dedekind_sum(args, n)


def test_fast_examples():
    assert dedekind_fast(1, 5, 7) == Fraction(-1, 14)
    assert dedekind_fast(2, 4, 7) == dedekind_sum([1, 2], 7) == Fraction(1, 14)
    for n in (5, 11, 31):
        assert dedekind_fast(1, n - 1, n) == -dedekind_sum([1, 1], n)
    assert dedekind_fast(1, 4, 5) == Fraction(-1, 5)
    with pytest.raises(NotCoprime):
        dedekind_fast(3, 5, 9)
    # the modulus is checked before coprimality
    for a, b in ((1, 1), (2, 1)):
        with pytest.raises(BadInput):
            dedekind_fast(a, b, 2)


def test_fast_equals_naive_exhaustive():
    for n in range(3, 60):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            for b in range(1, n):
                if math.gcd(b, n) != 1:
                    continue
                assert dedekind_fast(a, b, n) == dedekind_sum([a, b], n)


def test_fast_equals_naive_random():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(3, 3000)
        a = rng.randrange(1, n)
        b = rng.randrange(1, n)
        if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
            continue
        assert dedekind_fast(a, b, n) == dedekind_sum([a, b], n)


def test_fast_equals_reciprocity_descent_large():
    # prime and composite moduli up to 10^18, where the O(n) sum is out of reach
    rng = random.Random(19)
    moduli = [nextprime(rng.randrange(10**6, 10**18)) for _ in range(60)]
    moduli += [rng.randrange(10**3, 10**9) * rng.randrange(10**3, 10**9) for _ in range(60)]
    moduli += [2**60, 10**18, 3**37]
    for n in moduli:
        checked = 0
        while checked < 4:
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
                continue
            q = pow(a, -1, n) * b % n
            assert dedekind_fast(a, b, n) == reciprocity_sum(q, n), (a, b, n)
            checked += 1


def test_reciprocity_descent_equals_naive():
    for n in range(3, 120):
        for q in range(1, n):
            if math.gcd(q, n) == 1:
                assert reciprocity_sum(q, n) == dedekind_sum([1, q], n)


def test_inverse_symmetry():
    # d(1, q, n) = d(1, q', n); the Girstmair membership rule relies on it
    for n in primerange(3, 1000):
        for q in range(1, n):
            qinv = pow(q, -1, n)
            if qinv < q:
                continue
            assert dedekind_fast(1, q, n) == dedekind_fast(1, qinv, n)


def brute_power_sums(a, b, c, n):
    s11 = sum((i * a % n) * (i * b % n) for i in range(1, n))
    s21 = sum((i * a % n) ** 2 * (i * b % n) for i in range(1, n))
    s111 = sum((i * a % n) * (i * b % n) * (i * c % n) for i in range(1, n))
    return Fraction(s11), Fraction(s21), Fraction(s111)


def test_power_sums_examples():
    s11, s21, _ = power_sums(1, 1, 1, 5)
    assert s11 == 30  # sum i^2, i = 1..4
    assert s21 == 100  # sum i^3 = n^2 (n-1)^2 / 4
    got = power_sums(1, 2, 4, 7)
    assert got == brute_power_sums(1, 2, 4, 7)
    expected_third = Fraction(343, 2) * (
        Fraction(1, 14) + dedekind_fast(1, 4, 7) + dedekind_fast(2, 4, 7)
    ) + Fraction(343 * 6, 8)
    assert got[2] == expected_third
    with pytest.raises(NotCoprime):
        power_sums(1, 2, 5, 10)


def test_power_sums_random():
    rng = random.Random(17)
    checked = 0
    while checked < 150:
        n = rng.randrange(3, 200)
        a, b, c = (rng.randrange(1, n) for _ in range(3))
        if any(math.gcd(x, n) != 1 for x in (a, b, c)):
            continue
        assert power_sums(a, b, c, n) == brute_power_sums(a, b, c, n)
        checked += 1


def test_barkan_examples():
    # 12*(-1/14) + 3 = 15/7 = 1 + 8/7
    assert barkan_residual(7, 5) == 0
    # 12*d(1,1,5) + 1 = 17/5 = 3 + 2/5
    assert barkan_residual(5, 1) == 0
    # d(1,16,17) = -20/17, s = 16, excess = 0, (16+16)/17
    assert dedekind_fast(1, 16, 17) == Fraction(-20, 17)
    assert barkan_residual(17, 16) == 0
    with pytest.raises(BadInput):
        barkan_residual(9, 2)
    with pytest.raises(BadInput):
        barkan_residual(7, 0)


def test_barkan_without_twelve_fails():
    # the relation with a bare Dedekind sum is numerically false
    lhs = dedekind_fast(1, 5, 7) + 3
    rhs = 1 + Fraction(5 + 3, 7)
    assert lhs != rhs


def test_barkan_small_primes():
    for n in primerange(3, 200):
        for q in range(1, n):
            assert barkan_residual(n, q) == 0
