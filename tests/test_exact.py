import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import isprime

from rootcover.errors import BadInput, NotCoprime
from rootcover.exact import (
    is_prime,
    leq_sqrt_bound,
    log_enclosure,
    mod_inverse,
    residue,
    sawtooth,
    sqrt_upper,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


def test_residue_examples():
    assert residue(-12, 7) == 2
    assert residue(16, 7) == 2
    assert residue(0, 5) == 0
    with pytest.raises(BadInput):
        residue(3, 0)


def test_mod_inverse_examples():
    assert mod_inverse(5, 7) == 3
    assert mod_inverse(1, 11) == 1
    assert mod_inverse(4, 17) == 13
    with pytest.raises(NotCoprime):
        mod_inverse(6, 9)


def test_mod_inverse_involution():
    for n in range(2, 80):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            assert mod_inverse(mod_inverse(a, n), n) == residue(a, n)


def test_sawtooth_examples():
    assert sawtooth(0) == 0
    assert sawtooth(Fraction(3, 4)) == Fraction(1, 4)
    # ((1/4)) = -1/4, so by oddness ((-1/4)) = +1/4
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)
    assert sawtooth(7) == 0 and sawtooth(-3) == 0


@given(rationals, st.integers(min_value=-50, max_value=50))
def test_sawtooth_periodic(x, a):
    assert sawtooth(x + a) == sawtooth(x)


@given(rationals)
def test_sawtooth_odd(x):
    assert sawtooth(-x) == -sawtooth(x)


def test_leq_sqrt_bound_examples():
    assert leq_sqrt_bound(16, 3, 17, 2) is False  # (16-2)^2 = 196 > 153
    assert leq_sqrt_bound(5, 3, 17, 5) is True    # x <= d branch
    assert leq_sqrt_bound(14, 3, 17, 2) is True   # 144 <= 153
    with pytest.raises(BadInput):
        leq_sqrt_bound(1, -1, 5, 0)
    with pytest.raises(BadInput):
        leq_sqrt_bound(1, 1, 0, 0)


def test_leq_sqrt_bound_against_high_precision_decimals():
    # test-only comparison with 50-digit decimal arithmetic
    getcontext().prec = 50
    rng = random.Random(20240811)
    for _ in range(10**4):
        x = Fraction(rng.randrange(-400, 400), rng.randrange(1, 40))
        c = Fraction(rng.randrange(0, 40), rng.randrange(1, 10))
        m = rng.randrange(1, 5000)
        d = Fraction(rng.randrange(-200, 200), rng.randrange(1, 40))
        rhs = (
            Decimal(c.numerator) / Decimal(c.denominator)
        ) * Decimal(m).sqrt() + Decimal(d.numerator) / Decimal(d.denominator)
        lhs = Decimal(x.numerator) / Decimal(x.denominator)
        # skip razor-thin margins where 50 digits could not referee anyway
        if abs(lhs - rhs) < Decimal("1e-40"):
            continue
        assert leq_sqrt_bound(x, c, m, d) == (lhs <= rhs)


def test_sqrt_upper():
    for m in [2, 3, 17, 10**6 + 3]:
        up = sqrt_upper(m)
        assert up * up >= m
        assert float(up) == pytest.approx(math.sqrt(m), rel=1e-12)


def test_sqrt_upper_integer_path_matches_fraction_path():
    rng = random.Random(5)
    radicands = list(range(200)) + [rng.randrange(10**30) for _ in range(300)]
    for bits in (1, 8, 64, 100):
        scale = 1 << bits
        for m in radicands:
            want = Fraction(math.isqrt(math.ceil(Fraction(m) * scale * scale)) + 1, scale)
            assert sqrt_upper(m, bits) == want == sqrt_upper(Fraction(m), bits)
    assert sqrt_upper(Fraction(9, 4)) > Fraction(3, 2)
    for m in (-1, Fraction(-1, 3)):
        with pytest.raises(BadInput):
            sqrt_upper(m)


def test_log_enclosure():
    getcontext().prec = 60
    slack = Fraction(1, 10**50)
    for x in [Fraction(1), Fraction(2), Fraction(68), Fraction(4 * 10007), Fraction(3, 7)]:
        lo, hi = log_enclosure(x)
        assert lo <= hi
        ref = Fraction(
            str((Decimal(x.numerator) / Decimal(x.denominator)).ln())
        )
        assert lo - slack <= ref <= hi + slack
        assert hi - lo < Fraction(1, 10**15)
    with pytest.raises(BadInput):
        log_enclosure(0)


# The least strong pseudoprime to the bases 2, 3, ..., p for each prime p
# <= 37 (the bounds is_prime stops at), without repeats.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
)
PRIME_LIMIT = 318665857834031151167461


def test_is_prime_matches_sympy_below_3e5():
    assert [n for n in range(300_000) if is_prime(n)] == [
        n for n in range(300_000) if isprime(n)
    ]


def test_is_prime_matches_sympy_on_random_odd_numbers():
    rng = random.Random(6)
    for _ in range(3000):
        bits = rng.randint(12, 78)
        n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        assert is_prime(n) == isprime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not isprime(n)
        assert not is_prime(n), n


def test_is_prime_small_and_out_of_range():
    for n in (-1, 0, 1):
        assert not is_prime(n)
    for n in range(PRIME_LIMIT - 300, PRIME_LIMIT):
        assert is_prime(n) == isprime(n), n
    with pytest.raises(BadInput):
        is_prime(PRIME_LIMIT)
