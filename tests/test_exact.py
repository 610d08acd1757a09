import math
import random
import re
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import isprime

from rootcover import exact
from rootcover.asympt import (
    Partition,
    SplitMix64,
    girstmair_member,
    girstmair_set,
    partition_density,
    q_of_pair,
)
from rootcover.dedekind import barkan_residual, dedekind_fast, dedekind_sum, power_sums
from rootcover.errors import BadInput, BadParams, NotCoprime
from rootcover.exact import is_prime, log_enclosure, mod_inverse, sqrt_upper
from rootcover.hj import chain_record, hj_evaluate, hj_expand, hj_length
from rootcover.invariants import closed_forms_p4
from rootcover.toric import local_cone, max_slope


def sawtooth(x) -> Fraction:
    """The sawtooth function ((x)): x - floor(x) - 1/2 off the integers, 0 on them.

    Odd and periodic with period 1.  The Dedekind sums' defining factor, for
    the tests' oracles (test_dedekind imports it from here).
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def leq_sqrt_bound(x, c, m: int, d) -> bool:
    """Decide ``x <= c*sqrt(m) + d`` exactly (no floating point).

    Requires ``c >= 0`` and ``m >= 1``.  True iff ``x <= d``, or ``x > d``
    and ``(x - d)^2 <= c^2 * m``.  The Girstmair bounds of O_n in their
    textbook form, for the tests' membership oracles.
    """
    x, c, d = Fraction(x), Fraction(c), Fraction(d)
    if c < 0:
        raise BadInput("coefficient of the square root must be nonnegative")
    if m < 1:
        raise BadInput(f"radicand must be a positive integer, got {m}")
    if x <= d:
        return True
    return (x - d) ** 2 <= c * c * m


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


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
            assert mod_inverse(mod_inverse(a, n), n) == a % n


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
    scale = 1 << 64
    for m in radicands:
        want = Fraction(math.isqrt(math.ceil(Fraction(m) * scale * scale)) + 1, scale)
        assert sqrt_upper(m) == want
    for m in (-1, Fraction(9, 4), 2.0):
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


def test_ln2_enclosure_is_pinned():
    # the 96-term enclosure of ln 2 is summed on first use and cached, not
    # built at import; both ends are pinned, and they bracket ln 2
    exact._ln2_enclosure.cache_clear()
    lo, hi = exact._ln2_enclosure()
    assert lo == Fraction(
        19736176966263837228580555830996084040336236181985230861402177728257,
        28473284635335824425228876140218232013917389017909344229727089459200,
    )
    assert hi == Fraction(
        1914409165727592211172313915606979535290087654380219629684543777288129,
        2761908609627574969247200985601168505349986734737206390283527677542400,
    )
    assert exact._ln2_enclosure() is exact._ln2_enclosure()
    assert exact._ln2_enclosure.cache_info().misses == 1
    getcontext().prec = 60
    ln2 = Fraction(str(Decimal(2).ln()))
    assert lo < ln2 - Fraction(1, 10**55) and ln2 + Fraction(1, 10**55) < hi
    assert hi - lo < Fraction(1, 2**102)


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


# Public entry points with valid integer arguments; a list argument holds
# integers.  closed_forms_p4 takes closed-form parameters, so BadParams.
INT_ENTRY_POINTS = [
    ("is_prime", is_prime, (7,), BadInput),
    ("mod_inverse", mod_inverse, (3, 7), BadInput),
    ("sqrt_upper", sqrt_upper, (7,), BadInput),
    ("hj_expand", hj_expand, (7, 5), BadInput),
    ("chain_record", chain_record, (7, 5), BadInput),
    ("hj_length", hj_length, (7, 5), BadInput),
    ("hj_evaluate", hj_evaluate, ([2, 3],), BadInput),
    ("dedekind_sum", dedekind_sum, ([1, 2], 7), BadInput),
    ("dedekind_fast", dedekind_fast, (1, 2, 7), BadInput),
    ("power_sums", power_sums, (1, 2, 3, 7), BadInput),
    ("barkan_residual", barkan_residual, (7, 5), BadInput),
    ("SplitMix64", SplitMix64, (1,), BadInput),
    ("SplitMix64.below", lambda bound: SplitMix64(1).below(bound), (3,), BadInput),
    ("q_of_pair", q_of_pair, (7, 1, 2), BadInput),
    ("girstmair_member", girstmair_member, (101, 5), BadInput),
    ("girstmair_set", girstmair_set, (101,), BadInput),
    ("partition_density", partition_density, (101, 3, 10, 0), BadInput),
    ("local_cone", local_cone, (7, 1, 2, 4), BadInput),
    ("max_slope", max_slope, ((1, 2, 3),), BadInput),
    ("closed_forms_p4",
     lambda d, n: closed_forms_p4(d, n, Partition(7, (1, 2, 4))), (6, 7), BadParams),
]

NON_INTS = {"float": float, "bool": lambda x: True, "str": str}


def _int_argument_cases():
    for name, fn, args, error in INT_ENTRY_POINTS:
        for i, arg in enumerate(args):
            for j in [None] if isinstance(arg, int) else range(len(arg)):
                for kind, make in NON_INTS.items():
                    where = f"{i}" if j is None else f"{i}.{j}"
                    yield pytest.param(fn, args, i, j, make, error, id=f"{name}-{where}-{kind}")


@pytest.mark.parametrize("fn, args, i, j, make, error", _int_argument_cases())
def test_integer_arguments_must_be_ints(fn, args, i, j, make, error):
    # exact.require_ints decides for every entry point: a float of integral
    # value, a bool and a numeric str are refused alike, with a typed error
    # that names the value refused
    fn(*args)  # valid as given
    bad = list(args)
    if j is None:
        value = bad[i] = make(args[i])
    else:
        bad[i] = list(args[i])
        value = bad[i][j] = make(args[i][j])
    with pytest.raises(error, match=f"must be ints, got {re.escape(repr(value))}$"):
        fn(*bad)


def _list_argument_cases():
    for name, fn, args, error in INT_ENTRY_POINTS:
        for i, arg in enumerate(args):
            if not isinstance(arg, int):
                yield pytest.param(fn, args, i, error, id=f"{name}-{i}")


@pytest.mark.parametrize("fn, args, i, error", _list_argument_cases())
def test_list_arguments_must_be_sequences(fn, args, i, error):
    # an int where a list of ints belongs is refused with the typed error,
    # not a TypeError from iterating it
    bad = list(args)
    bad[i] = 5
    with pytest.raises(error, match="5"):
        fn(*bad)
