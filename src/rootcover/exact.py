"""Exact arithmetic kernel.

Everything downstream computes with arbitrary-precision rationals; the only
irrational quantities in the whole system (square-root and logarithm bounds)
are compared or enclosed exactly here, so no floating point enters any result.
The deterministic primality test every prime modulus is checked with lives
here too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadInput, NotCoprime

#: The universal numeric carrier: exact rationals in lowest terms with
#: positive denominator, as provided by the standard library.
Rat = Fraction


def residue(a: int, n: int) -> int:
    """Residue of ``a`` modulo ``n``, normalized to ``[0, n)``."""
    if n < 1:
        raise BadInput(f"modulus must be positive, got {n}")
    return a % n


def mod_inverse(a: int, n: int) -> int:
    """Inverse of ``a`` modulo ``n``, in ``[1, n)``.

    Raises :class:`NotCoprime` when ``gcd(a, n) != 1``.
    """
    if n < 2:
        raise BadInput(f"modulus must be >= 2, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotCoprime(f"{a} is not invertible modulo {n}") from None


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin to the bases 2, 3, ..., _SMALL_PRIMES[i] decides primality for
# every n < _SPRP_BOUNDS[i]; each bound is the least strong pseudoprime to
# those bases (OEIS A014233).
_SPRP_BOUNDS = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
)


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n < 318665857834031151167461``.

    Trial division by the first 12 primes, then strong-probable-prime tests
    to the bases 2, 3, ..., 37, stopping as soon as ``n`` lies below the
    proven bound for the bases tested so far.  Raises :class:`BadInput` at
    or above the last bound, where these bases no longer decide.
    """
    if n >= _SPRP_BOUNDS[-1]:
        raise BadInput(f"primality is decided below {_SPRP_BOUNDS[-1]}, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a, bound in zip(_SMALL_PRIMES, _SPRP_BOUNDS):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            break
    return True


def sawtooth(x) -> Rat:
    """The sawtooth function ((x)): x - floor(x) - 1/2 off the integers, 0 on them.

    Odd and periodic with period 1.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def leq_sqrt_bound(x, c, m: int, d) -> bool:
    """Decide ``x <= c*sqrt(m) + d`` exactly (no floating point).

    Requires ``c >= 0`` and ``m >= 1``.  True iff ``x <= d``, or ``x > d``
    and ``(x - d)^2 <= c^2 * m``.
    """
    x, c, d = Fraction(x), Fraction(c), Fraction(d)
    if c < 0:
        raise BadInput("coefficient of the square root must be nonnegative")
    if m < 1:
        raise BadInput(f"radicand must be a positive integer, got {m}")
    if x <= d:
        return True
    return (x - d) ** 2 <= c * c * m


def sqrt_upper(m, bits: int = 64) -> Rat:
    """A rational upper bound for sqrt(m), within 2**-bits of the true value.

    The bound is (isqrt(ceil(m 4**bits)) + 1) / 2**bits; an integer radicand
    takes it by shifts, with no Fraction arithmetic.
    """
    if not isinstance(m, int):
        m = Fraction(m)
    if m < 0:
        raise BadInput("radicand must be nonnegative")
    if isinstance(m, int):
        scaled = m << 2 * bits
    else:
        scaled = math.ceil(m * (1 << 2 * bits))
    return Fraction(math.isqrt(scaled) + 1, 1 << bits)


# Rational enclosure of log.  Used for the Girstmair complement bound, which
# must be checked without trusting floats.

_LN2_TERMS = 96


def _ln2_enclosure() -> tuple[Rat, Rat]:
    # ln 2 = sum_{k>=1} 1/(k 2^k); the tail after K terms is < 1/((K+1) 2^K).
    lo = sum(Fraction(1, k * (1 << k)) for k in range(1, _LN2_TERMS + 1))
    return lo, lo + Fraction(1, (_LN2_TERMS + 1) * (1 << _LN2_TERMS))


_LN2_LO, _LN2_HI = _ln2_enclosure()


def log_enclosure(x, terms: int = 64) -> tuple[Rat, Rat]:
    """Exact rationals ``(lo, hi)`` with ``lo <= log(x) <= hi``.

    Argument reduction by powers of two, then the atanh series
    ``log y = 2 * sum t^(2k+1)/(2k+1)`` with ``t = (y-1)/(y+1)``, whose tail
    is bounded by the next term divided by ``1 - t^2``.
    """
    x = Fraction(x)
    if x <= 0:
        raise BadInput("log requires a positive argument")
    e = 0
    while x >= 2:
        x /= 2
        e += 1
    while x < 1:
        x *= 2
        e -= 1
    t = (x - 1) / (x + 1)  # in [0, 1/3)
    acc = Fraction(0)
    power = t
    tsq = t * t
    for k in range(terms):
        acc += power / (2 * k + 1)
        power *= tsq
    lo_frac = 2 * acc
    tail = 2 * power / ((2 * terms + 1) * (1 - tsq)) if t else Fraction(0)
    if e >= 0:
        return e * _LN2_LO + lo_frac, e * _LN2_HI + lo_frac + tail
    return e * _LN2_HI + lo_frac, e * _LN2_LO + lo_frac + tail
