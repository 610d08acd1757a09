"""Exact arithmetic kernel.

Everything downstream computes with arbitrary-precision rationals; the only
irrational quantities in the whole system (square-root and logarithm bounds)
are compared or enclosed exactly here, so no floating point enters any result.
The primality test every prime modulus is checked with, and the integer rule
of every public entry point (:func:`require_ints`), live here too.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BadInput, NotCoprime


def _is_int(x) -> bool:
    """True for an int that is not a bool: what every integer argument must be."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_ints(what: str, *values, error: type[BadInput] = BadInput) -> None:
    """``error`` (BadInput, or BadParams for pair data) unless every value is
    an int: the one integer rule.  A bool is no int, nor is 3.0 or Fraction(3)."""
    for x in values:
        if type(x) is not int and not _is_int(x):  # an exact int needs no call
            raise error(f"{what} must be ints, got {x!r}")


def mod_inverse(a: int, n: int) -> int:
    """Inverse of ``a`` modulo ``n``, in ``[1, n)``.

    Raises :class:`NotCoprime` when ``gcd(a, n) != 1``.
    """
    require_ints("mod_inverse arguments", a, n)
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
    require_ints("is_prime arguments", n)
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


def sqrt_upper(m: int) -> Fraction:
    """A rational upper bound for sqrt(m), within 2**-64 of the true value.

    The bound is (isqrt(m 4**64) + 1) / 2**64, taken by shifts; BadInput
    unless m is a nonnegative integer.
    """
    require_ints("sqrt_upper arguments", m)
    if m < 0:
        raise BadInput(f"radicand must be a nonnegative integer, got {m!r}")
    return Fraction(math.isqrt(m << 128) + 1, 1 << 64)


# Rational enclosure of log.  Used for the Girstmair complement bound, which
# must be checked without trusting floats.

_LN2_TERMS = 96
_LOG_TERMS = 64  # terms of the atanh series in log_enclosure


@functools.cache
def _ln2_enclosure() -> tuple[Fraction, Fraction]:
    # ln 2 = sum_{k>=1} 1/(k 2^k); the tail after K terms is < 1/((K+1) 2^K).
    # Cached on first use, not summed at import: only log_enclosure reads it.
    lo = sum(Fraction(1, k * (1 << k)) for k in range(1, _LN2_TERMS + 1))
    return lo, lo + Fraction(1, (_LN2_TERMS + 1) * (1 << _LN2_TERMS))


def log_enclosure(x) -> tuple[Fraction, Fraction]:
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
    for k in range(_LOG_TERMS):
        acc += power / (2 * k + 1)
        power *= tsq
    lo_frac = 2 * acc
    tail = 2 * power / ((2 * _LOG_TERMS + 1) * (1 - tsq)) if t else Fraction(0)
    ln2_lo, ln2_hi = _ln2_enclosure()
    if e >= 0:
        return e * ln2_lo + lo_frac, e * ln2_hi + lo_frac + tail
    return e * ln2_hi + lo_frac, e * ln2_lo + lo_frac + tail
