"""Multidimensional Dedekind sums and the identities tying them to chain data.

The dimension-d sum for a modulus n >= 3 is

    d(a_1, ..., a_d, n) = sum_{i=1}^{n-1} ((i a_1 / n)) ... ((i a_d / n))

with ((.)) the sawtooth function.  Sums of odd dimension vanish; the
two-dimensional ones reduce to the classical sum s(q, n) = d(1, q, n), which
the fast evaluator reads in O(log n) from the chain record of n/q: the
length/excess relation makes 12 n d(1, q, n) the integer
D = n (excess - s) + q + q' of :func:`~rootcover.hj.chain_record`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadInput, NotCoprime
from .exact import is_prime, require_ints
from .hj import chain_record, hj_expand

__all__ = ["dedekind_sum", "dedekind_fast", "power_sums", "barkan_residual"]


def _check_args(n: int, *args) -> None:
    require_ints("arguments and modulus", *args, n)
    if n < 3:
        raise BadInput(f"modulus must be >= 3, got {n}")


def dedekind_sum(a_list, n: int) -> Fraction:
    """The defining O(n) sum, exact.  Arguments may be arbitrary integers.

    Any factor with i*a ~ 0 mod n contributes a zero sawtooth value, so
    non-coprime arguments are allowed here (only the fast path needs them
    invertible).
    """
    try:
        a_list = list(a_list)
    except TypeError:
        raise BadInput(f"arguments must be a sequence, got {a_list!r}") from None
    _check_args(n, *a_list)
    residues = [a % n for a in a_list]
    d = len(residues)
    total = 0
    for i in range(1, n):
        prod = 1
        for a in residues:
            t = (i * a) % n
            if t == 0:
                prod = 0
                break
            prod *= 2 * t - n  # 2n * ((i a / n))
        total += prod
    return Fraction(total, (2 * n) ** d)


def dedekind_fast(a: int, b: int, n: int) -> Fraction:
    """d(a, b, n) in O(log n): substitute i -> a^{-1} i, then read D.

    The substitution gives d(a, b, n) = d(1, q, n) with q = {a' b}_n, and
    12 n d(1, q, n) = D, the integer of :func:`~rootcover.hj.chain_record`.
    Requires both arguments invertible modulo n.
    """
    _check_args(n, a, b)
    if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
        raise NotCoprime(f"arguments {a}, {b} must be coprime to {n}")
    q = (pow(a, -1, n) * b) % n
    return Fraction(chain_record(n, q)[1], 12 * n)


def power_sums(a: int, b: int, c: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three residue power sums expressed through Dedekind sums.

    Returns (sum {ia}{ib}, sum {ia}^2 {ib}, sum {ia}{ib}{ic}) over i = 1..n-1:

        sum {ia}{ib}       = n^2 d(a,b,n) + n^2 (n-1)/4
        sum {ia}^2 {ib}    = n^3 d(a,b,n) + n^2 (n-1)(2n-1)/12
        sum {ia}{ib}{ic}   = (n^3/2)(d(a,b,n) + d(a,c,n) + d(b,c,n)) + n^3 (n-1)/8

    Each argument must be invertible modulo n, as for :func:`dedekind_fast`,
    which checks them.
    """
    dab = dedekind_fast(a, b, n)
    s11 = n * n * dab + Fraction(n * n * (n - 1), 4)
    s21 = n**3 * dab + Fraction(n * n * (n - 1) * (2 * n - 1), 12)
    dsum = dab + dedekind_fast(a, c, n) + dedekind_fast(b, c, n)
    s111 = Fraction(n**3, 2) * dsum + Fraction(n**3 * (n - 1), 8)
    return s11, s21, s111


def barkan_residual(n: int, q: int) -> Fraction:
    """Residual of the length/excess relation for d(1, q, n); zero for all inputs.

    With n/q = [k_1, ..., k_s] the relation is

        12 d(1, q, n) + s = sum_a (k_a - 2) + (q + q')/n.

    NOTE: the factor 12 on the Dedekind sum is essential; without it the
    relation already fails at (n, q) = (7, 5), where 12*(-1/14) + 3 = 15/7
    matches sum(k-2) + 8/7 but (-1/14) + 3 does not.  This function exists to
    keep that correction regression-tested; do not remove the 12.

    :func:`dedekind_fast` reads d(1, q, n) from the run-length chain pass, so
    the residual cross-checks that pass against the full :func:`hj_expand`
    expansion, whose s, excess and q' make up the right-hand side.
    """
    if not is_prime(n):
        raise BadInput(f"modulus must be prime, got {n}")
    e = hj_expand(n, q)  # BadInput unless q is an int with 0 < q < n
    lhs = 12 * dedekind_fast(1, q, n) + e.s
    rhs = e.excess + Fraction(q + e.q_inv, n)
    return lhs - rhs
