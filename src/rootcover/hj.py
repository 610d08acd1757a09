"""Hirzebruch-Jung (negative-regular) continued fractions.

For coprime 0 < q < n, the expansion n/q = [k_1, ..., k_s] with all k_a >= 2
is produced by the division algorithm

    m_0 = n, m_1 = q,  m_{a+1} = k_a m_a - m_{a-1},  k_a = ceil(m_{a-1}/m_a),

together with the companion sequence n_0 = 0, n_1 = 1 satisfying the same
recurrence.  It encodes the minimal resolution of the surface cyclic quotient
singularity of type (1/n)(q, 1); the chain lengths s and the excesses
sum(k_a - 2) drive every global invariant downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, CertificationError

__all__ = ["HJExpansion", "hj_expand", "hj_evaluate", "hj_dual", "hj_length"]


@dataclass(frozen=True)
class HJExpansion:
    """The full record of one expansion n/q = [k_1, ..., k_s].

    ``m_seq`` runs m_0 = n > m_1 = q > ... > m_s = 1 > m_{s+1} = 0 and
    ``n_seq`` runs n_0 = 0 < n_1 = 1 < ... < n_s = q' < n_{s+1} = n, where q'
    is the inverse of q modulo n.  Consecutive pairs satisfy the determinant
    identity m_a n_{a+1} - m_{a+1} n_a = n.
    """

    n: int
    q: int
    ks: tuple[int, ...]
    m_seq: tuple[int, ...]
    n_seq: tuple[int, ...]

    @property
    def s(self) -> int:
        """Length of the expansion (number of coefficients)."""
        return len(self.ks)

    @property
    def q_inv(self) -> int:
        """The inverse of q modulo n, read off as n_s."""
        return self.n_seq[self.s]

    @property
    def excess(self) -> int:
        """sum_a (k_a - 2), the total excess over the all-twos chain."""
        return sum(self.ks) - 2 * self.s


def _validate(n: int, q: int) -> None:
    if n < 2 or not 1 <= q < n:
        raise BadInput(f"need 1 <= q < n with n >= 2, got n={n}, q={q}")
    if math.gcd(n, q) != 1:
        raise BadInput(f"q={q} is not coprime to n={n}")


def hj_expand(n: int, q: int) -> HJExpansion:
    """Expand n/q as the unique negative-regular continued fraction."""
    _validate(n, q)
    ks = []
    m_seq = [n, q]
    n_seq = [0, 1]
    while m_seq[-1] > 0:
        k = -((-m_seq[-2]) // m_seq[-1])  # ceil division
        ks.append(k)
        m_seq.append(k * m_seq[-1] - m_seq[-2])
        n_seq.append(k * n_seq[-1] - n_seq[-2])
    return HJExpansion(n, q, tuple(ks), tuple(m_seq), tuple(n_seq))


def hj_evaluate(ks) -> Fraction:
    """Value of the nested fraction k_1 - 1/(k_2 - 1/(... - 1/k_s)).

    Independent oracle for :func:`hj_expand`: evaluating the coefficients of
    the expansion of n/q returns exactly n/q.
    """
    ks = list(ks)
    if not ks:
        raise BadInput("empty coefficient list")
    if any(k < 2 for k in ks):
        raise BadInput("all coefficients must be >= 2")
    value = Fraction(ks[-1])
    for k in reversed(ks[:-1]):
        value = k - 1 / value
    return value


def hj_dual(e: HJExpansion) -> HJExpansion:
    """The expansion of n/q', whose coefficients are those of n/q reversed.

    The m- and n-sequences swap and reverse: (m'_a, n'_a) = (n_{s+1-a}, m_{s+1-a}).
    CertificationError if the expansion of n/q' does not have that shape.
    """
    dual = hj_expand(e.n, e.q_inv)
    s = e.s
    if (
        dual.ks != tuple(reversed(e.ks))
        or dual.m_seq != tuple(e.n_seq[s + 1 - a] for a in range(s + 2))
        or dual.n_seq != tuple(e.m_seq[s + 1 - a] for a in range(s + 2))
    ):
        raise CertificationError(
            f"expansion of {e.n}/{e.q_inv} is not the dual of {e.n}/{e.q}"
        )
    return dual


def hj_length(n: int, q: int, cap: int | None = None) -> int | None:
    """Length s of the expansion of n/q, or None once it exceeds ``cap``.

    Early exit keeps Girstmair-set construction cheap for the long chains.
    """
    _validate(n, q)
    prev, cur = n, q
    s = 0
    while cur > 0:
        k = -((-prev) // cur)
        prev, cur = cur, k * cur - prev
        s += 1
        if cap is not None and s > cap:
            return None
    return s
