"""Hirzebruch-Jung (negative-regular) continued fractions.

For coprime 0 < q < n, the expansion n/q = [k_1, ..., k_s] with all k_a >= 2
is produced by the division algorithm

    m_0 = n, m_1 = q,  m_{a+1} = k_a m_a - m_{a-1},  k_a = ceil(m_{a-1}/m_a),

together with the companion sequence n_0 = 0, n_1 = 1 satisfying the same
recurrence.  It encodes the minimal resolution of the surface cyclic quotient
singularity of type (1/n)(q, 1); the chain lengths s and the excesses
sum(k_a - 2) drive every global invariant downstream.  :func:`chain_record`
reads everything the invariants need from one pass of that algorithm.

Most coefficients are 2, and a run of 2s is one step of the ordinary
Euclidean algorithm: with delta = m_{a-1} - m_a, k_a = 2 exactly when
delta <= m_a, the run is t = m_a // delta long, and both sequences move
along it in arithmetic progression,

    (m_{a+t-1}, m_{a+t}) = (m_a - (t-1) delta, m_a - t delta),
    (n_{a+t-1}, n_{a+t}) = (n_a + (t-1) eps, n_a + t eps),  eps = n_a - n_{a-1}.

Coefficients 2 add nothing to the excess or to the wall sums, so the chain
record and the length are read in one such run-length pass
(:func:`hj_length`, :func:`chain_record`), and :func:`dual_record` turns the
record of n/q into that of n/q' without a second pass.  :func:`hj_expand`
keeps every coefficient, for the callers that need the full sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, CertificationError

__all__ = [
    "HJExpansion",
    "hj_expand",
    "hj_evaluate",
    "hj_dual",
    "hj_length",
    "chain_record",
    "dual_record",
]


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

    Read from the run-length pass of :func:`chain_record`, which stops as
    soon as s passes ``cap``.
    """
    _validate(n, q)
    record = _chain(n, q, n if cap is None else cap)  # s <= n - 1 always
    return None if record is None else record[0]


def _chain(n: int, q: int, cap: int) -> tuple[int, int, int, int, int, int] | None:
    # The run-length pass behind chain_record: the record of n/q, or None
    # once s > cap.  The caller has checked 0 < q < n and gcd(n, q) = 1.
    s = s0 = s1 = s2 = excess = 0
    m_prev, m_cur, n_prev, n_cur = n, q, 0, 1  # m_{a-1}, m_a, n_{a-1}, n_a
    while m_cur:
        delta = m_prev - m_cur
        if delta <= m_cur:  # k_a = ... = k_{a+t-1} = 2, with t = m_a // delta
            eps = n_cur - n_prev
            t, m_cur = divmod(m_cur, delta)
            m_prev = m_cur + delta
            n_prev = n_cur + (t - 1) * eps
            n_cur = n_prev + eps
            s += t
        else:
            k = -(-m_prev // m_cur)
            m_next, n_next = k * m_cur - m_prev, k * n_cur - n_prev
            e = (m_cur + n_cur - n) * (2 - k)
            s0 += e
            s1 += e * (m_next - m_prev)
            s2 += e * (n_next - n_prev)
            excess += k - 2
            m_prev, m_cur, n_prev, n_cur = m_cur, m_next, n_cur, n_next
            s += 1
        if s > cap:
            return None
    # the pass ends on m_s = 1, n_s = q'
    ends = q + n_prev  # q + q'
    return (
        s,
        n * (excess - s) + ends,
        s0,
        s1 + (n - q) * s0,
        s2 - s0,
        ends + 2 - 2 * n + n * excess,
    )


def chain_record(n: int, q: int) -> tuple[int, int, int, int, int, int]:
    """The integers (s, D, S0, S1, S2, B) of the chain n/q = [k_1, ..., k_s].

    s is the length, D = n (excess - s) + q + q' with excess = sum_a (k_a - 2),
    so that 12 n d(1, q, n) = D by the length/excess relation (n >= 3).  With
    M_a = m_a + n_a - n and e_a = M_a (2 - k_a), the wall sums are

        S0 = sum_a e_a,
        S1 = sum_a e_a (m_{a+1} - m_{a-1} + m_0 - m_1),
        S2 = sum_a e_a (n_{a+1} - n_{a-1} + n_0 - n_1),

    and B = M_1 + M_s + n excess.  Only the coefficients k_a != 2 enter the
    sums, so the pass over the division algorithm of :func:`hj_expand`
    crosses each run of 2s in one Euclidean step (see the module docstring):
    its cost grows with the number of runs, not with s.
    BadInput unless q is coprime to n with 0 < q < n, as for hj_expand.
    """
    _validate(n, q)
    return _chain(n, q, n)  # s <= n - 1, so the cap never cuts


def dual_record(
    n: int, q: int, record: tuple[int, int, int, int, int, int]
) -> tuple[int, int, int, int, int, int]:
    """The :func:`chain_record` of n/q' from ``record``, that of n/q.

    The dual chain runs (m'_a, n'_a) = (n_{s+1-a}, m_{s+1-a}) (see
    :func:`hj_dual`), so s, D, S0 and B are the same, q' = (D - q) mod n,
    and the wall sums trade places:

        S1' = (n - q' - 1) S0 - S2,   S2' = (n - q - 1) S0 - S1.
    """
    s, d, s0, s1, s2, b = record
    q_inv = (d - q) % n
    return (s, d, s0, (n - q_inv - 1) * s0 - s2, (n - q - 1) * s0 - s1, b)
