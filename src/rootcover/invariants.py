"""Global invariants of the cyclic resolution X_n -> Y_n -> (Z, D).

For a degree-n root cover branched at D = sum nu_j D_j and its cyclic
resolution, this module evaluates, as exact rationals:

  * chi(O_X) through the closed form n chi(O_Z) - (R_1 + R_2 + R_3)/12, with
    an independent eigenspace-summation oracle;
  * K_X^3 through the exceptional-wall recursions (x_{jk,a}, y_{jk,a}) and
    the discrepancy bookkeeping (N_{jk,a}, V_{jkl});
  * the topological Euler characteristic e(X_n);
  * the hyperplane-section specializations in P^4 and the slope limits;
  * aggregated reports with an a-priori Girstmair error bound for chi/n.

The data splits into two kinds.  Per base pair, computed once and kept on
the :class:`BasePair` (see its docstring): the log Chern numbers and
slopes, and ``BasePair.plan``, whose bracket sums give R_1 and R_2 of chi
and whose rows (one per pair j < k: its weights w_jk in chi and c_jk in e,
and the four K^3 constants) chi, e and K^3 all walk, reading each pair's
chain record by its key.  Per cell (n and the partition) is everything
else: ``Partition.q_matrix`` and
``Partition.chain_records``, one integer record (s, D, S0, S1, S2, B) per
pair j < k from a single run-length pass over the wall chain n/q_kj (both
handed over by the partition search when it found the partition), and the
subdivision point of each triple, picked in integers from the q_matrix.
chi, K^3 and e read the chain records.  The length/excess relation gives
the Dedekind sums of chi from them, d(nu_j, nu_k, n) = -D_jk/(12 n), so chi
is assembled over 24 n in integers.

K^3 is one formula in two parts (see :func:`k3_root_cover`): a per-pair
part over the plan's rows, and a per-triple-point part that holds every
term of a triple point.  The latter reads the chain ends, the S0 sums and
the slope coefficients of a triple's three pairs from flat per-pair lists
at the positions ``BasePair.triple_rows`` names, and takes a report's points
from one call of :func:`rootcover.toric.subdivision_points`.

Slopes use the singular-model convention c1^3 := -K^3, c1c2 := 24 chi,
c3 := e.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .asympt import Partition
from .dedekind import dedekind_fast
from .errors import (
    BadInput,
    BadParams,
    Degenerate,
    DegenerateCone,
    IncompatiblePartition,
)
from .exact import require_ints, sqrt_upper
from .hj import hj_expand
from .logchern import BasePair, LogChernNumbers
from .toric import subdivision_points

# Reports read chain lengths from Partition.chain_records, log Chern numbers
# from BasePair.log_chern and triple points from subdivision_points; these
# names stay bound here because perfbench/tracer.py wraps them where this
# module looked them up.
from .hj import hj_length  # noqa: F401
from .logchern import log_chern_numbers  # noqa: F401
from .toric import select_v  # noqa: F401

__all__ = [
    "ChiValue",
    "ClosedFormsP4",
    "InvariantReport",
    "chi_root_cover",
    "chi_eigenspace_oracle",
    "chi_error_bound",
    "k3_root_cover",
    "euler_root_cover",
    "closed_forms_p4",
    "invariant_report",
    "report_to_json_dict",
]


class ChiValue(NamedTuple):
    """chi(O_X) with its R-term breakdown; chi = n chi(O_Z) - (r1+r2+r3)/12."""

    chi: Fraction
    r1: Fraction
    r2: Fraction
    r3: Fraction


class ClosedFormsP4(NamedTuple):
    """Closed-form specializations for degree-d hypersurfaces in P^4, r = 3."""

    k3: Fraction
    chi: Fraction
    euler_limit: Fraction
    slope_pair: Optional[tuple[Fraction, Fraction]]


class InvariantReport(NamedTuple):
    """Every invariant of one (pair, n, partition, strategy) cell, exact."""

    n: int
    nu: tuple[int, ...]
    label: str
    strategy: str
    chi: ChiValue
    k3: Fraction
    euler: Fraction
    log_chern: LogChernNumbers
    slopes: Optional[tuple[Fraction, Fraction]]
    log_slopes: Optional[tuple[Fraction, Fraction]]
    chi_error_bound: Fraction


def _check_compatible(pair: BasePair, part: Partition) -> None:
    if part.r != pair.r:
        raise IncompatiblePartition(
            f"partition has {part.r} parts, pair has {pair.r} divisors"
        )
    if pair.h_section and sum(part.nu) % part.n != 0:
        raise IncompatiblePartition(
            "sum of multiplicities must vanish mod n for a single-class pair"
        )


def _r12(pair: BasePair, n: int) -> tuple[int, int]:
    """The numerators of R_1 and R_2 over 2 n, from the bracket sums of
    ``BasePair.plan``; they depend on the pair and n alone.  BadInput for
    n < 3, where chi has no Dedekind sums."""
    if n < 3:
        raise BadInput(f"modulus must be >= 3, got {n}")
    d3, dd, d111, c1_d2, c1_d11, c1sq_d, c2_d = pair.plan.brackets
    r1 = (n - 1) * ((n - 1) * d3 + (2 * n - 1) * dd + 3 * n * d111)
    r2 = (n - 1) * (n * (c1sq_d + c2_d) - (2 * n - 1) * c1_d2 - 3 * n * c1_d11)
    return r1, r2


def chi_root_cover(pair: BasePair, part: Partition) -> ChiValue:
    """chi(O_{X_n}) = n chi(O_Z) - (R_1 + R_2 + R_3)/12, exactly.

    R_1 carries the pure divisor brackets, R_2 the mixed Chern terms, and
    R_3 = 6 sum_{j<k} d(nu_j, nu_k, n) w_jk, the Dedekind sums weighted by
    w_jk = D_j D_k (D_j+D_k+K_Z) + sum_l D_jkl (a column of ``BasePair.plan``).
    By the length/excess relation d(nu_j, nu_k, n) = -d(1, q_jk, n) =
    -D_jk/(12 n), with D_jk = n (excess - s) + q + q' the integer of the
    pair's chain record, so R_3 = -sum D_jk w_jk/(2 n).  R_1, R_2 and R_3
    are integers over 2 n and chi one over 24 n.  BadInput for n < 3, where
    no Dedekind sum is defined.
    """
    _check_compatible(pair, part)
    n = part.n
    r1, r2 = _r12(pair, n)  # every R-term as its numerator over 2 n
    chains = part.chain_records
    r3 = 0
    for j, k, w, _c, _kz, _dd_sum, _djk, _dkj in pair.plan.rows:
        r3 -= chains[j, k][1] * w
    chi = Fraction(n * n * pair.c1c2 - r1 - r2 - r3, 24 * n)
    return ChiValue(
        chi, Fraction(r1, 2 * n), Fraction(r2, 2 * n), Fraction(r3, 2 * n)
    )


def chi_eigenspace_oracle(pair: BasePair, part: Partition) -> Fraction:
    """chi(O_X) by summing Riemann-Roch over the n eigenspace classes.

    chi = n chi(O_Z) - (1/12) sum_{i=1}^{n-1} [2 (L^i)^3 + 3 (L^i)^2 K
    + L^i K^2 + c2 . L^i], each power expanded through the intersection
    tables.  Must agree with :func:`chi_root_cover` exactly.
    """
    _check_compatible(pair, part)
    n, r = part.n, pair.r
    triples = list(pair.triple.items_nonzero())
    pairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    total = 0  # accumulates 12 * n^3 * (chi(O_Z)*n - chi) exactly
    for i in range(1, n):
        a = [(i * v) % n for v in part.nu]
        l3 = sum(a[j] ** 3 * pair.d3[j] for j in range(r))
        l3 += 3 * sum(
            a[j] * a[k] * (a[j] * pair.dd2[k][j] + a[k] * pair.dd2[j][k])
            for j, k in pairs
        )
        l3 += 6 * sum(a[j] * a[k] * a[l] * t for (j, k, l), t in triples)
        l2k = sum(a[j] ** 2 * pair.kz_dd(j, j) for j in range(r))
        l2k += 2 * sum(a[j] * a[k] * pair.kz_dd(j, k) for j, k in pairs)
        lk2 = sum(a[j] * pair.c1sq_d[j] for j in range(r))
        lc2 = sum(a[j] * pair.c2_d[j] for j in range(r))
        total += 2 * l3 + 3 * n * l2k + n * n * (lk2 + lc2)
    return n * pair.chi - Fraction(total, 12 * n**3)


def _triple_points(pair: BasePair, part: Partition, strategy: str) -> list:
    """The subdivision point (v1, v2, v3) of each nonzero triple, in integers.

    Aligned with ``pair.triple_rows`` (the order of
    ``pair.triple.items_nonzero()``).  The triple (a, b, c) has the cone
    (n, q_ac, q_bc) of :func:`rootcover.toric.local_cone`, and its point is
    the one :func:`rootcover.toric.subdivision_points` gives for those
    q_matrix integers (the partition has checked that n is prime), all
    triples in one call.  A cone of an excluded shape raises DegenerateCone,
    naming the triple.
    """
    q = part.q_matrix
    triples = pair.triple_rows
    points: list = []
    try:
        points.extend(
            subdivision_points(
                part.n,
                ((q[a][c], q[b][c]) for a, b, c, _t, _ab, _ac, _bc in triples),
                strategy,
            )
        )
    except Degenerate as exc:
        a, b, c = triples[len(points)][:3]
        raise DegenerateCone(f"triple ({a},{b},{c}): {exc}") from exc
    return points


def k3_root_cover(pair: BasePair, part: Partition, strategy: str = "minimal") -> Fraction:
    """K^3 of the cyclic resolution, assembled from the wall recursions.

    The pieces: n K^3 for K = K_Z + (n-1)/n D_red; the chain-end discrepancy
    terms -2 (D_jk K + sum_l V_jkl D_jkl)(N_{jk,1} + N_{kj,1} + excess); the
    central n V^3/(v1 v2 v3) contributions; and the wall sums built from

        x_{jk,a} = x_{jk,1} + (m*_a (D_jk D_k - |D_k|_j)
                              - n*_a (D_jk D_j - |D_j|_k)) / n,
        y_{jk,a} = -k_a x_{jk,a} + (k_a - 2)(n_{a+1}(D_jk D_j - |D_j|_k)
                              - m_{a+1}(D_jk D_k - |D_k|_j)) / n,

    with x_{jk,1} = D_jk (K + sum_{l != j} N_{jl,1} D_l) and the slope terms
    |D_j|_k = sum_l v_{pos(j)}/v_{pos(l)} D_jkl of the chosen lattice points.

    The wall sum  sum_{a=1}^{s} N_{jk,a} ((k_a - 2) gap/n - x_a - y_a - x_{a+1}),
    gap = D_jk (D_j + D_k) - |D_j|_k - |D_k|_j, is linear in x_{jk,1} and
    the two slope gaps a_j = D_jk D_j - |D_j|_k, a_k = D_jk D_k - |D_k|_j,
    with integer coefficients that depend on the chain alone.  With
    M_a = m_a + n_a - n (so N_{jk,a} = M_a/n), P_a = m*_a =
    m_a - m_{a-1} - m_1 + m_0 and Q_a = n*_a the same from n_seq, the sums

        S0 = sum_a M_a (2 - k_a),
        S1 = sum_a M_a ((1 - k_a) P_a + P_{a+1} - (k_a - 2) m_{a+1}),
        S2 = sum_a M_a ((1 - k_a) Q_a + Q_{a+1} - (k_a - 2) n_{a+1})

    give the whole wall as

        -S0 (gap/n^2 + x_{jk,1}/n) - (a_k S1 - a_j S2)/n^2.

    Since P_{a+1} - P_a = (k_a - 2) m_a, every term of S1 and S2 carries the
    factor 2 - k_a too (see :func:`rootcover.hj.chain_record`, which the
    kernel reads from ``part.chain_records``).

    The kernel is one formula in two parts, over the pair's
    ``BasePair.plan`` and ``BasePair.triple_rows``:

    * Per pair j < k, one row of the plan each: the chain ends and the wall
      sum, over n^2, with the pair's own wall seed D_jk D_k q_kj in S0_jk's
      coefficient.  A pair whose divisors do not meet adds 0.
    * Per triple point (a, b, c): its point v (:func:`_triple_points`, one
      strategy dispatch for the report); its chain-end term
      2 (v1 + v2 + v3 - 1) D_abc (B_ab + B_ac + B_bc); the wall seeds
      D_abc (S0_ab q_ca + S0_ac q_ba + S0_bc q_ab) of its three pairs; and
      its central term with its share of the slope terms over
      n^2 v1 v2 v3.  These read flat per-pair lists of the chain ends B,
      of S0, and of S0 - S2 and S0 + S1.  The numerators over
      n^2 v1 v2 v3 are summed per denominator before the one lcm; the
      result is one Fraction.

    The chain-end values x_{jk,1} drop the central-divisor corrections
    v_{pos(k)} K.C_{pos(j)} at the triple points.  Those vanish whenever the
    local K.C_l intersections do, so the result is certified exact only for
    the minimal point over triples whose parts sum to n (checked against the
    closed form).  Elsewhere a correction can be O(n) (the minimal point at
    r >= 4) and the result is not exact; see ROADMAP item 2.
    """
    _check_compatible(pair, part)
    n = part.n
    q = part.q_matrix  # the wall seed j -> k is q[k][j]
    chains = part.chain_records
    plan = pair.plan
    points = _triple_points(pair, part, strategy)

    # Every integral piece is accumulated as a numerator over n^2.
    c1_cubed, c1sq_d, c1_d, d_cubed = plan.cube
    total = (
        -c1_cubed * n**3
        + 3 * n * n * (n - 1) * c1sq_d
        - 3 * n * (n - 1) ** 2 * c1_d
        + (n - 1) ** 3 * d_cubed
    )

    # Per pair (j, k): the chain ends and the wall sum.  The triple points
    # through it add (n - 1) D_jkl to n D_jk K and (q_lj + 1 - n) D_jkl to
    # n x_{jk,1}, which cancel but for the seeds' q_lj D_jkl S0_jk, taken
    # at the triple point below.
    ends, s0s, lows, highs = [], [], [], []
    for j, k, _w, _c, kz, dd_sum, djk, dkj in plan.rows:
        _s, _d, s0, s1, s2, chain_end = chains[j, k]
        k_class = n * kz + (n - 1) * dd_sum  # n D_jk K, less triples
        # n x_{jk,1} = k_class + (q_kj + 1 - n) D_jk D_k, less triples
        total -= (
            2 * k_class * chain_end
            + s0 * (dd_sum + k_class + (q[k][j] + 1 - n) * djk)
            + djk * s1
            - dkj * s2
        )
        ends.append(chain_end)
        s0s.append(s0)
        lows.append(s0 - s2)
        highs.append(s0 + s1)

    # Per triple point (a, b, c): the chain ends of its pairs take
    # 2 (v1 + v2 + v3 - 1) D_abc B_jk (the V-sum adds (v1 + v2 + v3 - n)
    # D_jkl), and each pair (j, k) its wall seed q_lj D_jkl S0_jk; then
    # n^2 v1 v2 v3 times its central term and its share of the slope terms
    # |D_j|_k, |D_k|_j, whose coefficients over n^2 are S0 - S2 and S0 + S1,
    # summed per denominator v1 v2 v3.
    points_sum = 0
    nums: dict[int, int] = {}
    for (a, b, c, t, ab, ac, bc), (va, vb, vc) in zip(pair.triple_rows, points):
        v_sum = va + vb + vc
        points_sum += t * (
            2 * (v_sum - 1) * (ends[ab] + ends[ac] + ends[bc])
            + s0s[ab] * q[c][a]
            + s0s[ac] * q[b][a]
            + s0s[bc] * q[a][b]
        )
        den = va * vb * vc
        w = v_sum - n
        nums[den] = nums.get(den, 0) + t * (
            w * w * w
            + (lows[ab] * va + highs[ab] * vb) * va * vb
            + (lows[ac] * va + highs[ac] * vc) * va * vc
            + (lows[bc] * vb + highs[bc] * vc) * vb * vc
        )
    total -= points_sum
    den = math.lcm(*nums)
    total = total * den + sum(num * (den // d) for d, num in nums.items())
    return Fraction(total, n * n * den)


def euler_root_cover(pair: BasePair, part: Partition) -> Fraction:
    """Topological Euler characteristic of the cyclic resolution.

    e(X_n) = n (e(Z) - e(D)) + e(D) - e(Sing D)
             + sum_{j<k} sum_C [s_jk (3 - 4 g(C)) - 1]
             - sum_{j<k<l} (s_jk + s_jl + s_kl - 3) D_jkl,

    with s_jk the chain length l(q_jk, n), read from the pair's chain record
    (n/q_jk and its dual n/q_kj have the same length).  Collected per pair,
    this is n (e(Z) - e(D)) + e_0 + sum_{j<k} c_jk s_jk with the constant
    e_0 and the column c_jk of ``BasePair.plan``.
    """
    _check_compatible(pair, part)
    chains = part.chain_records
    plan = pair.plan
    e = part.n * (pair.c3 - pair.e_d) + plan.e_0
    for j, k, _w, c, _kz, _dd_sum, _djk, _dkj in plan.rows:
        e += chains[j, k][0] * c
    return Fraction(e)


def closed_forms_p4(d: int, n: int, part: Partition) -> ClosedFormsP4:
    """Closed forms for a degree-d hypersurface pair in P^4 with r = 3.

    Evaluated directly, independent of the general pipeline:

        K^3  = d(d-3)(n d^2 - 3nd + 3n - 9d + 18 - 3 sum(k-2)),
        chi  = n chi(O_Z) - (R_1 + R_2 + R_3)/12,
        e/n -> -d(d-5)(d^2 + 2d + 6),

    and the slope limits ((d-2)^3 - 1)/((d-2)(d-1)^2),
    (d-5)(d^2+2d+6)/((d-2)(d-1)^2) (undefined for d <= 2).
    """
    require_ints("d and n", d, n, error=BadParams)
    if d < 1:
        raise BadParams(f"need d >= 1, got {d}")
    if part.r != 3 or part.n != n or sum(part.nu) != n:
        raise BadParams("need a partition of n into exactly 3 parts")
    excess = sum(
        hj_expand(n, part.q_matrix[j][k]).excess
        for j in range(3)
        for k in range(j + 1, 3)
    )
    k3 = Fraction(
        d * (d - 3) * (n * d * d - 3 * n * d + 3 * n - 9 * d + 18 - 3 * excess)
    )
    chi_z = Fraction(-d * (d - 5) * (10 + d * (d - 5)), 24)
    r1 = Fraction(9 * d * (n - 1) * (2 * n - 1), 2 * n)
    r2 = Fraction(3 * d * (d - 5) * (n - 1) * (5 * n - 1), 2 * n) + Fraction(
        3 * d * ((d - 5) ** 2 + d * (d - 5) + 10) * (n - 1), 2
    )
    nu = part.nu
    r3 = (
        6
        * d
        * (d - 2)
        * (
            dedekind_fast(nu[0], nu[1], n)
            + dedekind_fast(nu[0], nu[2], n)
            + dedekind_fast(nu[1], nu[2], n)
        )
    )
    chi = n * chi_z - (r1 + r2 + r3) / 12
    euler_limit = Fraction(-d * (d - 5) * (d * d + 2 * d + 6))
    denom = (d - 2) * (d - 1) ** 2
    slope_pair = None
    if denom:
        slope_pair = (
            Fraction((d - 2) ** 3 - 1, denom),
            Fraction((d - 5) * (d * d + 2 * d + 6), denom),
        )
    return ClosedFormsP4(k3, chi, euler_limit, slope_pair)


def chi_error_bound(pair: BasePair, part: Partition) -> Fraction:
    """A-priori bound for |chi/n - c1c2_bar/24| on asymptotic partitions.

    |d(nu_j, nu_k, n)| = |d(1, q_jk, n)| (substitute i -> nu_j^{-1} i and use
    the inverse symmetry), so for q_jk in O_n every Dedekind factor is at
    most 3 sqrt(n) + 5 in absolute value and

        |R_3|/(12 n) <= (3 sqrt(n) + 5)/(2n)
                        (sum_{j<k} |D_jk (D_j + D_k + K_Z)| + 3 sum |D_jkl|).

    The n-dependent drift chi(O_Z) - (R_1 + R_2)/(12 n) - c1c2_bar/24 of the
    R_1, R_2 terms is exact and added as is.  The bound is built as one
    Fraction from integers: R_1 and R_2 are integers over 2 n (see
    :func:`chi_root_cover`), so the drift is an integer over 24 n^2 b for
    the denominator b of c1c2_bar, and sqrt_upper(n) is an integer over R,
    a power of two, so the Girstmair term is one over 2 n R; both are taken
    over 24 n^2 b R.
    """
    _check_compatible(pair, part)
    n = part.n
    r12 = sum(_r12(pair, n))
    bar = pair.log_chern.c1c2_bar
    b = bar.denominator
    n2 = n * n
    drift = (pair.c1c2 * n2 - r12) * b - bar.numerator * n2  # over 24 n^2 b
    root = sqrt_upper(n)
    big_r = root.denominator
    girstmair = (3 * root.numerator + 5 * big_r) * pair.chi_bound_weight  # over 2 n R
    return Fraction(abs(drift) * big_r + 12 * n * b * girstmair, 24 * n2 * b * big_r)


def invariant_report(
    pair: BasePair, part: Partition, strategy: str = "minimal"
) -> InvariantReport:
    """Evaluate every invariant of one (pair, n, partition) cell."""
    chi_val = chi_root_cover(pair, part)
    k3 = k3_root_cover(pair, part, strategy)
    euler = euler_root_cover(pair, part)
    chi = chi_val.chi
    slopes = None
    if chi:
        # -K^3/(24 chi) and e/(24 chi), each reduced once; Fraction moves the
        # sign of a negative chi to the numerator
        den = 24 * chi.numerator
        slopes = (
            Fraction(-k3.numerator * chi.denominator, k3.denominator * den),
            Fraction(euler.numerator * chi.denominator, euler.denominator * den),
        )
    return InvariantReport(
        n=part.n,
        nu=part.nu,
        label=pair.label,
        strategy=strategy,
        chi=chi_val,
        k3=k3,
        euler=euler,
        log_chern=pair.log_chern,
        slopes=slopes,
        log_slopes=pair.log_slopes,
        chi_error_bound=chi_error_bound(pair, part),
    )


def _rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def report_to_json_dict(report: InvariantReport) -> dict:
    """JSON form with every rational as an exact "num/den" string."""
    return {
        "schema": "rootcover-invariant-report/1",
        "n": report.n,
        "nu": list(report.nu),
        "label": report.label,
        "strategy": report.strategy,
        "chi": _rat_str(report.chi.chi),
        "chi_breakdown": {
            "r1": _rat_str(report.chi.r1),
            "r2": _rat_str(report.chi.r2),
            "r3": _rat_str(report.chi.r3),
        },
        "k3": _rat_str(report.k3),
        "euler": _rat_str(report.euler),
        "log_chern": {
            "c1_cubed_bar": _rat_str(report.log_chern.c1_cubed_bar),
            "c1c2_bar": _rat_str(report.log_chern.c1c2_bar),
            "c3_bar": _rat_str(report.log_chern.c3_bar),
        },
        "slopes": [_rat_str(s) for s in report.slopes] if report.slopes else None,
        "log_slopes": (
            [_rat_str(s) for s in report.log_slopes] if report.log_slopes else None
        ),
        "chi_error_bound": _rat_str(report.chi_error_bound),
    }
