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

Slopes use the singular-model convention c1^3 := -K^3, c1c2 := 24 chi,
c3 := e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .asympt import Partition
from .dedekind import dedekind_fast
from .errors import BadParams, Degenerate, DegenerateCone, IncompatiblePartition
from .exact import sqrt_upper
from .hj import hj_expand, hj_length
from .logchern import BasePair, LogChernNumbers, log_chern_numbers
from .toric import local_cone, select_v

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


@dataclass(frozen=True)
class ChiValue:
    """chi(O_X) with its R-term breakdown; chi = n chi(O_Z) - (r1+r2+r3)/12."""

    chi: Fraction
    r1: Fraction
    r2: Fraction
    r3: Fraction


@dataclass(frozen=True)
class ClosedFormsP4:
    """Closed-form specializations for degree-d hypersurfaces in P^4, r = 3."""

    k3: Fraction
    chi: Fraction
    euler_limit: Fraction
    slope_pair: Optional[tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class InvariantReport:
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


def _pair_weight(pair: BasePair, j: int, k: int) -> int:
    """D_j D_k (D_j + D_k + K_Z)."""
    return pair.dd2[k][j] + pair.dd2[j][k] + pair.kz_dd(j, k)


def chi_root_cover(pair: BasePair, part: Partition) -> ChiValue:
    """chi(O_{X_n}) = n chi(O_Z) - (R_1 + R_2 + R_3)/12, exactly.

    R_1 carries the pure divisor brackets, R_2 the mixed Chern terms, and
    R_3 the Dedekind sums d(nu_j, nu_k, n) weighted by D_j D_k (D_j+D_k+K_Z)
    and by the triple products.
    """
    _check_compatible(pair, part)
    n = part.n
    r1 = (
        Fraction((n - 1) ** 2, 2 * n) * pair.sum_d3()
        + Fraction((n - 1) * (2 * n - 1), 2 * n) * (pair.sum_12() + pair.sum_21())
        + Fraction(3 * (n - 1), 2) * pair.triple.total()
    )
    r2 = Fraction(1 - n, 2) * (
        Fraction(2 * n - 1, n) * pair.c1_d2() + 3 * pair.c1_d11()
    ) + Fraction(n - 1, 2) * (pair.c1sq_dred() + pair.c2_dred())

    dsums = {}

    def dval(j, k):
        key = (min(j, k), max(j, k))
        if key not in dsums:
            dsums[key] = dedekind_fast(part.nu[key[0]], part.nu[key[1]], n)
        return dsums[key]

    r3 = Fraction(0)
    for j in range(pair.r):
        for k in range(j + 1, pair.r):
            w = _pair_weight(pair, j, k)
            if w:
                r3 += dval(j, k) * w
    for (j, k, l), t in pair.triple.items_nonzero():
        r3 += (dval(j, k) + dval(j, l) + dval(k, l)) * t
    r3 *= 6
    chi = n * pair.chi - (r1 + r2 + r3) / 12
    return ChiValue(chi, r1, r2, r3)


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


def _triple_points(pair: BasePair, part: Partition, strategy: str) -> dict:
    """Chosen subdivision point per nonzero triple, keyed by sorted indices."""
    points = {}
    n = part.n
    for (a, b, c), _t in pair.triple.items_nonzero():
        spec = local_cone(n, part.nu[a], part.nu[b], part.nu[c])
        if spec.is_degenerate:
            raise DegenerateCone(
                f"triple ({a},{b},{c}): excluded cone shape {spec.degenerate_flags}"
            )
        try:
            points[(a, b, c)] = select_v(spec, strategy).coords
        except Degenerate as exc:
            raise DegenerateCone(f"triple ({a},{b},{c}): {exc}") from exc
    return points


def _wall_sums(n: int, q: int) -> tuple[int, int, int, int]:
    """The integer sums (S0, S1, S2, B) of the wall chain n/q = [k_1, ..., k_s].

    With M_a = m_a + n_a - n and e_a = M_a (2 - k_a),

        S0 = sum_a e_a,
        S1 = sum_a e_a (m_{a+1} - m_{a-1} + m_0 - m_1),
        S2 = sum_a e_a (n_{a+1} - n_{a-1} + n_0 - n_1),

    and B = M_1 + M_s + n sum_a (k_a - 2), in one pass of the division
    algorithm of :func:`hj_expand`; only the coefficients k_a != 2 contribute.
    """
    s0 = s1 = s2 = excess = 0
    m_prev, m_cur, n_prev, n_cur = n, q, 0, 1  # m_{a-1}, m_a, n_{a-1}, n_a
    while m_cur:
        k = -((-m_prev) // m_cur)
        m_next, n_next = k * m_cur - m_prev, k * n_cur - n_prev
        if k != 2:
            e = (m_cur + n_cur - n) * (2 - k)
            s0 += e
            s1 += e * (m_next - m_prev)
            s2 += e * (n_next - n_prev)
            excess += k - 2
        m_prev, m_cur, n_prev, n_cur = m_cur, m_next, n_cur, n_next
    # the loop ends on m_s = 1, n_s = q'
    chain_end = (q + 1 - n) + (n_prev + 1 - n) + n * excess
    return s0, s1 + (n - q) * s0, s2 - s0, chain_end


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
    factor 2 - k_a too (see :func:`_wall_sums`).  Every remaining piece is an
    integer over n^2, except the slope terms, which are collected per triple
    point over n^2 v1 v2 v3 together with its central term; the result is
    one Fraction.

    The chain-end values x_{jk,1} drop the central-divisor corrections
    v_{pos(k)} K.C_{pos(j)} at the triple points.  Those vanish whenever the
    local K.C_l intersections do, so the result is certified exact only for
    the minimal point over triples whose parts sum to n (checked against the
    closed form).  Elsewhere a correction can be O(n) (the minimal point at
    r >= 4) and the result is not exact; see ROADMAP item 1.
    """
    _check_compatible(pair, part)
    n, r = part.n, pair.r
    dd2 = pair.dd2
    points = _triple_points(pair, part, strategy)
    triples = [(key, t, points[key]) for key, t in pair.triple.items_nonzero()]

    # Every integral piece is accumulated as a numerator over n^2.
    dred3 = pair.sum_d3() + 3 * (pair.sum_12() + pair.sum_21()) + 6 * pair.triple.total()
    total = (
        -pair.c1_cubed * n**3
        + 3 * n * n * (n - 1) * pair.c1sq_dred()
        - 3 * n * (n - 1) ** 2 * (pair.c1_d2() + 2 * pair.c1_d11())
        + (n - 1) ** 3 * dred3
    )

    # Per pair (j, k), over the triples (j, k, l) through it:
    # [sum_l D_jkl, sum_l (v1+v2+v3 - n) D_jkl, sum_l n N_{jl,1} D_jkl].
    through = {}
    for (a, b, c), t, v in triples:
        v_term = (sum(v) - n) * t
        for j, k, l in ((a, b, c), (a, c, b), (b, c, a)):
            sums = through.setdefault((j, k), [0, 0, 0])
            sums[0] += t
            sums[1] += v_term
            sums[2] += (part.wall_seed(j, l) + 1 - n) * t

    slope_coef = {}
    for j in range(r):
        for k in range(j + 1, r):
            if not pair.pair_meets(j, k):
                continue
            t_sum, v_sum, w_sum = through.get((j, k), (0, 0, 0))
            q = part.wall_seed(j, k)
            s0, s1, s2, chain_end = _wall_sums(n, q)
            dd_sum = dd2[k][j] + dd2[j][k]
            k_class = n * pair.kz_dd(j, k) + (n - 1) * (dd_sum + t_sum)  # n D_jk K
            x1 = k_class + (q + 1 - n) * dd2[j][k] + w_sum  # n x_{jk,1}
            total -= 2 * (k_class + v_sum) * chain_end
            total -= s0 * (dd_sum + x1) + dd2[j][k] * s1 - dd2[k][j] * s2
            # coefficients of |D_j|_k and |D_k|_j over n^2
            slope_coef[j, k] = (s0 - s2, s0 + s1)

    # Per triple point: n^2 v1 v2 v3 times its central term and its share
    # of the slope terms of the three pairs through it.
    dens, nums = [], []
    for (a, b, c), t, (va, vb, vc) in triples:
        ab_j, ab_k = slope_coef[a, b]
        ac_j, ac_k = slope_coef[a, c]
        bc_j, bc_k = slope_coef[b, c]
        nums.append(
            t
            * (
                (va + vb + vc - n) ** 3
                + (ab_j * va + ab_k * vb) * va * vb
                + (ac_j * va + ac_k * vc) * va * vc
                + (bc_j * vb + bc_k * vc) * vb * vc
            )
        )
        dens.append(va * vb * vc)
    den = math.lcm(*dens)
    total = total * den + sum(num * (den // d) for num, d in zip(nums, dens))
    return Fraction(total, n * n * den)


def euler_root_cover(pair: BasePair, part: Partition) -> Fraction:
    """Topological Euler characteristic of the cyclic resolution.

    e(X_n) = n (e(Z) - e(D)) + e(D) - e(Sing D)
             + sum_{j<k} sum_C [s_jk (3 - 4 g(C)) - 1]
             - sum_{j<k<l} (s_jk + s_jl + s_kl - 3) D_jkl,

    with s_jk the chain length l(q_jk, n).
    """
    _check_compatible(pair, part)
    n = part.n
    lengths = {}

    def s_of(j, k):
        key = (min(j, k), max(j, k))
        if key not in lengths:
            lengths[key] = hj_length(n, part.q_matrix[key[0]][key[1]])
        return lengths[key]

    e = n * (pair.c3 - pair.e_d) + pair.e_d - pair.e_sing_d
    for (j, k), curves in pair.pair_curves.items():
        s = s_of(j, k)
        for genus, count in curves:
            e += count * (s * (3 - 4 * genus) - 1)
    for (j, k, l), t in pair.triple.items_nonzero():
        e -= (s_of(j, k) + s_of(j, l) + s_of(k, l) - 3) * t
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


def chi_error_bound(
    pair: BasePair,
    part: Partition,
    chi_val: ChiValue | None = None,
    bars: LogChernNumbers | None = None,
) -> Fraction:
    """A-priori bound for |chi/n - c1c2_bar/24| on asymptotic partitions.

    |d(nu_j, nu_k, n)| = |d(1, q_jk, n)| (substitute i -> nu_j^{-1} i and use
    the inverse symmetry), so for q_jk in O_n every Dedekind factor is at
    most 3 sqrt(n) + 5 in absolute value and

        |R_3|/(12 n) <= (3 sqrt(n) + 5)/(2n)
                        (sum_{j<k} |D_jk (D_j + D_k + K_Z)| + 3 sum |D_jkl|).

    The n-dependent drift of the R_1, R_2 terms is exact and added as is.
    ``chi_val`` and ``bars`` take the chi value and the log Chern numbers
    when the caller has them already.
    """
    n = part.n
    if chi_val is None:
        chi_val = chi_root_cover(pair, part)
    if bars is None:
        bars = log_chern_numbers(pair)
    drift = pair.chi - (chi_val.r1 + chi_val.r2) / (12 * n) - bars.c1c2_bar / 24
    weight = sum(
        abs(_pair_weight(pair, j, k))
        for j in range(pair.r)
        for k in range(j + 1, pair.r)
    )
    weight += 3 * sum(abs(t) for _key, t in pair.triple.items_nonzero())
    girstmair = (3 * sqrt_upper(n) + 5) / (2 * n) * weight
    return abs(drift) + girstmair


def invariant_report(
    pair: BasePair, part: Partition, strategy: str = "minimal"
) -> InvariantReport:
    """Evaluate every invariant of one (pair, n, partition) cell."""
    chi_val = chi_root_cover(pair, part)
    k3 = k3_root_cover(pair, part, strategy)
    euler = euler_root_cover(pair, part)
    bars = log_chern_numbers(pair)
    c1c2 = 24 * chi_val.chi
    slopes = None
    if c1c2:
        slopes = (-k3 / c1c2, euler / c1c2)
    log_slopes = None
    if bars.c1c2_bar:
        log_slopes = (
            bars.c1_cubed_bar / bars.c1c2_bar,
            bars.c3_bar / bars.c1c2_bar,
        )
    return InvariantReport(
        n=part.n,
        nu=part.nu,
        label=pair.label,
        strategy=strategy,
        chi=chi_val,
        k3=k3,
        euler=euler,
        log_chern=bars,
        slopes=slopes,
        log_slopes=log_slopes,
        chi_error_bound=chi_error_bound(pair, part, chi_val, bars),
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
