import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from sympy import primerange

from rootcover.asympt import Partition, find_asymptotic_partition, q_of_pair
from rootcover.dedekind import dedekind_fast
from rootcover.errors import (
    BadInput,
    BadParams,
    Degenerate,
    DegenerateCone,
    Exhausted,
    IncompatiblePartition,
    RootcoverError,
)
from rootcover.hj import chain_record, hj_expand
from rootcover.invariants import (
    ChiValue,
    _check_compatible,
    _triple_points,
    chi_eigenspace_oracle,
    chi_error_bound,
    chi_root_cover,
    closed_forms_p4,
    euler_root_cover,
    invariant_report,
    k3_root_cover,
    report_to_json_dict,
)
from rootcover.logchern import (
    BasePair,
    TripleTable,
    base_pair_from_json,
    log_chern_numbers,
    make_preset,
)
from rootcover.toric import local_cone, select_v

PLANES3 = make_preset("planes_p3", 3)
FIXTURE = Partition(7, (1, 2, 4))

# (0,1,3) is a zero triple, (0,3) and (1,3) meet without a triple point,
# and (2,3) does not meet at all
SPARSE_PAIR_DOC = {
    "schema": "rootcover-basepair/1",
    "r": 4,
    "c1_cubed": 54,
    "c1c2": 24,
    "c3": 8,
    "d3": [1, -2, 3, 0],
    "c1sq_d": [4, 5, -1, 2],
    "c2_d": [6, 2, 3, 1],
    "c1_dd": [[2, 1, -1, 1], [1, 3, 2, 0], [-1, 2, 1, 0], [1, 0, 0, 2]],
    "dd2": [[0, 3, -1, 2], [1, 0, 2, 0], [2, -1, 0, 0], [-1, 2, 0, 0]],
    "triple": {"entries": [[0, 1, 2, 2], [0, 1, 3, 0]]},
    "pair_curves": [
        [0, 1, [[0, 1]]],
        [0, 2, [[1, 1]]],
        [0, 3, [[0, 2]]],
        [1, 2, [[0, 1]]],
        [1, 3, [[2, 1]]],
    ],
    "e_d": 10,
    "e_sing_d": 4,
}
SPARSE_PAIR_PARTS = (Partition(101, (3, 17, 40, 55)), Partition(103, (5, 60, 22, 91)))


def random_h_partition(rng, n, r, distinct=False):
    """Multiplicities in (0, n) with sum ~ 0 mod n (positive-part composition
    for distinct=True, used where triple cones must be non-degenerate)."""
    while True:
        if distinct:
            parts = rng.sample(range(1, n), r - 1)
            last = (-sum(parts)) % n
            if last == 0 or last in parts:
                continue
            nu = tuple(parts) + (last,)
            if r == 3 and sum(nu) != n:
                continue
        else:
            parts = [rng.randrange(1, n) for _ in range(r - 1)]
            last = (-sum(parts)) % n
            if last == 0:
                continue
            nu = tuple(parts) + (last,)
        return Partition(n, nu)


def chi_dedekind_oracle(pair, part):
    """chi with its R-term breakdown, R_3 summed from Dedekind sums in Fractions.

    The direct evaluation of the closed form in ``chi_root_cover``'s
    docstring, d(nu_j, nu_k, n) by reciprocity descent: the oracle for its
    integer chain-record kernel, field by field.
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

    def dval(j, k):
        return dedekind_fast(part.nu[j], part.nu[k], n)

    r3 = Fraction(0)
    for j in range(pair.r):
        for k in range(j + 1, pair.r):
            w = pair.dd2[k][j] + pair.dd2[j][k] + pair.kz_dd(j, k)  # D_j D_k (D_j+D_k+K_Z)
            if w:
                r3 += dval(j, k) * w
    for (j, k, l), t in pair.triple.items_nonzero():
        r3 += (dval(j, k) + dval(j, l) + dval(k, l)) * t
    r3 *= 6
    chi = n * pair.chi - (r1 + r2 + r3) / 12
    return ChiValue(chi, r1, r2, r3)


def public_triple_point(part, key, strategy):
    """The subdivision point of the triple ``key`` by the public route:
    ``select_v(local_cone(...))``, DegenerateCone on an excluded shape."""
    a, b, c = key
    spec = local_cone(part.n, part.nu[a], part.nu[b], part.nu[c])
    if spec.is_degenerate:
        raise DegenerateCone(
            f"triple ({a},{b},{c}): excluded cone shape {spec.degenerate_flags}"
        )
    try:
        return select_v(spec, strategy).coords
    except Degenerate as exc:
        raise DegenerateCone(f"triple ({a},{b},{c}): {exc}") from exc


def k3_wall_recursion(pair, part, strategy="minimal"):
    """K^3 by stepping each wall recursion a = 1..s in Fractions.

    The direct evaluation of the recursions stated in ``k3_root_cover``'s
    docstring: the oracle for its closed integer sums.  The triple points
    come from the public route, not from the kernel's ``_triple_points``.
    """
    _check_compatible(pair, part)
    n, r = part.n, pair.r
    t_frac = Fraction(n - 1, n)
    points = {
        key: public_triple_point(part, key, strategy)
        for key, _t in pair.triple.items_nonzero()
    }

    dred3 = pair.sum_d3() + 3 * (pair.sum_12() + pair.sum_21()) + 6 * pair.triple.total()
    k_cubed = (
        -pair.c1_cubed
        + 3 * t_frac * pair.c1sq_dred()
        - 3 * t_frac**2 * (pair.c1_d2() + 2 * pair.c1_d11())
        + t_frac**3 * dred3
    )
    total = n * k_cubed

    def djk_dl(j, k, l):
        if l == j:
            return pair.dd2[k][j]
        if l == k:
            return pair.dd2[j][k]
        return pair.triple.get(j, k, l)

    def n_first(j, l):
        # N_{jl,1} = (m_{jl,1} + 1 - n)/n with m_{jl,1} the wall seed j -> l
        return Fraction(part.wall_seed(j, l) + 1 - n, n)

    def slope_sum(j, k):
        # |D_j|_k = sum_l v_{pos(j)}/v_{pos(l)} D_jkl
        acc = Fraction(0)
        for l in range(r):
            if l in (j, k):
                continue
            t = pair.triple.get(j, k, l)
            if not t:
                continue
            key = tuple(sorted((j, k, l)))
            v = points[key]
            acc += Fraction(v[key.index(j)], v[key.index(l)]) * t
        return acc

    for j in range(r):
        for k in range(j + 1, r):
            if not pair.pair_meets(j, k):
                continue
            wall = hj_expand(n, part.wall_seed(j, k))
            s = wall.s
            m_seq, n_seq, ks = wall.m_seq, wall.n_seq, wall.ks
            N = [Fraction(m_seq[a] + n_seq[a] - n, n) for a in range(s + 2)]

            djk_k_class = Fraction(
                pair.kz_dd(j, k)
            ) + t_frac * (
                pair.dd2[k][j]
                + pair.dd2[j][k]
                + sum(
                    pair.triple.get(j, k, l)
                    for l in range(r)
                    if l not in (j, k)
                )
            )
            v_weighted = Fraction(0)
            for l in range(r):
                if l in (j, k):
                    continue
                t = pair.triple.get(j, k, l)
                if not t:
                    continue
                key = tuple(sorted((j, k, l)))
                v = points[key]
                v_weighted += Fraction(sum(v) - n, n) * t

            total += -2 * (djk_k_class + v_weighted) * (N[1] + N[s] + wall.excess)

            dj_k = slope_sum(j, k)
            dk_j = slope_sum(k, j)
            a_j = pair.dd2[k][j] - dj_k  # D_jk D_j - |D_j|_k
            a_k = pair.dd2[j][k] - dk_j
            dd_gap = (pair.dd2[k][j] + pair.dd2[j][k]) - (dj_k + dk_j)

            x1 = djk_k_class + sum(
                n_first(j, l) * djk_dl(j, k, l)
                for l in range(r)
                if l != j and djk_dl(j, k, l)
            )
            xs = [None] * (s + 2)
            for a in range(1, s + 2):
                mstar = m_seq[a] - m_seq[a - 1] - m_seq[1] + m_seq[0]
                nstar = n_seq[a] - n_seq[a - 1] - n_seq[1] + n_seq[0]
                xs[a] = x1 + Fraction(1, n) * (mstar * a_k - nstar * a_j)
            for a in range(1, s + 1):
                ka = ks[a - 1]
                ya = -ka * xs[a] + Fraction(ka - 2, n) * (
                    n_seq[a + 1] * a_j - m_seq[a + 1] * a_k
                )
                total += dd_gap / n * N[a] * (ka - 2)
                total -= N[a] * (xs[a] + ya + xs[a + 1])

    for key, t in pair.triple.items_nonzero():
        v = points[key]
        V = Fraction(sum(v) - n, n)
        total += Fraction(n, v[0] * v[1] * v[2]) * V**3 * t
    return total


def test_chi_fixture():
    value = chi_root_cover(PLANES3, FIXTURE)
    assert value.chi == 1
    assert (value.r1, value.r2, value.r3) == (
        Fraction(351, 7),
        Fraction(162, 7),
        Fraction(-9, 7),
    )
    assert value.r1 + value.r2 + value.r3 == 72
    assert chi_eigenspace_oracle(PLANES3, FIXTURE) == 1


def test_chi_eigenspace_oracle_small_fixture():
    # all L^(i) on P^3 are H or 2H for nu = (1,2,4), n = 7
    part = Partition(5, (1, 1, 3))
    assert chi_root_cover(PLANES3, part).chi == chi_eigenspace_oracle(PLANES3, part)


def test_chi_matches_oracle_random_cells():
    rng = random.Random(42)
    primes = list(primerange(5, 200))
    for _ in range(30):
        n = rng.choice(primes)
        if rng.random() < 0.5:
            pair, r = PLANES3, 3
        else:
            pair, r = make_preset("hypersurface_p4", (rng.randrange(1, 8), 4)), 4
        part = random_h_partition(rng, n, r)
        a = chi_root_cover(pair, part).chi
        b = chi_eigenspace_oracle(pair, part)
        assert a == b
        assert a.denominator == 1  # integrality


def assert_chi_matches_dedekind_oracle(pair, part):
    try:
        expected = chi_dedekind_oracle(pair, part)
    except RootcoverError as exc:
        with pytest.raises(type(exc)):
            chi_root_cover(pair, part)
        return
    assert chi_root_cover(pair, part) == expected, part.nu


def test_chi_breakdown_matches_dedekind_oracle_asymptotic():
    primes = list(primerange(17, 200)) + [1009, 2003]
    for r in (3, 4, 5, 8):
        pair = make_preset("hypersurface_p4", (6, r))
        for n in primes:
            try:
                part = find_asymptotic_partition(n, r, seed=r, max_trials=2000)
            except Exhausted:
                continue
            assert_chi_matches_dedekind_oracle(pair, part)


def test_chi_breakdown_matches_dedekind_oracle_planes_and_sparse():
    rng = random.Random(41)
    for r in (3, 4):
        pair = make_preset("planes_p3", r)
        for n in primerange(5, 120):
            assert_chi_matches_dedekind_oracle(pair, random_h_partition(rng, n, r))
    sparse = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    for part in SPARSE_PAIR_PARTS:
        assert_chi_matches_dedekind_oracle(sparse, part)


def test_chi_rejects_modulus_two():
    # no Dedekind sum exists modulo 2, while the chains n/1 = [2] do
    part = Partition(2, (1, 1, 1, 1))
    with pytest.raises(BadInput, match="modulus must be >= 3, got 2"):
        chi_root_cover(make_preset("planes_p3", 4), part)


def test_chain_record_gives_pair_dedekind_sums():
    # d(nu_j, nu_k, n) = -d(1, q_jk, n) = -D_jk/(12 n), in both orders
    rng = random.Random(43)
    primes = list(primerange(3, 2000))
    for _ in range(800):
        n = rng.choice(primes)
        nu = (rng.randrange(1, n), rng.randrange(1, n))
        d = -Fraction(Partition(n, nu).chain_records[0, 1][1], 12 * n)
        assert dedekind_fast(nu[0], nu[1], n) == d, (n, nu)
        assert dedekind_fast(nu[1], nu[0], n) == d, (n, nu)


def test_chi_r3_vanishes_without_dedekind_mass():
    # q^2 ~ -1 (mod 13) at q = 5 makes d(1, 5, 13) = 0
    assert dedekind_fast(1, 5, 13) == 0
    pair = BasePair(
        r=2, c1_cubed=8, c1c2=24, c3=4, d3=(1, 1), c1sq_d=(2, 2), c2_d=(3, 3),
        c1_dd=((1, 2), (2, 1)), dd2=((1, 1), (1, 1)),
        triple=TripleTable(r=2, constant=0), pair_curves={(0, 1): ((0, 1),)},
        e_d=6, e_sing_d=2, label="r3-test",
    )
    part = Partition(13, (1, 5))
    assert q_of_pair(13, 1, 5) == 5
    assert chi_root_cover(pair, part).r3 == 0


def test_chi_incompatible_partition():
    with pytest.raises(IncompatiblePartition):
        chi_root_cover(PLANES3, Partition(7, (1, 2)))
    with pytest.raises(IncompatiblePartition):
        chi_root_cover(PLANES3, Partition(11, (1, 2, 4)))  # sum != 0 mod 11


def test_k3_fixtures():
    assert k3_root_cover(PLANES3, FIXTURE) == -14
    assert k3_root_cover(make_preset("hypersurface_p4", (6, 3)), FIXTURE) == 1836


def test_k3_closed_form_sweep():
    rng = random.Random(7)
    primes = list(primerange(7, 80))
    for d in (1, 2, 5, 7):
        pair = make_preset("hypersurface_p4", (d, 3))
        for _ in range(6):
            n = rng.choice(primes)
            part = random_h_partition(rng, n, 3, distinct=True)
            assert k3_root_cover(pair, part) == closed_forms_p4(d, n, part).k3


def test_k3_degenerate_cone():
    with pytest.raises(DegenerateCone):
        k3_root_cover(PLANES3, Partition(7, (1, 1, 5)))  # equal parts


def test_k3_balanced_strategy_runs():
    pair = make_preset("hypersurface_p4", (6, 3))
    part = Partition(31, (3, 7, 21))
    k_min = k3_root_cover(pair, part, "minimal")
    k_bal = k3_root_cover(pair, part, "balanced")
    assert k_min != 0 and k_bal != 0


def test_k3_balanced_strategy_tracks_log_chern_cube():
    # the balanced point has V = 0, so K^3/n approaches -c1_bar^3 (384 for
    # d = 6); the minimal point carries the V^3 drift and approaches
    # d(d-2)^3 - d = 378 instead
    pair = make_preset("hypersurface_p4", (6, 3))
    target_balanced = -log_chern_numbers(pair).c1_cubed_bar
    target_minimal = Fraction(6 * 4**3 - 6)
    gaps_b, gaps_m = [], []
    for n in (1009, 10007):
        part = find_asymptotic_partition(n, 3, seed=909, max_trials=10**5)
        gaps_b.append(abs(k3_root_cover(pair, part, "balanced") / n - target_balanced))
        gaps_m.append(abs(k3_root_cover(pair, part, "minimal") / n - target_minimal))
    assert gaps_b[1] < gaps_b[0] < 3
    assert gaps_m[1] < gaps_m[0] < 3


def test_k3_wall_recursion_chain_end_consistency():
    # with v = (1,1,1) at every triple point the recursion must land exactly
    # on the direct formula for the opposite chain end
    rng = random.Random(23)
    pair = make_preset("hypersurface_p4", (4, 3))
    for _ in range(12):
        n = rng.choice(list(primerange(11, 100)))
        part = random_h_partition(rng, n, 3, distinct=True)
        for j in range(3):
            for k in range(j + 1, 3):
                l = 3 - j - k
                from rootcover.hj import hj_expand

                wall = hj_expand(n, part.wall_seed(j, k))
                s = wall.s
                m_seq, n_seq = wall.m_seq, wall.n_seq

                def n1(a, b):
                    return Fraction(part.wall_seed(a, b) + 1 - n, n)

                djk_k = Fraction(pair.kz_dd(j, k)) + Fraction(n - 1, n) * (
                    pair.dd2[k][j] + pair.dd2[j][k] + pair.triple.get(j, k, l)
                )
                x1 = djk_k + n1(j, k) * pair.dd2[j][k] + n1(j, l) * pair.triple.get(j, k, l)
                x_end = djk_k + n1(k, j) * pair.dd2[k][j] + n1(k, l) * pair.triple.get(j, k, l)
                # |D_j|_k = T and |D_k|_j = T when all v-coordinates are 1
                a_j = pair.dd2[k][j] - pair.triple.get(j, k, l)
                a_k = pair.dd2[j][k] - pair.triple.get(j, k, l)
                mstar = m_seq[s + 1] - m_seq[s] - m_seq[1] + m_seq[0]
                nstar = n_seq[s + 1] - n_seq[s] - n_seq[1] + n_seq[0]
                assert x_end == x1 + Fraction(mstar * a_k - nstar * a_j, n)


def assert_k3_matches_recursion(pair, part, strategy):
    try:
        expected = k3_wall_recursion(pair, part, strategy)
    except RootcoverError as exc:
        with pytest.raises(type(exc)):
            k3_root_cover(pair, part, strategy)
        return
    assert k3_root_cover(pair, part, strategy) == expected, (part.nu, strategy)


def test_wall_sums_match_chain_definition():
    # s, D, S0, S1, S2 and the chain-end sum B as defined on the full expansion
    rng = random.Random(29)
    cases = [(2, 1), (3, 1), (3, 2), (7, 5), (101, 1), (101, 100), (101, 51)]
    for n in (17, 97, 1009, 10007):
        cases += [(n, rng.randrange(1, n)) for _ in range(40)]
    for n, q in cases:
        wall = hj_expand(n, q)
        m, nn, ks, s = wall.m_seq, wall.n_seq, wall.ks, wall.s
        M = [m[a] + nn[a] - n for a in range(s + 2)]

        def P(a):
            return m[a] - m[a - 1] - m[1] + m[0]

        def Q(a):
            return nn[a] - nn[a - 1] - nn[1] + nn[0]

        s0 = sum(M[a] * (2 - ks[a - 1]) for a in range(1, s + 1))
        s1 = sum(
            M[a] * ((1 - ks[a - 1]) * P(a) + P(a + 1) - (ks[a - 1] - 2) * m[a + 1])
            for a in range(1, s + 1)
        )
        s2 = sum(
            M[a] * ((1 - ks[a - 1]) * Q(a) + Q(a + 1) - (ks[a - 1] - 2) * nn[a + 1])
            for a in range(1, s + 1)
        )
        chain_end = M[1] + M[s] + n * wall.excess
        d = n * (wall.excess - s) + q + wall.q_inv
        assert chain_record(n, q) == (s, d, s0, s1, s2, chain_end), (n, q)
        if n >= 3:
            assert d == 12 * n * dedekind_fast(1, q, n), (n, q)


def test_k3_matches_wall_recursion_on_asymptotic_partitions():
    primes = list(primerange(17, 200)) + [1009, 2003]
    for r in (3, 4, 5, 8):
        pair = make_preset("hypersurface_p4", (6, r))
        for n in primes:
            try:
                part = find_asymptotic_partition(n, r, seed=r, max_trials=2000)
            except Exhausted:
                continue
            for strategy in ("minimal", "balanced"):
                assert_k3_matches_recursion(pair, part, strategy)


def test_k3_matches_wall_recursion_r20():
    pair = make_preset("hypersurface_p4", (6, 20))
    part = find_asymptotic_partition(10007, 20, seed=0, max_trials=10**4)
    for strategy in ("minimal", "balanced"):
        assert_k3_matches_recursion(pair, part, strategy)


def test_k3_matches_wall_recursion_planes():
    rng = random.Random(37)
    for r in (3, 4):
        pair = make_preset("planes_p3", r)
        for n in primerange(17, 120):
            part = random_h_partition(rng, n, r, distinct=True)
            for strategy in ("minimal", "balanced"):
                assert_k3_matches_recursion(pair, part, strategy)


def test_k3_matches_wall_recursion_sparse_pair():
    pair = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    assert not pair.pair_meets(2, 3)
    for part in SPARSE_PAIR_PARTS:
        for strategy in ("minimal", "balanced"):
            assert_k3_matches_recursion(pair, part, strategy)


def test_triple_points_match_public_route():
    # the kernel picks each point in integers from the q_matrix; it must give
    # the public route's point, and raise DegenerateCone with the same
    # message on exactly the cells where that route meets a degenerate cone
    rng = random.Random(47)
    small, large = list(primerange(11, 60)), list(primerange(200, 3000))
    outcomes = set()
    for r in (3, 4, 5, 8):
        pair = make_preset("hypersurface_p4", (6, r))
        for _ in range(40):
            n = rng.choice(small if rng.random() < 0.3 else large)
            part = random_h_partition(rng, n, r)
            for strategy in ("minimal", "balanced"):
                try:
                    expected = [
                        public_triple_point(part, key, strategy)
                        for key, _t in pair.triple.items_nonzero()
                    ]
                except DegenerateCone as exc:
                    with pytest.raises(DegenerateCone) as info:
                        _triple_points(pair, part, strategy)
                    assert str(info.value) == str(exc), (part.nu, strategy)
                    outcomes.add("degenerate")
                    continue
                assert _triple_points(pair, part, strategy) == expected, (part.nu, strategy)
                outcomes.add("point")
    assert outcomes == {"degenerate", "point"}


def derived_tables_by_direct_sums(pair):
    """Every table BasePair derives, summed directly from its raw tables."""
    r, dd2, c1_dd, tt = pair.r, pair.dd2, pair.c1_dd, pair.triple
    pairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    triples = [(j, k, l) for j, k in pairs for l in range(k + 1, r)]

    def through(j, k):
        return sum(tt.get(j, k, l) for l in range(r) if l not in (j, k))

    weights = [
        (j, k, dd2[k][j] + dd2[j][k] - c1_dd[j][k] + through(j, k)) for j, k in pairs
    ]
    curves = {key: pair.pair_curves.get(key, ()) for key in pairs}
    lengths = [
        (j, k, sum(c * (3 - 4 * g) for g, c in curves[j, k]) - through(j, k))
        for j, k in pairs
    ]
    e_0 = (
        pair.e_d
        - pair.e_sing_d
        - sum(c for cs in curves.values() for _g, c in cs)
        + 3 * sum(tt.get(*key) for key in triples)
    )
    return {
        "aggregates": (
            sum(pair.d3),
            sum(dd2[j][k] for j, k in pairs),
            sum(dd2[k][j] for j, k in pairs),
            sum(c1_dd[j][j] for j in range(r)),
            sum(c1_dd[j][k] for j, k in pairs),
            sum(pair.c1sq_d),
            sum(pair.c2_d),
        ),
        "triples": tuple((key, tt.get(*key)) for key in triples if tt.get(*key)),
        "meeting": tuple(
            (j, k)
            for j, k in pairs
            if c1_dd[j][k] or dd2[j][k] or dd2[k][j]
            or any(tt.get(j, k, l) for l in range(r) if l not in (j, k))
        ),
        "weights": tuple(w for w in weights if w[2]),
        "euler": (e_0, tuple(w for w in lengths if w[2])),
        "bound": sum(abs(dd2[k][j] + dd2[j][k] - c1_dd[j][k]) for j, k in pairs)
        + 3 * sum(abs(tt.get(*key)) for key in triples),
    }


def derived_tables(pair):
    return {
        "aggregates": (
            pair.sum_d3(), pair.sum_12(), pair.sum_21(), pair.c1_d2(),
            pair.c1_d11(), pair.c1sq_dred(), pair.c2_dred(),
        ),
        "triples": pair.triple.items_nonzero(),
        "meeting": pair.meeting_pairs,
        "weights": pair.pair_weights,
        "euler": pair.euler_weights,
        "bound": pair.chi_bound_weight,
    }


def test_base_pair_derived_tables_match_direct_sums():
    pairs = [make_preset("planes_p3", r) for r in range(1, 9)]
    pairs += [make_preset("hypersurface_p4", (d, r)) for d in range(1, 7) for r in (3, 5)]
    pairs.append(base_pair_from_json(json.dumps(SPARSE_PAIR_DOC)))
    for pair in pairs:
        assert derived_tables(pair) == derived_tables_by_direct_sums(pair), pair.label
        assert pair.log_chern == log_chern_numbers(pair), pair.label


def test_pickled_pair_keeps_its_tables_and_reports():
    # the sweep pool ships the pair to its workers by pickling
    pair = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    fresh = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    p4 = make_preset("hypersurface_p4", (6, 8))
    p4_parts = [
        find_asymptotic_partition(n, 8, seed=8, max_trials=5000) for n in (211, 1009)
    ]
    for base, parts in ((pair, SPARSE_PAIR_PARTS), (p4, p4_parts)):
        reports = [invariant_report(base, part, "balanced") for part in parts]
        copy = pickle.loads(pickle.dumps(base))
        assert "log_chern" in vars(copy) and "pair_weights" in vars(copy)
        assert derived_tables(copy) == derived_tables(base)
        for part, want in zip(parts, reports):
            assert invariant_report(copy, part, "balanced") == want
    assert [invariant_report(fresh, part, "balanced") for part in SPARSE_PAIR_PARTS] == [
        invariant_report(pair, part, "balanced") for part in SPARSE_PAIR_PARTS
    ]


def test_minimal_triple_points_are_smooth_for_triple_partitions():
    # r = 3 and sum(nu) = n forces {p+q}_n = 1, hence v = (1, 1, 1)
    rng = random.Random(13)
    from rootcover.toric import local_cone, select_v

    primes = list(primerange(7, 500))
    for _ in range(1000):
        n = rng.choice(primes)
        part = random_h_partition(rng, n, 3, distinct=True)
        spec = local_cone(n, *part.nu)
        assert (spec.p + spec.q) % n == 1
        assert select_v(spec, "minimal").coords == (1, 1, 1)


def test_euler_fixture():
    assert euler_root_cover(PLANES3, FIXTURE) == 18


def test_euler_varies_with_lengths():
    # for three planes e = 2(s_12 + s_13 + s_23); longer chains, larger e
    from rootcover.hj import hj_length

    for nu in [(1, 2, 8), (1, 1, 9)]:
        part = Partition(11, nu)
        total_s = sum(
            hj_length(11, part.q_matrix[j][k]) for j, k in [(0, 1), (0, 2), (1, 2)]
        )
        e = euler_root_cover(PLANES3, part)
        assert e == 2 * total_s
    assert euler_root_cover(PLANES3, Partition(11, (1, 1, 9))) == 28
    assert euler_root_cover(PLANES3, Partition(11, (1, 2, 8))) == 22


def test_closed_forms_fixtures():
    cf = closed_forms_p4(6, 7, FIXTURE)
    assert cf.k3 == 1836
    assert cf.slope_pair == (Fraction(63, 100), Fraction(54, 100))
    assert cf.euler_limit == -6 * 1 * (36 + 12 + 6)
    cf1 = closed_forms_p4(1, 7, FIXTURE)
    assert cf1.k3 == -14
    assert cf1.chi == 1
    assert cf1.slope_pair is None
    with pytest.raises(BadParams):
        closed_forms_p4(0, 7, FIXTURE)
    with pytest.raises(BadParams):
        closed_forms_p4(6, 11, Partition(11, (1, 2, 4)))


def test_closed_forms_match_pipeline_chi():
    rng = random.Random(3)
    for d in (1, 4, 6, 9):
        pair = make_preset("hypersurface_p4", (d, 3))
        for n in (11, 23, 47):
            part = random_h_partition(rng, n, 3, distinct=True)
            assert closed_forms_p4(d, n, part).chi == chi_root_cover(pair, part).chi


def test_slope_limit_towards_one_one():
    pairs = [closed_forms_p4(d, 7, FIXTURE).slope_pair for d in (10, 25, 50)]
    gaps = [abs(s1 - 1) + abs(s2 - 1) for s1, s2 in pairs]
    assert gaps[0] > gaps[1] > gaps[2]


def test_invariant_report_fixture():
    rep = invariant_report(PLANES3, FIXTURE)
    assert rep.slopes == (Fraction(7, 12), Fraction(3, 4))
    assert rep.log_slopes is None  # c1c2_bar = 0 for three planes
    assert rep.chi.chi == 1 and rep.k3 == -14 and rep.euler == 18
    doc = report_to_json_dict(rep)
    assert doc["slopes"] == ["7/12", "3/4"]
    assert doc["chi_breakdown"]["r1"] == "351/7"
    # every rational round-trips through the num/den encoding
    num, den = doc["chi_error_bound"].split("/")
    assert Fraction(int(num), int(den)) == rep.chi_error_bound


def test_report_integrality():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.choice(list(primerange(11, 100)))
        part = random_h_partition(rng, n, 3, distinct=True)
        rep = invariant_report(PLANES3, part)
        assert rep.chi.chi.denominator == 1
        assert rep.euler.denominator == 1


def test_chi_error_bound_covers_actual_gap():
    pair = make_preset("planes_p3", 4)
    bars = log_chern_numbers(pair)
    for n in (101, 499):
        part = find_asymptotic_partition(n, 4, 11, 10**4)
        chi = chi_root_cover(pair, part).chi
        gap = abs(chi / n - bars.c1c2_bar / 24)
        assert gap <= chi_error_bound(pair, part)


def test_dedekind_reduction_behind_error_bound():
    # |d(nu_j, nu_k, n)| = |d(1, q_jk, n)|: substituting i -> nu_j^{-1} i gives
    # d(nu_j, nu_k, n) = d(1, q_kj', ...) = d(1, (q_jk)', n), then inverse
    # symmetry d(1, q', n) = d(1, q, n)
    rng = random.Random(19)
    for _ in range(200):
        n = rng.choice(list(primerange(5, 400)))
        nu_j, nu_k = rng.randrange(1, n), rng.randrange(1, n)
        q = q_of_pair(n, nu_j, nu_k)
        assert abs(dedekind_fast(nu_j, nu_k, n)) == abs(dedekind_fast(1, q, n))


def test_chi_over_n_reaches_the_limit():
    # chi/n -> -d(d-2)(d-1)^2/24 = -25 for the degree-6 family
    pair = make_preset("hypersurface_p4", (6, 3))
    part = find_asymptotic_partition(10007, 3, 909, 10**4)
    chi = chi_root_cover(pair, part).chi
    assert abs(chi / Fraction(10007) - (-25)) < Fraction(1, 2)


def test_search_hands_its_chain_records_to_the_partition():
    # The search seeds chain_records from its membership memo (the dual of
    # each tested record); they must equal a fresh pass over the wall chains,
    # also after pickling, and leave equality, hash and repr alone.
    cells = 0
    for r in (3, 4, 5, 8):
        pair = make_preset("hypersurface_p4", (6, r))
        for n in (61, 211, 1009, 4001):
            for seed in (0, 1, 7):
                try:
                    part = find_asymptotic_partition(n, r, seed, 5000)
                except Exhausted:
                    continue
                cells += 1
                assert "chain_records" in vars(part)
                fresh = Partition(n, part.nu)
                assert "chain_records" not in vars(fresh)
                assert part == fresh and hash(part) == hash(fresh)
                assert repr(part) == repr(fresh)
                assert part.chain_records == fresh.chain_records, (n, r, seed)
                copy = pickle.loads(pickle.dumps(part))
                assert copy == fresh and copy.chain_records == fresh.chain_records
                for strategy in ("minimal", "balanced"):
                    want = invariant_report(pair, Partition(n, part.nu), strategy)
                    assert invariant_report(pair, part, strategy) == want
                    assert invariant_report(pair, copy, strategy) == want
    assert cells >= 30


def chi_error_bound_by_fractions(pair, part):
    """chi_error_bound as Fraction arithmetic on the report's rationals."""
    n = part.n
    chi_val = chi_root_cover(pair, part)
    bars = log_chern_numbers(pair)
    drift = pair.chi - (chi_val.r1 + chi_val.r2) / (12 * n) - bars.c1c2_bar / 24
    scale = 1 << 64
    root = Fraction(math.isqrt(math.ceil(Fraction(n) * scale * scale)) + 1, scale)
    return abs(drift) + (3 * root + 5) / (2 * n) * pair.chi_bound_weight


def test_chi_error_bound_and_log_slopes_match_fraction_formulas():
    rng = random.Random(77)
    primes = list(primerange(17, 3000))
    pairs = [make_preset("hypersurface_p4", (d, 3)) for d in range(1, 7)]
    pairs += [make_preset("hypersurface_p4", (6, r)) for r in (4, 5, 8)]
    pairs += [make_preset("planes_p3", r) for r in (3, 4)]
    cells = [(base_pair_from_json(json.dumps(SPARSE_PAIR_DOC)), SPARSE_PAIR_PARTS)]
    for pair in pairs:
        parts = []
        for n in rng.sample(primes, 6):
            try:
                parts.append(find_asymptotic_partition(n, pair.r, rng.randrange(99), 3000))
            except Exhausted:
                pass
        cells.append((pair, parts))
    checked = 0
    for pair, parts in cells:
        bars = log_chern_numbers(pair)
        want_slopes = None
        if bars.c1c2_bar:
            want_slopes = (bars.c1_cubed_bar / bars.c1c2_bar, bars.c3_bar / bars.c1c2_bar)
        assert pair.log_slopes == want_slopes
        for part in parts:
            want = chi_error_bound_by_fractions(pair, part)
            assert chi_error_bound(pair, part) == want
            report = invariant_report(pair, part)
            assert report.chi_error_bound == want
            assert report.log_slopes == want_slopes
            checked += 1
    assert checked >= 40
