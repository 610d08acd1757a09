import collections
import itertools
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
    PairPlan,
    TripleTable,
    base_pair_from_json,
    log_chern_numbers,
    make_preset,
)
from rootcover.toric import _excluded_shape, local_cone, select_v
from test_logchern import bracket_sums

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
    "e_d": 14,
    "e_sing_d": -10,
}
SPARSE_PAIR_PARTS = (Partition(101, (3, 17, 40, 55)), Partition(103, (5, 60, 22, 91)))


def pair_meets(pair, j, k):
    """Whether D_j and D_k have a nonzero product, straight from the tables:
    c1 D_j D_k, D_j D_k^2, D_j^2 D_k or any triple D_jkl."""
    if pair.c1_dd[j][k] or pair.dd2[j][k] or pair.dd2[k][j]:
        return True
    return any(pair.triple.get(j, k, l) for l in range(pair.r) if l not in (j, k))


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
    b = bracket_sums(pair)
    r1 = (
        Fraction((n - 1) ** 2, 2 * n) * b.d3
        + Fraction((n - 1) * (2 * n - 1), 2 * n) * (b.d12 + b.d21)
        + Fraction(3 * (n - 1), 2) * b.d111
    )
    r2 = Fraction(1 - n, 2) * (
        Fraction(2 * n - 1, n) * b.c1_d2 + 3 * b.c1_d11
    ) + Fraction(n - 1, 2) * (b.c1sq_d + b.c2_d)

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
            f"triple ({a},{b},{c}): excluded cone shape {_excluded_shape(*spec)}"
        )
    try:
        return select_v(spec, strategy)
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

    b = bracket_sums(pair)
    dred3 = b.d3 + 3 * (b.d12 + b.d21) + 6 * b.d111
    k_cubed = (
        -pair.c1_cubed
        + 3 * t_frac * b.c1sq_d
        - 3 * t_frac**2 * (b.c1_d2 + 2 * b.c1_d11)
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
        return Fraction(part.q_matrix[l][j] + 1 - n, n)

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
            if not pair_meets(pair, j, k):
                continue
            wall = hj_expand(n, part.q_matrix[k][j])
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
        label="r3-test",
    )
    part = Partition(13, (1, 5))
    assert q_of_pair(13, 1, 5) == 5
    assert chi_root_cover(pair, part).r3 == 0


def test_chi_incompatible_partition():
    for chi_fn in (chi_root_cover, chi_error_bound):
        with pytest.raises(IncompatiblePartition):
            chi_fn(PLANES3, Partition(7, (1, 2)))
        with pytest.raises(IncompatiblePartition):
            chi_fn(PLANES3, Partition(11, (1, 2, 4)))  # sum != 0 mod 11


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

                wall = hj_expand(n, part.q_matrix[k][j])
                s = wall.s
                m_seq, n_seq = wall.m_seq, wall.n_seq

                def n1(a, b):
                    return Fraction(part.q_matrix[b][a] + 1 - n, n)

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
    assert not pair_meets(pair, 2, 3)
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


def k3_per_triple_oracle(pair, part, strategy="minimal"):
    """K^3 by the kernel's earlier one-loop form, as an oracle for the split.

    The same integer formula as ``k3_root_cover``, in the shape it had before
    it was split into a per-pair part and a per-triple-point part: a loop
    over the pairs without their triple points, then one loop over the
    triple points that looks up the chain records of its three pairs by key,
    adds their q S0 wall-seed terms and puts each numerator over its own
    v1 v2 v3 before one lcm of all of them.  The points come from the public
    route, so a degenerate cone raises its DegenerateCone from there.
    """
    _check_compatible(pair, part)
    n = part.n
    dd2 = pair.dd2
    q = part.q_matrix
    chains = part.chain_records
    points = [
        public_triple_point(part, key, strategy) for key, _t in pair.triple.items_nonzero()
    ]
    b = bracket_sums(pair)
    dred3 = b.d3 + 3 * (b.d12 + b.d21) + 6 * b.d111
    total = (
        -pair.c1_cubed * n**3
        + 3 * n * n * (n - 1) * b.c1sq_d
        - 3 * n * (n - 1) ** 2 * (b.c1_d2 + 2 * b.c1_d11)
        + (n - 1) ** 3 * dred3
    )
    for j, k in itertools.combinations(range(pair.r), 2):
        if not pair_meets(pair, j, k):
            continue
        _s, _d, s0, s1, s2, chain_end = chains[j, k]
        dd_sum = dd2[k][j] + dd2[j][k]
        k_class = n * pair.kz_dd(j, k) + (n - 1) * dd_sum
        x1 = k_class + (q[k][j] + 1 - n) * dd2[j][k]
        total -= 2 * k_class * chain_end
        total -= s0 * (dd_sum + x1) + dd2[j][k] * s1 - dd2[k][j] * s2
    dens, nums = [], []
    for ((a, b, c), t), (va, vb, vc) in zip(pair.triple.items_nonzero(), points):
        _s, _d, ab0, ab1, ab2, ab_end = chains[a, b]
        _s, _d, ac0, ac1, ac2, ac_end = chains[a, c]
        _s, _d, bc0, bc1, bc2, bc_end = chains[b, c]
        v_sum = va + vb + vc
        total -= t * (
            2 * (v_sum - 1) * (ab_end + ac_end + bc_end)
            + q[c][a] * ab0
            + q[b][a] * ac0
            + q[a][b] * bc0
        )
        nums.append(
            t
            * (
                (v_sum - n) ** 3
                + ((ab0 - ab2) * va + (ab0 + ab1) * vb) * va * vb
                + ((ac0 - ac2) * va + (ac0 + ac1) * vc) * va * vc
                + ((bc0 - bc2) * vb + (bc0 + bc1) * vc) * vb * vc
            )
        )
        dens.append(va * vb * vc)
    den = math.lcm(*dens)
    total = total * den + sum(num * (den // d) for num, d in zip(nums, dens))
    return Fraction(total, n * n * den)


def with_sparse_triples(pair):
    """The pair with its triple table written as explicit entries."""
    return pair._replace(triple=TripleTable(pair.r, entries=dict(pair.triple.items_nonzero())))


def test_k3_equals_the_per_triple_oracle():
    # the split kernel against its earlier one-loop form, exactly, on every
    # preset cell below and on each preset with its triple table written as
    # entries (both forms take one path), and on the sparse fixture
    # (a zero triple, pairs that meet without a triple point, a pair that
    # does not meet); an excluded cone must raise the same DegenerateCone
    # text on both
    rng = random.Random(61)
    presets = [make_preset("planes_p3", r) for r in range(3, 7)]
    presets += [make_preset("hypersurface_p4", (d, r)) for d in (4, 6) for r in range(3, 9)]
    presets.append(base_pair_from_json(json.dumps(SPARSE_PAIR_DOC)))
    outcomes = collections.Counter()
    for preset in presets:
        sparse = with_sparse_triples(preset)
        assert sparse.triple.constant is None
        assert sparse.plan == preset.plan
        for n in primerange(17, 212):
            part = random_h_partition(rng, n, preset.r, distinct=rng.random() < 0.7)
            for strategy in ("minimal", "balanced"):
                try:
                    want = k3_per_triple_oracle(preset, part, strategy)
                except DegenerateCone as exc:
                    for pair in (preset, sparse):
                        with pytest.raises(DegenerateCone) as info:
                            k3_root_cover(pair, part, strategy)
                        assert str(info.value) == str(exc), (pair.label, part, strategy)
                    outcomes["degenerate"] += 1
                    continue
                for pair in (preset, sparse):
                    assert k3_root_cover(pair, part, strategy) == want, (
                        pair.label, part, strategy, pair.triple.constant
                    )
                outcomes[strategy] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_k3_plan_indexes_its_pairs():
    # the plan has one row per pair j < k, in order, whether or not the
    # divisors meet; a pair that does not meet has K^3 constants 0; every
    # triple of the plan names the rows of its three pairs; the plan holds
    # nothing else of the triple table but the sums over l and the cube's sum
    pairs = [make_preset("hypersurface_p4", (6, r)) for r in (3, 4, 8)]
    pairs += [base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))]
    pairs += [with_sparse_triples(make_preset("planes_p3", 5))]
    for pair in pairs:
        plan = pair.plan
        keys = [row[:2] for row in plan.rows]
        assert keys == list(itertools.combinations(range(pair.r), 2))
        for j, k, _w, _c, kz, dd_sum, djk, dkj in plan.rows:
            assert (kz, djk, dkj) == (pair.kz_dd(j, k), pair.dd2[j][k], pair.dd2[k][j])
            assert dd_sum == djk + dkj
            if not pair_meets(pair, j, k):
                assert (kz, djk, dkj) == (0, 0, 0)
        for ((a, b, c), t), entry in zip(pair.triple.items_nonzero(), plan.triples):
            assert entry[:4] == (a, b, c, t)
            assert [keys[i] for i in entry[4:]] == [(a, b), (a, c), (b, c)]
        assert len(plan.triples) == len(pair.triple.items_nonzero())
    assert not pair_meets(pairs[3], 2, 3)  # the sparse pair has such a row
    assert PairPlan._fields == ("brackets", "cube", "e_0", "rows", "triples")


def derived_tables_by_direct_sums(pair):
    """Every table BasePair derives, summed directly from its raw tables."""
    r, dd2, c1_dd, tt = pair.r, pair.dd2, pair.c1_dd, pair.triple
    pairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    triples = [(j, k, l) for j, k in pairs for l in range(k + 1, r)]

    def through(j, k):
        return sum(tt.get(j, k, l) for l in range(r) if l not in (j, k))

    curves = {key: pair.pair_curves.get(key, ()) for key in pairs}
    rows = tuple(
        (
            j,
            k,
            dd2[k][j] + dd2[j][k] - c1_dd[j][k] + through(j, k),
            sum(c * (3 - 4 * g) for g, c in curves[j, k]) - through(j, k),
            -c1_dd[j][k],
            dd2[j][k] + dd2[k][j],
            dd2[j][k],
            dd2[k][j],
        )
        for j, k in pairs
    )
    b = bracket_sums(pair)
    # e(D) = c3 - c3_bar and e(Sing D) = sum_{j<k} e(D_j D_k) - 2 D^[1,1,1]
    e_d = b.c2_d - b.c1_d2 - b.c1_d11 + b.d3 + b.d12 + b.d21 + b.d111
    e_sing_d = b.c1_d11 - b.d12 - b.d21 - 2 * b.d111
    e_0 = (
        e_d
        - e_sing_d
        - sum(c for cs in curves.values() for _g, c in cs)
        + 3 * sum(tt.get(*key) for key in triples)
    )
    # D_red^3 = sum_j D_j^3 + 3 sum_{j != k} D_j D_k^2 + 6 D^[1,1,1]
    cube = (
        pair.c1_cubed,
        sum(pair.c1sq_d),
        sum(c1_dd[j][j] for j in range(r)) + 2 * sum(c1_dd[j][k] for j, k in pairs),
        sum(pair.d3)
        + 3 * sum(dd2[j][k] for j in range(r) for k in range(r) if j != k)
        + 6 * sum(tt.get(*key) for key in triples),
    )
    return {
        "brackets": (
            b.d3, b.d12 + b.d21, b.d111, b.c1_d2, b.c1_d11, b.c1sq_d, b.c2_d
        ),
        "e_d": e_d,
        "e_sing_d": e_sing_d,
        "triples": tuple((key, tt.get(*key)) for key in triples if tt.get(*key)),
        "rows": rows,
        "e_0": e_0,
        "cube": cube,
        "bound": sum(abs(dd2[k][j] + dd2[j][k] - c1_dd[j][k]) for j, k in pairs)
        + 3 * sum(abs(tt.get(*key)) for key in triples),
    }


def derived_tables(pair):
    plan = pair.plan
    return {
        "brackets": plan.brackets,
        "e_d": pair.e_d,
        "e_sing_d": pair.e_sing_d,
        "triples": pair.triple.items_nonzero(),
        "rows": plan.rows,
        "e_0": plan.e_0,
        "cube": plan.cube,
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
    # a pair and its cached tables survive pickling, as when a caller ships
    # it to a spawned process (the sweep's forked workers inherit it instead)
    pair = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    fresh = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    p4 = make_preset("hypersurface_p4", (6, 8))
    p4_parts = [
        find_asymptotic_partition(n, 8, seed=8, max_trials=5000) for n in (211, 1009)
    ]
    for base, parts in ((pair, SPARSE_PAIR_PARTS), (p4, p4_parts)):
        reports = [invariant_report(base, part, "balanced") for part in parts]
        copy = pickle.loads(pickle.dumps(base))
        assert "log_chern" in vars(copy) and "plan" in vars(copy)
        assert vars(copy)["plan"] == base.plan
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
        assert select_v(spec, "minimal") == (1, 1, 1)


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


def euler_by_docstring(pair, part):
    """e(X_n) by the formula of ``euler_root_cover``'s docstring, summed
    directly over every pair with curves and every nonzero triple, with the
    chain lengths s_jk = l(q_jk, n) from ``hj_expand``."""
    n = part.n

    def s(j, k):
        return len(hj_expand(n, part.q_matrix[j][k]).ks)

    e = n * (pair.c3 - pair.e_d) + pair.e_d - pair.e_sing_d
    for (j, k), curves in pair.pair_curves.items():
        for genus, count in curves:
            e += count * (s(j, k) * (3 - 4 * genus) - 1)
    for (j, k, l), t in pair.triple.items_nonzero():
        e -= (s(j, k) + s(j, l) + s(k, l) - 3) * t
    return e


def test_euler_counts_the_curves_of_a_pair_that_does_not_meet():
    # (2, 3) of the sparse pair has no nonzero product, so it is not a
    # meeting pair; given curves, e still counts them through its row of
    # the plan, while chi and K^3 stay those of the pair without them
    doc = json.loads(json.dumps(SPARSE_PAIR_DOC))
    doc["pair_curves"].append([2, 3, [[1, 2], [0, 1]]])
    pair = base_pair_from_json(json.dumps(doc))
    base = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    assert not pair_meets(pair, 2, 3) and pair.pair_curves[2, 3]
    for part in SPARSE_PAIR_PARTS:
        e = euler_root_cover(pair, part)
        assert e == euler_by_docstring(pair, part)
        assert euler_root_cover(base, part) == euler_by_docstring(base, part) != e
        assert chi_root_cover(pair, part) == chi_root_cover(base, part)
        for strategy in ("minimal", "balanced"):
            assert k3_root_cover(pair, part, strategy) == k3_root_cover(base, part, strategy)


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


def test_slopes_are_the_fraction_quotients():
    # invariant_report reduces -K^3/(24 chi) and e/(24 chi) once each
    rng = random.Random(41)
    primes = list(primerange(17, 2000))
    sparse = base_pair_from_json(json.dumps(SPARSE_PAIR_DOC))
    cells = [(sparse, part) for part in SPARSE_PAIR_PARTS]
    pairs = [make_preset("planes_p3", r) for r in (3, 4, 5)]
    pairs += [make_preset("hypersurface_p4", (d, r)) for d, r in ((6, 3), (6, 4), (5, 8))]
    for pair in pairs:
        for n in rng.sample(primes, 4):
            try:
                cells.append((pair, find_asymptotic_partition(n, pair.r, rng.randrange(99), 3000)))
            except Exhausted:
                pass
    signs = collections.Counter()
    for pair, part in cells:
        for strategy in ("minimal", "balanced"):
            try:
                report = invariant_report(pair, part, strategy)
            except DegenerateCone:
                continue
            chi = report.chi.chi
            assert chi != 0
            signs[chi > 0, strategy] += 1
            assert report.slopes == (-report.k3 / (24 * chi), report.euler / (24 * chi))
    assert all(signs[sign, strategy] >= 5 for sign in (True, False)
               for strategy in ("minimal", "balanced")), signs


def test_slopes_are_none_when_chi_vanishes(monkeypatch):
    import rootcover.invariants as inv

    chi_root_cover = inv.chi_root_cover

    def zero_chi(pair, part):
        value = chi_root_cover(pair, part)
        return ChiValue(Fraction(0), value.r1, value.r2, value.r3)

    monkeypatch.setattr(inv, "chi_root_cover", zero_chi)
    report = invariant_report(PLANES3, FIXTURE)
    assert report.chi.chi == 0 and report.k3 == -14 and report.euler == 18
    assert report.slopes is None
    assert report_to_json_dict(report)["slopes"] is None


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
    # The search seeds q_matrix from the negative inverses its test computed
    # and chain_records from its membership memo (the dual of each tested
    # record); both must equal a fresh Partition's, also after pickling,
    # and leave equality, hash and repr alone, at moduli from small to just
    # above 2^63.
    searches = [
        (n, r, seed, 5000)
        for r in (3, 4, 5, 8)
        for n in (61, 211, 1009, 4001)
        for seed in (0, 1, 7)
    ]
    searches += [
        (53, 8, 0, 50000),
        (1009, 8, 4, 10000),
        (10**18 + 9, 8, 1, 10000),
        (9223372036854775837, 8, 0, 10000),
    ]
    cells = 0
    for n, r, seed, trials in searches:
        pair = make_preset("hypersurface_p4", (6, r))
        try:
            part = find_asymptotic_partition(n, r, seed, trials)
        except Exhausted:
            continue
        cells += 1
        assert "q_matrix" in vars(part) and "chain_records" in vars(part)
        fresh = Partition(n, part.nu)
        assert not {"q_matrix", "chain_records"} & set(vars(fresh))
        assert part == fresh and hash(part) == hash(fresh)
        assert repr(part) == repr(fresh)
        assert part.q_matrix == fresh.q_matrix, (n, r, seed)
        assert part.chain_records == fresh.chain_records, (n, r, seed)
        assert list(part.chain_records) == list(fresh.chain_records)
        copy = pickle.loads(pickle.dumps(part))
        assert "q_matrix" in vars(copy) and "chain_records" in vars(copy)
        assert copy == fresh and copy.q_matrix == fresh.q_matrix
        assert copy.chain_records == fresh.chain_records
        for strategy in ("minimal", "balanced"):
            want = invariant_report(pair, Partition(n, part.nu), strategy)
            assert invariant_report(pair, part, strategy) == want
            assert invariant_report(pair, copy, strategy) == want
    assert cells >= 34


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
