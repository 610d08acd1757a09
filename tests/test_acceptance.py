"""Acceptance suite: one test per criterion, every tolerance pinned here.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failure raises before the line is printed.
"""

import math
import random
from fractions import Fraction

from sympy import isprime, primerange

from rootcover.asympt import (
    Partition,
    find_asymptotic_partition,
    girstmair_member,
    girstmair_set,
)
from rootcover.dedekind import barkan_residual, dedekind_fast, dedekind_sum, power_sums
from rootcover.exact import log_enclosure
from rootcover.hj import hj_dual, hj_evaluate, hj_expand, hj_length
from rootcover.invariants import (
    chi_eigenspace_oracle,
    chi_error_bound,
    chi_root_cover,
    closed_forms_p4,
    euler_root_cover,
    invariant_report,
    k3_root_cover,
)
from rootcover.logchern import (
    BasePair,
    TripleTable,
    log_chern_numbers,
    make_preset,
)
from rootcover.toric import (
    LocalConeSpec,
    cyclic_resolution,
    local_intersection_table,
    max_slope,
    select_v,
)
import rootcover.toric as toric
from test_exact import leq_sqrt_bound
from test_logchern import bracket_sums, nonsingular_cover_chern
from test_toric import ray_vector


def _passed(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


def _evaluate_convergents(ks):
    """Independent nested-fraction oracle: exact (num, den) in lowest terms."""
    num, den = ks[-1], 1
    for k in reversed(ks[:-1]):
        num, den = k * num - den, num
    g = math.gcd(num, den)
    return num // g, den // g


def test_criterion_01_hj_structural_suite():
    """All n <= 2000, every q coprime to n: the structural invariants, the
    evaluation round-trip, and dual reversal hold exactly."""
    checked = 0
    for n in range(2, 2001):
        prime = isprime(n)
        ks_by_q = {}
        for q in range(1, n):
            if math.gcd(q, n) != 1:
                continue
            e = hj_expand(n, q)
            m, nn, s = e.m_seq, e.n_seq, e.s
            # chains, endpoints, recurrences
            assert m[0] == n and m[1] == q and m[s] == 1 and m[s + 1] == 0
            assert nn[0] == 0 and nn[1] == 1 and nn[s + 1] == n
            for a in range(1, s + 1):
                k = e.ks[a - 1]
                assert k >= 2
                assert m[a + 1] == k * m[a] - m[a - 1] and m[a + 1] < m[a]
                assert nn[a + 1] == k * nn[a] - nn[a - 1] and nn[a + 1] > nn[a]
            # determinant identity and coprimality
            for a in range(s + 1):
                assert m[a] * nn[a + 1] - m[a + 1] * nn[a] == n
                assert math.gcd(m[a], m[a + 1]) == 1
            for a in range(1, s + 1):
                # gcd(m_a, n_a) = 1 needs n prime; in general it divides n
                # (counterexample n = 6, q = 5: m_2 = 4, n_2 = 2)
                g = math.gcd(m[a], nn[a])
                assert (g == 1) if prime else (n % g == 0)
            # evaluation round-trip, via an independent convergent oracle
            assert _evaluate_convergents(e.ks) == (n, q)
            if n <= 300:
                assert hj_evaluate(e.ks) == Fraction(n, q)
            # dual reversal, each inverse pair checked once
            ks_by_q[q] = e.ks
            q_inv = e.q_inv
            assert (q_inv * q) % n == 1
            if q_inv in ks_by_q:
                assert ks_by_q[q_inv] == tuple(reversed(e.ks))
            checked += 1
    assert hj_dual(hj_expand(7, 5)).ks == (3, 2, 2)
    _passed(1, f"HJ structural suite over {checked} expansions (n <= 2000)")


def test_criterion_02_dedekind_suite():
    """Fast evaluator vs the defining sum (dense for n <= 2000, spot checks up
    to 10^6), and the power-sum identities vs brute force."""
    rng = random.Random(20260810)
    # dense small range: exhaustive over all coprime pairs, n <= 60
    for n in range(3, 61):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            for b in range(1, n):
                if math.gcd(b, n) != 1:
                    continue
                assert dedekind_fast(a, b, n) == dedekind_sum([a, b], n)
    # 10^4 random coprime pairs, n <= 2000 (density concentrated low), plus
    # 100 spot checks with n up to 10^6
    pairs = 0
    while pairs < 10**4:
        n = rng.randrange(3, 2001)
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
            continue
        assert dedekind_fast(a, b, n) == dedekind_sum([a, b], n)
        pairs += 1
    spots = 0
    while spots < 100:
        n = rng.randrange(2001, 10**6 + 1)
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
            continue
        assert dedekind_fast(a, b, n) == dedekind_sum([a, b], n)
        spots += 1
    # power-sum identities vs brute force, 500 random (a, b, c, n)
    identities = 0
    while identities < 500:
        n = rng.randrange(3, 501)
        a, b, c = (rng.randrange(1, n) for _ in range(3))
        if any(math.gcd(x, n) != 1 for x in (a, b, c)):
            continue
        s11 = sum((i * a % n) * (i * b % n) for i in range(1, n))
        s21 = sum((i * a % n) ** 2 * (i * b % n) for i in range(1, n))
        s111 = sum((i * a % n) * (i * b % n) * (i * c % n) for i in range(1, n))
        assert power_sums(a, b, c, n) == (s11, s21, s111)
        identities += 1
    _passed(2, "dedekind_fast == defining sum (10^4 pairs + spot checks to 1e6), "
               "power-sum identities vs brute force (500 cells)")


def test_criterion_03_barkan_corrected():
    """12 d(1,q,n) + s = sum(k-2) + (q+q')/n for all q, all primes n <= 1000;
    the uncorrected relation fails already at (7, 5)."""
    # worked case: 12*(-1/14) + 3 = 15/7 = 1 + 8/7
    assert 12 * dedekind_fast(1, 5, 7) + 3 == Fraction(15, 7)
    assert Fraction(15, 7) == 1 + Fraction(5 + 3, 7)
    # the relation without the factor 12 is numerically false
    assert dedekind_fast(1, 5, 7) + 3 != 1 + Fraction(5 + 3, 7)
    count = 0
    for n in primerange(3, 1001):
        for q in range(1, n):
            assert barkan_residual(n, q) == 0
            count += 1
    _passed(3, f"corrected Barkan relation exact on {count} (n, q) cells")


def test_criterion_04_girstmair_sets():
    """Exact complement bound sqrt(n) log(4n) for all primes 17 <= n <= 5000,
    plus the O_17 membership fixtures."""
    on17 = girstmair_set(17)
    assert 16 not in on17.members and 2 in on17.members
    assert hj_length(17, 16) == 16 and not leq_sqrt_bound(16, 3, 17, 2)
    worst = Fraction(0)
    for n in primerange(17, 5001):
        on = girstmair_set(n)
        # re-verify the bound here (girstmair_set also certifies it)
        log_lo, _ = log_enclosure(4 * n)
        assert Fraction(on.complement_size) ** 2 <= n * log_lo * log_lo
        worst = max(worst, Fraction(on.complement_size) ** 2 / (n * log_lo * log_lo))
        # inverse closure: exhaustive up to 2000, spot checks beyond
        if n <= 2000:
            members = on.members
            assert all((q in members) == (pow(q, -1, n) in members)
                       for q in range(1, n))
        else:
            for q in list(on.members)[:20]:
                assert pow(q, -1, n) in on.members
    _passed(4, f"complement bound exact for all primes in [17, 5000] "
               f"(worst ratio {float(worst):.3f}); O_17 fixtures hold")


def test_criterion_05_toric_suite():
    """500 random non-degenerate cones x both strategies: determinant =
    multiplicity, unimodular exterior walls, type divisibility, effectivity;
    smooth nef case for {p+q}_n = 1; balanced sum and slope bounds."""
    rng = random.Random(5050)
    primes = list(primerange(5, 500))
    cells = 0
    while cells < 500:
        n = rng.choice(primes)
        p, q = rng.randrange(1, n), rng.randrange(1, n)
        spec = LocalConeSpec(n, p, q)
        if spec.is_degenerate:
            continue
        cells += 1
        for strategy in ("minimal", "balanced"):
            v = select_v(spec, strategy)
            res = cyclic_resolution(spec, v)  # certifies det = mult and walls
            v_vec = toric._lattice_comb(spec.rays, v, n)
            for c in res.cones:
                e0 = ray_vector(res, c.wall, c.alpha)
                e1 = ray_vector(res, c.wall, c.alpha + 1)
                assert abs(toric._det3(v_vec, e0, e1)) == c.mult
                assert toric._minor_gcd(e0, e1) == 1
                if c.mult > 1:
                    for i in range(3):
                        assert (
                            c.type_a * e0[i] + c.type_b * e1[i] + v_vec[i]
                        ) % c.mult == 0
            for ((j, k), a), mult in res.inner_wall_mults.items():
                e = res.walls[(j, k)]
                vj, vk = v[j - 1], v[k - 1]
                vl = v[6 - j - k - 1]
                assert mult == math.gcd(vj * e.n_seq[a] - vk * e.m_seq[a], vl)
                assert e.m_seq[a] + e.n_seq[a] - 1 >= 0  # effectivity
            assert sum(v) - 1 >= 0
            if strategy == "balanced":
                assert sum(v) == n
    # {p+q}_n = 1 with the minimal point: smooth and K-nonnegative
    smooth = 0
    while smooth < 40:
        n = rng.choice(primes)
        p = rng.randrange(2, n - 1)
        spec = LocalConeSpec(n, p, (1 - p) % n)
        if spec.is_degenerate:
            continue
        res = cyclic_resolution(spec, select_v(spec, "minimal"))
        assert all(c.mult == 1 for c in res.cones)
        tab = local_intersection_table(res)
        assert all(val == 0 for val in tab.k_cl.values())
        assert all(val >= 0 for val in tab.k_cjk.values())
        smooth += 1
    # balanced slope bound at primes >= 10^3
    for n in (1009, 2003, 4001):
        done = 0
        while done < 15:
            p, q = rng.randrange(1, n), rng.randrange(1, n)
            spec = LocalConeSpec(n, p, q)
            if spec.is_degenerate:
                continue
            v = select_v(spec, "balanced")
            assert sum(v) == n
            assert max_slope(v) <= Fraction(31, 10)
            done += 1
    _passed(5, "500 random cones x 2 strategies fully certified; smooth nef "
               "case and balanced slope bound (<= 3.1) hold")


def test_criterion_06_chi_exactness():
    """chi_root_cover == chi_eigenspace_oracle on 200 randomized cells, both
    integers; the worked fixture has the exact R-breakdown."""
    fixture = chi_root_cover(make_preset("planes_p3", 3), Partition(7, (1, 2, 4)))
    assert fixture.chi == 1
    assert (fixture.r1, fixture.r2, fixture.r3) == (
        Fraction(351, 7), Fraction(162, 7), Fraction(-9, 7),
    )
    rng = random.Random(606)
    primes = list(primerange(5, 500))
    for cell in range(200):
        n = rng.choice(primes)
        if cell % 2 == 0:
            pair, r = make_preset("planes_p3", 3), 3
        else:
            pair, r = make_preset("hypersurface_p4", (rng.randrange(1, 9), 4)), 4
        while True:
            parts = [rng.randrange(1, n) for _ in range(r - 1)]
            last = (-sum(parts)) % n
            if last:
                part = Partition(n, tuple(parts) + (last,))
                break
        a = chi_root_cover(pair, part).chi
        b = chi_eigenspace_oracle(pair, part)
        assert a == b
        assert a.denominator == 1
    _passed(6, "chi closed form == eigenspace oracle on 200 cells (integers); "
               "fixture breakdown (351/7, 162/7, -9/7)")


def test_criterion_07_k3_closed_form():
    """k3_root_cover(minimal) equals d(d-3)(nd^2-3nd+3n-9d+18-3 sum(k-2)) for
    d in 1..10, all primes n <= 200, 50 random partitions each."""
    assert k3_root_cover(make_preset("planes_p3", 3), Partition(7, (1, 2, 4))) == -14
    assert (
        k3_root_cover(make_preset("hypersurface_p4", (6, 3)), Partition(7, (1, 2, 4)))
        == 1836
    )
    rng = random.Random(707)
    primes = [n for n in primerange(7, 201)]
    cells = 0
    for d in range(1, 11):
        pair = make_preset("hypersurface_p4", (d, 3))
        for _ in range(50):
            n = rng.choice(primes)
            while True:
                a = rng.randrange(1, n - 1)
                b = rng.randrange(1, n - a)
                c = n - a - b
                if c > 0 and len({a, b, c}) == 3:
                    break
            part = Partition(n, (a, b, c))
            expected = closed_forms_p4(d, n, part).k3
            assert k3_root_cover(pair, part, "minimal") == expected
            cells += 1
    _passed(7, f"K^3 pipeline == closed form on {cells} cells (d <= 10, n <= 200)")


def test_criterion_08_euler_fixture():
    """e(X) = 18 for (P^3, 3 planes), n = 7, nu = (1,2,4), with an independent
    recount of every ingredient."""
    # inclusion-exclusion over the incidence poset of 3 general planes:
    # 3 copies of P^2, 3 lines, 1 triple point
    e_d = 3 * 3 - 3 * 2 + 1 * 1
    # Sing D = 3 concurrent lines
    e_sing = 3 * 2 - 3 * 1 + 1 * 1
    part = Partition(7, (1, 2, 4))
    # chain lengths from fresh expansions of the pair residues
    lengths = {}
    for j, k in ((0, 1), (0, 2), (1, 2)):
        q = part.q_matrix[j][k]
        lengths[(j, k)] = hj_expand(7, q).s
    assert set(lengths.values()) == {3}
    e_z = 4
    recount = (
        7 * (e_z - e_d)
        + e_d
        - e_sing
        + sum(lengths[p] * (3 - 4 * 0) - 1 for p in lengths)
        - (sum(lengths.values()) - 3) * 1
    )
    assert recount == 18
    value = euler_root_cover(make_preset("planes_p3", 3), part)
    assert value == recount == 18
    _passed(8, "Euler fixture 18 reproduced with independently recounted "
               "e(D), e(Sing D), lengths, and exceptional terms")


def test_criterion_09_asymptotic_convergence():
    """Bound-based convergence at n in {1009, 10007, 100003}: the exact
    Girstmair bound covers |chi/n - c1c2_bar/24|, the bound decays, and the
    d = 6 slopes converge (volume slope to its closed-form value 0.63; Euler
    slope to its derived limit d/(d-2) = 3/2 -- see the companion defect test)."""
    cases = [
        (make_preset("planes_p3", 4), 4),
        (make_preset("hypersurface_p4", (6, 3)), 3),
    ]
    bound_ratios = {}
    for pair, r in cases:
        bars = log_chern_numbers(pair)
        for n in (1009, 10007, 100003):
            part = find_asymptotic_partition(n, r, seed=909, max_trials=10**5)
            chi = chi_root_cover(pair, part).chi
            bound = chi_error_bound(pair, part)
            gap = abs(chi / n - bars.c1c2_bar / 24)
            assert gap <= bound
            bound_ratios.setdefault(pair.label, []).append(bound / n)
    for ratios in bound_ratios.values():
        assert ratios[0] > ratios[1] > ratios[2]  # B(n)/n decays
    pair = make_preset("hypersurface_p4", (6, 3))
    for n in (10007, 100003):
        part = find_asymptotic_partition(n, 3, seed=909, max_trials=10**5)
        rep = invariant_report(pair, part, "minimal")
        s1, s2 = rep.slopes
        assert abs(s1 / Fraction(63, 100) - 1) <= Fraction(2, 100)
        # with chi/n -> -d(d-2)(d-1)^2/24 and e/n -> -d^2(d-1)^2, the Euler
        # slope tends to d/(d-2); at d = 6 that is 3/2
        assert abs(s2 / Fraction(3, 2) - 1) <= Fraction(2, 100)
    _passed(9, "Girstmair bound covers the chi gap at n in {1009, 10007, "
               "100003}; d = 6 slopes within 2% of (0.63, 1.5) at n >= 10^4")


def test_criterion_09_nominal_euler_slope_target():
    """DEFECT (expected to fail): the nominal d = 6 Euler-slope target 0.54.

    The nominal target (d-5)(d^2+2d+6)/((d-2)(d-1)^2) = 54/100 at d = 6 is
    inconsistent with every independent route to e(X_n)/n:

      * e/n -> c3_bar(Z, D) and c3_bar = e(Z) - e(D_red); for a degree-d
        3-fold in P^4 with three hyperplane sections that is -d^2(d-1)^2
        (-900 at d = 6), not -d(d-5)(d^2+2d+6) (-324 at d = 6);
      * the general degree-3 log-Chern formula gives the same -d^2(d-1)^2
        from the intersection tables;
      * at d = 1 the nominal form gives 36 while three planes in P^3 have
        e/n -> 0.

    Hence the Euler slope converges to d/(d-2) = 3/2 and the nominal 0.54
    cannot be met by a correct pipeline; both expressions tend to 1 as d
    grows, which is how the discrepancy stays invisible in the large-d
    limit.  Kept red on purpose as the honest record of the mismatch.
    """
    pair = make_preset("hypersurface_p4", (6, 3))
    part = find_asymptotic_partition(10007, 3, seed=909, max_trials=10**5)
    rep = invariant_report(pair, part, "minimal")
    assert abs(rep.slopes[1] / Fraction(54, 100) - 1) <= Fraction(2, 100)
    _passed("9b", "nominal Euler-slope target (unexpectedly) met")


def test_criterion_10_slope_limit_tables():
    """Closed-form slopes: exactly (63/100, 54/100) at d = 6; within 5% of
    (1, 1) at d = 50; hyperplane log-Chern ratios within 5% of (2, 1/3) at
    r = 200."""
    part = Partition(7, (1, 2, 4))
    assert closed_forms_p4(6, 7, part).slope_pair == (
        Fraction(63, 100), Fraction(54, 100),
    )
    s1, s2 = closed_forms_p4(50, 7, part).slope_pair
    assert abs(s1 - 1) <= Fraction(5, 100) and abs(s2 - 1) <= Fraction(5, 100)
    bars = log_chern_numbers(make_preset("planes_p3", 200))
    ratio1 = bars.c1_cubed_bar / bars.c1c2_bar
    ratio2 = bars.c3_bar / bars.c1c2_bar
    assert abs(ratio1 / 2 - 1) <= Fraction(5, 100)
    assert abs(ratio2 / Fraction(1, 3) - 1) <= Fraction(5, 100)
    _passed(10, f"slope tables: d=6 exact, d=50 near (1,1), r=200 ratios "
                f"({float(ratio1):.4f}, {float(ratio2):.4f}) near (2, 1/3)")


def test_criterion_11_smooth_cover_identity():
    """For disjoint branch divisors the cover's Chern numbers match the exact
    1/n expansion c_e = c_e_bar + D^[1] c_{e-1}_bar / n, prime by prime."""
    pair = BasePair(
        r=2, c1_cubed=64, c1c2=24, c3=4,
        d3=(2, 3), c1sq_d=(18, 10), c2_d=(12, 8),
        c1_dd=((6, 0), (0, 5)), dd2=((2, 0), (0, 3)),
        triple=TripleTable(r=2, constant=0), pair_curves={},
        label="disjoint-acceptance",
    )
    bars = log_chern_numbers(pair)
    brackets = bracket_sums(pair)
    d3 = Fraction(brackets.d3)
    c1_d2 = Fraction(brackets.c1_d2)
    c1b_sq_d = Fraction(brackets.c1sq_d) - 2 * c1_d2 + d3
    c1b_d2 = c1_d2 - d3
    c2b_d = Fraction(brackets.c2_d) - c1_d2 + d3
    for n in primerange(2, 101):
        c1c, c1c2, c3 = nonsingular_cover_chern(pair, n)
        assert c1c / n - bars.c1_cubed_bar == (
            3 * c1b_sq_d / n + 3 * c1b_d2 / n**2 + d3 / n**3
        )
        assert c1c2 / n - bars.c1c2_bar == (c1b_sq_d + c2b_d) / n + c1b_d2 / n**2
        assert c3 / n - bars.c3_bar == c2b_d / n
    # degenerate sanity: no branch at all scales the ambient numbers by n
    empty = BasePair(
        r=0, c1_cubed=64, c1c2=24, c3=4, d3=(), c1sq_d=(), c2_d=(),
        c1_dd=(), dd2=(), triple=TripleTable(r=0, constant=0),
        pair_curves={},
    )
    assert nonsingular_cover_chern(empty, 13) == (64 * 13, 24 * 13, 4 * 13)
    _passed(11, "smooth-cover Chern identity exact for all primes n <= 100")
