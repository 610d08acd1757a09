import collections
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import nextprime, primerange

import rootcover.toric as toric
from rootcover.errors import BadInput, CertificationError, Degenerate, NotInterior
from rootcover.toric import (
    LocalConeSpec,
    cyclic_resolution,
    local_cone,
    local_intersection_table,
    max_slope,
    parallelepiped_points,
    resolution_to_json,
    select_v,
    subdivision_points,
)

DATA = Path(__file__).parent / "data"


def ray_vector(res, wall, alpha):
    """Exceptional ray e_{jk,a} = (m_a d_j + n_a d_k)/n of ``res`` as a lattice vector."""
    e = res.walls[wall]
    d = res.spec.rays
    j, k = wall
    return toric._lattice_comb((d[j - 1], d[k - 1]), (e.m_seq[alpha], e.n_seq[alpha]), res.spec.n)


def random_nondegenerate(rng, n_max=200):
    primes = list(primerange(5, n_max))
    while True:
        n = rng.choice(primes)
        p, q = rng.randrange(1, n), rng.randrange(1, n)
        spec = LocalConeSpec(n, p, q)
        if not spec.is_degenerate:
            return spec


def test_local_cone_examples():
    spec = local_cone(7, 1, 2, 4)
    assert (spec.n, spec.p, spec.q) == (7, 5, 3)
    assert not spec.is_degenerate
    assert (spec.p + spec.q) % 7 == 1

    spec = local_cone(5, 1, 1, 3)
    assert spec.p == spec.q == 3
    assert toric._excluded_shape(*spec)["equal"]

    spec = local_cone(5, 1, 2, 2)
    assert spec.q == 4 and toric._excluded_shape(*spec)["edge"]

    with pytest.raises(BadInput):
        LocalConeSpec(8, 3, 5)
    for args in ((7.0, 2, 3), (7, 2.0, 3), (7, 2, "3"), (7, True, 3)):
        with pytest.raises(BadInput):
            LocalConeSpec(*args)


def test_cone_spec_is_a_checked_named_tuple():
    # _replace runs the constructor's checks; no field can be assigned
    spec = LocalConeSpec(7, 5, 3)
    assert spec == (7, 5, 3) and repr(spec) == "LocalConeSpec(n=7, p=5, q=3)"
    assert spec._replace(q=2) == LocalConeSpec(7, 5, 2)
    with pytest.raises(BadInput, match="p, q must be nonzero modulo n"):
        spec._replace(p=0)
    with pytest.raises(BadInput, match="modulus must be prime"):
        spec._replace(n=8)
    with pytest.raises(AttributeError):
        spec.p = 2


def test_parallelepiped_points():
    spec = LocalConeSpec(7, 5, 3)
    pts = list(parallelepiped_points(spec))
    assert len(pts) == 49
    assert (1, 1, 1) in pts
    assert (2, 2, 3) in list(parallelepiped_points(LocalConeSpec(7, 2, 3)))
    for v1, v2, v3 in pts:
        assert v3 == (5 * v1 + 3 * v2) % 7


def test_select_v_minimal():
    assert select_v(LocalConeSpec(7, 5, 3), "minimal") == (1, 1, 1)
    # {p+q}_n = 0 has no interior minimal point
    with pytest.raises(Degenerate):
        select_v(LocalConeSpec(7, 3, 4), "minimal")
    with pytest.raises(BadInput):
        select_v(LocalConeSpec(7, 5, 3), "smallest")
    with pytest.raises(BadInput):
        select_v(LocalConeSpec(7.0, 2, 3), "balanced")


def test_select_v_balanced():
    v = select_v(LocalConeSpec(7, 2, 3), "balanced")
    assert v == (2, 2, 3)
    assert sum(v) == 7
    assert max_slope(v) == Fraction(3, 2)
    with pytest.raises(Degenerate):
        select_v(LocalConeSpec(11, 3, 10), "balanced")


def balanced_scan(n, c):
    """O(n) reference for the balanced point of the multiplier c, or None.

    Scans every x; the key is (max slope, coords) as in select_v, with the
    slopes compared by cross-multiplication.
    """
    best = None
    for x in range(1, n):
        y = (c * x) % n
        if y == 0 or x + y >= n:
            continue
        v = (x, y, n - x - y)
        big, small = max(v), min(v)
        if best is None or (big * best[1], v) < (best[0] * small, best[2]):
            best = (big, small, v)
    return None if best is None else best[2]


def multiplier(spec):
    n, p, q = spec.n, spec.p, spec.q
    return (-(p + 1) * pow(q + 1, -1, n)) % n


def spec_with_multiplier(n, c):
    q = 1
    while (-c * (q + 1) - 1) % n == 0:
        q += 1
    return LocalConeSpec(n, (-c * (q + 1) - 1) % n, q)


def assert_matches_scan(spec, want):
    if want is None:
        with pytest.raises(Degenerate):
            select_v(spec, "balanced")
    else:
        assert select_v(spec, "balanced") == want, spec


def test_balanced_matches_scan_every_small_cone():
    # the excluded cones raise; every other cone has a balanced point
    for n in primerange(5, 62):
        scans = {c: balanced_scan(n, c) for c in range(1, n)}
        for p in range(1, n):
            for q in range(1, n):
                spec = LocalConeSpec(n, p, q)
                if spec.is_degenerate:
                    assert_matches_scan(spec, None)
                else:
                    want = scans[multiplier(spec)]
                    assert want is not None, spec
                    assert_matches_scan(spec, want)


def test_one_shape_check_for_both_strategies():
    # the excluded shapes, stated apart from toric: p or q = n - 1, p = q,
    # p + q = n
    for n in primerange(5, 62):
        for p in range(1, n):
            for q in range(1, n):
                flags = {"edge": n - 1 in (p, q), "equal": p == q, "opposite": p + q == n}
                spec = LocalConeSpec(n, p, q)
                # the flags are built for an excluded cone only
                assert toric._excluded_shape(n, p, q) == (flags if any(flags.values()) else None)
                assert spec.is_degenerate == any(flags.values())
                for strategy in toric.STRATEGIES:
                    if spec.is_degenerate:
                        with pytest.raises(Degenerate) as info:
                            select_v(spec, strategy)
                        assert str(info.value) == f"excluded cone shape {flags}"
                    elif strategy == "minimal":
                        assert select_v(spec, strategy) == (1, 1, (p + q) % n)
                    else:
                        assert sum(select_v(spec, strategy)) == n


def test_subdivision_points_matches_the_scan_per_cone():
    # the batched form gives each cone's point in order: (1, 1, {p+q}) under
    # minimal, the O(n) scan's point of its multiplier under balanced; it
    # stops at the first excluded cone after yielding the points before it,
    # with that cone's flags in the error
    rng = random.Random(83)
    for n in (61, 211, 1009, 10007):
        cones = []
        while len(cones) < 40:
            p, q = rng.randrange(1, n), rng.randrange(1, n)
            if not LocalConeSpec(n, p, q).is_degenerate:
                cones.append((p, q))
        cones += cones[:10]  # repeated multipliers
        balanced = [balanced_scan(n, multiplier(LocalConeSpec(n, p, q))) for p, q in cones]
        minimal = [(1, 1, (p + q) % n) for p, q in cones]
        for strategy, want in (("minimal", minimal), ("balanced", balanced)):
            assert list(subdivision_points(n, cones, strategy)) == want
            assert list(subdivision_points(n, iter(cones), strategy)) == want
            for bad in ((n - 1, 3), (5, 5), (7, n - 7)):
                batch = [*cones[:13], bad, *cones[13:]]
                got = []
                with pytest.raises(Degenerate) as info:
                    got.extend(subdivision_points(n, batch, strategy))
                assert got == want[:13]
                flags = toric._excluded_shape(n, *bad)
                assert str(info.value) == f"excluded cone shape {flags}"
    assert list(subdivision_points(61, [], "minimal")) == []
    with pytest.raises(BadInput, match="unknown strategy"):
        next(subdivision_points(61, [(2, 3)], "best"))


def test_subdivision_points_solves_each_multiplier_once(monkeypatch):
    want = [select_v(LocalConeSpec(1009, p, q), "balanced") for p, q in ((2, 3), (5, 9))]
    calls = []
    real = toric._balanced_point

    def counted(n, c):
        calls.append(c)
        return real(n, c)

    monkeypatch.setattr(toric, "_balanced_point", counted)
    cones = [(2, 3), (5, 9), (2, 3), (5, 9), (2, 3)]
    assert list(subdivision_points(1009, cones, "balanced")) == want * 2 + want[:1]
    assert len(calls) == len(set(calls)) == 2


def test_balanced_matches_scan_random_large_cones():
    rng = random.Random(2024)
    for _ in range(300):
        n = nextprime(int(10 ** rng.uniform(3, 5)))
        spec = LocalConeSpec(n, rng.randrange(1, n), rng.randrange(1, n - 1))
        assert_matches_scan(spec, balanced_scan(n, multiplier(spec)))


def test_balanced_matches_scan_skewed_multipliers():
    for n in (1009, 10007, 99989, 99991):
        skewed = {1, 2, 3, n - 2, (n - 1) // 2, (n + 1) // 2}
        if (n + 1) % 3 == 0:
            skewed.add((n + 1) // 3)
        for c in skewed:
            spec = spec_with_multiplier(n, c)
            assert multiplier(spec) == c
            assert_matches_scan(spec, balanced_scan(n, c))


def test_balanced_tie_break_is_lexicographic():
    # c = 2 at n = 29: (6, 12, 11) and (7, 14, 8) share the max slope 2,
    # on one lattice line; c = 9 at n = 13: three points share slope 3
    for spec, want, other in (
        (LocalConeSpec(29, 24, 1), (6, 12, 11), (7, 14, 8)),
        (LocalConeSpec(13, 7, 1), (2, 5, 6), (5, 6, 2)),
    ):
        v = select_v(spec, "balanced")
        assert v == want
        assert max_slope(v) == max_slope(other) and v < other


def step_range(c0, c1, lo, hi):
    """The integers i with lo <= c0 + c1*i <= hi, as (first, last); c1 != 0."""
    if c1 < 0:
        c0, c1, lo, hi = -c0, -c1, -hi, -lo
    return -((c0 - lo) // c1), (hi - c0) // c1


def beats(a, b):
    """Whether candidate a = (max, min, coords) sorts before b (or b is None)."""
    return b is None or (a[0] * b[1], a[2]) < (b[0] * a[1], b[2])


def line_best_bisect(n, u, x0, y0, lo, hi):
    """Bisection oracle for toric._line_best: same contract, O(log n) steps.

    The max slope is quasiconvex along the line and constant on a stretch
    only at its minimum, so the first step whose successor is no better is
    the line's best point (and, as u_x > 0, the first of its ties).
    """
    i_lo, i_hi = step_range(x0, u[0], lo, hi)
    for c0, c1, a, b in ((y0, u[1], lo, hi), (x0 + y0, u[0] + u[1], n - hi, n - lo)):
        if c1 == 0:
            if not a <= c0 <= b:
                return None
            continue
        j_lo, j_hi = step_range(c0, c1, a, b)
        i_lo, i_hi = max(i_lo, j_lo), min(i_hi, j_hi)
    if i_lo > i_hi:
        return None

    def at(i):
        x, y = x0 + i * u[0], y0 + i * u[1]
        v = (x, y, n - x - y)
        return max(v), min(v), v

    while i_lo < i_hi:
        mid = (i_lo + i_hi) // 2
        big0, small0, _ = at(mid)
        big1, small1, _ = at(mid + 1)
        if big1 * small0 >= big0 * small1:
            i_hi = mid
        else:
            i_lo = mid + 1
    return at(i_lo)


def line_scan(n, u, x0, y0, lo, hi):
    """Every point (max, min, coords) of the line inside the box, by step."""
    out = []
    for i in range(-((x0 - lo) // u[0]), (hi - x0) // u[0] + 1):
        x, y = x0 + i * u[0], y0 + i * u[1]
        v = (x, y, n - x - y)
        if lo <= min(v) and max(v) <= hi:
            out.append((max(v), min(v), v))
    return out


def line_best_scan(points):
    """The first point of smallest max slope, or None."""
    best = None
    for big, small, v in points:
        if best is None or big * best[1] < best[0] * small:
            best = (big, small, v)
    return best


def balanced_point_bisect(n, c):
    """The balanced point with bisected lines, each box line searched afresh."""
    ux, uy, wx, wy = toric._reduced_basis(n, c)
    u, w = (ux, uy), (wx, wy)

    def search(lines, lo, hi):
        best = None
        for j in lines:
            cand = line_best_bisect(n, u, j * w[0], j * w[1], lo, hi)
            if cand is not None and beats(cand, best):
                best = cand
        return best

    bound = search({(u[0] - u[1]) // 3, -((u[1] - u[0]) // 3)}, 1, n - 2)
    if bound is None:
        lo, hi = 1, n - 2
    else:
        big, small, _ = bound
        lo = -((-n * small) // (small + 2 * big))
        hi = (n * big) // (big + 2 * small)
    corners = ((lo, lo), (n - 2 * lo, lo), (lo, n - 2 * lo))
    ends = [u[0] * y - u[1] * x for x, y in corners]
    best = search(range(-(-min(ends) // n), max(ends) // n + 1), lo, hi)
    return None if best is None else best[2]


def assert_line_kernel(n, u, x0, y0, lo, hi, seen):
    points = line_scan(n, u, x0, y0, lo, hi)
    got = toric._line_best(n, *u, x0, y0, lo, hi)
    assert got == line_best_scan(points) == line_best_bisect(n, u, x0, y0, lo, hi), (
        n, u, x0, y0, lo, hi)
    if len(points) == 1:
        seen["one point"] += 1
    if u[0] == u[1] and points:
        seen["u_x = u_y"] += 1
    if u[1] == 0 and points:
        seen["u_y = 0"] += 1
    ties = [p for p in points if p[0] * got[1] == got[0] * p[1]] if got else []
    if x0 == y0 == 0 and len(ties) > 1:
        seen["origin plateau"] += 1


def test_line_kernel_matches_bisection_and_scan_on_every_line():
    seen = collections.Counter()
    for n in primerange(5, 114):
        for c in range(1, n):
            ux, uy, wx, wy = toric._reduced_basis(n, c)
            u, w = (ux, uy), (wx, wy)
            scan = balanced_scan(n, c)
            boxes = [(1, n - 2)]
            if scan is not None:
                big, small = max(scan), min(scan)
                boxes.append((-((-n * small) // (small + 2 * big)),
                              (n * big) // (big + 2 * small)))
            corners = ((1, 1), (n - 2, 1), (1, n - 2))
            ends = [u[0] * y - u[1] * x for x, y in corners]
            for j in range(-(-min(ends) // n), max(ends) // n + 1):
                for lo, hi in boxes:
                    assert_line_kernel(n, u, j * w[0], j * w[1], lo, hi, seen)
    assert seen["one point"] and seen["u_x = u_y"] and seen["origin plateau"]


def test_line_kernel_matches_scan_on_synthetic_lines():
    # lines no Gauss-reduced basis produces: u_y = 0, steep and flat u, far
    # offsets and narrow boxes
    rng = random.Random(11)
    seen = collections.Counter()
    for _ in range(4000):
        n = rng.randrange(6, 400)
        u = (rng.randrange(1, 8), rng.randrange(-8, 9))
        x0, y0 = rng.randrange(-n, 2 * n), rng.randrange(-n, 2 * n)
        lo = rng.randrange(1, n // 3 + 1)
        hi = rng.randrange(n // 3, n - 1)
        assert_line_kernel(n, u, x0, y0, lo, hi, seen)
    assert seen["u_y = 0"] and seen["u_x = u_y"] and seen["one point"]


def test_balanced_point_matches_bisection_at_large_n():
    # far beyond the reach of the O(n) scan
    rng = random.Random(2025)
    for _ in range(2000):
        n = nextprime(int(10 ** rng.uniform(1, 12)))
        c = rng.randrange(1, n)
        if c == n - 1:  # p = q, an excluded shape
            continue
        assert toric._balanced_point(n, c) == balanced_point_bisect(n, c), (n, c)


def test_centroid_lines_hold_a_point_for_every_multiplier_but_n_minus_1():
    # _balanced_point's docstring proves this for n >= 15, so
    # _balanced_point has no search for the case without such a point; below
    # 15 every c of every prime is checked against the scan, and the claim
    # itself at every prime below 400
    for n in primerange(2, 15):
        assert balanced_scan(n, n - 1) is None
        for c in range(1, n - 1):
            want = balanced_scan(n, c)
            assert toric._balanced_point(n, c) == want, (n, c)
    for n in primerange(3, 400):
        for c in range(1, n):
            ux, uy, wx, wy = toric._reduced_basis(n, c)
            b = Fraction(ux - uy, 3)  # the line of the centroid (n/3, n/3)
            held = any(
                toric._line_best(n, ux, uy, j * wx, j * wy, 1, n - 2)
                for j in (math.floor(b), math.ceil(b))
            )
            assert held == (c != n - 1), (n, c)


def test_balanced_point_solves_each_line_once(monkeypatch):
    kernel = toric._line_best
    lines = []

    def counted(n, ux, uy, x0, y0, lo, hi):
        lines.append((x0, y0))
        return kernel(n, ux, uy, x0, y0, lo, hi)

    monkeypatch.setattr(toric, "_line_best", counted)
    rng = random.Random(8)
    for _ in range(300):
        n = nextprime(rng.randrange(5, 10**6))
        del lines[:]
        toric._balanced_point(n, rng.randrange(1, n))
        assert len(lines) == len(set(lines))


def test_max_slope_of_a_boundary_point_is_typed():
    assert max_slope((2, 3, 4)) == 2
    for v in ((0, 3, 4), (3, 0, 4), (3, 4, 0)):
        with pytest.raises(NotInterior):
            max_slope(v)
    # the one point rule of cyclic_resolution: three ints, else BadInput
    for v in (5, (), (1, 2), (1, 2, 3, 4)):
        with pytest.raises(BadInput, match=r"is not a point \(v1, v2, v3\)"):
            max_slope(v)
    with pytest.raises(BadInput, match="point coordinates must be ints"):
        max_slope((1, 2.0, 3))


def test_balanced_degenerate_when_p_equals_q():
    # p = q gives c = n - 1, so x + {cx}_n = n for every x
    spec = LocalConeSpec(11, 4, 4)
    assert multiplier(spec) == 10
    with pytest.raises(Degenerate, match="excluded cone shape .*'equal': True"):
        select_v(spec, "balanced")


def test_balanced_sum_is_n():
    rng = random.Random(5)
    for _ in range(60):
        spec = random_nondegenerate(rng)
        v = select_v(spec, "balanced")
        assert sum(v) == spec.n
        assert v[2] == (spec.p * v[0] + spec.q * v[1]) % spec.n


def test_resolution_fixture_7_5_3():
    spec = LocalConeSpec(7, 5, 3)
    res = cyclic_resolution(spec, (1, 1, 1))
    assert cyclic_resolution(spec, [1, 1, 1]).v == (1, 1, 1)  # any sequence of ints
    assert all(c.mult == 1 for c in res.cones)
    # seeds p' = 3, q' = 5, {-p'q}_7 = 5
    assert res.walls[(1, 3)].q == 3 and res.walls[(1, 3)].ks == (3, 2, 2)
    assert res.walls[(2, 3)].q == 5 and res.walls[(2, 3)].ks == (2, 2, 3)
    assert res.walls[(1, 2)].q == 5 and res.walls[(1, 2)].s == 3
    assert res.V == Fraction(1 + 1 + 1 - 7, 7)
    # e(F) equals the number of maximal cones: s12 + s13 + s23 + 3
    assert len(res.cones) == 3 + 3 + 3 + 3


def test_resolution_type_fixture_7_2_3():
    res = cyclic_resolution(LocalConeSpec(7, 2, 3), (1, 1, 5))
    rec = next(c for c in res.cones if c.wall == (1, 2) and c.alpha == 0)
    assert rec.mult == 5
    # the congruence solution; the closed form {m_1 v_k - n_1 v_j}_{v_l} = 1,
    # {m_0 v_k - n_0 v_j}_{v_l} = 2 differs from it by the unit n mod v_l
    n_inv = pow(7 % 5, -1, 5)
    assert rec.type_a == (n_inv * 1) % 5 == 3
    assert rec.type_b == (-n_inv * 2) % 5 == 4


def test_resolution_rejects_degenerate_and_boundary():
    with pytest.raises(Degenerate):
        cyclic_resolution(LocalConeSpec(7, 3, 3), (1, 1, 1))
    spec = LocalConeSpec(7, 5, 3)
    with pytest.raises(NotInterior):
        cyclic_resolution(spec, (1, 4, 0))
    with pytest.raises(BadInput):
        cyclic_resolution(spec, (1, 1, 2))  # not in the parallelepiped
    # a point is three ints: a pair, a float or a bool coordinate is no point
    for v in ((1, 1), (1.0, 1, 1), (True, 1, 1), 7):
        with pytest.raises(BadInput):
            cyclic_resolution(spec, v)


def _verify_records(res):
    """Re-derive every certified quantity from raw lattice vectors."""
    spec, v = res.spec, res.v
    n = spec.n
    v_vec = toric._lattice_comb(spec.rays, v, n)
    for c in res.cones:
        j, k = c.wall
        l = 6 - j - k
        vl = v[l - 1]
        e0 = ray_vector(res, c.wall, c.alpha)
        e1 = ray_vector(res, c.wall, c.alpha + 1)
        assert abs(toric._det3(v_vec, e0, e1)) == vl == c.mult
        assert toric._minor_gcd(e0, e1) == 1  # exterior wall unimodular
        mult = c.mult
        if mult > 1:
            for i in range(3):
                assert (c.type_a * e0[i] + c.type_b * e1[i] + v_vec[i]) % mult == 0
            # uniqueness of the congruence solution
            count = sum(
                all((x * e0[i] + y * e1[i] + v_vec[i]) % mult == 0 for i in range(3))
                for x in range(mult)
                for y in range(mult)
            )
            assert count == 1
    for ((j, k), a), m in res.inner_wall_mults.items():
        e = res.walls[(j, k)]
        l = 6 - j - k
        vj, vk, vl = v[j - 1], v[k - 1], v[l - 1]
        assert m == math.gcd(vj * e.n_seq[a] - vk * e.m_seq[a], vl)
        # multiplicity of the 2-cone C(v, e_a) from its minors
        assert m == toric._minor_gcd(v_vec, ray_vector(res, (j, k), a))
        assert e.m_seq[a] + e.n_seq[a] - 1 >= 0
    assert sum(v) - 1 >= 0


def test_certification_failure_is_typed(monkeypatch):
    spec, v = LocalConeSpec(7, 5, 3), (1, 1, 1)
    monkeypatch.setattr(toric, "_minor_gcd", lambda a, b: 2)
    with pytest.raises(CertificationError, match="not unimodular"):
        cyclic_resolution(spec, v)
    monkeypatch.setattr(toric, "_det3", lambda a, b, c: 0)
    with pytest.raises(CertificationError, match="multiplicity"):
        cyclic_resolution(spec, v)


def test_random_resolutions_verified():
    rng = random.Random(99)
    for _ in range(40):
        spec = random_nondegenerate(rng, n_max=150)
        for strategy in ("minimal", "balanced"):
            res = cyclic_resolution(spec, select_v(spec, strategy))
            _verify_records(res)
            s_total = sum(e.s for e in res.walls.values())
            assert len(res.cones) == s_total + 3


def test_smooth_case_nef_table():
    # {p+q}_n = 1 and the minimal point: smooth, K nef on the table
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice(list(primerange(5, 200)))
        p = rng.randrange(2, n - 1)
        q = (1 - p) % n
        spec = LocalConeSpec(n, p, q)
        if spec.is_degenerate:
            continue
        res = cyclic_resolution(spec, select_v(spec, "minimal"))
        assert all(c.mult == 1 for c in res.cones)
        assert all(m == 1 for m in res.inner_wall_mults.values())
        tab = local_intersection_table(res)
        assert all(val == 0 for val in tab.k_cl.values())
        assert all(val >= 0 for val in tab.k_cjk.values())
        for ((jk, a)), val in tab.k_cjk.items():
            assert val == res.walls[jk].ks[a - 1] - 2


def test_order_two_case():
    # {p+q}_n = 2 with the minimal point: every singular cone has order <= 2
    for n, p in [(11, 5), (13, 4), (19, 12)]:
        q = (2 - p) % n
        spec = LocalConeSpec(n, p, q)
        if spec.is_degenerate:
            continue
        res = cyclic_resolution(spec, select_v(spec, "minimal"))
        assert max(c.mult for c in res.cones) <= 2


def test_intersection_table_values():
    res = cyclic_resolution(LocalConeSpec(7, 5, 3), (1, 1, 1))
    tab = local_intersection_table(res)
    assert tab.f3 == 7 and tab.kf2 == 3 - 7
    res2 = cyclic_resolution(LocalConeSpec(7, 2, 3), (1, 1, 5))
    tab2 = local_intersection_table(res2)
    assert tab2.f3 == Fraction(7, 5)
    assert tab2.kf2 == Fraction(1 + 1 + 5 - 7, 5)
    # E.C adjacency entries carry mult(rho)/v_l
    for (jk, a, b), val in tab2.e_c.items():
        l = 6 - jk[0] - jk[1]
        vl = res2.v[l - 1]
        if a == b:
            assert val == Fraction(-res2.walls[jk].ks[a - 1] * res2.inner_wall_mults[(jk, a)], vl)
        else:
            assert val == Fraction(res2.inner_wall_mults[(jk, a)], vl)


def test_balanced_slopes_at_large_primes():
    rng = random.Random(17)
    for n in (1009, 2003):
        for _ in range(6):
            p, q = rng.randrange(1, n), rng.randrange(1, n)
            spec = LocalConeSpec(n, p, q)
            if spec.is_degenerate:
                continue
            v = select_v(spec, "balanced")
            assert sum(v) == n
            assert max_slope(v) <= Fraction(31, 10)


def test_resolution_json_golden():
    res = cyclic_resolution(LocalConeSpec(7, 5, 3), (1, 1, 1))
    text = resolution_to_json(res)
    json.loads(text)  # well-formed
    golden = (DATA / "resolution_7_5_3.json").read_text()
    assert text == golden
