"""Local toric model of a triple point of the branch divisor.

The singularity t^n = x^{nu_j} y^{nu_k} z^{nu_l} (n prime) is the affine toric
variety of the simplicial cone

    sigma = C(d_1, d_2, d_3),   d_1 = n e_1 - p e_3,  d_2 = n e_2 - q e_3,
    d_3 = e_3,

where nu_j + p nu_l ~ 0 and nu_k + q nu_l ~ 0 (mod n).  Its cyclic resolution
star-subdivides sigma at an interior lattice point v of the fundamental
parallelepiped and refines each wall by the Hirzebruch-Jung chain, leaving
only cyclic quotient singularities of order below n.  This module builds the
subdivision, certifies every cone record against exact lattice determinants,
and evaluates the local intersection table.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import BadInput, CertificationError, Degenerate, NotInterior
from .exact import is_prime, mod_inverse, require_ints
from .hj import HJExpansion, hj_expand

__all__ = [
    "STRATEGIES",
    "LocalConeSpec",
    "ConeRecord",
    "CyclicResolution",
    "LocalIntersections",
    "local_cone",
    "parallelepiped_points",
    "select_v",
    "subdivision_points",
    "cyclic_resolution",
    "local_intersection_table",
    "max_slope",
    "resolution_to_json",
]

WALLS = ((1, 2), (1, 3), (2, 3))

STRATEGIES = ("minimal", "balanced")


def _excluded_shape(n: int, p: int, q: int) -> dict[str, bool] | None:
    """Which excluded shapes the cone (n, p, q), 0 < p, q < n, has, or None.

    The star subdivision excludes an edge-type wall (p or q = n - 1), equal
    parameters (p = q) and the (1,1)-type third wall (p + q = n).  The flags
    are keyed edge, equal, opposite; the dict is built only for an excluded
    cone.  :func:`subdivision_points` runs the same test inline, once.
    """
    edge = p == n - 1 or q == n - 1
    equal = p == q
    opposite = p + q == n
    if edge or equal or opposite:
        return {"edge": edge, "equal": equal, "opposite": opposite}
    return None


class LocalConeSpec(namedtuple("LocalConeSpec", ("n", "p", "q"))):
    """The cone data (n, p, q) of one triple point: three ints, n prime."""

    def __new__(cls, n: int, p: int, q: int):
        require_ints("n, p, q", n, p, q)
        if not is_prime(n):
            raise BadInput(f"modulus must be prime, got {n}")
        if not (0 < p < n and 0 < q < n):
            raise BadInput("p, q must be nonzero modulo n")
        return super().__new__(cls, n, p, q)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks too

    @property
    def is_degenerate(self) -> bool:
        return _excluded_shape(self.n, self.p, self.q) is not None

    @property
    def rays(self) -> tuple[tuple[int, int, int], ...]:
        n, p, q = self.n, self.p, self.q
        return ((n, 0, -p), (0, n, -q), (0, 0, 1))


def _point(v) -> tuple[int, int, int]:
    """``v`` as a point (v1, v2, v3) of three ints; anything else is BadInput."""
    try:
        v1, v2, v3 = v
    except (TypeError, ValueError):
        raise BadInput(f"{v!r} is not a point (v1, v2, v3)") from None
    require_ints("point coordinates", v1, v2, v3)
    return v1, v2, v3


def max_slope(v: tuple[int, int, int]) -> Fraction:
    """max v_j / v_k over all coordinate pairs (the balance figure of merit).

    ``v`` is a point (v1, v2, v3) of three ints, else BadInput.  Raises
    :class:`NotInterior` for a point with a zero coordinate.
    """
    v = _point(v)
    if min(v) <= 0:
        raise NotInterior(f"{v} has a zero coordinate")
    return Fraction(max(v), min(v))


class ConeRecord(NamedTuple):
    """One 3-cone C(v, e_{jk,a}, e_{jk,a+1}) of the refinement.

    ``mult`` is the lattice multiplicity (= v_l for the wall's opposite
    coordinate) and (type_a, type_b, 1)/mult is its cyclic quotient type:
    the unique pair with type_a*e_a + type_b*e_{a+1} + v ~ 0 mod mult,
    componentwise.
    """

    wall: tuple[int, int]
    alpha: int
    mult: int
    type_a: int
    type_b: int


class CyclicResolution(NamedTuple):
    """Star subdivision at v plus Hirzebruch-Jung refinement of each wall.

    ``v`` is the point (v1, v2, v3) of the fundamental parallelepiped,
    v = (v1 d1 + v2 d2 + v3 d3)/n.
    """

    spec: LocalConeSpec
    v: tuple[int, int, int]
    walls: dict[tuple[int, int], HJExpansion]
    cones: tuple[ConeRecord, ...]
    inner_wall_mults: dict[tuple[tuple[int, int], int], int]

    @property
    def V(self) -> Fraction:
        """Discrepancy coefficient V = (v1 + v2 + v3 - n)/n of the central
        divisor F, computed on each read: a named tuple keeps no cache."""
        return Fraction(sum(self.v) - self.spec.n, self.spec.n)

    def first_m(self, frm: int, to: int) -> int:
        """m_{jk,1} for the wall expanded in direction d_frm -> d_to."""
        if frm < to:
            return self.walls[(frm, to)].q
        return self.walls[(to, frm)].q_inv


class LocalIntersections(NamedTuple):
    """Rational intersection numbers of the local resolution.

    ``k_cl[l]`` is K.C_l for the three axis curves C_l = V(C(d_l, v));
    ``k_cjk[(wall, a)]`` is K.C_{jk,a} for the inner-wall curves, and
    ``e_c`` tabulates E_{jk,a}.C_{jk,b} for b in {a-1, a, a+1}.
    """

    f3: Fraction
    kf2: Fraction
    k_cl: dict[int, Fraction]
    k_cjk: dict[tuple[tuple[int, int], int], Fraction]
    e_c: dict[tuple[tuple[int, int], int, int], Fraction]
    k2f: Fraction


def _lattice_comb(vectors, coeffs, n: int) -> tuple[int, int, int]:
    """(sum coeff*vector)/n as an exact lattice vector; BadInput if not integral."""
    out = []
    for i in range(3):
        t = sum(c * vec[i] for c, vec in zip(coeffs, vectors))
        if t % n != 0:
            raise BadInput(f"combination {coeffs} is not a lattice point")
        out.append(t // n)
    return tuple(out)


def _det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _minor_gcd(a, b) -> int:
    """Multiplicity of the 2-cone C(a, b): gcd of the 2x2 minors."""
    m1 = a[1] * b[2] - a[2] * b[1]
    m2 = a[0] * b[2] - a[2] * b[0]
    m3 = a[0] * b[1] - a[1] * b[0]
    return math.gcd(m1, math.gcd(m2, m3))


def local_cone(n: int, nu_j: int, nu_k: int, nu_l: int) -> LocalConeSpec:
    """Cone of the triple point with multiplicities (nu_j, nu_k, nu_l).

    p and q solve nu_j + p nu_l ~ 0 and nu_k + q nu_l ~ 0 modulo n.
    """
    from .asympt import q_of_pair

    return LocalConeSpec(n, q_of_pair(n, nu_j, nu_l), q_of_pair(n, nu_k, nu_l))


def parallelepiped_points(spec: LocalConeSpec) -> Iterator[tuple[int, int, int]]:
    """All n^2 lattice points (v1, v2, {p v1 + q v2}_n) of the parallelepiped."""
    n, p, q = spec.n, spec.p, spec.q
    for v1 in range(n):
        for v2 in range(n):
            yield (v1, v2, (p * v1 + q * v2) % n)


def select_v(spec: LocalConeSpec, strategy: str) -> tuple[int, int, int]:
    """Choose the star-subdivision point (v1, v2, v3) of the cone ``spec``.

    The point of :func:`subdivision_points` for the one cone (spec.p,
    spec.q); the checks of ``spec`` (n prime, p and q nonzero modulo n) have
    run when it was built.  Degenerate when ``spec`` has an excluded shape
    (``spec.is_degenerate``), under either strategy.
    """
    return next(subdivision_points(spec.n, ((spec.p, spec.q),), strategy))


def subdivision_points(n: int, cones, strategy: str) -> Iterator[tuple[int, int, int]]:
    """The star-subdivision point (v1, v2, v3) of each cone (n, p, q), in integers.

    ``cones`` holds the (p, q) of the cones, and the caller guarantees what
    :class:`LocalConeSpec` checks: n prime and 0 < p, q < n.  The global
    invariants pass every triple point of a report at once, with p, q read
    off ``Partition.q_matrix``; :func:`select_v` passes one validated spec.
    A generator over the cones in order.  The first cone of an excluded
    shape (p or q = n - 1, p = q, p + q = n; see :func:`_excluded_shape`)
    raises Degenerate under either strategy, after the points of the cones
    before it have been yielded, so a caller that collects the points knows
    which cone it was.  BadInput names an unknown strategy, at the first
    cone.

    ``minimal`` takes (1, 1, {p+q}_n), the interior point over the corner of
    the parallelepiped; {p+q}_n = 0 is the opposite shape.

    ``balanced`` takes the point of :func:`_balanced_point` for the
    multiplier c = {-(p+1)(q+1)'}_n, which it depends on alone, so it is
    computed once per distinct c within the call.
    """
    if strategy not in STRATEGIES:
        raise BadInput(f"unknown strategy {strategy!r}")
    balanced = strategy == "balanced"
    points: dict[int, tuple[int, int, int]] = {}
    edge = n - 1
    for p, q in cones:
        # the test of _excluded_shape, inline: every triple point of a report
        # passes it; the flags are built for an excluded cone only
        if p == edge or q == edge or p == q or p + q == n:
            raise Degenerate(f"excluded cone shape {_excluded_shape(n, p, q)}")
        if balanced:
            c = -(p + 1) * pow(q + 1, -1, n) % n
            point = points.get(c)
            if point is None:
                point = points[c] = _balanced_point(n, c)
            yield point
        else:
            yield 1, 1, (p + q) % n


def _reduced_basis(n: int, c: int) -> tuple[int, int, int, int]:
    """Gauss-reduced basis u, w of {(x, y) : y = cx (mod n)}, as (ux, uy, wx, wy).

    u is a shortest vector, so u_x != 0 (any (1, y) in L with |y| <= n/2
    is shorter than (0, n)); it is taken with u_x > 0, and det(u, w) = n.
    """
    ux, uy, wx, wy = 1, c, 0, n
    while True:
        uu = ux * ux + uy * uy
        mu = (2 * (ux * wx + uy * wy) + uu) // (2 * uu)  # round(u.w / u.u)
        wx -= mu * ux
        wy -= mu * uy
        if wx * wx + wy * wy >= uu:
            break
        ux, uy, wx, wy = wx, wy, ux, uy
    if ux < 0:
        ux, uy = -ux, -uy
    if ux * wy - uy * wx < 0:
        wx, wy = -wx, -wy
    return ux, uy, wx, wy


def _line_best(n: int, ux: int, uy: int, x0: int, y0: int, lo: int, hi: int):
    """Best point (max, min, coords) of the line (x0, y0) + Z*u in the box.

    The box is lo <= v1, v2, v3 <= hi with v3 = n - v1 - v2 and lo >= 1,
    and u_x > 0.  Of tied points the one with the smallest v1 is returned;
    None when the line has no lattice point in the box.

    The coordinates are linear in the step i, so between two of the
    crossings v1 = v2, v1 = v3, v2 = v3 the max slope f is one
    linear-fractional function of i, constant or strictly monotone.  At the
    smallest integer minimiser i, unless it is an end of the step range,
    f(i - 1) > f(i) <= f(i + 1), so no single piece spans [i - 1, i + 1]
    and a crossing b lies in [i - 1, i + 1).  The candidates are thus the
    two ends and floor(b), floor(b) + 1 for each crossing b in range; a
    stretch of constant f needs no special case.
    """
    # the steps i with lo <= v1, v2, v3 <= hi, one coordinate at a time
    i_lo = -((x0 - lo) // ux)
    i_hi = (hi - x0) // ux
    if uy > 0:
        j = -((y0 - lo) // uy)
        if j > i_lo:
            i_lo = j
        j = (hi - y0) // uy
        if j < i_hi:
            i_hi = j
    elif uy < 0:
        j = -((y0 - hi) // uy)
        if j > i_lo:
            i_lo = j
        j = (lo - y0) // uy
        if j < i_hi:
            i_hi = j
    elif not lo <= y0 <= hi:
        return None
    s0, s1 = n - x0 - y0, ux + uy  # v3 = s0 - i*s1
    if s1 > 0:
        j = -((hi - s0) // s1)
        if j > i_lo:
            i_lo = j
        j = (s0 - lo) // s1
        if j < i_hi:
            i_hi = j
    elif s1 < 0:
        j = -((lo - s0) // s1)
        if j > i_lo:
            i_lo = j
        j = (s0 - hi) // s1
        if j < i_hi:
            i_hi = j
    elif not lo <= s0 <= hi:
        return None
    if i_lo > i_hi:
        return None
    steps = [i_lo, i_hi]
    # the crossings v1 = v2, v1 = v3 and v2 = v3
    den = ux - uy
    if den:
        b = (y0 - x0) // den
        if i_lo <= b < i_hi:
            steps += (b, b + 1)
    den = ux + s1
    if den:
        b = (s0 - x0) // den
        if i_lo <= b < i_hi:
            steps += (b, b + 1)
    den = uy + s1
    if den:
        b = (s0 - y0) // den
        if i_lo <= b < i_hi:
            steps += (b, b + 1)
    steps.sort()
    best_big, best_small, best_i = 1, 0, i_lo  # loses to any point in the box
    for i in steps:
        x = x0 + i * ux
        y = y0 + i * uy
        z = n - x - y
        if x < y:
            big, small = y, x
        else:
            big, small = x, y
        if z > big:
            big = z
        elif z < small:
            small = z
        if big * best_small < best_big * small:
            best_big, best_small, best_i = big, small, i
        elif big * best_small > best_big * small:
            break  # f is quasiconvex: no later step is below this one
    x = x0 + best_i * ux
    y = y0 + best_i * uy
    return best_big, best_small, (x, y, n - x - y)


def _balanced_point(n: int, c: int) -> tuple[int, int, int]:
    """The balanced point of the cones with the multiplier 0 < c < n - 1.

    c = 0 (p = n - 1) and c = n - 1 (p = q) are excluded shapes, and
    q = n - 1 leaves c undefined, so every c that reaches here has a point.

    The balanced point solves v1 + v2 + v3 = n: those points are exactly
    (x, {cx}_n, n - x - {cx}_n) with c = {-(p+1)(q+1)'}_n and x + {cx}_n < n,
    i.e. the points (x, y) of the rank-2 lattice L = {(x, y) : y = cx (mod n)}
    in the open triangle x, y >= 1, x + y <= n - 1.  Among them the one with
    the smallest max slope max(v)/min(v) is returned, ties broken
    lexicographically on (v1, v2, v3).  The search is exact, in integers:

    * Gauss reduction of (1, c), (0, n) gives a basis u, w of L with u
      shortest, so L is the union of the lines j*w + Z*u, spaced
      n/|u| >= |w| sqrt(3)/2 apart.
    * Along one line the coordinates are linear in the step, so the max
      slope is piecewise linear-fractional, with pieces that end where two
      coordinates cross.  The line's best point is one of at most eight
      candidates: the two ends of the line inside the box, and the two
      integer steps around each of the three crossings (see _line_best).
      u points towards increasing v1, so the first of the line's ties is
      also the lexicographically first.
    * The two lines next to the centroid G = (n/3, n/3) give a bound t = a/b
      on the answer.  Every point with max slope <= t has each coordinate in
      [ceil(nb/(b+2a)), floor(na/(a+2b))], so only the lines that cross this
      box are searched, within the box.  Each line is solved once: a
      centroid line's best point over the triangle is its best in the box
      when its max slope is t, and loses to the bound otherwise.
    * A centroid line holds a point for every c but n - 1 (p = q, where
      x + y = 0 (mod n) misses the triangle).  Let T be the closed triangle
      x, y >= 1, x + y <= n - 1, with legs l = n - 3 and centroid G.  G has
      line index b = det(u, G)/n = (u_x - u_y)/3, and 3b is an integer, so
      the nearer centroid line is within d = n/(3|u|) of G.  The chord of T
      parallel to u is a concave function of its offset, at least 2M/3 at G,
      and reaches zero no nearer than W/3 to G on either side, where M is
      the longest such chord and W the width of T normal to u: M W = l^2
      and l/sqrt(2) <= W <= l sqrt(2).
      So the nearer line's chord is at least h = (2M/3)(1 - 3d/W), and a
      closed chord at least |u| long holds a lattice point.  By Hermite's
      bound |u|^2 <= 2n/sqrt(3).  |u| = sqrt(2) only for c in {1, n - 1},
      and c = 1 has (1, 1) on its centroid line x = y; |u| = 2 or sqrt(8)
      would make n even or (1, +-1) a shorter vector.  On sqrt(5) <= |u|,
      h - |u| is concave in |u| and unimodal in W, so its minimum is at a
      corner, and every corner is positive for n >= 15; the tests check
      every c at the primes below 15.

    Every point that ties with or beats t lies in the box, so the result is
    the one the O(n) scan over all x returns, tie-breaks included.  The box
    is O(|w|) wide, or the whole triangle when |w| is of order n and |u| is
    O(1); either way it meets O(1) lines.  The cost is the O(log n) Gauss
    reduction plus O(1) candidates on each of O(1) lines: about 1.8 lines
    and at most eight candidates each at n of order 10^3 to 10^5.  This
    kernel is the largest share of a balanced report, so it runs on plain
    int locals: the basis is four ints, the candidates' max and min are
    found by comparisons and ranked by cross-multiplication, and only a
    line's best point becomes a tuple.
    """
    ux, uy, wx, wy = _reduced_basis(n, c)
    # the centroid is a*u + b*w with b = det(u, centroid)/n = (u_x - u_y)/3,
    # between the lines j0 and j1 (one line when 3 | u_x - u_y)
    j0 = (ux - uy) // 3
    j1 = -((uy - ux) // 3)
    best = _line_best(n, ux, uy, j0 * wx, j0 * wy, 1, n - 2)
    if j1 != j0:
        cand = _line_best(n, ux, uy, j1 * wx, j1 * wy, 1, n - 2)
        if cand is not None and (
            best is None or (cand[0] * best[1], cand[2]) < (best[0] * cand[1], best[2])
        ):
            best = cand
    big, small, _ = best  # a centroid line holds a point (see the docstring)
    lo = -((-n * small) // (small + 2 * big))
    hi = (n * big) // (big + 2 * small)
    # a point P lies on line det(u, P)/n, which over the box is extreme at
    # a corner of the triangle v1, v2, v3 >= lo: (lo, lo), (n - 2 lo, lo)
    # and (lo, n - 2 lo); the centroid lines are not searched again, as
    # their best point over the triangle is also their best in the box or
    # loses to the bound
    e0 = (ux - uy) * lo
    e1 = ux * lo - uy * (n - 2 * lo)
    e2 = ux * (n - 2 * lo) - uy * lo
    if e1 < e2:
        e_min, e_max = e1, e2
    else:
        e_min, e_max = e2, e1
    if e0 < e_min:
        e_min = e0
    elif e0 > e_max:
        e_max = e0
    for j in range(-(-e_min // n), e_max // n + 1):
        if j == j0 or j == j1:
            continue
        cand = _line_best(n, ux, uy, j * wx, j * wy, lo, hi)
        if cand is not None and (
            (cand[0] * best[1], cand[2]) < (best[0] * cand[1], best[2])
        ):
            best = cand
    return best[2]


def _wall_seeds(spec: LocalConeSpec) -> dict[tuple[int, int], int]:
    n, p, q = spec.n, spec.p, spec.q
    pp = mod_inverse(p, n)
    return {(1, 2): (-pp * q) % n, (1, 3): pp, (2, 3): mod_inverse(q, n)}


def cyclic_resolution(spec: LocalConeSpec, v: tuple[int, int, int]) -> CyclicResolution:
    """Star subdivision at v, walls refined; every record certified exactly.

    ``v`` is a point (v1, v2, v3) of three ints, as :func:`select_v`
    returns; anything else raises BadInput.  For each 3-cone the lattice
    determinant is compared with the predicted multiplicity v_l, exterior
    walls are checked unimodular, and the cyclic type is the solution of the
    divisibility congruence.  A record that fails a check raises
    CertificationError.
    """
    flags = _excluded_shape(spec.n, spec.p, spec.q)
    if flags is not None:
        raise Degenerate(f"excluded cone shape {flags}")
    v = v1, v2, v3 = _point(v)
    if min(v) <= 0:
        raise NotInterior(f"{v} has a zero coordinate")
    n = spec.n
    if v3 != (spec.p * v1 + spec.q * v2) % n or max(v) >= n:
        raise BadInput(f"{v} is not in the open parallelepiped")

    d = spec.rays
    v_vec = _lattice_comb(d, v, n)
    walls = {(j, k): hj_expand(n, seed) for (j, k), seed in _wall_seeds(spec).items()}

    cones = []
    inner_mults = {}
    for (j, k), e in walls.items():
        l = 6 - j - k
        vj, vk, vl = v[j - 1], v[k - 1], v[l - 1]
        n_inv = mod_inverse(n % vl, vl) if vl > 1 else 0
        rays = [
            _lattice_comb((d[j - 1], d[k - 1]), (e.m_seq[a], e.n_seq[a]), n)
            for a in range(e.s + 2)
        ]
        for a in range(e.s + 1):
            det = abs(_det3(v_vec, rays[a], rays[a + 1]))
            if det != vl:
                raise CertificationError(
                    f"cone ({j},{k},{a}) multiplicity {det} != v_l = {vl}"
                )
            if _minor_gcd(rays[a], rays[a + 1]) != 1:
                raise CertificationError(f"exterior wall ({j},{k},{a}) not unimodular")
            if vl == 1:
                ta = tb = 0
            else:
                # unique solution of a*e_a + b*e_{a+1} + v ~ 0 (mod v_l)
                ta = (n_inv * (e.m_seq[a + 1] * vk - e.n_seq[a + 1] * vj)) % vl
                tb = (-n_inv * (e.m_seq[a] * vk - e.n_seq[a] * vj)) % vl
            cones.append(ConeRecord((j, k), a, vl, ta, tb))
        for a in range(1, e.s + 1):
            if e.m_seq[a] + e.n_seq[a] - 1 < 0:
                raise CertificationError(
                    f"wall divisor ({j},{k},{a}) has a non-effective discrepancy"
                )
            inner_mults[((j, k), a)] = math.gcd(
                vj * e.n_seq[a] - vk * e.m_seq[a], vl
            )
    if sum(v) - 1 < 0:
        raise CertificationError(f"central divisor of {v} has a non-effective discrepancy")
    return CyclicResolution(spec, v, walls, tuple(cones), inner_mults)


def local_intersection_table(res: CyclicResolution) -> LocalIntersections:
    """Evaluate the rational intersection numbers of the local model.

    F^3 = n/(v1 v2 v3), K F^2 = (v1+v2+v3-n)/(v1 v2 v3),
    K.C_{jk,a} = mult(rho_{jk,a})/v_l (k_a - 2), and for each axis l

        K.C_l = -gcd(v_j, v_k)/(v_j v_k)
                 (v_j + v_k - 1 + (v_l - m_{lj,1} v_j - m_{lk,1} v_k)/n);

    K^2 F is assembled from these through the adjunction-style relation.
    """
    spec, v = res.spec, res.v
    n = spec.n
    v1, v2, v3 = v
    f3 = Fraction(n, v1 * v2 * v3)
    kf2 = Fraction(v1 + v2 + v3 - n, v1 * v2 * v3)

    k_cl = {}
    for l in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {l})
        vj, vk, vl = v[j - 1], v[k - 1], v[l - 1]
        g = math.gcd(vj, vk)
        inner = vj + vk - 1 + Fraction(
            vl - res.first_m(l, j) * vj - res.first_m(l, k) * vk, n
        )
        k_cl[l] = -Fraction(g, vj * vk) * inner

    k_cjk = {}
    e_c = {}
    for (jk, a), mult_rho in res.inner_wall_mults.items():
        l = 6 - jk[0] - jk[1]
        vl = v[l - 1]
        ka = res.walls[jk].ks[a - 1]
        k_cjk[(jk, a)] = Fraction(mult_rho * (ka - 2), vl)
        e_c[(jk, a, a)] = Fraction(-ka * mult_rho, vl)
        for b in (a - 1, a + 1):
            if ((jk, b)) in res.inner_wall_mults:
                e_c[(jk, a, b)] = Fraction(mult_rho, vl)

    k2f = -kf2
    for l, val in k_cl.items():
        j, k = sorted({1, 2, 3} - {l})
        g = math.gcd(v[j - 1], v[k - 1])
        k2f -= val / g
    for key, val in k_cjk.items():
        k2f -= val / res.inner_wall_mults[key]

    return LocalIntersections(f3, kf2, k_cl, k_cjk, e_c, k2f)


def resolution_to_json(res: CyclicResolution) -> str:
    """Stable JSON form of a resolution (for golden-file comparisons)."""
    doc = {
        "schema": "rootcover-resolution/1",
        "spec": {"n": res.spec.n, "p": res.spec.p, "q": res.spec.q},
        "v": list(res.v),
        "V": str(res.V),
        "walls": {
            f"{j}{k}": {
                "seed": e.q,
                "ks": list(e.ks),
                "m_seq": list(e.m_seq),
                "n_seq": list(e.n_seq),
            }
            for (j, k), e in sorted(res.walls.items())
        },
        "cones": [
            {
                "wall": f"{c.wall[0]}{c.wall[1]}",
                "alpha": c.alpha,
                "mult": c.mult,
                "type": [c.type_a, c.type_b, 1],
            }
            for c in res.cones
        ],
        "inner_wall_mults": [
            {"wall": f"{jk[0]}{jk[1]}", "alpha": a, "mult": m}
            for (jk, a), m in sorted(res.inner_wall_mults.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
