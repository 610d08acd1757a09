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


def _interior_point(v) -> tuple[int, int, int]:
    """``v`` as a point (v1, v2, v3) of three positive ints.

    Anything but three ints is BadInput; a point with a coordinate <= 0 is
    NotInterior.
    """
    try:
        v1, v2, v3 = v
    except (TypeError, ValueError):
        raise BadInput(f"{v!r} is not a point (v1, v2, v3)") from None
    require_ints("point coordinates", v1, v2, v3)
    v = v1, v2, v3
    if min(v) <= 0:
        raise NotInterior(f"{v} has a non-positive coordinate")
    return v


def max_slope(v: tuple[int, int, int]) -> Fraction:
    """max v_j / v_k over all coordinate pairs (the balance figure of merit).

    ``v`` is a point (v1, v2, v3) of three ints, else BadInput.  Raises
    :class:`NotInterior` for a point with a coordinate <= 0.
    """
    v = _interior_point(v)
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
    multiplier c = {-(p+1)(q+1)'}_n: the point of smallest max slope, which
    is the best point of the one or two lattice lines next to the centroid.
    It depends on c alone, so it is computed once per distinct c within the
    call.
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


def _line_best(n: int, ux: int, uy: int, x0: int, y0: int):
    """Best point (max, min, coords) of the line (x0, y0) + Z*u in the triangle.

    The triangle is v1, v2, v3 >= 1 with v3 = n - v1 - v2, and u_x > 0.  Of
    tied points the one with the smallest v1 is returned; None when the line
    has no lattice point in the triangle.

    The coordinates are linear in the step i, so between two of the
    crossings v1 = v2, v1 = v3, v2 = v3 the max slope f is one
    linear-fractional function of i, constant or strictly monotone.  At the
    smallest integer minimiser i, unless it is an end of the step range,
    f(i - 1) > f(i) <= f(i + 1), so no single piece spans [i - 1, i + 1]
    and a crossing b lies in [i - 1, i + 1).  The candidates are thus the
    two ends and floor(b), floor(b) + 1 for each crossing b in range; a
    stretch of constant f needs no special case.
    """
    # the steps i with v1, v2, v3 >= 1; v1 grows with i (u_x > 0), so v2 or
    # v3 falls and bounds i above, and each v <= n - 2 follows from the
    # other two being >= 1
    i_lo = -((x0 - 1) // ux)
    s0, s1 = n - x0 - y0, ux + uy  # v3 = s0 - i*s1
    if uy < 0:
        i_hi = (1 - y0) // uy
        if s1 > 0:
            j = (s0 - 1) // s1
            if j < i_hi:
                i_hi = j
        elif s1 < 0:
            j = -((1 - s0) // s1)
            if j > i_lo:
                i_lo = j
        elif s0 < 1:
            return None
    else:  # so s1 > 0
        if uy:
            j = -((y0 - 1) // uy)
            if j > i_lo:
                i_lo = j
        elif y0 < 1:
            return None
        i_hi = (s0 - 1) // s1
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
    best_big, best_small, best_i = 1, 0, i_lo  # loses to any point in range
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
      shortest and det(u, w) = n, so L is the union of the lines
      j*w + Z*u, and a point P of L lies on the line j = det(u, P)/n.
    * Along one line the coordinates are linear in the step, so the max
      slope is piecewise linear-fractional, with pieces that end where two
      coordinates cross.  The line's best point is one of at most eight
      candidates: the two ends of the line inside the triangle, and the two
      integer steps around each of the three crossings (see _line_best).
      u points towards increasing v1, so the first of the line's ties is
      also the lexicographically first.
    * The centroid G = (n/3, n/3) lies on the line b = (u_x - u_y)/3.  The
      answer is the best point of the centroid lines j0 = floor(b) and
      j1 = ceil(b) (one line when 3 | u_x - u_y): no point of another line
      has a max slope at or below t*, the best max slope on those two.

    The proof.  S(v) = max(|v_x - v_y|, |2v_x + v_y|, |v_x + 2v_y|) is a
    norm with S(v) <= sqrt(5)|v|.  For P = G + d let e = (d_x, d_y,
    -d_x - d_y), the offsets of v1, v2, v3 from n/3, with largest M and
    smallest m: M - m = S(d), and 2M + m >= 0 as e sums to 0.

    * The reach.  The points with max slope <= t form the hexagon with the
      vertices G + n(t-1)/(3(t+2)) {(-1,-1), (-1,2), (2,-1)} and
      G + n(t-1)/(3(2t+1)) {(-2,1), (1,-2), (1,1)}.  det(u, P)/n is
      linear in P, so over the hexagon |det(u, P)/n - b| <= R(t) =
      (t-1)S(u)/(3(t+2)), its value at a vertex.
    * The gap.  3b is an integer, so every other line j has |j - b| >= g,
      with g = 1 when b is an integer and g = 4/3 when it is not.  So the
      claim holds when R(t*) < g, ties included.
    * A witness.  A point P = G + d of L in the triangle has max slope
      t = (n + 3M)/(n + 3m), so (t-1)/(t+2) = S(d)/(n + M + 2m) <=
      S(d)/(n - S(d)).  On a centroid line it has t* <= t, and R grows
      with t, so R(t*) < g once S(d)(S(u) + 3g) < 3gn.  P lies in the
      triangle when every |e_i| < n/3, which holds when sqrt(2)|d| < n/3.
    * b an integer.  3G = (n, n) is in L and G is not (n > 3), so
      G = a u + b w with 3a an integer and a not one, and line b holds
      P = G + d with d = +-u/3.  The condition is S(u)^2 + 3S(u) < 9n.
      By Hermite's bound |u|^2 <= 2n/sqrt(3), S(u)^2 <= 5|u|^2 < 5.78n,
      so it holds for n >= 7, and sqrt(2)|u|/3 < n/3 for n >= 3.
    * b not an integer.  Then u is none of (1, 0) (c = 0), (2, 0) (n odd),
      (1, 1) (b = 0) and (1, -1) (c = n - 1), so |u|^2 >= 5.  Write
      w = omega u + w' with w' normal to u, |w'| = n/|u|.  The nearer
      centroid line j = b +- 1/3 holds the points G + tau u +- w'/3 with
      tau in a coset of Z, one of them with |tau| <= 1/2, so
      |u|^2 |d|^2 <= |u|^4/4 + n^2/9.  The condition is
      S(d)(S(u) + 4) < 4n, and S(d)(S(u) + 4) <= sqrt(5)|d| (sqrt(5)|u| + 4).
      - |u|^2 > 80: Hermite gives |u|^4/4 <= n^2/3, so |u||d| <= 2n/3.
        Then S(u)S(d) <= 5|u||d| <= 10n/3 and 4S(d) <= 8 sqrt(5)n/(3|u|)
        < 2n/3, and sqrt(2)|d| <= 2 sqrt(2)n/(3|u|) < n/3, at every n.
      - 5 <= |u|^2 <= 80: |d| <= |u|/2 + n/(3|u|), so sqrt(5)|d|
        (sqrt(5)|u| + 4) <= 5|u|^2/2 + 2 sqrt(5)|u| + n(5/3 +
        4 sqrt(5)/(3|u|)) <= 240 + 3n < 4n, and sqrt(2)|d| < 6.4 +
        0.22n < n/3, for n > 240.

    So the claim holds for n > 240, and the witness shows that a centroid
    line holds a point there; below, the tests check both at every c of
    every prime.  The cost is the O(log n) Gauss reduction plus at most
    eight candidates on each of at most two lines.  This kernel is the
    largest share of a balanced report, so it runs on plain int locals:
    the basis is four ints, the candidates' max and min are found by
    comparisons and ranked by cross-multiplication, and only a line's best
    point becomes a tuple.
    """
    ux, uy, wx, wy = _reduced_basis(n, c)
    # the centroid is a*u + b*w with b = det(u, centroid)/n = (u_x - u_y)/3,
    # between the lines j0 and j1 (one line when 3 | u_x - u_y)
    j0 = (ux - uy) // 3
    j1 = -((uy - ux) // 3)
    best = _line_best(n, ux, uy, j0 * wx, j0 * wy)
    if j1 != j0:
        cand = _line_best(n, ux, uy, j1 * wx, j1 * wy)
        if cand is not None and (
            best is None or (cand[0] * best[1], cand[2]) < (best[0] * cand[1], best[2])
        ):
            best = cand
    return best[2]  # a centroid line holds a point (see the docstring)


def _wall_seeds(spec: LocalConeSpec) -> dict[tuple[int, int], int]:
    n, p, q = spec.n, spec.p, spec.q
    pp = mod_inverse(p, n)
    return {(1, 2): (-pp * q) % n, (1, 3): pp, (2, 3): mod_inverse(q, n)}


def cyclic_resolution(spec: LocalConeSpec, v: tuple[int, int, int]) -> CyclicResolution:
    """Star subdivision at v, walls refined; every record certified exactly.

    ``v`` is a point (v1, v2, v3) of three ints, as :func:`select_v`
    returns; anything else raises BadInput, and a coordinate <= 0 raises
    NotInterior.  For each 3-cone the lattice determinant is compared with
    the predicted multiplicity v_l, exterior walls are checked unimodular,
    and the cyclic type is the solution of the divisibility congruence.  A
    record that fails a check raises CertificationError.
    """
    flags = _excluded_shape(spec.n, spec.p, spec.q)
    if flags is not None:
        raise Degenerate(f"excluded cone shape {flags}")
    v = v1, v2, v3 = _interior_point(v)
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
