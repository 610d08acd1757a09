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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import BadInput, CertificationError, Degenerate, NotInterior
from .exact import is_prime, mod_inverse
from .hj import HJExpansion, hj_expand

__all__ = [
    "LocalConeSpec",
    "LatticePoint",
    "ConeRecord",
    "CyclicResolution",
    "LocalIntersections",
    "local_cone",
    "parallelepiped_points",
    "select_v",
    "subdivision_point",
    "cyclic_resolution",
    "local_intersection_table",
    "max_slope",
    "resolution_to_json",
]

WALLS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class LocalConeSpec:
    """The cone data (n, p, q) of one triple point."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        if not is_prime(self.n):
            raise BadInput(f"modulus must be prime, got {self.n}")
        if not (0 < self.p < self.n and 0 < self.q < self.n):
            raise BadInput("p, q must be nonzero modulo n")

    @property
    def degenerate_flags(self) -> dict[str, bool]:
        """The excluded shapes: edge-type walls and the (1,1)-type third wall."""
        n, p, q = self.n, self.p, self.q
        return {
            "edge": p == n - 1 or q == n - 1,
            "equal": p == q,
            "opposite": (p + q) % n == 0,
        }

    @property
    def is_degenerate(self) -> bool:
        return any(self.degenerate_flags.values())

    @property
    def rays(self) -> tuple[tuple[int, int, int], ...]:
        n, p, q = self.n, self.p, self.q
        return ((n, 0, -p), (0, n, -q), (0, 0, 1))


@dataclass(frozen=True)
class LatticePoint:
    """A point of the fundamental parallelepiped, v = (v1 d1 + v2 d2 + v3 d3)/n."""

    v1: int
    v2: int
    v3: int

    @property
    def coords(self) -> tuple[int, int, int]:
        return (self.v1, self.v2, self.v3)

    @property
    def total(self) -> int:
        return self.v1 + self.v2 + self.v3

    def is_interior(self) -> bool:
        return min(self.coords) > 0


def max_slope(v: LatticePoint) -> Fraction:
    """max v_j / v_k over all coordinate pairs (the balance figure of merit)."""
    return Fraction(max(v.coords), min(v.coords))


@dataclass(frozen=True)
class ConeRecord:
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


@dataclass(frozen=True)
class CyclicResolution:
    """Star subdivision at v plus Hirzebruch-Jung refinement of each wall."""

    spec: LocalConeSpec
    v: LatticePoint
    walls: dict[tuple[int, int], HJExpansion]
    cones: tuple[ConeRecord, ...]
    inner_wall_mults: dict[tuple[tuple[int, int], int], int]

    @cached_property
    def V(self) -> Fraction:
        """Discrepancy coefficient of the central divisor F."""
        return Fraction(self.v.total - self.spec.n, self.spec.n)

    def N(self, wall: tuple[int, int], alpha: int) -> Fraction:
        """Discrepancy N_{jk,a} = (m_a + n_a)/n - 1 of the a-th wall divisor."""
        e = self.walls[wall]
        return Fraction(e.m_seq[alpha] + e.n_seq[alpha] - e.n, e.n)

    def first_m(self, frm: int, to: int) -> int:
        """m_{jk,1} for the wall expanded in direction d_frm -> d_to."""
        if frm < to:
            return self.walls[(frm, to)].q
        return self.walls[(to, frm)].q_inv

    def ray_vector(self, wall: tuple[int, int], alpha: int) -> tuple[int, int, int]:
        """Exceptional ray e_{jk,a} = (m_a d_j + n_a d_k)/n as a lattice vector."""
        e = self.walls[wall]
        d = self.spec.rays
        j, k = wall
        return _lattice_comb((d[j - 1], d[k - 1]),
                             (e.m_seq[alpha], e.n_seq[alpha]), self.spec.n)


@dataclass(frozen=True)
class LocalIntersections:
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


def parallelepiped_points(spec: LocalConeSpec) -> Iterator[LatticePoint]:
    """All n^2 lattice points (v1, v2, {p v1 + q v2}_n) of the parallelepiped."""
    n, p, q = spec.n, spec.p, spec.q
    for v1 in range(n):
        for v2 in range(n):
            yield LatticePoint(v1, v2, (p * v1 + q * v2) % n)


def select_v(spec: LocalConeSpec, strategy: str) -> LatticePoint:
    """Choose the star-subdivision point of the cone ``spec``.

    The point of :func:`subdivision_point` for (spec.n, spec.p, spec.q), as a
    :class:`LatticePoint`; the checks of ``spec`` (n prime, p and q nonzero
    modulo n) have run when it was built.
    """
    return LatticePoint(*subdivision_point(spec.n, spec.p, spec.q, strategy))


def subdivision_point(n: int, p: int, q: int, strategy: str) -> tuple[int, int, int]:
    """The star-subdivision point (v1, v2, v3) of the cone (n, p, q), in integers.

    The caller guarantees what :class:`LocalConeSpec` checks: n prime and
    0 < p, q < n.  The global invariants call this once per triple point
    with p, q read off ``Partition.q_matrix``; :func:`select_v` wraps it for
    a validated spec.

    ``minimal`` takes (1, 1, {p+q}_n), the interior point over the corner of
    the parallelepiped (Degenerate when {p+q}_n = 0).

    ``balanced`` solves v1 + v2 + v3 = n: those points are exactly
    (x, {cx}_n, n - x - {cx}_n) with c = {-(p+1)(q+1)'}_n and x + {cx}_n < n,
    i.e. the points (x, y) of the rank-2 lattice L = {(x, y) : y = cx (mod n)}
    in the open triangle x, y >= 1, x + y <= n - 1.  Among them the one with
    the smallest max slope max(v)/min(v) is returned, ties broken
    lexicographically on (v1, v2, v3).  The search is exact, in integers:

    * Gauss reduction of (1, c), (0, n) gives a basis u, w of L with u
      shortest, so L is the union of the lines j*w + Z*u, spaced
      n/|u| >= |w| sqrt(3)/2 apart.
    * Along one line the max slope is quasiconvex, and it is constant on a
      stretch only where it takes its minimum over the line.  So the first
      step i whose successor has no smaller max slope is the line's best
      point, found by bisection; u points towards increasing v1, so it is
      also the lexicographically first of the line's ties.
    * The two lines next to the centroid (n/3, n/3) give a bound t = a/b on
      the answer.  Every point with max slope <= t has each coordinate in
      [ceil(nb/(b+2a)), floor(na/(a+2b))], so only the lines that cross this
      box are searched, within the box.  With no valid point on those two
      lines the box is the whole triangle.

    Every point that ties with or beats t lies in the box, so the result is
    the one the O(n) scan over all x returns, tie-breaks included.  The box
    is O(|w|) wide, or the whole triangle when |w| is of order n and |u| is
    O(1); either way it meets O(1) lines, and the cost is O(log n).
    """
    if strategy == "minimal":
        h = (p + q) % n
        if h == 0:
            raise Degenerate("{p+q}_n = 0: the minimal point is not interior")
        return (1, 1, h)
    if strategy == "balanced":
        if (q + 1) % n == 0:
            raise Degenerate("q = n - 1: the slope parameter is not defined")
        c = (-(p + 1) * mod_inverse((q + 1) % n, n)) % n
        if c == 0:
            raise Degenerate("p = n - 1: no interior point with coordinate sum n")
        best = _balanced_point(n, c)
        if best is None:
            raise Degenerate("no interior point with coordinate sum n")
        return best
    raise BadInput(f"unknown strategy {strategy!r}")


def _reduced_basis(n: int, c: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gauss-reduced basis (u, w) of {(x, y) : y = cx (mod n)}.

    u is a shortest vector, so u_x != 0 (any (1, y) in L with |y| <= n/2
    is shorter than (0, n)); it is taken with u_x > 0, and det(u, w) = n.
    """
    u, w = (1, c), (0, n)
    while True:
        uu = u[0] * u[0] + u[1] * u[1]
        uw = u[0] * w[0] + u[1] * w[1]
        mu = (2 * uw + uu) // (2 * uu)  # round(uw / uu)
        w = (w[0] - mu * u[0], w[1] - mu * u[1])
        if w[0] * w[0] + w[1] * w[1] >= uu:
            break
        u, w = w, u
    if u[0] < 0:
        u = (-u[0], -u[1])
    if u[0] * w[1] - u[1] * w[0] < 0:
        w = (-w[0], -w[1])
    return u, w


def _step_range(c0: int, c1: int, lo: int, hi: int) -> tuple[int, int]:
    """The integers i with lo <= c0 + c1*i <= hi, as (first, last); c1 != 0."""
    if c1 < 0:
        c0, c1, lo, hi = -c0, -c1, -hi, -lo
    return -((c0 - lo) // c1), (hi - c0) // c1


def _line_best(n: int, u, x0: int, y0: int, lo: int, hi: int):
    """Best point (max, min, coords) of the line (x0, y0) + Z*u in the box.

    The box is lo <= v1, v2, v3 <= hi with v3 = n - v1 - v2.  Of tied points
    the one with the smallest v1 is returned; None when the line has no
    lattice point in the box.
    """
    i_lo, i_hi = _step_range(x0, u[0], lo, hi)
    for c0, c1, a, b in ((y0, u[1], lo, hi), (x0 + y0, u[0] + u[1], n - hi, n - lo)):
        if c1 == 0:
            if not a <= c0 <= b:
                return None
            continue
        j_lo, j_hi = _step_range(c0, c1, a, b)
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


def _beats(a, b) -> bool:
    """Whether candidate a = (max, min, coords) sorts before b (or b is None)."""
    return b is None or (a[0] * b[1], a[2]) < (b[0] * a[1], b[2])


def _balanced_point(n: int, c: int) -> tuple[int, int, int] | None:
    """The balanced point for the multiplier c (see subdivision_point), or None."""
    u, w = _reduced_basis(n, c)

    def search(lines, lo, hi):
        best = None
        for j in lines:
            cand = _line_best(n, u, j * w[0], j * w[1], lo, hi)
            if cand is not None and _beats(cand, best):
                best = cand
        return best

    # the centroid is a*u + b*w with b = det(u, centroid)/n = (u_x - u_y)/3
    bound = search({(u[0] - u[1]) // 3, -((u[1] - u[0]) // 3)}, 1, n - 2)
    if bound is None:
        lo, hi = 1, n - 2
    else:
        big, small, _ = bound
        lo = -((-n * small) // (small + 2 * big))
        hi = (n * big) // (big + 2 * small)
    # a point P lies on line det(u, P)/n, which over the box is extreme at
    # a corner of the triangle v1, v2, v3 >= lo
    corners = ((lo, lo), (n - 2 * lo, lo), (lo, n - 2 * lo))
    ends = [u[0] * y - u[1] * x for x, y in corners]
    best = search(range(-(-min(ends) // n), max(ends) // n + 1), lo, hi)
    return None if best is None else best[2]


def _wall_seeds(spec: LocalConeSpec) -> dict[tuple[int, int], int]:
    n, p, q = spec.n, spec.p, spec.q
    pp = mod_inverse(p, n)
    return {(1, 2): (-pp * q) % n, (1, 3): pp, (2, 3): mod_inverse(q, n)}


def cyclic_resolution(spec: LocalConeSpec, v: LatticePoint) -> CyclicResolution:
    """Star subdivision at v, walls refined; every record certified exactly.

    For each 3-cone the lattice determinant is compared with the predicted
    multiplicity v_l, exterior walls are checked unimodular, and the cyclic
    type is the solution of the divisibility congruence.  A record that fails
    a check raises CertificationError.
    """
    if spec.is_degenerate:
        raise Degenerate(f"excluded cone shape: {spec.degenerate_flags}")
    if not v.is_interior():
        raise NotInterior(f"{v} has a zero coordinate")
    n = spec.n
    if v.v3 != (spec.p * v.v1 + spec.q * v.v2) % n or not all(
        0 < c < n for c in v.coords
    ):
        raise BadInput(f"{v} is not in the open parallelepiped")

    d = spec.rays
    v_vec = _lattice_comb(d, v.coords, n)
    walls = {(j, k): hj_expand(n, seed) for (j, k), seed in _wall_seeds(spec).items()}

    cones = []
    inner_mults = {}
    for (j, k), e in walls.items():
        l = 6 - j - k
        vj, vk, vl = v.coords[j - 1], v.coords[k - 1], v.coords[l - 1]
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
    if v.total - 1 < 0:
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
    v1, v2, v3 = v.coords
    f3 = Fraction(n, v1 * v2 * v3)
    kf2 = Fraction(v.total - n, v1 * v2 * v3)

    k_cl = {}
    for l in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {l})
        vj, vk, vl = v.coords[j - 1], v.coords[k - 1], v.coords[l - 1]
        g = math.gcd(vj, vk)
        inner = vj + vk - 1 + Fraction(
            vl - res.first_m(l, j) * vj - res.first_m(l, k) * vk, n
        )
        k_cl[l] = -Fraction(g, vj * vk) * inner

    k_cjk = {}
    e_c = {}
    for (jk, a), mult_rho in res.inner_wall_mults.items():
        l = 6 - jk[0] - jk[1]
        vl = v.coords[l - 1]
        ka = res.walls[jk].ks[a - 1]
        k_cjk[(jk, a)] = Fraction(mult_rho * (ka - 2), vl)
        e_c[(jk, a, a)] = Fraction(-ka * mult_rho, vl)
        for b in (a - 1, a + 1):
            if ((jk, b)) in res.inner_wall_mults:
                e_c[(jk, a, b)] = Fraction(mult_rho, vl)

    k2f = -kf2
    for l, val in k_cl.items():
        j, k = sorted({1, 2, 3} - {l})
        g = math.gcd(v.coords[j - 1], v.coords[k - 1])
        k2f -= val / g
    for key, val in k_cjk.items():
        k2f -= val / res.inner_wall_mults[key]

    return LocalIntersections(f3, kf2, k_cl, k_cjk, e_c, k2f)


def resolution_to_json(res: CyclicResolution) -> str:
    """Stable JSON form of a resolution (for golden-file comparisons)."""
    doc = {
        "schema": "rootcover-resolution/1",
        "spec": {"n": res.spec.n, "p": res.spec.p, "q": res.spec.q},
        "v": list(res.v.coords),
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
