"""Independent oracle for the global invariants: the toric fan of the cover.

(P^3, r coordinate planes) is toric, and so are its n-th root cover and the
cyclic resolution X_n.  The fan of P^3 in N = Z^3 has the rays e0 = -(e1 +
e2 + e3), e1, e2, e3 and a maximal cone for every three of them.  For r = 4
divisor j is the plane of e_j; for r = 3 divisors 0..2 are those of e1..e3
and e0 is not branched.  The cover's lattice is

    N' = {u : nu(e1) u1 + nu(e2) u2 + nu(e3) u3 = 0 (mod n)},

with nu(e_i) the multiplicity on e_i (0 when unbranched); on e0 the same
functional gives -(nu(e1) + nu(e2) + nu(e3)), which is nu(e0) because the
multiplicities sum to 0 mod n.  X_n's fan, in N':

* each branched 2-face (e_a, e_b) is refined by every N' point on the
  compact boundary of the hull of its nonzero N' points, found by brute
  force in x e_a + y e_b, x + y <= n (no Hirzebruch-Jung code);
* each fully branched cone (e_a, e_b, e_c) is star-subdivided at
  v_a e_a + v_b e_b + v_c e_c, with (v_a, v_b, v_c) the package's
  ``select_v(LocalConeSpec(n, q_ac, q_bc), strategy)``, the only input
  shared with the package;
* a cone with the unbranched ray keeps that ray; only its branched face is
  refined.

Then e(X_n) is the number of maximal cones and chi(O) = 1.  K^3 is the
localization sum over the maximal cones sigma,

    K^3 = sum_sigma -(c1 + c2 + c3)^3 / (mult_sigma c1 c2 c3),

with c the coordinates of a generic xi in the basis of sigma's rays and
mult_sigma = |det sigma| / n its multiplicity in N'.  Two large unrelated
xi must give the same number; small ones can lie on a ray plane.  On the
base fan, e(D) is the number of maximal cones with a branched ray and
e(Sing D) the number with at least two.

The package's K^3 is exact only where every triple point gets (1, 1, 1),
which the minimal strategy does on planes r = 3; its e does not agree with
the fan yet (the stratified formula of the Euler number is still to come),
so only what agrees is asserted here.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from rootcover.asympt import Partition, q_of_pair
from rootcover.errors import Degenerate
from rootcover.invariants import chi_root_cover, k3_root_cover
from rootcover.logchern import make_preset
from rootcover.toric import STRATEGIES, LocalConeSpec, select_v

RAYS = ((-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1))  # e0, e1, e2, e3
XIS = ((1_000_003, -7_777_771, 31_415_927), (-2_718_281, 16_180_339, 9_999_991))
PRIMES = (5, 7, 11, 13)


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _comb(pairs):
    """sum coeff * vector over (coeff, vector) pairs."""
    return tuple(sum(c * v[i] for c, v in pairs) for i in range(3))


@functools.lru_cache(maxsize=None)
def _face_chain(n, nu_a, nu_b):
    """(x, y) of the N' points x e_a + y e_b on the compact boundary of the
    hull, from (n, 0) to (0, n) in order of angle."""
    nearest = {}  # the first N' point on each ray through the origin
    for x in range(n + 1):
        for y in range(n + 1 - x):
            if (x or y) and (nu_a * x + nu_b * y) % n == 0:
                angle = Fraction(y, x + y)
                if angle not in nearest or x + y < sum(nearest[angle]):
                    nearest[angle] = (x, y)
    chain = []
    for p in (nearest[angle] for angle in sorted(nearest)):
        # drop the last point while it lies outside the chord from the one
        # before it to p (a left turn); collinear points stay
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) <= 0:
                break
            chain.pop()
        chain.append(p)
    return tuple(chain)


def _multiplicities(nu):
    """nu on the rays e0..e3: divisor j is e_j for r = 4, e_{j+1} for r = 3."""
    return tuple(nu) if len(nu) == 4 else (0, *nu)


def cover_fan(n, nu, strategy):
    """The maximal cones of X_n, each as three rays in N coordinates."""
    mult = _multiplicities(nu)
    chains = {
        (a, b): [_comb(((x, RAYS[a]), (y, RAYS[b]))) for x, y in _face_chain(n, mult[a], mult[b])]
        for a, b in itertools.combinations(range(4), 2)
        if mult[a] and mult[b]
    }
    cones = []
    for a, b, c in itertools.combinations(range(4), 3):
        if mult[a] and mult[b] and mult[c]:
            va, vb, vc = select_v(
                LocalConeSpec(n, q_of_pair(n, mult[a], mult[c]), q_of_pair(n, mult[b], mult[c])),
                strategy,
            )
            apex = _comb(((va, RAYS[a]), (vb, RAYS[b]), (vc, RAYS[c])))
            # a primitive point of N'
            assert math.gcd(*apex) == 1
            assert sum(m * x for m, x in zip(mult[1:], apex)) % n == 0
            faces = ((a, b), (a, c), (b, c))
        else:  # r = 3: the unbranched e0 and the branched face opposite it
            apex, faces = RAYS[a], ((b, c),)
        for face in faces:
            chain = chains[face]
            cones.extend((apex, w, w2) for w, w2 in zip(chain, chain[1:]))
    return cones


def fan_k3(cones, index, xi):
    """K^3 by localization; ``index`` is [N : N'], so mult = |det| / index."""
    total = Fraction(0)
    for rays in cones:
        det = _det3(*rays)
        # Cramer: c_m = d_m / det, so the term is -(sum d)^3 / (mult prod d)
        d = [_det3(*(xi if i == m else rays[i] for i in range(3))) for m in range(3)]
        assert all(d), f"xi {xi} lies on a ray plane of {rays}"
        total -= Fraction(index * sum(d) ** 3, abs(det) * d[0] * d[1] * d[2])
    return total


@functools.lru_cache(maxsize=None)
def planes_cells(r):
    """Every (n, nu, strategy, cones) on planes_p3 r at PRIMES whose triple
    cones are not of an excluded shape, with the fan built once per cell."""
    cells = []
    for n in PRIMES:
        for nu in itertools.product(range(1, n), repeat=r):
            if sum(nu) % n:
                continue
            for strategy in STRATEGIES:
                try:
                    cells.append((n, nu, strategy, cover_fan(n, nu, strategy)))
                except Degenerate:
                    pass
    return cells


def test_p3_fan():
    cones = [tuple(RAYS[i] for i in cone) for cone in itertools.combinations(range(4), 3)]
    assert len(cones) == 4  # e(P^3)
    for xi in XIS:
        assert fan_k3(cones, 1, xi) == -64


def test_face_chain_is_the_lower_hull():
    # n = 7 with x + 3y = 0 (mod 7): the N' points nearest the origin on
    # their rays are (7, 0), (4, 1), (1, 2), (5, 3), (2, 4), (6, 5), (3, 6),
    # (0, 7), and the four after (1, 2) lie beyond the chord to (0, 7); the
    # chain is that of 7/2 = [4, 2]
    assert _face_chain(7, 1, 3) == ((7, 0), (4, 1), (1, 2), (0, 7))
    # x + y = 0 (mod 5): every point of the chord x + y = 5 is on it
    assert _face_chain(5, 1, 1) == tuple((5 - y, y) for y in range(6))


@pytest.mark.parametrize("r", [3, 4])
def test_base_fan_counts_the_euler_data(r):
    # the torus-fixed points of D are the maximal cones with a branched ray,
    # those of Sing D the cones with two
    mult = _multiplicities(range(1, r + 1))
    branched = [
        sum(1 for i in cone if mult[i]) for cone in itertools.combinations(range(4), 3)
    ]
    pair = make_preset("planes_p3", r)
    assert pair.e_d == sum(1 for b in branched if b >= 1)
    assert pair.e_sing_d == sum(1 for b in branched if b >= 2)


@pytest.mark.parametrize("r", [3, 4])
def test_fan_k3_does_not_depend_on_xi(r):
    cells = planes_cells(r)
    assert len(cells) == {3: 336, 4: 1632}[r]  # 984 of 1968 per strategy
    for n, nu, strategy, cones in cells:
        assert fan_k3(cones, n, XIS[0]) == fan_k3(cones, n, XIS[1]), (n, nu, strategy)


@pytest.mark.parametrize("r", [3, 4])
def test_chi_is_one_on_every_cell(r):
    pair = make_preset("planes_p3", r)
    for n, nu, strategy, _cones in planes_cells(r):
        assert chi_root_cover(pair, Partition(n, nu)).chi == 1, (n, nu, strategy)


def test_k3_agrees_on_every_r3_minimal_cell():
    # every triple point gets (1, 1, 1): the cells where K^3 is exact today
    pair = make_preset("planes_p3", 3)
    cells = [cell for cell in planes_cells(3) if cell[2] == "minimal"]
    assert len(cells) == 168
    for n, nu, strategy, cones in cells:
        assert k3_root_cover(pair, Partition(n, nu), strategy) == fan_k3(cones, n, XIS[0])


def test_fixture_cell():
    # n = 7, nu = (1, 2, 4): every chain has length 3, so the fan has
    # 2 * 9 + 6 = 24 maximal cones under either strategy
    fans = {strategy: cover_fan(7, (1, 2, 4), strategy) for strategy in STRATEGIES}
    assert [len(cones) for cones in fans.values()] == [24, 24]
    assert fan_k3(fans["minimal"], 7, XIS[0]) == -14
