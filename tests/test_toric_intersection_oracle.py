"""Independent oracle for the local intersection table.

For a simplicial fan, a compact curve C = V(tau) on a wall tau = sigma cap
sigma' determines intersection numbers with every ray divisor through the
wall relation

    mult(tau)/mult(sigma) w + mult(tau)/mult(sigma') w'
        + c_1 u_1 + c_2 u_2 = 0,

where u_1, u_2 generate tau and w, w' are the opposite generators: then
D_w.C = mult(tau)/mult(sigma), D_{w'}.C = mult(tau)/mult(sigma'),
D_{u_i}.C = c_i, and every other ray divisor meets C trivially.  The toric
canonical class is minus the sum of all ray divisors, so K.C = -(sum of all
coefficients).  This re-derives the production table (K.C_l, K.C_{jk,a},
E.C values) from nothing but exact linear algebra on the fan.
"""

import math
import random
from fractions import Fraction

from sympy import primerange

import rootcover.toric as toric
from rootcover.toric import (
    LocalConeSpec,
    cyclic_resolution,
    local_intersection_table,
    select_v,
)
from test_toric import ray_vector


def _solve_relation(u1, u2, w, wprime):
    """Coefficients (a, b, c1, c2) with a*w + b*wprime + c1*u1 + c2*u2 = 0,
    normalized so a = mult(tau)/mult(sigma)."""
    # express wprime in the basis (w, u1, u2) by Cramer's rule
    det = toric._det3(w, u1, u2)
    assert det != 0
    x = Fraction(toric._det3(wprime, u1, u2), det)
    y = Fraction(toric._det3(w, wprime, u2), det)
    z = Fraction(toric._det3(w, u1, wprime), det)
    # wprime = x w + y u1 + z u2 with x < 0 (opposite sides of the wall)
    assert x < 0
    # relation: (-x) w - wprime + ... = 0, rescale to the stated normalization
    mult_tau = toric._minor_gcd(u1, u2)
    mult_sigma = abs(toric._det3(u1, u2, w))
    a = Fraction(mult_tau, mult_sigma)
    scale = a / (-x)
    b = scale  # coefficient of wprime after rescaling -1/(-x) -> scale
    c1 = -y * scale
    c2 = -z * scale
    # consistency: b must equal mult(tau)/mult(sigma')
    mult_sigma_prime = abs(toric._det3(u1, u2, wprime))
    assert b == Fraction(mult_tau, mult_sigma_prime)
    return a, b, c1, c2


def _oracle_tables(res):
    """K.C and selected D.C numbers for every compact curve of the fan."""
    spec, v = res.spec, res.v
    n = spec.n
    d = spec.rays
    v_vec = toric._lattice_comb(d, v, n)

    rays = {}  # symbolic name -> vector
    for idx, vec in enumerate(d, start=1):
        rays[("axis", idx)] = vec
    rays[("center",)] = v_vec
    for (j, k), e in res.walls.items():
        for a in range(e.s + 2):
            vec = ray_vector(res, (j, k), a)
            if 1 <= a <= e.s:
                rays[("exc", (j, k), a)] = vec

    k_cjk = {}
    e_c = {}
    f_c = {}
    k_cl = {}
    for (j, k), e in res.walls.items():
        chain = [ray_vector(res, (j, k), a) for a in range(e.s + 2)]
        for a in range(1, e.s + 1):
            # curve V(C(v, e_a)) between cones with third generators
            # e_{a-1} and e_{a+1}
            coeffs = _solve_relation(v_vec, chain[a], chain[a - 1], chain[a + 1])
            a_prev, a_next, c_v, c_e = coeffs
            total = a_prev + a_next + c_v + c_e
            k_cjk[((j, k), a)] = -total
            e_c[((j, k), a, a)] = c_e
            e_c[((j, k), a, a - 1)] = a_prev
            e_c[((j, k), a, a + 1)] = a_next
            f_c[((j, k), a)] = c_v
    for l in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {l})
        # curve V(C(d_l, v)) between the first cones of walls (l, j), (l, k);
        # the opposite generators are the chain-start rays next to d_l
        wj = _first_ray_from(res, l, j)
        wk = _first_ray_from(res, l, k)
        a_j, a_k, c_l, c_v = _solve_relation(d[l - 1], v_vec, wj, wk)
        k_cl[l] = -(a_j + a_k + c_l + c_v)
    return k_cl, k_cjk, e_c, f_c


def _first_ray_from(res, frm, to):
    """The exceptional ray adjacent to d_frm on the wall {frm, to}."""
    if frm < to:
        return ray_vector(res, (frm, to), 1)
    e = res.walls[(to, frm)]
    return ray_vector(res, (to, frm), e.s)


def test_oracle_matches_table_on_fixtures():
    for n, p, q, strategy in [
        (7, 5, 3, "minimal"),
        (7, 2, 3, "minimal"),
        (7, 2, 3, "balanced"),
        (11, 5, 8, "minimal"),
    ]:
        spec = LocalConeSpec(n, p, q)
        res = cyclic_resolution(spec, select_v(spec, strategy))
        tab = local_intersection_table(res)
        k_cl, k_cjk, e_c, f_c = _oracle_tables(res)
        assert k_cl == tab.k_cl
        assert k_cjk == tab.k_cjk
        for key, val in tab.e_c.items():
            assert e_c[key] == val
        assert all(val == 0 for val in f_c.values())  # F.C_{jk,a} = 0


def test_oracle_matches_table_random():
    rng = random.Random(2718)
    primes = list(primerange(5, 120))
    cells = 0
    while cells < 25:
        n = rng.choice(primes)
        p, q = rng.randrange(1, n), rng.randrange(1, n)
        spec = LocalConeSpec(n, p, q)
        if spec.is_degenerate:
            continue
        cells += 1
        for strategy in ("minimal", "balanced"):
            res = cyclic_resolution(spec, select_v(spec, strategy))
            tab = local_intersection_table(res)
            k_cl, k_cjk, e_c, f_c = _oracle_tables(res)
            assert k_cl == tab.k_cl
            assert k_cjk == tab.k_cjk
            for key, val in tab.e_c.items():
                assert e_c[key] == val
            assert all(val == 0 for val in f_c.values())


def test_oracle_axis_curve_multiplicities():
    # the wall C(d_l, v) has multiplicity gcd(v_j, v_k); the adjacent cones
    # both have multiplicity v_l, matching the gcd(v_j,v_k)/(v_j v_k)-shaped
    # prefactors of the table
    rng = random.Random(31415)
    for _ in range(10):
        n = rng.choice(list(primerange(7, 100)))
        p, q = rng.randrange(1, n), rng.randrange(1, n)
        spec = LocalConeSpec(n, p, q)
        if spec.is_degenerate:
            continue
        v = select_v(spec, "balanced")
        res = cyclic_resolution(spec, v)
        v_vec = toric._lattice_comb(spec.rays, v, n)
        for l in (1, 2, 3):
            j, k = sorted({1, 2, 3} - {l})
            got = toric._minor_gcd(spec.rays[l - 1], v_vec)
            assert got == math.gcd(v[j - 1], v[k - 1])
