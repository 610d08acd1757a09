"""Product pairs Z = C_g x P^2 with D_j = C_g x (a plane curve of degree a_j).

D is pulled back from P^2, so the resolved cover is X_n = C_g x S_n, where
S_n is the resolved n-th root cover of (P^2, sum nu_j curves).  With
a = 2 - 2g, f = pt x P^2 and h = C_g x line (f^2 = 0, h^3 = 0, f h^2 = 1)
the pair's tables are

    c1^3 = 27 a, c1c2 = 12 a, c3 = 3 a, d3 = 0, c1^2 D_j = 6 a a_j,
    c2 D_j = 3 a a_j, c1 D_j D_k = a a_j a_k (the diagonal too), dd2 = 0,

no triples, and a_j a_k curves of genus g in D_j D_k.  The surface gives

    chi = (1 - g) chi(S_n),   K^3 = 3 (2g - 2) (12 chi(S_n) - e(S_n))

(Noether), with chi(S_n) a sum over the eigensheaves and e(S_n) a count of
the chains of the a_j a_k crossing points.  Both are computed here from
the congruences alone, with no code of the package.  The pairs have no
triple points, so this checks the per-pair part of chi and K^3 on double
curves of any genus; it says nothing of the triple-point terms.
"""

import itertools

import pytest

from rootcover.asympt import Partition, find_asymptotic_partition
from rootcover.invariants import chi_eigenspace_oracle, chi_root_cover, k3_root_cover
from rootcover.logchern import BasePair, TripleTable

PRIMES = (5, 7, 11, 13)
GENERA = (0, 1, 2, 5)
DEGREES = ((1, 1, 1), (1, 1, 1, 1), (1, 2), (2, 3), (1, 1, 2), (1, 2, 3))
LARGE_PRIMES = (10007, 100003, 999983)


def product_pair(genus, degrees, triple):
    """The pair C_g x (P^2, curves of the given degrees)."""
    a, r = 2 - 2 * genus, len(degrees)
    return BasePair(
        r=r,
        c1_cubed=27 * a,
        c1c2=12 * a,
        c3=3 * a,
        d3=(0,) * r,
        c1sq_d=tuple(6 * a * d for d in degrees),
        c2_d=tuple(3 * a * d for d in degrees),
        c1_dd=tuple(tuple(a * dj * dk for dk in degrees) for dj in degrees),
        dd2=((0,) * r,) * r,
        triple=triple,
        pair_curves={
            (j, k): ((genus, degrees[j] * degrees[k]),)
            for j, k in itertools.combinations(range(r), 2)
        },
        label=f"C_{genus} x P^2{degrees}",
        h_section=set(degrees) == {1},
    )


def chain_length(n, q):
    """The length of the Hirzebruch-Jung continued fraction of n/q."""
    s = 0
    while q:
        n, q = q, -n % q  # n/q = ceil(n/q) - 1/(q/r), r = -n mod q
        s += 1
    return s


def surface_chi_e(n, nu, degrees):
    """chi(O_S) and e(S) of the resolved root cover S_n of P^2 branched
    along sum nu_j C_j, C_j a smooth curve of degree a_j in general position.

    chi(O_S) = sum_{i<n} chi(O(-l_i)) = sum_i (l_i - 1)(l_i - 2)/2 with
    l_i = sum_j a_j (i nu_j mod n)/n.  Over each of the a_j a_k points of
    C_j C_k the cover has the cyclic quotient 1/n(1, q), nu_j + q nu_k ~ 0,
    whose resolution is a chain of s_jk lines, so
    e(S) = n (3 - e(C)) + e(C) + sum_{j<k} a_j a_k s_jk with
    e(C) = sum_j (3 a_j - a_j^2) - sum_{j<k} a_j a_k.
    """
    chi = 0
    for i in range(n):
        total = sum(d * (i * v % n) for d, v in zip(degrees, nu))
        assert total % n == 0, (n, nu, degrees)
        ell = total // n
        chi += (ell - 1) * (ell - 2) // 2
    pairs = list(itertools.combinations(range(len(nu)), 2))
    e_curve = sum(3 * d - d * d for d in degrees)
    e_curve -= sum(degrees[j] * degrees[k] for j, k in pairs)
    e = n * (3 - e_curve) + e_curve
    for j, k in pairs:
        q = -nu[j] * pow(nu[k], -1, n) % n
        e += degrees[j] * degrees[k] * chain_length(n, q)
    return chi, e


def test_chain_length():
    # 5/4 = [2, 2, 2, 2], 7/3 = [3, 2, 2], 13/5 = [3, 3, 2]
    assert [chain_length(5, q) for q in (1, 4)] == [1, 4]
    assert chain_length(7, 3) == 3 and chain_length(13, 5) == 3


@pytest.mark.parametrize("degrees", DEGREES, ids=lambda d: ",".join(map(str, d)))
def test_product_pairs_chi_and_k3(degrees):
    # every nu with sum a_j nu_j ~ 0 mod n, the condition for the root to
    # exist; each pair with a constant and with a sparse empty triple table
    r = len(degrees)
    cells = 0
    for genus in GENERA:
        pairs = [
            product_pair(genus, degrees, TripleTable(r, constant=0)),
            product_pair(genus, degrees, TripleTable(r, entries={})),
        ]
        for n in PRIMES:
            for nu in itertools.product(range(1, n), repeat=r):
                if sum(d * v for d, v in zip(degrees, nu)) % n:
                    continue
                part = Partition(n, nu)
                chi_s, e_s = surface_chi_e(n, nu, degrees)
                chi = (1 - genus) * chi_s
                k3 = 3 * (2 * genus - 2) * (12 * chi_s - e_s)
                for pair in pairs:
                    assert chi_root_cover(pair, part).chi == chi, (pair.label, nu)
                    assert k3_root_cover(pair, part) == k3, (pair.label, nu)
                assert chi_eigenspace_oracle(pairs[0], part) == chi, (pairs[0].label, nu)
                cells += 1
    # each a_j is a unit mod n, so ((n-1)^r + (-1)^r (n-1))/n of the nu in
    # ((Z/n)^*)^r satisfy the congruence: 14,400 cells over all degree sets
    assert cells == len(GENERA) * sum(((n - 1) ** r + (-1) ** r * (n - 1)) // n for n in PRIMES)


@pytest.mark.parametrize("degrees", [(1, 1, 1), (1, 1, 1, 1)], ids=["3 lines", "4 lines"])
def test_product_pairs_at_large_n(degrees):
    # Seeded asymptotic partitions, whose parts sum to n, at 10^4 < n < 10^6.
    # chi_eigenspace_oracle costs O(n r^2) a cell, so here chi and K^3 are
    # checked against the closed forms alone.
    r = len(degrees)
    for n in LARGE_PRIMES:
        part = find_asymptotic_partition(n, r, 1, 10**4)
        chi_s, e_s = surface_chi_e(n, part.nu, degrees)
        for genus in (0, 2):
            chi = (1 - genus) * chi_s
            k3 = 3 * (2 * genus - 2) * (12 * chi_s - e_s)
            for triple in (TripleTable(r, constant=0), TripleTable(r, entries={})):
                pair = product_pair(genus, degrees, triple)
                assert chi_root_cover(pair, part).chi == chi, (pair.label, n, part.nu)
                assert k3_root_cover(pair, part) == k3, (pair.label, n, part.nu)
