import itertools
from fractions import Fraction

import pytest
from sympy import primerange

import rootcover.asympt as asympt
from rootcover.asympt import (
    Partition,
    SplitMix64,
    find_asymptotic_partition,
    girstmair_member,
    girstmair_set,
    partition_density,
    q_of_pair,
)
from rootcover.dedekind import dedekind_fast
from rootcover.errors import BadInput, CertificationError, Exhausted
from rootcover.exact import leq_sqrt_bound, mod_inverse
from rootcover.hj import hj_length


def test_splitmix64_reference_stream():
    # published reference values for the SplitMix64 recipe, seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_below():
    rng = SplitMix64(99)
    draws = [rng.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))
    rng2 = SplitMix64(99)
    assert draws == [rng2.below(10) for _ in range(1000)]
    with pytest.raises(BadInput):
        rng.below(0)


def test_q_of_pair_examples():
    assert q_of_pair(7, 1, 2) == 3
    assert q_of_pair(7, 2, 4) == 3
    assert q_of_pair(5, 1, 1) == 4
    for n in primerange(3, 50):
        for nu_j in range(1, n):
            for nu_k in range(1, n):
                q = q_of_pair(n, nu_j, nu_k)
                assert 0 < q < n and (nu_j + q * nu_k) % n == 0


def test_partition_q_matrix():
    part = Partition(7, (1, 2, 4))
    assert part.q_matrix[0][1] == 3 and part.q_matrix[1][0] == 5
    for j, k in itertools.permutations(range(3), 2):
        qjk, qkj = part.q_matrix[j][k], part.q_matrix[k][j]
        assert (qjk * qkj) % 7 == 1  # q_kj = (q_jk)'
    assert part.wall_seed(0, 1) == part.q_matrix[1][0]
    with pytest.raises(BadInput):
        Partition(7, (1, 2, 7))


def test_girstmair_fixtures():
    on = girstmair_set(17)
    # l(16, 17) = 16 and (16-2)^2 = 196 > 9*17 = 153
    assert hj_length(17, 16) == 16
    assert 16 not in on.members
    # l(2, 17) = 2 and |d(1,2,17)| = 8/17 <= 3 sqrt(17) + 5
    assert hj_length(17, 2) == 2
    assert abs(dedekind_fast(1, 2, 17)) == Fraction(8, 17)
    assert 2 in on.members
    with pytest.raises(BadInput):
        girstmair_set(18)
    with pytest.raises(BadInput):
        girstmair_set(13)


def test_girstmair_membership_is_extensional():
    # recompute the two bounds directly for every q
    for n in [17, 19, 101]:
        on = girstmair_set(n)
        for q in range(1, n):
            length = hj_length(n, q)
            expected = leq_sqrt_bound(length, 3, n, 2) and leq_sqrt_bound(
                abs(dedekind_fast(1, q, n)), 3, n, 5
            )
            assert (q in on.members) == expected
            assert girstmair_member(n, q) == expected


def test_girstmair_inverse_closure():
    for n in primerange(17, 300):
        members = girstmair_set(n).members
        for q in members:
            assert mod_inverse(q, n) in members


def test_girstmair_complement_bound():
    # the bound is what girstmair_set itself certifies; spot-check the numbers
    for n in [17, 19, 101, 499]:
        on = girstmair_set(n)
        assert leq_sqrt_bound(0, 1, n, 0)  # sanity of the helper
        assert on.complement_size == (n + 1) - len(on.members)


def test_girstmair_set_certification_failure(monkeypatch):
    monkeypatch.setattr(asympt, "_complement_bound_holds", lambda n, size: False)
    with pytest.raises(CertificationError, match="complement bound"):
        girstmair_set(17)


def test_find_asymptotic_partition():
    part = find_asymptotic_partition(101, 3, 42, 10**4)
    assert sum(part.nu) == 101 and all(0 < v < 101 for v in part.nu)
    members = girstmair_set(101).members
    for j in range(3):
        for k in range(j + 1, 3):
            assert part.q_matrix[j][k] in members
    # determinism
    again = find_asymptotic_partition(101, 3, 42, 10**4)
    assert again.nu == part.nu


def test_find_asymptotic_partition_small_r2():
    part = find_asymptotic_partition(17, 2, 0, 10**4)
    assert part.q_matrix[0][1] in girstmair_set(17).members
    # exhaustive oracle: compare against scanning all 16 compositions
    good = [
        (a, 17 - a)
        for a in range(1, 17)
        if girstmair_member(17, q_of_pair(17, a, 17 - a))
    ]
    assert part.nu in good


def test_exhausted():
    with pytest.raises(Exhausted):
        find_asymptotic_partition(19, 25, 0, 10)
    with pytest.raises(BadInput):
        find_asymptotic_partition(19, 1, 0, 10)


def test_partition_density():
    assert partition_density(101, 1, 100, 5) == 1
    exact = partition_density(101, 2, None)
    assert 0 <= exact <= 1
    # r = 2 exhaustive: 100 compositions, here all asymptotic
    assert exact == 1
    sampled = partition_density(101, 2, 200, 7)
    assert sampled == partition_density(101, 2, 200, 7)
    assert 0 <= sampled <= 1
    assert 0 <= partition_density(997, 3, 300, 7) <= 1
    # density at least 1/2 for primes n >= 10^3, r = 3
    assert partition_density(1009, 3, 300, 7) >= Fraction(1, 2)


def test_composition_sampler_uniform_support():
    # every composition of 7+10 into 3 parts shows up under a long run
    rng = SplitMix64(1)
    from rootcover.asympt import _sample_composition

    seen = set()
    for _ in range(4000):
        nu = _sample_composition(17, 3, rng)
        assert sum(nu) == 17 and all(v > 0 for v in nu)
        seen.add(nu)
    assert len(seen) == 120  # C(16, 2) compositions
