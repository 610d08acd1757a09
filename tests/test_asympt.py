import functools
import itertools
import random
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
from rootcover.errors import BadInput, CertificationError, Exhausted, NotCoprime
from rootcover.exact import mod_inverse
from rootcover.hj import _chain, chain_record, hj_length
from test_dedekind import reciprocity_sum
from test_exact import leq_sqrt_bound


@functools.lru_cache(maxsize=None)
def fraction_member(n, q):
    """Membership in O_n by its definition: full chain length, Fraction sum.

    The Dedekind sum comes from the reciprocity descent, not from the chain
    pass that girstmair_member and dedekind_fast both read.
    """
    return leq_sqrt_bound(hj_length(n, q), 3, n, 2) and leq_sqrt_bound(
        abs(reciprocity_sum(q, n)), 3, n, 5
    )


def _sample_composition(n, r, rng):
    """Uniform composition of n into r positive parts via r-1 distinct cuts.

    Floyd's subset sampling over {1, ..., n-1} keeps the draw count fixed.
    """
    if r == 1:
        return (n,)
    cuts = set()
    for j in range(n - 1 - (r - 1) + 1, n):  # j = n-r+1 .. n-1
        t = rng.below(j) + 1
        cuts.add(j if t in cuts else t)
    ordered = sorted(cuts)
    bounds = [0] + ordered + [n]
    return tuple(bounds[i + 1] - bounds[i] for i in range(r))


def _is_asymptotic(n, nu):
    return all(
        fraction_member(n, q_of_pair(n, nu[j], nu[k]))
        for j, k in itertools.combinations(range(len(nu)), 2)
    )


def sample_search(n, r, seed, max_trials):
    """The plain sampler: the first asymptotic one of max_trials samples."""
    if r > n - 1:
        raise Exhausted(0, f"no composition of {n} into {r} parts in (0, n)")
    rng = SplitMix64(seed)
    for _ in range(max_trials):
        nu = _sample_composition(n, r, rng)
        if _is_asymptotic(n, nu):
            return Partition(n, nu)
    raise Exhausted(max_trials)


def _outcome(search, n, r, seed, max_trials):
    # an Exhausted message may go on to name its case after a ": "
    try:
        return search(n, r, seed, max_trials).nu
    except Exhausted as exc:
        return ("exhausted", exc.trials, str(exc).split(": ")[0])


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
    # one word per draw: 2^64 accepts every word, a larger bound none
    assert SplitMix64(99).below(1 << 64) == SplitMix64(99).next64()
    with pytest.raises(BadInput, match="at most 2\\^64"):
        rng.below((1 << 64) + 1)


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
    with pytest.raises(BadInput):
        Partition(7, (1, 2, 7))
    # ints only (not bools, not floats); a list of multiplicities is kept as a tuple
    for n, nu in ((7, (1.0, 2, 4)), (7.0, (1, 2, 4)), (True, (1, 2)), (7, (True, 2, 4)),
                  (7, 5), (7, "124")):
        with pytest.raises(BadInput):
            Partition(n, nu)
    listed = Partition(7, [1, 2, 4])
    assert listed.nu == (1, 2, 4) and hash(listed) == hash(part) and listed == part


def test_partition_is_a_checked_named_tuple():
    # a named tuple of (n, nu): its repr names the fields, it unpacks and
    # equals the plain tuple, no field can be assigned, and _replace runs
    # the same checks as the constructor
    part = Partition(7, [1, 2, 4])
    assert repr(part) == "Partition(n=7, nu=(1, 2, 4))"
    n, nu = part
    assert (n, nu) == part == (7, (1, 2, 4)) and Partition._fields == ("n", "nu")
    with pytest.raises(AttributeError):
        part.nu = (1, 2, 4)
    assert part._replace(nu=[4, 2, 1]) == Partition(7, (4, 2, 1))
    with pytest.raises(BadInput, match=r"multiplicities must lie in \(0, 7\)"):
        part._replace(nu=(0, 3, 4))
    with pytest.raises(BadInput, match="modulus must be prime"):
        part._replace(n=9)


def test_q_matrix_matches_q_of_pair_on_random_partitions():
    rng = random.Random(13)
    primes = list(primerange(3, 2000))
    for _ in range(400):
        n = rng.choice(primes)
        r = rng.randint(2, 8)
        nu = tuple(rng.randrange(1, n) for _ in range(r))
        q = Partition(n, nu).q_matrix
        assert type(q) is tuple and len(q) == r
        for j in range(r):
            assert type(q[j]) is tuple and len(q[j]) == r
            assert q[j][j] is None
            for k in range(r):
                if k != j:
                    assert q[j][k] == q_of_pair(n, nu[j], nu[k]), (n, nu, j, k)


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
    for n in [17, 19, 101, 1009]:
        on = girstmair_set(n)
        for q in range(1, n):
            expected = fraction_member(n, q)
            assert (q in on.members) == expected
            assert girstmair_member(n, q) == expected
    rng = random.Random(5)
    for n in [10007, 100003]:
        for q in rng.sample(range(1, n), 2000):
            assert girstmair_member(n, q) == fraction_member(n, q)
    # the chain-length cap and both Dedekind-bound branches are exercised
    assert not girstmair_member(1009, 1008)  # 1008 twos: over the length cap
    verdicts = {fraction_member(1009, q) for q in range(1, 1009)}
    assert verdicts == {True, False}


def test_girstmair_dedekind_bound_edges():
    # Below n ~ 1600 no residue fails the Dedekind bound alone.  These short
    # chains (q and q' at each n) have |d(1, q, n)| within 1/20 of
    # 3 sqrt(n) + 5, on either side.
    inside = [(5431, 2), (5431, 2716), (33023, 5), (33023, 19814)]
    outside = [(12043, 3), (12043, 8029), (21227, 4), (21227, 5307)]
    for (n, q), expected in [(c, True) for c in inside] + [(c, False) for c in outside]:
        assert leq_sqrt_bound(hj_length(n, q), 3, n, 2)
        d = abs(reciprocity_sum(q, n))
        shifted = d + Fraction(1, 20) if expected else d - Fraction(1, 20)
        assert leq_sqrt_bound(shifted, 3, n, 5) != expected
        assert fraction_member(n, q) == expected
        assert girstmair_member(n, q) == expected


def test_girstmair_member_errors():
    assert not girstmair_member(17, 0) and not girstmair_member(17, 17)
    with pytest.raises(NotCoprime):
        girstmair_member(18, 3)
    with pytest.raises(BadInput):
        girstmair_member(2, 1)
    assert girstmair_member(18, 5) == fraction_member(18, 5)


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
    for args in ((101.0, 3, 0, 10), (101, 3, "x", 10), (101, 3.0, 0, 10),
                 (101, 3, 0, 10.0), (101, 3, 0, True)):
        with pytest.raises(BadInput, match="must be ints"):
            find_asymptotic_partition(*args)


def test_negative_trial_budget_is_bad_input():
    with pytest.raises(BadInput, match="max_trials >= 0, got -1"):
        find_asymptotic_partition(1009, 8, 0, -1)
    with pytest.raises(Exhausted):  # a zero budget stays valid
        find_asymptotic_partition(1009, 8, 0, 0)


def test_n_past_two_to_the_64_is_bad_input():
    # a prime the sampler cannot draw cuts for: BadInput at once, not a hang
    n = 10**21 + 117
    with pytest.raises(BadInput, match="need n <= 2\\^64"):
        find_asymptotic_partition(n, 3, 0, 10)
    for samples in (None, 10):
        with pytest.raises(BadInput, match="need n <= 2\\^64"):
            partition_density(n, 3, samples)


def test_search_memo_holds_chain_records_of_members():
    # both searches ask one test, which memoises its chain passes: the chain
    # record of n/q for q in O_n, False otherwise
    for n, r in ((17, 3), (101, 5), (1009, 8)):
        memo = {}
        test = asympt._asymptotic_test(n, memo, {})
        stream = asympt._sampled_compositions(n, r, 3)
        for _ in range(300):
            test(next(stream))
        for _ in zip(range(300), asympt._composition_tree(n, r, test)):
            pass
        assert any(memo.values())
        assert n == 17 or not all(memo.values())
        for q, hit in memo.items():
            assert hit == (chain_record(n, q) if girstmair_member(n, q) else False), q


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
    # against the plain sampler and a scan of every composition
    for n, r, seed in [(101, 4, 3), (1009, 8, 1)]:
        rng = SplitMix64(seed)
        hits = sum(_is_asymptotic(n, _sample_composition(n, r, rng)) for _ in range(300))
        assert partition_density(n, r, 300, seed) == Fraction(hits, 300)
    hits = sum(_is_asymptotic(19, nu) for nu in asympt._all_compositions(19, 4))
    assert partition_density(19, 4, None) == Fraction(hits, 816)  # C(18, 3)
    # pinned from the test without its pre-pass over cheap rejections
    assert partition_density(101, 4, 500, 3) == Fraction(13, 20)
    assert partition_density(1009, 8, 400, 1) == Fraction(127, 400)
    assert partition_density(10007, 20, 200, 5) == Fraction(9, 200)
    assert partition_density(23, 5, None) == Fraction(432, 1463)
    assert partition_density(61, 4, None) == Fraction(5472, 8555)


def test_composition_sampler_uniform_support():
    # every composition of 7+10 into 3 parts shows up under a long run
    stream = asympt._sampled_compositions(17, 3, 1)
    seen = set()
    for _ in range(4000):
        nu = next(stream)
        assert sum(nu) == 17 and all(v > 0 for v in nu)
        seen.add(nu)
    assert len(seen) == 120  # C(16, 2) compositions


def test_sampled_compositions_match_splitmix64_floyd():
    for n, r, seed in [(17, 2, 0), (101, 8, 7), (1009, 20, 3), (10007, 4, 2**64 + 5)]:
        rng = SplitMix64(seed)
        stream = asympt._sampled_compositions(n, r, seed)
        for _ in range(10**4 if n == 101 else 500):
            assert next(stream) == _sample_composition(n, r, rng)


def _per_draw_compositions(n, r, seed):
    """The sampler one SplitMix64 word at a time, the recipe inlined on a
    local state: the stream that the block sampler must reproduce."""
    mask = SplitMix64._MASK
    state = seed & mask
    limits = [(j, (1 << 64) - (1 << 64) % j) for j in range(n - r + 1, n)]
    while True:
        cuts = set()
        for j, limit in limits:
            while True:
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                if z < limit:
                    break
            t = z % j + 1
            cuts.add(j if t in cuts else t)
        parts = []
        prev = 0
        for cut in sorted(cuts):
            parts.append(cut - prev)
            prev = cut
        parts.append(n - prev)
        yield tuple(parts)


def test_splitmix64_blocks_match_next64():
    cap = asympt._BLOCK_CAP
    seeds = [0, 1, 2**64 - 1, random.Random(34).getrandbits(64)]
    for seed in seeds:
        for first in (1, 7, 15, cap - 1, cap, cap + 44):
            sizes, b = [], min(first, cap)
            while len(sizes) < 3 or sizes[-3] != cap:  # three full-size blocks
                sizes.append(b)
                b = min(2 * b, cap)
            blocks = list(itertools.islice(asympt._splitmix64_blocks(seed, first), len(sizes)))
            assert [len(block) for block in blocks] == sizes, (seed, first)
            rng = SplitMix64(seed)
            assert [w for block in blocks for w in block] == [
                rng.next64() for _ in range(sum(sizes))
            ], (seed, first)


def test_sampled_compositions_match_per_draw_oracle():
    # n = 9223372036854775837 is just above 2^63: every bound j is its own
    # rejection limit, so about half the words are rejected, often twice in
    # a row; 2^64 - 59 is the largest n the sampler takes
    heavy = 9223372036854775837
    for n in (17, 1009, heavy, 2**64 - 59):
        for r in (2, 5, 8, 16):
            seed = n % 1000 + r
            stream = asympt._sampled_compositions(n, r, seed)
            oracle = _per_draw_compositions(n, r, seed)
            for i in range(1500 // r):
                assert next(stream) == next(oracle), (n, r, i)
    rng = SplitMix64(heavy % 1000 + 8)
    words = [rng.next64() for _ in range(1500)]
    assert any(a >= heavy - 1 and b >= heavy - 1 for a, b in itertools.pairwise(words))


def test_first_block_is_one_composition(monkeypatch):
    sizes = []
    blocks = asympt._splitmix64_blocks

    def recorded(seed, first):
        for block in blocks(seed, first):
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(asympt, "_splitmix64_blocks", recorded)
    for r in (2, 5, 8, 16):
        sizes.clear()
        next(asympt._sampled_compositions(1009, r, 3))  # rejects under 2^-54 of words
        assert sizes == [r - 1]


def test_first_run_rule_is_exact():
    # q >= (cap + 1)(n - q): the chain n/q opens with more than cap twos
    for n in primerange(17, 2001):
        cap = asympt._length_cap(n)
        for q in range(n - 1, 0, -1):
            if q < (cap + 1) * (n - q):
                break
            assert _chain(n, q, cap) is None, (n, q)


def _residue(n, nu_j, nu_k):
    return -nu_j * pow(nu_k, -1, n) % n  # q_of_pair without its input checks


def _pre_pass_rejects(n, nu, memo, new):
    """Whether the asymptotic test must reject nu without a chain pass,
    given the memo with the residues ``new`` not yet in it."""
    if len(set(nu)) < len(nu):
        return True
    cap = asympt._length_cap(n)
    for a, b in itertools.combinations(nu, 2):
        for q in (_residue(n, b, a), _residue(n, a, b)):  # q_kj and q_jk
            if q >= (cap + 1) * (n - q) or (q not in new and memo.get(q) is False):
                return True
    return False


@pytest.fixture
def counted(monkeypatch):
    """The residues of the chain passes made through the asympt module."""
    passes = []

    def chain(n, q, cap):
        passes.append(q)
        return _chain(n, q, cap)

    monkeypatch.setattr(asympt, "_chain", chain)
    return passes


def _check_test_on(n, compositions, pair_member, counted):
    """Run one asymptotic test over the compositions with a shared memo.

    Each verdict must be that of ``pair_member((nu_j, nu_k))`` (is q_kj in
    O_n?) on every pair j < k.  A chain pass may only run on a wall seed
    q_kj, once, and never for a composition that the pre-pass rejects.
    """
    memo = {}
    test = asympt._asymptotic_test(n, memo, {})
    for nu in compositions:
        verdict = all(map(pair_member, itertools.combinations(nu, 2)))
        counted.clear()
        assert test(nu) == verdict, (n, nu)
        if counted:
            new = set(counted)
            seeds = {_residue(n, b, a) for a, b in itertools.combinations(nu, 2)}
            assert len(new) == len(counted) and new <= seeds, (n, nu, counted)
            assert not _pre_pass_rejects(n, nu, memo, new), (n, nu, counted)


def test_asymptotic_test_matches_membership_on_every_composition(counted):
    for n in primerange(17, 62):
        members = girstmair_set(n).members
        good = {
            (a, b) for a in range(1, n) for b in range(1, n) if q_of_pair(n, b, a) in members
        }
        for r in (3, 4, 5):
            _check_test_on(n, asympt._all_compositions(n, r), good.__contains__, counted)


def test_asymptotic_test_matches_membership_on_samples(counted):
    # at 10^9 + 7 nearly every residue is new and in O_n, so a composition
    # costs r(r - 1)/2 chain passes on each side: fewer samples there
    for n, samples in ((1009, 10**4), (10007, 10**4), (10**9 + 7, 200)):
        member = functools.lru_cache(maxsize=None)(functools.partial(girstmair_member, n))

        def pair_member(pair):
            return member(_residue(n, pair[1], pair[0]))  # q_kj

        for r in (8, 20):
            stream = itertools.islice(asympt._sampled_compositions(n, r, r), samples)
            _check_test_on(n, stream, pair_member, counted)


def test_search_matches_plain_sampler():
    primes = list(primerange(17, 62))
    cases = [(n, 8, n % 5) for n in primes]
    cases += [(n, 12, n % 7) for n in primerange(61, 152)]
    cases += [(n, 20, n % 3) for n in [*primerange(83, 242), 1009]]
    exhausted = 0
    for n, r, seed in cases:
        expected = _outcome(sample_search, n, r, seed, 2000)
        assert _outcome(find_asymptotic_partition, n, r, seed, 2000) == expected
        exhausted += expected[0] == "exhausted"
    assert 0 < exhausted < len(cases)
    # r > n - 1, and budgets smaller than the tree
    for n, r in [(17, 17), (19, 25)]:
        assert _outcome(find_asymptotic_partition, n, r, 0, 10) == _outcome(
            sample_search, n, r, 0, 10
        )
    # budgets smaller than the tree, and around the sample where it starts
    d = asympt._TREE_AFTER
    for max_trials in [0, 1, 10, 100, d - 1, d, d + 1, 4 * d]:
        for n, r in [(47, 8), (53, 8), (101, 12), (239, 20)]:
            assert _outcome(
                find_asymptotic_partition, n, r, 1, max_trials
            ) == _outcome(sample_search, n, r, 1, max_trials)
    # r (r + 1) / 2 > n: no r distinct parts sum to n, so no sample qualifies
    for max_trials in [0, 1, 10**4]:
        for n, r in [(17, 6), (31, 8), (43, 9)]:
            assert _outcome(
                find_asymptotic_partition, n, r, 0, max_trials
            ) == _outcome(sample_search, n, r, 0, max_trials)


def test_tree_starts_after_the_sampler_misses(monkeypatch):
    # The output is the plain sampler's either way; what the schedule
    # changes is which work a search does, seen here as events in order.
    d = asympt._TREE_AFTER
    events = []
    sampled, tree = asympt._sampled_compositions, asympt._composition_tree

    def counted_samples(n, r, seed):
        for nu in sampled(n, r, seed):
            events.append("sample")
            yield nu

    def counted_steps(nodes):
        for node in nodes:
            events.append("step")
            yield node

    def counted_tree(n, r, asymptotic):
        events.append("tree")
        return counted_steps(tree(n, r, asymptotic))

    monkeypatch.setattr(asympt, "_sampled_compositions", counted_samples)
    monkeypatch.setattr(asympt, "_composition_tree", counted_tree)
    # 1 + ... + 8 = 36 > 31: settled before any sample, with no tree
    with pytest.raises(Exhausted, match="search exhausted after 10000 trials"):
        find_asymptotic_partition(31, 8, 0, 10**4)
    assert events == []
    # answers at the 36th and at the d-th sample build no tree
    for n, seed, hit in [(109, 0, 36), (83, 0, d)]:
        events.clear()
        assert _outcome(find_asymptotic_partition, n, 8, seed, 10**4) == _outcome(
            sample_search, n, 8, seed, 10**4
        )
        assert events == ["sample"] * hit, (n, seed)
    # no composition of 47 into 8 parts qualifies: d samples, then the tree
    # steps once after each miss until it is exhausted
    events.clear()
    with pytest.raises(Exhausted, match="search exhausted after 10000 trials"):
        find_asymptotic_partition(47, 8, 0, 10**4)
    steps = events.count("step")
    assert 0 < steps < 10**4 - d
    assert events == ["sample"] * d + ["tree"] + ["step", "sample"] * steps


def test_exhausted_names_its_case():
    # Exhausted keeps the plain sampler's message and trials; what the
    # search knows follows after a colon
    cases = [
        ((31, 8, 0, 10**4), ": no 8 distinct parts sum to 31"),
        ((47, 8, 0, 10**4),
         ": an exact search finds no asymptotic composition of 47 into 8 parts"),
        # seed 0 finds one at its 4335th sample, and the tree sooner
        ((53, 8, 0, 1000), ": an asymptotic composition exists, but no sample hit it"),
        ((53, 8, 0, 100), ""),  # the tree has found nothing yet
        ((53, 8, 0, asympt._TREE_AFTER), ""),  # no tree
    ]
    for (n, r, seed, max_trials), case in cases:
        with pytest.raises(Exhausted) as info:
            find_asymptotic_partition(n, r, seed, max_trials)
        assert info.value.trials == max_trials
        assert str(info.value) == f"search exhausted after {max_trials} trials{case}"


def test_composition_tree_asks_the_search_test():
    # The tree's verdict on a candidate is the search's own test; it must
    # be the reciprocity-descent membership of every pair residue.
    for n in primerange(17, 62):
        for r in range(3, 9):
            if r * (r + 1) // 2 > n:
                continue
            test = asympt._asymptotic_test(n, {}, {})
            nodes = itertools.islice(asympt._composition_tree(n, r, test), 20000)
            for candidate, ok in nodes:
                assert ok == _is_asymptotic(n, candidate), (n, r, candidate)


def _brute_force_witnesses(n, r, member):
    """Every asymptotic composition of n into r parts, parts sorted down."""
    found = set()
    for cuts in itertools.combinations(range(1, n), r - 1):
        bounds = (0,) + cuts + (n,)
        nu = tuple(bounds[i + 1] - bounds[i] for i in range(r))
        if all(
            member(q_of_pair(n, nu[j], nu[k]))
            for j, k in itertools.combinations(range(r), 2)
        ):
            found.add(tuple(sorted(nu, reverse=True)))
    return found


def _tree_witnesses(n, r, member):
    """Run the tree to the end; check every candidate it tries on the way.

    The tree asks whether every pair residue of a candidate is a ``member``.
    ``member`` must leave n - 1 out of O_n, as the real set does for n >= 17,
    so the tree runs over distinct parts only.
    """
    assert not member(n - 1)

    def asymptotic(nu):
        return all(member(q_of_pair(n, a, b)) for a, b in itertools.combinations(nu, 2))

    found = []
    for candidate, ok in asympt._composition_tree(n, r, asymptotic):
        *prefix, v = candidate
        assert ok == all(member(q_of_pair(n, p, v)) for p in prefix)
        # decreasing, below n
        assert 0 < v < n and all(a > b for a, b in itertools.pairwise(candidate))
        left, rest = r - len(candidate), n - sum(candidate)
        cap = v - 1
        assert left * (left + 1) // 2 <= rest <= left * cap - left * (left - 1) // 2
        if ok and len(candidate) == r:
            found.append(candidate)
    assert len(found) == len(set(found))
    return set(found)


def test_composition_tree_matches_brute_force():
    cases = [(n, r) for n in [17, 19, 23] for r in range(2, 7)]
    cases += [(n, 8) for n in [17, 19, 23]]
    for n, r in cases:
        member = functools.partial(fraction_member, n)
        assert _tree_witnesses(n, r, member) == _brute_force_witnesses(
            n, r, member
        )
    # r = 8 needs 1 + ... + 8 = 36 from distinct parts: proven at the root
    assert list(asympt._composition_tree(31, 8, asympt._asymptotic_test(31, {}, {}))) == []


def test_composition_tree_repeat_rule():
    # With a membership that puts every residue but n - 1 in O_n, every
    # partition of n into r distinct parts qualifies, and equal parts never do.
    n = 17
    but_last = {**dict.fromkeys(range(1, n), True), n - 1: False}
    for r in range(2, 7):
        assert _tree_witnesses(n, r, but_last.get) == _brute_force_witnesses(
            n, r, but_last.get
        )
    assert _tree_witnesses(n, 16, but_last.get) == set()


def test_n_minus_1_is_never_in_o_n():
    # the composition tree relies on it: equal parts pair to q = n - 1,
    # whose chain of n - 1 twos is over the length cap for every n >= 17
    for n in primerange(17, 2000):
        assert not girstmair_member(n, n - 1), n
