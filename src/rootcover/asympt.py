"""Girstmair sets, asymptotic partitions, and density statistics.

For a prime n >= 17, the Girstmair set O_n collects the residues q whose
Dedekind sum and chain length are both O(sqrt(n)):

    |d(1, q, n)| <= 3 sqrt(n) + 5   and   l(q, n) <= 3 sqrt(n) + 2,

and its complement inside {0, ..., n} has at most sqrt(n) log(4n) elements.
A partition nu_1 + ... + nu_r = n is asymptotic when every pair residue
q_jk (the unique solution of nu_j + q_jk nu_k ~ 0 mod n) lies in O_n.  Both
bounds are checked exactly: square roots by squaring, the logarithm through a
rational enclosure.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import BadInput, CertificationError, Exhausted
from .exact import is_prime, log_enclosure, mod_inverse, require_ints
from .hj import _chain, chain_record

# The membership test runs the chain kernel itself; these two names stay
# bound here because perfbench/tracer.py wraps them where this module looked
# them up.
from .dedekind import dedekind_fast  # noqa: F401
from .hj import hj_length  # noqa: F401

__all__ = [
    "ONSet",
    "Partition",
    "SplitMix64",
    "girstmair_member",
    "girstmair_set",
    "q_of_pair",
    "find_asymptotic_partition",
    "partition_density",
]


class SplitMix64:
    """SplitMix64 generator: a documented, platform-independent 64-bit PRNG.

    state' = state + 0x9E3779B97F4A7C15;  z = state';
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output = z ^ (z >> 31).

    Bounded draws use rejection sampling, so identical seeds reproduce
    identical streams in any implementation of the same recipe.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        require_ints("seed", seed)
        self.state = seed & self._MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection.

        One 64-bit word per draw: a bound above 2^64 is BadInput (its
        rejection limit would be 0, so no word would ever be accepted).
        """
        require_ints("bound", bound)
        if bound <= 0:
            raise BadInput(f"bound must be positive, got {bound}")
        if bound > 1 << 64:
            raise BadInput(f"bound must be at most 2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next64()
            if z < limit:
                return z % bound


class ONSet(NamedTuple):
    """The Girstmair set of a prime n, with its complement count in {0,...,n}."""

    n: int
    members: frozenset[int]
    complement_size: int


class Partition(namedtuple("Partition", ("n", "nu"))):
    """Branch multiplicities nu_1..nu_r modulo a prime n, with pair residues.

    n and every nu_j are ints (BadInput otherwise; a bool is refused), and
    ``nu`` is kept as a tuple, so a list of multiplicities gives the same
    hashable partition.

    q_matrix[j][k] is the unique q in (0, n) with nu_j + q nu_k ~ 0 (mod n);
    the diagonal is None.  Rows/columns pair into inverses: q_kj = (q_jk)'.
    chain_records[j, k] (j < k) is the :func:`chain_record` of the wall
    chain n / q_kj in direction j -> k; a partition returned by
    :func:`find_asymptotic_partition` arrives with it filled from the
    records of its search.
    """

    def __new__(cls, n: int, nu):
        try:
            nu = tuple(nu)
        except TypeError:
            raise BadInput(f"multiplicities must be a sequence, got {nu!r}") from None
        require_ints("modulus and multiplicities", n, *nu)
        if not is_prime(n):
            raise BadInput(f"modulus must be prime, got {n}")
        if any(not 0 < v < n for v in nu):
            raise BadInput(f"multiplicities must lie in (0, {n})")
        return super().__new__(cls, n, nu)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks too

    @property
    def r(self) -> int:
        return len(self.nu)

    @cached_property
    def q_matrix(self) -> tuple[tuple[int | None, ...], ...]:
        n = self.n
        return _q_rows(n, self.nu, [n - pow(v, -1, n) for v in self.nu])

    @cached_property
    def chain_records(self) -> dict[tuple[int, int], tuple[int, ...]]:
        q = self.q_matrix
        n = self.n
        return {(j, k): chain_record(n, q[k][j]) for j, k in _pair_keys(self.r)}


def _q_rows(n: int, nu, neg_inverses) -> tuple[tuple[int | None, ...], ...]:
    # q_jk = nu_j (-nu_k') mod n, from the negative inverse -nu_k' of each
    # column (n is prime); the diagonal is None
    rows = []
    for j, nu_j in enumerate(nu):
        row = [nu_j * m % n for m in neg_inverses]
        row[j] = None
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _pair_keys(r: int) -> tuple[tuple[int, int], ...]:
    """The pairs (j, k), j < k < r, in the order of ``Partition.chain_records``."""
    return tuple(itertools.combinations(range(r), 2))


def q_of_pair(n: int, nu_j: int, nu_k: int) -> int:
    """The unique q in (0, n) with nu_j + q*nu_k ~ 0 (mod n)."""
    require_ints("n, nu_j and nu_k", n, nu_j, nu_k)
    if not (0 < nu_j < n and 0 < nu_k < n):
        raise BadInput("multiplicities must be nonzero modulo n")
    return (-nu_j * mod_inverse(nu_k, n)) % n


def _length_cap(n: int) -> int:
    return math.isqrt(9 * n) + 2  # floor(3 sqrt(n) + 2)


def _member_record(n: int, q: int, cap: int):
    # The chain record of n/q when q lies in O_n, else False; the caller has
    # checked 0 < q < n with gcd(n, q) = 1 and passes cap = _length_cap(n).
    record = _chain(n, q, cap)
    if record is None:
        return False
    x = abs(record[1]) - 60 * n  # record[1] = D = 12 n d(1, q, n)
    return record if x <= 0 or x * x <= 1296 * n**3 else False


def girstmair_member(n: int, q: int) -> bool:
    """Exact membership of q in O_n (both bounds, no floating point).

    The run-length chain pass of :func:`rootcover.hj.chain_record` gives
    the length s and D = n (excess - s) + q + q'; it stops once s passes
    floor(3 sqrt(n) + 2).  By the length/excess relation 12 n d(1, q, n) = D,
    so |d(1, q, n)| <= 3 sqrt(n) + 5 holds iff x = |D| - 60 n is <= 0 or
    x^2 <= 1296 n^3.

    Nothing is cached: the partition searches keep their own per-call memo,
    of the chain records themselves, and call the chain pass directly.
    Raises :class:`NotCoprime` when q is not invertible modulo n.
    """
    require_ints("n and q", n, q)
    if not 0 < q < n:
        return False
    if n < 3:
        raise BadInput(f"modulus must be >= 3, got {n}")
    mod_inverse(q, n)  # NotCoprime unless gcd(q, n) = 1
    return bool(_member_record(n, q, _length_cap(n)))


def _complement_bound_holds(n: int, complement_size: int) -> bool:
    # complement <= sqrt(n) log(4n), squared; uses the *lower* end of the
    # rational log enclosure so a True verdict is a sound certificate.
    log_lo, _ = log_enclosure(4 * n)
    return Fraction(complement_size) ** 2 <= n * log_lo * log_lo


def _check_search_modulus(n: int) -> None:
    """BadInput unless n is an int prime with 17 <= n <= 2^64, the moduli the
    searches take: :class:`SplitMix64` draws below n - 1 from one word."""
    require_ints("n", n)
    if n > 1 << 64:
        raise BadInput(f"need n <= 2^64 (one 64-bit word per draw), got {n}")
    if not is_prime(n) or n < 17:
        raise BadInput(f"need a prime n >= 17, got {n}")


def girstmair_set(n: int) -> ONSet:
    """The extensional O_n for a prime 17 <= n <= 2^64; complement bound verified."""
    _check_search_modulus(n)
    members = frozenset(q for q in range(1, n) if girstmair_member(n, q))
    complement = (n + 1) - len(members)  # complement within {0, ..., n}
    if not _complement_bound_holds(n, complement):
        raise CertificationError(
            f"complement bound sqrt(n) log(4n) violated at n={n}: {complement}"
        )
    return ONSet(n, members, complement)


# The most words in one block of _splitmix64_blocks.  Blocks of 64-256 words
# cost about 120-190 ns a word (2-vCPU x86-64, Python 3.11), against about
# 500 ns for one word at a time; 1024-word blocks gain little more.
_BLOCK_CAP = 256


@lru_cache(maxsize=64)
def _lanes(size: int):
    # The constants of a block of `size` 128-bit lanes: one in every lane,
    # the 64-bit mask of every lane, the increments 1, 2, ..., size times the
    # SplitMix64 step, and the struct that unpacks the low word of each lane.
    ones = ((1 << 128 * size) - 1) // ((1 << 128) - 1)
    words = struct.Struct("<" + "Q8x" * size)
    ramp = int.from_bytes(words.pack(*range(1, size + 1)), "little")
    return ones, ones * SplitMix64._MASK, 0x9E3779B97F4A7C15 * ramp, words


def _splitmix64_blocks(seed: int, first: int):
    """The words of ``SplitMix64(seed).next64()``, in order, in tuples.

    A block of b words is mixed at once in one int of b packed 128-bit lanes,
    word i in the low 64 bits of lane i.  A lane below 2^64 times a 64-bit
    constant stays below 2^128, so one multiply of the whole int mixes every
    lane and carries nothing into the next; masking with the lane mask then
    reduces each lane mod 2^64.  A right shift moves the low bits of lane
    i + 1 into the top of lane i, so the operands of the two shifts before a
    multiply are masked too.  The last shift's stray bits land above bit 64,
    where the unpack skips them.  The first block holds ``first`` words,
    each next block twice the words of the one before, all at most
    ``_BLOCK_CAP``.
    """
    mask = SplitMix64._MASK
    state = seed & mask
    size = min(first, _BLOCK_CAP)
    while True:
        ones, low, steps, words = _lanes(size)
        z = (state * ones + steps) & low  # the next `size` states
        state = (state + size * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
        z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
        yield words.unpack((z ^ (z >> 31)).to_bytes(16 * size, "little"))
        size = min(2 * size, _BLOCK_CAP)


def _sampled_compositions(n: int, r: int, seed: int):
    """The endless stream of uniform compositions of n into r positive parts.

    Each composition takes r - 1 distinct cuts in {1, ..., n-1} by Floyd's
    subset sampling, drawing ``SplitMix64(seed).below(j) + 1`` for
    j = n-r+1, ..., n-1, so the draw count per composition is fixed.  The
    words come from :func:`_splitmix64_blocks`, whose first block is one
    composition's r - 1 words (for r <= 257), so a search that stops at its
    first sample mixes no word it does not use (unless a word was rejected);
    each bound j keeps the rejection rule of :meth:`SplitMix64.below`, with
    its limit computed once.
    """
    limits = [(j, (1 << 64) - (1 << 64) % j) for j in range(n - r + 1, n)]
    words = itertools.chain.from_iterable(_splitmix64_blocks(seed, r - 1))
    while True:
        cuts = set()
        for (j, limit), z in zip(limits, words):
            while z >= limit:
                z = next(words)
            t = z % j + 1
            cuts.add(j if t in cuts else t)
        ordered = sorted(cuts)
        ordered.append(n)
        yield tuple(map(operator.sub, ordered, [0, *ordered]))


def _asymptotic_test(n: int, memo: dict, neg_inverses: dict):
    """The test nu -> (every pair residue of nu lies in O_n).

    Each pair j < k is tested on its wall seed q_kj: O_n is closed under
    q -> q', which keeps the length s and D, so the verdict is that of q_jk.
    ``memo`` holds the chain-pass verdict of each wall seed tested: the chain
    record of n/q for a member q, False otherwise (q is a nonzero residue of
    the prime n, so no coprimality check is needed).

    A pre-pass rejects the composition before any chain pass when two parts
    are equal, or when for some pair q = q_kj or q = q_jk has
    q >= (cap + 1)(n - q), cap = floor(3 sqrt(n) + 2), or is known False in
    the memo.  The first rule is exact: such a q is above 2n/3, so the chain
    n/q opens with a run of floor(q / (n - q)) > cap twos, where the chain
    pass stops, and q is not in O_n; it holds for q_jk as well, whose chain
    is that of n/q_kj reversed.  Equal parts pair to q = n - 1, the rule's
    extreme case (n - 1 >= cap + 1 for n >= 17).  Only then are the missing
    records computed, pair by pair, stopping at the first residue outside
    O_n, so a composition that passes leaves the record of each of its wall
    chains n/q_kj in the memo, and the negative inverse n - v' of each of its
    parts v in ``neg_inverses``, which the test fills as it goes.
    """
    cap = _length_cap(n)
    first_run_over = -(-(cap + 1) * n // (cap + 2))  # least q >= (cap + 1)(n - q)

    def neg_inverse(v: int) -> int:
        m = neg_inverses[v] = n - pow(v, -1, n)
        return m

    def asymptotic(nu) -> bool:
        r = len(nu)
        if len(set(nu)) < r:
            return False
        ms = [neg_inverses.get(v) or neg_inverse(v) for v in nu]
        missing = []
        for j in range(r - 1):
            v, m = nu[j], ms[j]
            for k in range(j + 1, r):
                q = nu[k] * m % n  # q_kj = q_of_pair(n, nu[k], nu[j])
                p = v * ms[k] % n  # q_jk
                if q >= first_run_over or p >= first_run_over:
                    return False
                hit = memo.get(q)
                if hit is None:
                    if memo.get(p) is False:
                        return False
                    missing.append(q)
                elif not hit:
                    return False
        for q in missing:
            hit = memo.get(q)
            if hit is None:
                hit = memo[q] = _member_record(n, q, cap)
            if not hit:
                return False
        return True

    return asymptotic


def _composition_tree(n: int, r: int, asymptotic):
    """Exact depth-first search for an asymptotic composition of n into r parts.

    Permuting the parts maps each pair residue to itself or its inverse, and
    O_n is closed under inverses, so the search runs over decreasing parts
    and tries the most balanced value first at each depth.  The parts are
    distinct: equal parts pair to q = n - 1, whose chain is n - 1 twos,
    longer than floor(3 sqrt(n) + 2) for every n >= 17, so n - 1 is not in
    O_n (the only caller, :func:`find_asymptotic_partition`, requires
    n >= 17).  A depth that leaves sum R to ``left`` parts of at most
    ``cap`` only tries values that keep
    left (left + 1) / 2 <= R <= cap + (cap - 1) + ... + (cap - left + 1).

    Yields ``(candidate, ok)`` once per part tried: the prefix with that part
    appended, and ``ok = asymptotic(candidate)``, the search's own
    :func:`_asymptotic_test`.  Every pair of the prefix has passed it
    already, so ``ok`` says whether the new pair residues all lie in O_n.
    An ok candidate of length r is an asymptotic composition; the generator
    returns once the tree is exhausted, which proves that none exists (at
    the root when r (r + 1) / 2 > n).
    """

    def span(rest_sum: int, left: int, cap: int) -> tuple[int, int]:
        # Values v for the largest of `left` distinct parts with sum
        # rest_sum: the other left - 1 parts must fit below v - 1.
        rest = left - 1
        tri = rest * (rest - 1) // 2
        lo = -(-(rest_sum + rest + tri) // left)
        return lo, min(cap, rest_sum - rest - tri)

    parts: list[int] = []
    highs: list[int] = []
    rest_sum = n
    v, hi = span(n, r, n - 1)
    while True:
        if v > hi:
            if not parts:
                return
            v = parts.pop()
            rest_sum += v
            hi = highs.pop()
            v += 1
            continue
        candidate = (*parts, v)
        ok = asymptotic(candidate)
        yield candidate, ok
        if ok and len(parts) + 1 < r:
            parts.append(v)
            highs.append(hi)
            rest_sum -= v
            v, hi = span(rest_sum, r - len(parts), v - 1)
        else:
            v += 1


# The misses of a sampled search before its composition tree starts.  Over
# the ok cells of a seeded r = 8 sweep (primes 17..1000) the sampler misses
# fewer than 8 times in 72% of cells, fewer than 64 in 94% (p95 79), and a
# tree's steps to its first witness cost about one qualifying sample; a
# search that ends within this many samples builds no tree.
_TREE_AFTER = 64


def find_asymptotic_partition(
    n: int, r: int, seed: int, max_trials: int
) -> Partition:
    """Seeded search for a partition nu_1+...+nu_r = n with all q_jk in O_n.

    Deterministic given the seed: the first asymptotic composition among
    ``max_trials`` uniform samples.  Raises :class:`Exhausted` when the trial
    budget runs out (immediately when r > n - 1, where no composition with
    positive parts below n exists).  Two exact shortcuts end a search where
    no composition qualifies with ``Exhausted(max_trials)``, the error the
    samples would have ended in, its message naming the shortcut:

    - before any sample when r (r + 1) / 2 > n: r distinct parts sum to at
      least 1 + ... + r, and equal parts pair to n - 1, which is not in O_n;
    - once an exact search of the compositions (:func:`_composition_tree`)
      is exhausted.  It starts after ``_TREE_AFTER`` missed samples and
      takes one step after each miss from then on, until it finds a witness;
      from then on sampling alone decides, and a budget that runs out says
      that a qualifying composition exists.

    Neither shortcut can change which partition is returned, or when: the
    tree asks the samples' own test, so it only proves that no composition
    qualifies or finds a witness that is dropped, and the memo it fills
    holds exact verdicts and records.  The partition returned carries the
    chain records its search computed (``Partition.chain_records``).
    BadInput unless all four arguments are ints, for a negative
    ``max_trials``, and for an n that :func:`_check_search_modulus` refuses.
    """
    require_ints("n, r, seed and max_trials", n, r, seed, max_trials)
    _check_search_modulus(n)
    if r < 2:
        raise BadInput(f"need r >= 2, got {r}")
    if max_trials < 0:
        raise BadInput(f"need max_trials >= 0, got {max_trials}")
    if r > n - 1:
        raise Exhausted(0, f"no composition of {n} into {r} parts in (0, n)")
    if r * (r + 1) // 2 > n:
        raise _exhausted(max_trials, f"no {r} distinct parts sum to {n}")
    memo: dict = {}
    neg_inverses: dict = {}
    asymptotic = _asymptotic_test(n, memo, neg_inverses)
    tree = reason = None
    samples = zip(range(1, max_trials + 1), _sampled_compositions(n, r, seed))
    for trial, nu in samples:
        if asymptotic(nu):
            return _with_search_records(Partition(n, nu), memo, neg_inverses)
        if trial == _TREE_AFTER:
            tree = _composition_tree(n, r, asymptotic)
        if tree is not None:
            node = next(tree, None)
            if node is None:
                raise _exhausted(
                    max_trials,
                    f"an exact search finds no asymptotic composition of {n} into {r} parts",
                )
            candidate, ok = node
            if ok and len(candidate) == r:
                tree = None  # a composition qualifies: sampling decides
                reason = "an asymptotic composition exists, but no sample hit it"
    raise _exhausted(max_trials, reason)


def _exhausted(trials: int, reason: str | None) -> Exhausted:
    # Exhausted's own message, then the case when the search knows it
    plain = Exhausted(trials)
    return Exhausted(trials, f"{plain}: {reason}") if reason else plain


def _with_search_records(part: Partition, memo: dict, neg_inverses: dict) -> Partition:
    # The search's test computed the negative inverse of every part of
    # ``part`` and kept the chain record of the wall chain n/q_kj of every
    # pair j < k in ``memo``.  Seeding the cached_properties' slots in the
    # instance dict leaves equality, hash and repr of the named tuple as they
    # are, and pickling keeps the slots; they equal what Partition.q_matrix
    # and Partition.chain_records would compute.
    n, nu = part.n, part.nu
    slots = part.__dict__
    q = slots["q_matrix"] = _q_rows(n, nu, [neg_inverses[v] for v in nu])
    slots["chain_records"] = {(j, k): memo[q[k][j]] for j, k in _pair_keys(part.r)}
    return part


def _all_compositions(n: int, r: int):
    for cuts in itertools.combinations(range(1, n), r - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(r))


def partition_density(
    n: int, r: int, samples: int | None, seed: int = 0
) -> Fraction:
    """Fraction of compositions of n into r positive parts that are asymptotic.

    ``samples=None`` enumerates all C(n-1, r-1) compositions exactly; otherwise
    a seeded uniform sample of the given size is used.  r = 1 is vacuously
    asymptotic (no pairs).  BadInput for an n that
    :func:`_check_search_modulus` refuses, whether sampled or enumerated.
    """
    _check_search_modulus(n)
    require_ints("r, seed and samples", r, seed, *[samples] if samples is not None else ())
    if samples is not None and samples < 1:
        raise BadInput("need at least one sample")
    if r < 1:
        raise BadInput(f"need r >= 1, got {r}")
    if r == 1:
        return Fraction(1)
    if r > n - 1:
        raise BadInput(f"no composition of {n} into {r} positive parts")
    asymptotic = _asymptotic_test(n, {}, {})
    if samples is None:
        hits = total = 0
        for nu in _all_compositions(n, r):
            total += 1
            hits += asymptotic(nu)
        return Fraction(hits, total)
    stream = _sampled_compositions(n, r, seed)
    hits = sum(asymptotic(next(stream)) for _ in range(samples))
    return Fraction(hits, samples)
