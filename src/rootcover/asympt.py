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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BadInput, CertificationError, Exhausted
from .exact import is_prime, log_enclosure, mod_inverse
from .hj import _chain, chain_record, dual_record

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
        self.state = seed & self._MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise BadInput(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next64()
            if z < limit:
                return z % bound


@dataclass(frozen=True)
class ONSet:
    """The Girstmair set of a prime n, with its complement count in {0,...,n}."""

    n: int
    members: frozenset[int]
    complement_size: int


@dataclass(frozen=True)
class Partition:
    """Branch multiplicities nu_1..nu_r modulo a prime n, with pair residues.

    q_matrix[j][k] is the unique q in (0, n) with nu_j + q nu_k ~ 0 (mod n);
    the diagonal is None.  Rows/columns pair into inverses: q_kj = (q_jk)'.
    chain_records[j, k] (j < k) is the :func:`chain_record` of the wall
    chain n / wall_seed(j, k); a partition returned by
    :func:`find_asymptotic_partition` arrives with it filled from the
    records of its search.
    """

    n: int
    nu: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.n):
            raise BadInput(f"modulus must be prime, got {self.n}")
        if any(not 0 < v < self.n for v in self.nu):
            raise BadInput(f"multiplicities must lie in (0, {self.n})")

    @property
    def r(self) -> int:
        return len(self.nu)

    @cached_property
    def q_matrix(self) -> tuple[tuple[int | None, ...], ...]:
        # q_jk = nu_j (-nu_k') mod n: one inverse per column
        n, nu = self.n, self.nu
        neg_inverses = [n - mod_inverse(v, n) for v in nu]
        return tuple(
            tuple(
                nu_j * m % n if j != k else None for k, m in enumerate(neg_inverses)
            )
            for j, nu_j in enumerate(nu)
        )

    @cached_property
    def chain_records(self) -> dict[tuple[int, int], tuple[int, ...]]:
        q = self.q_matrix
        n, r = self.n, self.r
        return {
            (j, k): chain_record(n, q[k][j])
            for j in range(r)
            for k in range(j + 1, r)
        }

    def wall_seed(self, j: int, k: int) -> int:
        """First numerator of the exceptional chain in direction j -> k.

        This is q_kj; the opposite direction uses its inverse q_jk.
        """
        return self.q_matrix[k][j]


def q_of_pair(n: int, nu_j: int, nu_k: int) -> int:
    """The unique q in (0, n) with nu_j + q*nu_k ~ 0 (mod n)."""
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


def girstmair_set(n: int) -> ONSet:
    """The extensional O_n for a prime n >= 17; complement bound verified."""
    if n < 17 or not is_prime(n):
        raise BadInput(f"need a prime n >= 17, got {n}")
    members = frozenset(q for q in range(1, n) if girstmair_member(n, q))
    complement = (n + 1) - len(members)  # complement within {0, ..., n}
    if not _complement_bound_holds(n, complement):
        raise CertificationError(
            f"complement bound sqrt(n) log(4n) violated at n={n}: {complement}"
        )
    return ONSet(n, members, complement)


def _sampled_compositions(n: int, r: int, seed: int):
    """The endless stream of uniform compositions of n into r positive parts.

    Each composition takes r - 1 distinct cuts in {1, ..., n-1} by Floyd's
    subset sampling, drawing ``SplitMix64(seed).below(j) + 1`` for
    j = n-r+1, ..., n-1, so the draw count per composition is fixed.  The
    recipe of :class:`SplitMix64` is inlined on a local state, with the
    rejection limit of each bound j computed once.
    """
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


def _asymptotic_test(n: int, memo: dict):
    """The test nu -> (every pair residue of nu lies in O_n).

    Membership of each residue q is looked up in ``memo``, which holds the
    chain record of n/q for a member and False otherwise (filled by the
    chain pass on a miss; q is a nonzero residue of the prime n, so no
    coprimality check is needed).  The test stops at the first residue
    outside O_n.
    """
    cap = _length_cap(n)
    neg_inverses: dict[int, int] = {}

    def asymptotic(nu) -> bool:
        for k in range(1, len(nu)):
            m = neg_inverses.get(nu[k])
            if m is None:
                m = neg_inverses[nu[k]] = n - mod_inverse(nu[k], n)
            for j in range(k):
                q = nu[j] * m % n  # q_of_pair(n, nu[j], nu[k])
                hit = memo.get(q)
                if hit is None:
                    hit = memo[q] = _member_record(n, q, cap)
                if not hit:
                    return False
        return True

    return asymptotic


def _composition_tree(n: int, r: int, memo: dict):
    """Exact depth-first search for an asymptotic composition of n into r parts.

    Permuting the parts maps each pair residue to itself or its inverse, and
    O_n is closed under inverses, so the search runs over nonincreasing parts
    and tries the most balanced value first at each depth.  Equal parts pair
    to q = n - 1; when n - 1 is not in O_n (always, for n >= 17: its chain is
    n - 1 twos) the parts are distinct.  A depth that leaves sum R to ``left``
    parts of at most ``cap`` only tries values that keep
    left (left + 1) / 2 <= R <= cap + (cap - 1) + ... + (cap - left + 1)
    for distinct parts, or left <= R <= left cap for repeats.

    Yields ``(candidate, ok)`` once per part tried: the prefix with that part
    appended, and whether its new pair residues all lie in O_n (``memo``
    shared as in :func:`_asymptotic_test`).  An ok candidate of length r is
    an asymptotic composition; the generator returns once the tree is
    exhausted, which proves that none exists.
    """

    cap = _length_cap(n)

    def member(q: int):
        hit = memo.get(q)
        if hit is None:
            hit = memo[q] = _member_record(n, q, cap)
        return hit

    distinct = 0 if member(n - 1) else 1

    def span(rest_sum: int, left: int, cap: int) -> tuple[int, int]:
        # Values v for the largest of `left` parts with sum rest_sum: the
        # other left - 1 parts must fit below v - distinct.
        rest = left - 1
        tri = rest * (rest - 1) // 2
        lo = -(-(rest_sum + distinct * (rest + tri)) // left)
        return lo, min(cap, rest_sum - rest - distinct * tri)

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
        m = n - pow(v, -1, n)
        ok = all(member(p * m % n) for p in parts)
        yield (*parts, v), ok
        if ok and len(parts) + 1 < r:
            parts.append(v)
            highs.append(hi)
            rest_sum -= v
            v, hi = span(rest_sum, r - len(parts), v - distinct)
        else:
            v += 1


def find_asymptotic_partition(
    n: int, r: int, seed: int, max_trials: int
) -> Partition:
    """Seeded search for a partition nu_1+...+nu_r = n with all q_jk in O_n.

    Deterministic given the seed: the first asymptotic composition among
    ``max_trials`` uniform samples.  Raises :class:`Exhausted` when the trial
    budget runs out (immediately when r > n - 1, where no composition with
    positive parts below n exists).  After each missed trial an exact search
    of the compositions (:func:`_composition_tree`) takes one step; if it
    shows that no composition qualifies, ``Exhausted(max_trials)`` is raised
    at once, the error the samples would have ended in.  The partition
    returned carries the chain records its search computed
    (``Partition.chain_records``).  BadInput for a negative ``max_trials``.
    """
    if not is_prime(n) or n < 17:
        raise BadInput(f"need a prime n >= 17, got {n}")
    if r < 2:
        raise BadInput(f"need r >= 2, got {r}")
    if max_trials < 0:
        raise BadInput(f"need max_trials >= 0, got {max_trials}")
    if r > n - 1:
        raise Exhausted(0, f"no composition of {n} into {r} parts in (0, n)")
    memo: dict = {}
    asymptotic = _asymptotic_test(n, memo)
    tree = _composition_tree(n, r, memo)
    for _, nu in zip(range(max_trials), _sampled_compositions(n, r, seed)):
        if asymptotic(nu):
            return _with_search_records(Partition(n, nu), memo)
        if tree is not None:
            node = next(tree, None)
            if node is None:
                break
            candidate, ok = node
            if ok and len(candidate) == r:
                tree = None  # a composition qualifies: sampling decides
    raise Exhausted(max_trials)


def _with_search_records(part: Partition, memo: dict) -> Partition:
    # The search looked up every pair residue q_jk (j < k) of ``part`` and
    # kept the chain record of n/q_jk in ``memo``.  The wall chain of the
    # pair is n/q_kj = n/q_jk', whose record dual_record reads off without a
    # pass.  Seeding the cached_property's slot in the instance dict leaves
    # equality, hash, repr and pickling of the frozen dataclass as they are;
    # the records equal what Partition.chain_records would compute.
    n, q, r = part.n, part.q_matrix, part.r
    part.__dict__["chain_records"] = {
        (j, k): dual_record(n, q[j][k], memo[q[j][k]])
        for j in range(r)
        for k in range(j + 1, r)
    }
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
    asymptotic (no pairs).
    """
    if not is_prime(n) or n < 17:
        raise BadInput(f"need a prime n >= 17, got {n}")
    if r < 1:
        raise BadInput(f"need r >= 1, got {r}")
    if r == 1:
        return Fraction(1)
    if r > n - 1:
        raise BadInput(f"no composition of {n} into {r} positive parts")
    asymptotic = _asymptotic_test(n, {})
    if samples is None:
        hits = total = 0
        for nu in _all_compositions(n, r):
            total += 1
            hits += asymptotic(nu)
        return Fraction(hits, total)
    if samples < 1:
        raise BadInput("need at least one sample")
    stream = _sampled_compositions(n, r, seed)
    hits = sum(asymptotic(next(stream)) for _ in range(samples))
    return Fraction(hits, samples)
