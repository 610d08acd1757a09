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
from functools import cached_property, lru_cache

from sympy import isprime

from .dedekind import dedekind_fast
from .errors import BadInput, CertificationError, Exhausted
from .exact import leq_sqrt_bound, log_enclosure, mod_inverse
from .hj import hj_length

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
    """

    n: int
    nu: tuple[int, ...]

    def __post_init__(self):
        if not isprime(self.n):
            raise BadInput(f"modulus must be prime, got {self.n}")
        if any(not 0 < v < self.n for v in self.nu):
            raise BadInput(f"multiplicities must lie in (0, {self.n})")

    @property
    def r(self) -> int:
        return len(self.nu)

    @cached_property
    def q_matrix(self) -> tuple[tuple[int | None, ...], ...]:
        r = self.r
        return tuple(
            tuple(
                q_of_pair(self.n, self.nu[j], self.nu[k]) if j != k else None
                for k in range(r)
            )
            for j in range(r)
        )

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


@lru_cache(maxsize=1 << 20)
def _member_canonical(n: int, q: int) -> bool:
    # q is already the canonical representative min(q, q').
    cap = math.isqrt(9 * n) + 2  # floor(3 sqrt(n) + 2)
    if hj_length(n, q, cap=cap) is None:
        return False
    return leq_sqrt_bound(abs(dedekind_fast(1, q, n)), 3, n, 5)


def girstmair_member(n: int, q: int) -> bool:
    """Exact membership of q in O_n (both bounds, no floating point).

    d(1, q, n) = d(1, q', n) and l(q, n) = l(q', n), so membership is decided
    on the representative min(q, q') and cached.
    """
    if not 0 < q < n:
        return False
    return _member_canonical(n, min(q, mod_inverse(q, n)))


def _complement_bound_holds(n: int, complement_size: int) -> bool:
    # complement <= sqrt(n) log(4n), squared; uses the *lower* end of the
    # rational log enclosure so a True verdict is a sound certificate.
    log_lo, _ = log_enclosure(4 * n)
    return Fraction(complement_size) ** 2 <= n * log_lo * log_lo


def girstmair_set(n: int) -> ONSet:
    """The extensional O_n for a prime n >= 17; complement bound verified."""
    if n < 17 or not isprime(n):
        raise BadInput(f"need a prime n >= 17, got {n}")
    members = frozenset(q for q in range(1, n) if girstmair_member(n, q))
    complement = (n + 1) - len(members)  # complement within {0, ..., n}
    if not _complement_bound_holds(n, complement):
        raise CertificationError(
            f"complement bound sqrt(n) log(4n) violated at n={n}: {complement}"
        )
    return ONSet(n, members, complement)


def _sample_composition(n: int, r: int, rng: SplitMix64) -> tuple[int, ...]:
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


def _is_asymptotic(n: int, nu) -> bool:
    return all(
        girstmair_member(n, q_of_pair(n, nu[j], nu[k]))
        for j, k in itertools.combinations(range(len(nu)), 2)
    )


def find_asymptotic_partition(
    n: int, r: int, seed: int, max_trials: int
) -> Partition:
    """Seeded search for a partition nu_1+...+nu_r = n with all q_jk in O_n.

    Deterministic given the seed.  Raises :class:`Exhausted` when the trial
    budget runs out (immediately when r > n - 1, where no composition with
    positive parts below n exists).
    """
    if not isprime(n) or n < 17:
        raise BadInput(f"need a prime n >= 17, got {n}")
    if r < 2:
        raise BadInput(f"need r >= 2, got {r}")
    if r > n - 1:
        raise Exhausted(0, f"no composition of {n} into {r} parts in (0, n)")
    rng = SplitMix64(seed)
    for _ in range(max_trials):
        nu = _sample_composition(n, r, rng)
        if _is_asymptotic(n, nu):
            return Partition(n, nu)
    raise Exhausted(max_trials)


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
    if not isprime(n) or n < 17:
        raise BadInput(f"need a prime n >= 17, got {n}")
    if r < 1:
        raise BadInput(f"need r >= 1, got {r}")
    if r == 1:
        return Fraction(1)
    if r > n - 1:
        raise BadInput(f"no composition of {n} into {r} positive parts")
    if samples is None:
        hits = total = 0
        for nu in _all_compositions(n, r):
            total += 1
            hits += _is_asymptotic(n, nu)
        return Fraction(hits, total)
    if samples < 1:
        raise BadInput("need at least one sample")
    rng = SplitMix64(seed)
    hits = sum(
        _is_asymptotic(n, _sample_composition(n, r, rng)) for _ in range(samples)
    )
    return Fraction(hits, samples)
