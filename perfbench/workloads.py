"""What each workload runs, and how its inputs follow from the seed.

The seed picks one of ``VARIANTS`` input sets: for the sweeps it sets the
partition-search seeds written into the sub-sweep configs, for the ladder
the search seeds of the ladder's partitions.  The n-ranges stay fixed, so the
amount of work barely moves with the seed, and every variant has a reference
digest of its output bytes in ``digests.json``.
"""

from __future__ import annotations

import sys

VARIANTS = 16

SWEEPS = {
    # Starts at 17 so that the six small primes where no r = 8 partition is
    # found (17..31 and 47) burn the whole trial budget: the search
    # dominates and select_v("minimal") is negligible.  They are 4% of the
    # 162 cells, so p90 lies ten cells deep among the ok cells, not at the
    # gap above them.  The budget is 5 * 10^4 trials, so that a sweep takes
    # about 10 s (four in a 45 s run); no ok cell of any variant needs more
    # than 7552.
    "sweep-search-r8": {
        "preset": "hypersurface_p4", "d": 6, "r": 8,
        "n_min": 17, "n_max": 1000,
        "partition": "asymptotic", "trials": 50000,
        "strategy": "minimal", "workers": 1,
    },
    # Balanced scans are O(n) per triple point: select_v dominates, the
    # search is cheap at these n, and the cells run on a 2-process pool.
    "sweep-balanced-r4": {
        "preset": "hypersurface_p4", "d": 6, "r": 4,
        "n_min": 2000, "n_max": 3600,
        "partition": "asymptotic", "trials": 100000,
        "strategy": "balanced", "workers": 2,
    },
}

# Primes per sub-sweep.  A sweep searches every n with one SplitMix64 stream
# from its config seed, so one seed gives partitions of much the same shape
# at every n, and the report's cost follows the shape: with one seed for the
# whole range the per-cell p50 moves by ~40% from seed to seed.  The search
# sweep therefore runs as consecutive sub-sweeps of 4 primes, each with its
# own search seed, one after another in one interpreter (the CLI's cache is
# keyed by n, so sub-sweeps do not warm each other).  The balanced sweep's
# cost is select_v's O(n) scan, which no seed moves; it stays one sweep.
SUB_SWEEP_PRIMES = {"sweep-search-r8": 4, "sweep-balanced-r4": None}

LADDER = "report-ladder"
LADDER_D = 6
LADDER_N = (1009, 10007, 100003)
# Partitions per (n, r) rung.  With the r=20, n=1009 rung dropped the ladder
# has 120 + 36 + 4 = 160 cells.  The nearest-rank p50 (rank 80) falls at
# two thirds of the r=3 cells (report overhead: log Chern numbers, chi,
# Dedekind sums) and p90 (rank 144) at two thirds of the r=8 cells
# (k3_root_cover), deep inside each latency class rather than in its tail,
# where a few costly partitions would move it from seed to seed.  The four
# r=20 cells weigh in cells_per_s.
LADDER_R = {3: 40, 8: 12, 20: 2}
LADDER_TRIALS = 10000
LADDER_STRATEGY = "minimal"
# Timed passes over the ladder's cells in one fresh interpreter, after the
# untimed warm-up pass.
LADDER_PASSES = 2

NAMES = tuple(SWEEPS) + (LADDER,)

# Seconds one timed repetition (a fresh interpreter) takes on a 2-vCPU
# x86-64 host.  A run makes a fixed number of repetitions for its --seconds,
# not as many as fit: a shared host's speed can drift by 30% from minute to
# minute, and a count that followed it would change the statistics of the
# per-cell fastest call between runs.
REPETITION_S = {"sweep-search-r8": 10, "sweep-balanced-r4": 5, LADDER: 13}
MIN_REPETITIONS = 2


def repetitions(workload: str, seconds: float) -> int:
    """Timed repetitions of a run of ``seconds`` (at least two)."""
    return max(MIN_REPETITIONS, round(seconds / REPETITION_S[workload]))


def variant(seed: int) -> int:
    return seed % VARIANTS


def ladder_search_seeds(seed: int, count: int) -> list[int]:
    """Distinct partition-search seeds for the partitions of one ladder rung."""
    return [variant(seed) + VARIANTS * j for j in range(count)]


def sweep_configs(workload: str, seed: int) -> list[dict]:
    """The sub-sweep configs the CLI receives, in order, for this workload and seed.

    Sub-sweep k of variant v searches with seed v * count + k, so no two
    sub-sweeps of any variants share a seed; with one sub-sweep the search
    seed is the variant itself.
    """
    base = SWEEPS[workload]
    primes = primes_between(base["n_min"], base["n_max"])
    size = SUB_SWEEP_PRIMES[workload] or len(primes)
    groups = [primes[i : i + size] for i in range(0, len(primes), size)]
    return [
        dict(base, n_min=group[0], n_max=group[-1], seed=variant(seed) * len(groups) + k)
        for k, group in enumerate(groups)
    ]


def sweep_cells(configs) -> list[int]:
    """The primes the sub-sweeps report, in output order."""
    return [n for cfg in configs for n in primes_between(cfg["n_min"], cfg["n_max"])]


def run_sub_sweeps(cli_main, config_paths, extra=()) -> int:
    """``rootcover sweep --config PATH *extra`` for each path in turn, in this process.

    Each CSV goes to stdout as the CLI writes it.  Returns the CLI's exit
    code: 2 if any sub-sweep had a cell that is not ok, else 0, or the
    first other code, which stops the run.
    """
    code = 0
    for path in config_paths:
        result = cli_main(["sweep", "--config", str(path), *extra])
        sys.stdout.flush()
        if result not in (0, 2):
            return result
        code = max(code, result)
    return code


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi (the cells a sweep must report)."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]
