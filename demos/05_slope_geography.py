"""Chern-slope geography: where the covers land as n and d grow.

Three movements:
  1. the degree-6 family over growing primes: the volume slope -K^3/24chi
     approaches ((d-2)^3 - 1)/((d-2)(d-1)^2) = 0.63 and the Euler slope
     approaches d/(d-2) = 1.5;
  2. the closed-form volume-slope limits march to 1 as d grows;
  3. hyperplane-arrangement log-Chern ratios approach (2, 1/3) as r grows.

Finally the sweep driver renders a reproducible CSV of movement 1.
"""

from rootcover import (
    closed_forms_p4,
    find_asymptotic_partition,
    invariant_report,
    log_chern_numbers,
    make_preset,
)
from rootcover.cli import run_sweep

print("=== d = 6 family over primes (asymptotic partitions, minimal) ===")
pair = make_preset("hypersurface_p4", (6, 3))
print(f"{'n':>7} {'nu':>22} {'-K^3/24chi':>11} {'e/24chi':>9}")
for n in (1009, 10007, 100003):
    part = find_asymptotic_partition(n, 3, seed=909, max_trials=10**5)
    rep = invariant_report(pair, part, "minimal")
    s1, s2 = rep.slopes
    print(f"{n:>7} {'+'.join(map(str, part.nu)):>22} {float(s1):>11.5f} {float(s2):>9.5f}")
print("targets:", 0.63, "and d/(d-2) =", 1.5)
print()

print("=== what the subdivision strategy buys: K^3/n targets ===")
# the balanced point has V = 0 and tracks -c1_bar^3 = 384; the minimal
# point keeps the central-divisor drift and tracks d(d-2)^3 - d = 378
from rootcover import k3_root_cover

print(f"{'n':>7} {'balanced':>10} {'minimal':>9}")
for n in (1009, 10007):
    part = find_asymptotic_partition(n, 3, seed=909, max_trials=10**5)
    kb = k3_root_cover(pair, part, "balanced")
    km = k3_root_cover(pair, part, "minimal")
    print(f"{n:>7} {float(kb / n):>10.3f} {float(km / n):>9.3f}")
print("targets:   384.000   378.000")
print()

print("=== closed-form volume-slope limits, d -> infinity ===")
from rootcover import Partition

part7 = Partition(7, (1, 2, 4))
print(f"{'d':>4} {'slope1':>9}")
for d in (6, 10, 20, 50):
    s1, _ = closed_forms_p4(d, 7, part7).slope_pair
    print(f"{d:>4} {float(s1):>9.5f}")
print("limit point: 1")
print()

print("=== hyperplane arrangements: log-Chern ratios -> (2, 1/3) ===")
print(f"{'r':>5} {'c1^3/c1c2':>10} {'c3/c1c2':>9}")
for r in (20, 50, 200):
    bars = log_chern_numbers(make_preset("planes_p3", r))
    print(f"{r:>5} {float(bars.c1_cubed_bar / bars.c1c2_bar):>10.4f} "
          f"{float(bars.c3_bar / bars.c1c2_bar):>9.4f}")
print()

print("=== sweep driver: CSV for the d = 6 family, primes in [17, 60] ===")
config = {
    "preset": "hypersurface_p4",
    "d": 6,
    "r": 3,
    "n_min": 17,
    "n_max": 60,
    "partition": "asymptotic",
    "seed": 3,
    "trials": 10000,
    "strategy": "minimal",
    "format": "csv",
    "digits": 5,
}
text, code = run_sweep(config)
for line in text.splitlines():
    print(line[:118])
print("exit code:", code)
