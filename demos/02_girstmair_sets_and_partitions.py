"""Girstmair sets and asymptotic partitions.

For a prime n, the set O_n collects residues q whose Dedekind sum and chain
length are both O(sqrt(n)); its complement has size at most sqrt(n) log(4n).
Branch multiplicities nu_1 + ... + nu_r = n whose pair residues all land in
O_n are the partitions for which the cover invariants stay asymptotic.  The
probability of a uniform partition being asymptotic tends to 1.
"""

from rootcover import (
    find_asymptotic_partition,
    girstmair_member,
    girstmair_set,
    partition_density,
    q_of_pair,
)
from rootcover.exact import is_prime, log_enclosure, sqrt_upper

print("=== O_n sizes and the complement bound ===")
print(f"{'n':>6} {'|O_n|':>7} {'compl':>6} {'sqrt(n)log(4n)':>15}")
for n in [17, 101, 499, 997, 4999]:
    on = girstmair_set(n)
    bound = float(sqrt_upper(n) * log_enclosure(4 * n)[1])
    print(f"{n:>6} {len(on.members):>7} {on.complement_size:>6} {bound:>15.1f}")
print()

print("=== membership fixtures at n = 17 ===")
on = girstmair_set(17)
print("2 in O_17:", 2 in on.members, "   16 in O_17:", 16 in on.members,
      "(the chain 17/16 = [2]*16 is too long)")
print()

print("=== an asymptotic partition of n = 10007 into 4 parts ===")
part = find_asymptotic_partition(10007, 4, seed=1, max_trials=10**4)
print("nu =", part.nu)
for j in range(4):
    for k in range(j + 1, 4):
        q = part.q_matrix[j][k]
        print(f"  q_{j}{k} = {q:5d}  in O_n: {girstmair_member(10007, q)}")
print()

print("=== density of asymptotic partitions (r = 3, 200 samples each) ===")
print(f"{'n':>7} {'density':>9}")
n = 997
for _ in range(5):
    d = partition_density(n, 3, 200, seed=9)
    print(f"{n:>7} {float(d):>9.3f}")
    n = n * 4 + 1
    while not is_prime(n):
        n += 1
print()
print("exhaustive check at n = 101, r = 2:",
      partition_density(101, 2, None), "(all compositions asymptotic)")
print("q_of_pair(7, 1, 2) =", q_of_pair(7, 1, 2), " (1 + 3*2 = 7 ~ 0 mod 7)")
