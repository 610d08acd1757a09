"""The local toric model of a triple point and its cyclic resolution.

The cone of t^n = x^{nu_1} y^{nu_2} z^{nu_3} is star-subdivided at an interior
lattice point v of the fundamental parallelepiped and each wall is refined by
its Hirzebruch-Jung chain.  The two supplied selection strategies trade the
size of the residual cyclic singularities against the discrepancy of the
central divisor: "minimal" takes v = (1, 1, {p+q}_n); "balanced" makes the
coordinate sum exactly n (zero discrepancy) with all slopes bounded.
"""

from rootcover import (
    LocalConeSpec,
    cyclic_resolution,
    local_cone,
    local_intersection_table,
    max_slope,
    parallelepiped_points,
    resolution_to_json,
    select_v,
)

print("=== the cone of (n; nu) = (7; 1, 2, 4) ===")
spec = local_cone(7, 1, 2, 4)
print(f"n={spec.n}  p={spec.p}  q={spec.q}  degenerate: {spec.is_degenerate}")
print("parallelepiped has", len(list(parallelepiped_points(spec))), "lattice points")
v = select_v(spec, "minimal")
print("minimal v =", v, " ({p+q}_n = 1, so the resolution is smooth)")
res = cyclic_resolution(spec, v)
for wall, e in sorted(res.walls.items()):
    print(f"  wall {wall}: n/{e.q} = {list(e.ks)}")
print("cone orders:", sorted({c.mult for c in res.cones}))
tab = local_intersection_table(res)
print(f"F^3 = {tab.f3}   K.F^2 = {tab.kf2}   K^2.F = {tab.k2f}")
print("K.C_l:", {l: str(x) for l, x in tab.k_cl.items()},
      "  (all zero: K is nef here)")
print()

print("=== a singular example: (n, p, q) = (7, 2, 3) ===")
spec = LocalConeSpec(7, 2, 3)
for strategy in ("minimal", "balanced"):
    v = select_v(spec, strategy)
    res = cyclic_resolution(spec, v)
    orders = sorted({c.mult for c in res.cones})
    print(f"{strategy:>8}: v = {v}  sum = {sum(v)}  max slope = "
          f"{max_slope(v)}  cone orders = {orders}  V = {res.V}")
    for c in res.cones:
        if c.mult > 1:
            print(f"          cone {c.wall} alpha={c.alpha}: "
                  f"type ({c.type_a},{c.type_b},1)/{c.mult}")
print()

print("=== serialized resolution (golden-file shape) ===")
res = cyclic_resolution(LocalConeSpec(7, 2, 3), select_v(LocalConeSpec(7, 2, 3), "minimal"))
print(resolution_to_json(res)[:400], "...")
