#!/usr/bin/env python3
"""Walkthrough of the exact offline solvers.

A right-sizing instance is a horizon of convex per-slot cost curves plus a
charge beta for every server powered up.  The plain DP scans every state in
every slot; the window solver pads the fleet to a power of two and homes in
on the optimum through five-state windows, probing O(T log m) states total.
"""

import time

import numpy as np

from rightsizing import (
    AffineAbsCost,
    ProblemInstance,
    TableCost,
    dp_optimal,
    pad_to_power_of_two,
    solve_poly,
)

rng = np.random.default_rng(7)

# A tiny instance, small enough to read: demand wants ~1 server, then ~0,
# then ~1 again, and switching costs 1 per power-up.
inst = ProblemInstance(
    T=3, m=2, beta=1.0,
    functions=(TableCost([3, 1, 0]), TableCost([0, 1, 3]), TableCost([3, 1, 0])),
)
res = dp_optimal(inst)
print(f"tiny instance: optimal schedule {list(res.schedule)} at cost {res.cost}")
print("  (riding out the middle slot at 1 server would also cost 4;")
print("   the solver returns the lexicographically smallest optimum)\n")

# The window solver agrees with the oracle but probes far fewer states.
T, m = 2_000, 1 << 12
big = ProblemInstance(
    T, m, beta=2.0,
    functions=tuple(AffineAbsCost(float(e), float(c)) for e, c in
                    zip(rng.uniform(0.1, 2.0, T), rng.uniform(0, m, T))),
)
t0 = time.perf_counter()
fast = solve_poly(big)
fast_ms = (time.perf_counter() - t0) * 1e3
t0 = time.perf_counter()
oracle = dp_optimal(big)
oracle_ms = (time.perf_counter() - t0) * 1e3
print(f"T={T}, m={m}:")
print(f"  window solver  cost {fast.cost:.3f}  "
      f"({fast.states_probed:,} states, {fast_ms:.1f} ms)")
print(f"  full DP oracle cost {oracle.cost:.3f}  "
      f"({oracle.states_probed:,} states, {oracle_ms:.1f} ms)")
print(f"  equal optima: {abs(fast.cost - oracle.cost) <= 1e-9 * oracle.cost}\n")

# Fleets that are not a power of two get a steep linear extension; the
# padded states are strictly dominated and never survive into the answer.
odd = ProblemInstance(4, 5, 1.0,
                      functions=tuple(TableCost(rng.uniform(0, 4, 6))
                                      for _ in range(4)))
padded = pad_to_power_of_two(odd)
print(f"padding: m={odd.m} grows to {padded.m}; "
      f"f'(6) = {padded.functions[0](6):.3f} vs f(5) = {odd.functions[0](5):.3f}")
sol = solve_poly(odd)
print(f"solution stays within the real fleet: max state {int(sol.schedule.max())}")

# At m = 2^20 the full DP is hopeless but the window solver barely notices.
huge = ProblemInstance(
    10_000, 1 << 20, beta=1.5,
    functions=tuple(AffineAbsCost(float(e), float(c)) for e, c in
                    zip(rng.uniform(0.1, 2.0, 10_000),
                        rng.uniform(0, 1 << 20, 10_000))),
)
t0 = time.perf_counter()
sol = solve_poly(huge)
print(f"\nT=10^4, m=2^20: cost {sol.cost:.1f} in "
      f"{(time.perf_counter() - t0) * 1e3:.0f} ms "
      f"({sol.iterations} refinement passes)")
