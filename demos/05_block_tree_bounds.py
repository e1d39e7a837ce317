#!/usr/bin/env python3
# The error analysis model: interface failures form a three-state process
# on a perfect binary tree. Exact rational inclusion probabilities confirm
# the closed-form bounds at the doubly-exponential parameterization.

from fractions import Fraction

import numpy as np

from decint import blocktree as bt
from decint.blocktree import TreeParams

z = 4
delta_bar = Fraction(1, 10)
params = TreeParams.bound_saturating(z, delta_bar)
print("tau per depth (delta_bar = 0.1, z = 4):")
for y, tau in enumerate(params.taus):
    print(f"  depth {y}: tau = 0.1^{2**(z - y)} = {float(tau):.2e}")

# --- sampled patterns respect the pattern constraint ------------------------------
# One trial of the batched sampler: F_y holds the depth-y nodes that fail fresh,
# F-bar the leaves that are not alive.
alive, fresh = bt.sample_states_batch(TreeParams.from_floats(4, [0.3] * 4), seed=1, trials=1)
failure_sets = [{v for v in bt.nodes_at_depth(4, y) if fresh[v][0]} for y in range(4)]
leaf_failures = {v for v in bt.leaves(4) if not alive[v][0]}
print("\nsampled fresh-failure sets per depth:", [sorted(f) for f in failure_sets])
print("valid block error pattern:", bt.is_block_error_pattern(failure_sets))
print("partition predicate holds:", bt.partitions_leaf_set(failure_sets, leaf_failures, 4))

# --- node weight and the f(v) recursion helper -----------------------------------
t_bar = [(0, 0, 0), (0, 1, 0)]
print("\nnode weight of two leaves:", bt.node_weight(z, t_bar))
print("f(v) for the first leaf (subtree capture height):", bt.f_of_v(t_bar, (0, 0, 0)))

# --- exact inclusion vs the closed-form bound -------------------------------------
print("\nleaf antichains at z=4, delta_bar=0.1:")
print("|T|   exact Pr            bound (2 delta)^2|T|")
for size in (1, 2, 3):
    t = tuple(bt.leaves(z)[:size])
    exact = bt.exact_inclusion(params, t)
    bound = (2 * delta_bar) ** (2 * size)
    print(f" {size}    {float(exact):.6e}    {float(bound):.6e}")

# Monte Carlo agrees with the exact recursion (the bound margins themselves
# live at delta^(2^z) scales, which is why the exact path uses rationals).
alive, _ = bt.sample_states_batch(params, seed=11, trials=10**6)
t = tuple(bt.leaves(z)[:2])
hit = np.ones(10**6, dtype=bool)
for v in t:
    hit &= ~alive[v]
print(f"\npair inclusion: monte carlo {hit.mean():.3e} "
      f"vs exact {float(bt.exact_inclusion(params, t)):.3e}")

# The full grid check used by the acceptance suite:
checks = bt.check_final_bound(3, Fraction(3, 10), max_size=3, leaf_only=True)
print(f"\nz=3, delta_bar=0.3: {len(checks)} leaf antichains, "
      f"all within bound: {all(c.ok for c in checks)}")
