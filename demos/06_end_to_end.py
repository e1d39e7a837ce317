#!/usr/bin/env python3
# End to end: encoded blocks in, bare qubits out. The staged plan factorizes
# into per-block effective interfaces, so injections and Monte Carlo both
# run block by block.

import numpy as np

from decint import css, e2e, scheduler
from decint.noise import NoiseParams
from decint.tableau import Tableau

fam = css.steane_family()
consts = scheduler.measured_constants(fam)
sched = scheduler.build_schedule(fam, 2, 1, h=3, constants=consts)
print("plan: 3 Steane blocks -> 3 bare qubits,",
      f"{sched.stages[0].n_layers} macro-layers")

# --- exact mode: injected errors below d/2 leave no trace --------------------------
logical = Tableau.zero_state([0])
logical.apply_pauli_on([0], [1], [0])  # |1>_L per block
# One batched walk per block runs every injection as its own exact trial.
cases = [None] + [(q, k) for q in range(7) for k in "XZY"]
clean = 0
for block in range(3):
    res = e2e.run_block_chain_tableau(fam, sched, block, logical, injections=cases)
    clean += int((res.state_matches & (res.output_bits == 1).all(axis=1)).sum())
print(f"exhaustive single-qubit injections: {clean}/66 outputs exact")

# --- Monte Carlo under circuit noise ----------------------------------------------
print("\ndelta     mean output error marginal   per-qubit (block position matters)")
for delta in (0.004, 0.002, 0.001):
    stats = e2e.run_e2e_frames(fam, sched, NoiseParams(delta=delta, seed=99), trials=20_000)
    marg = stats.logical_error_marginals
    print(f"{delta:<8g}  {marg.mean():.4f}                      {marg.round(4)}")
print("(later blocks wait longer under idle noise before their interface turn)")
print(f"at delta={delta}: {stats.heralds} of {stats.trials} trials heralded, "
      f"{stats.any_errors} left an error on some output")

# Pairwise inclusion statistics feed the local-stochastic shape fit:
deltas = [0.004, 0.002, 0.001]
singles, pairs = [], []
for d in deltas:
    stats = e2e.run_e2e_frames(fam, sched, NoiseParams(delta=d, seed=99), trials=20_000)
    singles.append(stats.mean_marginal())
    pairs.append(float(np.mean(stats.pair_errors / stats.trials)))  # joint errors per sampled pair
fit = e2e.fit_ls_constants(deltas, singles, pairs)
if fit:
    print(f"\nfitted Pr(T in errors) ~ ({fit[0]:.2f} * delta)^(%.2f * |T|)" % fit[1])
    print("(measured analogues of the existential constants, never asserted)")
