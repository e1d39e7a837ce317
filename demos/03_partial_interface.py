#!/usr/bin/env python3
# The partial decoding interface: teleport a logical state from one code
# level down to smaller blocks, exactly when noiseless, and estimate the
# failure parameter tau under circuit noise.

import numpy as np

from decint import css, interface
from decint.noise import NoiseParams
from decint.tableau import Tableau, random_stabilizer_state

fam = css.toy_family()
plan = interface.build_gamma(fam, 2, 1)
print(f"Gamma_(2,1): {len(plan.q_wires)}-qubit input block -> {plan.blocks} bare qubits")
print(f"total wires {plan.qubit_count}, locations {plan.n_locations}, "
      f"latency {plan.latency_layers} layers")

# --- noiseless exactness -----------------------------------------------------------
# One encoder, css.encoded_tableau(codes, logical, labels), builds every
# encoded state: the input block, the Bell resource (logical Bell pairs
# across the A block and the B blocks) and the expected output.
code = fam.level(2)
logical = random_stabilizer_state([0, 1], np.random.default_rng(3))
inp = css.encoded_tableau((code,), logical, plan.q_wires)
# One Gamma pass, gamma_pass, runs on a tableau engine (exact) or a frame
# engine (Monte Carlo); the tableau engine evolves `inp` in place.
interface.gamma_pass(plan, interface.TableauEngine(inp, np.random.default_rng(0), {}))
print("\nnoiseless run reproduces the logical state:",
      inp.same_state(interface.expected_output_tableau(plan, logical)))
resource = plan.resource_tableau()
xx = np.concatenate([code.lx[0], plan.lxb[0]])
print("resource holds X_0^A X_0^B:", resource.expectation_z(xx, np.zeros_like(xx)) == 0)

# The classical Bell processing corrects readout errors within the decoding
# radius; on the distance-3 Steane variant every single-qubit input error
# still yields the right logical outcome.
sfam = css.steane_family()
splan = interface.build_gamma(sfam, 2, 1)
steane = sfam.level(2)
logical1 = Tableau.zero_state([0])
logical1.apply_pauli_on([0], [1], [0])
inp = css.encoded_tableau((steane,), logical1, splan.q_wires)
inp.apply_pauli_on([splan.q_wires[4]], [1], [0])  # X error on qubit 4
interface.gamma_pass(splan, interface.TableauEngine(inp, np.random.default_rng(1), {}))
print("Steane variant absorbs an injected X4:",
      inp.same_state(interface.expected_output_tableau(splan, logical1)))

# --- Monte Carlo failure estimation ---------------------------------------------
# A trial fails on a herald, a residual above mu*n per block, or a wrong
# logical outcome. 10^5 trials per point run in about a second. estimate_tau
# returns the counts summed over its chunks of trials (`run_chunks`).
print("\ndelta      failures/trials   rate     wilson interval")
for delta in (0.02, 0.01, 0.005):
    est = interface.estimate_tau(
        fam, 2, 1, NoiseParams(delta=delta, seed=2024), trials=100_000, mu=0.25
    )
    lo, hi = interface.wilson_interval(est.failures, est.trials)
    print(f"{delta:<9g}  {est.failures:>6d}/{est.trials}  {est.rate:.4f}  ({lo:.4f}, {hi:.4f})")

est = interface.estimate_tau(fam, 2, 1, NoiseParams(delta=0.01, seed=1), trials=50_000, mu=0.25)
print("\nper-output-qubit error marginals:", est.out_qubit_error_rate.round(4))
print("residual weight histogram (block 0):", est.block_weight_hist[0])
