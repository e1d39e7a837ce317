#!/usr/bin/env python3
# The noise model: independent location faults, local stochastic samples,
# composition, and the low-weight tail bound with its exact verification.

from fractions import Fraction

import numpy as np

from decint import noise

# --- fault patterns over circuit locations ---------------------------------------
# Each location is faulty with probability delta; the draw is sparse.
rng = noise.rng_stream(42, noise.STREAM_CIRCUIT, 0)
faulty = noise.bernoulli_positions(rng, 10_000, 0.1)
print(f"faulty fraction at delta=0.1: {faulty.size/10_000:.4f}")

# Same key, same pattern; the samplers are pure functions of their keys.
assert np.array_equal(
    noise.bernoulli_positions(noise.rng_stream(42, noise.STREAM_CIRCUIT, 5), 100, 0.1),
    noise.bernoulli_positions(noise.rng_stream(42, noise.STREAM_CIRCUIT, 5), 100, 0.1),
)

# --- local stochastic channels ----------------------------------------------------
# Samples come as (qubits, trials) x, z bits, the frame layout; X, Z and Y
# read off the two bits. The sampler draws from the generator its caller keys.
x, z = (bits[:, 0] for bits in noise.sample_ls_bits(12, 0.3, np.random.default_rng(7), 1))
support = np.flatnonzero(x | z)
paulis = tuple("XZY"[x[q] + 2 * z[q] - 1] for q in support)
print("ls support:", tuple(int(q) for q in support), "assignment:", paulis)

# The i.i.d. instance saturates the defining inclusion bound with equality:
x, z = noise.sample_ls_bits(4, 0.2, np.random.default_rng(1), 200_000)
sup = (x | z) != 0
print(f"Pr(q0,q1 both hit): {float((sup[0] & sup[1]).mean()):.4f} "
      f"(exactly delta^2 = {0.2**2})")

# Composition: the union of two independent samples, parameters 0.05 and 0.08,
# is local stochastic with the sum of the parameters, 0.13.
xa, za = noise.sample_ls_bits(4, 0.05, np.random.default_rng(2), 200_000)
xb, zb = noise.sample_ls_bits(4, 0.08, np.random.default_rng(3), 200_000)
sup = (xa | za | xb | zb) != 0
print(f"composed: Pr(q0,q1 both hit): {float((sup[0] & sup[1]).mean()):.4f} "
      f"<= 0.13^2 = {0.13**2:.4f}")

# --- the overflow tail bound -------------------------------------------------------
# Probability that a parameter-delta channel touches more than mu*n of n
# qubits: h * (2^{h2(mu)/mu} delta)^{mu n}. Support sizes are binomial.
for n in (20, 50):
    tb = noise.tail_bound(mu=0.2, delta=0.01, n=n, h=1)
    sizes = np.random.default_rng(3).binomial(n, 0.01, size=10**6)
    tau_hat = float((sizes > 0.2 * n).mean())
    print(f"n={n}: analytic bound {tb.value:.3e}  empirical overflow {tau_hat:.3e}")

# Exact-arithmetic domination: the binomial tail is a Fraction, the bound is
# certified at 60 digits.
ok, tail, bound = noise.tail_bound_dominates(Fraction(1, 5), Fraction(1, 100), 50, 1)
print(f"exact tail {float(tail):.3e} <= bound {bound:.3e}: {ok}")

# Truncation into the low-weight branch:
x, z = noise.sample_ls_bits(50, 0.01, np.random.default_rng(9), 2000)
overflow = ((x | z).sum(axis=0) > 0.2 * 50).mean()
print(f"overflow frequency over {x.shape[1]} samples: {overflow:.4f}")
