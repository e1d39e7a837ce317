#!/usr/bin/env python3
# Two circuit backends, one contract: the signed tableau is the exact
# oracle; the Pauli-frame engine propagates error frames for batches of
# Monte Carlo trials. A fault injected at any location produces identical
# outcome flips in both.

import numpy as np

from decint import circuit as circ
from decint.circuit import Circuit, FrameBatch, FrameRunner, Gate, with_idles
from decint.noise import NoiseParams
from decint.tableau import Tableau

# Build a small syndrome-style circuit: prepare a GHZ pair of parities and
# measure everything; ideal outcomes are deterministic. `with_idles` adds an
# idle location on every wire a layer's gates leave untouched.
wires = ["q0", "q1", "q2"]
c = Circuit(wires)
body = [[Gate("h", ("q0",))], [Gate("cnot", ("q0", "q1"))], [Gate("cnot", ("q1", "q2"))]]
for layer in body + body[::-1]:  # each layer is self-inverse
    c.add_layer(with_idles(c, layer))
c.add_layer([Gate("measure", (w,), out=f"m{w}") for w in wires])
print(f"circuit: depth {c.depth}, {c.n_locations} locations")

_, ideal = circ.run_noisy(c, Tableau.zero_state(wires))
print("\nideal outcomes:", ideal)

# Inject an X fault on the second-layer CNOT's control and compare backends.
# A fault is a location (a row of c.fault_table(), one per gate, layer by
# layer), a trial and a Pauli code on the gate's wires: wire j takes bit 2j
# (x) and bit 2j + 1 (z), so code 1 is X on the control. Both backends take
# the same (locations, trials, codes) arrays.
row = c.fault_table().layers[1].rows.start  # gate 0 of layer 1
faults = ([row], [0], [1])
_, noisy = circ.run_noisy(c, Tableau.zero_state(wires), faults=faults)
batch = FrameBatch(wires, 1)
FrameRunner(NoiseParams(delta=0.0, seed=0)).run(c, batch, forced_faults=faults)
print("tableau outcomes with fault:", noisy)
print("frame-predicted flips:      ", {k: int(v[0]) for k, v in batch.flips.items()})

# Frames compose linearly, so conjugation is a group action. A noiseless run
# of a one-trial batch conjugates one frame:
batch = FrameBatch(wires, 1)
batch.xor(["q0"], np.ones((1, 1), np.uint8), np.zeros((1, 1), np.uint8))
FrameRunner(NoiseParams(delta=0.0, seed=0)).run(c, batch)
print("\nX on q0 conjugated through the circuit -> x:", batch.x[:, 0], "z:", batch.z[:, 0])

# Bulk noise: 100k trials of the same circuit at delta = 0.01 in one call.
# Frames are (wires, trials) arrays: batch.x[i] is wire i over every trial.
batch = FrameBatch(wires, 100_000)
FrameRunner(NoiseParams(delta=0.01, seed=5)).run(c, batch)
flips = np.stack([batch.flips[f"m{w}"] for w in wires])
print(f"\n100k-trial flip marginals at delta=0.01: {flips.mean(axis=1).round(4)}")
q0 = batch.index["q0"]
print("mean residual frame weight on q0:", ((batch.x[q0] | batch.z[q0]) != 0).mean().round(4))
