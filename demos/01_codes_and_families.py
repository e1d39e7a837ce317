#!/usr/bin/env python3
# Codes and families: the GF(2) substrate, CSS codes, and the shipped
# level-indexed family with its rate/doubling metadata.

import numpy as np

from decint import css, gf2
from decint.tableau import Tableau

# --- GF(2) linear algebra: vectors and matrices are 0/1 uint8 arrays ----------
h = np.array([[1, 1, 1, 1]], np.uint8)  # the [[4,2,2]] check, both sectors
print("rank([1111]) =", gf2.rank(h))
print("kernel dimension =", len(gf2.nullspace_basis(h)))  # even-weight space

# Coset minimum weight is the quantity error correction actually bounds. The
# search takes a batch, one row per trial:
e = np.array([[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]], np.uint8)
res = gf2.coset_min_weight(h, e)
print("min weights in {1110, 1100, 1111} + span{1111} =", res.weight, "exact:", res.exact)

# --- a CSS code from its checks ------------------------------------------------
code = css.c422()
print("\n[[4,2,2]]:", code)
print(code.validate())
print("distance:", code.min_distance())

# Logical representatives come out paired: LX_i anticommutes with LZ_j iff i=j.
# A code's check and logical matrices are read-only arrays.
print("LX:")
print(code.lx)
print("LZ:")
print(code.lz)
print("LX LZ^T =", gf2.mul_bits(code.lx, code.lz.T).tolist(), "| hx writeable:", code.hx.flags.writeable)

# Stabilizer-reduced weight: X on three qubits is one stabilizer away from
# a single-qubit error. The X part reduces against the X-type stabilizers.
xxxi = np.array([[1, 1, 1, 0]], np.uint8)
print("reduced weight of XXXI:", gf2.coset_min_weight(code.x_stabilizer_basis(), xxxi).weight[0])

# --- hypergraph products and the toy family -------------------------------------
fam = css.toy_family()
print("\ntoy family levels:")
for r in range(1, fam.depth + 1):
    c = fam.level(r)
    print(f"  r={r}: {c.name:12s} n={c.n:3d} m={c.m:2d} d={c.min_distance()}")
report = fam.validate()
print("family checks passed:", report.passed)

# Rate adjustment: freeze logical qubits down to the nearest power of two.
base3 = css.build_hgp(np.array([[1, 1, 0], [0, 1, 1]], np.uint8), np.ones((1, 4), np.uint8))
print("\nbase code m =", base3.m, "-> frozen to m =", css.freeze_logicals(base3, 2).m)

# Encoded states are signed stabilizer tableaus, built by one encoder from a
# logical tableau: here |10>, on one [[4,2,2]] block. Checks read 0 and
# logical Z operators read the encoded bits.
logical = Tableau.zero_state([0, 1])
logical.apply_pauli_on([0], [1], [0])
tab = css.encoded_tableau((fam.level(2),), logical, range(4))
lz0 = fam.level(2).lz[0]
print("logical Z_0 readout of |10_L>:", tab.expectation_z(np.zeros(4, np.uint8), lz0))
