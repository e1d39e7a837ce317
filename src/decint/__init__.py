"""decint: simulation and verification toolkit for fault-tolerant decoding
interfaces of quantum LDPC codes.

Submodules: gf2 (linear algebra on 0/1 arrays), css (codes and families),
noise (stochastic circuit noise and local stochastic channels), tableau and
circuit (exact and frame simulation), interface (EC gadgets and the partial
decoding interface), scheduler (constant-overhead schedules), blocktree
(the failure process on the binary tree), e2e (full-plan execution), cli.
"""

__version__ = "0.1.0"
