"""Stochastic circuit-level noise: keyed random streams, the Bernoulli draw,
the local stochastic (LS) sampler, composition, and the low-weight tail bound.

Randomness is counter-based: every draw comes from a Philox stream keyed by
(master seed, purpose, indices), so samplers are pure functions of their key
and trivially parallel across trials and workers. The circuit-noise stream
is keyed per fragment run, (seed, STREAM_CIRCUIT, *owner key, run index,
chunk), with the run index counted by the frame engine: one generator
serves every location of the fragment. Bernoulli draws are sparse, by geometric
gaps (`bernoulli_positions`), so a sampler costs O(delta) per location-trial.
`sample_ls_hits` is the one LS sampler: a batch of trials as the flat
positions of its X and Z parts, which the frame engine XORs straight into
its frames; `sample_ls_bits` spreads the same draw into dense x, z bits.

The arbitrary replacement channel at each location is instantiated as its
Pauli-twirled member, the simulable instance; reports record this as
`pauli_twirl: true`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Stream purposes (mixed into Philox keys). Purposes 1 and 2 are retired;
# renumbering the others would change every stream.
STREAM_CIRCUIT = 3
STREAM_ORACLE = 4
STREAM_TRIAL = 5
STREAM_TREE = 6
STREAM_TABLEAU = 7

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9


def rng_stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent, reproducible generator keyed by (seed, ids...)."""
    mix = 0
    for i, v in enumerate(ids):
        mix = (mix + (int(v) + 1) * ((_MIX1 if i % 2 == 0 else _MIX2) ** (i + 1))) % (1 << 64)
    key = np.array([int(seed) % (1 << 64), mix], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _NoiseFields(NamedTuple):
    delta: float
    seed: int


class NoiseParams(_NoiseFields):
    """Circuit-level noise configuration."""

    __slots__ = ()

    def __new__(cls, delta: float, seed: int):
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        return super().__new__(cls, delta, seed)


def bernoulli_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Sorted positions in range(total) of i.i.d. Bernoulli(p) successes.

    Gaps between successes are geometric, so the cost is O(total * p) draws,
    not O(total); the result has exact i.i.d. Bernoulli(p) semantics. Below p = 1/3
    the gaps equal numpy's `geometric`, ceil(E / -log1p(-p)) for E ~ Exp(1), in one array op.
    """
    if p <= 0.0:  # geometric(0) raises; p = 1 needs no branch, its gaps are all 1
        return np.empty(0, dtype=np.int64)
    size = int(total * p + 5.0 * math.sqrt(total * p)) + 8
    gaps = rng.standard_exponential(size) if p < 1 / 3 else rng.geometric(p, size)
    if p < 1 / 3:  # numpy's geometric, in place: a fragment run's gaps are its largest array
        np.ceil(np.divide(gaps, -math.log1p(-p), out=gaps), out=gaps)
    # Clipped, so tiny p cannot overflow int64. One cast summed in place holds one
    # int64 array; cumsum(float64, dtype=int64) holds a cast copy besides its output.
    pos = np.minimum(gaps, total + 1, out=gaps).astype(np.int64, copy=False)
    np.cumsum(pos, out=pos)
    pos -= 1
    if pos[-1] < total:  # the batch fell short (rare): the rest starts fresh after pos[-1]
        rest = bernoulli_positions(rng, total - 1 - int(pos[-1]), p)
        return np.concatenate([pos, pos[-1] + 1 + rest])
    return pos[: np.searchsorted(pos, total)]


def sample_ls_hits(
    qubits: int, delta: float, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched i.i.d. local stochastic samples as sparse hits.

    Every (trial, qubit) is in the support with probability delta and carries
    a uniform nontrivial Pauli there. Returns the sorted flat positions
    trial * qubits + qubit of the support and the uint8 x and z bits of the
    Pauli at each. The caller keys `rng`.
    """
    hits = bernoulli_positions(rng, trials * qubits, delta)
    kinds = rng.integers(0, 3, size=hits.size, dtype=np.uint8)  # 0 = X, 1 = Z, 2 = Y
    return hits, (kinds != 1).view(np.uint8), (kinds != 0).view(np.uint8)


def sample_ls_bits(
    qubits: int, delta: float, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """`sample_ls_hits` as dense (trials, qubits) x, z bits."""
    x = np.zeros((trials, qubits), dtype=np.uint8)
    z = np.zeros_like(x)
    hits, x_bits, z_bits = sample_ls_hits(qubits, delta, rng, trials)
    x.flat[hits] = x_bits
    z.flat[hits] = z_bits
    return x, z


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class TailBound(NamedTuple):
    value: float
    threshold_ok: bool  # delta < 2^{-h2(mu)/mu}


def tail_bound(mu: float, delta: float, n: int, h: int) -> TailBound:
    """Analytic overflow bound h * (2^{h2(mu)/mu} * delta)^{mu * n}.

    `threshold_ok` reports whether delta is below the decay threshold; the
    bound value is returned either way (it may exceed 1).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    base = 2.0 ** (binary_entropy(mu) / mu) * delta
    return TailBound(value=h * base ** (mu * n), threshold_ok=base < 1.0)


def binomial_tail_exact(n: int, delta: Fraction, t: int) -> Fraction:
    """Pr(Bin(n, delta) >= t) in exact rational arithmetic."""
    from fractions import Fraction  # imported here: it pulls in decimal, and only tail checks need it

    delta = Fraction(delta)
    total = Fraction(0)
    for k in range(t, n + 1):
        total += math.comb(n, k) * delta**k * (1 - delta) ** (n - k)
    return total


def tail_bound_dominates(
    mu: Fraction, delta: Fraction, n: int, h: int
) -> tuple[bool, Fraction, float]:
    """Certify exact binomial tail <= analytic bound for integer mu*n.

    The tail is an exact Fraction; the bound is evaluated at 60 digits and
    shrunk by a 1e-40 relative margin so a True verdict is a genuine
    certificate (the bound itself is irrational).
    """
    from fractions import Fraction

    mu = Fraction(mu)
    delta = Fraction(delta)
    t = mu * n
    if t.denominator != 1:
        raise ValueError("mu * n must be an integer on the verification grid")
    tail = binomial_tail_exact(n, delta, int(t))
    import mpmath  # imported here: no CLI command needs it, and it slows every start

    with mpmath.workdps(60):
        mmu = mpmath.mpf(mu.numerator) / mu.denominator
        mdelta = mpmath.mpf(delta.numerator) / delta.denominator
        h2 = -mmu * mpmath.log(mmu, 2) - (1 - mmu) * mpmath.log(1 - mmu, 2)
        bound = h * (mpmath.power(2, h2 / mmu) * mdelta) ** (mmu * n)
        bound_lo = bound * (1 - mpmath.mpf("1e-40"))
        ok = mpmath.mpf(tail.numerator) / tail.denominator <= bound_lo
        return bool(ok), tail, float(bound)
