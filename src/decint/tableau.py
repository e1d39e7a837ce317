"""Signed stabilizer tableaus.

A pure n-qubit stabilizer state is stored as n independent, pairwise
commuting Pauli generators with +/-1 signs. Generators are kept in the
Hermitian convention: each qubit contributes I, X, Y (= iXZ) or Z, and the
stored sign bit s means the generator equals (-1)^s times that product.
Used as the exact oracle backend; the Pauli-frame engine handles bulk
Monte Carlo.

`circuit.run_noisy` applies a layer's H and CNOT gates in one `apply_layer`
step. Z measurements use the rowsum rule of Aaronson and Gottesman
(arXiv:quant-ph/0406196) without destabilizers; see `Tableau.measure_z`.
The x/z part of a tableau never depends on its signs: gates and
measurements change it the same way whatever the signs hold, while Paulis,
corrections and outcomes only flip signs. So the generator combination
that gives a Pauli is memoised in `_combination`, keyed by the bytes of
the x/z part, the wire count and the target Pauli, together with the
sign-free half of the product's phase. A sign is then the parity of the
selected generators' signs plus that half.

For the same reason one tableau holds a batch of exact states: `signs` is
(n,) for one state or (trials, n) for trials that share the x/z part, and
every method broadcasts over the leading axis. Whether a Z measurement is
random depends on the x/z part alone, so a random outcome is one rng draw
shared by the whole batch: the draw that each trial, run alone from an rng
seeded alike, would take.
"""

from __future__ import annotations

import functools
from typing import Hashable, Optional, Sequence

import numpy as np

from . import gf2


def _g_exponents(x1, z1, x2, z2):
    """i-exponent (mod 4) of the Hermitian Pauli product (x1, z1) * (x2, z2).

    With P(x, z) = i^(x.z) X^x Z^z, P1 P2 = i^g P(x1^x2, z1^z2) for
    g = x1.z1 + x2.z2 + 2 z1.x2 - (x1^x2).(z1^z2); dot products run over
    the last axis, so rows of stacked Paulis broadcast.
    """

    def dot(a, b):
        return np.sum(a & b, axis=-1, dtype=np.int64)

    return (dot(x1, z1) + dot(x2, z2) + 2 * dot(z1, x2) - dot(x1 ^ x2, z1 ^ z2)) % 4


def pauli_product(
    terms: Sequence[tuple[np.ndarray, np.ndarray, int]], extra_i: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Multiply Hermitian Paulis (x, z, sign) left to right.

    `extra_i` adds a global i^extra_i factor (used when lifting Y = iXZ).
    The result must be Hermitian again; raises otherwise. Moving each X^x_j
    left past the Z^z_i with i < j gives P_1 ... P_k = i^g P(x, z) for the
    XORs x and z and g = sum_i x_i.z_i + 2 sum_{i<j} z_i.x_j - x.z.
    """
    if not terms:
        raise ValueError("empty product")
    x, z = (np.array([t[b] for t in terms], np.uint8) for b in (0, 1))
    xs, zs = np.bitwise_xor.reduce(x, axis=0), np.bitwise_xor.reduce(z, axis=0)
    z_before = np.cumsum(z, axis=0)[:-1]  # row j - 1: sum of z_i over i < j
    g = np.count_nonzero(x & z) + 2 * int((z_before * x[1:]).sum()) - np.count_nonzero(xs & zs)
    phase = 2 * sum(int(t[2]) for t in terms) + extra_i + int(g)
    if phase % 2:
        raise ValueError("non-Hermitian Pauli product")
    return xs, zs, phase // 2 % 2


def symplectic_overlap(x1, z1, x2, z2) -> np.ndarray:
    """1 where the two Paulis anticommute (row-wise)."""
    return ((x1 & z2).sum(axis=-1) + (z1 & x2).sum(axis=-1)) % 2


class Tableau:
    """Mutable signed stabilizer tableau over labelled wires, or a batch of
    them with (trials, n) signs (see the module docstring)."""

    def __init__(
        self,
        labels: Sequence[Hashable],
        xs: np.ndarray,
        zs: np.ndarray,
        signs: np.ndarray,
        check: bool = True,
    ):
        self.labels: list[Hashable] = list(labels)
        self.xs = np.asarray(xs, dtype=np.uint8) & 1
        self.zs = np.asarray(zs, dtype=np.uint8) & 1
        self.signs = np.asarray(signs, dtype=np.uint8) & 1
        n = len(self.labels)
        signs_ok = self.signs.ndim in (1, 2) and self.signs.shape[-1:] == (n,)
        if self.xs.shape != (n, n) or self.zs.shape != (n, n) or not signs_ok:
            raise ValueError(f"tableau shape mismatch: signs must be ({n},) or (trials, {n})")
        if check:
            self.assert_valid()

    # -- construction --------------------------------------------------------

    @classmethod
    def zero_state(cls, labels: Sequence[Hashable]) -> "Tableau":
        n = len(labels)
        return cls(labels, np.zeros((n, n), np.uint8), np.eye(n, dtype=np.uint8), np.zeros(n), check=False)

    def copy(self) -> "Tableau":
        return Tableau(list(self.labels), self.xs.copy(), self.zs.copy(), self.signs.copy(), check=False)

    def tensor(self, other: "Tableau") -> "Tableau":
        """Product state; one state broadcasts onto a batch."""
        if self.signs.ndim == other.signs.ndim == 2 and len(self.signs) != len(other.signs):
            raise ValueError(f"batches of {len(self.signs)} and {len(other.signs)} trials")
        lead = self.signs.shape[:-1] or other.signs.shape[:-1]
        signs = [np.broadcast_to(s, lead + s.shape[-1:]) for s in (self.signs, other.signs)]
        n1, n2 = len(self.labels), len(other.labels)
        xs = np.zeros((n1 + n2, n1 + n2), np.uint8)
        zs = np.zeros_like(xs)
        xs[:n1, :n1] = self.xs
        xs[n1:, n1:] = other.xs
        zs[:n1, :n1] = self.zs
        zs[n1:, n1:] = other.zs
        return Tableau(self.labels + other.labels, xs, zs, np.concatenate(signs, axis=-1), check=False)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def trials(self) -> int:
        return len(self.signs) if self.signs.ndim == 2 else 1

    def index(self, label: Hashable) -> int:
        return self.labels.index(label)

    def assert_valid(self):
        if symplectic_overlap(self.xs[:, None], self.zs[:, None], self.xs, self.zs).any():
            raise ValueError("generators do not commute")
        if gf2.rank(np.concatenate([self.xs, self.zs], axis=1)) != self.n:
            raise ValueError("generators not independent")

    def _rowsum_into(self, rows: np.ndarray, src: int):
        """generators[rows] <- generators[rows] * generators[src]."""
        if rows.size == 0:
            return
        g = _g_exponents(self.xs[rows], self.zs[rows], self.xs[src], self.zs[src])
        if (g % 2).any():
            raise ValueError("rowsum of anticommuting generators")
        self.signs[..., rows] ^= self.signs[..., src, None] ^ (g // 2).astype(np.uint8)
        self.xs[rows] ^= self.xs[src]
        self.zs[rows] ^= self.zs[src]

    # -- gates ----------------------------------------------------------------

    def apply_layer(self, h: Sequence[Hashable] = (), cnot: Sequence[tuple[Hashable, Hashable]] = ()):
        """Conjugate by H on the wires `h` and CNOT on the (control, target) wire
        pairs `cnot`, all in one step: the gates touch distinct wires, so they commute."""
        x, z, at = self.xs, self.zs, self.labels.index
        if len(h):
            q = [at(w) for w in h]
            xq, zq = x[:, q], z[:, q]
            self.signs ^= np.bitwise_xor.reduce(xq & zq, axis=1)
            x[:, q], z[:, q] = zq, xq
        if len(cnot):
            c, t = np.array([(at(a), at(b)) for a, b in cnot]).T
            xc, zc, xt, zt = x[:, c], z[:, c], x[:, t], z[:, t]
            self.signs ^= np.bitwise_xor.reduce(xc & zt & (xt ^ zc ^ 1), axis=1)
            x[:, t], z[:, c] = xt ^ xc, zc ^ zt

    def apply_h(self, label: Hashable):
        self.apply_layer(h=[label])

    def apply_s(self, label: Hashable):
        q = self.index(label)
        self.signs ^= self.xs[:, q] & self.zs[:, q]
        self.zs[:, q] ^= self.xs[:, q]

    def apply_cnot(self, control: Hashable, target: Hashable):
        self.apply_layer(cnot=[(control, target)])

    def apply_pauli(self, x_bits: np.ndarray, z_bits: np.ndarray):
        """Conjugate the state by the Pauli X^x Z^z (global phase dropped).

        (trials, n) bits give each trial its own Pauli: one state becomes a batch.
        """
        pauli = np.concatenate([x_bits, z_bits], axis=-1)
        self.signs = self.signs ^ gf2.mul_bits(pauli, np.concatenate([self.zs, self.xs], axis=1).T)

    def apply_pauli_on(self, wires: Sequence[Hashable], x_bits, z_bits):
        """Conjugate by X^x Z^z where bit i (last axis) acts on the wire wires[i]."""
        cols = [self.index(w) for w in wires]
        xb, zb = np.zeros((2, *np.shape(x_bits)[:-1], self.n), np.uint8)
        xb[..., cols], zb[..., cols] = x_bits, z_bits
        self.apply_pauli(xb, zb)

    # -- measurement ----------------------------------------------------------

    def measure_z(self, label: Hashable, rng: Optional[np.random.Generator] = None,
                  forced: Optional[int] = None) -> tuple[int | np.ndarray, bool]:
        """Measure Z on a wire, collapse, and remove the wire.

        Returns (outcome, deterministic); the outcome is an int for one
        state and a (trials,) array for a batch. Random outcomes draw once
        from `rng` for the whole batch unless `forced` pins them (used to
        realize init0 on a dirty wire).

        Update rule: pick one generator p. If some generators anticommute
        with Z_q, the outcome is random; p is the first of them and the
        others are multiplied by it. Otherwise p is any generator in the
        combination that gives +/-Z_q (memoised, see the module docstring),
        and the outcome is that product's sign; replacing p by the product
        keeps a generating set. Row p becomes (-1)^outcome Z_q. No other row
        has X on q, so multiplying a row that has Z on q by that row only
        XORs the outcome into its sign. Row p and column q are then dropped.
        """
        q = self.index(label)
        anti = np.flatnonzero(self.xs[:, q])
        if anti.size:
            p = int(anti[0])
            self._rowsum_into(anti[1:], p)
            if forced is not None:
                outcome = int(forced)
            elif rng is None:
                raise ValueError("random measurement needs an rng")
            else:
                outcome = int(rng.integers(0, 2))
        else:
            lam, outcome = self._express(np.eye(1, 2 * self.n, self.n + q, np.uint8)[0])
            p = int(lam.argmax())
        outcome = np.full(self.signs.shape[:-1], outcome, np.uint8)
        self.signs ^= self.zs[:, q] & outcome[..., None]
        keep = np.ones((self.n, self.n), bool)  # drop row p and column q
        keep[p] = keep[:, q] = False
        self.xs, self.zs = (a[keep].reshape(self.n - 1, self.n - 1) for a in (self.xs, self.zs))
        self.signs = self.signs[..., np.arange(self.n) != p]
        del self.labels[q]
        return _per_trial(outcome), not anti.size

    def _express(self, target: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
        """(combination, sign) of the generators whose product is +/-target (2n x-then-z bits).

        The combination is a read-only boolean mask over the generators;
        raises when the Pauli is not in the stabilizer group up to sign.
        """
        found = _combination(self.xs.tobytes(), self.zs.tobytes(), self.n, target.tobytes())
        if found is None:
            raise ValueError("Pauli not in stabilizer group")
        lam, half = found
        return lam, _per_trial((self.signs[..., lam].sum(axis=-1) + half) % 2)

    def reset_zero(self, labels: Sequence[Hashable]):
        """Force wires into |0>: measure each present one with a pinned outcome,
        then append them all as fresh |0> wires with one tensor."""
        for label in labels:
            if label in self.labels:
                self.measure_z(label, forced=0)
        grown = self.tensor(Tableau.zero_state(labels))
        self.labels, self.xs, self.zs, self.signs = grown.labels, grown.xs, grown.zs, grown.signs

    def expectation_z(self, x_bits: np.ndarray, z_bits: np.ndarray) -> Optional[int | np.ndarray]:
        """Outcome bit, per trial, of measuring the Pauli X^x Z^z if deterministic, else None."""
        if symplectic_overlap(self.xs, self.zs, x_bits, z_bits).any():
            return None
        # A Pauli commuting with n independent generators lies in their group.
        return self._express((np.concatenate([x_bits, z_bits]) & 1).astype(np.uint8))[1]

    # -- canonical form & comparison -------------------------------------------

    def canonicalize(self):
        """Deterministic canonical generating set.

        RREF over the concatenated (X|Z) bit matrix with phase-tracked row
        sums; RREF of a basis is unique, so equal states canonicalize to
        identical tableaus.
        """
        r = 0
        n = self.n
        for c in range(2 * n):
            col = (self.xs if c < n else self.zs)[:, c % n]  # a view: sees the swap below
            idx = np.flatnonzero(col[r:])
            if idx.size == 0:
                continue
            i = r + int(idx[0])
            for a in (self.xs, self.zs, self.signs.T):  # swap generators r and i
                a[[r, i]] = a[[i, r]]
            hit = np.flatnonzero(col)
            self._rowsum_into(hit[hit != r], r)
            r += 1
            if r == n:
                break

    def rename(self, mapping: dict):
        """Relabel wires in place (values must stay unique)."""
        self.labels = [mapping.get(l, l) for l in self.labels]
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("renaming collides")

    def reorder(self, labels: Sequence[Hashable]) -> "Tableau":
        """Return a copy with wire columns permuted to the given label order."""
        if sorted(map(str, labels)) != sorted(map(str, self.labels)):
            raise ValueError("label sets differ")
        perm = [self.index(l) for l in labels]
        return Tableau(list(labels), self.xs[:, perm], self.zs[:, perm], self.signs.copy(), check=False)

    def same_state(self, other: "Tableau") -> bool | np.ndarray:
        """Exact state equality (same wires, same stabilizer group and signs),
        one result per trial of either side."""
        if set(map(str, self.labels)) != set(map(str, other.labels)):
            return False
        a = self.copy()
        b = other.reorder(self.labels)
        a.canonicalize()
        b.canonicalize()
        same = np.array_equal(a.xs, b.xs) and np.array_equal(a.zs, b.zs)
        return same & (a.signs == b.signs).all(axis=-1)


def random_stabilizer_state(
    labels: Sequence[Hashable], rng: np.random.Generator, moves: Optional[int] = None
) -> Tableau:
    """Seeded random stabilizer state: a random H/S/CNOT walk from |0...0>."""
    t = Tableau.zero_state(labels)
    n = t.n
    moves = moves if moves is not None else max(8, 4 * n * n)
    for _ in range(moves):
        kind = int(rng.integers(0, 3 if n > 1 else 2))
        if kind == 0:
            t.apply_h(labels[int(rng.integers(0, n))])
        elif kind == 1:
            t.apply_s(labels[int(rng.integers(0, n))])
        else:
            c, tg = rng.choice(n, size=2, replace=False)
            t.apply_cnot(labels[int(c)], labels[int(tg)])
    return t


def _per_trial(bits: np.ndarray) -> int | np.ndarray:
    """One bit per trial: an int for one state, a (trials,) uint8 array for a batch."""
    return int(bits) if np.ndim(bits) == 0 else bits.astype(np.uint8)


@functools.lru_cache(maxsize=1024)
def _combination(xs: bytes, zs: bytes, n: int, target: bytes) -> Optional[tuple[np.ndarray, int]]:
    """Memoised solve of prod_{i in lam} g_i = +/-target for an n-wire tableau.

    `xs`/`zs` are the bytes of the (n, n) uint8 x/z parts and `target` the
    bytes of the 2n x-then-z bits. Returns (lam, half): lam is a read-only
    boolean mask over generators, half the product's phase with all signs
    taken as 0, halved. None when no combination exists.
    """
    x = np.frombuffer(xs, np.uint8).reshape(n, n)
    z = np.frombuffer(zs, np.uint8).reshape(n, n)
    sol = gf2.solve(np.concatenate([x, z], axis=1).T, np.frombuffer(target, np.uint8))
    if sol is None:
        return None
    lam = sol.astype(bool)
    lam.flags.writeable = False
    half = pauli_product([(x[i], z[i], 0) for i in np.flatnonzero(lam)])[2] if lam.any() else 0
    return lam, int(half)
