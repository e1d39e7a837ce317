"""Signed stabilizer tableaus.

A pure n-qubit stabilizer state is stored as n independent, pairwise
commuting Pauli generators with +/-1 signs. Generators are kept in the
Hermitian convention: each qubit contributes I, X, Y (= iXZ) or Z, and the
stored sign bit s means the generator equals (-1)^s times that product.
Used as the exact oracle backend; the Pauli-frame engine handles bulk
Monte Carlo.

Destabilizer i anticommutes with generator i alone and commutes with every
destabilizer (Aaronson-Gottesman, arXiv:quant-ph/0406196); +/-P in the group
is the product of the generators whose destabilizers anticommute with P, so
a deterministic outcome needs no solve. Bit 2i of the Python-int bitsets
`_x[c]`, `_z[c]` holds generator i on wire c and bit 2i + 1 destabilizer i
(its sign is not kept), as in Stim's packed tableau (Gidney, arXiv:2103.02202).

The x/z part of a tableau never depends on its signs: gates and
measurements change it the same way whatever the signs hold, while Paulis,
corrections and outcomes only flip signs. So one tableau holds a batch of
exact states: `signs` is (n,) for one state or (trials, n) for trials that
share the x/z part, and every method broadcasts over the leading axis.
Whether a Z measurement is random depends on the x/z part alone, so a
random outcome is one rng draw shared by the whole batch: the draw that
each trial, run alone from an rng seeded alike, would take.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from . import gf2


def _even(n: int) -> int:
    """The generator bits of n rows: bits 0, 2, ..., 2n - 2."""
    return (1 << 2 * n) // 3


def _bits(values: Sequence[int], n: int, part: int = 0) -> np.ndarray:
    """Read-only (len(values), n) uint8 array: entry [k, i] is bit 2i + part of values[k]."""
    nb = (2 * n + 7) // 8
    data = np.frombuffer(b"".join([v.to_bytes(nb, "little") for v in values]), np.uint8)
    bits = np.unpackbits(data.reshape(len(values), nb), axis=1, count=2 * n, bitorder="little")[:, part::2]
    bits.flags.writeable = False
    return bits


class Tableau:
    """Mutable signed stabilizer tableau over labelled wires, or a sign batch (see the module docstring)."""

    def __init__(self, labels: list, x: list[int], z: list[int], signs: np.ndarray):
        """A state from its column bitsets and signs, taken as they are; states
        come from `zero_state`, gates, `extend` and measurement."""
        self.labels, self._x, self._z, self.signs = labels, x, z, signs

    # -- construction --------------------------------------------------------

    @classmethod
    def zero_state(cls, labels: Sequence[Hashable]) -> "Tableau":
        """Generator c is Z_c and destabilizer c is X_c."""
        x, z = ([b << 2 * c for c in range(len(labels))] for b in (2, 1))
        return cls(list(labels), x, z, np.zeros(len(labels), np.uint8))

    def copy(self) -> "Tableau":
        return Tableau(list(self.labels), list(self._x), list(self._z), self.signs.copy())

    def extend(self, other: "Tableau"):
        """Tensor `other` onto this state in place, its wires last; one state broadcasts onto a batch."""
        if self.signs.ndim == other.signs.ndim == 2 and len(self.signs) != len(other.signs):
            raise ValueError(f"batches of {len(self.signs)} and {len(other.signs)} trials")
        lead = self.signs.shape[:-1] or other.signs.shape[:-1]
        self.signs = np.hstack([np.broadcast_to(s, lead + s.shape[-1:]) for s in (self.signs, other.signs)])
        self._x += [v << 2 * self.n for v in other._x]
        self._z += [v << 2 * self.n for v in other._z]
        self.labels += other.labels

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def trials(self) -> int:
        return len(self.signs) if self.signs.ndim == 2 else 1

    @property
    def xs(self) -> np.ndarray:
        """Generator X bits, read-only (n, n): row i is generator i."""
        return _bits(self._x, self.n).T

    @property
    def zs(self) -> np.ndarray:
        return _bits(self._z, self.n).T

    def _rowsum(self, rows: int, p: int) -> int:
        """Multiply the rows at the row bits `rows` by generator p; return the
        generators' sign flips beyond p's sign, as generator bits.

        Where p is X, Y or Z, a row's product with it is i^e times a Hermitian
        Pauli: e = +1 where the row holds the Pauli before p's in the cycle X,
        Y, Z and -1 where it holds the one after. A bit-sliced mod-4 counter
        (lo, hi) sums e per row; for commuting rows lo ends 0 and hi flips."""
        x, z = self._x, self._z
        lo = hi = 0
        for c in range(len(x)):
            px, pz = x[c] >> 2 * p & 1, z[c] >> 2 * p & 1
            if px | pz:
                rx, rz = x[c] & rows, z[c] & rows
                xo, yo, zo = rx & ~rz, rx & rz, rz & ~rx
                up, down = (zo, yo) if not pz else (yo, xo) if not px else (xo, zo)
                hi ^= lo & up
                lo ^= up
                hi ^= ~lo & down
                lo ^= down
                x[c] ^= rows if px else 0
                z[c] ^= rows if pz else 0
        if lo & rows & _even(self.n):
            raise ValueError("rowsum of anticommuting generators")
        return hi & _even(self.n)

    def _sign(self, rows: int, ys: int = 0) -> np.ndarray:
        """Per trial, the sign bit of the row-order product of the generators at
        `rows`, Hermitian with `ys` Y factors: their signs' XOR and half of its
        i-exponent g. With P(x, z) = i^(x.z) X^x Z^z, moving each X^x_j left past
        the Z^z_i with i < j gives P_1 ... P_k = i^g P(x, z) for the XORs x and z
        and g = sum_i x_i.z_i + 2 sum_{i<j} z_i.x_j - x.z, where x.z = ys."""
        nb = (6 * self.n + 7) // 8  # 6n bits a wire: bits start below 2n and the shifts move them < 4n
        rx, rz = (int.from_bytes(b"".join([(v & rows).to_bytes(nb, "little") for v in cols]), "little")
                  for cols in (self._x, self._z))
        below, s = rz << 2, 2  # bit 2j of a wire: the parity of z_i over the rows i < j
        while s < 2 * self.n:
            below ^= below << s
            s <<= 1
        g = (rx & rz).bit_count() + 2 * (rx & below).bit_count() - ys
        return (self.signs & _bits([rows], self.n)[0]).sum(axis=-1, dtype=np.uint8) & 1 ^ g // 2 % 2

    # -- gates ----------------------------------------------------------------

    def apply_layer(self, h: Sequence[Hashable] = (), cnot: Sequence[tuple[Hashable, Hashable]] = ()):
        """Conjugate by H on the wires `h` and CNOT on the (control, target) wire
        pairs `cnot`; the gates touch distinct wires, so they commute."""
        x, z, at = self._x, self._z, self.labels.index
        flips = 0
        for w in h:
            q = at(w)
            flips ^= x[q] & z[q]
            x[q], z[q] = z[q], x[q]
        for a, b in cnot:
            c, t = at(a), at(b)
            flips ^= x[c] & z[t] & ~(x[t] ^ z[c])
            x[t] ^= x[c]
            z[c] ^= z[t]
        self.signs ^= _bits([flips & _even(self.n)], self.n)[0]

    def apply_h(self, label: Hashable):
        self.apply_layer(h=[label])

    def apply_s(self, label: Hashable):
        q = self.labels.index(label)
        self.signs ^= _bits([self._x[q] & self._z[q] & _even(self.n)], self.n)[0]
        self._z[q] ^= self._x[q]

    def apply_cnot(self, control: Hashable, target: Hashable):
        self.apply_layer(cnot=[(control, target)])

    def apply_pauli_on(self, wires: Sequence[Hashable], x_bits, z_bits):
        """Conjugate by X^x Z^z (global phase dropped), bit i of the last axis on
        the wire wires[i]; (trials, len(wires)) bits give each trial its own
        Pauli, so one state becomes a batch."""
        cols = [self.labels.index(w) for w in wires]
        meet = _bits([self._z[c] for c in cols] + [self._x[c] for c in cols], self.n)
        pauli = np.concatenate([np.asarray(x_bits, np.uint8), np.asarray(z_bits, np.uint8)], axis=-1)
        # The flips are the parities of one BLAS count over the whole batch;
        # `mul_bits` would loop in Python over min(trials, n) rows.
        self.signs = self.signs ^ gf2.mul_count(pauli, meet).astype(np.uint8) & 1

    # -- measurement ----------------------------------------------------------

    def measure_z(self, label: Hashable, rng: Optional[np.random.Generator] = None,
                  forced: Optional[int] = None) -> tuple[int | np.ndarray, bool]:
        """Measure Z on a wire, collapse, and remove the wire.

        Returns (outcome, deterministic); the outcome is an int for one
        state and a (trials,) array for a batch. Random outcomes draw once
        from `rng` for the whole batch unless `forced` pins them (used to
        realize init0 on a dirty wire).

        Update rule: if some generators anticommute with Z_q, the outcome is
        random, p is the first of them and every other row, generator or
        destabilizer, with X on q is multiplied by it. Otherwise +/-Z_q is the
        product of the generators whose destabilizers have X on q, p is the
        first of them, the outcome is the product's sign, and the product's
        other destabilizers are multiplied by destabilizer p. Row p becomes
        (-1)^outcome Z_q, the one row with X on q: a generator with Z on q
        times it only XORs the outcome into its sign. Row p and column q are
        then dropped.
        """
        q = self.labels.index(label)
        x, z, even = self._x, self._z, _even(self.n)
        anti = x[q] & even
        if anti:
            low = anti & -anti
            p, rows = low.bit_length() - 1 >> 1, x[q] ^ low
            half = self._rowsum(rows, p)
            if forced is None and rng is None:
                raise ValueError("random measurement needs an rng")
            outcome = int(forced) if forced is not None else int(rng.integers(0, 2))
            hit, flips = _bits([rows & even, half ^ (z[q] & even if outcome else 0)], self.n)
            signs = self.signs ^ ((self.signs[..., p, None] & hit) ^ flips)
            outcome = np.full(self.signs.shape[:-1], outcome, np.uint8)
        else:
            lam = x[q] >> 1 & even
            low = lam & -lam
            p, others = low.bit_length() - 1 >> 1, (lam ^ low) << 1
            for cols in (x, z):
                cols[:] = [v ^ others if v >> 2 * p + 1 & 1 else v for v in cols]
            outcome = self._sign(lam)
            signs = self.signs ^ (_bits([z[q] & even], self.n)[0] & outcome[..., None])
        self.signs = np.concatenate([signs[..., :p], signs[..., p + 1 :]], axis=-1)
        del x[q], z[q], self.labels[q]
        keep = (1 << 2 * p) - 1
        self._x, self._z = ([v & keep | v >> 2 * p + 2 << 2 * p for v in cols] for cols in (x, z))
        return _per_trial(outcome), not anti

    def reset_zero(self, labels: Sequence[Hashable]):
        """Force wires into |0>: measure present ones with a pinned outcome, then append all as fresh wires."""
        for label in labels:
            if label in self.labels:
                self.measure_z(label, forced=0)
        self.extend(Tableau.zero_state(labels))

    def expectation_z(self, x_bits: np.ndarray, z_bits: np.ndarray) -> Optional[int | np.ndarray]:
        """Outcome bit, per trial, of measuring the Pauli X^x Z^z if deterministic, else None."""
        x_bits, z_bits = np.asarray(x_bits) & 1, np.asarray(z_bits) & 1
        hit = 0  # the rows that the Pauli anticommutes with
        for xc, zc, xb, zb in zip(self._x, self._z, x_bits, z_bits):
            hit ^= (zc if xb else 0) ^ (xc if zb else 0)
        if hit & _even(self.n):
            return None
        return _per_trial(self._sign(hit >> 1 & _even(self.n), int(np.count_nonzero(x_bits & z_bits))))

    # -- comparison ------------------------------------------------------------

    def rename(self, mapping: dict):
        """Relabel wires in place (values must stay unique)."""
        self.labels = [mapping.get(l, l) for l in self.labels]
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("renaming collides")

    def reorder(self, labels: Sequence[Hashable]) -> "Tableau":
        """Return a copy with wire columns permuted to the given label order."""
        if sorted(map(str, labels)) != sorted(map(str, self.labels)):
            raise ValueError("label sets differ")
        perm = [self.labels.index(l) for l in labels]
        x, z = ([cols[k] for k in perm] for cols in (self._x, self._z))
        return Tableau(list(labels), x, z, self.signs.copy())

    def same_state(self, other: "Tableau") -> bool | np.ndarray:
        """Exact state equality (same wires, same stabilizer group and signs), one
        result per trial of either side: `other`'s generators, signed, lie in our group."""
        if set(map(str, self.labels)) != set(map(str, other.labels)):
            return False
        b = other.reorder(self.labels)
        same = np.ones(np.broadcast_shapes(self.signs.shape[:-1], b.signs.shape[:-1]), bool)
        for x, z, sign in zip(b.xs, b.zs, np.moveaxis(b.signs, -1, 0)):
            ours = self.expectation_z(x, z)
            same &= False if ours is None else ours == sign
        return same[()]


def random_stabilizer_state(
    labels: Sequence[Hashable], rng: np.random.Generator, moves: Optional[int] = None
) -> Tableau:
    """Seeded random stabilizer state: a random H/S/CNOT walk from |0...0>."""
    t = Tableau.zero_state(labels)
    n = t.n
    for _ in range(moves if moves is not None else max(8, 4 * n * n)):
        kind = int(rng.integers(0, 3 if n > 1 else 2))
        if kind < 2:
            (t.apply_s if kind else t.apply_h)(labels[int(rng.integers(0, n))])
        else:
            c, tg = rng.choice(n, size=2, replace=False)
            t.apply_cnot(labels[int(c)], labels[int(tg)])
    return t


def _per_trial(bits: np.ndarray) -> int | np.ndarray:
    """One bit per trial: an int for one state, a (trials,) uint8 array for a batch."""
    return int(bits) if np.ndim(bits) == 0 else bits.astype(np.uint8)
