import copy
import functools
import itertools

import numpy as np
import pytest

from decint import gf2, tableau
from decint.tableau import Tableau, random_stabilizer_state


def arr(*bits):
    return np.array(bits, dtype=np.uint8)


def pauli_product(terms, extra_i: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference: multiply Hermitian Paulis (x, z, sign) left to right.

    `extra_i` adds a global i^extra_i factor. The result must be Hermitian
    again; raises otherwise. Moving each X^x_j left past the Z^z_i with
    i < j gives P_1 ... P_k = i^g P(x, z) for the XORs x and z and
    g = sum_i x_i.z_i + 2 sum_{i<j} z_i.x_j - x.z, the rule `Tableau._sign`
    evaluates on its bitsets.
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


def _g_exponents(x1, z1, x2, z2):
    """i-exponent (mod 4) of the Hermitian Pauli product (x1, z1) * (x2, z2): the
    pairwise phase rule of the reference tableau below and of `pauli_product`'s
    reference loop.

    With P(x, z) = i^(x.z) X^x Z^z, P1 P2 = i^g P(x1^x2, z1^z2) for
    g = x1.z1 + x2.z2 + 2 z1.x2 - (x1^x2).(z1^z2); dot products run over
    the last axis, so rows of stacked Paulis broadcast.
    """

    def dot(a, b):
        return np.sum(a & b, axis=-1, dtype=np.int64)

    return (dot(x1, z1) + dot(x2, z2) + 2 * dot(z1, x2) - dot(x1 ^ x2, z1 ^ z2)) % 4


class TestPauliProduct:
    def test_ixz_is_y(self):
        x, z, s = pauli_product([(arr(1), arr(0), 0), (arr(0), arr(1), 0)], extra_i=1)
        assert (x[0], z[0], s) == (1, 1, 0)

    def test_xz_alone_not_hermitian(self):
        with pytest.raises(ValueError):
            pauli_product([(arr(1), arr(0), 0), (arr(0), arr(1), 0)])

    def test_yy_identity(self):
        x, z, s = pauli_product([(arr(1), arr(1), 0), (arr(1), arr(1), 0)])
        assert (x[0], z[0], s) == (0, 0, 0)

    def test_xx_identity_with_signs(self):
        x, z, s = pauli_product([(arr(1), arr(0), 1), (arr(1), arr(0), 0)])
        assert (x[0], z[0], s) == (0, 0, 1)

    def test_zx_with_cube_i(self):
        # i^3 * Z * X = Y
        x, z, s = pauli_product([(arr(0), arr(1), 0), (arr(1), arr(0), 0)], extra_i=3)
        assert (x[0], z[0], s) == (1, 1, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_pairwise_loop(self, seed):
        # Reference: multiply left to right, one _g_exponents phase per factor.
        rng = np.random.default_rng(seed)
        for k in range(1, 8):
            n = int(rng.integers(1, 12))
            terms = [(*rng.integers(0, 2, (2, n), dtype=np.uint8), int(rng.integers(0, 2))) for _ in range(k)]
            x, z, s = terms[0]
            phase, extra_i = 2 * s, int(rng.integers(0, 4))
            for x2, z2, s2 in terms[1:]:
                phase += 2 * s2 + int(_g_exponents(x, z, x2, z2))
                x, z = x ^ x2, z ^ z2
            phase += extra_i
            if phase % 2:
                with pytest.raises(ValueError, match="non-Hermitian"):
                    pauli_product(terms, extra_i)
                continue
            got = pauli_product(terms, extra_i)
            assert np.array_equal(got[0], x) and np.array_equal(got[1], z) and got[2] == phase // 2 % 2
            assert got[0].dtype == got[1].dtype == np.uint8 and type(got[2]) is int


class TestStates:
    def test_zero_state_measurement(self):
        t = Tableau.zero_state(["a"])
        out, det = t.measure_z("a")
        assert (out, det) == (0, True)
        assert t.n == 0

    def test_x_flips_outcome(self):
        t = Tableau.zero_state(["a"])
        t.apply_pauli_on(["a"], [1], [0])
        assert t.measure_z("a") == (1, True)

    def test_bell_pair_correlation(self):
        for seed in range(12):
            t = Tableau.zero_state([0, 1])
            t.apply_h(0)
            t.apply_cnot(0, 1)
            rng = np.random.default_rng(seed)
            o0, det0 = t.measure_z(0, rng)
            o1, det1 = t.measure_z(1, rng)
            assert not det0 and det1
            assert o0 == o1

    def test_plus_state_x_expectation(self):
        t = Tableau.zero_state([0])
        t.apply_h(0)
        assert t.expectation_z(arr(1), arr(0)) == 0
        assert t.expectation_z(arr(0), arr(1)) is None

    def test_s_gate_makes_y_eigenstate(self):
        t = Tableau.zero_state([0])
        t.apply_h(0)
        t.apply_s(0)
        assert t.expectation_z(arr(1), arr(1)) == 0

    def test_h_conjugates_y_to_minus_y(self):
        t = Tableau.zero_state([0])
        t.apply_h(0)
        t.apply_s(0)
        t.apply_h(0)
        assert t.expectation_z(arr(1), arr(1)) == 1

    def test_random_outcome_both_values(self):
        seen = set()
        for seed in range(20):
            t = Tableau.zero_state([0])
            t.apply_h(0)
            out, det = t.measure_z(0, np.random.default_rng(seed))
            assert not det
            seen.add(out)
        assert seen == {0, 1}

    def test_same_state_across_constructions(self):
        a = Tableau.zero_state([0, 1])
        a.apply_h(0)
        a.apply_cnot(0, 1)
        # Same Bell pair from the other side.
        b = Tableau.zero_state([0, 1])
        b.apply_h(1)
        b.apply_cnot(1, 0)
        assert a.same_state(b)

    def test_different_states_detected(self):
        a = Tableau.zero_state([0])
        b = Tableau.zero_state([0])
        b.apply_pauli_on([0], [1], [0])
        assert not a.same_state(b)
        plus = Tableau.zero_state([0])
        plus.apply_h(0)  # a different group, not only a different sign
        assert not a.same_state(plus) and not plus.same_state(a)
        batch = Tableau.zero_state([0])
        batch.apply_pauli_on([0], [[0], [1]], [[0], [0]])
        assert batch.same_state(a).tolist() == [True, False]
        assert batch.same_state(plus).tolist() == [False, False]

    def test_apply_pauli_anticommutation_signs(self):
        t = Tableau.zero_state([0, 1])
        t.apply_pauli_on(t.labels, arr(1, 0), arr(0, 0))  # X on qubit 0
        assert t.measure_z(0) == (1, True)
        assert t.measure_z(1) == (0, True)

    def test_reset_zero_on_entangled_wire(self):
        t = Tableau.zero_state([0, 1])
        t.apply_h(0)
        t.apply_cnot(0, 1)
        t.reset_zero([0])
        out, det = t.measure_z(0)
        assert (out, det) == (0, True)

    def test_tensor(self):
        a = Tableau.zero_state(["a"])
        b = Tableau.zero_state(["b"])
        b.apply_pauli_on(["b"], [1], [0])
        a.extend(b)
        assert a.labels == ["a", "b"]
        assert a.measure_z("a") == (0, True)
        assert a.measure_z("b") == (1, True)


# -- dense state-vector reference ------------------------------------------------------

PAULI = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),  # Y = iXZ
}


def dense_pauli(x, z) -> np.ndarray:
    """Hermitian Pauli on len(x) qubits; wire 0 is the most significant."""
    return functools.reduce(np.kron, [PAULI[int(a), int(b)] for a, b in zip(x, z)], np.eye(1))


def state_vector(t: Tableau) -> np.ndarray:
    """The stabilized state: the rank-one projector prod (I + g)/2 on a basis vector."""
    proj = np.eye(2**t.n, dtype=complex)
    for x, z, s in zip(t.xs, t.zs, t.signs):
        proj = proj @ (np.eye(2**t.n) + (-1) ** int(s) * dense_pauli(x, z)) / 2
    col = proj[:, int(np.argmax(np.abs(proj).sum(axis=0)))]
    return col / np.linalg.norm(col)


def same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and abs(abs(np.vdot(a, b)) - 1) < 1e-9


def project(psi: np.ndarray, n: int, q: int, outcome: int) -> tuple[float, np.ndarray]:
    """Probability of `outcome` on wire q and the normalized state of the other wires."""
    part = psi.reshape([2] * n).take(outcome, axis=q).reshape(-1)
    prob = float(np.vdot(part, part).real)
    return prob, part / np.sqrt(prob) if prob > 1e-12 else part


def signed_random_state(n: int, seed: int) -> Tableau:
    rng = np.random.default_rng(seed)
    t = random_stabilizer_state(list(range(n)), rng)
    t.apply_pauli_on(t.labels, rng.integers(0, 2, n).astype(np.uint8), rng.integers(0, 2, n).astype(np.uint8))
    return t


STATES = [(n, seed) for n in range(1, 6) for seed in range(6)]


class TestDenseReference:
    def test_state_vector_is_stabilized(self):
        t = signed_random_state(4, 0)
        psi = state_vector(t)
        for x, z, s in zip(t.xs, t.zs, t.signs):
            assert np.allclose(dense_pauli(x, z) @ psi, (-1) ** int(s) * psi)

    @pytest.mark.parametrize("n,seed", STATES)
    def test_measure_z_every_wire(self, n, seed):
        base = signed_random_state(n, seed)
        psi = state_vector(base)
        for q in range(n):
            t = base.copy()
            outcome, det = t.measure_z(q, np.random.default_rng(seed + q))
            prob, post = project(psi, n, q, outcome)
            if det:
                assert prob == pytest.approx(1.0)
            else:
                assert prob == pytest.approx(0.5)
            assert t.labels == [w for w in base.labels if w != q]
            assert_paired(t)
            if n > 1:
                assert same_ray(state_vector(t), post)

    @pytest.mark.parametrize("n,seed", STATES)
    def test_forced_outcome_every_wire(self, n, seed):
        base = signed_random_state(n, seed)
        psi = state_vector(base)
        for q in range(n):
            for forced in (0, 1):
                prob, post = project(psi, n, q, forced)
                if prob < 1e-9:
                    continue  # outcome impossible, the measurement is deterministic
                t = base.copy()
                outcome, det = t.measure_z(q, forced=forced)
                assert outcome == forced
                assert det == (prob > 1 - 1e-9)
                if n > 1:
                    assert same_ray(state_vector(t), post)

    def test_random_outcomes_are_fair(self):
        # Bell-type wires give random outcomes; over seeded draws the count of
        # ones stays inside a 4-sigma band around half.
        t0 = signed_random_state(3, 2)
        q = next(q for q in range(3) if t0.xs[:, q].any())
        ones = 0
        draws = 400
        for seed in range(draws):
            outcome, det = t0.copy().measure_z(q, np.random.default_rng(seed))
            assert not det
            ones += outcome
        assert abs(ones - draws / 2) <= 4 * np.sqrt(draws / 4)

    @pytest.mark.parametrize("n,seed", STATES)
    def test_expectation_z_random_words(self, n, seed):
        t = signed_random_state(n, seed)
        psi = state_vector(t)
        rng = np.random.default_rng(1000 + seed)
        words = [(t.xs[i], t.zs[i]) for i in range(n)]
        words += list(rng.integers(0, 2, (12, 2, n)).astype(np.uint8))
        words.append((np.zeros(n, np.uint8), np.zeros(n, np.uint8)))
        for x, z in words:
            ev = float(np.vdot(psi, dense_pauli(x, z) @ psi).real)
            got = t.expectation_z(x, z)
            if abs(ev) < 1e-9:
                assert got is None
            else:
                assert got == (0 if ev > 0 else 1)


class TestPhaseRule:
    def test_all_single_qubit_pairs(self):
        for (x1, z1), (x2, z2) in itertools.product(PAULI, repeat=2):
            g = int(_g_exponents(arr(x1), arr(z1), arr(x2), arr(z2)))
            assert np.allclose(PAULI[x1, z1] @ PAULI[x2, z2], 1j**g * PAULI[x1 ^ x2, z1 ^ z2])

    def test_random_multi_qubit_words(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x1, z1, x2, z2 = rng.integers(0, 2, (4, 4)).astype(np.uint8)
            g = int(_g_exponents(x1, z1, x2, z2))
            want = 1j**g * dense_pauli(x1 ^ x2, z1 ^ z2)
            assert np.allclose(dense_pauli(x1, z1) @ dense_pauli(x2, z2), want)

    def test_rows_broadcast(self):
        rng = np.random.default_rng(4)
        xs, zs = rng.integers(0, 2, (2, 6, 5)).astype(np.uint8)
        x2, z2 = rng.integers(0, 2, (2, 5)).astype(np.uint8)
        rows = _g_exponents(xs, zs, x2, z2)
        assert [int(g) for g in rows] == [int(_g_exponents(a, b, x2, z2)) for a, b in zip(xs, zs)]


def destabilizers(t: Tableau) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) bits of t's destabilizers: bit 2i + 1 of each wire's column bitset."""
    return tableau._bits(t._x, t.n, 1).T, tableau._bits(t._z, t.n, 1).T


def with_destabilizers(labels, xs, zs, signs, dx, dz) -> Tableau:
    """A tableau with the given generator and destabilizer rows, unchecked:
    generator i in bit 2i and destabilizer i in bit 2i + 1 of each wire's column bitset."""
    both = np.zeros((2, len(xs[0]), 2 * len(xs)), np.uint8)
    for part, (g, d) in enumerate(((xs, dx), (zs, dz))):
        both[part, :, 0::2], both[part, :, 1::2] = np.asarray(g).T, np.asarray(d).T
    x, z = ([int.from_bytes(col.tobytes(), "little") for col in np.packbits(b, axis=1, bitorder="little")]
            for b in both)
    return Tableau(list(labels), x, z, np.asarray(signs, np.uint8))


def assert_paired(t: Tableau):
    """Generators commute, and each row anticommutes with its partner alone
    (generator i with destabilizer i), which makes them independent."""
    gx, gz = t.xs, t.zs
    dx, dz = destabilizers(t)
    rows_x, rows_z = np.concatenate([gx, dx]), np.concatenate([gz, dz])
    meet = (gf2.mul_bits(rows_x, rows_z.T) ^ gf2.mul_bits(rows_z, rows_x.T)).astype(bool)
    n = t.n
    if meet[:n, :n].any():
        raise ValueError("generators do not commute")
    if not np.array_equal(meet, np.roll(np.eye(2 * n, dtype=bool), n, axis=1)):
        raise ValueError("destabilizers do not pair with the generators")


# -- the solve-based reference -----------------------------------------------------------


class SolveTableau:
    """The tableau that keeping destabilizers replaced, kept as the reference.

    Generators only, as (n, n) uint8 arrays with (n,) or (trials, n) signs. A
    random Z outcome multiplies the anticommuting generators by the first of
    them with the pairwise phase rule `_g_exponents`; a deterministic one
    solves for the generator combination that gives Z_q (`gf2.solve`) and
    takes its sign-free phase from `pauli_product`.
    """

    def __init__(self, t: Tableau):
        self.labels, self.xs, self.zs, self.signs = list(t.labels), t.xs.copy(), t.zs.copy(), t.signs.copy()

    def _rowsum_into(self, rows: np.ndarray, src: int):
        g = _g_exponents(self.xs[rows], self.zs[rows], self.xs[src], self.zs[src])
        assert not (g % 2).any()
        self.signs[..., rows] ^= self.signs[..., src, None] ^ (g // 2).astype(np.uint8)
        self.xs[rows] ^= self.xs[src]
        self.zs[rows] ^= self.zs[src]

    def apply_h(self, label):
        q = self.labels.index(label)
        self.signs ^= self.xs[:, q] & self.zs[:, q]
        self.xs[:, q], self.zs[:, q] = self.zs[:, q].copy(), self.xs[:, q].copy()

    def apply_s(self, label):
        q = self.labels.index(label)
        self.signs ^= self.xs[:, q] & self.zs[:, q]
        self.zs[:, q] ^= self.xs[:, q]

    def apply_cnot(self, control, target):
        c, g = self.labels.index(control), self.labels.index(target)
        x, z = self.xs, self.zs
        self.signs ^= x[:, c] & z[:, g] & (x[:, g] ^ z[:, c] ^ 1)
        x[:, g] ^= x[:, c]
        z[:, c] ^= z[:, g]

    def apply_pauli_on(self, wires, x_bits, z_bits):
        cols = [self.labels.index(w) for w in wires]
        anti = (np.asarray(x_bits, np.uint8)[..., None, :] & self.zs[:, cols]).sum(-1)
        anti = anti + (np.asarray(z_bits, np.uint8)[..., None, :] & self.xs[:, cols]).sum(-1)
        self.signs = self.signs ^ (anti % 2).astype(np.uint8)

    def measure_z(self, label, rng=None, forced=None):
        n, q = len(self.labels), self.labels.index(label)
        anti = np.flatnonzero(self.xs[:, q])
        if anti.size:
            p = int(anti[0])
            if anti.size > 1:
                self._rowsum_into(anti[1:], p)
            outcome = int(forced) if forced is not None else int(rng.integers(0, 2))
            outcome = np.full(self.signs.shape[:-1], outcome, np.uint8)
        else:
            target = np.eye(1, 2 * n, n + q, np.uint8)[0]
            lam = gf2.solve(np.concatenate([self.xs, self.zs], axis=1).T, target).astype(bool)
            half = pauli_product([(self.xs[i], self.zs[i], 0) for i in np.flatnonzero(lam)])[2]
            outcome = ((self.signs[..., lam].sum(axis=-1) + half) % 2).astype(np.uint8)
            p = int(lam.argmax())
        self.signs ^= self.zs[:, q] & outcome[..., None]
        keep = np.arange(n) != p
        self.xs, self.zs = (np.delete(a[keep], q, axis=1) for a in (self.xs, self.zs))
        self.signs = self.signs[..., keep]
        del self.labels[q]
        return (int(outcome) if outcome.ndim == 0 else outcome), not anti.size

    def expectation_z(self, x_bits, z_bits):
        lam = gf2.solve(np.concatenate([self.xs, self.zs], axis=1).T, np.concatenate([x_bits, z_bits]))
        if lam is None:
            return None
        lam = lam.astype(bool)
        half = pauli_product([(self.xs[i], self.zs[i], 0) for i in np.flatnonzero(lam)])[2] if lam.any() else 0
        return ((self.signs[..., lam].sum(axis=-1) + half) % 2).astype(np.uint8)

    def extend(self, other: Tableau):
        n1, n2 = len(self.labels), other.n
        xs, zs = np.zeros((2, n1 + n2, n1 + n2), np.uint8)
        xs[:n1, :n1], xs[n1:, n1:], zs[:n1, :n1], zs[n1:, n1:] = self.xs, other.xs, self.zs, other.zs
        lead = self.signs.shape[:-1] or other.signs.shape[:-1]
        signs = [np.broadcast_to(s, lead + s.shape[-1:]) for s in (self.signs, other.signs)]
        self.labels, self.xs, self.zs = self.labels + other.labels, xs, zs
        self.signs = np.concatenate(signs, axis=-1)

    def reset_zero(self, labels):
        for label in labels:
            if label in self.labels:
                self.measure_z(label, forced=0)
        self.extend(Tableau.zero_state(labels))


def random_op(rng, t: Tableau, fresh) -> tuple:
    """A random (method, args) for a walk on t: a gate, a Pauli, a random,
    forced or deterministic Z measurement, reset_zero of present and fresh
    wires, or extend by a random state. The wire count stays within 1..8."""
    n, labels = t.n, t.labels
    kinds = ["apply_h", "apply_s", "apply_cnot", "apply_cnot", "apply_pauli_on", "measure", "forced", "reset_zero",
             "extend"]
    if n < 2:
        kinds = ["reset_zero", "extend"]
    elif n > 7:
        kinds = ["measure", "forced"]
    kind = kinds[int(rng.integers(len(kinds)))]
    wire = labels[int(rng.integers(n))] if n else None
    if kind in ("apply_h", "apply_s"):
        return kind, (wire,)
    if kind == "apply_cnot":
        a, b = rng.choice(n, size=2, replace=False)
        return kind, (labels[int(a)], labels[int(b)])
    if kind == "apply_pauli_on":
        a, b = rng.choice(n, size=2, replace=False)
        bits = rng.integers(0, 2, (2, *t.signs.shape[:-1], 2), dtype=np.uint8)
        return kind, ([labels[int(a)], labels[int(b)]], *bits)
    if kind == "measure":
        return "measure_z", (wire, np.random.default_rng(int(rng.integers(1 << 30))), None)
    if kind == "forced":
        return "measure_z", (wire, None, int(rng.integers(2)))
    if kind == "reset_zero":
        return kind, ([wire, next(fresh)] if wire is not None and rng.random() < 0.5 else [wire or next(fresh)],)
    other = random_stabilizer_state([next(fresh), next(fresh)], rng)
    other.apply_pauli_on(other.labels, *rng.integers(0, 2, (2, *t.signs.shape[:-1], 2), dtype=np.uint8))
    return kind, (other,)


def run_op(t, op):
    name, args = op
    if name == "measure_z" and args[1] is not None:  # both sides draw from one seeded state
        args = (args[0], copy.deepcopy(args[1]), None)
    return getattr(t, name)(*args)


class TestSolveReference:
    """The destabilizer tableau leaves the generators, signs and outcomes of the
    solve-based reference, bit for bit, on one state and on sign batches."""

    @pytest.mark.parametrize("trials", [None, 3], ids=["one-state", "sign-batch"])
    def test_random_walks(self, trials):
        seen = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            t = random_stabilizer_state(list(range(4)), rng)
            if trials:
                t.apply_pauli_on(t.labels, *rng.integers(0, 2, (2, trials, 4), dtype=np.uint8))
            ref, fresh = SolveTableau(t), (f"f{i}" for i in itertools.count())
            for step in range(60):
                op = random_op(rng, t, fresh)
                got, want = run_op(t, op), run_op(ref, op)
                if op[0] == "measure_z":
                    assert type(got[0]) is type(want[0]) and np.array_equal(got[0], want[0]), (seed, step)
                    assert got[1] == want[1], (seed, step)
                    seen.add((got[1], op[1][2] is not None))
                assert t.labels == ref.labels, (seed, step)
                for name in ("xs", "zs", "signs"):
                    assert np.array_equal(getattr(t, name), getattr(ref, name)), (seed, step, name)
        # deterministic and random outcomes, each drawn and forced
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("n", [12, 17, 24])
    def test_wide_states(self, n):
        # Signs of long generator products on many wires, then every wire
        # measured in a random order.
        for seed in range(3):
            rng = np.random.default_rng(n * 10 + seed)
            t = random_stabilizer_state(list(range(n)), rng)
            t.apply_pauli_on(t.labels, *rng.integers(0, 2, (2, 3, n), dtype=np.uint8))
            ref = SolveTableau(t)
            for pick in rng.integers(0, 2, (20, n)).astype(bool):
                x, z = (np.bitwise_xor.reduce(a[pick], axis=0) for a in (t.xs, t.zs))
                assert np.array_equal(t.expectation_z(x, z), ref.expectation_z(x, z)), seed
            for wire in rng.permutation(n).tolist():
                op = ("measure_z", (wire, np.random.default_rng(int(rng.integers(1 << 30))), None))
                got, want = run_op(t, op), run_op(ref, op)
                assert got[1] == want[1] and np.array_equal(got[0], want[0]), (seed, wire)
                for name in ("xs", "zs", "signs"):
                    assert np.array_equal(getattr(t, name), getattr(ref, name)), (seed, wire, name)


class TestPairing:
    """Destabilizer i anticommutes with generator i alone, and destabilizers
    commute, after every operation."""

    @pytest.mark.parametrize("trials", [None, 3], ids=["one-state", "sign-batch"])
    def test_random_walks_stay_paired(self, trials):
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            t = random_stabilizer_state(list(range(4)), rng)
            if trials:
                t.apply_pauli_on(t.labels, *rng.integers(0, 2, (2, trials, 4), dtype=np.uint8))
            fresh = (f"f{i}" for i in itertools.count())
            for step in range(60):
                if rng.random() < 0.15:
                    t = t.reorder([t.labels[i] for i in rng.permutation(t.n)])
                else:
                    run_op(t, random_op(rng, t, fresh))
                assert_paired(t)

    def test_unpaired_destabilizers_rejected(self):
        z = np.eye(2, dtype=np.uint8)
        zero = np.zeros((2, 2), np.uint8)
        assert_paired(with_destabilizers([0, 1], zero, z, [0, 0], z, zero))
        for dx, dz in [(zero, z), (z[::-1], zero), (np.ones((2, 2), np.uint8), zero)]:
            with pytest.raises(ValueError, match="pair"):
                assert_paired(with_destabilizers([0, 1], zero, z, [0, 0], dx, dz))


# -- sign batches ----------------------------------------------------------------------

TRIALS = 5


def batch_and_singles(n: int, seed: int) -> tuple[Tableau, list[Tableau]]:
    """A random signed state under TRIALS distinct Paulis: as one batch and one by one."""
    base = signed_random_state(n, seed)
    rng = np.random.default_rng(100 + seed)
    words = set()
    while len(words) < TRIALS:
        words.add(tuple(rng.integers(0, 2, 2 * n)))
    paulis = np.array(sorted(words), np.uint8)
    batch = base.copy()
    batch.apply_pauli_on(batch.labels, paulis[:, :n], paulis[:, n:])
    singles = []
    for p in paulis:
        single = base.copy()
        single.apply_pauli_on(single.labels, p[:n], p[n:])
        singles.append(single)
    return batch, singles


def assert_batch_matches(batch: Tableau, singles: list[Tableau]):
    assert batch.signs.shape == (TRIALS, batch.n) and batch.trials == TRIALS
    for k, single in enumerate(singles):
        assert single.signs.shape == (single.n,)
        assert single.labels == batch.labels
        assert np.array_equal(single.xs, batch.xs) and np.array_equal(single.zs, batch.zs)
        assert all(np.array_equal(*d) for d in zip(destabilizers(single), destabilizers(batch)))
        assert np.array_equal(single.signs, batch.signs[k]), k


def joined_copy(a: Tableau, b: Tableau) -> Tableau:
    joined = a.copy()
    joined.extend(b)
    return joined


def per_trial(outcome) -> list[int]:
    return [int(b) for b in np.broadcast_to(outcome, (TRIALS,))]


class TestSignBatch:
    """A batch of trials evolves exactly as each trial run alone."""

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2)])
    def test_gates_and_paulis(self, n, seed):
        batch, singles = batch_and_singles(n, seed)
        assert_batch_matches(batch, singles)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (2, TRIALS, 2)).astype(np.uint8)
        ops = [("apply_h", (0,)), ("apply_s", (1,)), ("apply_cnot", (0, 2)), ("apply_pauli_on", ([2], [1], [0])),
               ("apply_pauli_on", ([0], [1], [1])), ("apply_pauli_on", ([1], [0], [1])), ("apply_cnot", (2, 1)),
               ("apply_s", (0,))]
        for name, args in ops:
            for t in [batch, *singles]:
                getattr(t, name)(*args)
            assert_batch_matches(batch, singles)
        batch.apply_pauli_on([2, 0], bits[0], bits[1])
        for k, single in enumerate(singles):
            single.apply_pauli_on([2, 0], bits[0, k], bits[1, k])
        assert_batch_matches(batch, singles)
        shared = rng.integers(0, 2, (2, 2)).astype(np.uint8)
        for t in [batch, *singles]:
            t.apply_pauli_on([1, 2], shared[0], shared[1])
        assert_batch_matches(batch, singles)

    @pytest.mark.parametrize("n, seed", [(3, 3), (4, 4), (5, 5)])
    def test_measurements_share_one_draw(self, n, seed):
        # Wire "a" picks up the parity of wires 1 and 2, then per-trial X
        # flips; measuring 0, 1 (forced to 1 if random), 2 and "a" mixes
        # random outcomes, one rng draw each, with deterministic ones that
        # differ from trial to trial.
        batch, singles = batch_and_singles(n, seed)
        flips = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], np.uint8)

        def run(t: Tableau, x: np.ndarray) -> list:
            t.reset_zero(["a"])
            t.apply_cnot(1, "a")
            t.apply_cnot(2, "a")
            t.apply_pauli_on([1, 2, "a"], x, 0 * x)
            plan = [(0, None), (1, 1), (2, None), ("a", None)]
            return [t.measure_z(w, np.random.default_rng(seed + i), forced=f) for i, (w, f) in enumerate(plan)]

        got = run(batch, flips)
        for k, single in enumerate(singles):
            want = run(single, flips[k])
            assert [(per_trial(out)[k], det) for out, det in got] == want, k
        assert_batch_matches(batch, singles)
        assert {det for _, det in got} == {False, True}
        out_a, det_a = got[-1]
        assert det_a and set(per_trial(out_a)) == {0, 1}

    @pytest.mark.parametrize("n, seed", [(3, 6), (4, 7), (5, 8)])
    def test_reset_expectation_tensor_canonical(self, n, seed):
        batch, singles = batch_and_singles(n, seed)
        batch.reset_zero([1])
        for single in singles:
            single.reset_zero([1])
        assert_batch_matches(batch, singles)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            x, z = rng.integers(0, 2, (2, n)).astype(np.uint8)
            got = batch.expectation_z(x, z)
            want = [single.expectation_z(x, z) for single in singles]
            assert (got is None) == (want[0] is None)
            if got is not None:
                assert per_trial(got) == want
        other = signed_random_state(2, seed)
        other.rename({0: "b0", 1: "b1"})
        for joined in (lambda t: joined_copy(t, other), lambda t: joined_copy(other, t)):
            assert_batch_matches(joined(batch), [joined(single) for single in singles])
        for k, single in enumerate(singles):
            want = [other_single.same_state(single) for other_single in singles]
            assert list(batch.same_state(single)) == want and want[k]
            assert list(single.same_state(batch)) == want

    def test_distinct_paulis_give_distinct_states(self):
        batch, singles = batch_and_singles(4, 9)
        assert not batch.same_state(singles[0]).all()


class TestBatchShapes:
    def test_tensor_of_unequal_batches(self):
        a, b = Tableau.zero_state(["a"]), Tableau.zero_state(["b"])
        a.apply_pauli_on(a.labels, np.zeros((2, 1), np.uint8), np.zeros((2, 1), np.uint8))
        b.apply_pauli_on(b.labels, np.zeros((3, 1), np.uint8), np.zeros((3, 1), np.uint8))
        with pytest.raises(ValueError, match="batches of 2 and 3"):
            a.extend(b)
        assert a.signs.shape == (2, 1)
        a.extend(Tableau.zero_state(["c"]))
        assert a.signs.shape == (2, 2)
