import functools
import itertools

import numpy as np
import pytest

from decint import gf2
from decint.tableau import (
    Tableau, _combination, _g_exponents, pauli_product, random_stabilizer_state,
)


def arr(*bits):
    return np.array(bits, dtype=np.uint8)


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


class TestStates:
    def test_zero_state_measurement(self):
        t = Tableau.zero_state(["a"])
        out, det = t.measure_z("a")
        assert (out, det) == (0, True)
        assert t.n == 0

    def test_x_flips_outcome(self):
        t = Tableau.zero_state(["a"])
        t.apply_x("a")
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
        b.apply_x(0)
        assert not a.same_state(b)

    def test_apply_pauli_anticommutation_signs(self):
        t = Tableau.zero_state([0, 1])
        t.apply_pauli(arr(1, 0), arr(0, 0))  # X on qubit 0
        assert t.measure_z(0) == (1, True)
        assert t.measure_z(1) == (0, True)

    def test_reset_zero_on_entangled_wire(self):
        t = Tableau.zero_state([0, 1])
        t.apply_h(0)
        t.apply_cnot(0, 1)
        t.reset_zero(0)
        out, det = t.measure_z(0)
        assert (out, det) == (0, True)

    def test_tensor(self):
        a = Tableau.zero_state(["a"])
        b = Tableau.zero_state(["b"])
        b.apply_x("b")
        t = a.tensor(b)
        assert t.measure_z("a") == (0, True)
        assert t.measure_z("b") == (1, True)

    def test_invalid_generators_rejected(self):
        # X_0 and Z_0 anticommute.
        with pytest.raises(ValueError):
            Tableau(
                [0, 1],
                np.array([[1, 0], [0, 0]]),
                np.array([[0, 0], [1, 0]]),
                np.array([0, 0]),
            )
        # Dependent generators (Z_0 twice).
        with pytest.raises(ValueError):
            Tableau(
                [0, 1],
                np.zeros((2, 2), dtype=np.uint8),
                np.array([[1, 0], [1, 0]]),
                np.array([0, 0]),
            )


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
    t.apply_pauli(rng.integers(0, 2, n).astype(np.uint8), rng.integers(0, 2, n).astype(np.uint8))
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
            t.assert_valid()
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


class TestCombinationMemo:
    def test_hit_matches_fresh_solve(self):
        t = signed_random_state(5, 11)
        x = t.xs[0] ^ t.xs[2] ^ t.xs[3]
        z = t.zs[0] ^ t.zs[2] ^ t.zs[3]
        first = t._express(x, z)
        before = _combination.cache_info().hits
        lam, sign = t._express(x, z)
        assert _combination.cache_info().hits == before + 1
        assert lam is first[0] and sign == first[1]
        a = gf2.BitMatrix.from_dense(np.concatenate([t.xs, t.zs], axis=1).T)
        fresh = gf2.solve(a, gf2.BitVector.from_bits(np.concatenate([x, z])))
        assert np.array_equal(lam, fresh.to_array().astype(bool))
        sel = np.flatnonzero(lam)
        assert sign == pauli_product([(t.xs[i], t.zs[i], int(t.signs[i])) for i in sel])[2]

    def test_cached_arrays_read_only(self):
        t = signed_random_state(3, 5)
        lam, _ = t._express(t.xs[1], t.zs[1])
        with pytest.raises(ValueError):
            lam[0] = True

    def test_signs_do_not_enter_the_key(self):
        # Flipping signs replays the same x/z state: a hit, with the new sign.
        t = signed_random_state(4, 8)
        u = t.copy()
        u.apply_pauli(arr(1, 0, 1, 1), arr(0, 1, 1, 0))
        x, z = t.xs[1] ^ t.xs[3], t.zs[1] ^ t.zs[3]
        t._express(x, z)
        before = _combination.cache_info().hits
        lam, sign = u._express(x, z)
        assert _combination.cache_info().hits == before + 1
        assert sign == u.expectation_z(x, z)
        ev = np.vdot(state_vector(u), dense_pauli(x, z) @ state_vector(u)).real
        assert sign == (0 if ev > 0 else 1)
