import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decint import gf2
from decint.gf2 import BitMatrix


def brute_kernel(m: BitMatrix) -> list[np.ndarray]:
    """Oracle: enumerate all 2^ncols vectors and keep the kernel."""
    out = []
    for bits in itertools.product([0, 1], repeat=m.ncols):
        v = np.array(bits, dtype=np.uint8)
        if not gf2.mul_bits(m.to_dense(), v).any():
            out.append(v)
    return out


def brute_coset_min(basis: BitMatrix, e: np.ndarray) -> np.ndarray:
    """Oracle: min weight of each row of e over all 2^k combinations of the
    basis rows, built as dense rows by a float32 matmul, 2^15 at a time."""
    dense = basis.to_dense().astype(np.float32)
    k = basis.nrows
    best = None
    for lo in range(0, 1 << k, 1 << 15):
        idx = np.arange(lo, min(lo + (1 << 15), 1 << k))
        combos = ((idx[:, None] >> np.arange(k)) & 1).astype(np.float32)
        elements = (combos @ dense).astype(np.uint8) & 1
        w = np.count_nonzero(e[:, None, :] != elements, axis=2).min(axis=1)
        best = w if best is None else np.minimum(best, w)
    return best


def random_matrix(rng, nrows, ncols) -> BitMatrix:
    return BitMatrix.from_dense(rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8))


class TestRank:
    def test_zero_matrix(self):
        assert gf2.rank(BitMatrix.zeros(3, 3)) == 0

    def test_identity(self):
        assert gf2.rank(BitMatrix.identity(3)) == 3

    def test_single_row(self):
        assert gf2.rank(BitMatrix.from_rows(["1111"])) == 1

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rank_transpose(self, nrows, ncols, seed):
        m = random_matrix(np.random.default_rng(seed), nrows, ncols)
        assert gf2.rank(m) == gf2.rank(m.transpose())


class TestNullspace:
    def test_identity_empty(self):
        assert gf2.nullspace_basis(BitMatrix.identity(2)).nrows == 0

    def test_zero_full(self):
        assert gf2.nullspace_basis(BitMatrix.zeros(1, 3)).nrows == 3

    def test_single_check_even_weight(self):
        # Oracle: all 16 vectors, keep kernel, check span and independence.
        h = BitMatrix.from_rows(["1111"])
        basis = gf2.nullspace_basis(h)
        assert basis.nrows == 3
        assert gf2.rank(basis) == 3
        kernel = {v.tobytes() for v in brute_kernel(h)}
        assert len(kernel) == 8
        for row in basis.to_dense():
            assert row.tobytes() in kernel

    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_properties(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rng.integers(1, 10), rng.integers(1, 12))
        basis = gf2.nullspace_basis(m)
        assert basis.nrows == m.ncols - gf2.rank(m)
        if basis.nrows:
            assert (m @ basis.transpose()).is_zero()
        assert gf2.rank(basis) == basis.nrows


class TestSolve:
    def test_identity(self):
        b = np.array([1, 0, 1], np.uint8)
        x = gf2.solve(BitMatrix.identity(3), b)
        assert x.dtype == np.uint8 and np.array_equal(x, b)

    def test_zero_inconsistent(self):
        assert gf2.solve(BitMatrix.zeros(2, 3), np.array([1, 0], np.uint8)) is None

    def test_parity_check(self):
        m = BitMatrix.from_rows(["1111"])
        x = gf2.solve(m, np.array([1], np.uint8))
        assert x is not None
        assert x.sum() % 2 == 1
        assert np.array_equal(gf2.mul_bits(m.to_dense(), x), [1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.solve(BitMatrix.identity(3), np.array([1, 0], np.uint8))

    @pytest.mark.parametrize("seed", range(10))
    def test_solution_verifies(self, seed):
        rng = np.random.default_rng(seed + 100)
        m = random_matrix(rng, rng.integers(1, 9), rng.integers(1, 9))
        b = rng.integers(0, 2, size=m.nrows, dtype=np.uint8)
        x = gf2.solve(m, b)
        if x is not None:
            assert np.array_equal(gf2.mul_bits(m.to_dense(), x), b)
        else:
            # Oracle: inconsistency confirmed by exhaustion.
            assert all(
                not np.array_equal(gf2.mul_bits(m.to_dense(), v), b)
                for v in brute_kernel(BitMatrix.zeros(0, m.ncols))
            )


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        while True:
            m = random_matrix(rng, 6, 6)
            if gf2.rank(m) == 6:
                break
        assert (m @ gf2.inverse(m)) == BitMatrix.identity(6)


class TestCosetMinWeight:
    # Batched calls: every row of `e` is one trial.
    def test_zero_vector(self):
        e = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], np.uint8)
        res = gf2.coset_min_weight(BitMatrix.from_rows(["1111"]), e)
        assert res.weight.tolist() == [0, 0] and res.exact

    def test_weight_one_coset(self):
        # Coset {1110, 0001}: min weight 1.
        e = np.array([[1, 1, 1, 0], [0, 0, 0, 1]], np.uint8)
        res = gf2.coset_min_weight(BitMatrix.from_rows(["1111"]), e)
        assert (res.weight.tolist(), res.exact) == ([1, 1], True)

    def test_weight_two_coset(self):
        # Coset {1100, 0011}: min weight 2.
        e = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], np.uint8)
        res = gf2.coset_min_weight(BitMatrix.from_rows(["1111"]), e)
        assert (res.weight.tolist(), res.exact) == ([2, 2], True)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 9)
        basis = random_matrix(rng, rng.integers(1, 7), 10)
        e = rng.integers(0, 2, size=(50, 10), dtype=np.uint8)
        res = gf2.coset_min_weight(basis, e)
        assert res.exact
        assert np.array_equal(res.weight, brute_coset_min(basis, e))
        assert (res.weight <= e.sum(axis=1)).all()

    def test_truncation_flagged(self):
        # One generator past the limit: only the zero, single and pairwise
        # combinations are tried, so each weight bounds the true minimum
        # from above and pairs of generators still reduce to zero.
        rng = np.random.default_rng(3)
        basis = random_matrix(rng, gf2.MAX_ENUM_ROWS + 1, 24)
        g = basis.to_dense()
        e = rng.integers(0, 2, size=(5, 24), dtype=np.uint8)
        e[1] = g[3] ^ g[17]
        e[2] = g[5] ^ (np.arange(24) < 2)
        res = gf2.coset_min_weight(basis, e)
        assert not res.exact
        brute = brute_coset_min(basis, e)
        assert (res.weight >= brute).all() and (res.weight <= e.sum(axis=1)).all()
        assert res.weight[1] == brute[1] == 0
        assert res.weight[2] <= 2

    def test_sixteen_generators_vs_dense_oracle(self):
        # Full 2^16 coset, cross-checked against a dense-matrix enumeration
        # (an independent implementation route from the packed span blocks).
        rng = np.random.default_rng(16)
        dense = rng.integers(0, 2, size=(16, 24), dtype=np.uint8)
        basis = BitMatrix.from_dense(dense)
        e = rng.integers(0, 2, size=(4, 24), dtype=np.uint8)
        combos = ((np.arange(1 << 16, dtype=np.uint32)[:, None] >> np.arange(16)) & 1).astype(
            np.uint8
        )
        elements = (combos @ dense) % 2
        oracle = ((elements[None] ^ e[:, None]) != 0).sum(axis=2).min(axis=1)
        res = gf2.coset_min_weight(basis, e)
        assert res.exact and np.array_equal(res.weight, oracle)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gf2.coset_min_weight(BitMatrix.from_rows(["1111"]), np.zeros((2, 3), np.uint8))


class TestMulBits:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_int64_reference(self, seed):
        rng = np.random.default_rng(seed)
        t, k, m = (int(v) for v in rng.integers(1, 70, size=3))
        a = rng.integers(0, 2, (t, k), dtype=np.uint8)
        b = rng.integers(0, 2, (k, m), dtype=np.uint8)
        got = gf2.mul_bits(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, (a.astype(np.int64) @ b) % 2)
        # Transposed (non-contiguous) operands, as the check matrices are passed.
        assert np.array_equal(gf2.mul_bits(a, b.T.copy().T), got)

    @pytest.mark.parametrize("shape", [(3, 5, 4), (6, 70, 2), (0, 4, 3), (2, 0, 3)])
    def test_bitmatrix_product(self, shape):
        rng = np.random.default_rng(sum(shape))
        r, k, c = shape
        a = rng.integers(0, 2, (r, k), dtype=np.uint8)
        b = rng.integers(0, 2, (k, c), dtype=np.uint8)
        got = BitMatrix.from_dense(a) @ BitMatrix.from_dense(b)
        assert got == BitMatrix.from_dense((a.astype(np.int64) @ b) % 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            BitMatrix.from_dense(a) @ BitMatrix.zeros(k + 1, c)

    def test_mul_count_with_weights(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, (40, 14), dtype=np.uint8)
        pow2 = 1 << np.arange(14)
        assert np.array_equal(gf2.mul_count(a, pow2), a.astype(np.int64) @ pow2)

    def test_empty_check_matrices(self):
        a = np.ones((5, 3), np.uint8)
        assert gf2.mul_bits(a, np.zeros((3, 0), np.uint8)).shape == (5, 0)
        out = gf2.mul_bits(np.zeros((5, 0), np.uint8), np.zeros((0, 4), np.uint8))
        assert out.shape == (5, 4) and not out.any()
        assert np.array_equal(gf2.mul_count(np.zeros((2, 0), np.uint8), 1 << np.arange(0)), [0, 0])

    def test_bool_input(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, (30, 9)).astype(bool)
        b = rng.integers(0, 2, (9, 6)).astype(bool)
        assert np.array_equal(gf2.mul_bits(a, b), (a.astype(np.int64) @ b) % 2)

    def test_inner_dimension_guard(self):
        # Zero-size operands: the guard fires before any allocation.
        inner = gf2.FLOAT32_EXACT
        with pytest.raises(ValueError):
            gf2.mul_bits(np.zeros((0, inner), np.uint8), np.zeros((inner, 0), np.uint8))
        gf2.mul_bits(np.zeros((0, inner - 1), np.uint8), np.zeros((inner - 1, 0), np.uint8))
        with pytest.raises(ValueError):
            gf2.mul_count(np.ones((1, 3), np.uint8), np.array([1 << 23, 0, 0]))


class TestPack:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_roundtrip_and_bit_order(self, n):
        rng = np.random.default_rng(n)
        dense = rng.integers(0, 2, (7, n), dtype=np.uint8)
        words = gf2._pack(dense, n)
        assert words.shape == (7, gf2._nwords(n)) and words.dtype == np.uint64
        assert np.array_equal(gf2._unpack(words, n), dense)
        for row, packed in zip(dense, words):  # bit j of the row is bit j of the words
            assert sum(int(w) << (64 * k) for k, w in enumerate(packed)) == sum(
                int(b) << j for j, b in enumerate(row)
            )


class TestSerialization:
    def test_roundtrip(self):
        m = BitMatrix.from_rows(["101", "011"])
        text = gf2.matrix_to_text(m)
        assert text.splitlines()[0] == "2 3"
        assert gf2.matrix_from_text(text) == m

    def test_malformed(self):
        with pytest.raises(ValueError):
            gf2.matrix_from_text("2 3\n101\n")


class TestImmutability:
    def test_words_not_writeable(self):
        m = BitMatrix.identity(3)
        with pytest.raises(ValueError):
            m.words[0, 0] = 0
