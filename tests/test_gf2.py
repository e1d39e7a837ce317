import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decint import gf2


def bits(*rows: str) -> np.ndarray:
    """A 0/1 matrix from '01' row strings."""
    return np.array([[int(ch) for ch in row] for row in rows], np.uint8)


def brute_kernel(m: np.ndarray) -> list[np.ndarray]:
    """Oracle: enumerate all 2^ncols vectors and keep the kernel."""
    out = []
    for v in itertools.product([0, 1], repeat=m.shape[1]):
        v = np.array(v, dtype=np.uint8)
        if not gf2.mul_bits(m, v).any():
            out.append(v)
    return out


def brute_coset_min(basis: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Oracle: min weight of each row of e over all 2^k combinations of the
    basis rows, built as dense rows by a float32 matmul, 2^15 at a time."""
    dense = basis.astype(np.float32)
    k = len(basis)
    best = None
    for lo in range(0, 1 << k, 1 << 15):
        idx = np.arange(lo, min(lo + (1 << 15), 1 << k))
        combos = ((idx[:, None] >> np.arange(k)) & 1).astype(np.float32)
        elements = (combos @ dense).astype(np.uint8) & 1
        w = np.count_nonzero(e[:, None, :] != elements, axis=2).min(axis=1)
        best = w if best is None else np.minimum(best, w)
    return best


def random_matrix(rng, nrows, ncols) -> np.ndarray:
    return rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8)


class TestRank:
    def test_zero_matrix(self):
        assert gf2.rank(np.zeros((3, 3), np.uint8)) == 0

    def test_identity(self):
        assert gf2.rank(np.eye(3, dtype=np.uint8)) == 3

    def test_single_row(self):
        assert gf2.rank(bits("1111")) == 1

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rank_transpose(self, nrows, ncols, seed):
        m = random_matrix(np.random.default_rng(seed), nrows, ncols)
        before = m.copy()
        assert gf2.rank(m) == gf2.rank(m.T)
        assert np.array_equal(m, before)  # elimination works on a copy


class TestNullspace:
    def test_identity_empty(self):
        assert gf2.nullspace_basis(np.eye(2, dtype=np.uint8)).shape == (0, 2)

    def test_zero_full(self):
        assert len(gf2.nullspace_basis(np.zeros((1, 3), np.uint8))) == 3

    def test_single_check_even_weight(self):
        # Oracle: all 16 vectors, keep kernel, check span and independence.
        h = bits("1111")
        basis = gf2.nullspace_basis(h)
        assert len(basis) == 3
        assert gf2.rank(basis) == 3
        kernel = {v.tobytes() for v in brute_kernel(h)}
        assert len(kernel) == 8
        for row in basis:
            assert row.tobytes() in kernel

    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_properties(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rng.integers(1, 10), rng.integers(1, 12))
        basis = gf2.nullspace_basis(m)
        assert len(basis) == m.shape[1] - gf2.rank(m)
        assert not gf2.mul_bits(m, basis.T).any()
        assert gf2.rank(basis) == len(basis)


class TestSolve:
    def test_identity(self):
        b = np.array([1, 0, 1], np.uint8)
        x = gf2.solve(np.eye(3, dtype=np.uint8), b)
        assert x.dtype == np.uint8 and np.array_equal(x, b)

    def test_zero_inconsistent(self):
        assert gf2.solve(np.zeros((2, 3), np.uint8), np.array([1, 0], np.uint8)) is None

    def test_parity_check(self):
        m = bits("1111")
        x = gf2.solve(m, np.array([1], np.uint8))
        assert x is not None
        assert x.sum() % 2 == 1
        assert np.array_equal(gf2.mul_bits(m, x), [1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.solve(np.eye(3, dtype=np.uint8), np.array([1, 0], np.uint8))

    @pytest.mark.parametrize("seed", range(10))
    def test_solution_verifies(self, seed):
        rng = np.random.default_rng(seed + 100)
        m = random_matrix(rng, rng.integers(1, 9), rng.integers(1, 9))
        b = rng.integers(0, 2, size=len(m), dtype=np.uint8)
        x = gf2.solve(m, b)
        if x is not None:
            assert np.array_equal(gf2.mul_bits(m, x), b)
        else:
            # Oracle: inconsistency confirmed by exhaustion.
            assert all(
                not np.array_equal(gf2.mul_bits(m, v), b)
                for v in brute_kernel(np.zeros((0, m.shape[1]), np.uint8))
            )


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        while True:
            m = random_matrix(rng, 6, 6)
            if gf2.rank(m) == 6:
                break
        assert np.array_equal(gf2.mul_bits(m, gf2.inverse(m)), np.eye(6, dtype=np.uint8))


def reference_eliminate(work: np.ndarray, ncols: int) -> list[int]:
    """Reference: the dense numpy elimination, one row swap and one masked
    row XOR per pivot, with the pivot rule of `gf2._eliminate`."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        hits = np.flatnonzero(work[r:, c])
        if not hits.size:
            continue
        if hits[0]:
            work[[r, r + hits[0]]] = work[[r + hits[0], r]]
        sel = work[:, c] != 0
        sel[r] = False
        work[sel] ^= work[r]
        pivots.append(c)
        r += 1
    return pivots


class TestEliminate:
    """`_eliminate` leaves the same array and pivots as the dense reference,
    augmented columns included, so every rref/rank/solve/inverse is unchanged."""

    @staticmethod
    def systems(rng, rows, ncols, extra):
        """A dense, a sparse and a rank-deficient (repeated rows) system."""
        dense = random_matrix(rng, rows, ncols + extra)
        sparse = (rng.random((rows, ncols + extra)) < 0.05).astype(np.uint8)
        low = dense[rng.integers(0, max(1, rows // 3), rows)] if rows else dense
        return [dense, sparse, low]

    def check(self, work, ncols):
        want = work.copy()
        want_pivots = reference_eliminate(want, ncols)
        got = work.copy()
        assert gf2._eliminate(got, ncols) == want_pivots
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "rows, ncols",
        [(0, 0), (0, 5), (5, 0), (1, 1), (63, 63), (64, 64), (65, 65), (130, 130), (200, 63), (40, 64),
         (150, 65), (10, 130), (3, 64), (26, 13), (194, 97)],
    )
    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_matches_the_dense_reference(self, rows, ncols, extra):
        rng = np.random.default_rng(1000 * rows + 10 * ncols + extra)
        for work in self.systems(rng, rows, ncols, extra):
            self.check(work, ncols)

    @pytest.mark.parametrize("n", [1, 13, 63, 64, 65, 97])
    def test_solve_and_inverse_blocks(self, n):
        # The blocks `solve` and `inverse` build: [M | b] and [M | I].
        rng = np.random.default_rng(n)
        m = random_matrix(rng, 2 * n, n)
        for b in (m[:, :1] ^ m[:, -1:], random_matrix(rng, 2 * n, 1)):
            self.check(np.concatenate([m, b], axis=1), n)
        square = random_matrix(rng, n, n)
        self.check(np.concatenate([square, np.eye(n, dtype=np.uint8)], axis=1), n)


class TestCosetMinWeight:
    # Batched calls: every row of `e` is one trial.
    def test_zero_vector(self):
        e = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], np.uint8)
        res = gf2.coset_min_weight(bits("1111"), e)
        assert res.weight.tolist() == [0, 0] and res.exact

    def test_weight_one_coset(self):
        # Coset {1110, 0001}: min weight 1.
        e = np.array([[1, 1, 1, 0], [0, 0, 0, 1]], np.uint8)
        res = gf2.coset_min_weight(bits("1111"), e)
        assert (res.weight.tolist(), res.exact) == ([1, 1], True)

    def test_weight_two_coset(self):
        # Coset {1100, 0011}: min weight 2.
        e = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], np.uint8)
        res = gf2.coset_min_weight(bits("1111"), e)
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
        g = basis
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
        e = rng.integers(0, 2, size=(4, 24), dtype=np.uint8)
        combos = ((np.arange(1 << 16, dtype=np.uint32)[:, None] >> np.arange(16)) & 1).astype(
            np.uint8
        )
        elements = (combos @ dense) % 2
        oracle = ((elements[None] ^ e[:, None]) != 0).sum(axis=2).min(axis=1)
        res = gf2.coset_min_weight(dense, e)
        assert res.exact and np.array_equal(res.weight, oracle)

    def test_many_words_and_weights_past_255(self):
        # Five 64-bit words per trial, summed word by word, and a minimum
        # weight that does not fit in a uint8.
        rng = np.random.default_rng(300)
        basis = (rng.random((3, 300)) < 0.03).astype(np.uint8)
        e = rng.integers(0, 2, size=(20, 300), dtype=np.uint8)
        e[0] = 1
        res = gf2.coset_min_weight(basis, e)
        assert res.exact and np.array_equal(res.weight, brute_coset_min(basis, e))
        assert res.weight[0] > 255

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gf2.coset_min_weight(bits("1111"), np.zeros((2, 3), np.uint8))


class TestMinWeightOutside:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 40)
        n = int(rng.integers(2, 10))
        span = random_matrix(rng, int(rng.integers(0, 6)), n)
        modulus = random_matrix(rng, int(rng.integers(0, 4)), n)

        def least_outside(vectors):
            weights = [int(v.sum()) for v in vectors if not gf2.row_space_contains(modulus, v)]
            return min(weights, default=0)

        combos = np.array(list(itertools.product([0, 1], repeat=len(span))), np.uint8)
        assert gf2.min_weight_outside(span, modulus) == least_outside(gf2.mul_bits(combos, span))
        # Not exhaustive: only the rows themselves, an upper value.
        assert gf2.min_weight_outside(span, modulus, exhaustive=False) == least_outside(span)


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

    @pytest.mark.parametrize("shape", [(20, 8, 10000), (10000, 8, 20), (22, 14, 7)])
    def test_gamma_shapes(self, shape):
        # The teleportation correction (more columns than rows: the row loop),
        # its transpose (the loop over b's columns) and a tableau sign batch
        # (transposed: 7 iterations, not 22).
        t, k, m = shape
        rng = np.random.default_rng(t)
        a = rng.integers(0, 2, (t, k), dtype=np.uint8)
        b = rng.integers(0, 2, (k, m), dtype=np.uint8)
        assert np.array_equal(gf2.mul_bits(a, b), (a.astype(np.int64) @ b) % 2)

    @pytest.mark.parametrize("rows", [1, 5, 30])
    def test_one_dimensional_operands(self, rows):
        # The tableau multiplies a lone 1-D Pauli into its generators.
        rng = np.random.default_rng(rows)
        m = rng.integers(0, 2, (rows, 12), dtype=np.uint8)
        v = rng.integers(0, 2, 12, dtype=np.uint8)
        w = rng.integers(0, 2, rows, dtype=np.uint8)
        ref = m.astype(np.int64)
        assert np.array_equal(gf2.mul_bits(m, v), (ref @ v) % 2)
        assert np.array_equal(gf2.mul_bits(w, m), (w.astype(np.int64) @ ref) % 2)
        assert gf2.mul_bits(m, v).shape == (rows,) and gf2.mul_bits(w, m).shape == (12,)
        assert int(gf2.mul_bits(v, v)) == int(v.astype(np.int64) @ v) % 2

    def test_wire_major_operand(self):
        # FrameBatch frames are (trials, n) views of (n, trials) arrays; the
        # check products take their transposes, or the frames themselves.
        rng = np.random.default_rng(6)
        frames = rng.integers(0, 2, (16, 3000), dtype=np.uint8).T
        h = rng.integers(0, 2, (5, 16), dtype=np.uint8)
        ref = h.astype(np.int64) @ frames.T % 2
        assert np.array_equal(gf2.mul_bits(h, frames.T), ref)
        assert np.array_equal(gf2.mul_bits(frames, h.T), ref.T)

    @pytest.mark.parametrize(
        "a_shape, b_shape", [((3, 1), (5, 4)), ((2, 3), (4, 9)), ((9, 3), (4, 2)), ((3,), (4, 2))]
    )
    def test_inner_dimension_mismatch(self, a_shape, b_shape):
        # Every path raises, as np.matmul does; (3, 1) @ (5, 4) must not broadcast.
        with pytest.raises(ValueError, match="inner dimension mismatch"):
            gf2.mul_bits(np.ones(a_shape, np.uint8), np.ones(b_shape, np.uint8))

    def test_inner_dimension_guard(self):
        # Only the float32 count has a limit; the XOR product has none.
        # Zero-size operands: the guard fires before any allocation.
        inner = gf2.FLOAT32_EXACT
        with pytest.raises(ValueError):
            gf2.mul_count(np.zeros((0, inner), np.uint8), np.zeros((inner, 0), np.uint8))
        gf2.mul_count(np.zeros((0, inner - 1), np.uint8), np.zeros((inner - 1, 0), np.uint8))
        with pytest.raises(ValueError):
            gf2.mul_count(np.ones((1, 3), np.uint8), np.array([1 << 23, 0, 0]))


class TestPack:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_roundtrip_and_bit_order(self, n):
        rng = np.random.default_rng(n)
        dense = rng.integers(0, 2, (7, n), dtype=np.uint8)
        words = gf2._pack(dense)
        assert words.shape == (7, max(1, -(-n // 64))) and words.dtype == np.uint64
        for row, packed in zip(dense, words):  # bit j of the row is bit j of the words
            assert sum(int(w) << (64 * k) for k, w in enumerate(packed)) == sum(
                int(b) << j for j, b in enumerate(row)
            )


class TestSerialization:
    def test_roundtrip(self):
        m = bits("101", "011")
        text = gf2.matrix_to_text(m)
        assert text.splitlines() == ["2 3", "101", "011"]
        back = gf2.matrix_from_text(text)
        assert back.dtype == np.uint8 and np.array_equal(back, m)
        assert gf2.matrix_from_text("0 5\n").shape == (0, 5)

    def test_malformed(self):
        # A missing row, a long row and an entry other than 0/1.
        for text in ["2 3\n101\n", "1 3\n1011\n", "1 3\n102\n"]:
            with pytest.raises(ValueError, match="malformed"):
                gf2.matrix_from_text(text)
