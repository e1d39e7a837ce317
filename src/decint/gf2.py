"""Dense GF(2) linear algebra: 0/1 arrays and one bit-packed matrix type.

A GF(2) vector is a 1-D 0/1 uint8 array. `BitMatrix` packs its rows into
64-bit words so that row XOR and popcount (the hot operations in elimination
and coset searches) are single numpy ops. Every GF(2) matrix product goes
through `mul_bits`, one float32 BLAS matmul. `coset_min_weight` is the one
coset search: the stabilizer-reduced weight of every trial of a batch, exact
up to MAX_ENUM_ROWS generators. A `BitMatrix` is immutable after
construction; every operation returns a new value, so concurrent use from
multiple workers is safe.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

WORD = 64

# Exhaustive coset enumeration is allowed up to this many generators; beyond
# it coset_min_weight reports an upper bound flagged inexact.
MAX_ENUM_ROWS = 20


def _nwords(ncols: int) -> int:
    return max(1, (ncols + WORD - 1) // WORD)


def _pack(dense: np.ndarray, ncols: int) -> np.ndarray:
    """Pack a (rows, ncols) 0/1 array into little-endian uint64 words."""
    dense = np.asarray(dense, dtype=np.uint8)
    rows = dense.size // ncols if ncols else len(dense)
    # Zero-pad every row to whole words, then pack the flat buffer in one pass.
    words = _nwords(ncols)
    padded = np.zeros((rows, words * WORD), dtype=np.uint8)
    padded[:, :ncols] = dense.reshape(rows, ncols)
    return np.packbits(padded, axis=None, bitorder="little").view(np.uint64).reshape(rows, words)


def _unpack(words: np.ndarray, ncols: int) -> np.ndarray:
    if ncols == 0:
        return np.zeros((words.shape[0], 0), dtype=np.uint8)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    return bits[:, :ncols]


# float32 holds every integer below 2^24 exactly, so a float32 product of 0/1
# rows with small nonnegative integers counts exactly while every partial sum
# stays below this.
FLOAT32_EXACT = 1 << 24


def mul_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product a @ b of a 0/1 array and a nonnegative integer array.

    One BLAS float32 matmul over a trial batch. Raises when a partial sum
    could reach 2^24 (inner dimension times the largest entry of b), where
    float32 stops counting exactly.
    """
    b = np.asarray(b)
    top = max(int(b.max()), 1) if b.size else 1
    if np.shape(a)[-1] * top >= FLOAT32_EXACT:
        raise ValueError(f"product over {np.shape(a)[-1]} terms is not exact in float32")
    # Casting first keeps matrix-vector products on BLAS; matmul(..., dtype=)
    # casts through a slower generic loop.
    return np.matmul(np.asarray(a, np.float32), b.astype(np.float32)).astype(np.int32)


def mul_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product of 0/1 arrays: the parities a @ b mod 2 as uint8."""
    # The cast to uint8 keeps each count modulo 256, and so its parity.
    out = mul_count(a, b).astype(np.uint8)
    out &= 1
    return out


# Rows per block of `span_blocks`.
SPAN_BLOCK_BITS = 12


def span_blocks(rows: np.ndarray):
    """Every XOR combination of `rows`, in blocks of at most 2^SPAN_BLOCK_BITS.

    `rows` is (k, width), packed words or 0/1 bytes. Element i of the
    concatenated blocks is the XOR of the rows at the set bits of i, so the
    2^k elements come in binary order and the zero combination first.
    """
    k = len(rows)
    b = min(k, SPAN_BLOCK_BITS)
    low = np.zeros((1 << b, rows.shape[1]), rows.dtype)
    for j in range(b):
        low[1 << j : 2 << j] = low[: 1 << j] ^ rows[j]
    yield low
    # Block h adds the high rows at the set bits of h; from h - 1 to h
    # exactly the high rows up to the lowest set bit of h change.
    prefix = np.bitwise_xor.accumulate(rows[b:], axis=0)
    high = np.zeros(rows.shape[1], rows.dtype)
    for h in range(1, 1 << (k - b)):
        high ^= prefix[(h & -h).bit_length() - 1]
        yield low ^ high


class BitMatrix:
    """Immutable GF(2) matrix with bit-packed rows."""

    __slots__ = ("words", "nrows", "ncols")

    def __init__(self, words: np.ndarray, nrows: int, ncols: int):
        self.words = words.reshape(nrows, _nwords(ncols))
        self.nrows = nrows
        self.ncols = ncols
        self.words.flags.writeable = False

    @classmethod
    def from_rows(cls, rows: Sequence, ncols: Optional[int] = None) -> "BitMatrix":
        """Build from row iterables of 0/1 entries (or '01' strings)."""
        parsed = [
            [int(ch) & 1 for ch in (row if not isinstance(row, str) else list(row))]
            for row in rows
        ]
        if parsed:
            ncols = len(parsed[0]) if ncols is None else ncols
            if any(len(r) != ncols for r in parsed):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if ncols is None else ncols
        dense = np.array(parsed, dtype=np.uint8).reshape(len(parsed), ncols)
        return cls(_pack(dense, ncols), len(parsed), ncols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense, dtype=np.uint8) & 1
        if dense.ndim != 2:
            raise ValueError("expected 2-d array")
        return cls(_pack(dense, dense.shape[1]), dense.shape[0], dense.shape[1])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(np.zeros((nrows, _nwords(ncols)), dtype=np.uint64), nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        return _unpack(self.words, self.ncols)

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T)

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column mismatch")
        return BitMatrix(
            np.vstack([self.words, other.words]), self.nrows + other.nrows, self.ncols
        )

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return BitMatrix.from_dense(mul_bits(self.to_dense(), other.to_dense()))

    def is_zero(self) -> bool:
        return not self.words.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"

    # -- elimination ---------------------------------------------------------

    def _rref_words(self, extra: Optional[np.ndarray] = None):
        """Reduced row echelon form on a working copy.

        Pivoting is deterministic: columns scanned left to right, ties broken
        by lowest row index. Optionally carries an augmented block `extra`
        through the same row operations.
        """
        work = self.words.copy()
        aug = extra.copy() if extra is not None else None
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            if r == self.nrows:
                break
            w, b = divmod(c, WORD)
            mask = np.uint64(1) << np.uint64(b)
            pr = -1
            for i in range(r, self.nrows):
                if work[i, w] & mask:
                    pr = i
                    break
            if pr < 0:
                continue
            if pr != r:
                work[[r, pr]] = work[[pr, r]]
                if aug is not None:
                    aug[[r, pr]] = aug[[pr, r]]
            sel = (work[:, w] & mask) != 0
            sel[r] = False
            if sel.any():
                work[sel] ^= work[r]
                if aug is not None:
                    aug[sel] ^= aug[r]
            pivots.append(c)
            r += 1
        return work, pivots, aug


def rank(m: BitMatrix) -> int:
    """GF(2) rank via row reduction; the input is unchanged."""
    _, pivots, _ = m._rref_words()
    return len(pivots)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and pivot column list."""
    work, pivots, _ = m._rref_words()
    return BitMatrix(work, m.nrows, m.ncols), pivots


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {v : Mv = 0}, one row per free column; ncols - rank rows."""
    work, pivots, _ = m._rref_words()
    red = _unpack(work, m.ncols)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = np.zeros((len(free), m.ncols), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, p in enumerate(pivots):
            basis[k, p] = red[i, f]
    return BitMatrix.from_dense(basis)


def solve(m: BitMatrix, b: np.ndarray) -> Optional[np.ndarray]:
    """Some 0/1 array x with Mx = b for a 1-D 0/1 array b, or None when the
    system is inconsistent."""
    b = np.asarray(b, dtype=np.uint8)
    if b.shape != (m.nrows,):
        raise ValueError("rhs length must equal nrows")
    _, pivots, aug = m._rref_words(extra=_pack(b.reshape(-1, 1), 1))
    red_b = _unpack(aug, 1)[:, 0]
    if red_b[len(pivots):].any():
        return None
    x = np.zeros(m.ncols, dtype=np.uint8)
    x[pivots] = red_b[: len(pivots)]
    return x


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square full-rank matrix."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    aug = BitMatrix.identity(m.nrows).words
    work, pivots, aug = m._rref_words(extra=aug)
    if len(pivots) != m.nrows:
        raise ValueError("singular matrix")
    return BitMatrix(aug, m.nrows, m.nrows)


def row_space_contains(m: BitMatrix, v: np.ndarray) -> bool:
    """Whether the 1-D 0/1 array v lies in the row space of m."""
    return solve(m.transpose(), v) is not None


class CosetWeight(NamedTuple):
    """Result of a coset minimum-weight search.

    `weight` holds one minimum per trial. `exact` is False when the generator
    count exceeded MAX_ENUM_ROWS; then each weight is the least over the zero,
    single and pairwise generator combinations only, an upper bound.
    """

    weight: np.ndarray
    exact: bool


def coset_min_weight(basis: BitMatrix, e: np.ndarray) -> CosetWeight:
    """Minimum Hamming weight over each coset {e[t] + span(basis rows)}.

    `e` is a (trials, n) 0/1 array in any layout, such as the transposed
    views of `FrameBatch`. It is packed once, and the coset elements are
    walked in packed blocks of at most 2^SPAN_BLOCK_BITS rows, so the work
    array is at most trials x 2^SPAN_BLOCK_BITS x words. Exhaustive
    (`span_blocks`) for k <= MAX_ENUM_ROWS generators; beyond that only the
    single and pairwise combinations are tried and the result is inexact.
    """
    e = np.asarray(e)
    if e.ndim != 2 or e.shape[1] != basis.ncols:
        raise ValueError("length mismatch")
    exact = basis.nrows <= MAX_ENUM_ROWS
    if exact:
        blocks = span_blocks(basis.words)
    else:
        g = basis.words
        i, j = np.triu_indices(basis.nrows, 1)
        combos = np.concatenate([np.zeros_like(g[:1]), g, g[i] ^ g[j]])
        step = 1 << SPAN_BLOCK_BITS
        blocks = (combos[lo : lo + step] for lo in range(0, len(combos), step))
    packed = _pack(e, basis.ncols)[:, None]
    best = None
    for block in blocks:
        w = np.bitwise_count(packed ^ block).sum(axis=2).min(axis=1)
        best = w if best is None else np.minimum(best, w)
    return CosetWeight(best, exact)


def matrix_to_text(m: BitMatrix) -> str:
    """Plain-text format: first line 'nrows ncols', then 0/1 rows."""
    lines = [f"{m.nrows} {m.ncols}"]
    dense = m.to_dense()
    for i in range(m.nrows):
        lines.append("".join(str(b) for b in dense[i]))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> BitMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    nrows, ncols = (int(t) for t in lines[0].split())
    rows = lines[1 : 1 + nrows]
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError("malformed matrix text")
    return BitMatrix.from_rows(rows, ncols=ncols)
