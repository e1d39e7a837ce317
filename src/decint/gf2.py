"""Dense GF(2) linear algebra on 0/1 uint8 arrays.

A GF(2) vector is a 1-D 0/1 uint8 array and a GF(2) matrix a 2-D one.
Products go through `mul_bits`, which XORs the 0/1 rows that each row of
the left operand selects, with no float or integer round-trip; `mul_count`
is the one float32 BLAS product, for weighted sums such as a packed
syndrome index and for parities over a whole batch such as a tableau's
sign flips. Elimination (`rank`, `rref`, `nullspace_basis`,
`solve`, `inverse`) works on a copy with one pivot rule, so its results are
unique and inputs are never changed; it holds columns as Python-int bitsets.
Rows are packed into 64-bit words, where XOR and popcount are single numpy
ops, only inside the two enumerations: `min_weight_outside`, the span walk
behind `CssCode.min_distance`, and `coset_min_weight`, the stabilizer-reduced
weight of every trial of a batch (exact up to MAX_ENUM_ROWS generators). The
library classifies residuals from `interface.CosetTable`; the coset search
is the reference those tables are tested against.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

WORD = 64

# Exhaustive coset enumeration is allowed up to this many generators; beyond
# it coset_min_weight reports an upper bound flagged inexact.
MAX_ENUM_ROWS = 20


def _pack(dense: np.ndarray) -> np.ndarray:
    """Pack a (rows, ncols) 0/1 array, any layout, into little-endian uint64 words."""
    rows, ncols = np.shape(dense)
    # Zero-pad every row to whole words, then pack the flat buffer in one pass.
    words = max(1, -(-ncols // WORD))
    padded = np.zeros((rows, words * WORD), dtype=np.uint8)
    padded[:, :ncols] = dense
    return np.packbits(padded, axis=None, bitorder="little").view(np.uint64).reshape(rows, words)


# float32 holds every integer below 2^24 exactly, so a float32 product of 0/1
# rows with small nonnegative integers counts exactly while every partial sum
# stays below this.
FLOAT32_EXACT = 1 << 24


def mul_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product a @ b of a 0/1 array and a nonnegative integer array.

    One BLAS float32 matmul, for weighted sums such as the packed syndrome
    index of `interface.LeaderTable.lookup`, and for parities over a batch,
    such as the sign flips of `tableau.Tableau.apply_pauli_on`. Raises when a
    partial sum could reach 2^24 (inner dimension times the largest entry of
    b), where float32 stops counting exactly. Other GF(2) products go through
    `mul_bits`.
    """
    b = np.asarray(b)
    top = max(int(b.max()), 1) if b.size else 1
    if np.shape(a)[-1] * top >= FLOAT32_EXACT:
        raise ValueError(f"product over {np.shape(a)[-1]} terms is not exact in float32")
    # Casting first keeps matrix-vector products on BLAS; matmul(..., dtype=)
    # casts through a slower generic loop.
    return np.matmul(np.asarray(a, np.float32), b.astype(np.float32)).astype(np.int32)


def mul_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product of 0/1 arrays: the parities a @ b mod 2 as uint8.

    Either operand may be 1-D, as in `np.matmul`. Each output row is the XOR
    of the rows of b that the matching row of a selects; when a has more rows
    than b has columns, the product is computed transposed, (b.T @ a.T).T,
    so the loop runs over the shorter of the two dimensions.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1 or b.ndim == 1:
        out = mul_bits(a[None] if a.ndim == 1 else a, b[:, None] if b.ndim == 1 else b)
        return out.reshape(a.shape[:-1] + b.shape[1:])
    if a.shape[1] != len(b):
        raise ValueError(f"inner dimension mismatch: {a.shape} @ {b.shape}")
    if len(a) > b.shape[1]:
        return _xor_rows(b.T, a.T).T
    return _xor_rows(a, b)


def _xor_rows(sel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row i of the result is the XOR of the `rows` at the 1 entries of sel[i]."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)  # contiguous rows gather fastest
    out = np.zeros((len(sel), rows.shape[1]), np.uint8)
    for pick, o in zip(sel.astype(bool), out):
        np.bitwise_xor.reduce(rows[pick], axis=0, out=o)
    return out


# Rows per block of `_span_blocks`.
SPAN_BLOCK_BITS = 12


def _span_blocks(rows: np.ndarray):
    """Every XOR combination of the packed `rows`, in blocks of at most
    2^SPAN_BLOCK_BITS.

    Element i of the concatenated blocks is the XOR of the rows at the set
    bits of i, so the 2^k elements come in binary order and the zero
    combination first.
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


# -- elimination ---------------------------------------------------------------


def _eliminate(work: np.ndarray, ncols: int) -> list[int]:
    """Row-reduce `work` in place over its first `ncols` columns.

    Columns are scanned left to right and the lowest remaining row with a 1
    becomes the pivot row, so the reduced form is the unique RREF. Columns
    past `ncols` (an augmented block) follow the same row operations.
    Returns the pivot columns. Column k is a Python int, bit i for row i; rows
    from the pivot row down are zero left of column c, so only columns c on change.
    """
    packed = np.packbits(work.T, axis=1, bitorder="little")
    data, nb = packed.tobytes(), packed.shape[1]
    cols = [int.from_bytes(data[k * nb : (k + 1) * nb], "little") for k in range(len(packed))]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        below = cols[c] >> r
        if not below:
            continue
        i = r + (below & -below).bit_length() - 1
        row, swap = 1 << r, 1 << r | 1 << i
        if i != r:  # swap rows r and i
            for k in range(c, len(cols)):
                if (cols[k] >> r ^ cols[k] >> i) & 1:
                    cols[k] ^= swap
        others = cols[c] ^ row  # add row r to the other rows with a 1 in column c
        for k in range(c, len(cols)):
            if cols[k] & row:
                cols[k] ^= others
        pivots.append(c)
    bits = np.frombuffer(b"".join([col.to_bytes(nb, "little") for col in cols]), np.uint8)
    work[:] = np.unpackbits(bits.reshape(packed.shape), axis=1, count=len(work), bitorder="little").T
    return pivots


def rank(m: np.ndarray) -> int:
    """GF(2) rank via row reduction; the input is unchanged."""
    return len(_eliminate(np.array(m, np.uint8), np.shape(m)[1]))


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    red = np.array(m, np.uint8)
    return red, _eliminate(red, red.shape[1])


def nullspace_basis(m: np.ndarray) -> np.ndarray:
    """Basis of {v : Mv = 0}, one row per free column; ncols - rank rows."""
    red, pivots = rref(m)
    free = [c for c in range(red.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), red.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = red[: len(pivots), free].T
    return basis


def solve(m: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Some 0/1 array x with Mx = b for a 1-D 0/1 array b, or None when the
    system is inconsistent."""
    rows, ncols = np.shape(m)
    if np.shape(b) != (rows,):
        raise ValueError("rhs length must equal nrows")
    work = np.column_stack([np.asarray(m, np.uint8), np.asarray(b, np.uint8)])
    pivots = _eliminate(work, ncols)
    if work[len(pivots) :, ncols].any():
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    x[pivots] = work[: len(pivots), ncols]
    return x


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square full-rank matrix."""
    n = len(m)
    if np.shape(m) != (n, n):
        raise ValueError("not square")
    work = np.concatenate([np.asarray(m, np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    if len(_eliminate(work, n)) != n:
        raise ValueError("singular matrix")
    return work[:, n:]


def row_space_contains(m: np.ndarray, v: np.ndarray) -> bool:
    """Whether the 1-D 0/1 array v lies in the row space of m."""
    return solve(np.asarray(m).T, v) is not None


# -- enumerations on packed rows -------------------------------------------------


class CosetWeight(NamedTuple):
    """Result of a coset minimum-weight search.

    `weight` holds one int64 minimum per trial. `exact` is False when the
    generator count exceeded MAX_ENUM_ROWS; then each weight is the least over
    the zero, single and pairwise generator combinations only, an upper bound.
    """

    weight: np.ndarray
    exact: bool


def coset_min_weight(basis: np.ndarray, e: np.ndarray) -> CosetWeight:
    """Minimum Hamming weight over each coset {e[t] + span(basis rows)}.

    `e` is a (trials, n) 0/1 array in any layout, such as the transposed
    views of `FrameBatch`. It is packed once, and the coset elements are
    walked in packed blocks of at most 2^SPAN_BLOCK_BITS rows, so the work
    array is at most trials x 2^SPAN_BLOCK_BITS x words. Exhaustive for
    k <= MAX_ENUM_ROWS generators; beyond that only the single and pairwise
    combinations are tried and the result is inexact.
    """
    e = np.asarray(e)
    if e.ndim != 2 or e.shape[1] != np.shape(basis)[1]:
        raise ValueError("length mismatch")
    g = _pack(basis)
    exact = len(g) <= MAX_ENUM_ROWS
    if exact:
        blocks = _span_blocks(g)
    else:
        i, j = np.triu_indices(len(g), 1)
        combos = np.concatenate([np.zeros_like(g[:1]), g, g[i] ^ g[j]])
        step = 1 << SPAN_BLOCK_BITS
        blocks = (combos[lo : lo + step] for lo in range(0, len(combos), step))
    # One contiguous row of trials per word; each block is then summed word by
    # word into a (combinations, trials) array and reduced along its leading
    # axis, which numpy vectorises across trials.
    packed = np.ascontiguousarray(_pack(e).T)
    wide = np.uint8 if e.shape[1] < 256 else np.uint16
    best = None
    for block in blocks:
        w = np.bitwise_count(block[:, :1] ^ packed[0]).astype(wide, copy=False)
        for j in range(1, len(packed)):
            w += np.bitwise_count(block[:, j : j + 1] ^ packed[j])
        w = w.min(axis=0)
        best = w if best is None else np.minimum(best, w)
    return CosetWeight(best.astype(np.int64), exact)


def min_weight_outside(span: np.ndarray, modulus: np.ndarray, exhaustive: bool = True) -> int:
    """Least Hamming weight in span(span rows) outside span(modulus rows).

    0 when no such vector exists. With `exhaustive` False only the rows of
    `span` themselves are tried: an upper value when one of them lies
    outside, else 0.
    """
    n = np.shape(span)[1]
    red, pivots = rref(modulus)
    reducers = list(zip(_pack(red[: len(pivots)]), pivots))
    rows = _pack(span)
    best = n + 1
    for block in _span_blocks(rows) if exhaustive else [rows]:
        w = np.bitwise_count(block).sum(axis=1)
        short = w < best
        cand = block[short]
        # Reduce each candidate against the modulus RREF; what is left is
        # nonzero exactly when the candidate lies outside its span.
        for row, p in reducers:
            cand[((cand[:, p // WORD] >> np.uint64(p % WORD)) & np.uint64(1)).astype(bool)] ^= row
        outside = cand.any(axis=1)
        if outside.any():
            best = int(w[short][outside].min())
    return best if best <= n else 0


# -- text format -------------------------------------------------------------------


def matrix_to_text(m: np.ndarray) -> str:
    """Plain-text format: first line 'nrows ncols', then 0/1 rows."""
    lines = [f"{len(m)} {np.shape(m)[1]}"]
    lines += ["".join(str(b) for b in row) for row in m]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    nrows, ncols = (int(t) for t in lines[0].split())
    rows = lines[1 : 1 + nrows]
    bits = np.frombuffer("".join(rows).encode(), np.uint8) - np.uint8(ord("0"))
    if len(rows) != nrows or any(len(r) != ncols for r in rows) or (bits > 1).any():
        raise ValueError("malformed matrix text")
    return bits.reshape(nrows, ncols)
