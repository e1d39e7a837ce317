"""CSS codes: logical structure, distances, and families.

A CSS code is held as the pair of binary check matrices (H_X, H_Z) with
H_X H_Z^T = 0, plus a symplectic-dual basis of logical operator
representatives (L_X, L_Z); all four are read-only 2-D 0/1 uint8 arrays.
One encoder, `encoded_tableau`, builds every encoded stabilizer state: a
logical tableau put on blocks of codes that sit on adjacent wires, where
each block's init0/H/CNOT `encoding_circuit` (Gottesman's standard form,
arXiv:quant-ph/9705052) runs on the tableau executor. Code families bundle levels
r = 1, 2, ... with the rate and doubling metadata the interface
constructions rely on.
"""

from __future__ import annotations

import functools
import json
import pathlib
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import gf2
from .circuit import Circuit, Gate, run_noisy
from .tableau import Tableau


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    subject: str
    checks: list[CheckResult]

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = [f"[{self.subject}]"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  {status:4s} {c.name}" + (f" ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


def _quotient_basis(candidates: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """Representatives of span(candidates) / span(modulus), deterministically.

    Reduces every candidate against the RREF of the modulus, then keeps the
    rows that extend the running basis (lowest candidate index wins).
    """
    red_mod, piv_mod = gf2.rref(modulus)
    mod_rows = red_mod[: len(piv_mod)]
    accepted: list[np.ndarray] = []
    accepted_piv: list[int] = []
    for v in np.array(candidates, np.uint8):
        for row, p in zip(mod_rows, piv_mod):
            if v[p]:
                v ^= row
        for row, p in zip(accepted, accepted_piv):
            if v[p]:
                v ^= row
        nz = np.nonzero(v)[0]
        if nz.size:
            accepted.append(v)
            accepted_piv.append(int(nz[0]))
    return np.array(accepted, np.uint8).reshape(len(accepted), np.shape(candidates)[1])


# Kernels of up to this many vectors are enumerated exactly by `min_distance`.
MAX_DISTANCE_ENUM = 1 << 22


def _read_only(a) -> np.ndarray:
    """A read-only 2-D 0/1 uint8 copy of a matrix."""
    a = np.array(a, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    a.flags.writeable = False
    return a


class CssCode:
    """CSS code with its logical operator representatives.

    hx, hz, lx and lz are read-only copies of the given matrices, so a code
    shared through a cache stays as built; treat the other attributes as
    read-only too.
    """

    def __init__(self, hx, hz, lx, lz, name: str = ""):
        self.hx, self.hz, self.lx, self.lz = (_read_only(a) for a in (hx, hz, lx, lz))
        if self.hx.shape[1] != self.hz.shape[1]:
            raise ValueError("H_X and H_Z act on different qubit counts")
        self.n = self.hx.shape[1]
        self.m = len(self.lx)
        self.name = name or f"[[{self.n},{self.m}]]"
        self._distance: Optional[tuple[int, bool]] = None

    @classmethod
    def from_checks(cls, hx: np.ndarray, hz: np.ndarray, name: str = "") -> "CssCode":
        """Derive logical representatives from the check matrices.

        L_X spans ker(H_Z)/rowspace(H_X) and L_Z spans ker(H_X)/rowspace(H_Z);
        L_Z is then re-based so that L_X L_Z^T = I (anticommutation exactly on
        matching logical indices). Gaussian elimination is deterministic, so
        the representatives are stable across runs.
        """
        lx = _quotient_basis(gf2.nullspace_basis(hz), hx)
        lz = _quotient_basis(gf2.nullspace_basis(hx), hz)
        if len(lx) != len(lz):
            raise ValueError("inconsistent logical dimensions")
        if len(lx):
            lz = gf2.mul_bits(gf2.inverse(gf2.mul_bits(lx, lz.T)).T, lz)
        return cls(hx, hz, lx, lz, name=name)

    def __repr__(self) -> str:
        return f"CssCode({self.name}, n={self.n}, m={self.m})"

    # -- invariants ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every CssCode invariant; failures are reported, not raised."""
        rep = ValidationReport(self.name, [])
        rep.add("hx_hz_orthogonal", not gf2.mul_bits(self.hx, self.hz.T).any())
        rx, rz = gf2.rank(self.hx), gf2.rank(self.hz)
        rep.add(
            "logical_count",
            self.m == self.n - rx - rz,
            f"m={self.m}, n-rank(HX)-rank(HZ)={self.n - rx - rz}",
        )
        rep.add("lx_shape", self.lx.shape == (self.m, self.n))
        rep.add("lz_shape", self.lz.shape == (self.m, self.n))
        rep.add("lx_commutes_with_z_checks", not gf2.mul_bits(self.hz, self.lx.T).any())
        rep.add("lz_commutes_with_x_checks", not gf2.mul_bits(self.hx, self.lz.T).any())
        if self.m:
            rep.add(
                "symplectic_pairing",
                np.array_equal(gf2.mul_bits(self.lx, self.lz.T), np.eye(self.m, dtype=np.uint8)),
            )
            rep.add(
                "lx_independent_of_stabilizers",
                gf2.rank(np.concatenate([self.hx, self.lx])) == rx + self.m,
            )
            rep.add(
                "lz_independent_of_stabilizers",
                gf2.rank(np.concatenate([self.hz, self.lz])) == rz + self.m,
            )
        return rep

    # -- stabilizers and distance ------------------------------------------------

    def x_stabilizer_basis(self) -> np.ndarray:
        red, piv = gf2.rref(self.hx)
        return red[: len(piv)]

    def z_stabilizer_basis(self) -> np.ndarray:
        red, piv = gf2.rref(self.hz)
        return red[: len(piv)]

    def min_distance(self) -> tuple[int, bool]:
        """Minimum distance min(d_X, d_Z) by exhaustive kernel enumeration.

        Exact when both kernels fit inside MAX_DISTANCE_ENUM enumerated
        vectors; otherwise a best-seen upper value with the exact flag
        cleared. The result is memoised on the code.
        """
        if self._distance is None:
            found = []
            # Z logicals: ker(H_X) outside rowspace(H_Z); then X logicals.
            for h_ker, h_stab in ((self.hx, self.hz), (self.hz, self.hx)):
                basis = gf2.nullspace_basis(h_ker)
                exact = (1 << len(basis)) <= MAX_DISTANCE_ENUM
                found.append((gf2.min_weight_outside(basis, h_stab, exhaustive=exact), exact))
            self._distance = (min(d for d, _ in found), all(e for _, e in found))
        return self._distance


# -- encoded states ----------------------------------------------------------------


def encoded_tableau(codes: Sequence[CssCode], logical: Tableau, labels: Sequence) -> Tableau:
    """Encode a logical stabilizer state into blocks of `codes` on adjacent wires.

    Logical qubit j becomes the j-th logical of the concatenated blocks, and
    block i acts on the next codes[i].n of `labels`: the logical wires are
    renamed onto the blocks' entry wires and each block's `encoding_circuit`
    runs on them. A batch of logical states, (trials, m) signs, encodes to a
    batch with (trials, n) signs. Returns a new tableau.
    """
    codes, labels = tuple(codes), tuple(labels)
    if logical.n != sum(c.m for c in codes):
        raise ValueError("logical tableau must act on the blocks' total logical count")
    if len(labels) != sum(c.n for c in codes):
        raise ValueError(f"{len(labels)} labels for blocks of {sum(c.n for c in codes)} wires")
    blocks, start = [], 0
    for code in codes:
        blocks.append(encoding_circuit(code, labels[start : start + code.n]))
        start += code.n
    state = logical.copy()
    state.rename(dict(zip(logical.labels, [w for _, entry in blocks for w in entry])))
    for circ, _ in blocks:
        run_noisy(circ, state)
    return state.reorder(labels)


def encoding_circuit(code: CssCode, wires: Sequence) -> tuple[Circuit, tuple]:
    """An init0/H/CNOT circuit on `wires` that encodes, and the wire each logical enters on.

    Logical j enters on wire Q_j; init0 prepares every other wire. With S
    the rows of rref(H_X) and P their pivots, H puts |+> on P. L_X cleared
    at P by S is L' (same logical classes), and one elimination of (L' | I)
    gives R = A L' with pivots Q. A CNOT network on Q takes X_j to the
    product of X_{Q_i} over the 1s of row j of A^-1; each R row then fans
    out from its pivot, so X_j goes to X(L'_j), and each S row fans out
    from its pivot last, since S rows may touch Q. Every X and Z image has
    a + sign and the Z logicals follow as the dual basis, so logical j maps
    to (L_X[j], L_Z[j]) up to stabilizers. Gates run as early as their
    wires allow. Circuits are cached per (code, wires): treat them as
    read-only.
    """
    return _encoding_circuit(code, tuple(wires))


@functools.lru_cache(maxsize=256)
def _encoding_circuit(code: CssCode, wires: tuple) -> tuple[Circuit, tuple]:
    if len(wires) != code.n:
        raise ValueError("wire count must equal n")
    red, p = gf2.rref(code.hx)
    s = red[: len(p)]
    lx = code.lx ^ gf2.mul_bits(code.lx[:, p], s)
    red, q = gf2.rref(np.concatenate([lx, np.eye(code.m, dtype=np.uint8)], axis=1))
    r, a = red[:, : code.n], red[:, code.n :]
    gates = [Gate("init0", (w,)) for i, w in enumerate(wires) if i not in q]
    gates += [Gate("h", (wires[i],)) for i in p]
    # Column operations that take A to I; as CNOTs (column c into column t is
    # CNOT Q_c -> Q_t) they take each X_j to row j of their product, A^-1.
    # Rows above i are unit rows, so row i has a 1 at or right of i, and
    # adding a column right of i leaves those rows as they are.
    for i in range(code.m):
        if not a[i, i]:
            k = i + int(np.flatnonzero(a[i, i:])[0])
            a[:, i] ^= a[:, k]
            gates.append(Gate("cnot", (wires[q[k]], wires[q[i]])))
        for k in np.flatnonzero(a[i]).tolist():
            if k != i:
                a[:, k] ^= a[:, i]
                gates.append(Gate("cnot", (wires[q[i]], wires[q[k]])))
    for rows, pivots in ((r, q), (s, p)):
        gates += [Gate("cnot", (wires[c], wires[t])) for row, c in zip(rows, pivots)
                  for t in np.flatnonzero(row).tolist() if t != c]
    layers: list[list[Gate]] = []
    ready = dict.fromkeys(wires, 0)  # the first layer each wire is free in
    for g in gates:
        at = max(ready[w] for w in g.wires)
        layers += [[] for _ in range(at + 1 - len(layers))]
        layers[at].append(g)
        ready.update(dict.fromkeys(g.wires, at + 1))
    circ = Circuit(wires)
    for layer in layers:
        circ.add_layer(layer)
    return circ, tuple(wires[i] for i in q)


# -- standard constructions -------------------------------------------------------


def _recorded(code: CssCode, distance: int) -> CssCode:
    """`code` with its exact distance recorded, so no caller searches for it."""
    code._distance = (distance, True)
    return code


def trivial_code() -> CssCode:
    hz = np.zeros((0, 1), np.uint8)
    return _recorded(CssCode.from_checks(hz, hz, name="trivial"), 1)


def c422() -> CssCode:
    h = np.ones((1, 4), np.uint8)
    return _recorded(CssCode.from_checks(h, h, name="[[4,2,2]]"), 2)


# The [7,4,3] Hamming code's checks: column j is j + 1 in binary.
HAMMING_743 = np.array([[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]], np.uint8)


def steane_code() -> CssCode:
    return _recorded(CssCode.from_checks(HAMMING_743, HAMMING_743, name="steane"), 3)


def build_hgp(h1: np.ndarray, h2: np.ndarray, name: str = "") -> CssCode:
    """Hypergraph product of two classical parity-check matrices."""
    a = np.asarray(h1, np.uint8)
    b = np.asarray(h2, np.uint8)
    r1, n1 = a.shape
    r2, n2 = b.shape
    hx = np.concatenate(
        [np.kron(a, np.eye(n2, dtype=np.uint8)), np.kron(np.eye(r1, dtype=np.uint8), b.T)],
        axis=1,
    )
    hz = np.concatenate(
        [np.kron(np.eye(n1, dtype=np.uint8), b), np.kron(a.T, np.eye(r2, dtype=np.uint8))],
        axis=1,
    )
    return CssCode.from_checks(hx, hz, name=name or f"hgp({r1}x{n1},{r2}x{n2})")


def freeze_logicals(code: CssCode, m_new: int) -> CssCode:
    """Freeze the highest-index logical qubits to |0_L>.

    Their L_Z representatives become Z-checks; the surviving logical pairs
    are untouched, so H_X H_Z^T = 0 is preserved by construction.
    """
    if not 0 < m_new <= code.m:
        raise ValueError("m_new out of range")
    if m_new == code.m:
        return code
    hz = np.concatenate([code.hz, code.lz[m_new:]])
    return CssCode(code.hx, hz, code.lx[:m_new], code.lz[:m_new], name=f"{code.name}/m={m_new}")


# -- code families ---------------------------------------------------------------


class CodeFamily(NamedTuple):
    """Sequence of CSS codes indexed by level r = 1, 2, ...

    The doubling/rate properties are required only for levels r > r0; r0 is
    family metadata because the source construction pins it only eventually.
    """

    levels: tuple[CssCode, ...]
    alpha: float
    beta: float
    r0: int = 1
    provenance: str = ""

    def level(self, r: int) -> CssCode:
        if not 1 <= r <= len(self.levels):
            raise ValueError(f"family has no level {r}")
        return self.levels[r - 1]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def validate(self) -> ValidationReport:
        rep = ValidationReport(f"family:{self.provenance or 'anonymous'}", [])
        first = self.levels[0]
        rep.add("level1_trivial", first.n == 1 and first.m == 1)
        for r in range(2, self.depth + 1):
            code, prev = self.level(r), self.level(r - 1)
            if r > self.r0:
                rep.add(
                    f"doubling_r{r}",
                    code.m == 2 * prev.m,
                    f"m_{r}={code.m}, m_{r-1}={prev.m}",
                )
                rep.add(
                    f"rate_r{r}",
                    code.m >= self.alpha * code.n,
                    f"m={code.m}, alpha*n={self.alpha * code.n:.3f}",
                )
                d, exact = code.min_distance()
                if exact:
                    rep.add(
                        f"distance_r{r}",
                        d >= self.beta * code.n,
                        f"d={d}, beta*n={self.beta * code.n:.3f}",
                    )
        for r in range(1, self.depth + 1):
            sub = self.level(r).validate()
            for c in sub.checks:
                rep.add(f"r{r}:{c.name}", c.passed, c.detail)
        return rep


def build_family_rate_adjusted(
    base: Sequence[CssCode], alpha: float, c1: float, beta: float = 0.0, provenance: str = ""
) -> CodeFamily:
    """Re-derive a family encoding exactly 2^s logical qubits per level.

    For each s, the smallest base level r with m_{r-1} < 2^s <= m_r is
    frozen down to 2^s logical qubits. A trivial level-1 code is prepended
    so the output indexes as a standard family. Raises if the base violates
    the monotonicity hypotheses.
    """
    ms = [c.m for c in base]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError(f"base family m values must strictly increase, got {ms}")
    levels: list[CssCode] = [trivial_code()]
    s = 1
    while (1 << s) <= ms[-1]:
        target = 1 << s
        r = next(i for i, m in enumerate(ms) if m >= target)
        if r > 0 and ms[r - 1] >= target:
            raise ValueError("base family skipped a doubling step")
        levels.append(freeze_logicals(base[r], target))
        s += 1
    return CodeFamily(
        levels=tuple(levels),
        alpha=alpha / c1,
        beta=beta,
        r0=1,
        provenance=provenance or "rate-adjusted",
    )


def toy_family() -> CodeFamily:
    """Shipped small family: [[1,1,1]], [[4,2,2]], [[10,4,2]], [[16,8,2]].

    Levels 3 and 4 are hypergraph products with m already a power of two,
    so the rate adjustment is the identity on them. The exact distances are
    recorded rather than searched for on every load; tests check them
    against a fresh `CssCode.min_distance()`.
    """
    rep3, rep5 = np.ones((1, 3), np.uint8), np.ones((1, 5), np.uint8)
    levels = (
        trivial_code(),
        c422(),
        _recorded(build_hgp(rep3, rep3, name="hgp33"), 2),
        _recorded(build_hgp(rep3, rep5, name="hgp35"), 2),
    )
    return CodeFamily(levels=levels, alpha=0.4, beta=0.125, r0=1, provenance="builtin-toy")


def steane_family() -> CodeFamily:
    """Trivial + Steane variant (m = 1 at level 2, distance 3).

    Breaks the doubling property on purpose; r0 = 2 exempts its top level.
    Used to exercise the correctable-error contract of the interface. The
    distances are recorded, as in `toy_family`.
    """
    return CodeFamily(
        levels=(trivial_code(), steane_code()),
        alpha=1 / 7,
        beta=3 / 7,
        r0=2,
        provenance="builtin-steane",
    )


BUILTIN_FAMILIES = {"toy": toy_family, "steane": steane_family}


# -- serialization ----------------------------------------------------------------


def code_to_text(code: CssCode) -> str:
    parts = [f"{code.n} {code.m}\n"]
    for tag, mat in (("HX", code.hx), ("HZ", code.hz), ("LX", code.lx), ("LZ", code.lz)):
        parts.append(f"{tag}\n{gf2.matrix_to_text(mat)}")
    return "".join(parts)


def code_from_text(text: str, name: str = "") -> CssCode:
    lines = text.splitlines()
    n, m = (int(t) for t in lines[0].split())
    blocks: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        tag = lines[i].strip()
        if not tag:
            i += 1
            continue
        header = lines[i + 1]
        nrows = int(header.split()[0])
        chunk = "\n".join(lines[i + 1 : i + 2 + nrows])
        blocks[tag] = gf2.matrix_from_text(chunk)
        i += 2 + nrows
    if "HX" not in blocks or "HZ" not in blocks:
        raise ValueError("code text missing HX/HZ blocks")
    if "LX" in blocks and "LZ" in blocks:
        code = CssCode(blocks["HX"], blocks["HZ"], blocks["LX"], blocks["LZ"], name=name)
    else:
        code = CssCode.from_checks(blocks["HX"], blocks["HZ"], name=name)
    if code.n != n or code.m != m:
        raise ValueError("header does not match matrix blocks")
    return code


def save_family(family: CodeFamily, directory) -> None:
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    filenames = []
    for r, code in enumerate(family.levels, start=1):
        fn = f"level_{r}.txt"
        (directory / fn).write_text(code_to_text(code))
        filenames.append(fn)
    manifest = {
        "alpha": family.alpha,
        "beta": family.beta,
        "r0": family.r0,
        "provenance": family.provenance,
        "levels": filenames,
    }
    (directory / "family.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_family(directory) -> CodeFamily:
    directory = pathlib.Path(directory)
    manifest = json.loads((directory / "family.json").read_text())
    levels = tuple(
        code_from_text((directory / fn).read_text(), name=f"level{r}")
        for r, fn in enumerate(manifest["levels"], start=1)
    )
    return CodeFamily(
        levels=levels,
        alpha=manifest["alpha"],
        beta=manifest["beta"],
        r0=manifest["r0"],
        provenance=manifest.get("provenance", ""),
    )
