"""Error-correction gadgets and teleportation-based partial decoding interfaces.

`build_ec` assembles the syndrome-extraction gadget (one ancilla per check,
CNOT schedule from a proper bipartite edge coloring). `build_gamma` assembles
the partial interface that maps one level-r block onto m_r/m_{r'} level-r'
blocks through an encoded Bell resource and a logical Bell measurement.

Two executors share the construction: an exact signed-tableau run (the
correctness oracle) and a vectorized Pauli-frame Monte Carlo that classifies
trials into the success/failure branches and estimates the failure
parameter tau. Classical decoding steps are circuit-external callbacks; the
resource state comes from an oracle emitting the ideal encoded Bell tableau
followed by configurable local stochastic noise and a global failure coin.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .css import CodeFamily, CssCode, PauliOp
from .circuit import Circuit, FrameBatch, FrameRunner, Gate
from .gf2 import BitMatrix, BitVector
from .noise import STREAM_ORACLE, NoiseParams, rng_stream, sample_ls_bits
from .tableau import Tableau

MAX_TABLE_ROWS = 14  # leader tables are dense in 2^{#checks}


# -- coset-leader syndrome decoding ------------------------------------------------


@dataclass(frozen=True)
class LeaderTable:
    """Minimum-weight coset representative for every syndrome of H.

    Indexed by the syndrome bits packed little-endian over the rows of H.
    Unreachable syndromes carry weight -1. The leaders are stored
    transposed, one row per qubit, so a batch lookup gathers contiguous
    (n, trials) rows.
    """

    h: BitMatrix
    errors_t: np.ndarray  # (n, 2^rows) uint8; column s is the leader of syndrome s
    weights: np.ndarray   # (2^rows,) int16, -1 where unreachable

    def lookup(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized decode: syndromes (trials, rows) -> (errors, weights).

        `errors` is the (trials, n) transposed view of an (n, trials) array,
        the layout of `FrameBatch`: errors.T[q] is one qubit over all trials.
        Wire-major callers pass (rows, trials) syndromes as `s.T`.
        """
        idx = gf2.mul_count(syndromes, 1 << np.arange(self.h.nrows))
        return np.take(self.errors_t, idx, axis=1).T, self.weights[idx]


@functools.lru_cache(maxsize=None)
def build_leader_table(h: BitMatrix) -> LeaderTable:
    if h.nrows > MAX_TABLE_ROWS:
        raise ValueError(f"leader table too large for {h.nrows} checks")
    n = h.ncols
    size = 1 << h.nrows
    hd = h.to_dense().astype(np.int64)
    pow2 = 1 << np.arange(h.nrows, dtype=np.int64)
    errors = np.zeros((size, n), dtype=np.uint8)
    weights = np.full(size, -1, dtype=np.int16)
    reachable = 1 << gf2.rank(h)
    filled = 0
    for w in range(n + 1):
        if filled == reachable:
            break
        for support in itertools.combinations(range(n), w):
            e = np.zeros(n, dtype=np.uint8)
            e[list(support)] = 1
            s = int((hd @ e % 2) @ pow2)
            if weights[s] < 0:
                errors[s] = e
                weights[s] = w
                filled += 1
                if filled == reachable:
                    break
    errors_t = np.ascontiguousarray(errors.T)
    errors_t.flags.writeable = weights.flags.writeable = False  # the table is cached and shared
    return LeaderTable(h=h, errors_t=errors_t, weights=weights)


@dataclass(frozen=True)
class DecodeResult:
    """Correction estimate with per-sector ambiguity flags.

    A sector heralds when no coset leader exists within the certified
    radius floor((d-1)/2); the leader (if any) is still reported, but EC
    executors abstain from applying a heralded sector so that an ambiguous
    detection never grows the residual reduced weight.
    """

    correction: PauliOp
    herald_x: bool  # X-error estimate uncertain
    herald_z: bool

    @property
    def herald(self) -> bool:
        return self.herald_x or self.herald_z


def decode_syndrome(code: CssCode, syn_x: BitVector, syn_z: BitVector) -> DecodeResult:
    """Minimum-weight correction for (X-check, Z-check) syndromes.

    X-check outcomes locate Z errors and vice versa. Any true error of
    reduced weight < d/2 decodes to a residual inside the stabilizer group.
    """
    if syn_x.n != code.hx.nrows or syn_z.n != code.hz.nrows:
        raise ValueError("syndrome lengths must match check counts")
    d = code.min_distance()[0]
    tx = build_leader_table(code.hx)
    tz = build_leader_table(code.hz)
    ez, wz = tx.lookup(syn_x.to_array().reshape(1, -1))
    ex, wx = tz.lookup(syn_z.to_array().reshape(1, -1))
    return DecodeResult(
        correction=PauliOp(BitVector.from_bits(ex[0]), BitVector.from_bits(ez[0])),
        herald_x=bool(wx[0] < 0 or 2 * wx[0] >= d),
        herald_z=bool(wz[0] < 0 or 2 * wz[0] >= d),
    )


# -- syndrome extraction circuit ----------------------------------------------------


def _bipartite_edge_coloring(edges: list[tuple], ) -> list[int]:
    """Proper edge coloring of a bipartite multigraph with Delta colors."""
    at: dict = {}

    def free(node: tuple) -> int:
        used = at.setdefault(node, {})
        c = 0
        while c in used:
            c += 1
        return c

    colors = [0] * len(edges)
    for ei, (u, v) in enumerate(edges):
        a, b = free(u), free(v)
        if a != b:
            # Flip colors a/b along the maximal alternating path from v.
            path = []
            cur, col = v, a
            while col in at.get(cur, {}):
                e2 = at[cur][col]
                u2, v2 = edges[e2]
                nxt = v2 if u2 == cur else u2
                path.append((e2, cur, nxt, col))
                cur, col = nxt, (b if col == a else a)
            for e2, n1, n2, col in path:
                del at[n1][col]
                del at[n2][col]
            for e2, n1, n2, col in path:
                new = b if col == a else a
                at[n1][new] = e2
                at[n2][new] = e2
                colors[e2] = new
        at.setdefault(u, {})[a] = ei
        at.setdefault(v, {})[a] = ei
        colors[ei] = a
    return colors


@dataclass(frozen=True)
class EcGadget:
    """One error-correction step: extraction circuit + decode metadata.

    The decoder call and Pauli correction are circuit-external; the
    correction layer's noise is carried by `correction_circuit` (one layer
    of idle locations over the data wires).
    """

    code: CssCode
    rounds: int
    data_wires: tuple
    ancilla_x: tuple
    ancilla_z: tuple
    extraction: Circuit        # one round, labels parameterized by prefix
    label_prefix: str
    cnot_depth: int
    correction_circuit: Circuit
    _rounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def wires(self) -> tuple:
        return self.data_wires + self.ancilla_x + self.ancilla_z

    def x_labels(self, rnd: int) -> list[str]:
        return [f"{self.label_prefix}r{rnd}.sx{i}" for i in range(self.code.hx.nrows)]

    def z_labels(self, rnd: int) -> list[str]:
        return [f"{self.label_prefix}r{rnd}.sz{i}" for i in range(self.code.hz.nrows)]

    def round_circuit(self, rnd: int) -> Circuit:
        """Extraction circuit with measurement labels for round `rnd`, built once."""
        if rnd == 0:
            return self.extraction
        if rnd not in self._rounds:
            self._rounds[rnd] = self._relabelled(rnd)
        return self._rounds[rnd]

    def _relabelled(self, rnd: int) -> Circuit:
        rename = {}
        for a, b in zip(self.x_labels(0), self.x_labels(rnd)):
            rename[a] = b
        for a, b in zip(self.z_labels(0), self.z_labels(rnd)):
            rename[a] = b
        c = Circuit(self.extraction.wires)
        for layer in self.extraction.layers:
            c.add_layer(
                [
                    replace(g, out=rename.get(g.out, g.out)) if g.name == "measure" else g
                    for g in layer
                ]
            )
        return c


def build_ec(code: CssCode, s: int, data_wires: Sequence, label_prefix: str = "ec.") -> EcGadget:
    """Syndrome-extraction gadget: s rounds, one ancilla per check row.

    X checks use |+> ancillas with CNOTs ancilla->data; Z checks use |0>
    ancillas with CNOTs data->ancilla. CNOTs are scheduled by a proper
    bipartite edge coloring, so the CNOT depth equals the max degree of the
    check/qubit incidence graph. s = 0 yields an empty circuit. Gadgets are
    cached per (code, s, data wires, label prefix) and shared by every
    caller, with their circuits and compiled fault tables: treat them as
    read-only.
    """
    return _build_ec(code, s, tuple(data_wires), label_prefix)


@functools.lru_cache(maxsize=256)
def _build_ec(code: CssCode, s: int, data_wires: tuple, label_prefix: str) -> EcGadget:
    if len(data_wires) != code.n:
        raise ValueError("data wire count must equal n")
    anc_x = tuple(f"{label_prefix}ax{i}" for i in range(code.hx.nrows))
    anc_z = tuple(f"{label_prefix}az{i}" for i in range(code.hz.nrows))
    wires = list(data_wires) + list(anc_x) + list(anc_z)

    # X-check and Z-check CNOTs run in separate phases: CSS checks overlap on
    # an even number of qubits, so the ancilla-to-ancilla hook contributions
    # cancel pairwise and the ideal outcomes are the exact syndromes for any
    # within-phase ordering. Each phase is edge-colored to its max degree.
    hx = code.hx.to_dense()
    hz = code.hz.to_dense()
    x_edges = [
        (("ax", i), ("d", int(q)))
        for i in range(code.hx.nrows)
        for q in np.nonzero(hx[i])[0]
    ]
    z_edges = [
        (("az", j), ("d", int(q)))
        for j in range(code.hz.nrows)
        for q in np.nonzero(hz[j])[0]
    ]
    x_colors = _bipartite_edge_coloring(x_edges)
    z_colors = _bipartite_edge_coloring(z_edges)
    depth_x = (max(x_colors) + 1) if x_colors else 0
    depth_z = (max(z_colors) + 1) if z_colors else 0
    depth = depth_x + depth_z

    circ = Circuit(wires)
    if s > 0 and (anc_x or anc_z):
        circ.add_layer(
            [Gate("init0", (w,)) for w in anc_x + anc_z]
            + [Gate("idle", (w,)) for w in data_wires]
        )
        if anc_x:
            circ.add_layer(
                [Gate("h", (w,)) for w in anc_x]
                + [Gate("idle", (w,)) for w in data_wires + anc_z]
            )
        for layer_id in range(depth_x):
            gates = [
                Gate("cnot", (anc_x[chk], data_wires[q]))
                for ((_, chk), (_, q)), color in zip(x_edges, x_colors)
                if color == layer_id
            ]
            busy = {w for g in gates for w in g.wires}
            gates += [Gate("idle", (w,)) for w in wires if w not in busy]
            circ.add_layer(gates)
        for layer_id in range(depth_z):
            gates = [
                Gate("cnot", (data_wires[q], anc_z[chk]))
                for ((_, chk), (_, q)), color in zip(z_edges, z_colors)
                if color == layer_id
            ]
            busy = {w for g in gates for w in g.wires}
            gates += [Gate("idle", (w,)) for w in wires if w not in busy]
            circ.add_layer(gates)
        if anc_x:
            circ.add_layer(
                [Gate("h", (w,)) for w in anc_x]
                + [Gate("idle", (w,)) for w in data_wires + anc_z]
            )
        circ.add_layer(
            [Gate("measure", (w,), out=f"{label_prefix}r0.sx{i}") for i, w in enumerate(anc_x)]
            + [Gate("measure", (w,), out=f"{label_prefix}r0.sz{j}") for j, w in enumerate(anc_z)]
            + [Gate("idle", (w,)) for w in data_wires]
        )
    correction = Circuit(list(data_wires))
    correction.add_layer([Gate("idle", (w,)) for w in data_wires])
    return EcGadget(
        code=code,
        rounds=s,
        data_wires=data_wires,
        ancilla_x=anc_x,
        ancilla_z=anc_z,
        extraction=circ,
        label_prefix=label_prefix,
        cnot_depth=depth,
        correction_circuit=correction,
    )


# -- logical Bell processing ---------------------------------------------------------


@dataclass(frozen=True)
class BellOutcome:
    u: BitVector
    v: BitVector
    herald: bool


def logical_bell_process(code_r: CssCode, m1: BitVector, m2: BitVector) -> BellOutcome:
    """Classical processing of the transversal Bell measurement strings.

    m1 (X-basis readout of Q) is corrected to the nearest codeword of
    ker(H_X), m2 (Z-basis readout of A) to ker(H_Z); logical bits are then
    parities against the logical representatives. Herald when the correction
    distance reaches d/2 (decoding radius exceeded).
    """
    if m1.n != code_r.n or m2.n != code_r.n:
        raise ValueError("measurement strings must have length n")
    d = code_r.min_distance()[0]
    t1 = build_leader_table(code_r.hx)
    t2 = build_leader_table(code_r.hz)
    s1 = code_r.hx.mul_vec(m1).to_array().reshape(1, -1)
    s2 = code_r.hz.mul_vec(m2).to_array().reshape(1, -1)
    e1, w1 = t1.lookup(s1)
    e2, w2 = t2.lookup(s2)
    herald = bool(w1[0] < 0 or w2[0] < 0 or 2 * w1[0] >= d or 2 * w2[0] >= d)
    m1_hat = m1 ^ BitVector.from_bits(e1[0])
    m2_hat = m2 ^ BitVector.from_bits(e2[0])
    u = BitVector.from_bits([code_r.lx.row(j).dot(m1_hat) for j in range(code_r.m)])
    v = BitVector.from_bits([code_r.lz.row(j).dot(m2_hat) for j in range(code_r.m)])
    return BellOutcome(u=u, v=v, herald=herald)


# -- the partial decoding interface Gamma ---------------------------------------------


@dataclass(frozen=True)
class GammaKnobs:
    """Tunable structure of the interface circuit.

    proc_poly are polynomial coefficients in n_r giving the classical
    processing latency in layers (default: linear, latency = n_r).
    resource_ls_delta defaults to 2*delta (the prep oracle's certified
    parameter); resource_fail_prob is the oracle's global failure coin.
    """

    s1: int = 1
    s2: int = 1
    proc_poly: tuple = (0, 1)
    resource_ls_delta: Optional[float] = None
    resource_fail_prob: float = 0.0

    def __post_init__(self):
        # Plans are cached per knobs, so every field must be hashable.
        object.__setattr__(self, "proc_poly", tuple(self.proc_poly))

    def proc_layers(self, n: int) -> int:
        return int(sum(c * n**k for k, c in enumerate(self.proc_poly)))

    def to_json(self) -> dict:
        return {
            "s1": self.s1,
            "s2": self.s2,
            "proc_layers": list(self.proc_poly),
            "resource_oracle": {
                "ls_delta": self.resource_ls_delta,
                "fail_prob": self.resource_fail_prob,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GammaKnobs":
        oracle = obj.get("resource_oracle", {})
        return cls(
            s1=int(obj.get("s1", 1)),
            s2=int(obj.get("s2", 1)),
            proc_poly=tuple(obj.get("proc_layers", (0, 1))),
            resource_ls_delta=oracle.get("ls_delta"),
            resource_fail_prob=float(oracle.get("fail_prob", 0.0)),
        )


@dataclass(frozen=True)
class InterfaceCircuit:
    """The partial interface Gamma_{r,r'}: wires, fragments, decode tables."""

    family: CodeFamily
    r: int
    r_prime: int
    code_r: CssCode
    code_rp: CssCode
    blocks: int
    knobs: GammaKnobs
    q_wires: tuple
    a_wires: tuple
    b_wires: tuple          # flattened, block-major
    q_gadget: EcGadget
    b_gadgets: tuple        # per block (empty for r' = 1)
    bell_circuit: Circuit
    proc_wait_circuit: Circuit
    b_correction_circuit: Circuit
    m1_labels: tuple
    m2_labels: tuple
    # decode tables and rep matrices (dense uint8)
    table_q_x: LeaderTable   # H_X of level r (decodes m1)
    table_q_z: LeaderTable   # H_Z of level r (decodes m2)
    lxb: np.ndarray          # (m_r, |B|) X-rep of logical j on the B side
    lzb: np.ndarray
    latency_layers: int
    n_locations: int

    @property
    def all_wires(self) -> tuple:
        return (
            self.q_wires
            + self.q_gadget.ancilla_x
            + self.q_gadget.ancilla_z
            + self.a_wires
            + self.b_wires
            + tuple(w for g in self.b_gadgets for w in g.ancilla_x + g.ancilla_z)
        )

    @property
    def qubit_count(self) -> int:
        return len(self.all_wires)

    def block_wires(self, i: int) -> tuple:
        n = self.code_rp.n
        return self.b_wires[i * n : (i + 1) * n]

    @functools.cached_property
    def _resource(self) -> Tableau:
        return resource_state_tableau(self.code_r, self.code_rp, self.a_wires, self.b_wires)

    def resource_tableau(self) -> Tableau:
        """A fresh copy of the encoded Bell resource, built once per plan."""
        return self._resource.copy()


def resource_state_tableau(
    code_r: CssCode, code_rp: CssCode, a_wires: Sequence, b_wires: Sequence
) -> Tableau:
    """Tableau of the encoded Bell resource: m_r EPR pairs, A side in level r,
    B side split into m_r/m_{r'} level-r' blocks."""
    blocks = code_r.m // code_rp.m
    na, nb = code_r.n, code_rp.n * blocks
    labels = list(a_wires) + list(b_wires)
    gens = []
    zero_a = np.zeros(na, np.uint8)
    zero_b = np.zeros(nb, np.uint8)

    def emb(a_part, b_part):
        return np.concatenate([a_part, b_part]).astype(np.uint8)

    for x, z, s in code_r.stabilizer_generators():
        gens.append((emb(x, zero_b), emb(z, zero_b), s))
    for i in range(blocks):
        off = i * code_rp.n
        for x, z, s in code_rp.stabilizer_generators():
            bx, bz = zero_b.copy(), zero_b.copy()
            bx[off : off + code_rp.n] = x
            bz[off : off + code_rp.n] = z
            gens.append((emb(zero_a, bx), emb(zero_a, bz), s))
    lx_r = code_r.lx.to_dense()
    lz_r = code_r.lz.to_dense()
    lx_p = code_rp.lx.to_dense()
    lz_p = code_rp.lz.to_dense()
    for j in range(code_r.m):
        i, p = divmod(j, code_rp.m)
        off = i * code_rp.n
        bx, bz = zero_b.copy(), zero_b.copy()
        bx[off : off + code_rp.n] = lx_p[p]
        gens.append((emb(lx_r[j], bx), emb(np.zeros(na, np.uint8), zero_b), 0))
        bz[off : off + code_rp.n] = lz_p[p]
        gens.append((emb(zero_a, zero_b), emb(lz_r[j], bz), 0))
    return Tableau.from_generators(labels, gens)


@functools.lru_cache(maxsize=32)
def build_gamma(
    family: CodeFamily, r: int, r_prime: int, knobs: Optional[GammaKnobs] = None
) -> InterfaceCircuit:
    """Assemble Gamma_{r,r'} for one level-r input block.

    The output block count is m_r / m_{r'} (2^{r-r'} under the family's
    doubling property); m_{r'} must divide m_r. Plans are cached per
    (family, r, r', knobs) and shared by every caller: treat them as
    read-only.
    """
    if not 1 <= r_prime < r <= family.depth:
        raise ValueError("need 1 <= r' < r <= family depth")
    knobs = knobs or GammaKnobs()
    code_r = family.level(r)
    code_rp = family.level(r_prime)
    if code_r.m % code_rp.m:
        raise ValueError("m_r must be a multiple of m_{r'}")
    blocks = code_r.m // code_rp.m

    q_wires = tuple(f"q{i}" for i in range(code_r.n))
    a_wires = tuple(f"a{i}" for i in range(code_r.n))
    b_wires = tuple(
        f"b{i}.{p}" for i in range(blocks) for p in range(code_rp.n)
    )
    q_gadget = build_ec(code_r, knobs.s1, q_wires, label_prefix="q.")
    if r_prime > 1:
        b_gadgets = tuple(
            build_ec(
                code_rp,
                knobs.s2,
                b_wires[i * code_rp.n : (i + 1) * code_rp.n],
                label_prefix=f"b{i}.",
            )
            for i in range(blocks)
        )
    else:
        b_gadgets = tuple()

    # Transversal Bell measurement: CNOT Q->A, H on Q, measure Q and A.
    bell_wires = list(q_wires) + list(a_wires) + list(b_wires)
    m1_labels = tuple(f"m1.{i}" for i in range(code_r.n))
    m2_labels = tuple(f"m2.{i}" for i in range(code_r.n))
    bell = Circuit(bell_wires)
    bell.add_layer(
        [Gate("cnot", (q, a)) for q, a in zip(q_wires, a_wires)]
        + [Gate("idle", (w,)) for w in b_wires]
    )
    bell.add_layer(
        [Gate("h", (q,)) for q in q_wires]
        + [Gate("idle", (w,)) for w in list(a_wires) + list(b_wires)]
    )
    bell.add_layer(
        [Gate("measure", (q,), out=m1_labels[i]) for i, q in enumerate(q_wires)]
        + [Gate("measure", (a,), out=m2_labels[i]) for i, a in enumerate(a_wires)]
        + [Gate("idle", (w,)) for w in b_wires]
    )

    # Classical-processing latency: idle layers on B beyond the EC rounds.
    wait = knobs.proc_layers(code_r.n)
    ec_depth = b_gadgets[0].extraction.depth if b_gadgets else 0
    idle_layers = max(0, wait - knobs.s2 * ec_depth) if r_prime > 1 else wait
    proc_wait = Circuit(list(b_wires))
    for _ in range(idle_layers):
        proc_wait.add_layer([Gate("idle", (w,)) for w in b_wires])

    b_corr = Circuit(list(b_wires))
    b_corr.add_layer([Gate("idle", (w,)) for w in b_wires])

    lx_p = code_rp.lx.to_dense()
    lz_p = code_rp.lz.to_dense()
    nb = len(b_wires)
    lxb = np.zeros((code_r.m, nb), np.uint8)
    lzb = np.zeros((code_r.m, nb), np.uint8)
    for j in range(code_r.m):
        i, p = divmod(j, code_rp.m)
        lxb[j, i * code_rp.n : (i + 1) * code_rp.n] = lx_p[p]
        lzb[j, i * code_rp.n : (i + 1) * code_rp.n] = lz_p[p]
    lxb.flags.writeable = lzb.flags.writeable = False  # the plan is cached and shared

    latency = (
        knobs.s1 * (q_gadget.extraction.depth + 1)
        + bell.depth
        + knobs.s2 * (ec_depth + 1 if b_gadgets else 0)
        + proc_wait.depth
        + b_corr.depth
    )
    n_locations = (
        knobs.s1 * (q_gadget.extraction.n_locations + q_gadget.correction_circuit.n_locations)
        + bell.n_locations
        + sum(knobs.s2 * (g.extraction.n_locations + g.correction_circuit.n_locations) for g in b_gadgets)
        + proc_wait.n_locations
        + b_corr.n_locations
    )
    return InterfaceCircuit(
        family=family,
        r=r,
        r_prime=r_prime,
        code_r=code_r,
        code_rp=code_rp,
        blocks=blocks,
        knobs=knobs,
        q_wires=q_wires,
        a_wires=a_wires,
        b_wires=b_wires,
        q_gadget=q_gadget,
        b_gadgets=b_gadgets,
        bell_circuit=bell,
        proc_wait_circuit=proc_wait,
        b_correction_circuit=b_corr,
        m1_labels=m1_labels,
        m2_labels=m2_labels,
        table_q_x=build_leader_table(code_r.hx),
        table_q_z=build_leader_table(code_r.hz),
        lxb=lxb,
        lzb=lzb,
        latency_layers=latency,
        n_locations=n_locations,
    )


# -- exact (tableau) execution --------------------------------------------------------


@dataclass
class GammaReference:
    """Record of one exact run: outcomes, decoded logicals, output tableau."""

    output: Tableau
    outcomes: dict
    bell: BellOutcome
    ec_corrections: list[DecodeResult]
    heralds: bool
    m1_in_code: bool
    m2_in_code: bool


def _run_ec_tableau(
    gadget: EcGadget, state: Tableau, outcomes: dict, rng, corrections_log: list
):
    from . import circuit as circ

    for rnd in range(gadget.rounds):
        circ.run_noisy(gadget.round_circuit(rnd), state, rng=rng, outcomes=outcomes)
        syn_x = BitVector.from_bits([outcomes[l] for l in gadget.x_labels(rnd)]) if gadget.code.hx.nrows else BitVector.zeros(0)
        syn_z = BitVector.from_bits([outcomes[l] for l in gadget.z_labels(rnd)]) if gadget.code.hz.nrows else BitVector.zeros(0)
        res = decode_syndrome(gadget.code, syn_x, syn_z)
        corrections_log.append(res)
        ex = res.correction.x.to_array() if not res.herald_x else np.zeros(gadget.code.n, np.uint8)
        ez = res.correction.z.to_array() if not res.herald_z else np.zeros(gadget.code.n, np.uint8)
        for q, w in enumerate(gadget.data_wires):
            if ex[q] or ez[q]:
                xb = np.zeros(state.n, np.uint8)
                zb = np.zeros(state.n, np.uint8)
                qi = state.index(w)
                xb[qi], zb[qi] = ex[q], ez[q]
                state.apply_pauli(xb, zb)


def run_gamma_tableau(
    plan: InterfaceCircuit,
    state: Tableau,
    rng: Optional[np.random.Generator] = None,
) -> GammaReference:
    """Noiseless exact execution of Gamma, in place on `state`.

    The encoded input lives on plan.q_wires (apply injected input errors to
    it beforehand); other wires of `state` are spectators (sibling blocks of
    a chain) and must not collide with the plan's resource wires. On return
    `state` (also the reference's `output`) holds the B wires and the
    spectators. Pass a copy to keep the input.
    """
    from . import circuit as circ

    rng = rng or np.random.default_rng(0)
    outcomes: dict = {}
    ec_log: list[DecodeResult] = []

    _run_ec_tableau(plan.q_gadget, state, outcomes, rng, ec_log)
    resource = plan.resource_tableau()
    if set(map(str, state.labels)) & set(map(str, resource.labels)):
        raise ValueError("gamma wires collide with spectator wires")
    merged = state.tensor(resource)
    state.labels, state.xs, state.zs, state.signs = merged.labels, merged.xs, merged.zs, merged.signs
    circ.run_noisy(plan.bell_circuit, state, rng=rng, outcomes=outcomes)

    m1 = BitVector.from_bits([outcomes[l] for l in plan.m1_labels])
    m2 = BitVector.from_bits([outcomes[l] for l in plan.m2_labels])
    m1_in_code = plan.code_r.hx.mul_vec(m1).weight() == 0
    m2_in_code = plan.code_r.hz.mul_vec(m2).weight() == 0
    bell = logical_bell_process(plan.code_r, m1, m2)

    for g in plan.b_gadgets:
        _run_ec_tableau(g, state, outcomes, rng, ec_log)
    circ.run_noisy(plan.proc_wait_circuit, state, rng=rng, outcomes=outcomes)

    # Teleportation correction: Z^u on the m1-decoded bits, X^v on m2's.
    u = bell.u.to_array()
    v = bell.v.to_array()
    corr_x = (v @ plan.lxb) % 2
    corr_z = (u @ plan.lzb) % 2
    xb = np.zeros(state.n, np.uint8)
    zb = np.zeros(state.n, np.uint8)
    for k, w in enumerate(plan.b_wires):
        qi = state.index(w)
        xb[qi], zb[qi] = corr_x[k], corr_z[k]
    state.apply_pauli(xb, zb)
    circ.run_noisy(plan.b_correction_circuit, state, rng=rng, outcomes=outcomes)

    return GammaReference(
        output=state,
        outcomes=outcomes,
        bell=bell,
        ec_corrections=ec_log,
        heralds=bell.herald,
        m1_in_code=m1_in_code,
        m2_in_code=m2_in_code,
    )


def expected_output_tableau(plan: InterfaceCircuit, logical: Tableau) -> Tableau:
    """Encoded reference: the m_r-qubit logical tableau lifted to the B blocks.

    Uses the block-embedded representative matrices, with exact phase
    tracking where representatives overlap inside a block.
    """
    from .css import lift_with_reps

    gens = []
    nb = len(plan.b_wires)
    code = plan.code_rp
    for i in range(plan.blocks):
        off = i * code.n
        for x, z, s in code.stabilizer_generators():
            bx = np.zeros(nb, np.uint8)
            bz = np.zeros(nb, np.uint8)
            bx[off : off + code.n] = x
            bz[off : off + code.n] = z
            gens.append((bx, bz, s))
    for row in range(logical.n):
        x, z, s = lift_with_reps(plan.lxb, plan.lzb, logical.xs[row], logical.zs[row])
        gens.append((x, z, s ^ int(logical.signs[row])))
    return Tableau.from_generators(list(plan.b_wires), gens)


# -- Monte Carlo (frame) execution ------------------------------------------------------


@dataclass
class ChunkStats:
    trials: int = 0
    failures: int = 0
    heralds: int = 0
    weight_overflows: int = 0
    logical_errors: int = 0
    block_weight_hist: Optional[np.ndarray] = None  # (blocks, n_rp + 1)
    out_qubit_errors: Optional[np.ndarray] = None   # per B wire counts

    def merge(self, other: "ChunkStats") -> "ChunkStats":
        if self.block_weight_hist is None:
            return other
        return ChunkStats(
            trials=self.trials + other.trials,
            failures=self.failures + other.failures,
            heralds=self.heralds + other.heralds,
            weight_overflows=self.weight_overflows + other.weight_overflows,
            logical_errors=self.logical_errors + other.logical_errors,
            block_weight_hist=self.block_weight_hist + other.block_weight_hist,
            out_qubit_errors=self.out_qubit_errors + other.out_qubit_errors,
        )


def _coset_elements(basis: BitMatrix) -> np.ndarray:
    """All 2^k stabilizer combinations as dense rows, for k <= MAX_TABLE_ROWS."""
    k, n = basis.nrows, basis.ncols
    if k > MAX_TABLE_ROWS:
        raise ValueError(f"coset enumeration too large for {k} stabilizer generators")
    dense = basis.to_dense()
    out = np.zeros((1 << k, n), dtype=np.uint8)
    for i in range(1, 1 << k):
        out[i] = out[i ^ (i & -i)] ^ dense[(i & -i).bit_length() - 1]
    return out


@dataclass(frozen=True)
class _FrameTables:
    """Precomputed per-level decode machinery for trial classification."""

    stab_x: np.ndarray  # coset elements of rowspace(H_X)
    stab_z: np.ndarray
    table_x: LeaderTable  # leader for H_Z syndromes (X errors)
    table_z: LeaderTable  # leader for H_X syndromes (Z errors)
    lx: np.ndarray
    lz: np.ndarray
    hx: np.ndarray
    hz: np.ndarray


@functools.lru_cache(maxsize=64)
def _frame_tables(code: CssCode) -> _FrameTables:
    arrays = dict(
        stab_x=_coset_elements(code.x_stabilizer_basis()),
        stab_z=_coset_elements(code.z_stabilizer_basis()),
        lx=code.lx.to_dense(),
        lz=code.lz.to_dense(),
        hx=code.hx.to_dense(),
        hz=code.hz.to_dense(),
    )
    for a in arrays.values():
        a.flags.writeable = False  # shared by every caller of the cache
    return _FrameTables(
        table_x=build_leader_table(code.hz), table_z=build_leader_table(code.hx), **arrays
    )


def _reduced_weights(e: np.ndarray, cosets: np.ndarray) -> np.ndarray:
    """Min Hamming weight of e xor each coset element, per trial."""
    # e: (T, n), cosets: (C, n) -> (T,); rows packed into uint64 words, so the
    # work array is T x C x ceil(n / 64) words.
    n = e.shape[1]
    pe, pc = gf2._pack(e, n), gf2._pack(cosets, n)
    return np.bitwise_count(pe[:, None, :] ^ pc[None, :, :]).sum(axis=2).min(axis=1)


def _flip_rows(batch: FrameBatch, labels: Sequence[str]) -> np.ndarray:
    """Outcome flips of `labels` stacked as (labels, trials) rows."""
    if not labels:
        return np.zeros((0, batch.trials), np.uint8)
    return np.stack([batch.flips[l] for l in labels])


def _ec_frame_round(
    gadget: EcGadget,
    batch: FrameBatch,
    runner: FrameRunner,
    rnd: int,
    tag: int,
    tables: _FrameTables,
    data_rows: slice,
):
    runner.run(gadget.round_circuit(rnd), batch, tag=tag)
    sx = _flip_rows(batch, gadget.x_labels(rnd))  # (X checks, trials)
    sz = _flip_rows(batch, gadget.z_labels(rnd))
    d = gadget.code.min_distance()[0]
    ez, wz = tables.table_z.lookup(sx.T)  # X checks flag Z errors
    ex, wx = tables.table_x.lookup(sz.T)
    apply_z = ((wz >= 0) & (2 * wz < d)).astype(np.uint8)
    apply_x = ((wx >= 0) & (2 * wx < d)).astype(np.uint8)
    batch.x.T[data_rows] ^= ex.T & apply_x
    batch.z.T[data_rows] ^= ez.T & apply_z
    runner.run(gadget.correction_circuit, batch, tag=tag + 1)


@dataclass
class GammaFrameRun:
    """Frame-level result of one Gamma pass: output frames and heralds.

    out_x/out_z are (trials, |B|) views of wire-major arrays, as in `FrameBatch`.
    """

    out_x: np.ndarray  # (trials, |B|)
    out_z: np.ndarray
    herald: np.ndarray  # (trials,) bool


def gamma_frames(
    plan: InterfaceCircuit,
    params: NoiseParams,
    trials: int,
    chunk: int = 0,
    tag_base: int = 0,
    oracle_stream: int = 0,
    input_frames: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> GammaFrameRun:
    """Vectorized frame propagation of one Gamma pass over a trial batch.

    The reference run is the clean execution (zero syndromes, logical
    outcomes fixed by one tableau pass); frames track each trial's
    difference, so syndrome flips are the trial syndromes directly and the
    teleportation correction enters as the decoded logical difference.
    `tag_base`/`oracle_stream` keep fault streams distinct when several
    Gamma instances run inside one composite plan.
    """
    runner = FrameRunner(params, chunk=chunk)
    batch = FrameBatch(plan.all_wires, trials)
    tables_r = _frame_tables(plan.code_r)
    tables_p = _frame_tables(plan.code_rp)
    q_rows = batch.block(plan.q_wires)
    if input_frames is not None:
        ex, ez = input_frames
        batch.x[:, q_rows] ^= ex.astype(np.uint8)
        batch.z[:, q_rows] ^= ez.astype(np.uint8)

    tag = tag_base
    for rnd in range(plan.knobs.s1):
        _ec_frame_round(plan.q_gadget, batch, runner, rnd, tag, tables_r, q_rows)
        tag += 2

    # Resource oracle: local stochastic noise on A and B plus a failure coin.
    ab_wires = plan.a_wires + plan.b_wires
    ab_rows = batch.block(ab_wires)
    ls_delta = (
        plan.knobs.resource_ls_delta
        if plan.knobs.resource_ls_delta is not None
        else min(1.0, 2.0 * params.delta)
    )
    rng_o = rng_stream(params.seed, STREAM_ORACLE, oracle_stream, chunk)
    if ls_delta > 0.0:
        ox, oz = sample_ls_bits(len(ab_wires), ls_delta, rng_o, trials)
        batch.x.T[ab_rows] ^= ox.T
        batch.z.T[ab_rows] ^= oz.T
    if plan.knobs.resource_fail_prob > 0.0:
        fail = (rng_o.random(trials) < plan.knobs.resource_fail_prob).astype(np.uint8)
        if fail.any():
            rx = rng_o.integers(0, 2, size=(trials, len(ab_wires))).astype(np.uint8)
            rz = rng_o.integers(0, 2, size=(trials, len(ab_wires))).astype(np.uint8)
            batch.x.T[ab_rows] ^= rx.T & fail
            batch.z.T[ab_rows] ^= rz.T & fail

    runner.run(plan.bell_circuit, batch, tag=tag)
    tag += 1

    # Bell decoding on (qubits, trials) rows, as are the lift and corrections.
    m1_flips = _flip_rows(batch, plan.m1_labels)
    m2_flips = _flip_rows(batch, plan.m2_labels)
    s1 = gf2.mul_bits(tables_r.hx, m1_flips)
    s2 = gf2.mul_bits(tables_r.hz, m2_flips)
    e1, w1 = plan.table_q_x.lookup(s1.T)
    e2, w2 = plan.table_q_z.lookup(s2.T)
    d_r = plan.code_r.min_distance()[0]
    herald = (w1 < 0) | (w2 < 0) | (2 * w1 >= d_r) | (2 * w2 >= d_r)
    du = gf2.mul_bits(tables_r.lx, m1_flips ^ e1.T)  # (m_r, trials)
    dv = gf2.mul_bits(tables_r.lz, m2_flips ^ e2.T)

    for g in plan.b_gadgets:
        rows = batch.block(g.data_wires)
        for rnd in range(plan.knobs.s2):
            _ec_frame_round(g, batch, runner, rnd, tag, tables_p, rows)
            tag += 2
    runner.run(plan.proc_wait_circuit, batch, tag=tag)
    tag += 1

    # Logical correction difference: Z^{du} X^{dv} lifted onto the B blocks.
    b_rows = batch.block(plan.b_wires)
    batch.z.T[b_rows] ^= gf2.mul_bits(plan.lzb.T, du)
    batch.x.T[b_rows] ^= gf2.mul_bits(plan.lxb.T, dv)
    runner.run(plan.b_correction_circuit, batch, tag=tag)
    return GammaFrameRun(
        out_x=batch.x.T[b_rows].copy().T,
        out_z=batch.z.T[b_rows].copy().T,
        herald=herald.astype(bool),
    )


def classify_gamma_output(
    plan: InterfaceCircuit, run: GammaFrameRun, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (overflow, logical, histogram) classification of residuals."""
    tables_p = _frame_tables(plan.code_rp)
    trials = run.out_x.shape[0]
    n_p = plan.code_rp.n
    overflow = np.zeros(trials, dtype=bool)
    logical = np.zeros(trials, dtype=bool)
    hist = np.zeros((plan.blocks, n_p + 1), dtype=np.int64)
    for i in range(plan.blocks):
        sl = slice(i * n_p, (i + 1) * n_p)
        ex = run.out_x[:, sl]
        ez = run.out_z[:, sl]
        rw = np.maximum(
            _reduced_weights(ex, tables_p.stab_x), _reduced_weights(ez, tables_p.stab_z)
        )
        overflow |= rw > mu * n_p
        ehat_z, _ = tables_p.table_z.lookup(gf2.mul_bits(ez, tables_p.hx.T))
        ehat_x, _ = tables_p.table_x.lookup(gf2.mul_bits(ex, tables_p.hz.T))
        logical |= gf2.mul_bits(ex ^ ehat_x, tables_p.lz.T).any(axis=1)
        logical |= gf2.mul_bits(ez ^ ehat_z, tables_p.lx.T).any(axis=1)
        np.add.at(hist[i], rw, 1)
    return overflow, logical, hist


def run_gamma_chunk(
    plan: InterfaceCircuit,
    params: NoiseParams,
    trials: int,
    mu: float,
    chunk: int = 0,
    input_error: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> ChunkStats:
    """One vectorized chunk of Monte Carlo trials over fault patterns."""
    run = gamma_frames(plan, params, trials, chunk=chunk, input_frames=input_error)
    overflow, logical, hist = classify_gamma_output(plan, run, mu)
    failures = run.herald | overflow | logical
    out_err = ((run.out_x | run.out_z) != 0).sum(axis=0)
    return ChunkStats(
        trials=trials,
        failures=int(failures.sum()),
        heralds=int(run.herald.sum()),
        weight_overflows=int(overflow.sum()),
        logical_errors=int(logical.sum()),
        block_weight_hist=hist,
        out_qubit_errors=out_err.astype(np.int64),
    )


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = failures / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class TauEstimate:
    """Monte Carlo estimate of the interface failure parameter."""

    r: int
    r_prime: int
    delta: float
    seed: int
    trials: int
    failures: int
    heralds: int
    weight_overflows: int
    logical_errors: int
    rate: float
    wilson_lo: float
    wilson_hi: float
    mu: float
    block_weight_hist: np.ndarray
    out_qubit_error_rate: np.ndarray
    latency_layers: int
    pauli_twirl: bool = True

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "r_prime": self.r_prime,
            "delta": self.delta,
            "seed": self.seed,
            "trials": self.trials,
            "failures": self.failures,
            "heralds": self.heralds,
            "weight_overflows": self.weight_overflows,
            "logical_errors": self.logical_errors,
            "rate": self.rate,
            "wilson_lo": self.wilson_lo,
            "wilson_hi": self.wilson_hi,
            "mu": self.mu,
            "block_weight_hist": self.block_weight_hist.tolist(),
            "out_qubit_error_rate": self.out_qubit_error_rate.tolist(),
            "latency_layers": self.latency_layers,
            "pauli_twirl": self.pauli_twirl,
        }


def _chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    full, rem = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def _chunk_job(args):
    plan, params, size, mu, chunk = args
    return run_gamma_chunk(plan, params, size, mu, chunk=chunk)


def estimate_tau(
    family: CodeFamily,
    r: int,
    r_prime: int,
    params: NoiseParams,
    trials: int,
    mu: float,
    knobs: Optional[GammaKnobs] = None,
    chunk_size: int = 10_000,
    workers: int = 1,
) -> TauEstimate:
    """Monte Carlo failure estimate for Gamma_{r,r'} under circuit noise.

    A trial fails when (a) the Bell processing heralds, (b) any output
    block's residual reduced weight exceeds mu * n_{r'}, or (c) a logical
    outcome is wrong after ideal decoding. Deterministic in (seed, config);
    the chunk size is part of the configuration, so worker count never
    changes the result.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    plan = build_gamma(family, r, r_prime, knobs)
    jobs = [
        (plan, params, size, mu, chunk)
        for chunk, size in enumerate(_chunk_sizes(trials, chunk_size))
    ]
    if workers > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_chunk_job, jobs)
    else:
        results = [_chunk_job(j) for j in jobs]
    stats = ChunkStats()
    for res in results:
        stats = stats.merge(res)
    lo, hi = wilson_interval(stats.failures, stats.trials)
    return TauEstimate(
        r=r,
        r_prime=r_prime,
        delta=params.delta,
        seed=params.seed,
        trials=stats.trials,
        failures=stats.failures,
        heralds=stats.heralds,
        weight_overflows=stats.weight_overflows,
        logical_errors=stats.logical_errors,
        rate=stats.failures / stats.trials,
        wilson_lo=lo,
        wilson_hi=hi,
        mu=mu,
        block_weight_hist=stats.block_weight_hist,
        out_qubit_error_rate=stats.out_qubit_errors / stats.trials,
        latency_layers=plan.latency_layers,
        pauli_twirl=params.pauli_twirl,
    )
