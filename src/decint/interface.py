"""Error-correction gadgets and teleportation-based partial decoding interfaces.

`build_ec` assembles one round of the syndrome-extraction gadget (one
ancilla per check, CNOT schedule from a proper bipartite edge coloring);
`ec_rounds` runs it as many rounds as its caller asks. `build_gamma` assembles
the partial interface that maps one level-r block onto m_r/m_{r'} level-r'
blocks through an encoded Bell resource and a logical Bell measurement. The
resource (`InterfaceCircuit.resource_tableau`) and the exact reference output
(`expected_output_tableau`) are logical tableaus put on their blocks by
`css.encoded_tableau`.

One walk, `gamma_pass`, runs the interface on two engines. An engine holds
only what differs between them: how a fragment runs, how outcome bits are
read as (labels, trials) rows, how a Pauli given as (wires, trials) rows
lands on named wires, and how the Bell resource enters. `TableauEngine` is
the exact oracle: a signed tableau, one state or a batch sharing one x/z
part, and absolute outcomes. `FrameEngine` is the Monte Carlo: a trial
batch of Pauli frames and outcome flips, whose resource oracle adds local
stochastic noise and a global failure coin to the ideal encoded Bell
state. The clean reference run has zero syndromes, so decoding flips is
the same arithmetic as decoding absolute outcomes: syndromes, leader-table
decoding and its herald rule, the logical Bell bits and the corrections
are written once. Decoding runs as circuit-external callbacks between
fragments. Blocks that a walk carries between passes are engine handles:
`load` puts one on given wires of a fragment's wire set and `save` takes
one off. `decode_syndrome` is the one caller of `LeaderTable.lookup`.
Frame trials are then classified into the success/failure branches to
estimate the failure parameter tau from one `CosetTable` per code and
sector: indexed by the syndrome and logical bits of a residual, it holds
the residual's stabilizer-reduced weight and whether its syndrome's leader
leaves a logical error. Both tables come from `build_leader_table`, one
weight-ordered enumeration, and are built once per code. Check and logical
matrices are read straight from the codes' read-only arrays. `run_chunks`
is the one chunked Monte Carlo loop, for `estimate_tau` here and for
`e2e.run_e2e_frames`.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import circuit, css, gf2
from .css import CodeFamily, CssCode
from .circuit import Circuit, FrameBatch, FrameRunner, Gate, idle_circuit, with_idles
from .noise import STREAM_ORACLE, NoiseParams, rng_stream, sample_ls_hits
from .tableau import Tableau

MAX_TABLE_ROWS = 14  # leader and coset tables are dense in 2^{#rows}
MAX_TABLE_SUPPORTS = 1 << 24  # worst-case supports one leader table may enumerate


# -- coset-leader syndrome decoding ------------------------------------------------


class LeaderTable(NamedTuple):
    """Minimum-weight coset representative for every syndrome of H.

    Indexed by the syndrome bits packed little-endian over the rows of H.
    Unreachable syndromes carry weight -1. The leaders are stored
    row-major, one row of n bits per syndrome, so a batch lookup gathers
    whole rows (`take(axis=0)`, one contiguous copy of n bytes per trial)
    and transposes the result once into (n, trials); gathering one byte per
    trial from each of n qubit rows (`take(axis=1)` on the transposed table)
    takes about ten times as long.
    """

    h: np.ndarray  # (rows, n) check matrix
    errors: np.ndarray  # (2^rows, n) uint8; row s is the leader of syndrome s
    weights: np.ndarray  # (2^rows,) int16, -1 where unreachable

    def lookup(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized decode: syndromes (trials, rows) -> (errors, weights).

        `errors` is a C-contiguous (n, trials) array, the layout of
        `FrameBatch`: errors[q] is one qubit over all trials.
        """
        idx = gf2.mul_count(syndromes, 1 << np.arange(len(self.h)))
        return np.ascontiguousarray(self.errors.take(idx, axis=0).T), self.weights.take(idx)


# Supports per block of the vectorised enumeration in `build_leader_table`.
SUPPORT_BLOCK = 1 << 12


def _supports(n: int, w: int):
    """The weight-w supports on n qubits in `itertools.combinations` order, as
    (count, w) index arrays of at most SUPPORT_BLOCK rows."""
    combos = itertools.combinations(range(n), w)
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, SUPPORT_BLOCK)), np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, w)


def check_table(h: np.ndarray, coset: bool = False) -> None:
    """Raise ValueError unless `build_leader_table(h)` fits: h has at most
    MAX_TABLE_ROWS rows, and the worst case of its enumeration stays within
    MAX_TABLE_SUPPORTS supports. Every reachable syndrome has a leader of
    weight at most rank h, so that worst case is sum_{w <= rank h} C(n, w).
    `coset` names the rows of a coset table's [H; L] in the message."""
    rows, n = h.shape
    if rows > MAX_TABLE_ROWS:
        what = ("checks and logicals in one sector; coset tables classify" if coset
                else "checks in one sector; leader tables decode")
        raise ValueError(f"{rows} {what} at most {MAX_TABLE_ROWS}")
    rank = gf2.rank(h)
    supports = sum(math.comb(n, w) for w in range(1, rank + 1))
    if supports > MAX_TABLE_SUPPORTS:
        raise ValueError(f"{n} qubits at rank {rank} in one sector; its leader table search may enumerate "
                         f"{supports} supports, more than MAX_TABLE_SUPPORTS = {MAX_TABLE_SUPPORTS}")


def build_leader_table(h: np.ndarray) -> LeaderTable:
    """Leaders of every syndrome of h: the first error of least weight, in
    `itertools.combinations` order, with that syndrome. `check_table` refuses
    an h whose table is too large to build.

    The supports of one weight are enumerated as arrays in blocks of at most
    SUPPORT_BLOCK, each syndrome the XOR of the packed columns of h its
    support picks: a few array ops per block, then one pass in Python over
    the supports whose syndrome is still open. (`np.unique` would find the
    first support of each syndrome as fast, but its sort adds about 0.3 MB
    to a process's resident code.)
    """
    check_table(h)
    rows, n = h.shape
    size = 1 << rows
    column_syndromes = gf2.mul_count(h.T, 1 << np.arange(rows))
    errors = np.zeros((size, n), dtype=np.uint8)
    weights = np.full(size, -1, dtype=np.int16)
    weights[0] = 0  # the empty support
    reachable, filled = 1 << gf2.rank(h), 1
    for w in range(1, n + 1):
        if filled == reachable:
            break
        for support in _supports(n, w):
            syn = np.bitwise_xor.reduce(column_syndromes[support], axis=1)
            todo = np.flatnonzero(weights[syn] < 0)
            first: dict = {}  # syndrome -> its first support in the block, for syndromes still open
            for s, i in zip(syn[todo].tolist(), todo.tolist()):
                first.setdefault(s, i)
            syn, pick = np.array(list(first.items()), np.intp).reshape(-1, 2).T
            errors[syn[:, None], support[pick]] = 1
            weights[syn] = w
            filled += syn.size
            if filled == reachable:
                break
    errors.flags.writeable = weights.flags.writeable = False  # the table is cached and shared
    return LeaderTable(h=h, errors=errors, weights=weights)


class CosetTable(NamedTuple):
    """Every coset of the stabilizer group in one sector, indexed by [H; L]·e.

    For a CSS code, {e : He = s, Le = l} is exactly one coset of the
    stabilizers of the other type, so the index, the syndrome bits
    little-endian then the logical bits, names the coset of e. Entry i holds
    the coset's least weight (-1 where no error has that index) and whether
    the leader of its syndrome (see `LeaderTable`) leaves a logical error.
    """

    checks: np.ndarray  # (rows + m, n) [H; L]
    weights: np.ndarray  # (2^(rows + m),) int16
    logical: np.ndarray  # (2^(rows + m),) bool

    def classify(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least coset weights and logical flags of (n, trials) errors, the
        layout of `FrameBatch`."""
        idx = gf2.mul_count(gf2.mul_bits(self.checks, e).T, 1 << np.arange(len(self.checks)))
        return self.weights.take(idx), self.logical.take(idx)


def build_coset_table(leaders: LeaderTable, l: np.ndarray) -> CosetTable:
    """The coset table of the sector whose checks `leaders` decodes, with
    logical representatives l (m, n): its weights are the leader weights of
    the stacked checks [H; L], so it is exact whenever that table fits."""
    rows = len(leaders.h)
    checks = np.concatenate([leaders.h, l])
    weights = build_leader_table(checks).weights
    # The logical class of each syndrome's leader, against the class in the index.
    leader_class = gf2.mul_count(gf2.mul_bits(leaders.errors, l.T), 1 << np.arange(len(l)))
    idx = np.arange(len(weights))
    logical = (idx >> rows) != leader_class[idx & ((1 << rows) - 1)]
    checks.flags.writeable = logical.flags.writeable = False  # the table is cached and shared
    return CosetTable(checks=checks, weights=weights, logical=logical)


class _FrameTables(NamedTuple):
    """Per-code leader tables, built once per code and read-only. The check
    and logical matrices are read from the code itself."""

    table_x: LeaderTable  # leader for H_Z syndromes (X errors)
    table_z: LeaderTable  # leader for H_X syndromes (Z errors)


@functools.lru_cache(maxsize=64)
def _frame_tables(code: CssCode) -> _FrameTables:
    return _FrameTables(table_x=build_leader_table(code.hz), table_z=build_leader_table(code.hx))


@functools.lru_cache(maxsize=64)
def _coset_tables(code: CssCode) -> tuple[CosetTable, CosetTable]:
    """The (X-error, Z-error) coset tables of a code whose residuals are
    classified; only such a code needs them, so they are built apart from
    the leader tables."""
    tables = _frame_tables(code)
    return build_coset_table(tables.table_x, code.lz), build_coset_table(tables.table_z, code.lx)


def decode_syndrome(code: CssCode, syn_x: np.ndarray, syn_z: np.ndarray):
    """Leaders and heralds for (X-check, Z-check) syndromes, (rows, trials) each.

    Returns (ex, ez, herald_x, herald_z): (n, trials) X and Z corrections
    and (trials,) flags. X-check outcomes locate Z errors and vice versa.
    Any true error of reduced weight < d/2 decodes to a residual inside the
    stabilizer group. A sector heralds when no coset leader exists within
    the certified radius floor((d-1)/2); the leader (if any) is still
    reported, but EC rounds abstain from applying a heralded sector so that
    an ambiguous detection never grows the residual reduced weight.
    """
    if len(syn_x) != len(code.hx) or len(syn_z) != len(code.hz):
        raise ValueError("syndrome rows must match check counts")
    d = code.min_distance()[0]
    tables = _frame_tables(code)
    ez, wz = tables.table_z.lookup(syn_x.T)
    ex, wx = tables.table_x.lookup(syn_z.T)
    herald_x, herald_z = ((w < 0) | (2 * w >= d) for w in (wx, wz))
    return ex, ez, herald_x, herald_z


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


class EcGadget(NamedTuple):
    """One error-correction round: extraction circuit + decode metadata.

    `ec_rounds` runs it a given number of times. Every round runs
    `extraction`, which labels its outcomes per check with `x_labels` and
    `z_labels`; a walk reads them before the next round. The decoder call
    and Pauli correction are circuit-external; the correction layer's noise
    is carried by `correction_circuit` (one layer of idle locations over the
    data wires).
    """

    code: CssCode
    data_wires: tuple
    ancilla_x: tuple
    ancilla_z: tuple
    extraction: Circuit
    x_labels: tuple
    z_labels: tuple
    correction_circuit: Circuit

    @property
    def wires(self) -> tuple:
        return self.data_wires + self.ancilla_x + self.ancilla_z


def build_ec(code: CssCode, data_wires: Sequence, label_prefix: str = "ec.") -> EcGadget:
    """Syndrome-extraction gadget: one round, one ancilla per check row.

    X checks use |+> ancillas with CNOTs ancilla->data; Z checks use |0>
    ancillas with CNOTs data->ancilla. CNOTs are scheduled by a proper
    bipartite edge coloring, so the CNOT depth equals the max degree of the
    check/qubit incidence graph. The caller picks the round count
    (`ec_rounds`). Gadgets are cached per (code, data wires, label prefix)
    and shared by every caller, with their circuits and compiled fault
    tables: treat them as read-only.
    """
    return _build_ec(code, tuple(data_wires), label_prefix)


@functools.lru_cache(maxsize=256)
def _build_ec(code: CssCode, data_wires: tuple, label_prefix: str) -> EcGadget:
    if len(data_wires) != code.n:
        raise ValueError("data wire count must equal n")
    anc_x = tuple(f"{label_prefix}ax{i}" for i in range(len(code.hx)))
    anc_z = tuple(f"{label_prefix}az{i}" for i in range(len(code.hz)))
    x_labels = tuple(f"{label_prefix}sx{i}" for i in range(len(code.hx)))
    z_labels = tuple(f"{label_prefix}sz{i}" for i in range(len(code.hz)))
    wires = list(data_wires) + list(anc_x) + list(anc_z)

    # X-check and Z-check CNOTs run in separate phases: CSS checks overlap on
    # an even number of qubits, so the ancilla-to-ancilla hook contributions
    # cancel pairwise and the ideal outcomes are the exact syndromes for any
    # within-phase ordering. Each phase is edge-colored to its max degree.
    # A phase is its CNOT layers, each a list of (control, target) pairs;
    # X-check ancillas are controls, Z-check ancillas targets.
    cnot_layers = []
    for h, anc, anc_controls in ((code.hx, anc_x, True), (code.hz, anc_z, False)):
        edges = [(("a", i), ("d", int(q))) for i in range(len(h)) for q in np.flatnonzero(h[i])]
        colors = _bipartite_edge_coloring(edges)
        for color in range(max(colors, default=-1) + 1):
            pairs = [(anc[i], data_wires[q]) for ((_, i), (_, q)), c in zip(edges, colors) if c == color]
            cnot_layers.append(pairs if anc_controls else [(t, c) for c, t in pairs])

    h_layers = [[Gate("h", (w,)) for w in anc_x]] if anc_x else []
    layers = (
        [[Gate("init0", (w,)) for w in anc_x + anc_z]]
        + h_layers
        + [[Gate("cnot", pair) for pair in pairs] for pairs in cnot_layers]
        + h_layers
        + [[Gate("measure", (w,), out=label) for w, label in zip(anc_x + anc_z, x_labels + z_labels)]]
    )
    circ = Circuit(wires)
    for gates in layers if anc_x or anc_z else ():
        circ.add_layer(with_idles(circ, gates))
    return EcGadget(
        code=code,
        data_wires=data_wires,
        ancilla_x=anc_x,
        ancilla_z=anc_z,
        extraction=circ,
        x_labels=x_labels,
        z_labels=z_labels,
        correction_circuit=idle_circuit(data_wires),
    )


def wait_gadget(code: CssCode) -> EcGadget:
    """The EC round a block of `code` runs while it waits in a chain (see
    `e2e`): data wires d0.., labels prefixed "w.". Its wires are the
    footprint per waiting block that `scheduler.measured_constants` counts."""
    return build_ec(code, [f"d{i}" for i in range(code.n)], "w.")


# -- logical Bell processing ---------------------------------------------------------


def logical_bell_process(code_r: CssCode, m1: np.ndarray, m2: np.ndarray):
    """Logical Bell bits (u, v), (m_r, trials) each, and (trials,) heralds.

    m1 (X-basis readout of Q, (n, trials)) is corrected to the nearest word
    of ker(H_X) as a Z error would be, m2 (Z-basis readout of A) to ker(H_Z)
    as an X error; logical bits are then parities against the logical
    representatives. Herald when either correction leaves the decoding
    radius.
    """
    if len(m1) != code_r.n or len(m2) != code_r.n:
        raise ValueError("readout rows must match the code length n")
    e2, e1, herald2, herald1 = decode_syndrome(
        code_r, gf2.mul_bits(code_r.hx, m1), gf2.mul_bits(code_r.hz, m2)
    )
    return gf2.mul_bits(code_r.lx, m1 ^ e1), gf2.mul_bits(code_r.lz, m2 ^ e2), herald1 | herald2


# -- the partial decoding interface Gamma ---------------------------------------------


class _GammaKnobFields(NamedTuple):
    s1: int
    s2: int
    proc_poly: tuple
    resource_ls_delta: Optional[float]
    resource_fail_prob: float


class GammaKnobs(_GammaKnobFields):
    """Tunable structure of the interface circuit.

    proc_poly are non-negative integer polynomial coefficients in n_r giving
    the classical processing latency in layers (default: linear, latency =
    n_r).
    resource_ls_delta defaults to 2*delta (the prep oracle's certified
    parameter); resource_fail_prob is the oracle's global failure coin.
    """

    __slots__ = ()

    def __new__(
        cls,
        s1: int = 1,
        s2: int = 1,
        proc_poly: Sequence = (0, 1),
        resource_ls_delta: Optional[float] = None,
        resource_fail_prob: float = 0.0,
    ):
        if s1 < 0 or s2 < 0:
            raise ValueError(f"EC round counts must be non-negative, got s1={s1}, s2={s2}")
        # Plans are cached per knobs, so every field must be hashable.
        proc_poly = tuple(proc_poly)
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) and c >= 0 for c in proc_poly):
            raise ValueError(f"proc_layers coefficients must be non-negative integers, got {proc_poly!r}")
        for key, p in (("ls_delta", resource_ls_delta), ("fail_prob", resource_fail_prob)):
            if p is not None and not 0 <= p <= 1:
                raise ValueError(f"resource_oracle {key} must lie in [0, 1], got {p}")
        return super().__new__(cls, s1, s2, proc_poly, resource_ls_delta, resource_fail_prob)

    def proc_layers(self, n: int) -> int:
        return sum(c * n**k for k, c in enumerate(self.proc_poly))


class InterfaceCircuit(NamedTuple):
    """The partial interface Gamma_{r,r'}: wires, fragments, decode tables."""

    code_r: CssCode
    code_rp: CssCode
    blocks: int
    knobs: GammaKnobs
    q_wires: tuple
    a_wires: tuple
    b_wires: tuple          # flattened, block-major
    q_gadget: EcGadget
    b_gadgets: tuple        # per block (empty for r' = 1 or s2 = 0)
    bell_circuit: Circuit
    proc_wait_circuit: Circuit
    b_correction_circuit: Circuit
    m1_labels: tuple
    m2_labels: tuple
    lxb: np.ndarray          # (m_r, |B|) X-rep of logical j on the B side, dense uint8
    lzb: np.ndarray

    @property
    def all_wires(self) -> tuple:
        """Every wire a pass touches: the Q ancillas only when the input EC runs."""
        q_ancillas = self.q_gadget.ancilla_x + self.q_gadget.ancilla_z if self.knobs.s1 else ()
        return (
            self.q_wires
            + q_ancillas
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

    def resource_tableau(self) -> Tableau:
        """The encoded Bell resource: m_r Bell pairs, logical j of the A block
        with logical j of the B blocks, encoded afresh on every call."""
        m = self.code_r.m
        bell = Tableau.zero_state(list(range(2 * m)))
        for j in range(m):
            bell.apply_h(j)
            bell.apply_cnot(j, m + j)
        codes = (self.code_r,) + (self.code_rp,) * self.blocks
        return css.encoded_tableau(codes, bell, self.a_wires + self.b_wires)


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
    q_gadget = build_ec(code_r, q_wires, label_prefix="q.")
    if r_prime > 1 and knobs.s2:
        b_gadgets = tuple(
            build_ec(
                code_rp,
                b_wires[i * code_rp.n : (i + 1) * code_rp.n],
                label_prefix=f"b{i}.",
            )
            for i in range(blocks)
        )
    else:
        b_gadgets = tuple()

    # Transversal Bell measurement: CNOT Q->A, H on Q, measure Q and A.
    m1_labels = tuple(f"m1.{i}" for i in range(code_r.n))
    m2_labels = tuple(f"m2.{i}" for i in range(code_r.n))
    bell = Circuit(q_wires + a_wires + b_wires)
    for gates in (
        [Gate("cnot", (q, a)) for q, a in zip(q_wires, a_wires)],
        [Gate("h", (q,)) for q in q_wires],
        [Gate("measure", (w,), out=label) for w, label in zip(q_wires + a_wires, m1_labels + m2_labels)],
    ):
        bell.add_layer(with_idles(bell, gates))

    # Classical-processing latency: idle layers on B beyond the EC rounds.
    ec_depth = b_gadgets[0].extraction.depth if b_gadgets else 0
    proc_wait = idle_circuit(b_wires, max(0, knobs.proc_layers(code_r.n) - knobs.s2 * ec_depth))
    b_corr = idle_circuit(b_wires)

    eye = np.eye(blocks, dtype=np.uint8)
    lxb, lzb = (np.kron(eye, reps) for reps in (code_rp.lx, code_rp.lz))
    lxb.flags.writeable = lzb.flags.writeable = False  # the plan is cached and shared

    return InterfaceCircuit(
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
        lxb=lxb,
        lzb=lzb,
    )


# -- one Gamma walk on two engines ----------------------------------------------------


class TableauEngine:
    """Exact trials: a signed tableau evolved in place, absolute outcomes.

    The state holds one trial or a batch with per-trial signs (see
    `tableau`). `xor` takes (wires, trials) rows, as the frame engine does,
    and hands the trial-major tableau their transpose; the first `xor` of
    rows for several trials turns one state into a batch. A random outcome
    is one rng draw shared by the batch.
    Fragments run noiselessly, so an idle-only fragment is skipped. A block
    handle is the block's wire labels in the state.
    """

    def __init__(self, state: Tableau, rng: np.random.Generator, outcomes: dict):
        self.state = state
        self.rng = rng
        self.outcomes = outcomes
        self._saved = 0

    @property
    def trials(self) -> int:
        return self.state.trials

    def run(self, fragment: Circuit):
        if not fragment.idle_only:
            circuit.run_noisy(fragment, self.state, rng=self.rng, outcomes=self.outcomes)

    def bits(self, labels: Sequence[str]) -> np.ndarray:
        return np.array([self.outcomes[l] for l in labels], np.uint8).reshape(len(labels), self.trials)

    def xor(self, wires: Sequence, x: np.ndarray, z: np.ndarray):
        if self.state.signs.ndim == 2 and x.shape[1] != self.trials:
            raise ValueError(f"rows for {x.shape[1]} trials on a batch of {self.trials}")
        self.state.apply_pauli_on(wires, *(b[:, 0] if b.shape[1] == 1 else b.T for b in (x, z)))

    def resource(self, plan: InterfaceCircuit):
        resource = plan.resource_tableau()
        if set(map(str, self.state.labels)) & set(map(str, resource.labels)):
            raise ValueError("gamma wires collide with spectator wires")
        self.state.extend(resource)

    def load(self, handle: list, wires: Sequence, scope: Sequence):
        self.state.rename(dict(zip(handle, wires)))

    def save(self, wires: Sequence) -> list:
        labels = [f"u{self._saved}.{p}" for p in range(len(wires))]
        self._saved += 1
        self.state.rename(dict(zip(wires, labels)))
        return labels


class FrameEngine:
    """A batch of Monte Carlo trials: Pauli frames and outcome flips.

    The engine numbers its fragment runs and its resource draws (one per
    Gamma pass) from 0, so every draw has its own stream by construction:
    run i draws its faults from (STREAM_CIRCUIT, *key, i, chunk) and pass p
    the oracle's local stochastic noise and failure coin from (STREAM_ORACLE,
    *key, p, chunk). `key` is () for a lone Gamma and (block,) in a chain.
    The oracle's noise is a sparse `sample_ls_hits` draw XORed straight
    into the frames of the A and B wires, with no dense (|A|+|B|, trials)
    array. A block handle is the block's (x, z) frames as (n, trials)
    arrays, or None when clean.
    """

    def __init__(self, params: NoiseParams, trials: int, chunk: int, key: tuple):
        self.params = params
        self.trials = trials
        self.chunk = chunk
        self.key = key
        self.runner = FrameRunner(params, chunk=chunk, key=key)
        self.batch: Optional[FrameBatch] = None
        self._runs = self._passes = 0

    def run(self, fragment: Circuit):
        self.runner.run(fragment, self.batch, tag=self._runs)
        self._runs += 1

    def bits(self, labels: Sequence[str]) -> np.ndarray:
        if not labels:
            return np.zeros((0, self.trials), np.uint8)
        return np.stack([self.batch.flips[l] for l in labels])

    def xor(self, wires: Sequence, x: np.ndarray, z: np.ndarray):
        self.batch.xor(wires, x, z)

    def resource(self, plan: InterfaceCircuit):
        ab_wires = plan.a_wires + plan.b_wires
        knobs = plan.knobs
        ls_delta = (
            knobs.resource_ls_delta
            if knobs.resource_ls_delta is not None
            else min(1.0, 2.0 * self.params.delta)
        )
        rng = rng_stream(self.params.seed, STREAM_ORACLE, *self.key, self._passes, self.chunk)
        self._passes += 1
        if ls_delta > 0.0:
            # Sparse hits go straight into the frames; each position is hit once.
            at, x_bits, z_bits = sample_ls_hits(len(ab_wires), ls_delta, rng, self.trials)
            self.batch.xor_at(self.batch.block(ab_wires).start * self.trials + at, x_bits, z_bits)
        if knobs.resource_fail_prob > 0.0:
            fail = (rng.random(self.trials) < knobs.resource_fail_prob).astype(np.uint8)
            if fail.any():
                shape = (self.trials, len(ab_wires))
                rx = rng.integers(0, 2, size=shape).astype(np.uint8)
                rz = rng.integers(0, 2, size=shape).astype(np.uint8)
                self.xor(ab_wires, rx.T & fail, rz.T & fail)

    def load(self, handle: Optional[tuple], wires: Sequence, scope: Sequence):
        self.batch = FrameBatch(scope, self.trials)
        if handle is not None:
            self.xor(wires, *handle)

    def save(self, wires: Sequence) -> tuple[np.ndarray, np.ndarray]:
        rows = self.batch.block(wires)
        return self.batch.x[rows].copy(), self.batch.z[rows].copy()


def ec_rounds(gadget: EcGadget, engine, rounds: int):
    """`rounds` EC rounds of `gadget` on `engine`: extraction, decode, correction.

    A heralded sector is left uncorrected, so an ambiguous detection never
    grows the residual.
    """
    for _ in range(rounds):
        engine.run(gadget.extraction)
        syn_x, syn_z = engine.bits(gadget.x_labels), engine.bits(gadget.z_labels)
        ex, ez, herald_x, herald_z = decode_syndrome(gadget.code, syn_x, syn_z)
        engine.xor(gadget.data_wires, ex & ~herald_x, ez & ~herald_z)
        engine.run(gadget.correction_circuit)


def gamma_pass(plan: InterfaceCircuit, engine) -> np.ndarray:
    """One Gamma pass on `engine`, whose state holds the input on plan.q_wires.

    Input EC, resource, transversal Bell measurement and its decode, output
    EC, processing wait and teleportation correction, in that order.
    Afterwards the state holds the output on plan.b_wires. Returns the
    (trials,) Bell heralds.
    """
    ec_rounds(plan.q_gadget, engine, plan.knobs.s1)
    engine.resource(plan)
    engine.run(plan.bell_circuit)
    u, v, herald = logical_bell_process(plan.code_r, engine.bits(plan.m1_labels), engine.bits(plan.m2_labels))
    for g in plan.b_gadgets:
        ec_rounds(g, engine, plan.knobs.s2)
    engine.run(plan.proc_wait_circuit)
    # Teleportation correction: Z^u on the m1-decoded bits, X^v on m2's.
    engine.xor(plan.b_wires, gf2.mul_bits(plan.lxb.T, v), gf2.mul_bits(plan.lzb.T, u))
    engine.run(plan.b_correction_circuit)
    return herald


# -- exact (tableau) execution --------------------------------------------------------


def expected_output_tableau(plan: InterfaceCircuit, logical: Tableau) -> Tableau:
    """Encoded reference: the m_r-qubit logical tableau encoded on the B blocks."""
    return css.encoded_tableau((plan.code_rp,) * plan.blocks, logical, plan.b_wires)


# -- Monte Carlo (frame) execution ------------------------------------------------------


class ChunkStats(NamedTuple):
    """Counts of a batch of Gamma trials; `run_chunks` sums them field by field."""

    trials: int
    failures: int
    heralds: int
    weight_overflows: int
    logical_errors: int
    block_weight_hist: np.ndarray  # (blocks, n_rp + 1)
    out_qubit_errors: np.ndarray   # per B wire counts

    @property
    def rate(self) -> float:
        return self.failures / self.trials

    @property
    def out_qubit_error_rate(self) -> np.ndarray:
        return self.out_qubit_errors / self.trials


class GammaFrameRun(NamedTuple):
    """Frame-level result of one Gamma pass: output frames and heralds.

    out_x/out_z are (|B|, trials), the layout of `FrameBatch`.
    """

    out_x: np.ndarray  # (|B|, trials)
    out_z: np.ndarray
    herald: np.ndarray  # (trials,) bool


def gamma_frames(
    plan: InterfaceCircuit,
    params: NoiseParams,
    trials: int,
    chunk: int = 0,
    input_frames: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> GammaFrameRun:
    """Vectorized frame propagation of one Gamma pass over a trial batch.

    The reference run is the clean execution (zero syndromes, logical
    outcomes fixed by one tableau pass); frames track each trial's
    difference, so syndrome flips are the trial syndromes directly and the
    teleportation correction enters as the decoded logical difference.
    Fault streams are those of a lone Gamma (see `FrameEngine`).
    """
    engine = FrameEngine(params, trials, chunk, ())
    engine.load(input_frames, plan.q_wires, plan.all_wires)
    herald = gamma_pass(plan, engine)
    out_x, out_z = engine.save(plan.b_wires)
    return GammaFrameRun(out_x=out_x, out_z=out_z, herald=herald)


def classify_gamma_output(
    plan: InterfaceCircuit, run: GammaFrameRun, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (overflow, logical, histogram) classification of residuals.

    Each output block's X and Z residuals are looked up in the coset tables
    of its code (`CosetTable`), built once per code. A block overflows when
    its stabilizer-reduced residual weight, the larger of the two coset
    weights, exceeds mu * n_{r'}. It is a logical error when its residual,
    corrected by the leader of its own syndrome (as `decode_syndrome`
    decodes it), flips a logical.
    """
    code = plan.code_rp
    coset_x, coset_z = _coset_tables(code)
    trials = run.out_x.shape[1]
    n_p = code.n
    overflow = np.zeros(trials, dtype=bool)
    logical = np.zeros(trials, dtype=bool)
    hist = np.zeros((plan.blocks, n_p + 1), dtype=np.int64)
    for i in range(plan.blocks):
        sl = slice(i * n_p, (i + 1) * n_p)
        wx, logical_x = coset_x.classify(run.out_x[sl])
        wz, logical_z = coset_z.classify(run.out_z[sl])
        rw = np.maximum(wx, wz)
        overflow |= rw > mu * n_p
        logical |= logical_x | logical_z
        hist[i] = np.bincount(rw, minlength=n_p + 1)
    return overflow, logical, hist


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = failures / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    full, rem = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def run_chunks(job, trials: int, chunk_size: int, args: tuple, workers: int = 1):
    """Monte Carlo over `trials` in chunks: the field-by-field sum of the job records.

    Chunk c of `size` trials runs `job(*args, size, c)`, a picklable function
    that keys its random streams by c and returns a NamedTuple of counts
    (ints and integer arrays). Chunks hold `chunk_size` trials, the last one
    the remainder, so the chunk size is part of the configuration and the
    worker count never changes the result. With workers > 1 the chunks run
    in a forked pool.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    jobs = [(*args, size, chunk) for chunk, size in enumerate(_chunk_sizes(trials, chunk_size))]
    if workers > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.starmap(job, jobs)
    else:
        results = [job(*j) for j in jobs]
    return type(results[0])(*(sum(field) for field in zip(*results)))


def _chunk_job(plan: InterfaceCircuit, params: NoiseParams, mu: float, trials: int, chunk: int) -> ChunkStats:
    """One vectorized chunk of Monte Carlo trials: run and classify."""
    run = gamma_frames(plan, params, trials, chunk=chunk)
    overflow, logical, hist = classify_gamma_output(plan, run, mu)
    failures = run.herald | overflow | logical
    out_err = ((run.out_x | run.out_z) != 0).sum(axis=1)
    return ChunkStats(
        trials=trials,
        failures=int(failures.sum()),
        heralds=int(run.herald.sum()),
        weight_overflows=int(overflow.sum()),
        logical_errors=int(logical.sum()),
        block_weight_hist=hist,
        out_qubit_errors=out_err.astype(np.int64),
    )


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
) -> ChunkStats:
    """Monte Carlo failure counts for Gamma_{r,r'} under circuit noise.

    A trial fails when (a) the Bell processing heralds, (b) any output
    block's residual reduced weight exceeds mu * n_{r'}, or (c) a logical
    outcome is wrong after ideal decoding. Deterministic in (seed, config,
    chunk_size), whatever the worker count (see `run_chunks`).
    """
    plan = build_gamma(family, r, r_prime, knobs)
    return run_chunks(_chunk_job, trials, chunk_size, (plan, params, mu), workers)
