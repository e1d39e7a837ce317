"""Layered Clifford circuit IR plus two execution backends.

The gate set is {idle, init0, measure-Z, H, CNOT}, the gates the EC gadgets,
the interfaces and the chain walk emit. The signed-tableau backend is the
exact oracle; the Pauli-frame backend propagates error frames for batches of
Monte Carlo trials against cached reference outcomes. Classical feed-forward
is not a gate: decoder calls and the Paulis they choose run as callbacks
between circuit fragments (see interface.py).

A fault is a location, a row of `Circuit.fault_table()` (one per gate, layer
by layer in gate order), a trial and a code: on a measurement 1, an outcome
flip; on a k-wire gate a Pauli in [1, 4^k) after the gate, wire j taking
bits 2j (x) and 2j + 1 (z). Both backends take faults as one (locations,
trials, codes) triple of arrays, turn a run's faults into flat frame offsets
once (`_offsets`), and inject a layer's slice of them into Pauli frames and
outcome flips through one function; the tableau backend then conjugates its
state by the frames that were hit. Both backends walk the compiled layers of
`Circuit.fault_table()` and apply a layer's gates by kind, not gate by gate.
"""

from __future__ import annotations

import functools
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .noise import STREAM_CIRCUIT, NoiseParams, bernoulli_positions, rng_stream
from .tableau import Tableau

GATE_ARITY = {
    "idle": 1,
    "init0": 1,
    "measure": 1,
    "h": 1,
    "cnot": 2,
}


class _GateFields(NamedTuple):
    name: str
    wires: tuple
    out: Optional[str]  # classical outcome label (measure)


class Gate(_GateFields):
    __slots__ = ()

    def __new__(cls, name: str, wires: tuple, out: Optional[str] = None):
        if name not in GATE_ARITY:
            raise ValueError(f"unknown gate {name!r}")
        if len(wires) != GATE_ARITY[name]:
            raise ValueError(f"{name} arity mismatch: {wires}")
        if name == "measure" and out is None:
            raise ValueError("measure needs an outcome label")
        return super().__new__(cls, name, wires, out)


class Circuit:
    """A depth-d circuit: a list of layers of gates over labelled wires."""

    def __init__(self, wires: Sequence[Hashable]):
        self.wires = list(wires)
        self._index = {w: i for i, w in enumerate(self.wires)}
        self.layers: list[list[Gate]] = []
        self._fault_table: Optional[FaultTable] = None
        self._outs: set[str] = set()  # outcome labels of every measurement
        self.idle_only = True  # every gate is an idle, or there is none
        if len(self._index) != len(self.wires):
            raise ValueError("duplicate wire labels")

    def add_layer(self, gates: Iterable[Gate]) -> "Circuit":
        gates = list(gates)
        seen = set()
        for g in gates:
            for w in g.wires:
                if w not in self._index:
                    raise ValueError(f"gate on unknown wire {w!r}")
                if w in seen:
                    raise ValueError(f"wire {w!r} used twice in one layer")
                seen.add(w)
        outs = [g.out for g in gates if g.name == "measure"]
        for label in outs:
            if label in self._outs or outs.count(label) > 1:
                raise ValueError(f"duplicate outcome label {label!r}")
        self._outs.update(outs)
        self.layers.append(gates)
        self.idle_only = self.idle_only and all(g.name == "idle" for g in gates)
        self._fault_table = None
        return self

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def n_locations(self) -> int:
        return sum(map(len, self.layers))

    def fault_table(self) -> "FaultTable":
        """The fault locations of every layer, compiled on first use.

        The table lives on the circuit (ids of the short-lived circuits built
        per call are reused) and `add_layer` drops it, so grow a circuit only
        through `add_layer`.
        """
        if self._fault_table is None:
            self._fault_table = FaultTable.compile(self)
        return self._fault_table


def with_idles(circuit: Circuit, gates: Iterable[Gate]) -> list[Gate]:
    """`gates` plus an idle on every other wire of `circuit`, in wire order: a
    noisy layer, where a wire that only waits is a fault location too. Every
    noisy fragment builds its layers through this one rule; encoders run
    noiselessly and hold no idles."""
    gates = list(gates)
    busy = {w for g in gates for w in g.wires}
    return gates + [Gate("idle", (w,)) for w in circuit.wires if w not in busy]


def idle_circuit(wires: Sequence[Hashable], layers: int = 1) -> Circuit:
    """`layers` layers of idle locations on `wires`: a wait, or the noise slot
    of a correction applied between fragments. Circuits are cached per
    (wires, layers) and shared by every caller, with their compiled fault
    tables: treat them as read-only."""
    return _idle_circuit(tuple(wires), layers)


@functools.lru_cache(maxsize=256)
def _idle_circuit(wires: tuple, layers: int) -> Circuit:
    circ = Circuit(wires)
    for _ in range(layers):
        circ.add_layer(with_idles(circ, []))
    return circ


# -- fault model --------------------------------------------------------------


def _checked_faults(table: "FaultTable", trials: int, faults: tuple) -> tuple:
    """Faults (locations, trials, codes) as `_draw_faults` returns them: sorted flat
    positions location * trials + trial, the fault count of each location and the
    codes. ValueError on a fault outside the table or batch, a bad code or a repeat."""
    loc, trial, code = (np.asarray(a, dtype=np.int64).reshape(-1) for a in faults)
    if not loc.size == trial.size == code.size:
        raise ValueError("fault arrays differ in length")
    if ((loc < 0) | (loc >= table.arity.size)).any():
        raise ValueError("fault location outside the circuit")
    if ((trial < 0) | (trial >= trials)).any():
        raise ValueError("fault trial outside the batch")
    k = table.arity[loc]
    if ((code < 1) | (code >= np.where(k > 0, 4**k, 2))).any():
        raise ValueError("fault code outside [1, 4^k), or not 1 on a measurement")
    pos, order = np.unique(loc * trials + trial, return_index=True)
    if pos.size < loc.size:
        raise ValueError("two faults at one location and trial")
    return pos, np.bincount(loc, minlength=table.arity.size), code[order].astype(np.uint8)


class _Faults(NamedTuple):
    """A run's faults, sorted by location, then trial, as flat offsets.

    `at` holds col * trials + trial in the frames for a gate's fault, col its
    first wire, and row * trials + trial in its layer's outcome block for a
    measurement's. `counts` holds the faults of each location and `bounds`
    the first fault of each layer, then the fault count.
    """

    at: np.ndarray
    code: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray


def _offsets(table: "FaultTable", cols: np.ndarray, trials: int, pos, counts, code) -> _Faults:
    """`_Faults` from sorted flat positions location * trials + trial: one shift
    per location, target * trials - location * trials, moves each position to
    its offset in one pass. `cols` (2, locations) maps locations to the frame
    columns of their first and last wires."""
    bounds = np.searchsorted(pos, table.starts * trials)
    target = np.where(table.flip_row < 0, cols[0], table.flip_row)
    pos += np.repeat((target - np.arange(target.size)) * trials, counts)
    return _Faults(pos, code, counts, bounds)


# -- tableau backend ------------------------------------------------------------


def run_noisy(
    circuit: Circuit,
    state: Tableau,
    faults: Optional[tuple] = None,
    rng: Optional[np.random.Generator] = None,
    outcomes: Optional[dict[str, int]] = None,
) -> tuple[Tableau, dict[str, int]]:
    """Tableau execution with `faults` as (locations, trials, codes) arrays (see the
    module docstring), each applied after its layer's gates. Trial t is row t of a
    sign batch, and trial 0 the only trial of one state. Mutates and returns the
    input tableau.

    A layer is one `apply_layer` step, its measurements and resets in gate order and
    one `extend` by fresh |0> wires: its gates commute, so this is gate-by-gate execution.
    """
    outcomes = outcomes if outcomes is not None else {}
    table = circuit.fault_table()
    f = None
    if faults is not None:  # scratch frames over the circuit's own wires
        f = _offsets(table, table.cols.T, state.trials, *_checked_faults(table, state.trials, faults))
    wires = circuit.wires
    for li, lf in enumerate(table.layers):
        state.apply_layer([wires[q] for q in table.cols[lf.h, 0].tolist()],
                          [(wires[c], wires[t]) for c, t in table.cols[lf.cnot].tolist()])
        outs = dict(zip(lf.meas.tolist(), lf.meas_labels))
        for row in sorted([*outs, *lf.init0.tolist()]):
            wire = wires[table.cols[row, 0]]
            if row in outs:
                outcomes[outs[row]] = state.measure_z(wire, rng)[0]
            elif wire in state.labels:
                state.measure_z(wire, forced=0)
        if lf.init0.size:
            state.reset_zero([wires[q] for q in table.cols[lf.init0, 0].tolist()])
        if f is not None and f.bounds[li] < f.bounds[li + 1]:
            _apply_faults_tableau(circuit, state, li, f, outcomes)
    return state, outcomes


def _apply_faults_tableau(circuit: Circuit, state: Tableau, li: int, faults: _Faults, outcomes: dict):
    """Inject layer li's faults into scratch frames over the circuit's wires, then
    conjugate `state` by the frames of the wires that were hit and flip the faulted
    outcomes."""
    table = circuit.fault_table()
    lf = table.layers[li]
    scratch = FrameBatch(circuit.wires, state.trials)
    flips = np.zeros((len(lf.meas_labels), state.trials), np.uint8)
    _inject_faults(scratch, flips, table, li, table.cols.T, faults)
    single = state.signs.ndim == 1
    for label, flip in zip(lf.meas_labels, flips):
        outcomes[label] ^= int(flip[0]) if single else flip
    # Measured wires have left the state; their faults are outcome flips.
    hit = np.flatnonzero((scratch.x | scratch.z).any(axis=1))
    if hit.size:
        x, z = (a[hit].T[0] if single else a[hit].T for a in (scratch.x, scratch.z))
        state.apply_pauli_on([circuit.wires[q] for q in hit], x, z)


# -- Pauli frame backend ---------------------------------------------------------


class FrameBatch:
    """Pauli error frames for a batch of trials over a fixed wire set.

    `x` and `z` are the stored (wires, trials) uint8 arrays, so the frame of
    one wire is a contiguous row and a gate or a correction touches
    contiguous memory; the properties cannot be rebound, so the layout is
    fixed. `flips` maps each measurement label to the per-trial outcome flip
    relative to the reference run.
    """

    def __init__(self, wires: Sequence[Hashable], trials: int):
        self.wires = list(wires)
        self.index = {w: i for i, w in enumerate(self.wires)}
        self.trials = trials
        self._x = np.zeros((len(self.wires), trials), dtype=np.uint8)
        self._z = np.zeros((len(self.wires), trials), dtype=np.uint8)
        self.flips: dict[str, np.ndarray] = {}

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def z(self) -> np.ndarray:
        return self._z

    def columns(self, wires: Sequence[Hashable]) -> np.ndarray:
        return np.array([self.index[w] for w in wires], dtype=np.intp)

    def block(self, wires: Sequence[Hashable]) -> slice:
        """The rows of adjacent `wires`, in order, as a slice.

        x[block] is then a view of contiguous rows that updates in place,
        with no gather and scatter.
        """
        start = self.index[wires[0]] if len(wires) else 0
        if [self.index[w] for w in wires] != list(range(start, start + len(wires))):
            raise ValueError("wires are not adjacent in the batch")
        return slice(start, start + len(wires))

    def xor(self, wires: Sequence[Hashable], x: np.ndarray, z: np.ndarray):
        """XOR a Pauli onto adjacent `wires`; x and z are (wires, trials) uint8 rows."""
        rows = self.block(wires)
        self._x[rows] ^= x
        self._z[rows] ^= z

    def xor_at(self, at: np.ndarray, x_bits: np.ndarray, z_bits: np.ndarray):
        """XOR bit i of x_bits and z_bits into the frames at flat offset at[i],
        col * trials + trial, no offset repeated: one scatter per frame."""
        self._x.reshape(-1)[at] ^= x_bits
        self._z.reshape(-1)[at] ^= z_bits


class LayerFaults(NamedTuple):
    """The fault locations and gates of one layer: rows `rows` of its `FaultTable`.

    `meas`, `h`, `cnot` and `init0` hold the rows of the layer's gates of each
    kind; `meas_labels` the outcome labels of its measurements, in row order.
    """

    rows: slice
    meas: np.ndarray
    meas_labels: tuple
    h: np.ndarray
    cnot: np.ndarray
    init0: np.ndarray


class FaultTable(NamedTuple):
    """Fault locations of a circuit, one row per gate.

    `cols` holds each gate's first and last wire as circuit-local indices.
    Rows run layer by layer in gate order; `layers` slices them and `starts`
    holds their first rows, then the row count.
    """

    cols: np.ndarray  # (locations, 2) intp
    arity: np.ndarray  # (locations,) uint8 wire count, 0 for a measurement
    flip_row: np.ndarray  # (locations,) intp: a measurement's row among its layer's, -1 elsewhere
    starts: np.ndarray  # (layers + 1,) intp
    layers: tuple

    @classmethod
    def compile(cls, circuit: Circuit) -> "FaultTable":
        gates = [g for layer in circuit.layers for g in layer]
        cols = np.array(
            [(circuit._index[g.wires[0]], circuit._index[g.wires[-1]]) for g in gates], dtype=np.intp
        ).reshape(-1, 2)
        arity = np.array([0 if g.name == "measure" else len(g.wires) for g in gates], dtype=np.uint8)
        flip_row = np.full(arity.size, -1, np.intp)
        layers, start = [], 0
        for layer in circuit.layers:
            rows = {name: [] for name in GATE_ARITY}  # the layer's rows of each gate kind, in one pass
            for r, g in enumerate(layer, start):
                rows[g.name].append(r)
            meas = rows["measure"]
            flip_row[meas] = range(len(meas))
            layers.append(
                LayerFaults(
                    rows=slice(start, start + len(layer)),
                    meas=np.array(meas, np.intp),
                    meas_labels=tuple(gates[r].out for r in meas),
                    h=np.array(rows["h"], np.intp), cnot=np.array(rows["cnot"], np.intp),
                    init0=np.array(rows["init0"], np.intp),
                )
            )
            start += len(layer)
        starts = np.array([lf.rows.start for lf in layers] + [start], np.intp)
        return cls(cols=cols, arity=arity, flip_row=flip_row, starts=starts, layers=tuple(layers))


# Row k maps a uniform u in [0, 15) to a uniform code on k wires, 1 on a measurement (15 = 3 * 5).
_CODES = np.array([[1] * 15, [u % 3 + 1 for u in range(15)], [u + 1 for u in range(15)]], np.uint8)


class FrameRunner:
    """Propagates frame batches through circuits, injecting faults.

    Each run of a fragment draws its faults from one generator keyed by
    (seed, STREAM_CIRCUIT, *key, tag, chunk): `key` is the owner's prefix
    (see `interface.FrameEngine`) and `tag` numbers the run. The chunk index
    is in the stream key, so the chunk size is part of the configuration:
    results do not depend on how many workers share the chunks, but they do
    depend on how trials are chunked.

    A run draws its faults once, location-major by `fault_table()` row: the
    Bernoulli hits, then one uint8 per hit that the `_CODES` table maps to a
    code. The hits, flat positions location * trials + trial, become flat
    frame offsets in one pass (`_offsets`), which each layer slices. A
    layer's gates run by kind, CNOTs as in-place XORs of row views.
    """

    def __init__(self, params: NoiseParams, chunk: int = 0, key: tuple = ()):
        self.params = params
        self.chunk = chunk
        self.key = key

    def run(
        self,
        circuit: Circuit,
        batch: FrameBatch,
        tag: int = 0,
        forced_faults: Optional[tuple] = None,
    ) -> FrameBatch:
        """Propagate `batch` through `circuit`, faulting each layer after its gates.

        Each (location, trial) fails with probability delta and gets a
        uniform code; `forced_faults`, if given, adds (locations, trials,
        codes) arrays of faults (see the module docstring), split by layer and
        injected like the sampled ones.
        """
        table = circuit.fault_table()
        faults = [] if forced_faults is None else [_checked_faults(table, batch.trials, forced_faults)]
        if self.params.delta > 0.0 and batch.trials > 0:
            rng = rng_stream(self.params.seed, STREAM_CIRCUIT, *self.key, tag, self.chunk)
            faults.append(_draw_faults(table, batch.trials, self.params.delta, rng))
        cols = batch.columns(circuit.wires)[table.cols.T]  # (2, locations): first, last wire
        faults = [_offsets(table, cols, batch.trials, *f) for f in faults]
        for li, lf in enumerate(table.layers):
            flips = _apply_gates(batch, lf, cols)
            # Gates in a layer touch disjoint wires, so faulting the layer
            # after all its gates equals gate-then-fault at each location.
            for f in faults:
                _inject_faults(batch, flips, table, li, cols, f)
        return batch


def _apply_gates(batch: FrameBatch, lf: LayerFaults, cols: np.ndarray) -> Optional[np.ndarray]:
    """One layer's gates on the frames; `cols` (2, locations) maps locations to the
    batch columns of their first and last wires. Returns the layer's outcome flips,
    one row per measurement, whose rows `batch.flips` holds, or None."""
    x, z = batch.x, batch.z
    first = cols[0]
    if lf.h.size:
        q = first.take(lf.h)
        x[q], z[q] = z[q], x[q]
    # A layer holds a few CNOTs: in-place XORs of row views beat fancy-indexed copies.
    for c, t in cols.take(lf.cnot, axis=1).T.tolist():
        x[t] ^= x[c]
        z[c] ^= z[t]
    flips = None
    if lf.meas_labels:
        q = first.take(lf.meas)
        flips = x[q]
        batch.flips.update(zip(lf.meas_labels, flips))
        z[q] = 0
    if lf.init0.size:
        q = first.take(lf.init0)
        x[q] = z[q] = 0
    return flips


def _draw_faults(table: FaultTable, trials: int, delta: float, rng: np.random.Generator) -> tuple:
    """Pauli-twirled faults on every location as (positions, counts, codes): the sorted
    flat positions location * trials + trial of Bernoulli(delta) hits drawn
    location-major, the hits of each location, then one code for each hit."""
    n = table.arity.size
    pos = bernoulli_positions(rng, n * trials, delta)
    counts = np.diff(np.searchsorted(pos, np.arange(n + 1) * trials))
    at = np.repeat(table.arity * np.uint8(15), counts) + rng.integers(0, 15, size=pos.size, dtype=np.uint8)
    return pos, counts, _CODES.reshape(-1).take(at)


def _inject_faults(batch: FrameBatch, flips, table: FaultTable, li: int, cols: np.ndarray, f: _Faults):
    """XOR layer li's faults into the frames and its measurements' faults into
    `flips`, the layer's outcome block; `cols` (2, locations) maps locations to
    the batch columns of their first and last wires."""
    a, b = f.bounds[li], f.bounds[li + 1]
    if a == b:
        return
    lf = table.layers[li]
    rows, at, code = lf.rows, f.at[a:b], f.code[a:b]
    # Wire 0 of a gate takes code bits 0 (x) and 1 (z), wire 1 of a CNOT bits 2
    # and 3; a one-wire code has no bits 2 and 3, so it XORs zeros on its wire.
    second = None
    if lf.cnot.size:
        second = at + np.repeat((cols[1, rows] - cols[0, rows]) * batch.trials, f.counts[rows])
    if lf.meas_labels:  # a measurement's fault flips its outcome; the rest are Paulis
        meas = np.repeat(table.flip_row[rows] >= 0, f.counts[rows])
        flips.reshape(-1)[at[meas]] ^= 1
        pauli = ~meas
        at, code = at[pauli], code[pauli]
        second = None if second is None else second[pauli]
    batch.xor_at(at, code & 1, code >> 1 & 1)
    if second is not None:
        batch.xor_at(second, code >> 2 & 1, code >> 3)
