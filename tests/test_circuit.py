from statistics import NormalDist

import numpy as np
import pytest

from decint import circuit as circ
from decint import tableau
from decint.circuit import Circuit, FrameBatch, FrameRunner, Gate
from decint.interface import wilson_interval
from decint.noise import STREAM_CIRCUIT, NoiseParams, bernoulli_positions, rng_stream
from decint.tableau import Tableau, random_stabilizer_state


def det_random_circuit(seed: int, n_qubits: int, n_layers: int) -> Circuit:
    """Random H/CNOT body followed by its inverse, then measure everything.

    All ideal outcomes are deterministically 0, which makes single-fault
    cross-validation between the two backends exact.
    """
    rng = np.random.default_rng(seed)
    wires = [f"q{i}" for i in range(n_qubits)]
    body: list[list[Gate]] = []
    for _ in range(n_layers):
        perm = rng.permutation(n_qubits)
        gates = []
        i = 0
        while i < n_qubits:
            if i + 1 < n_qubits and rng.random() < 0.6:
                gates.append(Gate("cnot", (wires[perm[i]], wires[perm[i + 1]])))
                i += 2
            else:
                gates.append(Gate("h", (wires[perm[i]],)))
                i += 1
        body.append(gates)
    c = Circuit(wires)
    for layer in body:
        c.add_layer(layer)
    for layer in reversed(body):
        c.add_layer(layer)  # each layer is self-inverse
    c.add_layer([Gate("measure", (w,), out=f"m_{w}") for w in wires])
    return c


class TestCircuitValidation:
    def test_overlapping_registers_rejected(self):
        c = Circuit(["a", "b"])
        with pytest.raises(ValueError):
            c.add_layer([Gate("h", ("a",)), Gate("cnot", ("a", "b"))])

    def test_unknown_wire_rejected(self):
        with pytest.raises(ValueError):
            Circuit(["a"]).add_layer([Gate("h", ("b",))])

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("cnot", ("a",))

    def test_duplicate_outcome_label_in_one_layer_rejected(self):
        c = Circuit(["a", "b"])
        with pytest.raises(ValueError, match="duplicate outcome label 'm'"):
            c.add_layer([Gate("measure", ("a",), out="m"), Gate("measure", ("b",), out="m")])
        assert c.depth == 0
        c.add_layer([Gate("measure", ("a",), out="m")])  # the rejected layer left no label behind
        assert [g.out for layer in c.layers for g in layer if g.name == "measure"] == ["m"]

    def test_duplicate_outcome_label_across_layers_rejected(self):
        c = Circuit(["a", "b"]).add_layer([Gate("measure", ("a",), out="m"), Gate("idle", ("b",))])
        with pytest.raises(ValueError, match="duplicate outcome label 'm'"):
            c.add_layer([Gate("measure", ("b",), out="m")])
        assert c.depth == 1


class TestIdealRun:
    def test_h_then_measure_uniform(self):
        seen = set()
        for seed in range(24):
            c = Circuit(["q"]).add_layer([Gate("h", ("q",))]).add_layer(
                [Gate("measure", ("q",), out="m")]
            )
            _, outs = circ.run_noisy(c, Tableau.zero_state(["q"]), rng=np.random.default_rng(seed))
            seen.add(outs["m"])
        assert seen == {0, 1}

    def test_bell_parity_deterministic(self):
        for seed in range(10):
            c = Circuit(["a", "b"])
            c.add_layer([Gate("h", ("a",))])
            c.add_layer([Gate("cnot", ("a", "b"))])
            c.add_layer([Gate("measure", ("a",), out="ma")])
            c.add_layer([Gate("measure", ("b",), out="mb")])
            _, outs = circ.run_noisy(c, Tableau.zero_state(["a", "b"]), rng=np.random.default_rng(seed))
            assert outs["ma"] == outs["mb"]

    def test_teleport_with_corrections(self):
        # Teleport |1> through a Bell pair; the outcomes are fed forward
        # between circuit fragments, as the Gamma walk does.
        wires = ["src", "a", "b"]
        c = Circuit(wires)
        c.add_layer([Gate("h", ("a",))])
        c.add_layer([Gate("cnot", ("a", "b"))])
        c.add_layer([Gate("cnot", ("src", "a"))])
        c.add_layer([Gate("h", ("src",))])
        c.add_layer([Gate("measure", ("src",), out="mz")])
        c.add_layer([Gate("measure", ("a",), out="mx")])
        readout = Circuit(["b"]).add_layer([Gate("measure", ("b",), out="out")])
        seen = set()
        for seed in range(16):
            rng = np.random.default_rng(seed)
            state = Tableau.zero_state(wires)
            state.apply_pauli_on(["src"], [1], [0])
            state, outs = circ.run_noisy(c, state, rng=rng)
            seen.add((outs["mx"], outs["mz"]))
            state.apply_pauli_on(["b"], [outs["mx"]], [outs["mz"]])
            _, outs = circ.run_noisy(readout, state, rng=rng)
            assert outs["out"] == 1
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_init0_resets(self):
        c = Circuit(["q"])
        c.add_layer([Gate("init0", ("q",))])
        c.add_layer([Gate("measure", ("q",), out="m")])
        bare = Circuit(["q"]).add_layer([Gate("measure", ("q",), out="m")])
        for circuit, want in ((c, 0), (bare, 1)):
            state = Tableau.zero_state(["q"])
            state.apply_pauli_on(["q"], [1], [0])
            _, outs = circ.run_noisy(circuit, state)
            assert outs["m"] == want


class TestNoisyRun:
    def test_empty_pattern_equals_ideal(self):
        for seed in range(100):
            c = det_random_circuit(seed, 5, 3)
            t1, o1 = circ.run_noisy(c, Tableau.zero_state(c.wires))
            t2, o2 = circ.run_noisy(c, Tableau.zero_state(c.wires), faults=([], [], []))
            assert o1 == o2
            assert all(v == 0 for v in o1.values())

    def test_flip_fault_on_measurement(self):
        c = Circuit(["q"]).add_layer([Gate("measure", ("q",), out="m")])
        _, outs = circ.run_noisy(c, Tableau.zero_state(["q"]), faults=([0], [0], [1]))
        assert outs["m"] == 1

    def test_x_fault_before_measurement(self):
        c = Circuit(["q"])
        c.add_layer([Gate("idle", ("q",))])
        c.add_layer([Gate("measure", ("q",), out="m")])
        _, outs = circ.run_noisy(c, Tableau.zero_state(["q"]), faults=([0], [0], [1]))  # X after the idle
        assert outs["m"] == 1


def _rows(t: Tableau) -> dict:
    """Writable test-local copies of a tableau's labels, generator and
    destabilizer bits (bits 2i and 2i + 1 of each wire's column bitset) and signs."""
    return {"labels": list(t.labels), "xs": t.xs.copy(), "zs": t.zs.copy(), "signs": t.signs.copy(),
            "dx": tableau._bits(t._x, t.n, 1).T.copy(), "dz": tableau._bits(t._z, t.n, 1).T.copy()}


def _tableau(rows: dict) -> Tableau:
    """The tableau of `_rows`' arrays: generator i in bit 2i and destabilizer i
    in bit 2i + 1 of each wire's column bitset."""
    cols = []
    for g, d in (("xs", "dx"), ("zs", "dz")):
        both = np.zeros((len(rows["labels"]), 2 * len(rows[g])), np.uint8)
        both[:, 0::2], both[:, 1::2] = rows[g].T, rows[d].T
        cols.append([int.from_bytes(c.tobytes(), "little") for c in np.packbits(both, axis=1, bitorder="little")])
    return Tableau(list(rows["labels"]), *cols, rows["signs"])


def _reference_h(rows: dict, wire):
    """H by the Aaronson-Gottesman rule on the arrays of `_rows`, written out here
    so that the reference shares no gate code with `run_noisy`."""
    q = rows["labels"].index(wire)
    rows["signs"] ^= rows["xs"][:, q] & rows["zs"][:, q]
    for x, z in ((rows["xs"], rows["zs"]), (rows["dx"], rows["dz"])):
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()


def _reference_cnot(rows: dict, control, target):
    c, g = rows["labels"].index(control), rows["labels"].index(target)
    x, z = rows["xs"], rows["zs"]
    rows["signs"] ^= x[:, c] & z[:, g] & (x[:, g] ^ z[:, c] ^ 1)
    for x, z in ((rows["xs"], rows["zs"]), (rows["dx"], rows["dz"])):
        x[:, g] ^= x[:, c]
        z[:, c] ^= z[:, g]


def _reference_tableau_run(c: Circuit, state: Tableau, faults: tuple, rng) -> tuple[Tableau, dict, list]:
    """Gate-by-gate tableau execution: every gate of a layer in order, then the
    layer's faults one at a time. Returns the final state, the outcomes and, per
    measurement, whether it was deterministic."""
    batch = state.signs.ndim == 2
    outcomes, dets = {}, []
    start = 0
    for layer in c.layers:
        for g in layer:
            if g.name in ("h", "cnot"):
                rows = _rows(state)
                (_reference_h if g.name == "h" else _reference_cnot)(rows, *g.wires)
                state = _tableau(rows)
            elif g.name == "init0":
                state.reset_zero([g.wires[0]])
            elif g.name == "measure":
                outcomes[g.out], det = state.measure_z(g.wires[0], rng)
                dets.append(det)
        for loc, trial, code in zip(*faults):
            if not start <= loc < start + len(layer):
                continue
            g = layer[loc - start]
            if g.name == "measure":
                flip = np.eye(1, state.trials, trial, np.uint8)[0] if batch else 1
                outcomes[g.out] = outcomes[g.out] ^ flip
                continue
            x, z = (np.array([code >> (2 * j + b) & 1 for j in range(len(g.wires))], np.uint8) for b in (0, 1))
            if batch:  # this trial's Pauli, identity on the others
                x, z = (np.outer(np.eye(1, state.trials, trial, np.uint8)[0], v) for v in (x, z))
            state.apply_pauli_on(g.wires, x, z)
        start += len(layer)
    return state, outcomes, dets


def _random_mixed_circuit(rng, wires: list, present: set) -> tuple[Circuit, dict]:
    """Eight random layers over the five gates. H, CNOT, idle and measure act on
    wires in the state, init0 on present and absent wires alike; `present` is
    updated layer by layer. Also returns how many init0 gates hit each kind."""
    c = Circuit(wires)
    resets = {"present": 0, "fresh": 0}
    for _ in range(8):
        gates, free = [], [wires[i] for i in rng.permutation(len(wires))]
        while free:
            w = free.pop()
            if w not in present:
                if rng.random() < 0.6:
                    gates.append(Gate("init0", (w,)))
                    resets["fresh"] += 1
                continue
            kind = rng.choice(["h", "cnot", "idle", "measure", "init0"], p=[0.25, 0.3, 0.1, 0.2, 0.15])
            partners = [p for p in free if p in present]
            if kind == "cnot" and partners:
                free.remove(partners[0])
                pair = (w, partners[0]) if rng.random() < 0.5 else (partners[0], w)
                gates.append(Gate("cnot", pair))
            elif kind == "measure":
                gates.append(Gate("measure", (w,), out=f"m{c.depth}_{w}"))
            elif kind == "init0":
                gates.append(Gate("init0", (w,)))
                resets["present"] += 1
            else:
                gates.append(Gate("idle" if kind == "idle" else "h", (w,)))
        c.add_layer(gates)
        present -= {g.wires[0] for g in gates if g.name == "measure"}
        present |= {g.wires[0] for g in gates if g.name == "init0"}
    return c, resets


def _random_forced_faults(rng, c: Circuit, trials: int) -> tuple:
    """Up to eight faults at distinct (location, trial) pairs with valid codes."""
    arity = c.fault_table().arity
    picks = rng.choice(arity.size * trials, size=min(8, arity.size * trials), replace=False)
    loc, trial = picks // trials, picks % trials
    code = [1 if arity[l] == 0 else int(rng.integers(1, 4 ** int(arity[l]))) for l in loc]
    return loc.tolist(), trial.tolist(), code


class TestLayerWalk:
    """`run_noisy` runs a layer as one step; it must leave the tableau, bit for
    bit, and the outcomes that a gate-by-gate run leaves."""

    @pytest.mark.parametrize("batch", [False, True], ids=["one-state", "sign-batch"])
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "forced-faults"])
    def test_matches_the_gate_by_gate_reference(self, batch, faulted):
        seen_dets, seen_resets = set(), {"present": 0, "fresh": 0}
        for seed in range(16):
            rng = np.random.default_rng(seed)
            wires = [f"w{i}" for i in range(7)]
            present = set(wires[: 4 + seed % 3])
            state = random_stabilizer_state(sorted(present), rng)
            if batch:
                state.apply_pauli_on(state.labels, *rng.integers(0, 2, (2, 4, state.n), dtype=np.uint8))
            c, resets = _random_mixed_circuit(rng, wires, present)
            trials = state.trials
            faults = _random_forced_faults(rng, c, trials) if faulted else ([], [], [])
            got = state.copy()
            _, got_out = circ.run_noisy(c, got, faults=faults, rng=np.random.default_rng(seed))
            want, want_out, dets = _reference_tableau_run(c, state.copy(), faults, np.random.default_rng(seed))
            got_rows, want_rows = _rows(got), _rows(want)
            for name in ("labels", "xs", "zs", "dx", "dz", "signs"):
                assert np.array_equal(got_rows[name], want_rows[name]), (seed, name)
            assert got_out.keys() == want_out.keys(), seed
            for label, bit in want_out.items():
                assert np.array_equal(got_out[label], bit), (seed, label)
            seen_dets.update(dets)
            for kind in resets:
                seen_resets[kind] += resets[kind]
        assert seen_dets == {False, True}
        assert min(seen_resets.values()) > 0


def propagate(c: Circuit, x_bits, z_bits) -> FrameBatch:
    """Noiseless frame propagation of one frame per trial; x/z bits are (trials, wires)."""
    x_bits, z_bits = np.atleast_2d(x_bits, z_bits)
    batch = FrameBatch(c.wires, len(x_bits))
    batch.xor(c.wires, x_bits.T.astype(np.uint8), z_bits.T.astype(np.uint8))
    return FrameRunner(NoiseParams(0.0, 0)).run(c, batch)


class TestFrameBackend:
    def test_identity_frame_stays_identity(self):
        c = det_random_circuit(1, 4, 3)
        b = propagate(c, np.zeros(4), np.zeros(4))
        assert not b.x.any() and not b.z.any()
        assert not any(v.any() for v in b.flips.values())

    def test_x_through_h_becomes_z(self):
        c = Circuit(["q"]).add_layer([Gate("h", ("q",))])
        b = propagate(c, [1], [0])
        assert (b.x[0, 0], b.z[0, 0]) == (0, 1)

    def test_x_on_cnot_control_spreads(self):
        c = Circuit(["c", "t"]).add_layer([Gate("cnot", ("c", "t"))])
        b = propagate(c, [1, 0], [0, 0])
        assert list(b.x[:, 0]) == [1, 1] and list(b.z[:, 0]) == [0, 0]

    def test_group_action_on_random_frames(self):
        # Trials P, Q and PQ of one batch: the frame map is a homomorphism.
        rng = np.random.default_rng(0)
        for seed in range(10):
            c = det_random_circuit(seed, 5, 2)
            p_x, p_z, q_x, q_z = rng.integers(0, 2, (4, 5))
            b = propagate(c, [p_x, q_x, p_x ^ q_x], [p_z, q_z, p_z ^ q_z])
            assert np.array_equal(b.x[:, 2], b.x[:, 0] ^ b.x[:, 1])
            assert np.array_equal(b.z[:, 2], b.z[:, 0] ^ b.z[:, 1])
            for flips in b.flips.values():
                assert flips[2] == flips[0] ^ flips[1]

    def test_weight_census(self):
        batch = FrameBatch(["a", "b", "c"], 1)
        batch.xor(["b"], np.array([[1]], np.uint8), np.array([[0]], np.uint8))
        weights = [((batch.x[cols] | batch.z[cols]) != 0).sum(axis=0)[0]
                   for cols in (batch.columns([w]) for w in batch.wires)]
        assert weights == [0, 1, 0]


class TestFrameLayout:
    """Frames are stored wire-major; the layout never changes results."""

    @staticmethod
    def mixed_circuit() -> Circuit:
        c = Circuit(["a", "b", "c", "d"])
        c.add_layer([Gate("h", ("a",)), Gate("cnot", ("b", "c")), Gate("init0", ("d",))])
        c.add_layer([Gate("measure", ("a",), out="ma"), Gate("cnot", ("c", "b")), Gate("idle", ("d",))])
        c.add_layer([Gate("h", ("b",)), Gate("h", ("c",)), Gate("cnot", ("d", "a"))])
        c.add_layer([Gate("measure", ("b",), out="mb"), Gate("init0", ("c",)), Gate("idle", ("a",))])
        return c

    def test_public_shape_is_wires_by_trials(self):
        batch = FrameBatch(["a", "b", "c"], 5)
        assert batch.x.shape == batch.z.shape == (3, 5)
        assert batch.x[1].flags.c_contiguous and batch.z[2].flags.c_contiguous

    def test_frames_are_the_stored_arrays(self):
        batch = FrameBatch(["a", "b", "c"], 5)
        for frame in (batch.x, batch.z):
            assert frame.flags.c_contiguous and frame.flags.owndata and frame.dtype == np.uint8
        assert batch.x is batch.x and batch.z is batch.z

    def test_frames_cannot_be_rebound(self):
        batch = FrameBatch(["a", "b"], 4)
        for name in ("x", "z"):
            with pytest.raises(AttributeError):
                setattr(batch, name, np.zeros((2, 4), np.uint8))
        batch.x[0, 1] ^= 1  # writes land in the stored wire-major rows
        assert batch.x[0].tolist() == [0, 1, 0, 0]


class TestCrossValidation:
    """Tableau and frame backends agree under exhaustive single-fault injection."""

    @pytest.mark.parametrize("seed", range(6))
    def test_single_fault_outcome_flips(self, seed):
        # Every (location, code) case is one trial of a tableau sign batch and
        # of a frame batch, both faulted by the same triple; the exact outcomes
        # of each trial are the ideal ones flipped by its frame flips.
        c = det_random_circuit(seed, 6, 2)
        _, ideal = circ.run_noisy(c, Tableau.zero_state(c.wires))
        arity = c.fault_table().arity.astype(np.int64)
        cases = [(row, code) for row, k in enumerate(arity) for code in range(1, 4**k if k else 2)]
        rows, codes = np.array(cases).T
        faults = (rows, np.arange(len(cases)), codes)
        n = len(c.wires)
        state = Tableau.zero_state(c.wires)
        state.apply_pauli_on(c.wires, *np.zeros((2, len(cases), n), np.uint8))  # one |0...0> per case
        _, noisy = circ.run_noisy(c, state, faults=faults)
        batch = FrameBatch(c.wires, len(cases))
        FrameRunner(NoiseParams(delta=0.0, seed=0)).run(c, batch, forced_faults=faults)
        assert noisy.keys() == batch.flips.keys() == ideal.keys()
        for m in ideal:
            want = ideal[m] ^ batch.flips[m]
            bad = np.flatnonzero(noisy[m] != want)
            assert not bad.size, (m, [cases[t] for t in bad])


class TestFaultSampling:
    def test_frame_runner_deterministic(self):
        c = det_random_circuit(3, 5, 3)
        params = NoiseParams(delta=0.05, seed=123)
        b1 = FrameRunner(params, chunk=0).run(c, FrameBatch(c.wires, 64), tag=1)
        b2 = FrameRunner(params, chunk=0).run(c, FrameBatch(c.wires, 64), tag=1)
        assert np.array_equal(b1.x, b2.x) and np.array_equal(b1.z, b2.z)
        b3 = FrameRunner(params, chunk=1).run(c, FrameBatch(c.wires, 64), tag=1)
        assert not np.array_equal(b1.x, b3.x)


def _fresh_wire_circuit() -> Circuit:
    """Every location on its own wires, so each fault stays where it landed."""
    c = Circuit([f"w{i}" for i in range(14)])
    c.add_layer([Gate("idle", ("w0",)), Gate("h", ("w1",)), Gate("cnot", ("w2", "w3")),
                 Gate("init0", ("w4",))])
    c.add_layer([Gate("init0", ("w5",)), Gate("cnot", ("w6", "w7")), Gate("measure", ("w8",), out="m")])
    c.add_layer([Gate("idle", ("w9",)), Gate("measure", ("w10",), out="n"),
                 Gate("cnot", ("w11", "w12")), Gate("init0", ("w13",))])
    return c


def _wilson_contains(hits: int, trials: int, p: float, z: float = 3.29) -> bool:
    lo, hi = wilson_interval(hits, trials, z=z)
    return lo <= p <= hi


class TestSparseFaultSampling:
    PAULI_LOCS = (("w0",), ("w1",), ("w2", "w3"), ("w4",), ("w5",), ("w6", "w7"), ("w9",), ("w11", "w12"),
                  ("w13",))

    def run(self, delta, trials, seed=7, tag=0, chunk=0):
        c = _fresh_wire_circuit()
        batch = FrameBatch(c.wires, trials)
        return FrameRunner(NoiseParams(delta=delta, seed=seed), chunk=chunk).run(c, batch, tag=tag)

    def test_per_location_fault_rate(self):
        delta, trials = 0.05, 40_000
        b = self.run(delta, trials)
        for wires in self.PAULI_LOCS:
            cols = b.columns(wires)
            hits = int(((b.x[cols] | b.z[cols]) != 0).any(axis=0).sum())
            assert _wilson_contains(hits, trials, delta), wires
        for label in ("m", "n"):
            assert _wilson_contains(int(b.flips[label].sum()), trials, delta), label

    def test_codes_uniform_over_nontrivial_paulis(self):
        trials = 45_000
        b = self.run(1.0, trials)
        for wires in self.PAULI_LOCS:
            cols = b.columns(wires)
            parts = b.x[cols].astype(np.int64) + 2 * b.z[cols]
            codes = (4 ** np.arange(len(wires))) @ parts
            counts = np.bincount(codes, minlength=4 ** len(wires))
            assert counts[0] == 0, wires
            # Bonferroni over the 4^k - 1 cells keeps each location's test at level 0.001.
            z = NormalDist().inv_cdf(1 - 0.0005 / (counts.size - 1))
            for n in counts[1:]:
                assert _wilson_contains(int(n), trials, 1 / (counts.size - 1), z), (wires, counts)

    def test_delta_edges_and_zero_trials(self):
        quiet = self.run(0.0, 300)
        assert not quiet.x.any() and not quiet.z.any()
        assert not quiet.flips["m"].any() and not quiet.flips["n"].any()
        loud = self.run(1.0, 300)
        for wires in self.PAULI_LOCS:
            cols = loud.columns(wires)
            assert ((loud.x[cols] | loud.z[cols]) != 0).any(axis=0).all(), wires
        assert loud.flips["m"].all() and loud.flips["n"].all()
        empty = self.run(0.5, 0)
        assert empty.x.shape == (14, 0) and empty.flips["m"].shape == (0,)

    def test_stream_key(self):
        def frames(**key):
            b = self.run(0.2, 256, **key)
            return np.concatenate([b.x, b.z, b.flips["m"][None], b.flips["n"][None]])

        same = frames(tag=3, chunk=1)
        assert np.array_equal(same, frames(tag=3, chunk=1))
        assert not np.array_equal(same, frames(tag=3, chunk=2))
        assert not np.array_equal(same, frames(tag=4, chunk=1))
        assert not np.array_equal(same, frames(tag=3, chunk=1, seed=8))


def _reference_gate(batch: FrameBatch, g: Gate):
    """One gate's frame map by (column, trial) writes, gate by gate: the
    reference for the runner's per-layer row operations."""
    x, z, q = batch.x, batch.z, batch.index[g.wires[0]]
    if g.name == "h":
        x[q], z[q] = z[q].copy(), x[q].copy()
    elif g.name == "cnot":
        t = batch.index[g.wires[1]]
        x[t] ^= x[q]
        z[q] ^= z[t]
    elif g.name == "measure":
        batch.flips[g.out] = x[q].copy()
        z[q] = 0
    elif g.name == "init0":
        x[q] = 0
        z[q] = 0


def _reference_faults(c: Circuit, trials: int, delta: float, rng) -> list:
    """Each gate's faults as (trials, codes), gate by gate in layer order, drawn from
    the generator in the runner's order: Bernoulli hits over every (gate, trial),
    gate-major, then one byte u in [0, 15) per hit, which is the code u + 1 on a
    CNOT, u % 3 + 1 on a one-wire gate and 1 on a measurement."""
    gates = [g for layer in c.layers for g in layer]
    hits = bernoulli_positions(rng, len(gates) * trials, delta)
    u = rng.integers(0, 15, size=hits.size, dtype=np.uint8)
    loc, trial = np.divmod(hits, max(trials, 1))
    faults = []
    for i, g in enumerate(gates):
        on = loc == i
        if g.name == "measure":
            code = np.ones(on.sum(), np.uint8)
        else:
            code = u[on] + 1 if g.name == "cnot" else u[on] % 3 + 1
        faults.append((trial[on], code))
    return faults


def _reference_run(c: Circuit, batch: FrameBatch, params: NoiseParams, tag: int, chunk: int):
    """Gate-by-gate propagation, each layer's faults XORed in after its gates by 2-D
    (column, trial) writes."""
    rng = rng_stream(params.seed, STREAM_CIRCUIT, tag, chunk)
    faults = iter(_reference_faults(c, batch.trials, params.delta, rng))
    for layer in c.layers:
        for g in layer:
            _reference_gate(batch, g)
        for g in layer:
            trial, code = next(faults)
            if g.name == "measure":
                batch.flips[g.out][trial] ^= 1
                continue
            for j, w in enumerate(g.wires):  # wire j takes code bits 2j (x) and 2j + 1 (z)
                part = code >> (2 * j)
                batch.x[batch.index[w], trial] ^= part & 1
                batch.z[batch.index[w], trial] ^= part >> 1 & 1
    return batch


def _same_frames(a: FrameBatch, b: FrameBatch) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
        and a.flips.keys() == b.flips.keys()
        and all(np.array_equal(a.flips[k], b.flips[k]) for k in a.flips)
    )


def _uniform_layer_circuit() -> Circuit:
    """Layers whose Pauli locations share one arity, next to a mixed one."""
    c = Circuit([f"u{i}" for i in range(6)])
    c.add_layer([Gate("idle", (f"u{i}",)) for i in range(6)])
    c.add_layer([Gate("cnot", ("u0", "u1")), Gate("cnot", ("u2", "u3")), Gate("cnot", ("u5", "u4"))])
    c.add_layer([Gate("measure", ("u0",), out="m0"), Gate("h", ("u1",)), Gate("idle", ("u2",)),
                 Gate("init0", ("u3",))])
    c.add_layer([Gate("cnot", ("u1", "u2")), Gate("idle", ("u4",))])
    c.add_layer([Gate("measure", (f"u{i}",), out=f"m{i}") for i in (1, 2)])
    return c


def _batch_wires(c: Circuit, spectators: bool) -> list:
    """The circuit's wires, or those shuffled among spectator wires the circuit never touches."""
    if not spectators:
        return c.wires
    wires = list(c.wires) + [f"spectator{i}" for i in range(3)]
    return [wires[i] for i in np.random.default_rng(len(wires)).permutation(len(wires))]


class TestCompiledFaultTable:
    """Faults injected from the compiled per-layer tables by flat frame offsets."""

    @staticmethod
    def batch(c: Circuit, trials: int, spectators: bool = False, seed: int = 3) -> FrameBatch:
        rng = np.random.default_rng(seed)
        b = FrameBatch(_batch_wires(c, spectators), trials)
        x0 = rng.integers(0, 2, (len(b.wires), trials)).astype(np.uint8)
        z0 = rng.integers(0, 2, (len(b.wires), trials)).astype(np.uint8)
        b.xor(b.wires, x0, z0)
        return b

    @pytest.mark.parametrize("spectators", [False, True])
    @pytest.mark.parametrize("delta", [0.05, 0.5])
    @pytest.mark.parametrize(
        "make",
        [TestFrameLayout.mixed_circuit, _fresh_wire_circuit, _uniform_layer_circuit,
         lambda: det_random_circuit(4, 6, 3)],
    )
    def test_matches_per_gate_reference(self, make, delta, spectators):
        c = make()
        params = NoiseParams(delta=delta, seed=11)
        got = FrameRunner(params, chunk=1).run(c, self.batch(c, 400, spectators), tag=5)
        want = _reference_run(c, self.batch(c, 400, spectators), params, tag=5, chunk=1)
        assert _same_frames(got, want)

    @pytest.mark.parametrize("trials", [0, 1, 2, 37])
    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_layouts_agree_at_the_edges(self, trials, delta):
        # Flat wire-major offsets and the reference's (column, trial) writes
        # agree for empty and tiny batches.
        c = _fresh_wire_circuit()
        params = NoiseParams(delta=delta, seed=2)
        got = FrameRunner(params).run(c, self.batch(c, trials), tag=1)
        assert got.x.shape == (len(c.wires), trials)
        assert _same_frames(got, _reference_run(c, self.batch(c, trials), params, 1, 0))

    def test_add_layer_after_run_recompiles(self):
        def layers():
            return [[Gate("cnot", ("a", "b")), Gate("idle", ("c",))],
                    [Gate("h", ("a",)), Gate("measure", ("b",), out="mb"), Gate("cnot", ("c", "d"))]]

        params = NoiseParams(delta=0.3, seed=4)
        grown = Circuit(["a", "b", "c", "d"]).add_layer(layers()[0])
        FrameRunner(params).run(grown, FrameBatch(grown.wires, 64), tag=1)
        first = grown.fault_table()
        assert len(first.layers) == 1
        grown.add_layer(layers()[1])
        assert grown.fault_table() is not first and len(grown.fault_table().layers) == 2
        whole = Circuit(["a", "b", "c", "d"])
        for layer in layers():
            whole.add_layer(layer)
        got = FrameRunner(params).run(grown, FrameBatch(grown.wires, 64), tag=1)
        want = FrameRunner(params).run(whole, FrameBatch(whole.wires, 64), tag=1)
        assert _same_frames(got, want) and "mb" in got.flips

    def test_block_is_a_slice_of_adjacent_wires(self):
        batch = FrameBatch(["a", "b", "c", "d"], 3)
        assert batch.block(["b", "c"]) == slice(1, 3) and batch.block([]) == slice(0, 0)
        batch.x[batch.block(["c", "d"])] ^= 1
        assert batch.x[2:].all() and not batch.x[:2].any()
        for wires in (["a", "c"], ["c", "b"]):
            with pytest.raises(ValueError, match="adjacent"):
                batch.block(wires)


def _forced_run(c: Circuit, trials: int, spectators: bool, forced=None, delta: float = 0.3) -> FrameBatch:
    batch = FrameBatch(_batch_wires(c, spectators), trials)
    runner = FrameRunner(NoiseParams(delta=delta, seed=6), chunk=1)
    return runner.run(c, batch, tag=2, forced_faults=forced)


class TestForcedFaults:
    """Forced faults are (location, trial, code) arrays on the sampled faults' injector."""

    @staticmethod
    def random_faults(c: Circuit, trials: int, count: int, seed: int = 8):
        rng = np.random.default_rng(seed)
        table = c.fault_table()
        pairs = rng.choice(table.arity.size * trials, size=count, replace=False)  # unordered
        loc, trial = np.divmod(pairs, trials)
        k = table.arity[loc].astype(np.int64)
        code = rng.integers(1, np.where(k > 0, 4**k, 2))  # 1 on a measurement
        return loc, trial, code

    @pytest.mark.parametrize("spectators", [False, True])
    def test_forced_plus_sampled_is_the_xor_of_both(self, spectators):
        c = TestFrameLayout.mixed_circuit()
        forced = self.random_faults(c, 200, 300)
        assert (np.diff(forced[0]) < 0).any()
        both = _forced_run(c, 200, spectators, forced)
        sampled = _forced_run(c, 200, spectators)
        alone = _forced_run(c, 200, spectators, forced, delta=0.0)
        assert alone.x.any() and alone.flips["ma"].any() and alone.flips["mb"].any()
        assert np.array_equal(both.x, sampled.x ^ alone.x)
        assert np.array_equal(both.z, sampled.z ^ alone.z)
        for label in ("ma", "mb"):
            assert np.array_equal(both.flips[label], sampled.flips[label] ^ alone.flips[label])

    def test_each_fault_lands_after_its_gate(self):
        c = Circuit(["a", "b"])
        c.add_layer([Gate("h", ("a",)), Gate("idle", ("b",))]).add_layer([Gate("cnot", ("a", "b"))])
        c.add_layer([Gate("measure", ("a",), out="ma"), Gate("measure", ("b",), out="mb")])
        # Trial 0: X after the H, spread by the CNOT. Trial 1: code 9 on the
        # CNOT is X on a (bits 0-1) and Z on b (bits 2-3). Trial 2: flip mb.
        b = _forced_run(c, 3, False, ([4, 2, 0], [2, 1, 0], [1, 9, 1]), 0.0)
        assert b.flips["ma"].tolist() == [1, 1, 0] and b.flips["mb"].tolist() == [1, 0, 1]

    @pytest.mark.parametrize(
        "forced, match",
        [
            (([11], [0], [1]), "outside the circuit"),
            (([-1], [0], [1]), "outside the circuit"),
            (([0], [4], [1]), "outside the batch"),
            (([0], [-1], [1]), "outside the batch"),
            (([0], [0], [0]), "code"),
            (([2], [0], [16]), "code"),
            (([1], [0], [4]), "code"),
            (([6], [0], [2]), "code"),
            (([0, 1], [0], [1, 1]), "length"),
            (([0, 1, 0], [3, 0, 3], [1, 2, 3]), "one location and trial"),
        ],
    )
    def test_bad_forced_faults_raise(self, forced, match):
        c = _fresh_wire_circuit()  # rows 2, 5, 9 are cnots, 6 and 8 measurements
        with pytest.raises(ValueError, match=match):
            _forced_run(c, 4, False, forced, delta=0.0)
        with pytest.raises(ValueError, match=match):
            _forced_run(c, 4, False, forced, delta=0.5)

    def test_run_noisy_rejects_bad_faults(self):
        c = _fresh_wire_circuit()  # rows 2, 5, 9 are cnots, 6 and 8 measurements
        for faults, match in ((([11], [0], [1]), "outside the circuit"), (([-1], [0], [1]), "outside the circuit"),
                              (([2], [0], [16]), "code"), (([6], [0], [2]), "code"),
                              (([0], [1], [1]), "outside the batch"), (([0, 0], [0, 0], [1, 2]), "one location")):
            with pytest.raises(ValueError, match=match):
                circ.run_noisy(c, Tableau.zero_state(c.wires), faults=faults)

    def test_locations_are_the_fault_table_rows(self):
        for c in (_fresh_wire_circuit(), TestFrameLayout.mixed_circuit(), _uniform_layer_circuit()):
            table = c.fault_table()
            assert c.n_locations == table.cols.shape[0] == table.arity.size
            locs = [(li, gi) for li, layer in enumerate(c.layers) for gi in range(len(layer))]
            for row, (li, gi) in enumerate(locs):  # layer by layer, in gate order
                g, rows = c.layers[li][gi], table.layers[li].rows
                assert row == rows.start + gi < rows.stop
                assert table.cols[row].tolist() == [c.wires.index(g.wires[0]), c.wires.index(g.wires[-1])]
                assert table.arity[row] == (0 if g.name == "measure" else len(g.wires))
        table = _fresh_wire_circuit().fault_table()
        assert [table.arity[lf.rows].tolist() for lf in table.layers] == [[1, 1, 2, 1], [1, 2, 0], [1, 0, 2, 1]]
        assert table.cols.shape == (11, 2)
        assert table.cols[2].tolist() == [2, 3] and table.layers[2].meas_labels == ("n",)
        groups = [[lf.h.tolist(), lf.cnot.tolist(), lf.init0.tolist(), lf.meas.tolist()] for lf in table.layers]
        assert groups == [[[1], [2], [3], []], [[], [5], [4], [6]], [[], [9], [10], [8]]]

    def test_idle_only_flag(self):
        c = Circuit(["a", "b"])
        assert c.idle_only
        c.add_layer([Gate("idle", ("a",)), Gate("idle", ("b",))]).add_layer([])
        assert c.idle_only
        c.add_layer([Gate("h", ("a",))])
        assert not c.idle_only
        c.add_layer([Gate("idle", ("a",))])
        assert not c.idle_only


def _between_circuit() -> Circuit:
    """A measurement between other gates of one layer, CNOTs on both sides of it
    and a CNOT whose wire 1 is measured in the next layer."""
    c = Circuit(["a", "b", "c", "d", "e", "f"])
    c.add_layer([Gate("h", ("a",)), Gate("idle", ("b",)), Gate("cnot", ("c", "d")), Gate("init0", ("e",))])
    c.add_layer([Gate("cnot", ("a", "b")), Gate("measure", ("c",), out="mc"), Gate("h", ("d",)),
                 Gate("cnot", ("e", "f"))])
    c.add_layer([Gate("measure", ("a",), out="ma"), Gate("idle", ("b",)), Gate("measure", ("d",), out="md"),
                 Gate("cnot", ("f", "e"))])
    return c


class TestFaultOffsets:
    """Faults land at flat frame offsets, shifted once per run and sliced per layer."""

    @pytest.mark.parametrize("spectators", [False, True])
    @pytest.mark.parametrize("trials", [0, 1, 257])
    @pytest.mark.parametrize("delta", [0.1, 0.4, 1.0])  # 0.4 and 1.0 draw gaps with numpy's geometric
    def test_measurement_between_gates_matches_reference(self, delta, trials, spectators):
        c = _between_circuit()
        params = NoiseParams(delta=delta, seed=13)
        got = FrameRunner(params, chunk=2).run(c, TestCompiledFaultTable.batch(c, trials, spectators), tag=4)
        want = _reference_run(c, TestCompiledFaultTable.batch(c, trials, spectators), params, tag=4, chunk=2)
        assert _same_frames(got, want) and got.x.shape[1] == trials

    @pytest.mark.parametrize("spectators", [False, True])
    def test_cnot_wire_one_and_measurement_faults(self, spectators):
        # Rows 4-7 are layer 1: cnot(a, b), measure c, h d, cnot(e, f). Trial 0:
        # code 4 is X on f, which cnot(f, e) copies onto e. Trial 1: code 8 is Z
        # on b. Trial 2: code 12 is Y on f. Trial 3: an outcome flip of mc.
        c = _between_circuit()
        b = _forced_run(c, 4, spectators, ([7, 4, 7, 5], [0, 1, 2, 3], [4, 8, 12, 1]), delta=0.0)
        x, z = (np.stack([frame[b.index[w]] for w in c.wires]) for frame in (b.x, b.z))
        assert x[:, 0].tolist() == [0, 0, 0, 0, 1, 1] and not z[:, 0].any()
        assert z[:, 1].tolist() == [0, 1, 0, 0, 0, 0] and not x[:, 1].any()
        assert x[:, 2].tolist() == [0, 0, 0, 0, 1, 1] and z[:, 2].tolist() == [0, 0, 0, 0, 0, 1]
        assert not x[:, 3].any() and not z[:, 3].any()
        assert b.flips["mc"].tolist() == [0, 0, 0, 1] and not b.flips["ma"].any() and not b.flips["md"].any()

    def test_forced_plus_sampled_is_the_xor_of_both(self):
        c = _between_circuit()
        forced = TestForcedFaults.random_faults(c, 100, 250, seed=9)
        both = _forced_run(c, 100, True, forced)
        sampled = _forced_run(c, 100, True)
        alone = _forced_run(c, 100, True, forced, delta=0.0)
        assert alone.flips["mc"].any() and alone.x.any() and alone.z.any()
        assert np.array_equal(both.x, sampled.x ^ alone.x) and np.array_equal(both.z, sampled.z ^ alone.z)
        for label in ("mc", "ma", "md"):
            assert np.array_equal(both.flips[label], sampled.flips[label] ^ alone.flips[label])
