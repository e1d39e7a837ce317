import itertools
import time

import numpy as np
import pytest

from decint import css, gf2, interface
from decint.circuit import Circuit, FrameBatch, FrameRunner, Gate
from decint.noise import STREAM_ORACLE, NoiseParams, rng_stream, sample_ls_bits
from decint.tableau import Tableau, random_stabilizer_state


@pytest.fixture(scope="module")
def fam():
    return css.toy_family()


@pytest.fixture(scope="module")
def sfam():
    return css.steane_family()


def encode_basis(code: css.CssCode, u, wires) -> Tableau:
    """|u_L> of `code` on `wires`."""
    logical = Tableau.zero_state(list(range(len(u))))
    logical.apply_pauli_on(logical.labels, u, [0] * len(u))
    return css.encoded_tableau((code,), logical, wires)


def wilson_overlap(a: int, b: int, trials: int, z: float = 3.29) -> bool:
    """The 99.9% Wilson intervals of a and b successes in `trials` overlap."""
    (lo_a, hi_a), (lo_b, hi_b) = interface.wilson_interval(a, trials, z=z), interface.wilson_interval(b, trials, z=z)
    return lo_a <= hi_b and lo_b <= hi_a


def apply_error(tab: Tableau, wire, kind: str):
    tab.apply_pauli_on([wire], [kind in "XY"], [kind in "ZY"])


class TestEdgeColoring:
    @pytest.mark.parametrize("seed", range(6))
    def test_proper_and_optimal(self, seed):
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(5):
            for j in range(7):
                if rng.random() < 0.5:
                    edges.append((("l", i), ("r", j)))
        if not edges:
            return
        colors = interface._bipartite_edge_coloring(edges)
        seen = {}
        for (u, v), c in zip(edges, colors):
            assert (u, c) not in seen and (v, c) not in seen
            seen[(u, c)] = seen[(v, c)] = True
        from collections import Counter

        deg = Counter()
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert max(colors) + 1 == max(deg.values())


class TestLeaderTable:
    def test_steane_single_errors(self, sfam):
        code = sfam.level(2)
        t = interface.build_leader_table(code.hx)
        for q in range(7):
            e = np.zeros(7, np.uint8)
            e[q] = 1
            syn = (code.hx @ e) % 2
            got, w = t.lookup(syn.reshape(1, -1))
            assert w[0] == 1
            assert np.array_equal(got[:, 0], e)

    def test_zero_syndrome(self, fam):
        t = interface.build_leader_table(fam.level(2).hx)
        got, w = t.lookup(np.zeros((1, 1), np.uint8))
        assert w[0] == 0 and not got[:, 0].any()


    @staticmethod
    def loop_reference(h):
        """Leaders by the plain loop over `itertools.combinations`, weight by weight."""
        errors = np.zeros((1 << len(h), h.shape[1]), np.uint8)
        weights = np.full(1 << len(h), -1, np.int16)
        for w in range(h.shape[1] + 1):
            for support in itertools.combinations(range(h.shape[1]), w):
                e = np.zeros(h.shape[1], np.uint8)
                e[list(support)] = 1
                s = int(((h.astype(np.int64) @ e % 2) << np.arange(len(h))).sum())
                if weights[s] < 0:
                    errors[s], weights[s] = e, w
        return errors, weights

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_reference(self, seed, fam):
        # Random checks with dependent rows and unreachable syndromes, then
        # the toy checks stacked on their logicals, whose weight-8 supports
        # span several enumeration blocks.
        rng = np.random.default_rng(seed)
        h = rng.integers(0, 2, (int(rng.integers(1, 9)), int(rng.integers(1, 12))), dtype=np.uint8)
        h[-1] = h[0]
        code = fam.level(4)
        for m in (h, np.concatenate([code.hx, code.lx])) if seed == 0 else (h,):
            t = interface.build_leader_table(m)
            errors, weights = self.loop_reference(m)
            assert np.array_equal(t.errors, errors) and np.array_equal(t.weights, weights)
            assert t.errors.dtype == np.uint8 and t.weights.dtype == np.int16


# The [[15,7,3]] Hamming code's checks: column j is j + 1 in binary, least
# significant bit in row 0.
HAMMING_15 = np.array(
    [[int(b) for b in row] for row in ("101010101010101", "011001100110011", "000111100001111", "000000011111111")],
    np.uint8,
)


def table_codes():
    toy = css.toy_family()
    return {**{f"toy:{r}": toy.level(r) for r in range(1, 5)}, "steane": css.steane_code(),
            "hamming15": css.CssCode.from_checks(HAMMING_15, HAMMING_15)}


class TestCosetTable:
    @pytest.mark.parametrize("key", list(table_codes()))
    def test_every_entry_matches_brute_force(self, key):
        # Entry [H; L]e: the least weight over e + span(stabilizers) for some e
        # with that index, and whether the leader of its syndrome leaves a logical.
        code = table_codes()[key]
        assert key != "hamming15" or (code.n, code.m, code.min_distance()[0]) == (15, 7, 3)
        leaders = interface._frame_tables(code)
        cosets = interface._coset_tables(code)
        for table, leader, h, l, stabs in (
            (cosets[0], leaders.table_x, code.hz, code.lz, code.x_stabilizer_basis()),
            (cosets[1], leaders.table_z, code.hx, code.lx, code.z_stabilizer_basis()),
        ):
            assert np.array_equal(table.checks, np.concatenate([h, l]))
            combos = ((np.arange(1 << len(stabs))[:, None] >> np.arange(len(stabs))) & 1).astype(np.uint8)
            span = combos @ stabs % 2
            for i in range(len(table.weights)):
                bits = (i >> np.arange(len(table.checks)) & 1).astype(np.uint8)
                e = gf2.solve(table.checks, bits)
                if e is None:
                    assert table.weights[i] == -1
                    continue
                assert table.weights[i] == (e ^ span).sum(axis=1).min()
                syndrome = int(bits[: len(h)] @ (1 << np.arange(len(h))))
                assert table.logical[i] == (l @ (e ^ leader.errors[syndrome]) % 2).any()

    def test_classify_reads_frame_layout(self, fam):
        code = fam.level(3)
        table = interface._coset_tables(code)[0]
        rng = np.random.default_rng(2)
        e = (rng.random((code.n, 500)) < 0.3).astype(np.uint8)
        weights, logical = table.classify(e)
        want = gf2.coset_min_weight(code.x_stabilizer_basis(), e.T)
        assert want.exact and np.array_equal(weights, want.weight)
        ehat, _, _, _ = interface.decode_syndrome(code, np.zeros((len(code.hx), 500), np.uint8), code.hz @ e % 2)
        assert np.array_equal(logical, (code.lz @ (e ^ ehat) % 2).any(axis=0))


def col(bits) -> np.ndarray:
    """One trial as a (rows, 1) column."""
    return np.asarray(bits, np.uint8).reshape(-1, 1)


def syndromes(code, ex, ez):
    """(X-check, Z-check) syndromes of (n, trials) X and Z errors."""
    return gf2.mul_bits(code.hx, ez), gf2.mul_bits(code.hz, ex)


class TestDecodeSyndrome:
    def test_zero_syndrome_identity(self, sfam):
        code = sfam.level(2)
        ex, ez, herald_x, herald_z = interface.decode_syndrome(code, col([0] * 3), col([0] * 3))
        assert not ex.any() and not ez.any()
        assert not herald_x[0] and not herald_z[0]

    def test_steane_x3_recovered_exactly(self, sfam):
        code = sfam.level(2)
        e = np.zeros(7, np.uint8)
        e[3] = 1
        syn_z = col((code.hz @ e) % 2)
        ex, ez, herald_x, herald_z = interface.decode_syndrome(code, col([0] * 3), syn_z)
        assert not herald_x[0] and not herald_z[0]
        assert np.array_equal(ex[:, 0], e)
        assert not ez.any()

    def test_steane_all_weight_one_residual_stabilizer(self, sfam):
        # The identity and all 21 weight-one Paulis, decoded as one batch.
        code = sfam.level(2)
        ex = np.zeros((7, 22), np.uint8)
        ez = np.zeros((7, 22), np.uint8)
        for i, (q, kind) in enumerate(itertools.product(range(7), ("X", "Z", "Y")), start=1):
            ex[q, i] = kind in "XY"
            ez[q, i] = kind in "ZY"
        cx, cz, herald_x, herald_z = interface.decode_syndrome(code, *syndromes(code, ex, ez))
        assert not herald_x.any() and not herald_z.any()
        for basis, c, e in ((code.x_stabilizer_basis(), cx, ex), (code.z_stabilizer_basis(), cz, ez)):
            res = gf2.coset_min_weight(basis, (c ^ e).T)
            assert res.exact and not res.weight.any(), res.weight

    def test_d2_code_heralds_ambiguity(self, fam):
        code = fam.level(2)
        _, _, herald_x, herald_z = interface.decode_syndrome(code, col([1]), col([0]))
        assert herald_z[0] and not herald_x[0]


class TestBuildEc:
    def test_s_zero_identity(self, fam):
        # Zero rounds run nothing: the state and the outcomes stay as they were.
        code = fam.level(2)
        g = interface.build_ec(code, [f"d{i}" for i in range(4)])
        st = encode_basis(code, [1, 0], g.data_wires)
        apply_error(st, "d2", "X")
        before, outcomes = st.copy(), {}
        interface.ec_rounds(g, interface.TableauEngine(st, np.random.default_rng(0), outcomes), 0)
        assert st.same_state(before) and not outcomes

    def test_ancilla_count(self, fam):
        code = fam.level(3)
        g = interface.build_ec(code, [f"d{i}" for i in range(code.n)])
        assert len(g.ancilla_x) == len(code.hx)
        assert len(g.ancilla_z) == len(code.hz)

    def test_per_check_pipeline_depth(self, fam, sfam):
        # Each check's own CNOTs fit inside max-check-weight layers; with
        # prep and readout that is the "weight + 2" pipeline.
        for code in (fam.level(2), fam.level(3), fam.level(4), sfam.level(2)):
            g = interface.build_ec(code, [f"d{i}" for i in range(code.n)])
            max_w = 0
            for m in (code.hx, code.hz):
                max_w = max(max_w, int(m.sum(axis=1).max()))
            per_check = {}
            for li, layer in enumerate(g.extraction.layers):
                for gate in layer:
                    if gate.name == "cnot":
                        anc = gate.wires[0] if gate.wires[0] in g.ancilla_x + g.ancilla_z else gate.wires[1]
                        per_check.setdefault(anc, []).append(li)
            for anc, layers in per_check.items():
                assert len(layers) <= max_w

    def test_steane_corrects_single_x(self, sfam):
        code = sfam.level(2)
        g = interface.build_ec(code, [f"d{i}" for i in range(7)])
        st = encode_basis(code, [0], g.data_wires)
        apply_error(st, "d1", "X")
        engine = interface.TableauEngine(st, np.random.default_rng(0), {})
        interface.ec_rounds(g, engine, 1)
        assert st.same_state(encode_basis(code, [0], g.data_wires))
        _, _, herald_x, herald_z = interface.decode_syndrome(code, engine.bits(g.x_labels), engine.bits(g.z_labels))
        assert not herald_x[0] and not herald_z[0]

    def test_ec_contract_exhaustive_at_d3(self, sfam):
        # Noiseless gadget, input reduced weight 1 < d/2: output reduced
        # weight 0, for every single-qubit Pauli.
        code = sfam.level(2)
        g = interface.build_ec(code, [f"d{i}" for i in range(7)])
        clean = encode_basis(code, [0], g.data_wires)
        for q in range(7):
            for kind in ("X", "Z", "Y"):
                st = encode_basis(code, [0], g.data_wires)
                apply_error(st, f"d{q}", kind)
                interface.ec_rounds(g, interface.TableauEngine(st, np.random.default_rng(1), {}), 1)
                assert st.same_state(clean), (q, kind)

    def test_c422_weight_one_residual_bounded(self, fam):
        # Exhaustive over the 8 single-qubit X/Z errors: detected, and the
        # abstaining decoder leaves residual reduced weight <= 1.
        code = fam.level(2)
        g = interface.build_ec(code, [f"d{i}" for i in range(4)])
        for q in range(4):
            for kind in ("X", "Z"):
                st = encode_basis(code, [0, 0], g.data_wires)
                apply_error(st, f"d{q}", kind)
                outcomes = {}
                interface.ec_rounds(g, interface.TableauEngine(st, np.random.default_rng(0), outcomes), 1)
                assert any(outcomes.values())  # detected
                # Residual state differs from the clean one by the original
                # error (reduced weight 1): re-applying it restores.
                st2 = st.copy()
                apply_error(st2, f"d{q}", kind)
                assert st2.same_state(encode_basis(code, [0, 0], g.data_wires))


def noisy_fragments(plan: interface.InterfaceCircuit) -> list:
    """Every circuit a Gamma pass runs on a noisy engine."""
    ec = [c for g in (plan.q_gadget, *plan.b_gadgets) for c in (g.extraction, g.correction_circuit)]
    return ec + [plan.bell_circuit, plan.proc_wait_circuit, plan.b_correction_circuit]


class TestIdleRule:
    """A noisy layer touches each wire of its circuit exactly once, so a wire
    that only waits holds an idle location; noiseless encoders hold none."""

    @staticmethod
    def assert_padded(circuit: Circuit):
        for layer in circuit.layers:
            touched = [w for g in layer for w in g.wires]
            assert len(touched) == len(circuit.wires) and set(touched) == set(circuit.wires)

    @pytest.mark.parametrize("name", ["toy", "steane"])
    def test_every_noisy_layer_touches_each_wire_once(self, name):
        family = css.BUILTIN_FAMILIES[name]()
        for r_prime, r in itertools.combinations(range(1, family.depth + 1), 2):
            for s1, s2 in ((1, 1), (0, 0), (2, 0), (0, 2)):
                plan = interface.build_gamma(family, r, r_prime, interface.GammaKnobs(s1=s1, s2=s2))
                for circuit in noisy_fragments(plan):
                    self.assert_padded(circuit)
        for level in range(1, family.depth + 1):
            code = family.level(level)
            wait = interface.build_ec(code, [f"d{i}" for i in range(code.n)], "w.")  # an e2e wait
            self.assert_padded(wait.extraction)
            self.assert_padded(wait.correction_circuit)

    @pytest.mark.parametrize("name", ["toy", "steane"])
    def test_encoders_hold_no_idle(self, name):
        family = css.BUILTIN_FAMILIES[name]()
        for code in family.levels:
            encoder, _ = css.encoding_circuit(code, range(code.n))
            assert all(g.name != "idle" for layer in encoder.layers for g in layer)


class TestLogicalBellProcess:
    def test_exact_codewords(self, fam):
        code = fam.level(2)
        u, v, herald = interface.logical_bell_process(code, col([0] * 4), col([0] * 4))
        assert (int(u.sum()), int(v.sum()), bool(herald[0])) == (0, 0, False)

    def test_single_flip_steane_same_outcome(self, sfam):
        # Ten random ker(H_X) words, each with one random bit flipped, as one batch.
        code = sfam.level(2)
        rng = np.random.default_rng(2)
        kx = css.gf2.nullspace_basis(code.hx)
        m1 = gf2.mul_bits(kx.T, rng.integers(0, 2, (len(kx), 10), dtype=np.uint8))
        flipped = m1.copy()
        flipped[rng.integers(0, 7, 10), np.arange(10)] ^= 1
        zeros = np.zeros((7, 10), np.uint8)
        base_u, base_v, _ = interface.logical_bell_process(code, m1, zeros)
        u, v, herald = interface.logical_bell_process(code, flipped, zeros)
        assert not herald.any()
        assert np.array_equal(u, base_u) and np.array_equal(v, base_v)

    def test_radius_flips_herald(self, fam):
        # ceil(d/2) = 1 flip on the d = 2 code exceeds the decoding radius.
        code = fam.level(2)
        _, _, herald = interface.logical_bell_process(code, col([1, 0, 0, 0]), col([0] * 4))
        assert herald[0]

    def test_steane_two_flips_alias_silently(self, sfam):
        # The Hamming-based readout code is perfect (covering radius 1), so a
        # 2-flip error sits inside another codeword's ball: it decodes with a
        # weight-1 move and cannot herald. Documented behavior.
        code = sfam.level(2)
        _, _, herald = interface.logical_bell_process(code, col([1, 1, 0, 0, 0, 0, 0]), col([0] * 7))
        assert not herald[0]


def batch_codes():
    toy, steane = css.toy_family(), css.steane_family()
    return [(f"toy{r}", toy.level(r)) for r in (2, 3, 4)] + [("steane2", steane.level(2))]


class TestBatchedCalls:
    @pytest.mark.parametrize("name, code", batch_codes())
    def test_decode_batch_equals_columns(self, name, code):
        rng = np.random.default_rng(31)
        syn_x = rng.integers(0, 2, (len(code.hx), 64), dtype=np.uint8)
        syn_z = rng.integers(0, 2, (len(code.hz), 64), dtype=np.uint8)
        batch = interface.decode_syndrome(code, syn_x, syn_z)
        for leaders in batch[:2]:
            assert leaders.shape == (code.n, 64) and leaders.flags.c_contiguous
        for t in range(64):
            one = interface.decode_syndrome(code, syn_x[:, t : t + 1], syn_z[:, t : t + 1])
            for got, want in zip(batch, one):
                assert np.array_equal(got[..., t], want[..., 0]), t

    @pytest.mark.parametrize("name, code", batch_codes())
    def test_bell_batch_equals_columns(self, name, code):
        rng = np.random.default_rng(32)
        m1 = rng.integers(0, 2, (code.n, 64), dtype=np.uint8)
        m2 = rng.integers(0, 2, (code.n, 64), dtype=np.uint8)
        batch = interface.logical_bell_process(code, m1, m2)
        for t in range(64):
            one = interface.logical_bell_process(code, m1[:, t : t + 1], m2[:, t : t + 1])
            for got, want in zip(batch, one):
                assert np.array_equal(got[..., t], want[..., 0]), t

    def test_wrong_row_counts_raise(self, sfam):
        code = sfam.level(2)
        ok_x, ok_z = np.zeros((len(code.hx), 5), np.uint8), np.zeros((len(code.hz), 5), np.uint8)
        with pytest.raises(ValueError):
            interface.decode_syndrome(code, ok_x[:-1], ok_z)
        with pytest.raises(ValueError):
            interface.decode_syndrome(code, ok_x, np.zeros((len(code.hz) + 1, 5), np.uint8))
        m = np.zeros((code.n, 5), np.uint8)
        with pytest.raises(ValueError):
            interface.logical_bell_process(code, m[:-1], m)
        with pytest.raises(ValueError):
            interface.logical_bell_process(code, m, np.zeros((code.n + 1, 5), np.uint8))


class TestGammaNoiseless:
    def test_sizes_forced_by_family(self, fam):
        plan = interface.build_gamma(fam, 2, 1)
        assert len(plan.q_wires) == 4 and len(plan.a_wires) == 4
        assert plan.blocks == 2 and len(plan.b_wires) == 2

    @pytest.mark.parametrize(
        "name, r, counts",
        [
            ("toy", 4, {(1, 1): 72, (0, 0): 52, (0, 1): 64, (1, 0): 60}),
            ("steane", 2, {(1, 1): 21, (0, 0): 15, (0, 1): 15, (1, 0): 21}),
        ],
    )
    def test_qubit_count_is_the_wires_a_pass_runs(self, fam, sfam, name, r, counts):
        # Q ancillas only with input EC (s1 > 0), B gadgets only with output EC (s2 > 0);
        # a frame batch over exactly these wires runs the whole pass.
        family = fam if name == "toy" else sfam
        for (s1, s2), count in counts.items():
            plan = interface.build_gamma(family, r, r - 1, interface.GammaKnobs(s1=s1, s2=s2))
            assert plan.qubit_count == count
            assert len(plan.b_gadgets) == (plan.blocks if s2 and r > 2 else 0)
            interface.gamma_frames(plan, NoiseParams(delta=0.05, seed=1), 20)

    def test_resource_tableau_valid(self, fam):
        plan = interface.build_gamma(fam, 3, 2)
        tab = plan.resource_tableau()
        assert tab.n == plan.code_r.n + plan.blocks * plan.code_rp.n

    @pytest.mark.parametrize("name, r, rp", [("toy", 2, 1), ("toy", 3, 2), ("toy", 4, 3), ("steane", 2, 1)])
    def test_resource_holds_its_bell_pairs(self, name, r, rp):
        # Every X^A_j X^B_j, every Z^A_j Z^B_j and every block stabilizer reads 0.
        plan = interface.build_gamma(css.BUILTIN_FAMILIES[name](), r, rp)
        tab = plan.resource_tableau()
        assert tab.labels == list(plan.a_wires + plan.b_wires)
        zero = np.zeros(tab.n, np.uint8)
        reps = zip(plan.code_r.lx, plan.lxb, plan.code_r.lz, plan.lzb)
        for ax, bx, az, bz in reps:
            assert tab.expectation_z(np.concatenate([ax, bx]), zero) == 0
            assert tab.expectation_z(zero, np.concatenate([az, bz])) == 0
        n_r, n_rp = plan.code_r.n, plan.code_rp.n
        blocks = [(plan.code_r, 0)] + [(plan.code_rp, n_r + i * n_rp) for i in range(plan.blocks)]
        for code, start in blocks:
            for basis, is_x in ((code.x_stabilizer_basis(), True), (code.z_stabilizer_basis(), False)):
                for row in basis:
                    pauli = zero.copy()
                    pauli[start : start + code.n] = row
                    assert tab.expectation_z(pauli if is_x else zero, zero if is_x else pauli) == 0

    @pytest.mark.parametrize("u", list(itertools.product([0, 1], repeat=2)))
    def test_basis_states_exact(self, fam, u):
        plan = interface.build_gamma(fam, 2, 1)
        code = fam.level(2)
        logical = Tableau.zero_state([0, 1])
        logical.apply_pauli_on(logical.labels, u, [0] * len(u))
        inp = css.encoded_tableau((code,), logical, plan.q_wires)
        engine = interface.TableauEngine(inp, np.random.default_rng(1), {})
        herald = interface.gamma_pass(plan, engine)
        assert not herald[0]
        # Both Bell readouts are codewords of the level-r readout codes.
        for h, labels in ((code.hx, plan.m1_labels), (code.hz, plan.m2_labels)):
            readout = np.array([engine.outcomes[l] for l in labels], np.uint8)
            assert not (h @ readout % 2).any()
        assert inp.same_state(interface.expected_output_tableau(plan, logical))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_logical_states_exact(self, fam, seed):
        plan = interface.build_gamma(fam, 2, 1)
        code = fam.level(2)
        logical = random_stabilizer_state([0, 1], np.random.default_rng(seed))
        inp = css.encoded_tableau((code,), logical, plan.q_wires)
        engine = interface.TableauEngine(inp, np.random.default_rng(seed + 1), {})
        herald = interface.gamma_pass(plan, engine)
        assert not herald[0]
        assert inp.same_state(interface.expected_output_tableau(plan, logical))

    def test_gamma_3_2_basis_exact(self, fam):
        plan = interface.build_gamma(fam, 3, 2)
        code = fam.level(3)
        logical = Tableau.zero_state(list(range(4)))
        logical.apply_pauli_on([2], [1], [0])
        inp = css.encoded_tableau((code,), logical, plan.q_wires)
        engine = interface.TableauEngine(inp, np.random.default_rng(0), {})
        herald = interface.gamma_pass(plan, engine)
        assert not herald[0]
        assert inp.same_state(interface.expected_output_tableau(plan, logical))

    @pytest.mark.parametrize("levels", [(3, 2), (4, 3), (3, 1)])
    def test_higher_levels_random_states_exact(self, fam, levels):
        # Includes a two-level drop (r - r' = 2, four output blocks).
        r, rp = levels
        plan = interface.build_gamma(fam, r, rp)
        assert plan.blocks == fam.level(r).m // fam.level(rp).m
        code = fam.level(r)
        for seed in range(3):
            logical = random_stabilizer_state(
                list(range(code.m)), np.random.default_rng(seed), moves=3 * code.m
            )
            inp = css.encoded_tableau((code,), logical, plan.q_wires)
            engine = interface.TableauEngine(inp, np.random.default_rng(seed + 50), {})
            herald = interface.gamma_pass(plan, engine)
            assert not herald[0]
            assert inp.same_state(interface.expected_output_tableau(plan, logical))

    def test_steane_correctable_errors_exhaustive(self, sfam):
        plan = interface.build_gamma(sfam, 2, 1)
        code = sfam.level(2)
        for u in ((0,), (1,)):
            logical = Tableau.zero_state([0])
            logical.apply_pauli_on([0], u, [0])
            want = interface.expected_output_tableau(plan, logical)
            cases = [None] + [(q, k) for q in range(7) for k in ("X", "Z", "Y")]
            for case in cases:
                inp = css.encoded_tableau((code,), logical, plan.q_wires)
                if case is not None:
                    apply_error(inp, plan.q_wires[case[0]], case[1])
                engine = interface.TableauEngine(inp, np.random.default_rng(5), {})
                herald = interface.gamma_pass(plan, engine)
                assert not herald[0], case
                assert inp.same_state(want), case


class TestTableauExecutor:
    # Outcome dicts recorded before the direct measurement update and the
    # memoised combinations: the same seed must give the same outcomes.
    GOLDEN_STEANE = {
        "m1.0": 0, "m1.1": 0, "m1.2": 1, "m1.3": 0, "m1.4": 1, "m1.5": 1, "m1.6": 0,
        "m2.0": 1, "m2.1": 1, "m2.2": 1, "m2.3": 0, "m2.4": 0, "m2.5": 0, "m2.6": 0,
        "q.sx0": 1, "q.sx1": 0, "q.sx2": 0,
        "q.sz0": 1, "q.sz1": 0, "q.sz2": 0,
    }
    GOLDEN_TOY_3_2 = {
        "b0.sx0": 0, "b0.sz0": 0, "b1.sx0": 0, "b1.sz0": 0,
        "m1.0": 0, "m1.1": 1, "m1.2": 1, "m1.3": 0, "m1.4": 0,
        "m1.5": 1, "m1.6": 1, "m1.7": 0, "m1.8": 1, "m1.9": 1,
        "m2.0": 1, "m2.1": 1, "m2.2": 1, "m2.3": 1, "m2.4": 1,
        "m2.5": 0, "m2.6": 1, "m2.7": 1, "m2.8": 0, "m2.9": 0,
        "q.sx0": 0, "q.sx1": 0, "q.sx2": 0,
        "q.sz0": 1, "q.sz1": 0, "q.sz2": 0,
    }

    def test_golden_outcomes_steane(self, sfam):
        plan = interface.build_gamma(sfam, 2, 1)
        logical = Tableau.zero_state([0])
        logical.apply_pauli_on([0], [1], [0])
        inp = css.encoded_tableau((sfam.level(2),), logical, plan.q_wires)
        apply_error(inp, plan.q_wires[3], "Y")
        engine = interface.TableauEngine(inp, np.random.default_rng(11), {})
        interface.gamma_pass(plan, engine)
        assert engine.outcomes == self.GOLDEN_STEANE
        assert inp.same_state(interface.expected_output_tableau(plan, logical))

    def test_golden_outcomes_toy_3_2(self, fam):
        plan = interface.build_gamma(fam, 3, 2)
        logical = random_stabilizer_state(list(range(4)), np.random.default_rng(4), moves=12)
        inp = css.encoded_tableau((fam.level(3),), logical, plan.q_wires)
        apply_error(inp, plan.q_wires[2], "X")
        engine = interface.TableauEngine(inp, np.random.default_rng(9), {})
        interface.gamma_pass(plan, engine)
        assert engine.outcomes == self.GOLDEN_TOY_3_2

    def test_runs_in_place_with_spectators(self, fam):
        plan = interface.build_gamma(fam, 2, 1)
        logical = random_stabilizer_state([0, 1], np.random.default_rng(6))
        state = css.encoded_tableau((fam.level(2),), logical, plan.q_wires)
        spectator = Tableau.zero_state(["s0", "s1"])
        spectator.apply_pauli_on(["s1"], [1], [0])
        state.extend(spectator)
        engine = interface.TableauEngine(state, np.random.default_rng(2), {})
        interface.gamma_pass(plan, engine)
        assert engine.state is state
        assert set(state.labels) == set(plan.b_wires) | {"s0", "s1"}
        assert state.measure_z("s0") == (0, True)
        assert state.measure_z("s1") == (1, True)
        assert state.same_state(interface.expected_output_tableau(plan, logical))

    def test_spectator_collision_rejected(self, fam):
        plan = interface.build_gamma(fam, 2, 1)
        state = css.encoded_tableau((fam.level(2),), Tableau.zero_state([0, 1]), plan.q_wires)
        state.extend(Tableau.zero_state([plan.b_wires[0]]))
        with pytest.raises(ValueError, match="collide"):
            interface.gamma_pass(plan, interface.TableauEngine(state, np.random.default_rng(0), {}))


    def test_idle_only_fragments_skip_run_noisy(self, monkeypatch):
        ran = []
        monkeypatch.setattr(interface.circuit, "run_noisy", lambda frag, *a, **k: ran.append(frag))
        engine = interface.TableauEngine(Tableau.zero_state(["a", "b"]), np.random.default_rng(0), {})
        idle = Circuit(["a", "b"]).add_layer([Gate("idle", ("a",)), Gate("idle", ("b",))])
        engine.run(idle)
        engine.run(Circuit(["a", "b"]))
        engine.run(Circuit(["a", "b"]).add_layer([]))
        assert ran == []
        busy = Circuit(["a", "b"]).add_layer([Gate("idle", ("a",)), Gate("h", ("b",))])
        engine.run(busy)
        assert ran == [busy]


class TestPlanCache:
    def test_build_gamma_returns_the_cached_plan(self, fam):
        assert interface.build_gamma(fam, 3, 2) is interface.build_gamma(fam, 3, 2)
        knobs = interface.GammaKnobs(s1=2)
        assert interface.build_gamma(fam, 3, 2, knobs) is interface.build_gamma(fam, 3, 2, knobs)
        assert interface.build_gamma(fam, 3, 2, knobs) is not interface.build_gamma(fam, 3, 2)
        listed = interface.GammaKnobs(proc_poly=[0, 1])
        assert interface.build_gamma(fam, 3, 2, listed) is interface.build_gamma(
            fam, 3, 2, interface.GammaKnobs()
        )

    def test_cached_plan_is_read_only(self, fam):
        plan = interface.build_gamma(fam, 2, 1)
        with pytest.raises(AttributeError):
            plan.blocks = 3
        with pytest.raises(ValueError):
            plan.lxb[0, 0] ^= 1

    def test_resource_tableau_copies_are_independent(self, fam):
        plan = interface.build_gamma(fam, 3, 2)
        first = plan.resource_tableau()
        first.apply_pauli_on([first.labels[0]], [1], [0])
        first.measure_z(first.labels[1], np.random.default_rng(0))
        first.rename({first.labels[0]: "moved"})
        second = plan.resource_tableau()
        css._encoding_circuit.cache_clear()
        fresh = plan.resource_tableau()  # through rebuilt encoder circuits
        assert second is not first and not second.same_state(first)
        assert second.labels == fresh.labels and second.same_state(fresh)


class TestFaultLocality:
    def test_single_fault_lightcone_in_fragments(self, fam):
        # Raw-circuit locality: one fault spreads to at most
        # (max arity) * (remaining depth) wires inside each fragment.
        plan = interface.build_gamma(fam, 2, 1)
        for frag in (plan.q_gadget.extraction, plan.bell_circuit):
            rows = [(li, lf.rows.start + gi, g) for li, lf in enumerate(frag.fault_table().layers)
                    for gi, g in enumerate(frag.layers[li])]
            for li, row, g in rows:
                remaining = frag.depth - li
                if g.name == "measure":
                    continue
                code = sum(4**j for j in range(len(g.wires)))  # X on every wire of the gate
                batch = FrameBatch(frag.wires, 1)
                FrameRunner(NoiseParams(delta=0.0, seed=0)).run(
                    frag, batch, forced_faults=([row], [0], [code])
                )
                support = int(((batch.x[:, 0] | batch.z[:, 0]) != 0).sum())
                assert support <= 2 * max(1, remaining), (li, row)


class TestEstimateTau:
    def test_zero_delta_zero_failures(self, fam):
        est = interface.estimate_tau(
            fam, 2, 1, NoiseParams(delta=0.0, seed=3), trials=500, mu=0.25
        )
        assert est.failures == 0 and est.rate == 0.0

    def test_deterministic(self, fam):
        p = NoiseParams(delta=0.01, seed=11)
        a = interface.estimate_tau(fam, 2, 1, p, trials=4000, mu=0.25)
        b = interface.estimate_tau(fam, 2, 1, p, trials=4000, mu=0.25)
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_worker_count_invariant(self, fam):
        p = NoiseParams(delta=0.01, seed=11)
        a = interface.estimate_tau(fam, 2, 1, p, trials=4000, mu=0.25, chunk_size=1000)
        b = interface.estimate_tau(
            fam, 2, 1, p, trials=4000, mu=0.25, chunk_size=1000, workers=2
        )
        assert type(b) is interface.ChunkStats
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_monotone_small(self, fam):
        rates = []
        for d in (0.02, 0.005):
            est = interface.estimate_tau(
                fam, 2, 1, NoiseParams(delta=d, seed=7), trials=20_000, mu=0.25
            )
            rates.append(est.rate)
        assert rates[0] > rates[1]

    def test_histogram_shapes(self, fam):
        est = interface.estimate_tau(
            fam, 3, 2, NoiseParams(delta=0.01, seed=2), trials=2000, mu=0.25
        )
        assert est.block_weight_hist.shape == (2, fam.level(2).n + 1)
        assert est.block_weight_hist.sum() == 2 * est.trials
        assert est.out_qubit_error_rate.shape == (2 * fam.level(2).n,)

    def test_frame_path_corrects_injected_input_error(self, sfam):
        # delta = 0 frames with a weight-1 input error per trial: the bell
        # processing absorbs it, so the output frame is exactly clean.
        plan = interface.build_gamma(sfam, 2, 1)
        trials = 32
        for q in range(7):
            ex = np.zeros((7, trials), np.uint8)
            ez = np.zeros((7, trials), np.uint8)
            ex[q] = 1
            run = interface.gamma_frames(
                plan, NoiseParams(delta=0.0, seed=1), trials, input_frames=(ex, ez)
            )
            assert not run.herald.any()
            assert run.out_x.sum() == 0 and run.out_z.sum() == 0

    def test_frame_path_logical_input_flips_output(self, sfam):
        # A logical X on the input survives decoding as a logical flip.
        plan = interface.build_gamma(sfam, 2, 1)
        lx = sfam.level(2).lx[0]
        trials = 16
        ex = np.tile(lx[:, None], (1, trials)).astype(np.uint8)
        ez = np.zeros_like(ex)
        run = interface.gamma_frames(
            plan, NoiseParams(delta=0.0, seed=1), trials, input_frames=(ex, ez)
        )
        assert run.out_x.all() and not run.out_z.any()

    def test_resource_failure_forces_failures(self, fam):
        knobs = interface.GammaKnobs(resource_fail_prob=1.0)
        est = interface.estimate_tau(
            fam, 2, 1, NoiseParams(delta=0.0, seed=5), trials=300, mu=0.25, knobs=knobs
        )
        assert est.rate > 0.9

    def test_gamma_output_marginal_scales_with_delta(self, fam):
        # lambda' is measured, not asserted: check the fitted slope is finite
        # and the marginal shrinks with delta.
        m_hi = interface.estimate_tau(
            fam, 2, 1, NoiseParams(delta=0.02, seed=13), trials=20_000, mu=0.25
        ).out_qubit_error_rate.mean()
        m_lo = interface.estimate_tau(
            fam, 2, 1, NoiseParams(delta=0.005, seed=13), trials=20_000, mu=0.25
        ).out_qubit_error_rate.mean()
        assert m_hi > m_lo > 0
        assert m_lo / 0.005 < 120  # measured lambda' stays bounded at toy scale


class TestFrameClassification:
    @pytest.mark.parametrize("n", [1, 10, 63, 64, 65, 130])
    def test_reduced_weights_match_broadcast(self, n):
        # k = 13 generators: the span walks in two blocks of 2^12. Column 0
        # is set only in the last generator, so a residual with bit 0 set
        # reaches weight 0 only through the second block.
        rng = np.random.default_rng(n)
        k = 13
        gens = rng.integers(0, 2, (k, n), dtype=np.uint8)
        gens[:, 0] = 0
        gens[k - 1, 0] = 1
        combos = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
        span = (combos @ gens) % 2
        e = rng.integers(0, 2, (60, n), dtype=np.uint8)
        e[:10] = 0  # zero errors
        e[10:20] = span[3]  # errors that reduce to weight 0 in the first block
        e[20:30] = span[(1 << 12) + 5]  # ... and only in the second block
        brute = np.array([np.count_nonzero(row != span, axis=1).min() for row in e])
        first = np.array([np.count_nonzero(row != span[: 1 << 12], axis=1).min() for row in e[20:30]])
        assert k > gf2.SPAN_BLOCK_BITS and (brute[:30] == 0).all() and (first > 0).all()
        for rows in (e, np.ascontiguousarray(e.T).T):  # row-major and FrameBatch layouts
            res = gf2.coset_min_weight(gens, rows)
            assert res.exact and np.array_equal(res.weight, brute)
        assert np.array_equal(gf2.coset_min_weight(gens[:, ::-1], e[:, ::-1]).weight, brute)

    def test_frame_tables_cached_and_read_only(self, fam):
        code = fam.level(3)
        tables, cosets = interface._frame_tables(code), interface._coset_tables(code)
        assert interface._frame_tables(code) is tables and interface._coset_tables(code) is cosets
        leaders = [t.errors for t in tables] + [t.weights for t in tables]
        for arr in leaders + [t.weights for t in cosets] + [t.logical for t in cosets]:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] ^= 1
        for arr in (code.hx, code.hz, code.lx, code.lz):
            with pytest.raises(ValueError):
                arr[0, 0] ^= 1

    @staticmethod
    def brute_classification(plan, run, mu):
        """Reference: dense 2^k stabilizer cosets and direct leader lookups."""
        code = plan.code_rp
        n = code.n

        def span(basis):
            k = len(basis)
            combos = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
            return (combos @ basis) % 2

        def weights(e, cosets):
            return ((e[:, None, :] ^ cosets[None]) != 0).sum(axis=2).min(axis=1)

        stab_x, stab_z = span(code.x_stabilizer_basis()), span(code.z_stabilizer_basis())
        table_x, table_z = interface.build_leader_table(code.hz), interface.build_leader_table(code.hx)
        hx, hz, lx, lz = code.hx, code.hz, code.lx, code.lz
        overflow = np.zeros(len(run.herald), bool)
        logical = np.zeros(len(run.herald), bool)
        hist = np.zeros((plan.blocks, n + 1), np.int64)
        for i in range(plan.blocks):
            ex = np.array(run.out_x[i * n : (i + 1) * n].T)
            ez = np.array(run.out_z[i * n : (i + 1) * n].T)
            rw = np.maximum(weights(ex, stab_x), weights(ez, stab_z))
            overflow |= rw > mu * n
            ehat_x, _ = table_x.lookup(ex @ hz.T % 2)
            ehat_z, _ = table_z.lookup(ez @ hx.T % 2)
            logical |= ((ex ^ ehat_x.T) @ lz.T % 2).any(axis=1)
            logical |= ((ez ^ ehat_z.T) @ lx.T % 2).any(axis=1)
            hist[i] = np.bincount(rw, minlength=n + 1)
        return overflow, logical, hist

    def test_classification_matches_brute_force(self, fam):
        plan = interface.build_gamma(fam, 4, 3)
        run = interface.gamma_frames(plan, NoiseParams(delta=0.01, seed=77), 3000)
        got = interface.classify_gamma_output(plan, run, 0.25)
        assert got[0].any() and got[1].any() and (got[2][:, 1:] > 0).any()
        for a, b in zip(got, self.brute_classification(plan, run, 0.25)):
            assert np.array_equal(a, b)

    @staticmethod
    def search_classification(plan, run, mu):
        """Reference: the coset search `gf2.coset_min_weight` for the weights and
        `decode_syndrome` for the leaders, block by block."""
        code, n = plan.code_rp, plan.code_rp.n
        overflow = np.zeros(len(run.herald), bool)
        logical = np.zeros(len(run.herald), bool)
        hist = np.zeros((plan.blocks, n + 1), np.int64)
        for i in range(plan.blocks):
            ex, ez = run.out_x[i * n : (i + 1) * n], run.out_z[i * n : (i + 1) * n]
            wx, wz = (gf2.coset_min_weight(b, e.T) for b, e in ((code.x_stabilizer_basis(), ex), (code.z_stabilizer_basis(), ez)))
            assert wx.exact and wz.exact
            rw = np.maximum(wx.weight, wz.weight)
            overflow |= rw > mu * n
            ehat_x, ehat_z, _, _ = interface.decode_syndrome(code, code.hx @ ez % 2, code.hz @ ex % 2)
            logical |= (code.lz @ (ex ^ ehat_x) % 2).any(axis=0) | (code.lx @ (ez ^ ehat_z) % 2).any(axis=0)
            hist[i] = np.bincount(rw, minlength=n + 1)
        return overflow, logical, hist

    @pytest.mark.parametrize("delta", [0.003, 0.01, 0.03])
    def test_classification_matches_search_and_decode(self, fam, delta):
        # Frames of a noisy toy 4 -> 3 pass, and random residuals on two
        # Hamming [[15,7,3]] blocks, whose leaders can flip a logical.
        plan = interface.build_gamma(fam, 4, 3)
        hamming = plan._replace(code_rp=css.CssCode.from_checks(HAMMING_15, HAMMING_15))
        rng = np.random.default_rng(int(delta * 1000))
        random = interface.GammaFrameRun(
            *((rng.random((30, 2000)) < 10 * delta).astype(np.uint8) for _ in range(2)), np.zeros(2000, bool)
        )
        for p, run in ((plan, interface.gamma_frames(plan, NoiseParams(delta=delta, seed=3), 2000)), (hamming, random)):
            got = interface.classify_gamma_output(p, run, 0.25)
            want = self.search_classification(p, run, 0.25)
            assert want[1].any() and (want[2][:, 1:] > 0).any()
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_classification_decodes_before_reading_logicals(self, fam, sfam):
        # No leader of a toy code flips one of its logicals, so a toy batch
        # cannot tell a decoded residual from a raw one. Steane leaders can:
        # classify random residuals on two Steane output blocks.
        plan = interface.build_gamma(fam, 4, 3)._replace(code_rp=sfam.level(2))
        rng = np.random.default_rng(5)
        out_x, out_z = ((rng.random((14, 2000)) < 0.1).astype(np.uint8) for _ in range(2))
        run = interface.GammaFrameRun(out_x=out_x, out_z=out_z, herald=np.zeros(2000, bool))
        got = interface.classify_gamma_output(plan, run, 0.25)
        want = self.brute_classification(plan, run, 0.25)
        raw = (sfam.level(2).lz @ out_x[:7] % 2).any(axis=0)
        assert (raw != want[1]).any()  # the decode matters on this batch
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    # The first four golden counts as the per-layer fault draws gave them.
    PREVIOUS = {0.01: (2851, 2484, 1973, 2699), 0.003: (1844, 1384, 1028, 1588)}

    @pytest.mark.parametrize(
        "delta, fail_prob, counts",
        [
            # (failures, heralds, weight overflows, logical errors, block-0 and
            # block-1 weight histograms), recorded when circuit faults began to
            # be drawn once per fragment run; any change to a random stream or
            # to the classification moves them.
            (0.01, 0.0, (2834, 2496, 2019, 2681, [540, 964, 1496, 0, 0], [726, 968, 1306, 0, 0])),
            (0.003, 0.05, (1884, 1391, 1028, 1628, [1622, 562, 816, 0, 0], [1834, 532, 634, 0, 0])),
        ],
    )
    def test_golden_tau_counts(self, fam, delta, fail_prob, counts):
        est = interface.estimate_tau(
            fam, 3, 2, NoiseParams(delta=delta, seed=2024), trials=3000, mu=0.25,
            knobs=interface.GammaKnobs(resource_fail_prob=fail_prob), chunk_size=1000,
        )
        got = (est.failures, est.heralds, est.weight_overflows, est.logical_errors,
               *est.block_weight_hist.tolist())
        assert got == counts
        previous = self.PREVIOUS[delta]  # 99.9% Wilson intervals overlap
        assert all(wilson_overlap(a, b, est.trials) for a, b in zip(previous, got)), (previous, got)


class TestGammaValidation:
    def test_level_ordering_enforced(self, fam):
        with pytest.raises(ValueError):
            interface.build_gamma(fam, 1, 1)
        with pytest.raises(ValueError):
            interface.build_gamma(fam, 2, 3)

    def test_divisibility_enforced(self, sfam):
        fam_bad = css.CodeFamily(
            levels=(sfam.levels[1], sfam.levels[1], css.c422()),
            alpha=0.1,
            beta=0.1,
            r0=3,
            provenance="bad",
        )
        # m_3 = 2, m_2 = 1: fine; force failure with m_r=1, m_rp=2
        with pytest.raises(ValueError):
            interface.build_gamma(
                css.CodeFamily(
                    levels=(css.c422(), sfam.levels[1]),
                    alpha=0.1,
                    beta=0.1,
                    r0=2,
                    provenance="bad",
                ),
                2,
                1,
            )


def _brute_min_weights(h: np.ndarray) -> np.ndarray:
    """Min error weight per syndrome index over all 2^n errors; -1 if unreachable."""
    rows, n = h.shape
    errors = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int64)
    idx = ((errors @ h.T.astype(np.int64)) % 2) @ (1 << np.arange(rows, dtype=np.int64))
    best = np.full(1 << rows, n + 1)
    np.minimum.at(best, idx, errors.sum(axis=1))
    return np.where(best > n, -1, best)


class TestLeaderLookupRows:
    @pytest.mark.parametrize(
        "which", ["steane hx", "toy3 hz", "toy4 hx", "no checks"]
    )
    def test_matches_per_trial_decode(self, fam, sfam, which):
        h = {
            "steane hx": lambda: sfam.level(2).hx,
            "toy3 hz": lambda: fam.level(3).hz,
            "toy4 hx": lambda: fam.level(4).hx,
            "no checks": lambda: np.zeros((0, 5), np.uint8),
        }[which]()
        table = interface.build_leader_table(h)
        rows, n = h.shape
        rng = np.random.default_rng(rows * 31 + n)
        syn_rows = rng.integers(0, 2, (rows, 300), dtype=np.uint8)  # wire-major syndromes
        errors, weights = table.lookup(syn_rows.T)
        assert errors.shape == (n, 300) and errors.flags.c_contiguous
        brute = _brute_min_weights(h)
        for t in range(300):
            e1, w1 = table.lookup(syn_rows[:, t].reshape(1, -1))
            assert np.array_equal(errors[:, t], e1[:, 0]) and weights[t] == w1[0]
            s = int(syn_rows[:, t] @ (1 << np.arange(rows)))
            assert weights[t] == brute[s]
            if weights[t] >= 0:
                assert np.array_equal(h @ errors[:, t] % 2, syn_rows[:, t])
                assert errors[:, t].sum() == weights[t]
            else:
                assert not errors[:, t].any()
        errors, weights = table.lookup(syn_rows[:, :0].T)  # a batch of 0 trials
        assert errors.shape == (n, 0) and errors.flags.c_contiguous and weights.shape == (0,)

    def test_table_is_read_only(self, fam):
        table = interface.build_leader_table(fam.level(3).hx)
        assert table.errors.shape == (1 << len(table.h), table.h.shape[1])  # one row per syndrome
        for arr in (table.errors, table.weights):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestTableLimits:
    """`check_table` refuses a table too large to build before any enumeration."""

    @staticmethod
    def blocks(k: int) -> np.ndarray:
        """k disjoint weight-4 checks on 4k qubits: k rows at rank k."""
        return np.kron(np.eye(k, dtype=np.uint8), np.ones((1, 4), np.uint8))

    def test_worst_case_support_bound(self):
        interface.check_table(self.blocks(8))  # 15,033,172 supports at worst
        for k, supports in ((9, 135142795), (12, 100946732306)):
            with pytest.raises(ValueError, match=f"{4 * k} qubits at rank {k} in one sector; .* {supports} supports"):
                interface.check_table(self.blocks(k))

    def test_build_refuses_before_enumerating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="supports, more than MAX_TABLE_SUPPORTS"):
            interface.build_leader_table(self.blocks(12))
        assert time.perf_counter() - start < 5

    def test_row_limits_name_the_table(self):
        h = np.eye(15, dtype=np.uint8)
        with pytest.raises(ValueError, match="15 checks in one sector; leader tables decode at most 14"):
            interface.check_table(h)
        with pytest.raises(ValueError, match="15 checks and logicals in one sector; coset tables classify at most 14"):
            interface.check_table(h, coset=True)

    def test_shipped_tables_fit(self, fam, sfam):
        hamming = css.CssCode.from_checks(HAMMING_15, HAMMING_15)
        for code in (*fam.levels, *sfam.levels, hamming):
            for h, logicals in ((code.hx, code.lx), (code.hz, code.lz)):
                interface.check_table(h)
                interface.check_table(np.concatenate([h, logicals]), coset=True)


class TestWireMajorGamma:
    # The first four golden counts as the per-layer fault draws gave them.
    PREVIOUS = {0.01: (1996, 1907, 1707, 1994), 0.003: (1737, 1326, 757, 1647)}

    @pytest.mark.parametrize(
        "delta, fail_prob, counts",
        [
            # (failures, heralds, weight overflows, logical errors, block-0 and
            # block-1 weight histograms, summed per-wire output errors), recorded
            # when circuit faults began to be drawn once per fragment run.
            (0.01, 0.0, (1998, 1903, 1683, 1987, [32, 135, 504, 812, 517, 0, 0, 0, 0, 0, 0],
                         [60, 191, 540, 785, 424, 0, 0, 0, 0, 0, 0], 19265)),
            (0.003, 0.05, (1717, 1305, 790, 1632, [495, 385, 512, 340, 268, 0, 0, 0, 0, 0, 0],
                           [589, 503, 437, 267, 204, 0, 0, 0, 0, 0, 0], 10342)),
        ],
    )
    def test_golden_deep_tau_counts(self, fam, delta, fail_prob, counts):
        est = interface.estimate_tau(
            fam, 4, 3, NoiseParams(delta=delta, seed=2024), trials=2000, mu=0.25,
            knobs=interface.GammaKnobs(resource_fail_prob=fail_prob), chunk_size=1000,
        )
        got = (est.failures, est.heralds, est.weight_overflows, est.logical_errors,
               *est.block_weight_hist.tolist(), int(round(est.out_qubit_error_rate.sum() * est.trials)))
        assert got == counts
        previous = self.PREVIOUS[delta]  # 99.9% Wilson intervals overlap
        assert all(wilson_overlap(a, b, est.trials) for a, b in zip(previous, got)), (previous, got)

    @pytest.mark.parametrize("ls_delta", [0.02, 1.0])
    def test_resource_pass_leaves_the_ls_draw(self, fam, ls_delta):
        # One resource pass on zero frames leaves exactly the oracle's LS
        # sample on the A and B wires, drawn from the stream of that pass.
        plan = interface.build_gamma(fam, 3, 2, interface.GammaKnobs(resource_ls_delta=ls_delta))
        seed, key, chunk, trials = 11, (4,), 3, 500
        engine = interface.FrameEngine(NoiseParams(delta=0.0, seed=seed), trials, chunk, key)
        ab = plan.a_wires + plan.b_wires
        for p in range(2):
            engine.load(None, (), plan.all_wires)
            engine.resource(plan)
            rng = rng_stream(seed, STREAM_ORACLE, *key, p, chunk)
            want_x, want_z = sample_ls_bits(len(ab), ls_delta, rng, trials)
            cols = engine.batch.block(ab)
            assert np.array_equal(engine.batch.x[cols], want_x)
            assert np.array_equal(engine.batch.z[cols], want_z)
            assert engine.batch.x.sum() == want_x.sum() and engine.batch.z.sum() == want_z.sum()
        if ls_delta == 1.0:
            assert (want_x | want_z).all()

    def test_ec_gadgets_are_shared(self, fam):
        code = fam.level(3)
        wires = [f"d{i}" for i in range(code.n)]
        g = interface.build_ec(code, wires, label_prefix="w.")
        assert interface.build_ec(code, tuple(wires), label_prefix="w.") is g
        assert interface.build_ec(code, wires, label_prefix="v.") is not g
        plan = interface.build_gamma(fam, 4, 3)
        assert plan.b_gadgets[0] is interface.build_ec(code, plan.block_wires(0), label_prefix="b0.")


class TestOneWalkTwoEngines:
    """The exact oracle and the frame engine run the same Gamma walk."""

    @pytest.mark.parametrize("steane, r, r_prime", [(True, 2, 1), (False, 3, 2)])
    def test_single_input_errors_agree(self, fam, sfam, steane, r, r_prime):
        # delta = 0: for every single-qubit input error the tableau run heralds
        # exactly when the frame run does, and its output is the expected
        # output times the frame Pauli of that trial.
        family = sfam if steane else fam
        plan = interface.build_gamma(family, r, r_prime)
        code = family.level(r)
        logical = random_stabilizer_state(
            list(range(code.m)), np.random.default_rng(r), moves=3 * code.m
        )
        cases = [(q, kind) for q in range(code.n) for kind in ("X", "Z", "Y")]
        ex = np.zeros((code.n, len(cases)), np.uint8)
        ez = np.zeros_like(ex)
        for t, (q, kind) in enumerate(cases):
            ex[q, t] = kind in "XY"
            ez[q, t] = kind in "ZY"
        run = interface.gamma_frames(
            plan, NoiseParams(delta=0.0, seed=1), len(cases), input_frames=(ex, ez)
        )
        heralds = 0
        for t, (q, kind) in enumerate(cases):
            inp = css.encoded_tableau((code,), logical, plan.q_wires)
            apply_error(inp, plan.q_wires[q], kind)
            engine = interface.TableauEngine(inp, np.random.default_rng(t), {})
            herald = interface.gamma_pass(plan, engine)
            assert herald[0] == bool(run.herald[t]), (q, kind)
            want = interface.expected_output_tableau(plan, logical)
            want.apply_pauli_on(plan.b_wires, run.out_x[:, t], run.out_z[:, t])
            assert inp.same_state(want), (q, kind)
            heralds += herald[0]
        assert heralds == (0 if steane else len(cases))  # d = 3 corrects, d = 2 detects

    # The first four golden counts as the per-layer fault draws gave them.
    PREVIOUS = {0.01: (2000, 1982, 1879, 1999), 0.003: (1899, 1660, 1126, 1835)}

    @pytest.mark.parametrize(
        "delta, counts",
        [
            # (failures, heralds, weight overflows, logical errors, block-0 and
            # block-1 weight histograms), recorded when circuit faults began to
            # be drawn once per fragment run. Any change to an EC, Bell or
            # oracle stream tag, or to the decode, moves them.
            (0.01, (2000, 1974, 1904, 1999,
                    [5, 40, 364, 956, 635, 0, 0, 0, 0, 0, 0],
                    [10, 74, 389, 949, 578, 0, 0, 0, 0, 0, 0])),
            (0.003, (1902, 1620, 1095, 1848,
                     [235, 317, 607, 501, 340, 0, 0, 0, 0, 0, 0],
                     [342, 438, 557, 414, 249, 0, 0, 0, 0, 0, 0])),
        ],
    )
    def test_golden_tau_counts_two_rounds_and_resource_failures(self, fam, delta, counts):
        knobs = interface.GammaKnobs(s1=2, s2=2, resource_fail_prob=0.05)
        est = interface.estimate_tau(
            fam, 4, 3, NoiseParams(delta=delta, seed=5), trials=2000, mu=0.25,
            knobs=knobs, chunk_size=1000,
        )
        got = (est.failures, est.heralds, est.weight_overflows, est.logical_errors,
               *est.block_weight_hist.tolist())
        assert got == counts
        previous = self.PREVIOUS[delta]  # 99.9% Wilson intervals overlap
        assert all(wilson_overlap(a, b, est.trials) for a, b in zip(previous, got)), (previous, got)
