import tracemalloc

import numpy as np
import pytest

from decint import circuit, css, e2e, interface, noise, scheduler
from decint.noise import NoiseParams
from decint.tableau import Tableau


@pytest.fixture(scope="module")
def steane_setup():
    fam = css.steane_family()
    sched = scheduler.build_schedule(fam, 2, 1, h=3)
    return fam, sched


@pytest.fixture(scope="module")
def toy_setup():
    fam = css.toy_family()
    sched = scheduler.build_schedule(fam, 3, 1, h=2)
    return fam, sched


class TestChainSteps:
    def test_tree_structure(self, toy_setup, families):
        fam, sched = toy_setup
        stages = scheduler.effective_interface(sched, 0)
        assert len(stages) == 2
        assert len(stages[0]) == 1 and stages[0][0].level == 3
        assert len(stages[1]) == 2 and all(s.level == 2 for s in stages[1])
        # A block has as many descendants in a stage as the passes above yield.
        for fam in families.values():
            sched = scheduler.build_schedule(fam, fam.depth, 1, h=2)
            descendants = 1
            for level, stage in zip(range(fam.depth, 1, -1), scheduler.effective_interface(sched, 1), strict=True):
                assert [sp.block_index for sp in stage] == list(range(descendants, 2 * descendants))
                assert all(sp.level == level for sp in stage)
                descendants *= interface.build_gamma(fam, level, level - 1).blocks

    def test_waits_follow_position(self, steane_setup):
        fam, sched = steane_setup
        first = scheduler.effective_interface(sched, 0)[0][0]
        last = scheduler.effective_interface(sched, 2)[0][0]
        assert first.pre_wait == 0
        assert last.pre_wait == sched.stages[0].n_layers - 1
        assert last.post_wait == 0

    @pytest.mark.parametrize("name", ["toy", "steane", "trivial-steane-422", "trivial-422-hgp33"])
    def test_outputs_match_schedule(self, families, name):
        # The walk writes the schedule's output blocks, bare qubits, also
        # where a pass yields one block.
        fam = families[name]
        for r in range(2, fam.depth + 1):
            for h in (1, 2, 3, 5, 8):
                sched = scheduler.build_schedule(fam, r, 1, h=h)
                stats = e2e.run_e2e_frames(sched, NoiseParams(delta=0.0, seed=1), trials=2)
                assert len(stats.output_errors) == sched.output_blocks * fam.level(1).n, (r, h)


class TestTableauChain:
    def test_clean_run_all_blocks(self, steane_setup):
        fam, sched = steane_setup
        logical = Tableau.zero_state([0])
        logical.apply_pauli_on([0], [1], [0])
        for block in range(3):
            res = e2e.run_block_chain_tableau(sched, block, logical)
            assert res.state_matches and not res.heralds
            assert list(res.output_bits) == [1]

    def test_single_injections_subset(self, steane_setup):
        fam, sched = steane_setup
        logical = Tableau.zero_state([0])
        for case in [(0, "X"), (3, "Z"), (6, "Y")]:
            res = e2e.run_block_chain_tableau(sched, 1, logical, injections=[case])
            assert res.state_matches and not res.heralds, case
            assert list(res.output_bits) == [0]

    def test_toy_multilevel_chain(self, toy_setup):
        fam, sched = toy_setup
        logical = Tableau.zero_state(list(range(4)))
        logical.apply_pauli_on([0], [1], [0])
        logical.apply_h(2)
        logical.apply_cnot(2, 3)
        res = e2e.run_block_chain_tableau(sched, 0, logical)
        assert res.state_matches and not res.heralds


class TestSignBatchedChain:
    """One batched walk over every injection equals one walk per injection."""

    @pytest.mark.parametrize("setup, block", [("steane_setup", 2), ("toy_setup", 0)])
    def test_batch_equals_one_injection_runs(self, request, setup, block):
        fam, sched = request.getfixturevalue(setup)
        code = fam.level(sched.r)
        cases = [None] + [(q, k) for q in range(code.n) for k in "XZY"]
        outcomes = set()
        # |0...0> (Z leaves it be), |1...1>, then |+...+>, read out by shared random draws.
        preps = (lambda t, j: t.apply_pauli_on([j], [0], [1]), lambda t, j: t.apply_pauli_on([j], [1], [0]),
                 Tableau.apply_h)
        for prep in preps:
            logical = Tableau.zero_state(list(range(code.m)))
            for j in range(code.m):
                prep(logical, j)
            res = e2e.run_block_chain_tableau(sched, block, logical, injections=cases, seed=5)
            assert res.output_bits.shape == (len(cases), code.m)
            assert res.state_matches.shape == res.heralds.shape == (len(cases),)
            for t, case in enumerate(cases):
                one = e2e.run_block_chain_tableau(sched, block, logical, injections=[case], seed=5)
                assert np.array_equal(one.output_bits[0], res.output_bits[t]), case
                assert one.state_matches[0] == res.state_matches[t], case
                assert one.heralds[0] == res.heralds[t], case
                outcomes.add((bool(res.state_matches[t]), bool(res.heralds[t])))
        if setup == "toy_setup":  # the toy chain does fail: heralds and wrong states show up
            assert len(outcomes) > 1

    @pytest.mark.parametrize("setup, block", [("steane_setup", 2), ("toy_setup", 0)])
    def test_patterns_share_one_walk(self, request, setup, block):
        # |u>_L differs from |0...0>_L in its signs alone, so one walk over
        # patterns x cases equals one walk per pattern, trial by trial.
        fam, sched = request.getfixturevalue(setup)
        code = fam.level(sched.r)
        cases = [None] + [(q, k) for q in range(code.n) for k in "XZY"]
        patterns = np.unique([[0] * code.m, [1] * code.m, [j % 2 for j in range(code.m)]], axis=0)
        patterns = patterns.astype(np.uint8)
        bits = np.repeat(patterns, len(cases), axis=0)
        batch = Tableau.zero_state(list(range(code.m)))
        batch.apply_pauli_on(batch.labels, bits, np.zeros_like(bits))
        res = e2e.run_block_chain_tableau(sched, block, batch, injections=cases * len(patterns), seed=5)
        failing = 0
        for p, u in enumerate(patterns):
            logical = Tableau.zero_state(list(range(code.m)))
            logical.apply_pauli_on(logical.labels, u, np.zeros_like(u))
            one = e2e.run_block_chain_tableau(sched, block, logical, injections=cases, seed=5)
            part = slice(p * len(cases), (p + 1) * len(cases))
            assert np.array_equal(res.output_bits[part], one.output_bits), u
            assert np.array_equal(res.state_matches[part], one.state_matches), u
            assert np.array_equal(res.heralds[part], one.heralds), u
            failing += int((~one.state_matches | one.heralds | (one.output_bits != u).any(axis=1)).sum())
        # The Steane chain corrects every single injection; the toy chain does fail.
        assert (failing > 0) == (setup == "toy_setup")

    def test_logical_batch_must_match_the_injections(self, steane_setup, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a circuit ran")

        monkeypatch.setattr(circuit, "run_noisy", refuse)
        fam, sched = steane_setup
        logical = Tableau.zero_state([0])
        logical.apply_pauli_on([0], np.ones((3, 1), np.uint8), np.zeros((3, 1), np.uint8))
        for injections in ([None], [None, (0, "X")], [None] * 4):
            with pytest.raises(ValueError, match=f"logical batch of 3 trials for {len(injections)} injections"):
                e2e.run_block_chain_tableau(sched, 0, logical, injections=injections)

    def test_no_injections_rejected(self, steane_setup):
        fam, sched = steane_setup
        with pytest.raises(ValueError, match="at least one injection"):
            e2e.run_block_chain_tableau(sched, 0, Tableau.zero_state([0]), injections=[])

    def test_xor_rows_must_match_the_batch(self):
        engine = interface.TableauEngine(Tableau.zero_state(["a", "b"]), np.random.default_rng(0), {})
        engine.xor(["a"], np.ones((1, 3), np.uint8), np.zeros((1, 3), np.uint8))
        assert engine.trials == 3
        engine.xor(["b"], np.ones((1, 3), np.uint8), np.zeros((1, 3), np.uint8))
        for trials in (1, 2, 4):
            with pytest.raises(ValueError, match="batch of 3"):
                engine.xor(["a"], np.ones((1, trials), np.uint8), np.zeros((1, trials), np.uint8))


class TestFrameChain:
    def test_chain_must_end_on_bare_qubits(self):
        # Without toy's level 1 the chain ends on [[4,2,2]] blocks, not bare qubits.
        toy = css.toy_family()
        sched = scheduler.build_schedule(toy._replace(levels=toy.levels[1:]), 3, 1, h=1)
        with pytest.raises(ValueError, match="level 1 one qubit"):
            e2e.run_block_chain_frames(sched, 0, NoiseParams(delta=0.0, seed=1), trials=10)
        with pytest.raises(ValueError, match="level 1 one qubit"):
            e2e.run_block_chain_tableau(sched, 0, Tableau.zero_state(list(range(sched.family.level(3).m))))

    def test_zero_delta_no_errors(self, steane_setup):
        fam, sched = steane_setup
        res = e2e.run_block_chain_frames(
            sched, 0, NoiseParams(delta=0.0, seed=1), trials=300
        )
        assert res.error_bits.sum() == 0 and res.heralds.sum() == 0

    def test_deterministic(self, steane_setup):
        fam, sched = steane_setup
        p = NoiseParams(delta=0.01, seed=9)
        a = e2e.run_block_chain_frames(sched, 1, p, trials=500)
        b = e2e.run_block_chain_frames(sched, 1, p, trials=500)
        assert np.array_equal(a.error_bits, b.error_bits)

    def test_blocks_draw_independent_noise(self, steane_setup):
        fam, sched = steane_setup
        p = NoiseParams(delta=0.05, seed=9)
        a = e2e.run_block_chain_frames(sched, 0, p, trials=500)
        b = e2e.run_block_chain_frames(sched, 1, p, trials=500)
        assert not np.array_equal(a.error_bits, b.error_bits)

    def test_input_frames_propagate(self, steane_setup):
        fam, sched = steane_setup
        # A logical X on the input (weight-3 representative) survives EC and
        # decoding, flipping the output qubit deterministically at delta=0.
        code = fam.level(2)
        lx = code.lx[0]
        fx = np.tile(lx[:, None], (1, 50)).astype(np.uint8)
        fz = np.zeros_like(fx)
        res = e2e.run_block_chain_frames(
            sched, 0, NoiseParams(delta=0.0, seed=2), trials=50, input_frames=(fx, fz)
        )
        assert res.error_bits.all()


class TestE2EStats:
    def test_zero_delta_all_clean(self, steane_setup):
        fam, sched = steane_setup
        stats = e2e.run_e2e_frames(sched, NoiseParams(delta=0.0, seed=3), trials=200)
        assert stats.any_error_rate == 0.0
        assert stats.logical_error_marginals.shape == (3,)

    def test_marginals_grow_with_delta(self, steane_setup):
        fam, sched = steane_setup
        lo = e2e.run_e2e_frames(sched, NoiseParams(delta=0.001, seed=5), trials=4000)
        hi = e2e.run_e2e_frames(sched, NoiseParams(delta=0.01, seed=5), trials=4000)
        assert hi.mean_marginal() > lo.mean_marginal()

    def test_input_ls_noise_injected(self, steane_setup):
        fam, sched = steane_setup
        stats = e2e.run_e2e_frames(
            sched, NoiseParams(delta=0.0, seed=7), trials=2000, input_ls_delta=0.01
        )
        # Single-qubit input errors are corrected at delta = 0 (d = 3);
        # only multi-qubit input patterns can leak through.
        assert stats.any_error_rate < 0.01


    def test_chunks_sum_the_block_chains(self, toy_setup):
        # Three chunks (40, 40, 20 trials), each the hand sum of its blocks' chains.
        fam, sched = toy_setup
        params = NoiseParams(delta=0.001, seed=8)
        stats = e2e.run_e2e_frames(sched, params, 100, input_ls_delta=0.01, chunk_size=40)
        errors, heralds = [], []
        for chunk, size in enumerate([40, 40, 20]):
            runs = []
            for block in range(sched.h):
                rng = noise.rng_stream(params.seed, noise.STREAM_TRIAL, block, chunk)
                frames = noise.sample_ls_bits(fam.level(sched.r).n, 0.01, rng, size)
                runs.append(e2e.run_block_chain_frames(
                    sched, block, params, size, chunk=chunk, input_frames=frames
                ))
            errors.append(np.concatenate([run.error_bits for run in runs], axis=0))
            heralds.append(np.any([run.heralds for run in runs], axis=0))
        errors, heralds = np.concatenate(errors, axis=1), np.concatenate(heralds)
        pairs = e2e._pair_sample(errors.shape[0], e2e.MAX_PAIRS)
        assert stats.trials == 100
        np.testing.assert_array_equal(stats.output_errors, errors.sum(axis=1))
        np.testing.assert_array_equal(stats.pair_errors, [(errors[a] & errors[b]).sum() for a, b in pairs])
        assert (stats.heralds, stats.any_errors) == (heralds.sum(), errors.any(axis=0).sum())
        assert stats.pair_errors.any() and 0 < stats.heralds < 100


class TestPlanReuse:
    def test_second_chunk_compiles_no_fault_table(self, toy_setup, monkeypatch):
        # Toy r = 3, h = 2 leaves bare outputs waiting: their idle layers are
        # built and compiled once, like every other fragment of the chain.
        fam, sched = toy_setup
        compiled, chunk_starts = [], []
        compile_table, chunk_job = circuit.FaultTable.compile, e2e._e2e_chunk
        monkeypatch.setattr(circuit.FaultTable, "compile", classmethod(lambda cls, c: compiled.append(c) or compile_table(c)))

        def job(*args):
            chunk_starts.append(len(compiled))
            return chunk_job(*args)

        monkeypatch.setattr(e2e, "_e2e_chunk", job)
        e2e.run_e2e_frames(sched, NoiseParams(delta=0.01, seed=3), 60, chunk_size=30)
        assert len(chunk_starts) == 2
        assert len(compiled) == chunk_starts[1]


class TestFitConstants:
    def test_recovers_synthetic_constants(self):
        k1, k2 = 3.0, 0.5
        deltas = [0.02, 0.01, 0.005]
        singles = [(k1 * d) ** k2 for d in deltas]
        pairs = [(k1 * d) ** (2 * k2) for d in deltas]
        fit = e2e.fit_ls_constants(deltas, singles, pairs)
        assert fit is not None
        assert fit[0] == pytest.approx(k1, rel=1e-6)
        assert fit[1] == pytest.approx(k2, rel=1e-6)

    def test_degenerate_grid_rejected(self):
        assert e2e.fit_ls_constants([0.01], [0.1], [0.01]) is None
        assert e2e.fit_ls_constants([0.01, 0.02], [0.0, 0.0], [0.0, 0.0]) is None


class TestGoldenChainCounts:
    # Per-output-qubit error counts, herald count and any-error count of toy
    # r = 3, h = 2 with two EC rounds per wait layer, s1 = s2 = 2, resource
    # failures 0.05 and input LS noise 0.01 (4000 trials, seed 5), recorded
    # when circuit faults began to be drawn once per fragment run. Any change
    # to a stream key or to the order of a chain's fragment runs moves them.
    GOLDEN = {
        0.001: ([1521, 1378, 1476, 1374, 1763, 1651, 1743, 1553], 3802, 3671),
        0.003: ([2399, 2305, 2439, 2349, 2657, 2561, 2680, 2559], 3998, 3991),
    }
    # The same counts as the per-layer draws gave them.
    PREVIOUS = {
        0.001: ([1509, 1344, 1479, 1347, 1811, 1614, 1703, 1526], 3788, 3637),
        0.003: ([2386, 2267, 2423, 2346, 2689, 2627, 2652, 2591], 3995, 3990),
    }

    @pytest.mark.parametrize("delta", sorted(GOLDEN))
    def test_golden_e2e_counts(self, delta):
        fam = css.toy_family()
        knobs = interface.GammaKnobs(s1=2, s2=2, resource_fail_prob=0.05)
        sched = scheduler.build_schedule(fam, 3, 1, 2, knobs=knobs, wait_rounds=2)
        trials = 4000
        stats = e2e.run_e2e_frames(sched, NoiseParams(delta=delta, seed=5), trials, input_ls_delta=0.01)
        got = (stats.output_errors.tolist(), stats.heralds, stats.any_errors)
        assert got == self.GOLDEN[delta]
        old, new = self.PREVIOUS[delta], got
        for a, b in zip([*old[0], *old[1:]], [*new[0], *new[1:]]):
            (lo_a, hi_a), (lo_b, hi_b) = (interface.wilson_interval(c, trials, z=3.29) for c in (a, b))
            assert lo_a <= hi_b and lo_b <= hi_a, (old, new)  # 99.9% intervals overlap


class TestStreamKeys:
    """The frame engine keys each draw by its own counters, never by arithmetic."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        keys = []
        original = noise.rng_stream

        def recording(seed, *ids):
            keys.append((seed, *ids))
            return original(seed, *ids)

        for module in (noise, circuit, interface, e2e):
            monkeypatch.setattr(module, "rng_stream", recording)
        return keys

    def test_gamma_chunk_draws_distinct_streams(self, drawn):
        fam = css.toy_family()
        knobs = interface.GammaKnobs(s1=2, s2=2, resource_fail_prob=0.05)
        interface.estimate_tau(
            fam, 4, 3, NoiseParams(delta=0.01, seed=3), trials=100, mu=0.25,
            knobs=knobs, chunk_size=100,
        )
        assert {k[1] for k in drawn} == {noise.STREAM_CIRCUIT, noise.STREAM_ORACLE}
        assert len(set(drawn)) == len(drawn)

    def test_chain_chunk_draws_distinct_streams(self, drawn):
        fam = css.toy_family()
        sched = scheduler.build_schedule(fam, 4, 1, 4)
        e2e.run_e2e_frames(sched, NoiseParams(delta=0.01, seed=3), 50, input_ls_delta=0.01)
        purposes = {noise.STREAM_CIRCUIT, noise.STREAM_ORACLE, noise.STREAM_TRIAL}
        assert {k[1] for k in drawn} == purposes
        assert len(set(drawn)) == len(drawn)


class TestPairSample:
    def test_rows_match_full_enumeration(self):
        for n in range(201):
            pairs = np.stack(np.triu_indices(n, 1), axis=1)  # every (a, b), a < b, in lexicographic order
            if len(pairs) > e2e.MAX_PAIRS:
                pairs = pairs[:: len(pairs) // e2e.MAX_PAIRS][: e2e.MAX_PAIRS]
            np.testing.assert_array_equal(e2e._pair_sample(n, e2e.MAX_PAIRS), pairs, err_msg=str(n))

    def test_memory_does_not_grow_with_outputs(self):
        # 8,192 outputs have 33.5M pairs; only the sampled rows are built.
        tracemalloc.start()
        try:
            rows = e2e._pair_sample(8192, e2e.MAX_PAIRS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (e2e.MAX_PAIRS, 2)
        assert (rows[:, 0] < rows[:, 1]).all() and rows.max() < 8192
        assert peak < 2**20
