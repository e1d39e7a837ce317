import numpy as np
import pytest

from decint import circuit, css, e2e, interface, noise, scheduler
from decint.noise import NoiseParams
from decint.tableau import Tableau


@pytest.fixture(scope="module")
def steane_setup():
    fam = css.steane_family()
    consts = scheduler.measured_constants(fam)
    sched = scheduler.build_schedule(fam, 2, 1, h=3, constants=consts)
    return fam, sched


@pytest.fixture(scope="module")
def toy_setup():
    fam = css.toy_family()
    consts = scheduler.measured_constants(fam)
    sched = scheduler.build_schedule(fam, 3, 1, h=2, constants=consts)
    return fam, sched


class TestChainSteps:
    def test_tree_structure(self, toy_setup):
        fam, sched = toy_setup
        stages = scheduler.effective_interface(sched, 0).stages
        assert len(stages) == 2
        assert len(stages[0]) == 1 and stages[0][0].level == 3
        assert len(stages[1]) == 2 and all(s.level == 2 for s in stages[1])

    def test_waits_follow_position(self, steane_setup):
        fam, sched = steane_setup
        first = scheduler.effective_interface(sched, 0).stages[0][0]
        last = scheduler.effective_interface(sched, 2).stages[0][0]
        assert first.pre_wait == 0
        assert last.pre_wait == sched.stages[0].n_layers - 1
        assert last.post_wait == 0


class TestTableauChain:
    def test_clean_run_all_blocks(self, steane_setup):
        fam, sched = steane_setup
        logical = Tableau.zero_state([0])
        logical.apply_pauli_on([0], [1], [0])
        for block in range(3):
            res = e2e.run_block_chain_tableau(fam, sched, block, logical)
            assert res.state_matches and not res.heralds
            assert list(res.output_bits) == [1]

    def test_single_injections_subset(self, steane_setup):
        fam, sched = steane_setup
        logical = Tableau.zero_state([0])
        for case in [(0, "X"), (3, "Z"), (6, "Y")]:
            res = e2e.run_block_chain_tableau(fam, sched, 1, logical, injections=[case])
            assert res.state_matches and not res.heralds, case
            assert list(res.output_bits) == [0]

    def test_toy_multilevel_chain(self, toy_setup):
        fam, sched = toy_setup
        logical = Tableau.zero_state(list(range(4)))
        logical.apply_pauli_on([0], [1], [0])
        logical.apply_h(2)
        logical.apply_cnot(2, 3)
        res = e2e.run_block_chain_tableau(fam, sched, 0, logical)
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
            res = e2e.run_block_chain_tableau(fam, sched, block, logical, injections=cases, seed=5)
            assert res.output_bits.shape == (len(cases), code.m)
            assert res.state_matches.shape == res.heralds.shape == (len(cases),)
            for t, case in enumerate(cases):
                one = e2e.run_block_chain_tableau(fam, sched, block, logical, injections=[case], seed=5)
                assert np.array_equal(one.output_bits[0], res.output_bits[t]), case
                assert one.state_matches[0] == res.state_matches[t], case
                assert one.heralds[0] == res.heralds[t], case
                outcomes.add((bool(res.state_matches[t]), bool(res.heralds[t])))
        if setup == "toy_setup":  # the toy chain does fail: heralds and wrong states show up
            assert len(outcomes) > 1

    def test_no_injections_rejected(self, steane_setup):
        fam, sched = steane_setup
        with pytest.raises(ValueError, match="at least one injection"):
            e2e.run_block_chain_tableau(fam, sched, 0, Tableau.zero_state([0]), injections=[])

    def test_xor_rows_must_match_the_batch(self):
        engine = interface.TableauEngine(Tableau.zero_state(["a", "b"]), np.random.default_rng(0), {})
        engine.xor(["a"], np.ones((1, 3), np.uint8), np.zeros((1, 3), np.uint8))
        assert engine.trials == 3
        engine.xor(["b"], np.ones((1, 3), np.uint8), np.zeros((1, 3), np.uint8))
        for trials in (1, 2, 4):
            with pytest.raises(ValueError, match="batch of 3"):
                engine.xor(["a"], np.ones((1, trials), np.uint8), np.zeros((1, trials), np.uint8))


class TestFrameChain:
    def test_zero_delta_no_errors(self, steane_setup):
        fam, sched = steane_setup
        res = e2e.run_block_chain_frames(
            fam, sched, 0, NoiseParams(delta=0.0, seed=1), trials=300
        )
        assert res.error_bits.sum() == 0 and res.heralds.sum() == 0

    def test_deterministic(self, steane_setup):
        fam, sched = steane_setup
        p = NoiseParams(delta=0.01, seed=9)
        a = e2e.run_block_chain_frames(fam, sched, 1, p, trials=500)
        b = e2e.run_block_chain_frames(fam, sched, 1, p, trials=500)
        assert np.array_equal(a.error_bits, b.error_bits)

    def test_blocks_draw_independent_noise(self, steane_setup):
        fam, sched = steane_setup
        p = NoiseParams(delta=0.05, seed=9)
        a = e2e.run_block_chain_frames(fam, sched, 0, p, trials=500)
        b = e2e.run_block_chain_frames(fam, sched, 1, p, trials=500)
        assert not np.array_equal(a.error_bits, b.error_bits)

    def test_input_frames_propagate(self, steane_setup):
        fam, sched = steane_setup
        # A logical X on the input (weight-3 representative) survives EC and
        # decoding, flipping the output qubit deterministically at delta=0.
        code = fam.level(2)
        lx = code.lx[0]
        fx = np.tile(lx, (50, 1)).astype(np.uint8)
        fz = np.zeros_like(fx)
        res = e2e.run_block_chain_frames(
            fam, sched, 0, NoiseParams(delta=0.0, seed=2), trials=50, input_frames=(fx, fz)
        )
        assert res.error_bits.all()


class TestE2EStats:
    def test_zero_delta_all_clean(self, steane_setup):
        fam, sched = steane_setup
        stats = e2e.run_e2e_frames(fam, sched, NoiseParams(delta=0.0, seed=3), trials=200)
        assert stats.any_error_rate == 0.0
        assert stats.logical_error_marginals.shape == (3,)

    def test_marginals_grow_with_delta(self, steane_setup):
        fam, sched = steane_setup
        lo = e2e.run_e2e_frames(fam, sched, NoiseParams(delta=0.001, seed=5), trials=4000)
        hi = e2e.run_e2e_frames(fam, sched, NoiseParams(delta=0.01, seed=5), trials=4000)
        assert hi.mean_marginal() > lo.mean_marginal()

    def test_input_ls_noise_injected(self, steane_setup):
        fam, sched = steane_setup
        stats = e2e.run_e2e_frames(
            fam, sched, NoiseParams(delta=0.0, seed=7), trials=2000, input_ls_delta=0.01
        )
        # Single-qubit input errors are corrected at delta = 0 (d = 3);
        # only multi-qubit input patterns can leak through.
        assert stats.any_error_rate < 0.01


    def test_chunks_sum_the_block_chains(self, toy_setup):
        # Three chunks (40, 40, 20 trials), each the hand sum of its blocks' chains.
        fam, sched = toy_setup
        params = NoiseParams(delta=0.001, seed=8)
        stats = e2e.run_e2e_frames(fam, sched, params, 100, input_ls_delta=0.01, chunk_size=40)
        errors, heralds = [], []
        for chunk, size in enumerate([40, 40, 20]):
            runs = []
            for block in range(sched.h):
                rng = noise.rng_stream(params.seed, noise.STREAM_TRIAL, block, chunk)
                frames = noise.sample_ls_bits(fam.level(sched.r).n, 0.01, rng, size)
                runs.append(e2e.run_block_chain_frames(
                    fam, sched, block, params, size, chunk=chunk, input_frames=frames
                ))
            errors.append(np.concatenate([run.error_bits for run in runs], axis=1))
            heralds.append(np.any([run.heralds for run in runs], axis=0))
        errors, heralds = np.concatenate(errors), np.concatenate(heralds)
        pairs = e2e._pair_sample(errors.shape[1], e2e.MAX_PAIRS)
        assert stats.trials == 100
        np.testing.assert_array_equal(stats.output_errors, errors.sum(axis=0))
        np.testing.assert_array_equal(stats.pair_errors, [(errors[:, a] & errors[:, b]).sum() for a, b in pairs])
        assert (stats.heralds, stats.any_errors) == (heralds.sum(), errors.any(axis=1).sum())
        assert stats.pair_errors.any() and 0 < stats.heralds < 100


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
        consts = scheduler.measured_constants(fam, knobs)
        sched = scheduler.build_schedule(fam, 3, 1, 2, constants=consts)
        trials = 4000
        stats = e2e.run_e2e_frames(
            fam, sched, NoiseParams(delta=delta, seed=5), trials, knobs=knobs,
            wait_rounds_per_layer=2, input_ls_delta=0.01,
        )
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
        sched = scheduler.build_schedule(fam, 4, 1, 4, constants=scheduler.measured_constants(fam))
        e2e.run_e2e_frames(fam, sched, NoiseParams(delta=0.01, seed=3), 50, input_ls_delta=0.01)
        purposes = {noise.STREAM_CIRCUIT, noise.STREAM_ORACLE, noise.STREAM_TRIAL}
        assert {k[1] for k in drawn} == purposes
        assert len(set(drawn)) == len(drawn)
