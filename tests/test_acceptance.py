"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
from decint import blocktree, cli, css, e2e, gf2, interface, noise, scheduler
from decint.noise import NoiseParams
from decint.tableau import Tableau, random_stabilizer_state


def report(num, name):
    print(f"ACCEPTANCE {num} [{name}]: PASS")


class TestCriterion1CodeValidity:
    def test_code_validity(self):
        t0 = time.time()
        fam = css.toy_family()
        rep = fam.validate()
        assert rep.passed, "\n".join(str(c) for c in rep.failures())
        for r in range(1, fam.depth + 1):
            code = fam.level(r)
            assert not gf2.mul_bits(code.hx, code.hz.T).any()
            assert code.m == code.n - gf2.rank(code.hx) - gf2.rank(code.hz)
        assert css.c422().min_distance() == (2, True)
        assert css.steane_code().min_distance() == (3, True)
        assert css.steane_family().validate().passed
        elapsed = time.time() - t0
        assert elapsed < 1.0, f"{elapsed:.2f}s exceeds 1s budget"
        report(1, "code validity")


class TestCriterion2NoiselessExactness:
    def test_gamma21_reproduces_logical_states(self):
        t0 = time.time()
        fam = css.toy_family()
        plan = interface.build_gamma(fam, 2, 1)
        code = fam.level(2)
        states = []
        for u in itertools.product([0, 1], repeat=2):
            logical = Tableau.zero_state([0, 1])
            logical.apply_pauli_on(logical.labels, u, [0] * len(u))
            states.append(logical)
        for seed in range(20):
            states.append(random_stabilizer_state([0, 1], np.random.default_rng(seed)))
        for k, logical in enumerate(states):
            inp = css.encoded_tableau((code,), logical, plan.q_wires)
            engine = interface.TableauEngine(inp, np.random.default_rng(k), {})
            herald = interface.gamma_pass(plan, engine)
            assert not herald[0]
            assert inp.same_state(interface.expected_output_tableau(plan, logical)), k
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"{elapsed:.2f}s exceeds 10s budget"
        report(2, "noiseless interface exactness")


class TestCriterion3CorrectableErrors:
    def test_steane_variant_weight_one_complete(self):
        t0 = time.time()
        fam = css.steane_family()
        plan = interface.build_gamma(fam, 2, 1)
        code = fam.level(2)
        for u in ((0,), (1,)):
            logical = Tableau.zero_state([0])
            logical.apply_pauli_on([0], u, [0])
            want = interface.expected_output_tableau(plan, logical)
            cases = [None] + [(q, k) for q in range(7) for k in ("X", "Z", "Y")]
            assert len(cases) == 22
            for case in cases:
                inp = css.encoded_tableau((code,), logical, plan.q_wires)
                if case is not None:
                    q, kind = case
                    inp.apply_pauli_on([plan.q_wires[q]], [kind in "XY"], [kind in "ZY"])
                engine = interface.TableauEngine(inp, np.random.default_rng(7), {})
                herald = interface.gamma_pass(plan, engine)
                assert not herald[0], case
                assert inp.same_state(want), case
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"{elapsed:.2f}s exceeds 1min budget"
        report(3, "correctable-error completeness")


class TestCriterion4TailBound:
    def test_exact_grid_and_monte_carlo(self):
        t0 = time.time()
        for n in (20, 50):
            for mu in (Fraction(1, 10), Fraction(1, 5)):
                for delta in (Fraction(1, 1000), Fraction(1, 100)):
                    for h in (1, 8):
                        ok, tail, bound = noise.tail_bound_dominates(mu, delta, n, h)
                        assert ok, (n, mu, delta, h, float(tail), bound)
        trials = 10**6
        # Key (seed, 2, 0) is that of the retired LS stream purpose: the draws stay as recorded.
        sizes = noise.rng_stream(401, 2, 0).binomial(50, 0.01, size=trials)
        tau_hat = float((sizes > 0.2 * 50).mean())
        bound = noise.tail_bound(0.2, 0.01, 50, h=1).value
        sigma = math.sqrt(max(bound * (1 - bound), tau_hat * (1 - tau_hat), 1e-12) / trials)
        assert tau_hat <= bound + 3 * sigma
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"{elapsed:.2f}s exceeds 2min budget"
        report(4, "local-stochastic tail bound")


class TestCriterion5BlockTreeBounds:
    def test_exact_bounds_and_monte_carlo(self):
        t0 = time.time()
        trials = 10**6
        for z in (2, 3, 4):
            for db in (Fraction(3, 10), Fraction(1, 10), Fraction(3, 100)):
                params = blocktree.TreeParams.bound_saturating(z, db)
                sets = [
                    c
                    for size in (1, 2, 3)
                    for c in itertools.combinations(blocktree.leaves(z), size)
                ]
                alive, _ = blocktree.sample_states_batch(params, seed=500 + z, trials=trials)
                for t in sets:
                    exact = blocktree.exact_inclusion(params, t)
                    bound = (2 * db) ** (2 * len(t))
                    assert exact <= bound, (z, db, t)
                    hit = np.ones(trials, dtype=bool)
                    for v in t:
                        hit &= ~alive[v]
                    freq = float(hit.mean())
                    ex = float(exact)
                    sigma = math.sqrt(max(ex * (1 - ex), 1e-12) / trials)
                    assert abs(freq - ex) <= 4 * sigma + 1e-9, (z, db, t)
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"{elapsed:.2f}s exceeds 5min budget"
        report(5, "block-tree inclusion bounds")


class TestCriterion6ChainRule:
    def test_empirical_pattern_frequencies(self):
        params = blocktree.TreeParams(2, (Fraction(1, 5), Fraction(1, 10)))
        trials = 10**6
        alive, fresh = blocktree.sample_states_batch(params, seed=600, trials=trials)
        events = {
            "root": (fresh[()], [{()}, set()]),
            "none": (alive[()] & ~fresh[(0,)] & ~fresh[(1,)], [set(), set()]),
            "left": (fresh[(0,)] & ~fresh[(1,)], [set(), {(0,)}]),
            "right": (fresh[(1,)] & ~fresh[(0,)], [set(), {(1,)}]),
            "both": (fresh[(0,)] & fresh[(1,)], [set(), {(0,), (1,)}]),
        }
        total = Fraction(0)
        for name, (mask, pattern) in events.items():
            p = blocktree.chain_rule_probability(params, pattern)
            total += p
            pf = float(p)
            sigma = math.sqrt(max(pf * (1 - pf), 1e-12) / trials)
            assert abs(float(mask.mean()) - pf) <= 4 * sigma, name
        assert total == 1
        report(6, "chain-rule correctness")


class TestCriterion7OverheadAccounting:
    def test_bounds_and_monotonicity(self):
        t0 = time.time()
        fam = css.toy_family()
        consts = scheduler.measured_constants(fam)
        for r in (2, 3, 4):
            for h in range(1, 1025):
                rep = scheduler.qubit_census(
                    scheduler.build_schedule(fam, r, 1, h, constants=consts)
                )
                assert rep.eta1_ok and rep.eta2_ok, (r, h)
            # Ratio non-increasing on the doubling grid, with the constant
            # overhead limit once h >= p1(m_r).
            prev = math.inf
            theta_limit = 2 * consts.theta + consts.theta1
            for h in [2**k for k in range(11)]:
                rep = scheduler.qubit_census(
                    scheduler.build_schedule(fam, r, 1, h, constants=consts)
                )
                assert rep.ratio <= prev + 1e-12, (r, h)
                prev = rep.ratio
                if h >= consts.p1(r):
                    assert rep.ratio <= theta_limit, (r, h)
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"{elapsed:.2f}s exceeds 1min budget"
        report(7, "overhead accounting")


class TestCriterion8NoiseMonotonicity:
    def test_failure_rate_non_increasing(self):
        t0 = time.time()
        fam = css.toy_family()
        trials = 10**5
        rates = []
        sigmas = []
        for delta in (0.02, 0.01, 0.005):
            est = interface.estimate_tau(
                fam, 2, 1, NoiseParams(delta=delta, seed=801), trials=trials, mu=0.25
            )
            rates.append(est.rate)
            sigmas.append(math.sqrt(max(est.rate * (1 - est.rate), 1e-12) / trials))
        for k in range(len(rates) - 1):
            slack = 3 * math.sqrt(sigmas[k] ** 2 + sigmas[k + 1] ** 2)
            assert rates[k + 1] <= rates[k] + slack, rates
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"{elapsed:.2f}s exceeds 5min budget"
        report(8, "noise monotonicity")


class TestCriterion9Determinism:
    def test_cli_byte_identical(self, tmp_path):
        config = {
            "family": "toy",
            "r": 2,
            "r_prime": 1,
            "noise": {"delta": [0.01, 0.005], "seed": 901},
            "trials": 3000,
            "mu": 0.25,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for sub in ("runA", "runB"):
            code = cli.main(
                ["interface-sweep", "--config", str(cfg), "--out", str(tmp_path / sub)]
            )
            assert code == 0
        a = (tmp_path / "runA" / "sweep.csv").read_bytes()
        b = (tmp_path / "runB" / "sweep.csv").read_bytes()
        assert a == b
        tree_cfg = tmp_path / "tree.json"
        tree_cfg.write_text(
            json.dumps({"z_grid": [3], "delta_bar_grid": [0.1], "max_size": 2,
                        "mc_trials": 50000, "seed": 902})
        )
        for sub in ("treeA", "treeB"):
            assert cli.main(
                ["tree-bounds", "--config", str(tree_cfg), "--out", str(tmp_path / sub)]
            ) == 0
        assert (tmp_path / "treeA" / "tree_bounds.csv").read_bytes() == (
            tmp_path / "treeB" / "tree_bounds.csv"
        ).read_bytes()
        report(9, "CLI determinism")


class TestCriterion10EndToEnd:
    def test_exhaustive_injections_zero_logical_errors(self, tmp_path):
        t0 = time.time()
        config = {
            "family": "steane",
            "r": 2,
            "h": 2,
            "mode": "exhaustive",
            "noise": {"delta": 0.0, "seed": 1001},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main(["e2e", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "e2e_exhaustive.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2 * 22  # blocks x logical patterns x injections
        for row in rows:
            vals = row.split(",")
            assert vals[3] == "0" and vals[4] == "1" and vals[5] == "0", row
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"{elapsed:.2f}s exceeds 5min budget"
        report(10, "end-to-end zero logical errors")
