import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from decint import blocktree as bt
from decint.blocktree import TreeParams
from decint.cli import MC_FAMILY_ALPHA


class TestNodeWeight:
    def test_root_weight(self):
        for z in (2, 3, 4):
            assert bt.node_weight(z, [()]) == 2 ** (z - 1)

    def test_leaf_sets(self):
        assert bt.node_weight(3, [(0, 0), (1, 1)]) == 2

    def test_children_of_root(self):
        assert bt.node_weight(3, [(0,), (1,)]) == 4

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            bt.node_weight(3, [(0,), (0, 1)])

    def test_additivity_matches_leaf_counting(self):
        z = 4
        rng = np.random.default_rng(0)
        pool = [v for y in range(z) for v in bt.nodes_at_depth(z, y)]
        for _ in range(50):
            pick = [pool[i] for i in rng.choice(len(pool), size=3, replace=False)]
            if not bt.is_antichain(pick):
                continue
            # Oracle: count leaves with an ancestor in the set.
            count = sum(
                1 for leaf in bt.leaves(z) if any(bt.is_ancestor(v, leaf) for v in pick)
            )
            assert bt.node_weight(z, pick) == count


class TestFofV:
    def test_depth_three_capture_height(self):
        # z-1 = 3 tree; T = {(0,0,0), (0,1,0)}: f(first) = 2.
        t = [(0, 0, 0), (0, 1, 0)]
        assert bt.f_of_v(t, (0, 0, 0)) == 2

    def test_two_siblings(self):
        t = [(0, 0), (0, 1)]
        assert bt.f_of_v(t, (0, 0)) == 1

    def test_opposite_subtrees(self):
        z = 4
        t = [(0, 0, 0), (1, 1, 1)]
        assert bt.f_of_v(t, (0, 0, 0)) == z - 1

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            bt.f_of_v([(0, 0)], (0, 0))


def sampled_patterns(params: TreeParams, seed: int, trials: int):
    """(F_0, ..., F_{z-1}) and F-bar of each trial of one `sample_states_batch` call:
    F_y holds the depth-y nodes that fail fresh, F-bar the leaves that are not alive."""
    alive, fresh = bt.sample_states_batch(params, seed=seed, trials=trials)
    for t in range(trials):
        failure_sets = [{v for v in bt.nodes_at_depth(params.z, y) if fresh[v][t]} for y in range(params.z)]
        yield failure_sets, {v for v in bt.leaves(params.z) if not alive[v][t]}


class TestSampling:
    def test_all_zero_taus(self):
        params = TreeParams.from_floats(3, [0, 0, 0])
        for failure_sets, leaf_failures in sampled_patterns(params, seed=1, trials=20):
            assert leaf_failures == set()
            assert all(not f for f in failure_sets)

    def test_root_always_fails(self):
        params = TreeParams(3, (Fraction(1), Fraction(0), Fraction(0)))
        for failure_sets, leaf_failures in sampled_patterns(params, seed=1, trials=20):
            assert failure_sets[0] == {()}
            assert leaf_failures == set(bt.leaves(3))

    def test_sampled_patterns_valid(self):
        params = TreeParams.from_floats(4, [0.3, 0.3, 0.3, 0.3])
        for failure_sets, leaf_failures in sampled_patterns(params, seed=5, trials=200):
            assert bt.is_block_error_pattern(failure_sets)
            assert bt.partitions_leaf_set(failure_sets, leaf_failures, params.z)

    def test_batch_marginal_matches(self):
        params = TreeParams.from_floats(2, [0.2, 0.1])
        alive, fresh = bt.sample_states_batch(params, seed=3, trials=200_000)
        root_fail = (~alive[()]).mean()
        sigma = math.sqrt(0.2 * 0.8 / 200_000)
        assert abs(root_fail - 0.2) < 4 * sigma


class TestExactInclusion:
    def test_empty_set(self):
        params = TreeParams.from_floats(3, [0.1, 0.1, 0.1])
        assert bt.exact_inclusion(params, []) == 1

    def test_root_singleton_is_tau(self):
        params = TreeParams(2, (Fraction(1, 7), Fraction(1, 3)))
        assert bt.exact_inclusion(params, [()]) == Fraction(1, 7)

    def test_matches_brute_force_z3(self):
        params = TreeParams(3, (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)))
        pool = [v for y in range(3) for v in bt.nodes_at_depth(3, y)]
        for size in (1, 2):
            for t in combinations(pool, size):
                if not bt.is_antichain(t):
                    continue
                assert bt.exact_inclusion(params, t) == bt.brute_force_inclusion(params, t), t

    def test_sibling_leaves_joint_terms(self):
        # Siblings under a shared parent: includes both joint-ancestor and
        # independent-failure contributions (verified against enumeration).
        params = TreeParams(3, (Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)))
        t = [(0, 0), (0, 1)]
        assert bt.exact_inclusion(params, t) == bt.brute_force_inclusion(params, t)

    def test_monotone_in_each_tau(self):
        base = [Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)]
        t = [(0, 0), (1, 1)]
        p0 = bt.exact_inclusion(TreeParams(3, tuple(base)), t)
        for y in range(3):
            bumped = list(base)
            bumped[y] += Fraction(1, 20)
            p1 = bt.exact_inclusion(TreeParams(3, tuple(bumped)), t)
            assert p1 >= p0

    def test_depth_cap(self):
        params = TreeParams(8, tuple([Fraction(1, 10)] * 8))
        with pytest.raises(ValueError):
            bt.exact_inclusion(params, [()])

    def test_non_antichain_rejected(self):
        params = TreeParams.from_floats(3, [0.1] * 3)
        with pytest.raises(ValueError):
            bt.exact_inclusion(params, [(0,), (0, 0)])

    def test_monte_carlo_agrees(self):
        trials = 10**6
        for z, db in [(2, 0.3), (3, 0.3), (4, 0.3)]:
            params = TreeParams.bound_saturating(z, Fraction(db).limit_denominator(10))
            t = tuple(bt.leaves(z)[:2])
            alive, _ = bt.sample_states_batch(params, seed=17, trials=trials)
            hit = np.ones(trials, dtype=bool)
            for v in t:
                hit &= ~alive[v]
            exact = float(bt.exact_inclusion(params, t))
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(hit.mean() - exact) < 4 * sigma + 1e-9, (z, db)


class TestChainRule:
    def test_closed_form_matches_enumeration_z2(self):
        params = TreeParams(2, (Fraction(1, 4), Fraction(1, 3)))
        # Enumerate every possible pattern and confirm probabilities sum to 1.
        total = Fraction(0)
        patterns = []
        for f0 in [set(), {()}]:
            options = [] if f0 else [set(s) for s in _subsets([(0,), (1,)])]
            f1s = [set()] if f0 else options
            for f1 in f1s:
                patterns.append([f0, f1])
        for p in patterns:
            total += bt.chain_rule_probability(params, p)
        assert total == 1

    def test_invalid_pattern_zero(self):
        params = TreeParams(2, (Fraction(1, 4), Fraction(1, 3)))
        assert bt.chain_rule_probability(params, [{()}, {(0,)}]) == 0

    def test_empirical_frequencies_z2(self):
        params = TreeParams(2, (Fraction(1, 5), Fraction(1, 10)))
        trials = 10**6
        alive, fresh = bt.sample_states_batch(params, seed=23, trials=trials)
        keys = {}
        keys["root"] = fresh[()]
        keys["none"] = alive[()] & ~fresh[(0,)] & ~fresh[(1,)]
        keys["left"] = fresh[(0,)] & ~fresh[(1,)]
        keys["right"] = fresh[(1,)] & ~fresh[(0,)]
        keys["both"] = fresh[(0,)] & fresh[(1,)]
        want = {
            "root": bt.chain_rule_probability(params, [{()}, set()]),
            "none": bt.chain_rule_probability(params, [set(), set()]),
            "left": bt.chain_rule_probability(params, [set(), {(0,)}]),
            "right": bt.chain_rule_probability(params, [set(), {(1,)}]),
            "both": bt.chain_rule_probability(params, [set(), {(0,), (1,)}]),
        }
        assert sum(want.values()) == 1
        for name, mask in keys.items():
            p = float(want[name])
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(mask.mean() - p) < 4 * sigma, name


class TestExtensionPartition:
    def test_empty_sets(self):
        assert bt.induced_partition([set(), set(), set()], 3) == set()

    def test_root_extends_to_all_leaves(self):
        assert bt.induced_partition([{()}, set(), set()], 3) == set(bt.leaves(3))

    def test_extension_depths(self):
        got = bt.extension([(1,)], 1, 3)
        assert got == {(1, a, b) for a in (0, 1) for b in (0, 1)}


class TestFinalBound:
    def test_zero_delta(self):
        checks = bt.check_final_bound(3, Fraction(0), max_size=2)
        assert all(c.ok for c in checks)
        assert all(c.exact == 0 for c in checks)

    def test_leaf_pairs_z3(self):
        checks = bt.check_final_bound(3, Fraction(1, 10), max_size=2, leaf_only=True)
        pairs = [c for c in checks if len(c.t_bar) == 2]
        for c in pairs:
            assert c.ok
            assert c.bound == Fraction(2, 10) ** 4

    @pytest.mark.parametrize("z", [2, 3, 4])
    def test_leaf_sets_are_held_to_a_quarter_of_final_bound(self, z):
        # On a leaf set W(T) = |T|, so final_bound = 4 * (2 delta_bar)^(2|T|);
        # check_final_bound holds leaf sets to the tighter (2 delta_bar)^(2|T|).
        db = Fraction(1, 10)
        checks = bt.check_final_bound(z, db, max_size=3, leaf_only=True)
        assert checks
        for c in checks:
            assert bt.node_weight(z, c.t_bar) == len(c.t_bar)
            assert bt.final_bound(z, db, c.t_bar) == 4 * (2 * db) ** (2 * len(c.t_bar)) == 4 * c.bound

    def test_all_antichains_small_grid(self):
        for z in (2, 3):
            for db in (Fraction(3, 10), Fraction(1, 10)):
                checks = bt.check_final_bound(z, db, max_size=3)
                assert all(c.ok for c in checks), (z, db)

    def test_singleton_nonleaf_rec_bound(self):
        # Pr(X_v in {1,2}) <= 2 delta^(2^(z-y)) for a depth-y singleton.
        z = 4
        db = Fraction(1, 10)
        params = TreeParams.bound_saturating(z, db)
        for y in range(z):
            v = bt.nodes_at_depth(z, y)[0]
            exact = bt.exact_inclusion(params, [v])
            assert exact <= 2 * db ** (2 ** (z - y))


class TestBinomialTest:
    @staticmethod
    def brute_p(hits, trials, p):
        p = Fraction(p)
        pmf = [math.comb(trials, j) * p**j * (1 - p) ** (trials - j) for j in range(trials + 1)]
        return min(1.0, float(2 * min(sum(pmf[: hits + 1]), sum(pmf[hits:]))))

    @pytest.mark.parametrize("trials,p", [(1, 0.5), (12, 0.1), (25, 0.37), (40, 0.01)])
    def test_matches_exact_sum(self, trials, p):
        for hits in range(trials + 1):
            got = bt.binomial_two_sided_p(hits, trials, p)
            assert got == pytest.approx(self.brute_p(hits, trials, p), rel=1e-9, abs=1e-300)

    def test_degenerate_rates(self):
        assert bt.binomial_two_sided_p(0, 100, 0.0) == 1.0
        assert bt.binomial_two_sided_p(1, 100, 0.0) == 0.0
        assert bt.binomial_two_sided_p(100, 100, 1.0) == 1.0
        assert bt.binomial_two_sided_p(99, 100, 1.0) == 0.0

    def test_tiny_expected_counts_accepted(self):
        # Two z=4 sets of the tree-bounds grid: 2 hits in 1e5 trials against
        # exact rates near 1e-6, which a 4-sigma normal test rejects.
        alpha = MC_FAMILY_ALPHA / 327
        for exact in (1.0300969897960899e-06, 2.0198019597049899e-06):
            assert bt.binomial_two_sided_p(2, 100_000, exact) >= alpha
        assert bt.binomial_two_sided_p(2, 100_000, 1.0300969897960899e-06) == pytest.approx(
            0.0099096, rel=1e-4
        )

    def test_twofold_misestimate_rejected(self):
        alpha = MC_FAMILY_ALPHA / 327
        assert bt.binomial_two_sided_p(2_000, 100_000, 1e-2) < alpha
        assert bt.binomial_two_sided_p(500, 100_000, 1e-2) < alpha
        assert bt.binomial_two_sided_p(1_000, 100_000, 1e-2) > 0.9


def _subsets(items):
    out = [[]]
    for it in items:
        out += [s + [it] for s in out]
    return out
