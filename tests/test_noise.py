import math
import pathlib
import re
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from decint import noise
from decint.interface import wilson_interval


# The tests draw LS samples from (seed, 2, stream), the key of the retired
# LS stream purpose, so their recorded draws stay as they were.
def ls_stream(seed: int, stream: int = 0) -> np.random.Generator:
    return noise.rng_stream(seed, 2, stream)


def fault_positions(total: int, delta: float, seed: int, trial: int = 0) -> np.ndarray:
    """Faulty locations among `total`, each with probability delta."""
    return noise.bernoulli_positions(noise.rng_stream(seed, noise.STREAM_CIRCUIT, trial), total, delta)


class TestFaultPattern:
    def test_delta_zero_empty(self):
        assert fault_positions(1000, 0.0, seed=1).size == 0

    def test_delta_one_full(self):
        assert np.array_equal(fault_positions(1000, 1.0, seed=1), np.arange(1000))

    def test_marginal_concentration(self):
        n = 10**6
        assert abs(fault_positions(n, 0.1, seed=7).size / n - 0.1) < 0.001

    def test_reproducible(self):
        a = fault_positions(50, 0.3, seed=42, trial=3)
        assert np.array_equal(a, fault_positions(50, 0.3, seed=42, trial=3))
        assert not np.array_equal(a, fault_positions(50, 0.3, seed=42, trial=4))


class _FixedGenerator(np.random.Generator):
    """Geometric gaps of 2 and a fixed sequence of Pauli kinds."""

    def __init__(self, kinds):
        super().__init__(np.random.Philox(0))
        self.kinds = np.array(kinds, np.uint8)

    def geometric(self, p, size=None):
        return np.full(size, 2, dtype=np.int64)

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return self.kinds[:size].astype(dtype)


class TestLocalStochastic:
    def test_delta_zero(self):
        x, z = noise.sample_ls_bits(10, 0.0, ls_stream(1), 1)
        assert not (x | z).any()

    def test_delta_one(self):
        x, z = noise.sample_ls_bits(10, 1.0, ls_stream(1), 1)
        assert (x | z).all()  # every qubit carries X, Z or Y

    def test_pair_inclusion_frequency(self):
        # Pr(T in A) = delta^2 exactly for |T| = 2; empirical within 3 sigma.
        trials = 10**6
        delta = 0.1
        x, z = noise.sample_ls_bits(5, delta, ls_stream(11), trials)
        support = (x | z) != 0
        hits = (support[1] & support[3]).mean()
        sigma = math.sqrt(delta**2 * (1 - delta**2) / trials)
        assert abs(hits - delta**2) < 3 * sigma

    def test_subset_bound_for_all_small_t(self):
        trials = 200_000
        delta = 0.2
        x, z = noise.sample_ls_bits(4, delta, ls_stream(3), trials)
        support = (x | z) != 0
        import itertools

        for size in (1, 2, 3):
            for t in itertools.combinations(range(4), size):
                freq = support[list(t)].all(axis=0).mean()
                sigma = math.sqrt(delta**size * (1 - delta**size) / trials)
                assert freq <= delta**size + 3 * sigma

    def test_as_bits(self):
        # Support (1, 3) with Paulis (Y, Z): kinds index X, Z, Y as 0, 1, 2.
        x, z = noise.sample_ls_bits(4, 0.5, _FixedGenerator([2, 1]), 1)
        assert list(x[:, 0]) == [0, 1, 0, 0]
        assert list(z[:, 0]) == [0, 1, 0, 1]

    def test_reproducible(self):
        a = noise.sample_ls_bits(30, 0.3, ls_stream(5, 2), 1)
        b = noise.sample_ls_bits(30, 0.3, ls_stream(5, 2), 1)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))
        other = noise.sample_ls_bits(30, 0.3, ls_stream(5, 3), 1)
        assert not np.array_equal(a[0] | a[1], other[0] | other[1])


class TestCompose:
    def test_union_satisfies_composed_bound(self):
        trials = 10**6
        a_delta, b_delta = 0.05, 0.08
        xa, za = noise.sample_ls_bits(4, a_delta, ls_stream(21, 0), trials)
        xb, zb = noise.sample_ls_bits(4, b_delta, ls_stream(21, 1), trials)
        support = ((xa | za) | (xb | zb)) != 0
        comp = min(1.0, a_delta + b_delta)  # the certified parameter of the union
        import itertools

        for size in (1, 2, 3):
            for t in itertools.combinations(range(4), size):
                freq = support[list(t)].all(axis=0).mean()
                sigma = math.sqrt(comp**size * (1 - comp**size) / trials)
                assert freq <= comp**size + 3 * sigma


class TestTailBound:
    def test_binary_entropy_symmetry_point(self):
        assert noise.binary_entropy(0.5) == 1.0

    def test_boundary_case(self):
        tb = noise.tail_bound(mu=0.5, delta=0.25, n=2, h=1)
        assert tb.value == pytest.approx(1.0)
        assert not tb.threshold_ok

    def test_threshold_flagging(self):
        assert noise.tail_bound(0.2, 0.001, 20, 1).threshold_ok

    @pytest.mark.parametrize("n", [20, 50])
    @pytest.mark.parametrize("mu", [Fraction(1, 10), Fraction(1, 5)])
    @pytest.mark.parametrize("delta", [Fraction(1, 1000), Fraction(1, 100)])
    @pytest.mark.parametrize("h", [1, 8])
    def test_dominates_exact_binomial_tail(self, n, mu, delta, h):
        ok, tail, bound = noise.tail_bound_dominates(mu, delta, n, h)
        assert ok, f"tail={float(tail)} bound={bound}"

    def test_exact_binomial_tail_values(self):
        # Oracle: Pr(Bin(2, 1/2) >= 1) = 3/4.
        assert noise.binomial_tail_exact(2, Fraction(1, 2), 1) == Fraction(3, 4)
        assert noise.binomial_tail_exact(5, Fraction(1, 10), 0) == 1


def overflow_count(n: int, delta: float, trials: int, mu: float, seed: int) -> int:
    """Trials whose LS support on n qubits exceeds mu * n."""
    x, z = noise.sample_ls_bits(n, delta, ls_stream(seed), trials)
    return int(((x | z).sum(axis=0) > mu * n).sum())


class TestTruncate:
    def test_delta_zero_no_overflow(self):
        assert overflow_count(20, 0.0, 100, mu=0.1, seed=1) == 0

    def test_mu_n_at_least_n(self):
        assert overflow_count(10, 0.9, 50, mu=1.0, seed=2) == 0

    def test_overflow_within_analytic_bound(self):
        n, mu, delta, trials = 50, 0.2, 0.01, 10**6
        sizes = ls_stream(9).binomial(n, delta, size=trials)
        tau_hat = (sizes > mu * n).mean()
        bound = noise.tail_bound(mu, delta, n, h=1).value
        sigma = math.sqrt(max(bound, tau_hat) * 1.0 / trials) + 1e-12
        assert tau_hat <= bound + 3 * sigma


class TestRngStream:
    def test_distinct_streams(self):
        a = noise.rng_stream(1, 2, 3).random(4)
        b = noise.rng_stream(1, 2, 4).random(4)
        c = noise.rng_stream(1, 2, 3).random(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_stream_purposes_distinct(self):
        purposes = {k: v for k, v in vars(noise).items() if k.startswith("STREAM_")}
        assert sorted(purposes) == ["STREAM_CIRCUIT", "STREAM_ORACLE", "STREAM_TABLEAU", "STREAM_TREE", "STREAM_TRIAL"]
        assert len(set(purposes.values())) == len(purposes), purposes
        assert not {1, 2} & set(purposes.values())  # retired purposes stay unused

    def test_only_noise_builds_generators(self):
        # Every other module draws from rng_stream, so each stream has one key.
        src = pathlib.Path(noise.__file__).parent
        makers = re.compile(r"default_rng|Generator\(|Philox\(")
        callers = sorted(p.name for p in src.glob("*.py") if makers.search(p.read_text()))
        assert callers == ["noise.py"]


def _wilson_contains(hits: int, trials: int, p: float, z: float = 3.29) -> bool:
    lo, hi = wilson_interval(hits, trials, z=z)
    return lo <= p <= hi


class _OnesGenerator(np.random.Generator):
    """Exponential draws so small that every gap is 1 for p < 1/3: every position
    succeeds, batch after batch."""

    def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
        return np.full(size, 1e-300)


class _CallLog(np.random.Generator):
    """A Philox generator that logs which gap draw `bernoulli_positions` calls."""

    def __init__(self):
        super().__init__(np.random.Philox(0))
        self.calls = []

    def geometric(self, p, size=None):
        self.calls.append("geometric")
        return super().geometric(p, size)

    def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
        self.calls.append("exponential")
        return super().standard_exponential(size, dtype, method, out)


def _geometric_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """`bernoulli_positions` with its gaps from `rng.geometric`, numpy's per-element draw."""
    mean = total * p
    gaps = rng.geometric(p, size=int(mean + 5.0 * math.sqrt(mean)) + 8)
    pos = np.cumsum(np.minimum(gaps, total + 1)) - 1
    if pos[-1] < total:
        return np.concatenate([pos, pos[-1] + 1 + _geometric_positions(rng, total - 1 - int(pos[-1]), p)])
    return pos[: np.searchsorted(pos, total)]


class TestBernoulliPositions:
    def test_edges(self):
        rng = noise.rng_stream(1, 0)
        assert noise.bernoulli_positions(rng, 1000, 0.0).size == 0
        assert np.array_equal(noise.bernoulli_positions(rng, 1000, 1.0), np.arange(1000))
        assert noise.bernoulli_positions(rng, 0, 0.5).size == 0
        assert noise.bernoulli_positions(rng, 0, 1.0).size == 0
        # Tiny p saturates the geometric draw; positions must not overflow.
        assert noise.bernoulli_positions(rng, 10**6, 1e-30).size == 0

    def test_sorted_in_range_and_exact_rate(self):
        total, p = 2_000_000, 0.03
        pos = noise.bernoulli_positions(noise.rng_stream(2, 0), total, p)
        assert np.all(np.diff(pos) > 0) and pos[0] >= 0 and pos[-1] < total
        assert _wilson_contains(pos.size, total, p)
        # Independence of neighbours: Pr(i and i+1 both succeed) = p^2.
        mask = np.zeros(total, dtype=bool)
        mask[pos] = True
        assert _wilson_contains(int((mask[:-1] & mask[1:]).sum()), total - 1, p * p)
        # Every position has the same rate (40 residues mod 40, Bonferroni at level 0.001).
        per_residue = np.bincount(pos % 40, minlength=40)
        z = NormalDist().inv_cdf(1 - 0.0005 / 40)
        for n in per_residue:
            assert _wilson_contains(int(n), total // 40, p, z)

    def test_dense_rate(self):
        total, p = 200_000, 0.9
        pos = noise.bernoulli_positions(noise.rng_stream(3, 0), total, p)
        assert _wilson_contains(pos.size, total, p)

    def test_draws_more_batches_when_needed(self):
        rng = _OnesGenerator(np.random.Philox(0))
        assert np.array_equal(noise.bernoulli_positions(rng, 5000, 0.01), np.arange(5000))

    @pytest.mark.parametrize("p", [1e-5, 0.01, 0.3])
    def test_exponential_gaps_are_numpys_geometric(self, p):
        # Below 1/3 numpy's geometric is ceil(E / -log1p(-p)) per element; the
        # vectorised inversion draws the same gaps and leaves the same state.
        ours, numpys = noise.rng_stream(9, 1), noise.rng_stream(9, 1)
        total = 4_000_000 if p < 1e-3 else 200_000
        got = noise.bernoulli_positions(ours, total, p)
        assert got.size > 10 and np.array_equal(got, _geometric_positions(numpys, total, p))
        assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)

    def test_p_at_least_a_third_draws_geometric_gaps(self):
        for p, call in ((np.nextafter(1 / 3, 0), "exponential"), (1 / 3, "geometric"), (0.9, "geometric")):
            rng = _CallLog()
            noise.bernoulli_positions(rng, 1000, p)
            assert rng.calls == [call], p

    def test_same_key_same_positions(self):
        a = noise.bernoulli_positions(noise.rng_stream(4, 1), 10**5, 0.01)
        b = noise.bernoulli_positions(noise.rng_stream(4, 1), 10**5, 0.01)
        c = noise.bernoulli_positions(noise.rng_stream(4, 2), 10**5, 0.01)
        assert np.array_equal(a, b) and not np.array_equal(a, c)


class TestLsBits:
    def test_support_rate_and_uniform_kinds(self):
        trials, qubits, delta = 100_000, 6, 0.1
        x, z = noise.sample_ls_bits(qubits, delta, ls_stream(5), trials)
        support = (x | z) != 0
        assert _wilson_contains(int(support.sum()), trials * qubits, delta)
        kinds = (x.astype(np.int64) + 2 * z)[support]  # 1 = X, 2 = Z, 3 = Y
        for k in (1, 2, 3):
            assert _wilson_contains(int((kinds == k).sum()), kinds.size, 1 / 3)

    def test_edges(self):
        x, z = noise.sample_ls_bits(5, 0.0, ls_stream(1), 50)
        assert x.shape == (5, 50) and not x.any() and not z.any()
        x, z = noise.sample_ls_bits(5, 1.0, ls_stream(1), 50)
        assert ((x | z) != 0).all()
        x, z = noise.sample_ls_bits(5, 0.5, ls_stream(1), 0)
        assert x.shape == (5, 0)

