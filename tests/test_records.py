"""Record types: construction checks, read-only fields and pickling."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from decint import css, e2e, interface
from decint.blocktree import TreeParams
from decint.circuit import Gate
from decint.noise import NoiseParams

INVALID = {
    "gate-name": (lambda: Gate("cx", ("a", "b")), "unknown gate 'cx'"),
    "gate-arity": (lambda: Gate("cnot", ("a",)), r"cnot arity mismatch: \('a',\)"),
    "gate-measure-label": (lambda: Gate("measure", ("a",)), "measure needs an outcome label"),
    "noise-delta": (lambda: NoiseParams(delta=1.5, seed=0), r"delta must lie in \[0, 1\]"),
    "knobs-s1": (
        lambda: interface.GammaKnobs(s1=-1),
        "EC round counts must be non-negative, got s1=-1, s2=1",
    ),
    "knobs-s2": (
        lambda: interface.GammaKnobs(s2=-2),
        "EC round counts must be non-negative, got s1=1, s2=-2",
    ),
    "knobs-proc-poly": (
        lambda: interface.GammaKnobs(proc_poly="ab"),
        r"proc_layers coefficients must be numbers, got \('a', 'b'\)",
    ),
    "tree-z": (lambda: TreeParams(0, ()), "z must be >= 1"),
    "tree-tau-count": (lambda: TreeParams(2, (Fraction(1, 2),)), r"need one tau per depth 0\.\.z-1"),
    "tree-tau-range": (lambda: TreeParams(1, (Fraction(3, 2),)), r"taus must lie in \[0, 1\]"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_records_raise_the_same_errors(case):
    make, message = INVALID[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_valid_records_keep_their_fields():
    gate = Gate("measure", ("a",), out="m")
    assert (gate.name, gate.wires, gate.out) == ("measure", ("a",), "m")
    assert Gate("h", ("a",)).out is None
    params = NoiseParams(0.5, 3)
    assert (params.delta, params.seed) == (0.5, 3)
    assert TreeParams.from_floats(2, [0.5, 0.25]).taus == (Fraction(1, 2), Fraction(1, 4))
    assert interface.GammaKnobs(proc_poly=[0, 2]).proc_poly == (0, 2)


def test_plan_and_chunk_stats_survive_pickle():
    # Worker processes receive plans and return ChunkStats by pickle.
    plan = interface.build_gamma(css.toy_family(), 2, 1, interface.GammaKnobs(s2=2))
    back = pickle.loads(pickle.dumps(plan))
    assert type(back) is interface.InterfaceCircuit and type(back.knobs) is interface.GammaKnobs
    assert back.knobs == plan.knobs and back.all_wires == plan.all_wires
    assert back.n_locations == plan.n_locations and back.latency_layers == plan.latency_layers
    params = NoiseParams(delta=0.02, seed=3)
    for a, b in zip(interface.gamma_frames(plan, params, 500), interface.gamma_frames(back, params, 500)):
        np.testing.assert_array_equal(a, b)
    stats = interface._chunk_job(plan, params, 0.25, 500, 0)
    again = pickle.loads(pickle.dumps(stats))
    assert type(again) is interface.ChunkStats
    for a, b in zip(stats, again):
        np.testing.assert_array_equal(a, b)


def test_run_chunks_sums_every_field():
    # Chunk 0 holds 10 trials and chunk 1 the other 5; each job returns its record.
    records = {
        interface.ChunkStats: (
            interface.ChunkStats(10, 3, 1, 2, 1, np.array([[4, 6]]), np.array([1, 2])),
            interface.ChunkStats(5, 1, 0, 1, 0, np.array([[2, 3]]), np.array([0, 1])),
        ),
        e2e.E2EStats: (
            e2e.E2EStats(10, np.array([3, 1, 2]), np.array([1, 0, 1]), 2, 4),
            e2e.E2EStats(5, np.array([0, 2, 2]), np.array([0, 1, 1]), 1, 3),
        ),
    }
    want = {
        interface.ChunkStats: (15, 4, 1, 3, 1, [[6, 9]], [1, 3]),
        e2e.E2EStats: (15, [3, 3, 4], [1, 1, 2], 3, 7),
    }
    for kind, (a, b) in records.items():
        sizes = []

        def job(tag, trials, chunk):
            assert tag == "args"
            sizes.append(trials)
            return (a, b)[chunk]

        summed = interface.run_chunks(job, 15, 10, ("args",))
        assert type(summed) is kind and sizes == [10, 5]
        for got, expected in zip(summed, want[kind], strict=True):
            np.testing.assert_array_equal(got, expected)


def test_run_chunks_needs_a_trial():
    with pytest.raises(ValueError, match="^need at least one trial$"):
        interface.run_chunks(lambda trials, chunk: None, 0, 10, ())
