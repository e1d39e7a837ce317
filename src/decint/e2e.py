"""End-to-end execution of the staged decoding plan on h encoded blocks.

The staged schedule factorizes into per-input-block effective interfaces
(a chain of Gamma passes with positional EC waits), so execution walks each
block's tree independently. The walk is written once and runs on either
engine of `interface`: the tableau engine for noiseless verification with
injected input errors, the frame engine for Monte Carlo under circuit
noise. Outputs are bare qubits; reported statistics are per-qubit logical
error marginals and pairwise inclusion frequencies.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import css, interface as iface
from .css import CodeFamily
from .circuit import idle_circuit
from .noise import NoiseParams, rng_stream, sample_ls_bits, STREAM_TRIAL
from .scheduler import InterfaceSchedule, effective_interface
from .tableau import Tableau

# Pairwise inclusion frequencies are sampled for at most this many output pairs.
MAX_PAIRS = 40


# -- the block-chain walk ------------------------------------------------------------


def _walk_chain(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    block: int,
    knobs: Optional[iface.GammaKnobs],
    wait_rounds_per_layer: int,
    engine,
    handle,
) -> tuple[list, np.ndarray]:
    """One block's effective interface on an engine (see `interface.gamma_pass`).

    `handle` is the encoded input block. Stage by stage, pass k of
    `scheduler.effective_interface` lowers live descendant k into
    descendants k * blocks + j of the next stage. Waits before a pass run
    as EC rounds at the block's level; waits left on bare outputs are idle
    layers. The engine keys its own streams. Returns the output block
    handles in descendant order and the per-trial OR of the pass heralds.
    """
    if schedule.r_prime != 1:
        raise ValueError("chain did not reach bare qubits")
    heralds = np.zeros(engine.trials, dtype=bool)
    live = [(handle, 0)]  # (handle, pending wait layers) per descendant
    for stage in effective_interface(schedule, block).stages:
        new_live = []
        for step, (handle, pending) in zip(stage, live, strict=True):
            code = family.level(step.level)
            rounds = (pending + step.pre_wait) * wait_rounds_per_layer
            if rounds:
                gadget = iface.build_ec(code, [f"d{i}" for i in range(code.n)], "w.")
                engine.load(handle, gadget.data_wires, gadget.wires)
                iface.ec_rounds(gadget, engine, rounds)
                handle = engine.save(gadget.data_wires)
            plan = iface.build_gamma(family, step.level, step.level - 1, knobs)
            engine.load(handle, plan.q_wires, plan.all_wires)
            heralds |= iface.gamma_pass(plan, engine)
            new_live += [(engine.save(plan.block_wires(j)), step.post_wait) for j in range(plan.blocks)]
        live = new_live

    outputs = []
    for handle, pending in live:
        layers = pending * wait_rounds_per_layer
        if layers:
            wires = [f"o{i}" for i in range(family.level(1).n)]
            engine.load(handle, wires, wires)
            engine.run(idle_circuit(wires, layers))
            handle = engine.save(wires)
        outputs.append(handle)
    return outputs, heralds


class BlockChainResult(NamedTuple):
    output_bits: np.ndarray      # (trials, m) measured Z outcomes per output qubit
    state_matches: np.ndarray    # (trials,) full output tableau equals the logical input
    heralds: np.ndarray          # (trials,)


def run_block_chain_tableau(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    block: int,
    logical: Tableau,
    injections: Sequence[Optional[tuple[int, str]]] = (None,),
    knobs: Optional[iface.GammaKnobs] = None,
    wait_rounds_per_layer: int = 1,
    seed: int = 0,
) -> BlockChainResult:
    """Noiseless exact execution of one block's effective interface.

    Trial t places injections[t], one Pauli (qubit index, kind) or None, on
    the encoded input. The trials walk the chain as one tableau batch, and
    each ends as it would run alone with the same seed. Returns per-trial
    output readouts plus a full-state comparison against the input logical
    tableau.
    """
    if not injections:
        raise ValueError("need at least one injection (None for a clean trial)")
    rng = np.random.default_rng(seed)
    code_r = family.level(schedule.r)
    init_wires = [f"L{schedule.r}.x{q}" for q in range(code_r.n)]
    state = css.encoded_tableau((code_r,), logical, init_wires)
    engine = iface.TableauEngine(state, rng, {})
    trials = len(injections)
    x, z = np.zeros((2, code_r.n, trials), bool)
    for t, case in enumerate(injections):
        if case is not None:
            x[case[0], t], z[case[0], t] = case[1] in "XY", case[1] in "ZY"
    engine.xor(init_wires, x, z)
    outputs, heralds = _walk_chain(
        family, schedule, block, knobs, wait_rounds_per_layer, engine, init_wires
    )
    out_wires = [w for wires in outputs for w in wires]
    want = logical.copy()
    want.rename({want.labels[j]: out_wires[j] for j in range(want.n)})
    matches = np.broadcast_to(state.same_state(want), (trials,))
    bits = np.array([state.measure_z(w, rng)[0] for w in out_wires], np.uint8).reshape(-1, trials)
    return BlockChainResult(output_bits=bits.T, state_matches=matches, heralds=heralds)


class ChainChunkResult(NamedTuple):
    trials: int
    error_bits: np.ndarray   # (trials, m_r) per-output-qubit error indicator
    heralds: np.ndarray      # (trials,)


def run_block_chain_frames(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    block: int,
    params: NoiseParams,
    trials: int,
    chunk: int = 0,
    knobs: Optional[iface.GammaKnobs] = None,
    wait_rounds_per_layer: int = 1,
    input_frames: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> ChainChunkResult:
    """Monte Carlo frames through one block's effective interface."""
    engine = iface.FrameEngine(params, trials, chunk, (block,))
    outputs, heralds = _walk_chain(
        family, schedule, block, knobs, wait_rounds_per_layer, engine, input_frames
    )
    error_bits = np.concatenate([(ex | ez) != 0 for ex, ez in outputs], axis=1)
    return ChainChunkResult(trials=trials, error_bits=error_bits, heralds=heralds)


# -- whole-plan drivers --------------------------------------------------------------------


class E2EStats(NamedTuple):
    """Whole-plan counts over all blocks and trials; `interface.run_chunks` sums
    them field by field."""

    trials: int
    output_errors: np.ndarray  # (h * m_r,) error count per output qubit
    pair_errors: np.ndarray    # joint error count per row of `_pair_sample`
    heralds: int               # trials where any Gamma pass of any block heralded
    any_errors: int            # trials with an error on any output qubit

    @property
    def logical_error_marginals(self) -> np.ndarray:
        return self.output_errors / self.trials

    @property
    def herald_rate(self) -> float:
        return self.heralds / self.trials

    @property
    def any_error_rate(self) -> float:
        return self.any_errors / self.trials

    def mean_marginal(self) -> float:
        return float(self.logical_error_marginals.mean())


def _e2e_chunk(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    params: NoiseParams,
    knobs: Optional[iface.GammaKnobs],
    wait_rounds_per_layer: int,
    input_ls_delta: float,
    trials: int,
    chunk: int,
) -> E2EStats:
    """One chunk of whole-plan trials: every input block's chain, counted."""
    n_r = family.level(schedule.r).n
    per_block = []
    heralds = np.zeros(trials, dtype=bool)
    for i in range(schedule.h):
        input_frames = None
        if input_ls_delta > 0.0:
            rng_in = rng_stream(params.seed, STREAM_TRIAL, i, chunk)
            input_frames = sample_ls_bits(n_r, input_ls_delta, rng_in, trials)
        res = run_block_chain_frames(
            family,
            schedule,
            i,
            params,
            trials,
            chunk=chunk,
            knobs=knobs,
            wait_rounds_per_layer=wait_rounds_per_layer,
            input_frames=input_frames,
        )
        per_block.append(res.error_bits)
        heralds |= res.heralds
    errors = np.concatenate(per_block, axis=1)
    a, b = _pair_sample(errors.shape[1], MAX_PAIRS).T
    return E2EStats(
        trials=trials,
        output_errors=errors.sum(axis=0),
        pair_errors=(errors[:, a] & errors[:, b]).sum(axis=0),
        heralds=int(heralds.sum()),
        any_errors=int(errors.any(axis=1).sum()),
    )


def run_e2e_frames(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    params: NoiseParams,
    trials: int,
    knobs: Optional[iface.GammaKnobs] = None,
    wait_rounds_per_layer: int = 1,
    input_ls_delta: float = 0.0,
    chunk_size: int = 10_000,
) -> E2EStats:
    """Monte Carlo over the full plan: every input block's chain, summed over chunks.

    `input_ls_delta` injects i.i.d. local stochastic noise on the encoded
    inputs (the idealized upstream preparation residue).
    """
    args = (family, schedule, params, knobs, wait_rounds_per_layer, input_ls_delta)
    return iface.run_chunks(_e2e_chunk, trials, chunk_size, args)


def _pair_sample(n: int, max_pairs: int) -> np.ndarray:
    """Output pairs (a, b), a < b, as (pairs, 2) rows: all of them, or at most
    `max_pairs` taken at an even stride."""
    pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)], dtype=np.intp).reshape(-1, 2)
    if len(pairs) <= max_pairs:
        return pairs
    step = max(1, len(pairs) // max_pairs)
    return pairs[::step][:max_pairs]


def fit_ls_constants(
    deltas: Sequence[float], singles: Sequence[float], pairs: Sequence[float]
) -> Optional[tuple[float, float]]:
    """Fit Pr(T in errors) ~ (k1 * delta)^(k2 |T|) from grid measurements.

    Least squares on log Pr = k2 |T| (log k1 + log delta); returns None when
    the grid is degenerate or frequencies vanish. Measured, never asserted.
    """
    xs = []
    ys = []
    for d, p1, p2 in zip(deltas, singles, pairs):
        if p1 > 0:
            xs.append((1.0, np.log(d)))
            ys.append(np.log(p1))
        if p2 > 0:
            xs.append((2.0, 2.0 * np.log(d)))
            ys.append(np.log(p2))
    if len({x[1] for x in xs}) < 2 or len(xs) < 3:
        return None
    a = np.array([[t, ld] for t, ld in xs])
    y = np.array(ys)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    k2 = coef[1]
    if k2 <= 0:
        return None
    k1 = float(np.exp(coef[0] / k2))
    return (k1, float(k2))
