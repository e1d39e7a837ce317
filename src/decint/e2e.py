"""End-to-end execution of the staged decoding plan on h encoded blocks.

The staged schedule factorizes into per-input-block effective interfaces
(a chain of Gamma passes with positional EC waits), so execution walks each
block's tree independently: exact tableau mode for noiseless verification
with injected input errors, and vectorized frame mode for Monte Carlo under
circuit noise. Outputs are bare qubits; reported statistics are per-qubit
logical error marginals and pairwise inclusion frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import interface as iface
from .css import CodeFamily
from .circuit import Circuit, FrameBatch, FrameRunner, Gate
from .noise import NoiseParams, rng_stream, sample_ls_bits, STREAM_TRIAL
from .scheduler import InterfaceSchedule, effective_interface
from .tableau import Tableau


@dataclass(frozen=True)
class ChainStep:
    """One Gamma pass in a block's effective interface."""

    level: int            # source level of this pass
    path: tuple[int, ...]  # bits addressing the sub-block within its input block
    pre_wait: int         # EC macro-layers at `level` before the pass
    post_wait: int        # EC macro-layers at `level - 1` afterwards


def chain_steps(schedule: InterfaceSchedule, block: int) -> list[list[ChainStep]]:
    """Per-stage Gamma passes for one input block, with positional waits."""
    plan = effective_interface(schedule, block)
    stages = []
    for y, stage_plans in enumerate(plan.stages):
        steps = []
        for k, sp in enumerate(stage_plans):
            bits = tuple(int(b) for b in format(k, f"0{y}b")) if y else ()
            steps.append(
                ChainStep(
                    level=sp.level, path=bits, pre_wait=sp.pre_wait, post_wait=sp.post_wait
                )
            )
        stages.append(steps)
    return stages


def _wait_rounds(pre: int, rounds_per_layer: int) -> int:
    return pre * rounds_per_layer


# -- exact tableau chain --------------------------------------------------------------


@dataclass
class BlockChainResult:
    output_bits: np.ndarray      # measured Z outcomes per output qubit
    state_matches: bool          # full output tableau equals the logical input
    heralds: bool


def run_block_chain_tableau(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    block: int,
    logical: Tableau,
    injection: Optional[tuple[int, str]] = None,
    knobs: Optional[iface.GammaKnobs] = None,
    wait_rounds_per_layer: int = 1,
    seed: int = 0,
) -> BlockChainResult:
    """Noiseless exact execution of one block's effective interface.

    `injection` places one Pauli (qubit index, kind) on the encoded input.
    Waits run as noiseless EC rounds at the block's current level; level-1
    waits are idle. Returns per-output-qubit readouts plus a full-state
    comparison against the input logical tableau.
    """
    rng = np.random.default_rng(seed)
    knobs = knobs or iface.GammaKnobs()
    r = schedule.r
    code_r = family.level(r)
    init_wires = [f"L{r}.x{q}" for q in range(code_r.n)]
    state = code_r.encoded_tableau(logical, labels=init_wires)
    if injection is not None:
        q, kind = injection
        xb = np.zeros(state.n, np.uint8)
        zb = np.zeros(state.n, np.uint8)
        qi = state.index(init_wires[q])
        if kind in "XY":
            xb[qi] = 1
        if kind in "ZY":
            zb[qi] = 1
        state.apply_pauli(xb, zb)

    heralds = False
    # Sub-block registry: path -> (level, wires, pending EC wait layers).
    live = {(): (r, list(init_wires), 0)}
    uid = 0
    for steps in chain_steps(schedule, block):
        new_live = {}
        for step in steps:
            level, wires, pending = live[step.path]
            assert level == step.level
            code = family.level(level)
            wait_layers = pending + step.pre_wait
            rounds = _wait_rounds(wait_layers, wait_rounds_per_layer)
            if rounds and level > 1:
                gadget = iface.build_ec(code, rounds, wires, label_prefix=f"w{uid}.")
                uid += 1
                iface._run_ec_tableau(gadget, state, {}, rng, [])
            plan = iface.build_gamma(family, level, level - 1, knobs)
            state.rename(dict(zip(wires, plan.q_wires)))
            heralds |= iface.run_gamma_tableau(plan, state, rng).heralds
            child_code = family.level(level - 1)
            for j in range(plan.blocks):
                child_wires = [f"L{level-1}.u{uid}.{p}" for p in range(child_code.n)]
                uid += 1
                state.rename(dict(zip(plan.block_wires(j), child_wires)))
                child_path = step.path + (j,) if plan.blocks == 2 else step.path + (0,)
                new_live[child_path] = (level - 1, child_wires, step.post_wait)
        live = new_live

    # Collect output wires in block-path order; measure and compare.
    ordered = sorted(live.items(), key=lambda kv: kv[0])
    out_wires = [w for _, (_, wires, _) in ordered for w in wires]
    final = state.copy()
    want = logical.copy()
    want.rename({want.labels[j]: out_wires[j] for j in range(want.n)})
    matches = final.same_state(want)
    bits = np.array([state.measure_z(w, rng)[0] for w in out_wires], dtype=np.uint8)
    return BlockChainResult(output_bits=bits, state_matches=matches, heralds=heralds)


# -- frame Monte Carlo chain -------------------------------------------------------------


@dataclass
class ChainChunkResult:
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
    """Monte Carlo frames through one block's effective interface.

    Fault streams are separated per Gamma/EC instance via tag offsets that
    include the block index, so blocks and instances draw independent noise.
    """
    knobs = knobs or iface.GammaKnobs()
    r = schedule.r
    code_r = family.level(r)
    base_tag = (block + 1) * 1_000_000
    tag = base_tag
    if input_frames is not None:
        fx, fz = input_frames
        fx = fx.astype(np.uint8).copy()
        fz = fz.astype(np.uint8).copy()
    else:
        fx = np.zeros((trials, code_r.n), np.uint8)
        fz = np.zeros((trials, code_r.n), np.uint8)
    heralds = np.zeros(trials, dtype=bool)
    live = {(): (r, fx, fz, 0)}
    for steps in chain_steps(schedule, block):
        new_live = {}
        for step in steps:
            level, ex, ez, pending = live[step.path]
            code = family.level(level)
            wait_layers = pending + step.pre_wait
            rounds = _wait_rounds(wait_layers, wait_rounds_per_layer)
            if rounds:
                ex, ez, tag = _ec_wait_frames(
                    code, rounds, params, trials, chunk, tag, ex, ez
                )
            plan = iface.build_gamma(family, level, level - 1, knobs)
            run = iface.gamma_frames(
                plan,
                params,
                trials,
                chunk=chunk,
                tag_base=tag,
                oracle_stream=tag,
                input_frames=(ex, ez),
            )
            tag += 1000
            heralds |= run.herald
            n_child = family.level(level - 1).n
            for j in range(plan.blocks):
                sl = slice(j * n_child, (j + 1) * n_child)
                child_path = step.path + (j,) if plan.blocks == 2 else step.path + (0,)
                new_live[child_path] = (
                    level - 1,
                    run.out_x[:, sl].copy(order="K"),
                    run.out_z[:, sl].copy(order="K"),
                    step.post_wait,
                )
        live = new_live

    # Final waits on bare outputs are idle layers under noise.
    ordered = sorted(live.items(), key=lambda kv: kv[0])
    outs = []
    for path, (level, ex, ez, pending) in ordered:
        if level != 1:
            raise ValueError("chain did not reach bare qubits")
        layers = _wait_rounds(pending, wait_rounds_per_layer)
        if layers:
            ex, ez, tag = _idle_wait_frames(params, trials, chunk, tag, layers, ex, ez)
        outs.append(((ex | ez) != 0))
    error_bits = np.concatenate(outs, axis=1)
    return ChainChunkResult(trials=trials, error_bits=error_bits, heralds=heralds)


def _ec_wait_frames(code, rounds, params, trials, chunk, tag, ex, ez):
    wires = [f"d{i}" for i in range(code.n)]
    gadget = iface.build_ec(code, rounds, wires, label_prefix="w.")
    batch = FrameBatch(gadget.wires, trials)
    rows = batch.block(wires)
    batch.x[:, rows] ^= ex
    batch.z[:, rows] ^= ez
    runner = FrameRunner(params, chunk=chunk)
    tables = iface._frame_tables(code)
    for rnd in range(rounds):
        iface._ec_frame_round(gadget, batch, runner, rnd, tag, tables, rows)
        tag += 2
    return batch.x[:, rows].copy(order="K"), batch.z[:, rows].copy(order="K"), tag


def _idle_wait_frames(params, trials, chunk, tag, layers, ex, ez):
    n = ex.shape[1]
    wires = [f"o{i}" for i in range(n)]
    circ = Circuit(wires)
    for _ in range(layers):
        circ.add_layer([Gate("idle", (w,)) for w in wires])
    batch = FrameBatch(wires, trials)
    batch.x ^= ex
    batch.z ^= ez
    FrameRunner(params, chunk=chunk).run(circ, batch, tag=tag)
    return batch.x.copy(order="K"), batch.z.copy(order="K"), tag + 1


# -- whole-plan drivers --------------------------------------------------------------------


@dataclass
class E2EStats:
    """Aggregated end-to-end statistics over all blocks and trials."""

    delta: float
    trials: int
    h: int
    outputs_per_block: int
    logical_error_marginals: np.ndarray  # per output qubit
    pair_inclusion: dict[tuple[int, int], float]
    herald_rate: float
    any_error_rate: float

    def mean_marginal(self) -> float:
        return float(self.logical_error_marginals.mean())


def run_e2e_frames(
    family: CodeFamily,
    schedule: InterfaceSchedule,
    params: NoiseParams,
    trials: int,
    knobs: Optional[iface.GammaKnobs] = None,
    wait_rounds_per_layer: int = 1,
    input_ls_delta: float = 0.0,
    chunk_size: int = 10_000,
    max_pairs: int = 40,
) -> E2EStats:
    """Monte Carlo over the full plan: every input block's chain, merged.

    `input_ls_delta` injects i.i.d. local stochastic noise on the encoded
    inputs (the idealized upstream preparation residue).
    """
    h = schedule.h
    m_r = family.level(schedule.r).m
    n_r = family.level(schedule.r).n
    total_cols = m_r * h
    err_sum = np.zeros(total_cols, dtype=np.int64)
    herald_count = 0
    any_err = 0
    pair_counts: dict[tuple[int, int], int] = {}
    pairs = _pair_sample(total_cols, max_pairs)
    done = 0
    chunk = 0
    while done < trials:
        size = min(chunk_size, trials - done)
        per_block = []
        heralds = np.zeros(size, dtype=bool)
        for i in range(h):
            input_frames = None
            if input_ls_delta > 0.0:
                rng_in = rng_stream(params.seed, STREAM_TRIAL, i, chunk)
                input_frames = sample_ls_bits(n_r, input_ls_delta, rng_in, size)
            res = run_block_chain_frames(
                family,
                schedule,
                i,
                params,
                size,
                chunk=chunk,
                knobs=knobs,
                wait_rounds_per_layer=wait_rounds_per_layer,
                input_frames=input_frames,
            )
            per_block.append(res.error_bits)
            heralds |= res.heralds
        errors = np.concatenate(per_block, axis=1)
        err_sum += errors.sum(axis=0)
        herald_count += int(heralds.sum())
        any_err += int(errors.any(axis=1).sum())
        for a, b in pairs:
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + int(
                (errors[:, a] & errors[:, b]).sum()
            )
        done += size
        chunk += 1
    return E2EStats(
        delta=params.delta,
        trials=trials,
        h=h,
        outputs_per_block=m_r,
        logical_error_marginals=err_sum / trials,
        pair_inclusion={k: v / trials for k, v in pair_counts.items()},
        herald_rate=herald_count / trials,
        any_error_rate=any_err / trials,
    )


def _pair_sample(n: int, max_pairs: int) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
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
