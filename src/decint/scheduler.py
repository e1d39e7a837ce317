"""Constant-overhead interface schedules and exact qubit accounting.

A schedule lowers h blocks from level r to level r' one level per stage;
within a stage, macro-layer l applies the partial interface to the block
window ((l-1)*h_step, l*h_step], error-corrects the already-lowered blocks'
children at the lower level, and error-corrects the not-yet-processed
blocks at the current level. All accounting is exact integer arithmetic.

`InterfaceSchedule` is the one chain plan: it carries the Gamma knobs and
the EC rounds per waiting macro-layer that `e2e` walks it with, beside the
constants measured from those very circuits.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

from . import interface as iface
from .css import CodeFamily


class ScheduleConstants(NamedTuple):
    """Footprint constants: per-block qubit counts used by the census.

    Defaults are measured from the interface module's actual circuits:
    p1(m) is a per-level table with gamma_qubits(level) <= theta * p1(m) * m,
    and theta1 bounds the footprint per logical qubit of the EC round a
    waiting block runs, len(interface.wait_gadget(code).wires) / m, over
    every level of the family.
    """

    theta: int
    theta1: int
    p1_table: dict[int, int]  # level -> p1(m_level)

    def p1(self, level: int) -> int:
        return self.p1_table[level]


def measured_constants(family: CodeFamily, knobs: Optional[iface.GammaKnobs] = None) -> ScheduleConstants:
    """Derive theta, theta1 and the p1 table from the circuits a chain runs
    under `knobs`: the wait gadget of every level and Gamma_{r,r-1}."""
    theta1 = max(
        math.ceil(len(iface.wait_gadget(code).wires) / code.m)
        for code in map(family.level, range(1, family.depth + 1))
    )
    p1_table = {
        r: math.ceil(iface.build_gamma(family, r, r - 1, knobs).qubit_count / family.level(r).m)
        for r in range(2, family.depth + 1)
    }
    return ScheduleConstants(theta=1, theta1=theta1, p1_table=p1_table)


class MacroLayer(NamedTuple):
    """One macro-layer of a stage: which blocks do what."""

    level: int
    index: int              # l, 1-based within the stage
    gamma_blocks: tuple[int, int]   # half-open window of block indices (0-based)
    ec_child_blocks: int    # lowered children at level-1 receiving EC
    ec_level_blocks: int    # waiting blocks at the current level receiving EC

    @property
    def gamma_count(self) -> int:
        return self.gamma_blocks[1] - self.gamma_blocks[0]


class Stage(NamedTuple):
    level: int              # r'': the level being lowered to level-1
    h_level: int            # number of blocks entering this stage
    h_step: int             # blocks receiving the interface per macro-layer
    layers: tuple[MacroLayer, ...]

    @property
    def n_layers(self) -> int:
        return len(self.layers)


class InterfaceSchedule(NamedTuple):
    """The staged plan and the circuits it was sized for: `knobs` build every
    Gamma pass and `wait_rounds` EC rounds run per waiting macro-layer."""

    family: CodeFamily
    r: int
    r_prime: int
    h: int
    knobs: iface.GammaKnobs
    wait_rounds: int
    constants: ScheduleConstants
    stages: tuple[Stage, ...]

    @property
    def output_blocks(self) -> int:
        return self.h * 2 ** (self.r - self.r_prime)

    def to_json(self) -> str:
        obj = {
            "r": self.r,
            "r_prime": self.r_prime,
            "h": self.h,
            "constants": {
                "theta": self.constants.theta,
                "theta1": self.constants.theta1,
                "p1_table": {str(k): v for k, v in self.constants.p1_table.items()},
            },
            "stages": [
                {
                    "level": s.level,
                    "h_level": s.h_level,
                    "h_step": s.h_step,
                    "layers": [
                        {
                            "l": ml.index,
                            "gamma": list(ml.gamma_blocks),
                            "ec_child_blocks": ml.ec_child_blocks,
                            "ec_level_blocks": ml.ec_level_blocks,
                        }
                        for ml in s.layers
                    ],
                }
                for s in self.stages
            ],
        }
        return json.dumps(obj, indent=1)


def build_schedule(
    family: CodeFamily,
    r: int,
    r_prime: int,
    h: int,
    knobs: Optional[iface.GammaKnobs] = None,
    wait_rounds: int = 1,
    constants: Optional[ScheduleConstants] = None,
) -> InterfaceSchedule:
    """Plan the staged interface lowering h level-r blocks to level r'.

    Stage r'' processes h^{(r'')} = 2^{r-r''} h blocks in windows of
    h_step = ceil(h^{(r'')} / (theta * p1(m_{r''}))) per macro-layer; every
    block receives the partial interface exactly once per stage. The
    constants default to `measured_constants(family, knobs)`.
    """
    if h < 1:
        raise ValueError("h must be positive")
    if not 1 <= r_prime < r <= family.depth:
        raise ValueError("need 1 <= r' < r <= family depth")
    if wait_rounds < 0:
        raise ValueError(f"wait_rounds must be non-negative, got {wait_rounds}")
    knobs = knobs or iface.GammaKnobs()
    constants = constants or measured_constants(family, knobs)
    stages = []
    for level in range(r, r_prime, -1):
        h_level = h * 2 ** (r - level)
        h_step = math.ceil(h_level / (constants.theta * constants.p1(level)))
        n_layers = math.ceil(h_level / h_step)
        layers = []
        for l in range(1, n_layers + 1):
            lo = (l - 1) * h_step
            hi = min(l * h_step, h_level)
            layers.append(
                MacroLayer(
                    level=level,
                    index=l,
                    gamma_blocks=(lo, hi),
                    ec_child_blocks=2 * lo,
                    ec_level_blocks=h_level - hi,
                )
            )
        stages.append(Stage(level=level, h_level=h_level, h_step=h_step, layers=tuple(layers)))
    return InterfaceSchedule(
        family=family, r=r, r_prime=r_prime, h=h, knobs=knobs, wait_rounds=wait_rounds,
        constants=constants, stages=tuple(stages),
    )


class LayerCensus(NamedTuple):
    level: int
    layer: int
    eta1: int   # EC qubits
    eta2: int   # interface qubits

    @property
    def total(self) -> int:
        return self.eta1 + self.eta2


class OverheadReport(NamedTuple):
    per_layer: list[LayerCensus]
    max_total: int
    ratio: float          # max_total / (m_r * h)
    bound1: int           # every layer's eta1 is at most bound1
    bound2: int           # and its eta2 at most bound2
    eta1_ok: bool
    eta2_ok: bool


def qubit_census(schedule: InterfaceSchedule) -> OverheadReport:
    """Exact per-macro-layer qubit counts and the two overhead inequalities.

    eta1 sums theta1 * m per EC'd block (children at level-1, waiters at the
    level); eta2 sums theta * p1(m) * m per interface-active block. Verified
    exactly: eta1 <= theta1 * h * m_r and
    eta2 <= theta * m_r * h + theta * p1(m_r) * m_r.
    """
    fam = schedule.family
    consts = schedule.constants
    m_r = fam.level(schedule.r).m
    h = schedule.h
    per_layer: list[LayerCensus] = []
    eta1_ok = True
    eta2_ok = True
    bound1 = consts.theta1 * h * m_r
    bound2 = (
        consts.theta * m_r * h
        + consts.theta * consts.p1(schedule.r) * m_r
    )
    for stage in schedule.stages:
        m_lvl = fam.level(stage.level).m
        m_child = fam.level(stage.level - 1).m
        p1 = consts.p1(stage.level)
        for ml in stage.layers:
            eta1 = consts.theta1 * (ml.ec_child_blocks * m_child + ml.ec_level_blocks * m_lvl)
            eta2 = consts.theta * p1 * m_lvl * ml.gamma_count
            eta1_ok &= eta1 <= bound1
            eta2_ok &= eta2 <= bound2
            per_layer.append(LayerCensus(level=stage.level, layer=ml.index, eta1=eta1, eta2=eta2))
    max_total = max(c.total for c in per_layer)
    return OverheadReport(
        per_layer=per_layer,
        max_total=max_total,
        ratio=max_total / (m_r * h),
        bound1=bound1,
        bound2=bound2,
        eta1_ok=eta1_ok,
        eta2_ok=eta2_ok,
    )


class BlockStagePlan(NamedTuple):
    """What one descendant block experiences during one stage.

    Waits are in macro-layers: pre_wait at the current level before its
    window, the interface at macro-layer `gamma_layer`, post_wait at the
    lowered level afterwards. pre_wait + 1 + post_wait = stage length.
    """

    level: int
    block_index: int
    gamma_layer: int
    pre_wait: int
    post_wait: int


def effective_interface(schedule: InterfaceSchedule, i: int) -> tuple[tuple[BlockStagePlan, ...], ...]:
    """Per-block view: the sequence of waits and interface applications,
    one tuple of descendant plans per stage.

    Input block i (0-based) has 2^y descendants entering the stage at level
    r - y; descendant k (0-based within the block) sits at global index
    i * 2^y + k, lands in macro-layer l = floor(index / h_step) + 1, waits
    l - 1 macro-layers before and n_layers - l after.
    """
    if not 0 <= i < schedule.h:
        raise ValueError("block index out of range")
    stages = []
    for y, stage in enumerate(schedule.stages):
        children = 2**y
        plans = []
        for k in range(children):
            idx = i * children + k
            l = idx // stage.h_step + 1
            plans.append(
                BlockStagePlan(
                    level=stage.level,
                    block_index=idx,
                    gamma_layer=l,
                    pre_wait=l - 1,
                    post_wait=stage.n_layers - l,
                )
            )
        stages.append(tuple(plans))
    return tuple(stages)


def audit_schedule(schedule: InterfaceSchedule) -> list[str]:
    """Exhaustive well-formedness audit; returns a list of violations.

    Per stage: every block receives the interface exactly once, and the
    three block sets partition the live blocks at every macro-layer.
    """
    problems = []
    for stage in schedule.stages:
        covered = []
        for ml in stage.layers:
            lo, hi = ml.gamma_blocks
            covered.extend(range(lo, hi))
            if ml.ec_child_blocks != 2 * lo:
                problems.append(f"level {stage.level} layer {ml.index}: child EC count")
            if ml.ec_level_blocks != stage.h_level - hi:
                problems.append(f"level {stage.level} layer {ml.index}: level EC count")
            if lo + ml.gamma_count + ml.ec_level_blocks != stage.h_level:
                problems.append(f"level {stage.level} layer {ml.index}: not a partition")
        if sorted(covered) != list(range(stage.h_level)):
            problems.append(f"level {stage.level}: blocks not covered exactly once")
    out = schedule.stages[-1]
    if 2 * out.h_level != schedule.output_blocks:
        problems.append("output block count mismatch")
    return problems


def roundtrip_from_block_plans(schedule: InterfaceSchedule) -> bool:
    """Tensoring the per-block plans reproduces the schedule exactly."""
    for y, stage in enumerate(schedule.stages):
        assignment = {}
        for i in range(schedule.h):
            for sp in effective_interface(schedule, i)[y]:
                assignment[sp.block_index] = sp.gamma_layer
        for ml in stage.layers:
            lo, hi = ml.gamma_blocks
            for idx in range(lo, hi):
                if assignment.get(idx) != ml.index:
                    return False
    return True
