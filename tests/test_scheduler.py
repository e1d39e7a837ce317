import math
import time
import tracemalloc

import pytest

from decint import css, interface, scheduler
from decint.scheduler import ScheduleConstants


@pytest.fixture(scope="module")
def fam():
    return css.toy_family()


@pytest.fixture(scope="module")
def consts(fam):
    return scheduler.measured_constants(fam)


def unit_constants(depth: int) -> ScheduleConstants:
    return ScheduleConstants(theta1=1, p1_table={r: 1 for r in range(2, depth + 1)})


def spans(depth: int) -> list[tuple[int, int]]:
    return [(r, rp) for r in range(2, depth + 1) for rp in range(1, r)]


def census_from_block_plans(s) -> list[scheduler.LayerCensus]:
    """Reference census: every input block's descendants, macro-layer by
    macro-layer, with each pass's output count read off its Gamma plan."""
    fam, consts = s.family, s.constants
    per_layer = []
    for y, stage in enumerate(s.stages):
        m, m_child = fam.level(stage.level).m, fam.level(stage.level - 1).m
        children = interface.build_gamma(fam, stage.level, stage.level - 1, s.knobs).blocks
        plans = [sp for i in range(s.h) for sp in scheduler.effective_interface(s, i)[y]]
        for l in range(1, stage.n_layers + 1):
            eta1 = eta2 = 0
            for sp in plans:
                if sp.gamma_layer == l:
                    eta2 += consts.p1(stage.level) * m
                elif sp.gamma_layer > l:  # waiting at the level
                    eta1 += consts.theta1 * m
                else:  # lowered: its children wait at level-1
                    eta1 += consts.theta1 * m_child * children
            per_layer.append(scheduler.LayerCensus(level=stage.level, layer=l, eta1=eta1, eta2=eta2))
    return per_layer


class TestBuildSchedule:
    def test_single_block_single_layer(self, fam):
        s = scheduler.build_schedule(fam, 2, 1, h=1, constants=unit_constants(fam.depth))
        assert len(s.stages) == 1
        assert s.stages[0].n_layers == 1
        assert s.stages[0].layers[0].gamma_blocks == (0, 1)

    def test_step_size_formula(self, fam):
        # h = 100, p1 = 10 -> h_step = 10, stage length 10.
        consts = ScheduleConstants(theta1=1, p1_table={2: 10, 3: 10, 4: 10})
        s = scheduler.build_schedule(fam, 2, 1, h=100, constants=consts)
        assert s.stages[0].h_step == 10
        assert s.stages[0].n_layers == 10

    @pytest.mark.parametrize("h", [1, 2, 3, 5, 8, 16, 33, 64])
    @pytest.mark.parametrize(
        "span",
        [("toy", 2, 1), ("toy", 3, 1), ("toy", 4, 1), ("toy", 3, 2), ("toy", 4, 2), ("toy", 4, 3), ("steane", 2, 1)]
        + [(name, r, rp) for name in ("trivial-steane-422", "trivial-422-hgp33") for r, rp in spans(3)],
    )
    def test_every_block_exactly_once(self, families, h, span):
        name, r, rp = span
        s = scheduler.build_schedule(families[name], r, rp, h=h)
        assert scheduler.audit_schedule(s) == []

    def test_audit_reports_broken_windows(self, fam, consts):
        s = scheduler.build_schedule(fam, 3, 1, h=40, constants=consts)
        first, second = s.stages
        layers = first.layers
        gap = layers[:1] + layers[2:]
        overlap = (layers[0]._replace(gamma_blocks=(0, layers[0].gamma_blocks[1] + 1)),) + layers[1:]
        for broken in (
            (first._replace(layers=gap), second),
            (first._replace(layers=overlap), second),
            (first._replace(layers=layers[:-1]), second),
            (first, second._replace(h_level=second.h_level + 1)),
        ):
            assert scheduler.audit_schedule(s._replace(stages=broken)), broken

    def test_output_doubling(self, families):
        # Every pass of toy yields two blocks, but in general the h inputs
        # become h * m_r / m_r' blocks, whatever each pass yields.
        for fam in families.values():
            for r, rp in spans(fam.depth):
                for h in (1, 2, 3, 5, 8):
                    s = scheduler.build_schedule(fam, r, rp, h=h)
                    assert s.output_blocks == h * fam.level(r).m // fam.level(rp).m
                    for stage in s.stages:
                        assert stage.children == interface.build_gamma(fam, stage.level, stage.level - 1).blocks

    def test_bad_levels_rejected(self, fam, consts):
        with pytest.raises(ValueError):
            scheduler.build_schedule(fam, 1, 1, h=2, constants=consts)
        with pytest.raises(ValueError):
            scheduler.build_schedule(fam, 5, 1, h=2, constants=consts)


class TestCensus:
    def test_h_one_dominated_by_gamma_term(self, fam, consts):
        s = scheduler.build_schedule(fam, 2, 1, h=1, constants=consts)
        rep = scheduler.qubit_census(s)
        m_r = fam.level(2).m
        assert rep.max_total <= consts.p1(2) * m_r + consts.theta1 * m_r

    def test_bounds_hold_exactly_on_grid(self, families):
        for name, fam in families.items():
            for h in [1, 2, 3, 4, 7, 16, 64, 256, 1024]:
                for r in range(2, fam.depth + 1):
                    rep = scheduler.qubit_census(scheduler.build_schedule(fam, r, 1, h=h))
                    assert rep.eta1_ok and rep.eta2_ok, (name, h, r)

    def test_large_h_constant_overhead(self, fam, consts):
        r = 3
        m_r = fam.level(r).m
        p1_max = max(consts.p1(l) for l in (2, 3))
        h = p1_max * 4
        s = scheduler.build_schedule(fam, r, 1, h=h, constants=consts)
        rep = scheduler.qubit_census(s)
        # Once h >= p1(m_r): max total <= (2 + theta1) m_r h.
        assert rep.max_total <= (2 + consts.theta1) * m_r * h

    def test_ratio_non_increasing_in_h(self, fam, consts):
        prev = math.inf
        for h in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]:
            rep = scheduler.qubit_census(
                scheduler.build_schedule(fam, 3, 1, h=h, constants=consts)
            )
            assert rep.ratio <= prev + 1e-12
            prev = rep.ratio

    @pytest.mark.parametrize("name", ["toy", "steane", "trivial-steane-422", "trivial-422-hgp33"])
    def test_census_matches_block_plans(self, families, name):
        fam = families[name]
        for r in range(2, fam.depth + 1):
            for h in (1, 2, 3, 5, 8):
                s = scheduler.build_schedule(fam, r, 1, h=h)
                assert scheduler.qubit_census(s).per_layer == census_from_block_plans(s), (r, h)

    def test_audit_and_census_flat_in_h(self, fam):
        # One step per macro-layer, and macro-layers per stage stay near p1
        # however many blocks there are: h = 10**12 costs what h = 10**3 does.
        scheduler.build_schedule(fam, 4, 1, h=1)  # build the plans outside the measurement
        peaks = []
        for h in (10**3, 10**12):
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                s = scheduler.build_schedule(fam, 4, 1, h=h)
                assert scheduler.audit_schedule(s) == []
                rep = scheduler.qubit_census(s)
                elapsed = time.perf_counter() - t0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert rep.eta1_ok and rep.eta2_ok
        assert elapsed < 1.0
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestEffectiveInterface:
    def test_single_block_no_waits(self, fam):
        s = scheduler.build_schedule(fam, 3, 2, h=1, constants=unit_constants(fam.depth))
        sp = scheduler.effective_interface(s, 0)[0][0]
        assert sp.pre_wait == 0 and sp.post_wait == 0

    def test_first_block_zero_pre_wait(self, fam, consts):
        s = scheduler.build_schedule(fam, 3, 1, h=12, constants=consts)
        for stage_plans in scheduler.effective_interface(s, 0):
            assert stage_plans[0].pre_wait == 0
        # Positional arithmetic audit: every descendant's waits sum to the
        # stage length minus one.
        for y, stage in enumerate(s.stages):
            for sp in scheduler.effective_interface(s, 0)[y]:
                assert sp.pre_wait + 1 + sp.post_wait == stage.n_layers

    def test_last_block_maximal_pre_wait(self, fam, consts):
        s = scheduler.build_schedule(fam, 2, 1, h=12, constants=consts)
        stage = s.stages[0]
        assert scheduler.effective_interface(s, 11)[0][0].gamma_layer == stage.n_layers

    def test_layer_conservation(self, fam, consts):
        s = scheduler.build_schedule(fam, 4, 1, h=6, constants=consts)
        total_layers = sum(st.n_layers for st in s.stages)
        for i in range(6):
            # Every block is live through every macro-layer of every stage.
            stages = scheduler.effective_interface(s, i)
            assert sum(plans[0].pre_wait + 1 + plans[0].post_wait for plans in stages) == total_layers

    def test_roundtrip_reassembles_schedule(self, families):
        # Tensoring the per-block plans reproduces the schedule exactly: each
        # stage's blocks, each in the macro-layer whose window holds it.
        for fam in families.values():
            for h in [1, 3, 8, 17]:
                s = scheduler.build_schedule(fam, fam.depth, 1, h=h)
                for y, stage in enumerate(s.stages):
                    assignment = {}
                    for i in range(s.h):
                        for sp in scheduler.effective_interface(s, i)[y]:
                            assert sp.block_index not in assignment
                            assignment[sp.block_index] = sp.gamma_layer
                    expected = {idx: ml.index for ml in stage.layers for idx in range(*ml.gamma_blocks)}
                    assert assignment == expected and sorted(expected) == list(range(stage.h_level))


class TestComposeFull:
    def test_final_layer_census(self, fam, consts):
        # The parallel Gamma_{r',1} layer on every output block.
        from decint.interface import build_gamma

        s = scheduler.build_schedule(fam, 3, 2, h=4, constants=consts)
        final_layer = build_gamma(fam, 2, 1).qubit_count * s.output_blocks
        assert s.output_blocks == 8
        assert final_layer >= 8 * fam.level(2).n

    def test_trivial_target_level(self, fam, consts):
        s = scheduler.build_schedule(fam, 2, 1, h=4, constants=consts)
        assert fam.level(s.r_prime).n == 1  # bare qubits already: no final layer

    def test_json_export(self, fam, consts):
        s = scheduler.build_schedule(fam, 3, 1, h=4, constants=consts)
        text = s.to_json()
        import json

        obj = json.loads(text)
        assert obj["h"] == 4
        assert len(obj["stages"]) == 2
        assert sorted(obj["constants"]) == ["p1_table", "theta1"]
        assert [st["children"] for st in obj["stages"]] == [2, 2]


class TestMeasuredConstants:
    def test_p1_covers_actual_footprints(self, fam, consts):
        from decint.interface import build_gamma

        for r in range(2, fam.depth + 1):
            plan = build_gamma(fam, r, r - 1)
            m = fam.level(r).m
            assert consts.p1(r) * m >= plan.qubit_count

    def test_theta1_covers_ec_footprints(self, fam, consts):
        for r in range(1, fam.depth + 1):
            code = fam.level(r)
            assert consts.theta1 * code.m >= code.n + len(code.hx) + len(code.hz)


class TestChainPlan:
    """The schedule carries the circuits it was sized for."""

    @pytest.mark.parametrize("name, theta1", [("toy", 4), ("steane", 13)])
    def test_theta1_is_the_wait_gadget_footprint(self, name, theta1):
        fam = css.BUILTIN_FAMILIES[name]()
        assert scheduler.measured_constants(fam).theta1 == theta1
        for r in range(1, fam.depth + 1):
            code = fam.level(r)
            assert len(interface.wait_gadget(code).wires) <= theta1 * code.m

    def test_schedule_is_sized_under_its_knobs(self, fam):
        knobs = interface.GammaKnobs(s1=0, s2=0)
        s = scheduler.build_schedule(fam, 4, 1, h=8, knobs=knobs, wait_rounds=3)
        assert (s.knobs, s.wait_rounds) == (knobs, 3)
        assert s.constants == scheduler.measured_constants(fam, knobs)
        assert s.constants != scheduler.measured_constants(fam)
        plain = scheduler.build_schedule(fam, 4, 1, h=8)
        assert (plain.knobs, plain.wait_rounds) == (interface.GammaKnobs(), 1)

    def test_negative_wait_rounds_rejected(self, fam):
        with pytest.raises(ValueError, match="wait_rounds must be non-negative"):
            scheduler.build_schedule(fam, 2, 1, h=1, wait_rounds=-1)
