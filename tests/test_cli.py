import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from decint import cli, css, e2e, scheduler
from decint.interface import wilson_interval
from decint.noise import NoiseParams


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def wilson_overlap(a: int, b: int, trials: int, z: float = 3.29) -> bool:
    """The 99.9% Wilson intervals of a and b successes in `trials` overlap."""
    (lo_a, hi_a), (lo_b, hi_b) = wilson_interval(a, trials, z=z), wilson_interval(b, trials, z=z)
    return lo_a <= hi_b and lo_b <= hi_a


def run(command, config, out):
    return cli.main([command, "--config", config, "--out", str(out)])


class TestValidateCodes:
    def test_toy_family_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"family": "toy"})
        assert run("validate-codes", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "validation.csv").read_text().splitlines()
        assert lines[0] == "check,passed,detail"
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_corrupted_family_fails_with_named_check(self, tmp_path, capsys):
        css.save_family(css.toy_family(), tmp_path / "fam")
        target = tmp_path / "fam" / "level_2.txt"
        target.write_text(target.read_text().replace("1111", "1011", 1))
        cfg = write_config(tmp_path, "c.json", {"family": str(tmp_path / "fam")})
        assert run("validate-codes", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "FAIL" in err

    def test_unknown_family_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"family": "nope"})
        assert run("validate-codes", cfg, tmp_path / "out") == 2

    def test_missing_config(self, tmp_path):
        assert run("validate-codes", str(tmp_path / "absent.json"), tmp_path / "o") == 2

    def test_workers_below_one_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"family": "toy"})
        for workers in ("0", "-1"):
            argv = ["validate-codes", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", workers]
            assert cli.main(argv) == 2
            assert "--workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_workers_above_one_rejected_where_unused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"family": "toy"})
        for command in ("validate-codes", "schedule-audit", "tree-bounds", "e2e"):
            argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "2"]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert command in err and "--workers must be 1" in err
        assert not (tmp_path / "o").exists()
        sweep = write_config(
            tmp_path, "s.json",
            {"family": "toy", "r": 2, "r_prime": 1, "trials": 200, "noise": {"delta": [0.01]}},
        )
        argv = ["interface-sweep", "--config", sweep, "--out", str(tmp_path / "s"), "--workers", "2"]
        assert cli.main(argv) == 0

    def test_dump_family_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"family": "toy", "dump": True})
        assert run("validate-codes", cfg, tmp_path / "out") == 0
        back = css.load_family(tmp_path / "out" / "family")
        assert back.depth == 4 and back.validate().passed

    def test_dumped_family_validates_the_same_checks(self, tmp_path):
        # The reloaded levels carry no recorded distances; validation finds
        # them by search and checks every exact one, as for the builtin.
        cfg = write_config(tmp_path, "c.json", {"family": "toy", "dump": True})
        assert run("validate-codes", cfg, tmp_path / "builtin") == 0
        cfg = write_config(tmp_path, "d.json", {"family": str(tmp_path / "builtin" / "family")})
        assert run("validate-codes", cfg, tmp_path / "dumped") == 0
        names = [
            [line.split(",")[0] for line in (tmp_path / out / "validation.csv").read_text().splitlines()]
            for out in ("builtin", "dumped")
        ]
        assert names[0] == names[1] and len(names[0]) == 1 + 46
        assert {"distance_r2", "distance_r3", "distance_r4"} <= set(names[1])


class TestInterfaceSweep:
    CFG = {
        "family": "toy",
        "r": 2,
        "r_prime": 1,
        "noise": {"delta": [0.01, 0.005], "seed": 3},
        "trials": 2000,
        "mu": 0.25,
    }

    def test_runs_and_reproduces(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert run("interface-sweep", cfg, tmp_path / "a") == 0
        assert run("interface-sweep", cfg, tmp_path / "b") == 0
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "sweep.svg").exists()

    def test_zero_delta_zero_failures(self, tmp_path):
        cfg = dict(self.CFG)
        cfg["noise"] = {"delta": [0.0], "seed": 1}
        cfg["trials"] = 100
        path = write_config(tmp_path, "c.json", cfg)
        assert run("interface-sweep", path, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[2] == "0"

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert cli.main(
            ["interface-sweep", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "99"]
        ) == 0
        assert run("interface-sweep", cfg, tmp_path / "b") == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() != (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_empty_grid_usage_error(self, tmp_path):
        cfg = dict(self.CFG)
        cfg["noise"] = {"delta": [], "seed": 1}
        path = write_config(tmp_path, "c.json", cfg)
        assert run("interface-sweep", path, tmp_path / "out") == 2

    def test_two_workers_write_the_same_sweep(self, tmp_path):
        cfg = dict(self.CFG, trials=4000)
        path = write_config(tmp_path, "c.json", cfg)
        for workers in ("1", "2"):
            argv = ["interface-sweep", "--config", path, "--out", str(tmp_path / workers), "--workers", workers]
            assert cli.main(argv) == 0
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == (tmp_path / "2" / "sweep.csv").read_bytes()


class TestScheduleAudit:
    def test_bounds_hold(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "toy", "h_grid": [1, 3, 16], "r_grid": [2, 3], "r_prime": 1},
        )
        assert run("schedule-audit", cfg, tmp_path / "out") == 0
        margins = (tmp_path / "out" / "margins.csv").read_text().splitlines()
        assert margins[0].endswith("bounds_ok")
        assert all(row.split(",")[-1] == "1" for row in margins[1:])

    def test_census_totals_bounded(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"family": "toy", "h_grid": [4], "r_grid": [3], "r_prime": 1}
        )
        assert run("schedule-audit", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "census.csv").read_text().splitlines()[1:]
        for row in rows:
            vals = row.split(",")
            assert int(vals[4]) + int(vals[5]) == int(vals[6])


class TestTreeBounds:
    def test_bounds_verified_with_mc(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "z_grid": [2, 3],
                "delta_bar_grid": [0.3],
                "max_size": 2,
                "mc_trials": 20000,
                "seed": 7,
            },
        )
        assert run("tree-bounds", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "tree_bounds.csv").read_text().splitlines()
        assert rows[0].startswith("z,delta_bar,set,exact_prob,bound,margin,ok")
        assert all(r.split(",")[6] == "1" for r in rows[1:])

    def test_small_rates_pass_the_exact_test(self, tmp_path):
        # Sets with exact probability near 1e-6 see 0 to 2 hits in 1e5 trials.
        cfg = write_config(
            tmp_path,
            "c.json",
            {"z_grid": [2, 3, 4], "delta_bar_grid": [0.3, 0.1, 0.03], "max_size": 3,
             "mc_trials": 100000, "seed": 1},
        )
        assert run("tree-bounds", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "tree_bounds.csv").read_text().splitlines()
        assert rows[0].split(",")[-2:] == ["mc_freq", "mc_consistent"]
        assert len(rows) == 328 and all(r.endswith(",1") for r in rows[1:])

    def test_depth_cap_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"z_grid": [9], "delta_bar_grid": [0.1]})
        assert run("tree-bounds", cfg, tmp_path / "out") == 2


class TestE2E:
    def test_exhaustive_zero_errors(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "steane", "r": 2, "h": 1, "mode": "exhaustive",
             "noise": {"delta": 0.0, "seed": 2}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "e2e_exhaustive.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[3] == "0" for r in rows)

    def test_exhaustive_accepts_explicit_zero_noise(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "steane", "r": 2, "h": 1, "mode": "exhaustive", "noise": {"delta": [0.0]},
             "resource_oracle": {"ls_delta": 0.0, "fail_prob": 0.0}, "input_ls_delta": 0.0},
        )
        assert run("e2e", cfg, tmp_path / "out") == 0

    @pytest.mark.parametrize("pattern", [[1], [0, 1, 0, 1, 0, 1, 0, 1, 0], [2, 0], [2, 0, 0, 0], [1, True]])
    def test_exhaustive_bad_logical_pattern_usage_error(self, tmp_path, capsys, pattern):
        # Toy level 2 has m = 2 logical qubits per block.
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "toy", "r": 2, "h": 1, "mode": "exhaustive",
             "logical_patterns": [[0, 1], pattern], "noise": {"delta": 0.0}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"logical pattern {pattern!r}" in err and "m=2" in err
        assert not (tmp_path / "out" / "e2e_exhaustive.csv").exists()

    @pytest.mark.parametrize("patterns", [[], 5, [0, 1]])
    def test_exhaustive_logical_patterns_must_be_a_list_of_lists(self, tmp_path, patterns):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "toy", "r": 2, "h": 1, "mode": "exhaustive",
             "logical_patterns": patterns, "noise": {"delta": 0.0}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 2
        assert not (tmp_path / "out" / "e2e_exhaustive.csv").exists()

    def test_frames_mode_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "steane", "r": 2, "h": 2, "trials": 500,
             "noise": {"delta": [0.01, 0.002], "seed": 4}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "e2e_summary.json").read_text())
        assert summary["pauli_twirl"] is True
        assert len(summary["mean_singleton_rates"]) == 2
        assert (tmp_path / "out" / "schedule.json").exists()

    def test_toy_family_multilevel_frames(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "toy", "r": 3, "h": 2, "trials": 300,
             "noise": {"delta": [0.005], "seed": 6}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "e2e_marginals.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 2  # m_r=4 outputs per block, h=2 blocks

    def test_frames_summary_rates_are_the_run_counts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "toy", "r": 2, "h": 2, "trials": 300,
             "noise": {"delta": [0.005, 0.001], "seed": 6}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "e2e_summary.json").read_text())
        fam = css.toy_family()
        sched = scheduler.build_schedule(fam, 2, 1, 2, constants=scheduler.measured_constants(fam))
        runs = [e2e.run_e2e_frames(fam, sched, NoiseParams(delta=d, seed=6), 300) for d in (0.005, 0.001)]
        assert summary["herald_rates"] == [stats.heralds / 300 for stats in runs]
        assert summary["any_error_rates"] == [stats.any_errors / 300 for stats in runs]
        assert all(0 < stats.heralds < 300 and 0 < stats.any_errors < 300 for stats in runs)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_frames_trials_below_one_usage_error(self, tmp_path, capsys, trials):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "steane", "r": 2, "h": 1, "trials": trials,
             "noise": {"delta": [0.01], "seed": 4}},
        )
        assert run("e2e", cfg, tmp_path / "out") == 2
        assert "at least one trial" in capsys.readouterr().err
        assert not (tmp_path / "out" / "e2e_marginals.csv").exists()

    def test_frames_reproducible(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "steane", "r": 2, "h": 1, "trials": 400,
             "noise": {"delta": [0.01], "seed": 4}},
        )
        assert run("e2e", cfg, tmp_path / "a") == 0
        assert run("e2e", cfg, tmp_path / "b") == 0
        assert (tmp_path / "a" / "e2e_marginals.csv").read_bytes() == (
            tmp_path / "b" / "e2e_marginals.csv"
        ).read_bytes()


class TestExitCodes:
    SWEEP = {"family": "toy", "r": 2, "r_prime": 1, "trials": 100, "noise": {"delta": [0.01]}}
    EXHAUSTIVE = {"family": "steane", "r": 2, "h": 1, "mode": "exhaustive"}

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("interface-sweep", {"family": "toy", "r": 2, "trials": 100}, "'r_prime'"),
            ("interface-sweep", dict(SWEEP, noise={"delta": [0.01, 1.5]}), "delta must lie in [0, 1]"),
            ("interface-sweep", dict(SWEEP, trials="many"), "bad config value"),
            ("interface-sweep", dict(SWEEP, r=7), "r_prime < r <= 4"),
            ("schedule-audit", {"family": "toy", "h_grid": []}, "h_grid must be a non-empty list"),
            ("tree-bounds", {"z_grid": [2], "delta_bar_grid": [2]}, "delta_bar must lie in [0, 1]"),
            ("e2e", {"family": "steane", "r": 2, "trials": 10}, "'h'"),
            ("e2e", {"family": "steane", "r": 2, "h": 1, "mode": "exhaustve"}, "mode must be"),
            ("interface-sweep", dict(SWEEP, noise=[0.1]), "bad config value"),
            ("interface-sweep", dict(SWEEP, resource_oracle=[1]), "bad config value"),
            ("interface-sweep", dict(SWEEP, s1=-1), "EC round counts must be non-negative"),
            ("e2e", {"family": "steane", "r": 2, "h": 1, "mode": "exhaustive", "s2": -1},
             "EC round counts must be non-negative"),
            ("e2e", {"family": "steane", "r": 2, "h": 1, "mode": "exhaustive", "wait_rounds": -1},
             "wait_rounds must be non-negative"),
            ("tree-bounds", {"z_grid": [2], "mc_trials": -5}, "mc_trials must be non-negative"),
            ("interface-sweep", dict(SWEEP, trials=100.7, s1=1.5), "expected an integer, got 100.7"),
            ("interface-sweep", dict(SWEEP, s1=1.5), "expected an integer, got 1.5"),
            ("interface-sweep", dict(SWEEP, trials=True), "expected an integer, got True"),
            ("interface-sweep", dict(SWEEP, proc_layers="ab"), "proc_layers coefficients must be numbers"),
            ("interface-sweep", dict(SWEEP, resource_oracle={"ls_delta": 1.5}), "ls_delta must lie in [0, 1]"),
            ("interface-sweep", dict(SWEEP, resource_oracle={"ls_delta": -0.1}), "ls_delta must lie in [0, 1]"),
            ("interface-sweep", dict(SWEEP, resource_oracle={"fail_prob": -1}), "fail_prob must lie in [0, 1]"),
            ("e2e", {"family": "steane", "r": 2, "h": 1, "mode": "exhaustive", "resource_oracle": {"fail_prob": 3}},
             "fail_prob must lie in [0, 1]"),
            ("interface-sweep", dict(SWEEP, mu=-0.5), "mu must lie in (0, 1)"),
            ("interface-sweep", dict(SWEEP, mu="nan"), "mu must lie in (0, 1)"),
            ("e2e", dict(EXHAUSTIVE, noise={"delta": 0.1}, resource_oracle={"fail_prob": 0.5}),
             "noise.delta must be 0, got 0.1"),
            ("e2e", dict(EXHAUSTIVE, noise={"delta": [0.0, 0.01]}), "noise.delta must be 0"),
            ("e2e", dict(EXHAUSTIVE, resource_oracle={"ls_delta": 0.2}), "resource_oracle.ls_delta must be 0"),
            ("e2e", dict(EXHAUSTIVE, resource_oracle={"fail_prob": 0.5}), "resource_oracle.fail_prob must be 0"),
            ("e2e", dict(EXHAUSTIVE, input_ls_delta=0.1), "input_ls_delta must be 0"),
            # Keys a command never reads: a misspelt knob would run with its default.
            ("interface-sweep", dict(SWEEP, resource_orcle={"fail_prob": 0.5}), "unknown config key 'resource_orcle'"),
            ("interface-sweep", dict(SWEEP, chunk_size=2), "unknown config key 'chunk_size'"),
            ("interface-sweep", dict(SWEEP, noise={"delta": [0.01], "sead": 3}), "unknown config key 'sead' in noise"),
            ("interface-sweep", dict(SWEEP, resource_oracle={"failprob": 0.5}), "unknown config key 'failprob' in resource_oracle"),
            ("e2e", dict(EXHAUSTIVE, resource_oracle={"ls_delta": 0.0, "fail": 0}), "unknown config key 'fail' in resource_oracle"),
            ("e2e", dict(EXHAUSTIVE, wait_round=2), "unknown config key 'wait_round'"),
            ("validate-codes", {"family": "toy", "seed": 3}, "unknown config key 'seed'"),
            ("schedule-audit", {"family": "toy", "h_grid": [1], "r": 4}, "unknown config key 'r'"),
            ("tree-bounds", {"z_grid": [2], "family": "toy"}, "unknown config key 'family'"),
            # Keys only the other e2e mode reads.
            ("e2e", dict(EXHAUSTIVE, trials=7), "exhaustive mode does not read config key 'trials'"),
            ("e2e", {"family": "steane", "r": 2, "h": 1, "trials": 10, "logical_patterns": [[1]]},
             "frames mode does not read config key 'logical_patterns'"),
        ],
    )
    def test_config_errors_are_usage_errors(self, tmp_path, capsys, command, config, message):
        cfg = write_config(tmp_path, "c.json", config)
        assert run(command, cfg, tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))

    def test_every_command_lists_its_config_keys(self):
        assert cli.CONFIG_KEYS.keys() == cli.COMMANDS.keys()

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("no-manifest", "family.json"),
            ("no-level-file", "level_2.txt"),
            ("truncated-level", "IndexError"),
        ],
    )
    def test_malformed_family_dir_is_a_usage_error(self, tmp_path, capsys, damage, message):
        fam = tmp_path / "fam"
        css.save_family(css.toy_family(), fam)
        if damage == "no-manifest":
            (fam / "family.json").unlink()
        elif damage == "no-level-file":
            (fam / "level_2.txt").unlink()
        else:
            level = fam / "level_2.txt"
            level.write_text(level.read_text().splitlines()[0] + "\nHX\n")
        cfg = write_config(tmp_path, "c.json", {"family": str(fam)})
        assert run("validate-codes", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "does not load" in err and message in err

    def test_level_over_the_leader_table_limit_is_a_usage_error(self, tmp_path, capsys):
        # Level 3 is HGP(Hamming, Hamming) = [[58,16,3]], 21 checks per sector.
        hgp = css.build_hgp(css.HAMMING_743, css.HAMMING_743)
        levels = (css.trivial_code(), css.steane_code(), hgp)
        css.save_family(css.CodeFamily(levels=levels, alpha=0.1, beta=0.1), tmp_path / "fam")
        for command, config in (
            ("interface-sweep", {"r": 3, "r_prime": 2, "trials": 10}),
            ("e2e", {"r": 3, "h": 1, "trials": 10}),
        ):
            cfg = write_config(tmp_path, "c.json", dict(config, family=str(tmp_path / "fam")))
            assert run(command, cfg, tmp_path / command) == 2
            err = capsys.readouterr().err
            assert "level 3 has 21 checks" in err and "Traceback" not in err
            assert not any((tmp_path / command).iterdir())  # refused before any work

    def test_config_that_is_not_json_is_a_usage_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{family: toy")
        assert run("validate-codes", str(path), tmp_path / "out") == 2

    def test_invariant_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("frame batch lost a trial")

        monkeypatch.setattr(cli.interface, "estimate_tau", broken)
        cfg = write_config(tmp_path, "c.json", self.SWEEP)
        assert run("interface-sweep", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "ValueError: frame batch lost a trial" in err and "usage error" not in err


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"family": "toy"})
        run("validate-codes", cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "validate-codes"
        assert len(manifest["config_hash"]) == 64
        assert manifest["code_version"]
        assert manifest["start"] and manifest["end"]
        assert "validation.csv" in manifest["outputs"]


def modules_after_cli_import() -> set:
    """Module names loaded by `import decint.cli` in a fresh interpreter."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, decint.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestStartup:
    def test_cli_import_leaves_mpmath_unloaded(self):
        # mpmath serves only noise.tail_bound_dominates, which no command calls.
        assert "mpmath" not in modules_after_cli_import()

    def test_cli_import_leaves_tree_bounds_and_dataclasses_unloaded(self, tmp_path):
        # Records are NamedTuples (no per-class code generation at import), and
        # only tree-bounds needs the tree module and exact fractions.
        loaded = modules_after_cli_import()
        assert not {"dataclasses", "fractions", "decint.blocktree"} & loaded
        cfg = write_config(
            tmp_path, "c.json",
            {"z_grid": [2, 3], "delta_bar_grid": [0.3, 0.1], "max_size": 2, "mc_trials": 2000, "seed": 7},
        )
        assert run("tree-bounds", cfg, tmp_path / "out") == 0
        # Golden digest: where the tree module is imported must not change a byte.
        digest = hashlib.sha256((tmp_path / "out" / "tree_bounds.csv").read_bytes()).hexdigest()
        assert digest == "7fe9a535333a29b3fa71c94f8b2e4367acf9bd0cebe4bc20e14bc004a2f96995"


class TestSameSeedOutputs:
    """Pinned digests (first 16 hex digits of the sha256) of three outputs at
    --seed 5 and --workers 1. A change to a random stream, the decoder or the
    classification moves them; a refactor must not.

    `previous` holds the counts of the frame runs before circuit faults were
    drawn once per fragment run (digests af4e696ababc3736 and
    5d1a6e8e1d7fe3a3); the new counts must agree with them, their 99.9%
    Wilson intervals overlapping. A `_rate` column is a rate of `trials`."""

    @pytest.mark.parametrize(
        "command, config, output, digest, previous",
        [
            ("interface-sweep",
             {"family": "toy", "r": 4, "r_prime": 3, "noise": {"delta": [0.01]}, "mu": 0.25,
              "trials": 50_000},
             "sweep.csv", "f41b44ee603afd64",
             {"failures": [49903], "heralds": [47616], "logical_errors": [49707], "weight_overflows": [42134]}),
            ("e2e",
             {"family": "steane", "r": 2, "h": 2, "mode": "exhaustive", "noise": {"delta": 0.0}},
             "e2e_exhaustive.csv", "70e4b124480f47d0", {}),
            ("e2e",
             {"family": "toy", "r": 4, "h": 4, "mode": "frames", "noise": {"delta": [0.001]},
              "trials": 3000},
             "e2e_marginals.csv", "3dd458c0ea7ab176",
             {"error_rate": [1560, 1396, 1355, 1178, 1567, 1381, 1396, 1217, 1640, 1477, 1450, 1236, 1638,
                             1461, 1389, 1191, 1675, 1548, 1526, 1317, 1782, 1557, 1578, 1326, 1802, 1744,
                             1645, 1446, 1772, 1653, 1614, 1365]}),
        ],
        ids=["tau-deep", "exhaustive-steane", "e2e-wide"],
    )
    def test_digest(self, tmp_path, command, config, output, digest, previous):
        cfg = write_config(tmp_path, "c.json", config)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "5", "--workers", "1"]
        assert cli.main(argv) == 0
        assert hashlib.sha256((tmp_path / "out" / output).read_bytes()).hexdigest()[:16] == digest
        rows = list(csv.DictReader((tmp_path / "out" / output).read_text().splitlines()))
        for column, old in previous.items():
            assert len(rows) == len(old)
            for row, before in zip(rows, old):
                trials = int(row["trials"])
                now = round(float(row[column]) * trials) if column.endswith("_rate") else int(row[column])
                assert wilson_overlap(before, now, trials), (column, before, now)
