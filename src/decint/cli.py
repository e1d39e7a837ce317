"""Experiment runner: drives every module from JSON configs with
deterministic seeds, writes CSV/JSON results plus a manifest sidecar, and
renders static SVG summary plots.

Subcommands: validate-codes, interface-sweep, schedule-audit, tree-bounds,
e2e. Exit codes: 0 success, 1 invariant failure, 2 usage error. Identical
(config, seed) reproduces byte-identical CSVs.

A command accepts exactly the config keys it reads: the config records
every read, and any key left unread (a misspelt knob would otherwise run
with its default) is a usage error. Each command reads its whole config
before it builds its `Manifest`, which refuses unread keys and names every
output, so a usage error writes no file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import datetime
import gc
import hashlib
import json
import pathlib
import sys
from typing import Optional

import numpy as np

from . import __version__, css, e2e, interface, scheduler
from .noise import NoiseParams
from .plotsvg import write_loglog_svg


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: pathlib.Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class Manifest:
    """The run's record and the one place that names its outputs."""

    def __init__(self, command: str, config: _Config, out_dir: pathlib.Path):
        config.refuse_unread()
        self.data = {
            "command": command,
            "config_hash": config_hash(config),
            "config": config,
            "code_version": __version__,
            "start": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "end": None,
            "task_seeds": [],
            "outputs": [],
        }
        self.out_dir = out_dir

    def output(self, name: str) -> pathlib.Path:
        """Record output `name` and return its path."""
        self.data["outputs"].append(name)
        return self.out_dir / name

    def add_seed(self, label: str, seed: int):
        self.data["task_seeds"].append({"task": label, "seed": seed})

    def finish(self):
        self.data["end"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")


class UsageError(Exception):
    """A bad command line or config: exit code 2."""


class _Config(dict):
    """A JSON config object that records the keys read through [] or .get.

    Nested objects are `_Config`s of their own, named by `where` in errors.
    """

    def __init__(self, obj: dict, where: str):
        super().__init__((k, _Config(v, f"in {k}") if isinstance(v, dict) else v) for k, v in obj.items())
        self.where = where
        self.reads: set[str] = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def refuse_unread(self) -> None:
        unread = self.keys() - self.reads
        if unread:
            names = ", ".join(map(repr, sorted(unread)))
            raise UsageError(f"unknown config key {names} {self.where} (it reads {sorted(self.reads)})")
        for value in self.values():
            if isinstance(value, _Config):
                value.refuse_unread()


@contextlib.contextmanager
def _config_values():
    """Report a missing or malformed config value as a usage error."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"config has no {exc.args[0]!r}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}") from None


def load_family(name_or_path: str) -> css.CodeFamily:
    if name_or_path in css.BUILTIN_FAMILIES:
        return css.BUILTIN_FAMILIES[name_or_path]()
    path = pathlib.Path(name_or_path)
    if not path.exists():
        raise UsageError(
            f"unknown family {name_or_path!r} (builtin: {sorted(css.BUILTIN_FAMILIES)})"
        )
    try:
        return css.load_family(path)
    except (KeyError, IndexError, OSError, ValueError) as exc:
        raise UsageError(f"family {str(path)!r} does not load: {type(exc).__name__}: {exc}") from None


def _family(config: dict) -> css.CodeFamily:
    with _config_values():
        name = config["family"]
    return load_family(name)


def _grid(config: dict, key: str, default: list) -> list:
    grid = config.get(key, default)
    if not isinstance(grid, list) or not grid:
        raise UsageError(f"{key} must be a non-empty list, got {grid!r}")
    return grid


def _as_int(value) -> int:
    """A config count: a JSON integer, or an integral float such as 100.0.
    A string, a bool or a non-integral float raises."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _as_float(value) -> float:
    """A config number: a JSON integer or float; a string or a bool raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _flag(value) -> bool:
    """A config switch: a JSON true or false, nothing else."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _seed(value, override: Optional[int]) -> int:
    """The config seed, checked even when --seed overrides it."""
    value = _as_int(value)
    return value if override is None else override


def _trials(config: dict) -> int:
    trials = _as_int(config["trials"])
    if trials < 1:
        raise UsageError(f"need at least one trial, got {trials}")
    return trials


def _check_levels(family: css.CodeFamily, r: int, r_prime: int) -> None:
    if not 1 <= r_prime < r <= family.depth:
        raise UsageError(f"need 1 <= r_prime < r <= {family.depth}, got r={r}, r_prime={r_prime}")


def _check_decodable(family: css.CodeFamily, levels, classified: tuple = ()) -> None:
    """Every level a run decodes needs leader tables, which stop at MAX_TABLE_ROWS
    checks; a level whose residuals it classifies also needs coset tables, indexed
    by the checks and the m logicals of a sector, which stop at MAX_TABLE_ROWS rows."""
    for r in levels:
        code = family.level(r)
        checks = max(len(code.hx), len(code.hz))
        if checks > interface.MAX_TABLE_ROWS:
            raise UsageError(
                f"level {r} has {checks} checks in one sector; leader tables "
                f"decode at most {interface.MAX_TABLE_ROWS}"
            )
    for r in classified:
        code = family.level(r)
        rows = max(len(code.hx), len(code.hz)) + code.m
        if rows > interface.MAX_TABLE_ROWS:
            raise UsageError(
                f"level {r} has {rows} checks and logicals in one sector; coset tables "
                f"classify at most {interface.MAX_TABLE_ROWS}"
            )


def _noise_params(config: dict, seed_override: Optional[int]) -> tuple[list[float], int]:
    noise = config.get("noise", {})
    deltas = noise.get("delta", 0.0)
    if not isinstance(deltas, list):
        deltas = [deltas]
    if not deltas:
        raise UsageError("empty delta grid")
    # A top-level seed is read only when noise holds none, so a second one is an unread key.
    seed = _seed(noise["seed"] if "seed" in noise else config.get("seed", 0), seed_override)
    return [_probability("delta", _as_float(d)) for d in deltas], seed


def _count(key: str, value: int) -> int:
    if value < 0:
        raise UsageError(f"{key} must be non-negative, got {value}")
    return value


def _probability(key: str, value):
    if not 0 <= value <= 1:
        raise UsageError(f"{key} must lie in [0, 1], got {value}")
    return value


def _knobs(config: dict) -> interface.GammaKnobs:
    oracle = config.get("resource_oracle", {})
    ls_delta = oracle.get("ls_delta")
    return interface.GammaKnobs(
        s1=_as_int(config.get("s1", 1)),
        s2=_as_int(config.get("s2", 1)),
        # A float is read as a count (1.0 is 1, 1.2 is refused); GammaKnobs judges the rest.
        proc_poly=[_as_int(c) if isinstance(c, float) else c for c in config.get("proc_layers", (0, 1))],
        resource_ls_delta=None if ls_delta is None else _as_float(ls_delta),
        resource_fail_prob=_as_float(oracle.get("fail_prob", 0.0)),
    )


# -- subcommands -------------------------------------------------------------------


def cmd_validate_codes(config: dict, out: pathlib.Path, seed: Optional[int], workers: int) -> int:
    family = _family(config)
    with _config_values():
        dump = _flag(config.get("dump", False))
    manifest = Manifest("validate-codes", config, out)
    report = family.validate()
    rows = [[c.name, c.passed, c.detail] for c in report.checks]
    distances = []
    for r in range(1, family.depth + 1):
        code = family.level(r)
        d, exact = code.min_distance()
        distances.append([r, code.n, code.m, d, exact])
    write_csv(manifest.output("validation.csv"), ["check", "passed", "detail"], rows)
    write_csv(manifest.output("distances.csv"), ["level", "n", "m", "distance", "exact"], distances)
    if dump:
        css.save_family(family, manifest.output("family/"))
    manifest.finish()
    if not report.passed:
        for c in report.failures():
            print(f"FAIL {c.name}: {c.detail}", file=sys.stderr)
        return 1
    print(f"validate-codes: all {len(report.checks)} checks passed")
    return 0


def cmd_interface_sweep(config: dict, out: pathlib.Path, seed: Optional[int], workers: int) -> int:
    family = _family(config)
    with _config_values():
        deltas, base_seed = _noise_params(config, seed)
        r = _as_int(config["r"])
        r_prime = _as_int(config["r_prime"])
        trials = _trials(config)
        mu = _as_float(config.get("mu", 0.25))
        if not 0 < mu < 1:
            raise UsageError(f"mu must lie in (0, 1), got {mu}")
        knobs = _knobs(config)
    _check_levels(family, r, r_prime)
    _check_decodable(family, (r, r_prime), classified=(r_prime,))
    manifest = Manifest("interface-sweep", config, out)
    rows = []
    rates = []
    out_marginals = []
    for k, delta in enumerate(deltas):
        params = NoiseParams(delta=delta, seed=base_seed)
        manifest.add_seed(f"delta={delta}", base_seed)
        est = interface.estimate_tau(
            family, r, r_prime, params, trials, mu, knobs=knobs, workers=workers
        )
        mean_w = est.block_weight_hist @ np.arange(est.block_weight_hist.shape[1])
        mean_w = mean_w / est.trials
        rows.append(
            [delta, est.trials, est.failures, *interface.wilson_interval(est.failures, est.trials),
             est.heralds, est.logical_errors, est.weight_overflows]
            + [float(w) for w in mean_w]
        )
        rates.append(est.rate)
        out_marginals.append(float(est.out_qubit_error_rate.mean()))
    blocks = family.level(r).m // family.level(r_prime).m
    header = [
        "delta", "trials", "failures", "wilson_lo", "wilson_hi",
        "heralds", "logical_errors", "weight_overflows",
    ] + [f"mean_out_weight_block{i}" for i in range(blocks)]
    write_csv(manifest.output("sweep.csv"), header, rows)
    # Measured output-noise coefficient: marginal ~ lambda' * delta (reported,
    # never asserted; the existential constants are not reproducible).
    marginals = out_marginals
    lam = None
    pos = [(d, m) for d, m in zip(deltas, marginals) if d > 0 and m > 0]
    if len(pos) >= 2:
        ds = np.array([p[0] for p in pos])
        ms = np.array([p[1] for p in pos])
        lam = float((ds @ ms) / (ds @ ds))
    summary = {
        "r": r, "r_prime": r_prime, "trials": trials, "mu": mu,
        "deltas": deltas, "failure_rates": rates,
        "mean_out_marginals": marginals,
        "fitted_lambda_prime": lam,
        "pauli_twirl": True,
        "note": "lambda' is a measured analogue of an existential constant",
        "ec_note": "one noisy syndrome round with exact table decoding realizes "
        "the single-shot EC contract at these code sizes only",
    }
    manifest.output("sweep_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    write_loglog_svg(
        manifest.output("sweep.svg"),
        deltas,
        [max(r_, 1e-12) for r_ in rates],
        title=f"Gamma_{{{r},{r_prime}}} failure rate",
        xlabel="delta",
        ylabel="failure rate",
    )
    manifest.finish()
    print(f"interface-sweep: {len(deltas)} deltas x {trials} trials")
    return 0


def cmd_schedule_audit(config: dict, out: pathlib.Path, seed: Optional[int], workers: int) -> int:
    family = _family(config)
    with _config_values():
        h_grid = [_as_int(h) for h in _grid(config, "h_grid", [1, 2, 4, 8])]
        r_grid = [_as_int(r) for r in _grid(config, "r_grid", [family.depth])]
        r_prime = _as_int(config.get("r_prime", 1))
    for r in r_grid:
        _check_levels(family, r, r_prime)
    if min(h_grid) < 1:
        raise UsageError(f"h_grid entries must be positive, got {h_grid}")
    consts = scheduler.measured_constants(family)
    manifest = Manifest("schedule-audit", config, out)
    census_rows = []
    margin_rows = []
    violated = False
    for r in r_grid:
        for h in h_grid:
            sched = scheduler.build_schedule(family, r, r_prime, h, constants=consts)
            problems = scheduler.audit_schedule(sched)
            if problems:
                violated = True
                for p in problems:
                    print(f"audit violation: {p}", file=sys.stderr)
            rep = scheduler.qubit_census(sched)
            violated |= not (rep.eta1_ok and rep.eta2_ok)
            for c in rep.per_layer:
                census_rows.append(
                    [r, h, c.level, c.layer, c.eta1, c.eta2, c.total,
                     c.total / (family.level(r).m * h)]
                )
            margin_rows.append(
                [r, h, rep.max_total, rep.ratio,
                 rep.bound1, rep.bound2,
                 rep.eta1_ok and rep.eta2_ok]
            )
    write_csv(
        manifest.output("census.csv"),
        ["r", "h", "level", "layer", "ec_qubits", "gamma_qubits", "total", "ratio"],
        census_rows,
    )
    write_csv(
        manifest.output("margins.csv"),
        ["r", "h", "max_total", "ratio", "eta1_bound", "eta2_bound", "bounds_ok"],
        margin_rows,
    )
    manifest.finish()
    if violated:
        return 1
    print(f"schedule-audit: {len(margin_rows)} configurations, all bounds hold")
    return 0


# Family-wise false-alarm rate of a tree-bounds run's Monte Carlo checks.
MC_FAMILY_ALPHA = 1e-3


def cmd_tree_bounds(config: dict, out: pathlib.Path, seed: Optional[int], workers: int) -> int:
    # Imported here: only this command needs the tree module and exact fractions.
    from fractions import Fraction

    from . import blocktree

    with _config_values():
        z_grid = [_as_int(z) for z in _grid(config, "z_grid", [2, 3, 4])]
        db_grid = _grid(config, "delta_bar_grid", [0.3, 0.1, 0.03])
        db_fracs = [_probability("delta_bar", Fraction(str(_as_float(db)))) for db in db_grid]
        max_size = _as_int(config.get("max_size", 3))
        leaf_only = _flag(config.get("leaf_only", True))
        mc_trials = _count("mc_trials", _as_int(config.get("mc_trials", 0)))
        base_seed = _seed(config.get("seed", 0), seed)
    for z in z_grid:
        if not 1 <= z <= blocktree.MAX_EXACT_DEPTH + 1:
            raise UsageError(f"z={z} lies outside 1..{blocktree.MAX_EXACT_DEPTH + 1} (the exact-mode depth cap)")
    manifest = Manifest("tree-bounds", config, out)
    rows = []
    mc_rows = []
    all_ok = True
    for z in z_grid:
        for db, db_frac in zip(db_grid, db_fracs):
            checks = blocktree.check_final_bound(z, db_frac, max_size=max_size, leaf_only=leaf_only)
            params = blocktree.TreeParams.bound_saturating(z, db_frac)
            alive = None
            if mc_trials:
                manifest.add_seed(f"tree z={z} db={db}", base_seed)
                alive, _ = blocktree.sample_states_batch(params, base_seed, mc_trials)
            for c in checks:
                all_ok &= c.ok
                row = [z, db, _set_descriptor(c.t_bar), float(c.exact), float(c.bound),
                       float(c.bound - c.exact), c.ok, "", ""]
                rows.append(row)
                if alive is not None:
                    hit = np.ones(mc_trials, dtype=bool)
                    for v in c.t_bar:
                        hit &= ~alive[v]
                    mc_rows.append((row, int(hit.sum()), float(c.exact)))
    # Exact binomial test per set, Bonferroni-corrected over the run's checks.
    alpha = MC_FAMILY_ALPHA / max(1, len(mc_rows))
    for row, hits, exact in mc_rows:
        mc_ok = blocktree.binomial_two_sided_p(hits, mc_trials, exact) >= alpha
        all_ok &= mc_ok
        row[-2:] = [hits / mc_trials, mc_ok]
    write_csv(
        manifest.output("tree_bounds.csv"),
        ["z", "delta_bar", "set", "exact_prob", "bound", "margin", "ok", "mc_freq", "mc_consistent"],
        rows,
    )
    summary = {"total_sets": len(rows), "all_ok": bool(all_ok)}
    manifest.output("tree_bounds_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    manifest.finish()
    if not all_ok:
        return 1
    print(f"tree-bounds: {len(rows)} antichains verified")
    return 0


def _set_descriptor(t_bar) -> str:
    return ";".join("".join(str(b) for b in v) if v else "root" for v in t_bar)


def cmd_e2e(config: dict, out: pathlib.Path, seed: Optional[int], workers: int) -> int:
    family = _family(config)
    with _config_values():
        r = _as_int(config["r"])
        h = _as_int(config["h"])
        deltas, base_seed = _noise_params(config, seed)
        knobs = _knobs(config)
        wait_rounds = _count("wait_rounds", _as_int(config.get("wait_rounds", 1)))
        mode = config.get("mode", "frames")
        if mode not in ("frames", "exhaustive"):
            raise UsageError(f"mode must be 'frames' or 'exhaustive', got {mode!r}")
        input_ls = _probability("input_ls_delta", _as_float(config.get("input_ls_delta", 0.0)))
        if mode == "frames":
            trials = _trials(config)
    _check_levels(family, r, 1)
    if h < 1:
        raise UsageError(f"h must be positive, got {h}")
    _check_decodable(family, range(1, r + 1))
    if mode == "exhaustive":
        # Exhaustive mode runs at delta = 0; refuse noise it would ignore.
        for key, value in (
            ("noise.delta", max(deltas)),
            ("resource_oracle.ls_delta", knobs.resource_ls_delta or 0),
            ("resource_oracle.fail_prob", knobs.resource_fail_prob),
            ("input_ls_delta", input_ls),
        ):
            if value > 0:
                raise UsageError(f"exhaustive mode is noiseless: {key} must be 0, got {value}")
        u_patterns = _logical_patterns(config, family.level(r).m)
    manifest = Manifest("e2e", config, out)
    sched = scheduler.build_schedule(family, r, 1, h, knobs=knobs, wait_rounds=wait_rounds)
    manifest.output("schedule.json").write_text(sched.to_json() + "\n")

    if mode == "exhaustive":
        return _e2e_exhaustive(u_patterns, sched, base_seed, manifest)

    rows = []
    singles = []
    pairs_mean = []
    herald_rates = []
    any_error_rates = []
    for delta in deltas:
        params = NoiseParams(delta=delta, seed=base_seed)
        manifest.add_seed(f"e2e delta={delta}", base_seed)
        stats = e2e.run_e2e_frames(sched, params, trials, input_ls_delta=input_ls)
        for q, m in enumerate(stats.logical_error_marginals):
            rows.append([delta, trials, q, float(m)])
        singles.append(stats.mean_marginal())
        pairs_mean.append(float(np.mean(stats.pair_errors / trials)) if stats.pair_errors.size else 0.0)
        herald_rates.append(stats.herald_rate)
        any_error_rates.append(stats.any_error_rate)
    write_csv(manifest.output("e2e_marginals.csv"), ["delta", "trials", "output_qubit", "error_rate"], rows)
    fit = e2e.fit_ls_constants(deltas, singles, pairs_mean)
    summary = {
        "deltas": deltas,
        "mean_singleton_rates": singles,
        "mean_pair_rates": pairs_mean,
        "herald_rates": herald_rates,
        "any_error_rates": any_error_rates,
        "fitted_kappa1": None if fit is None else fit[0],
        "fitted_kappa2": None if fit is None else fit[1],
        "pauli_twirl": True,
        "note": "fitted constants are measured analogues, not asserted values",
    }
    manifest.output("e2e_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if len(deltas) > 1:
        write_loglog_svg(
            manifest.output("e2e.svg"), deltas, [max(s, 1e-12) for s in singles],
            title=f"Xi^[{h}]_{r} output error marginal",
            xlabel="delta", ylabel="mean marginal",
        )
    manifest.finish()
    print(f"e2e: {len(deltas)} deltas x {trials} trials on h={h} blocks")
    return 0


def _logical_patterns(config: dict, m: int) -> list:
    """The exhaustive mode's logical inputs, each m bits (default all 0, all 1)."""
    u_patterns = config.get("logical_patterns")
    if u_patterns is None:
        return [[0] * m, [1] * m]
    if not isinstance(u_patterns, list) or not u_patterns:
        raise UsageError(f"logical_patterns must be a non-empty list, got {u_patterns!r}")
    for u in u_patterns:
        bits_ok = isinstance(u, list) and all(type(b) is int and b in (0, 1) for b in u)
        if not bits_ok or len(u) != m:
            raise UsageError(f"logical pattern {u!r} needs m={m} entries, each 0 or 1")
    return u_patterns


def _e2e_exhaustive(u_patterns, sched, base_seed, manifest) -> int:
    """delta = 0 with exhaustive single-qubit injections per block."""
    from .tableau import Tableau

    code_r = sched.family.level(sched.r)
    cases = [None] + [(q, k) for q in range(code_r.n) for k in ("X", "Z", "Y")]
    # |u>_L = X_L^u |0...0>_L flips the signs of Z_L alone, so every pattern
    # shares one chain walk: trial (pattern p, case c) is p * len(cases) + c.
    bits = np.repeat(np.array(u_patterns, dtype=np.uint8), len(cases), axis=0)
    keys = [("".join(map(str, u)), "none" if case is None else f"{case[1]}{case[0]}")
            for u in u_patterns for case in cases]
    logical = Tableau.zero_state(list(range(code_r.m)))
    logical.apply_pauli_on(logical.labels, bits, np.zeros_like(bits))
    rows = []
    failures = 0
    for block in range(sched.h):
        manifest.add_seed(f"exhaustive block={block}", base_seed)
        res = e2e.run_block_chain_tableau(sched, block, logical, injections=cases * len(u_patterns), seed=base_seed)
        wrong = (res.output_bits != bits).sum(axis=1)
        for key, wrong_bits, match, herald in zip(keys, wrong, res.state_matches, res.heralds):
            ok = match and wrong_bits == 0 and not herald
            failures += 0 if ok else 1
            rows.append([block, *key, int(wrong_bits), match, herald])
    write_csv(
        manifest.output("e2e_exhaustive.csv"),
        ["block", "logical", "injection", "wrong_output_bits", "state_match", "herald"],
        rows,
    )
    manifest.finish()
    if failures:
        print(f"e2e exhaustive: {failures} failing cases", file=sys.stderr)
        return 1
    print(f"e2e exhaustive: {len(rows)} cases, zero logical errors")
    return 0


COMMANDS = {
    "validate-codes": cmd_validate_codes,
    "interface-sweep": cmd_interface_sweep,
    "schedule-audit": cmd_schedule_audit,
    "tree-bounds": cmd_tree_bounds,
    "e2e": cmd_e2e,
}

# Subcommands that split their work over `--workers` processes.
PARALLEL_COMMANDS = {"interface-sweep"}
# Subcommands that read a seed from their config, which --seed overrides.
SEEDED_COMMANDS = {"interface-sweep", "tree-bounds", "e2e"}


# The (param, value) pairs `main` passes to glibc's `mallopt`: M_TRIM_THRESHOLD
# (-1 in malloc.h) and M_MMAP_THRESHOLD (-3), far above a chunk's frames and
# temporaries (a few MB at 10,000 trials), so the heap keeps them between
# chunks instead of trimming them and faulting them in again.
HEAP_THRESHOLDS = ((-1, 256 << 20), (-3, 64 << 20))


def _keep_heap(libc) -> None:
    """Set `HEAP_THRESHOLDS` through `libc.mallopt`; a C library without
    `mallopt` is left as it is."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in HEAP_THRESHOLDS:
        mallopt(param, value)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command: the process entry of the `decint` script and of
    `python -m decint.cli`.

    It first freezes the heap that imports built (numpy's and decint's
    modules, some 23k objects) into the permanent generation, so neither the
    collections during the run nor the one at interpreter exit walks it
    again; objects the run creates are collected as before, and a forked
    `--workers` pool inherits the frozen heap. A process that embeds `main`
    and keeps running may call `gc.unfreeze()` after it returns.

    It then raises the C allocator's trim and mmap thresholds, so the arrays
    each chunk frees stay in the heap for the next chunk rather than going
    back to the system and being faulted in again. Only this entry does so:
    library code leaves the allocator of a program that embeds decint alone.
    """
    gc.freeze()
    _keep_heap(ctypes.CDLL(None))
    parser = argparse.ArgumentParser(prog="decint", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        if args.workers > 1 and args.command not in PARALLEL_COMMANDS:
            raise UsageError(f"{args.command} runs in one process; --workers must be 1")
        if args.seed is not None and args.command not in SEEDED_COMMANDS:
            raise UsageError(f"{args.command} reads no seed; drop --seed")
        config_path = pathlib.Path(args.config)
        if not config_path.exists():
            raise UsageError(f"config not found: {config_path}")
        try:
            config = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {config_path} is not JSON: {exc}") from None
        if not isinstance(config, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](_Config(config, f"for {args.command}"), out, args.seed, args.workers)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an internal invariant failed: exit 1 with its message
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
