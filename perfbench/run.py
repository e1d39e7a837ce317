"""Outside-in benchmark for decint's Monte Carlo and exact-oracle paths.

Usage (from the repository root):

    python3 perfbench/run.py --workload tau-deep --seed 1 --seconds 30 --trace 0

Each run is a closed loop with one client: it starts one fresh
``decint.cli`` process at a time (``--workers 1``), waits for it, checks its
outputs, and starts the next until ``--seconds`` would be exceeded. The
first invocation of a run is a warm-up: checked, but not timed. Every
invocation of a run gets the same seed, so all their CSVs must be
byte-identical. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced invocations and reports
the per-layer metrics of the traced ones (medians over them).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run, with the machine fingerprint, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from hostspeed import REFERENCE_S, HostSpeed
from tracer import ROOT_SPAN, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# A run stops starting invocations once one more would pass this deadline,
# and kills an invocation that runs into it, so a run always ends in time.
RUN_DEADLINE_S = 165.0

# Wilson z for the reference-overlap checks (two-sided 99.9%). Runs test
# many seeds; at 95% a correct program would fail one check in seventy.
WILSON_Z = 3.29

# Level 2 of the Steane family is the [[7,1,3]] code: each block and logical
# pattern runs one clean case plus X, Z and Y on each of the 7 qubits.
STEANE_L2_CASES_PER_PATTERN = 1 + 3 * 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "circuit.frame_run_calls": "count",
    "circuit.frame_run_s": "s",
    "circuit.location_trials": "count",
    "circuit.ns_per_location_trial": "ns",
    "noise.rng_streams": "count",
    "noise.rng_stream_s": "s",
    "interface.build_gamma_calls": "count",
    "interface.build_gamma_unique": "count",
    "interface.build_gamma_s": "s",
    "interface.plan_reuse": "ratio",
    "interface.gamma_frames_calls": "count",
    "interface.gamma_frames_s": "s",
    "interface.leader_lookup_calls": "count",
    "interface.leader_lookup_rows": "count",
    "interface.leader_lookup_s": "s",
    "interface.classify_calls": "count",
    "interface.classify_s": "s",
    "interface.decode_syndrome_calls": "count",
    "interface.decode_syndrome_s": "s",
    "interface.bell_process_s": "s",
    "circuit.run_noisy_calls": "count",
    "circuit.run_noisy_s": "s",
    "tableau.measure_z_calls": "count",
    "tableau.measure_z_s": "s",
    "e2e.block_chains": "count",
    "e2e.block_chain_s": "s",
    "scheduler.plan_s": "s",
    "css.min_distance_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
    "trace.self_time_coverage": "ratio",
}


# -- output checks ---------------------------------------------------------------


def wilson(successes: float, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def tau_counts(out: Path) -> dict[str, dict]:
    """Per-delta trials, failures and heralds from an interface-sweep run."""
    return {
        row["delta"]: {
            "trials": int(row["trials"]),
            "failures": int(row["failures"]),
            "heralds": int(row["heralds"]),
        }
        for row in read_csv(out / "sweep.csv")
    }


def e2e_counts(out: Path) -> dict[str, dict]:
    """Per-delta trials, output count and mean marginal from an e2e frames run."""
    per_delta: dict[str, dict] = {}
    for row in read_csv(out / "e2e_marginals.csv"):
        d = per_delta.setdefault(row["delta"], {"trials": int(row["trials"]), "rates": []})
        d["rates"].append(float(row["error_rate"]))
    return {
        delta: {"trials": d["trials"], "outputs": len(d["rates"]), "mean_marginal": statistics.fmean(d["rates"])}
        for delta, d in per_delta.items()
    }


def overlaps(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def check_tau(out: Path, spec: "Workload", reference: dict) -> list[str]:
    problems = []
    counts = tau_counts(out)
    deltas = spec.config["noise"]["delta"]
    if sorted(map(float, counts)) != sorted(deltas):
        return [f"sweep.csv deltas {sorted(counts)} != {deltas}"]
    for delta, c in counts.items():
        if c["trials"] != spec.config["trials"]:
            problems.append(f"delta={delta}: {c['trials']} trials, expected {spec.config['trials']}")
        ref = reference.get(delta)
        if ref is None:
            problems.append(f"delta={delta}: no reference interval")
            continue
        for key in ("failures", "heralds"):
            got = wilson(c[key], c["trials"])
            if not overlaps(got, tuple(ref[key])):
                problems.append(f"delta={delta}: {key} interval {got} misses reference {ref[key]}")
    return problems


def e2e_sample_size(spec: "Workload", trials: int) -> int:
    """Sample size for the mean marginal's Wilson interval.

    Blocks run independent chains, but the outputs of one block share its
    chain and are correlated, so a block-trial, not an output, is one sample.
    """
    return trials * spec.config["h"]


def check_e2e(out: Path, spec: "Workload", reference: dict) -> list[str]:
    problems = []
    counts = e2e_counts(out)
    deltas = spec.config["noise"]["delta"]
    if sorted(map(float, counts)) != sorted(deltas):
        return [f"e2e_marginals.csv deltas {sorted(counts)} != {deltas}"]
    for delta, c in counts.items():
        if c["trials"] != spec.config["trials"] or c["outputs"] != spec.outputs:
            problems.append(
                f"delta={delta}: {c['trials']} trials x {c['outputs']} outputs, "
                f"expected {spec.config['trials']} x {spec.outputs}"
            )
        ref = reference.get(delta)
        if ref is None:
            problems.append(f"delta={delta}: no reference interval")
            continue
        n = e2e_sample_size(spec, c["trials"])
        got = wilson(c["mean_marginal"] * n, n)
        if not overlaps(got, tuple(ref["mean_marginal"])):
            problems.append(
                f"delta={delta}: mean marginal interval {got} misses reference {ref['mean_marginal']}"
            )
    return problems


def check_exhaustive(out: Path, spec: "Workload", reference: dict) -> list[str]:
    rows = read_csv(out / "e2e_exhaustive.csv")
    problems = []
    if len(rows) != spec.work:
        problems.append(f"{len(rows)} cases, expected {spec.work}")
    bad = [
        r for r in rows
        if (r["state_match"], r["wrong_output_bits"], r["herald"]) != ("1", "0", "0")
    ]
    if bad:
        problems.append(f"{len(bad)} cases with a wrong state, output bit or herald, first {bad[0]}")
    return problems


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    work: int  # Monte Carlo trials x deltas, or exhaustive cases, per invocation
    check: Callable[[Path, "Workload", dict], list[str]]
    outputs: int = 0  # output qubits per trial (e2e frames only)


def _tau_deep(trials: int) -> Workload:
    config = {
        "family": "toy", "r": 4, "r_prime": 3, "noise": {"delta": [0.01]},
        "mu": 0.25, "trials": trials,
    }
    return Workload(
        "tau-deep", "interface-sweep", config, trials * len(config["noise"]["delta"]), check_tau
    )


def _e2e_wide(trials: int) -> Workload:
    config = {
        "family": "toy", "r": 4, "h": 4, "mode": "frames", "noise": {"delta": [0.001]},
        "trials": trials,
    }
    # Toy level 4 has m = 8 logical qubits, so h = 4 blocks give 32 outputs.
    return Workload(
        "e2e-wide", "e2e", config, trials * len(config["noise"]["delta"]), check_e2e, outputs=32
    )


def _exhaustive_steane(h: int) -> Workload:
    config = {"family": "steane", "r": 2, "h": h, "mode": "exhaustive", "noise": {"delta": 0.0}}
    return Workload(
        "exhaustive-steane", "e2e", config, h * 2 * STEANE_L2_CASES_PER_PATTERN, check_exhaustive
    )


# Sizes give each invocation one to a few seconds of executor time on a
# 2-core box, several times its set-up, so a 60 s run holds 15 to 30
# invocations for a steady median.
WORKLOADS = {
    w.name: w for w in (_tau_deep(50_000), _e2e_wide(3_000), _exhaustive_steane(2))
}

# Tiny sizes of the same workloads, used by the self-tests.
TINY_WORKLOADS = {
    w.name: w for w in (_tau_deep(2_000), _e2e_wide(100), _exhaustive_steane(1))
}


# -- one invocation ----------------------------------------------------------------


@dataclass
class Invocation:
    traced: bool
    warmup: bool  # checked like the others, but its timings are not reported
    exit_code: Optional[int]  # None when killed at the deadline
    wall_s: float
    setup_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    csv_digest: Optional[str] = None
    problems: tuple = ()
    trace: Optional[dict] = None
    # Calibration kernel time just before and just after the invocation.
    kernel_s: tuple = ()

    @property
    def speed_scale(self) -> float:
        """Factor that scales this invocation's timings to the reference host."""
        return REFERENCE_S / statistics.fmean(self.kernel_s)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems



def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def invoke(
    spec: Workload, seed: int, traced: bool, warmup: bool, work_dir: Path, index: int,
    config_path: Path, reference: dict, deadline: float,
) -> Invocation:
    out = work_dir / f"inv{index}"
    sidecar = work_dir / f"inv{index}.probe"
    cmd = [
        sys.executable, str(BENCH_DIR / "probe.py"), str(sidecar), "1" if traced else "0",
        spec.command, "--config", str(config_path), "--out", str(out),
        "--seed", str(seed), "--workers", "1",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(work_dir / f"inv{index}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        # A blocking wait returns at the child's exit; Popen.wait(timeout)
        # polls every 50 ms, which would quantize wall_s. A timer enforces
        # the deadline instead.
        timed_out = threading.Event()

        def kill_at_deadline():
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(0.1, deadline - t0), kill_at_deadline)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
        killer.join()
    if timed_out.is_set():
        code = None
    inv = Invocation(traced=traced, warmup=warmup, exit_code=code, wall_s=wall)
    if code != 0:
        inv.problems = (f"exit code {code}",)
        return inv
    record = json.loads(sidecar.with_suffix(".json").read_text())
    if record["first_exec"] is None:
        inv.problems = ("the executor was never called",)
        return inv
    inv.setup_s = record["first_exec"] - t0
    inv.peak_rss_mb = record["maxrss_kb"] / 1024.0
    inv.csv_digest = csv_digest(out)
    try:
        inv.problems = tuple(spec.check(out, spec, reference))
    except (OSError, KeyError, ValueError) as exc:
        inv.problems = (f"unreadable outputs: {exc!r}",)
    if traced:
        inv.trace = summarize(sidecar)
    shutil.rmtree(out)
    return inv


# -- metrics -----------------------------------------------------------------------


def e2e_metrics(spec: Workload, invs: list[Invocation]) -> tuple[dict, dict]:
    """(values, per-invocation samples) of the end-to-end metrics.

    Every metric is the median over invocations; throughput is each
    invocation's work over its executor time (wall minus set-up). Timings
    are scaled to the reference host speed (see hostspeed.py).
    """
    samples = {
        "wall_s": [i.wall_s * i.speed_scale for i in invs],
        "setup_s": [i.setup_s * i.speed_scale for i in invs],
        "work_per_s": [spec.work / ((i.wall_s - i.setup_s) * i.speed_scale) for i in invs],
        "peak_rss_mb": [i.peak_rss_mb for i in invs],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples


def layer_metrics(inv: Invocation) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (all but trace.overhead_s)."""
    t = inv.trace
    layers = t["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    loc_trials = t["counters"].get("circuit.location_trials", 0)
    frame_total = layers.get("circuit.frame_run", {}).get("total_s", 0.0)
    gamma_calls = calls("interface.build_gamma")
    return {
        "circuit.frame_run_calls": calls("circuit.frame_run"),
        "circuit.frame_run_s": self_s("circuit.frame_run"),
        "circuit.location_trials": loc_trials,
        "circuit.ns_per_location_trial": frame_total * 1e9 / loc_trials if loc_trials else 0.0,
        "noise.rng_streams": calls("noise.rng_stream"),
        "noise.rng_stream_s": self_s("noise.rng_stream"),
        "interface.build_gamma_calls": gamma_calls,
        "interface.build_gamma_unique": t["unique_plans"],
        "interface.build_gamma_s": self_s("interface.build_gamma"),
        "interface.plan_reuse": 1.0 - t["unique_plans"] / gamma_calls if gamma_calls else 0.0,
        "interface.gamma_frames_calls": calls("interface.gamma_frames"),
        "interface.gamma_frames_s": self_s("interface.gamma_frames"),
        "interface.leader_lookup_calls": calls("interface.leader_lookup"),
        "interface.leader_lookup_rows": t["counters"].get("interface.leader_lookup_rows", 0),
        "interface.leader_lookup_s": self_s("interface.leader_lookup"),
        "interface.classify_calls": calls("interface.classify"),
        "interface.classify_s": self_s("interface.classify"),
        "interface.decode_syndrome_calls": calls("interface.decode_syndrome"),
        "interface.decode_syndrome_s": self_s("interface.decode_syndrome"),
        "interface.bell_process_s": self_s("interface.bell_process"),
        "circuit.run_noisy_calls": calls("circuit.run_noisy"),
        "circuit.run_noisy_s": self_s("circuit.run_noisy"),
        "tableau.measure_z_calls": calls("tableau.measure_z"),
        "tableau.measure_z_s": self_s("tableau.measure_z"),
        "e2e.block_chains": calls("e2e.block_chain"),
        "e2e.block_chain_s": self_s("e2e.block_chain"),
        "scheduler.plan_s": self_s("scheduler.plan"),
        "css.min_distance_s": self_s("css.min_distance"),
        "cli.write_s": self_s("cli.write"),
        "trace.self_time_coverage": t["self_sum_s"] / inv.wall_s,
    }


def trace_problems(inv: Invocation) -> list[str]:
    """The tracer's self times must reconcile with the traced wall time."""
    t = inv.trace
    problems = []
    if t["root_spans"] != 1 or ROOT_SPAN not in t["layers"]:
        problems.append(f"{t['root_spans']} root spans, expected one {ROOT_SPAN} span")
    if not math.isclose(t["self_sum_s"], t["root_s"], rel_tol=1e-6, abs_tol=1e-6):
        problems.append(f"self times sum to {t['self_sum_s']} s, root span is {t['root_s']} s")
    if not 0.0 < t["root_s"] <= inv.wall_s:
        problems.append(f"root span {t['root_s']} s outside (0, traced wall {inv.wall_s} s]")
    return problems


# -- one run -----------------------------------------------------------------------


def fingerprint() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    rev = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        status = subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
    }


def run_workload(
    spec: Workload, seed: int, seconds: float, trace: bool, reference: dict
) -> dict:
    """Closed-loop run of one workload; returns the full record of the run."""
    work_dir = ROOT / ".perfbench_work" / spec.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(spec.config))
    ref = reference.get(spec.name, {})
    # The run and the invocations it starts share one CPU, so the
    # calibration kernel measures the CPU the invocations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = HostSpeed()
    # The first invocation warms the page cache and writes the bytecode
    # cache; it is checked but not timed.
    min_invocations = 1 + (4 if trace else 2)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    invs: list[Invocation] = []
    kernel_before = host.kernel_s()
    while True:
        warmup = not invs
        traced = trace and len(invs) % 2 == 0 and not warmup
        inv = invoke(spec, seed, traced, warmup, work_dir, len(invs), config_path, ref, deadline)
        kernel_after = host.kernel_s()
        inv.kernel_s = (kernel_before, kernel_after)
        kernel_before = kernel_after
        invs.append(inv)
        now = time.monotonic()
        expected = statistics.median(i.wall_s for i in invs)
        if now + expected > deadline:
            break
        if len(invs) >= min_invocations and now - start + expected > seconds:
            break

    # Same seed, same program: every invocation must write identical CSVs.
    digests = [i.csv_digest for i in invs if i.csv_digest is not None]
    for inv in invs:
        if inv.csv_digest is not None and inv.csv_digest != digests[0]:
            inv.problems += ("CSVs differ from the first invocation of this seed",)
        if inv.trace is not None:
            inv.problems += tuple(trace_problems(inv))
    ok = [i for i in invs if i.ok]
    failed = len(invs) - len(ok)
    timed = [i for i in ok if not i.warmup]
    values: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    units = PER_LAYER if trace else END_TO_END
    if trace:
        traced_ok = [i for i in timed if i.traced]
        plain_ok = [i for i in timed if not i.traced]
        if traced_ok and plain_ok:
            per = [layer_metrics(i) for i in traced_ok]
            samples = {name: [p[name] for p in per] for name in per[0]}
            values = {name: statistics.median(v) for name, v in samples.items()}
            values["trace.overhead_s"] = statistics.median(
                i.wall_s * i.speed_scale for i in traced_ok
            ) - statistics.median(i.wall_s * i.speed_scale for i in plain_ok)
            samples["trace.overhead_s"] = [values["trace.overhead_s"]]
    elif timed:
        values, samples = e2e_metrics(spec, timed)
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units if name in values
    }
    host_record = {"reference_kernel_s": REFERENCE_S, "cpu": sorted(os.sched_getaffinity(0))}
    if timed:
        host_record.update(
            kernel_s=statistics.median(k for i in timed for k in i.kernel_s),
            raw_wall_s=statistics.median(i.wall_s for i in timed),
            raw_setup_s=statistics.median(i.setup_s for i in timed),
        )
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client, 1 invocation at a time, --workers 1",
        "config": spec.config,
        "work_per_invocation": spec.work,
        "fingerprint": fingerprint(),
        "host_speed": host_record,
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": len(invs),
        "failed": failed,
        "run_error_rate": failed / len(invs),
        "samples": samples,
        "metrics": metrics,
        "invocations": [dataclasses.asdict(i) for i in invs],
    }


def report(record: dict) -> None:
    """Print a human summary, then the result line as the last line."""
    fp = record["fingerprint"]
    print(
        f"fingerprint: nproc={fp['nproc']} python={fp['python']} numpy={fp['numpy']} "
        f"git={fp['git_rev']} dirty={fp['git_dirty']} src_sha256={fp['src_sha256'][:16]}"
    )
    print(
        f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
        f"{record['attempted']} invocations, {record['failed']} failed, "
        f"run_error_rate={record['run_error_rate']:.3f} ({record['loop']})"
    )
    host = record["host_speed"]
    if "kernel_s" in host:
        print(
            f"host speed: kernel {host['kernel_s'] * 1e3:.3f} ms on cpu {host['cpu']} "
            f"(reference {host['reference_kernel_s'] * 1e3:.3f} ms); unscaled medians "
            f"wall_s {host['raw_wall_s']:.6g}, setup_s {host['raw_setup_s']:.6g}"
        )
    for name, m in record["metrics"].items():
        vals = record["samples"][name]
        print(
            f"  {name:34s} {m['value']:.6g} {m['unit']}"
            f"  (n={len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})"
        )
    for k, inv in enumerate(record["invocations"]):
        for p in inv["problems"]:
            print(f"  invocation {k}: {p}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "decint" / "cli.py").is_file():
        print(f"error: no decint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    reference = json.loads(REFERENCE_PATH.read_text())
    record = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference
    )
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(ROOT / ".perfbench_work" / args.workload, ignore_errors=True)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
