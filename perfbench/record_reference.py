"""Record the reference intervals that the benchmark's output checks use.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs tau-deep and e2e-wide at their benchmark sizes on REFERENCE_SEEDS,
pools the counts over the seeds and writes one Wilson interval per checked
quantity to perfbench/reference.json. Re-record only when a change is meant
to alter the statistics, never to make a failing check pass.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# Seeds kept apart from the seeds that benchmark runs use.
REFERENCE_SEEDS = range(9001, 9011)


def cli_run(spec: run.Workload, seed: int, tmp: Path) -> Path:
    config = tmp / f"{spec.name}.json"
    config.write_text(json.dumps(spec.config))
    out = tmp / f"{spec.name}-{seed}"
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "decint.cli", spec.command, "--config", str(config),
         "--out", str(out), "--seed", str(seed), "--workers", "1"],
        cwd=run.ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return out


def main() -> int:
    tau = run.WORKLOADS["tau-deep"]
    e2e = run.WORKLOADS["e2e-wide"]
    pooled_tau: dict[str, dict] = {}
    pooled_e2e: dict[str, dict] = {}
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp_name:
        tmp = Path(tmp_name)
        for seed in REFERENCE_SEEDS:
            for delta, c in run.tau_counts(cli_run(tau, seed, tmp)).items():
                p = pooled_tau.setdefault(delta, {"trials": 0, "failures": 0, "heralds": 0})
                for key in p:
                    p[key] += c[key]
            for delta, c in run.e2e_counts(cli_run(e2e, seed, tmp)).items():
                p = pooled_e2e.setdefault(delta, {"trials": 0, "per_seed": []})
                p["trials"] += c["trials"]
                p["per_seed"].append(c["mean_marginal"])
    reference = {
        "wilson_z": run.WILSON_Z,
        "seeds": list(REFERENCE_SEEDS),
        "fingerprint": run.fingerprint(),
        tau.name: {
            delta: {
                "trials": p["trials"],
                "failures": run.wilson(p["failures"], p["trials"]),
                "heralds": run.wilson(p["heralds"], p["trials"]),
            }
            for delta, p in pooled_tau.items()
        },
        e2e.name: {
            delta: {
                "trials": p["trials"],
                "mean_marginal": run.wilson(
                    statistics.fmean(p["per_seed"]) * run.e2e_sample_size(e2e, p["trials"]),
                    run.e2e_sample_size(e2e, p["trials"]),
                ),
                "per_seed_mean_marginal": p["per_seed"],
            }
            for delta, p in pooled_e2e.items()
        },
    }
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(json.dumps({k: reference[k] for k in (tau.name, e2e.name)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
