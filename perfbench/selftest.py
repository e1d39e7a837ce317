"""Self-tests of the benchmark, run through the same driver at tiny sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the tracer's self times reconcile with the traced wall time, that the
traced counts match the predictions a tiny run can show, that a wrong
reference or case count makes the output checks fail, and that the
benchmark refuses to run without the program's sources. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

SEED = 7


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def printed_result(record: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(record)
    return json.loads(buf.getvalue().splitlines()[-1])


def check_metrics_named(bench: dict, reference: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for spec in run.TINY_WORKLOADS.values():
            record = run.run_workload(spec, SEED, 1, trace, reference)
            result = printed_result(record)
            expect(
                result["correct"] and result["failed"] == 0,
                f"{spec.name} trace={int(trace)}: tiny run correct ({result['attempted']} invocations)",
            )
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{spec.name} trace={int(trace)}: every {section} metric printed with its unit")
            if trace:
                check_trace(spec, record)


def check_trace(spec: run.Workload, record: dict) -> None:
    traced = [run.Invocation(**{**inv, "problems": tuple(inv["problems"])})
              for inv in record["invocations"] if inv["traced"]]
    for inv in traced:
        expect(not run.trace_problems(inv), f"{spec.name}: self times reconcile with traced wall")
    m = {name: v["value"] for name, v in record["metrics"].items()}
    frames = spec.name != "exhaustive-steane"
    expect((m["circuit.frame_run_s"] > 0) == frames, f"{spec.name}: frame_run_s > 0 only on frame workloads")
    expect((m["circuit.run_noisy_s"] > 0) != frames, f"{spec.name}: run_noisy_s > 0 only on the exact path")
    if spec.name == "tau-deep":
        expect(m["interface.build_gamma_calls"] == 1, "tau-deep: one build_gamma call")


def check_wrong_reference(reference: dict) -> None:
    wrong = json.loads(json.dumps(reference))
    for per_delta in (wrong["tau-deep"], wrong["e2e-wide"]):
        for ref in per_delta.values():
            for key, interval in ref.items():
                if key in ("failures", "heralds", "mean_marginal"):
                    ref[key] = [interval[0] / 2, interval[0] / 2 + 1e-6]
    for name in ("tau-deep", "e2e-wide"):
        record = run.run_workload(run.TINY_WORKLOADS[name], SEED, 1, False, wrong)
        expect(
            not record["correct"] and record["failed"] == record["attempted"],
            f"{name}: a wrong reference interval fails every invocation",
        )
    spec = run.TINY_WORKLOADS["exhaustive-steane"]
    record = run.run_workload(dataclasses.replace(spec, work=spec.work + 1), SEED, 1, False, reference)
    expect(
        not record["correct"] and record["failed"] == record["attempted"],
        "exhaustive-steane: a wrong expected case count fails every invocation",
    )


def check_refuses_without_sources() -> None:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tau-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        "without src/ the benchmark exits non-zero and prints no result",
    )


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
        and {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS),
        "BENCHMARK.json names the driver's metrics and only workloads it runs",
    )
    reference = json.loads(run.REFERENCE_PATH.read_text())
    check_metrics_named(bench, reference)
    check_wrong_reference(reference)
    check_refuses_without_sources()
    shutil.rmtree(run.ROOT / ".perfbench_work", ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
