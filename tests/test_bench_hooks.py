"""The benchmark's probe still finds decint's executor entry points.

`perfbench/probe.py` ends set-up at the first call to
`interface.gamma_frames`, `e2e.run_block_chain_frames` or
`e2e.run_block_chain_tableau`, patched as module attributes, and its tracer
patches the frame runner, the tableau executor, the decoder and the Bell
readout. These tests run the probe traced, as the benchmark does, on a
workload of each entry point.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


@pytest.mark.parametrize(
    "command, config, engine, other",
    [
        (
            "interface-sweep",
            {"family": "toy", "r": 4, "r_prime": 3, "noise": {"delta": [0.01]},
             "mu": 0.25, "trials": 200},
            "circuit.frame_run",
            "circuit.run_noisy",
        ),
        (
            "e2e",
            {"family": "steane", "r": 2, "h": 2, "mode": "exhaustive", "noise": {"delta": 0.0}},
            "circuit.run_noisy",
            "circuit.frame_run",
        ),
        (
            "e2e",
            {"family": "toy", "r": 3, "h": 2, "trials": 300, "noise": {"delta": [0.005]}},
            "circuit.frame_run",
            "circuit.run_noisy",
        ),
    ],
)
def test_traced_probe_sees_one_engine(tmp_path, command, config, engine, other):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    sidecar = tmp_path / "probe"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5", "--workers", "1"]
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(sidecar), "1", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(sidecar.with_suffix(".json").read_text())["first_exec"] is not None
    layers = load_tracer().summarize(sidecar)["layers"]
    assert layers[engine]["calls"] > 0
    assert layers[other]["calls"] == 0
    # The real decodes and Bell readouts run through the traced module attributes.
    assert layers["interface.decode_syndrome"]["calls"] > 0
    assert layers["interface.bell_process"]["calls"] > 0
    if config.get("mode") == "exhaustive":
        # One batched chain walk per block, not one per logical pattern or case.
        assert layers["e2e.block_chain"]["calls"] == config["h"]
