"""Smoke test: every demo runs to the end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "00_circuits_two_backends.py",
        "01_codes_and_families.py",
        "02_noise_model.py",
        "03_partial_interface.py",
        "04_schedule_overhead.py",
        "05_block_tree_bounds.py",
        "06_end_to_end.py",
    ],
)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
