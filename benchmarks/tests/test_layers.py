"""Per-layer metric derivations and their agreement with BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import layers
from tracer import PASS

ROOT = Path(__file__).resolve().parent.parent.parent


def test_benchmark_json_lists_what_the_run_reports():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


def test_forwards_per_step_counts_training_forwards_between_steps():
    ids = {layers.FORWARD: 0, layers.ADAM: 1, layers.TRAIN: 2, layers.ACCURACY: 3}
    # accuracy -> forward (not training); train -> 2 forwards, step,
    # eval forward + 2 forwards, step, 2 forwards, step
    hooks = [3, 0, 2, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
    parent = [-1, 0, -1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]
    a = {"hook": np.array(hooks), "parent": np.array(parent), "phase": np.full(len(hooks), PASS)}
    assert layers.forwards_per_step(a, ids) == 2.0
    # one step per epoch: 2 forwards, step, eval forward + 2 forwards, step
    hooks, parent = [2, 0, 0, 1, 0, 0, 0, 1], [-1, 0, 0, 0, 0, 0, 0, 0]
    a = {"hook": np.array(hooks), "parent": np.array(parent), "phase": np.full(len(hooks), PASS)}
    assert layers.forwards_per_step(a, ids) == 2.0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "steal_ideal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import qsteal" in proc.stderr
