"""Smoke test: the noisy-simulation demo runs end to end and prints its figures.
The slower demos are not run; their imports from qsteal are checked by name."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_noisy_simulation_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_noisy_simulation.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "after damping gamma=0.3:  <Z> = +0.3000" in out
    assert "after bit flip p=0.25:    <Z> = +0.0000" in out
    assert "trace 1, Hermitian, PSD: ok" in out
    assert "shots=100000: estimate +0.9406" in out


@pytest.mark.parametrize("name", ["02_train_victim.py", "03_model_stealing.py", "04_defenses.py"])
def test_every_name_a_demo_imports_from_qsteal_exists(name):
    tree = ast.parse((DEMOS / name).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "qsteal" for alias in node.names]
    assert imported
    assert [f"{module}.{n}" for module, n in imported if not hasattr(importlib.import_module(module), n)] == []
