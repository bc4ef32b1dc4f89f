"""Smoke test: the noisy-simulation demo runs end to end and prints its figures."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_noisy_simulation_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_noisy_simulation.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "after damping gamma=0.3:  <Z> = +0.3000" in out
    assert "after bit flip p=0.25:    <Z> = +0.0000" in out
    assert "trace 1, Hermitian, PSD: ok" in out
    assert "shots=100000: estimate +0.9406" in out
