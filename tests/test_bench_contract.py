"""The benchmark's view of qsteal still matches the package.

`benchmarks/layers.py` names the functions its tracer hooks, and each
workload in `benchmarks/workloads.py` names the bindings it must see
calls through.  A renamed or deleted function would otherwise only show
up as "absent" in a traced benchmark run.  Each workload also runs one
set-up, two passes and its check in-process.  The benchmark's files are
only imported.
"""

import importlib
import sys
from functools import reduce
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402


def _lookup(module: str, dotted: str):
    return reduce(getattr, dotted.split("."), importlib.import_module(module))


@pytest.mark.parametrize("hook", layers.HOOKS, ids=lambda hook: hook.key)
def test_hook_resolves_to_a_callable(hook):
    assert callable(_lookup(hook.module, hook.name))


REQUIRED = sorted({site for wl in workloads.WORKLOADS.values() for site in wl.required})


@pytest.mark.parametrize("site", REQUIRED)
def test_required_binding_is_the_hooked_function(site):
    # the same site -> hook match the benchmark's runner makes
    hook = next(h for h in layers.HOOKS if site.endswith("." + h.name))
    module = site[: -len(hook.name) - 1]
    assert _lookup(module, hook.name) is _lookup(hook.module, hook.name)


#: bindings a workload requires, and the training step that must call each
STEP_BINDINGS = [
    ("steal_ideal", "ideal", False, ("qsteal.model.run_circuit", "qsteal.density.apply_unitary_vec")),
    ("train_noisy", "devA", True,
     ("qsteal.model.run_circuit", "qsteal.training.forward_batch", "qsteal.density.apply_superop_batch")),
]


def _counted(monkeypatch, sites) -> dict:
    """Count the calls made through each binding of `sites` from now on."""
    calls = dict.fromkeys(sites, 0)
    for site in sites:
        module, _, name = site.rpartition(".")
        owner = importlib.import_module(module)
        original = getattr(owner, name)

        def counted(*args, _site=site, _original=original, **kwargs):
            calls[_site] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("workload, device, with_eval, sites", STEP_BINDINGS, ids=[s[0] for s in STEP_BINDINGS])
def test_one_training_step_calls_the_required_bindings(monkeypatch, workload, device, with_eval, sites):
    # a change that routes around a required binding would otherwise fail only in a traced run
    import numpy as np

    from qsteal.circuits import PQCTemplate
    from qsteal.devices import default_registry
    from qsteal.model import init_model
    from qsteal.training import TrainConfig, train

    assert set(sites) <= set(workloads.WORKLOADS[workload].required)
    calls = _counted(monkeypatch, sites)
    x = np.random.default_rng(0).uniform(0, 2 * np.pi, (8, 8))
    labels = np.arange(8) % 4
    held_out = (x, labels) if with_eval else (None, None)
    model = init_model(PQCTemplate("PQC19", 4), 4, 0)
    train(model, x, labels, TrainConfig(epochs=1, batch_size=8, spsa_draws=1), default_registry().get(device), 0,
          *held_out)
    assert all(calls[site] > 0 for site in sites), calls


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_correct_and_repeatable(tmp_path, name):
    # a deleted call the benchmark makes outside its hooked functions would
    # otherwise fail only in a benchmark run
    from checks import Tally

    wl = workloads.WORKLOADS[name]
    tally = Tally()
    state = wl.setup(1, tmp_path)
    results = [wl.run_pass(state, tally, workloads.Calls()) for _ in range(2)]
    wl.check(state, results, tally)
    assert tally.correct and tally.failed == 0, tally.errors
    assert results[0].fingerprint == results[1].fingerprint


#: gate-builder bindings whose per-layer counts a served row is read against: it calls neither
SERVE_BINDINGS = ("qsteal.circuits.rotation_batch", "qsteal.density.unitary_superop")


def test_one_served_predict_calls_the_hooked_gate_bindings(monkeypatch):
    # a served row runs its prefix from the compiled maps, so a traced run reads zero gate builds per row;
    # one that built gates again would read as a rise from zero, through the same hooked bindings
    import numpy as np

    from qsteal import defense, model
    from qsteal.circuits import PQCTemplate
    from qsteal.devices import default_registry

    victim = model.init_model(PQCTemplate("PQC19", 4), 4, 0)
    dev_a = default_registry().get("devA")
    x = np.random.default_rng(0).uniform(0, 2 * np.pi, 8)
    model.forward_batch(victim, x[None], dev_a)  # fills the model's compiled prefix and readout first
    for site in SERVE_BINDINGS:
        module, _, name = site.rpartition(".")
        hook = next(h for h in layers.HOOKS if h.name == name)
        assert _lookup(module, name) is _lookup(hook.module, hook.name)
    calls = _counted(monkeypatch, SERVE_BINDINGS)
    defense.no_defense(victim, dev_a).predict(x)
    assert calls == dict.fromkeys(SERVE_BINDINGS, 0)


def test_one_noisy_training_step_calls_no_gate_builder(monkeypatch):
    # every gate of a forward_probes step, after the prefix too, is its held basis weighted by its angle's
    # cosines and sines, so a traced train_noisy run reads zero gate builds per pass through the hooked bindings
    import numpy as np

    from qsteal.circuits import PQCTemplate
    from qsteal.devices import default_registry
    from qsteal.model import init_model
    from qsteal.training import TrainConfig, train

    x = np.random.default_rng(0).uniform(0, 2 * np.pi, (8, 8))
    labels = np.arange(8) % 4
    dev_a, cfg = default_registry().get("devA"), TrainConfig(epochs=1, batch_size=8, spsa_draws=1)
    train(init_model(PQCTemplate("PQC19", 4), 4, 0), x, labels, cfg, dev_a, 0)  # holds the gate bases first
    calls = _counted(monkeypatch, SERVE_BINDINGS + ("qsteal.training.forward_probes",))
    train(init_model(PQCTemplate("PQC19", 4), 4, 1), x, labels, cfg, dev_a, 1)
    assert calls == {**dict.fromkeys(SERVE_BINDINGS, 0), "qsteal.training.forward_probes": 1}


def test_obfuscation_scores_through_the_hooked_tvd_binding(monkeypatch):
    # serve_defended requires qsteal.defense.tvd; scoring that went around it would read as zero tvd calls
    import numpy as np

    from qsteal import defense, model
    from qsteal.circuits import PQCTemplate
    from qsteal.data import QuerySet
    from qsteal.devices import default_registry

    assert "qsteal.defense.tvd" in workloads.WORKLOADS["serve_defended"].required
    hook = next(h for h in layers.HOOKS if h.name == "tvd")
    original = _lookup(hook.module, hook.name)
    assert defense.tvd is original
    calls = []
    monkeypatch.setattr(defense, "tvd", lambda *args: calls.append(args) or original(*args))
    registry = default_registry()
    victim = model.init_model(PQCTemplate("PQC19", 4), 4, 0)
    policy = defense.hvip(victim, [registry.get("devA"), registry.get("devB")])
    queries = QuerySet(np.random.default_rng(0).uniform(0, 2 * np.pi, (3, 8)), ("uniform",))
    report = defense.measure_obfuscation(policy, defense.baseline_of(policy), queries, [0, 1])
    assert calls and len(report.per_query_tvd) == 6
