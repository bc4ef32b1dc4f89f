"""The traced layers: which qsteal functions are hooked, and how their
spans become the per-layer metrics named in BENCHMARK.json.

Calls and seconds are per measured pass (spans that started in a traced
pass, divided by the number of traced passes), so counts repeat exactly
from run to run.  The metrics of work done at set-up (data generation,
noise weaving) come from the first set-up of the run, the only traced one.
"""

from __future__ import annotations

import numpy as np

from tracer import PASS, SETUP, Hook, Tracer, has_ancestor


def _result_rows(args, kwargs, result):
    return result.shape[0]


HOOKS = [
    Hook("qsteal.density", "apply_superop_batch", _result_rows),
    Hook("qsteal.density", "unitary_superop"),
    Hook("qsteal.density", "apply_unitary_vec", _result_rows),
    Hook("qsteal.gates", "rotation_batch"),
    Hook("qsteal.circuits", "run_circuit", _result_rows),
    Hook("qsteal.circuits", "weave_noise"),
    Hook("qsteal.model", "forward_batch", _result_rows),
    Hook("qsteal.training", "train"),
    Hook("qsteal.training", "adam_step"),
    Hook("qsteal.defense", "VictimService.predict"),
    Hook("qsteal.defense", "measure_obfuscation"),
    Hook("qsteal.attack", "query_victim", lambda args, kwargs, result: result.m),
    Hook("qsteal.attack", "train_clone"),
    Hook("qsteal.metrics", "tvd"),
    Hook("qsteal.metrics", "accuracy"),
    Hook("qsteal.data", "mixed_query_set"),
    Hook("qsteal.data", "make_blobs"),
    Hook("qsteal.cli", "main"),
]

SUPEROP = "qsteal.density.apply_superop_batch"
UNITARY_SUPEROP = "qsteal.density.unitary_superop"
UNITARY_VEC = "qsteal.density.apply_unitary_vec"
ROTATION = "qsteal.gates.rotation_batch"
RUN_CIRCUIT = "qsteal.circuits.run_circuit"
WEAVE = "qsteal.circuits.weave_noise"
FORWARD = "qsteal.model.forward_batch"
TRAIN = "qsteal.training.train"
ADAM = "qsteal.training.adam_step"
PREDICT = "qsteal.defense.VictimService.predict"
OBFUSCATION = "qsteal.defense.measure_obfuscation"
QUERY = "qsteal.attack.query_victim"
CLONE = "qsteal.attack.train_clone"
TVD = "qsteal.metrics.tvd"
ACCURACY = "qsteal.metrics.accuracy"
MIXED = "qsteal.data.mixed_query_set"
BLOBS = "qsteal.data.make_blobs"
CLI_MAIN = "qsteal.cli.main"

#: per-layer metric -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "density.superop_calls": "count",
    "density.superop_s": "s",
    "density.superop_rows": "count",
    "density.unitary_superop_calls": "count",
    "density.unitary_superop_s": "s",
    "density.unitary_vec_calls": "count",
    "density.unitary_vec_s": "s",
    "gates.rotation_batch_calls": "count",
    "gates.rotation_batch_s": "s",
    "circuits.run_circuit_calls": "count",
    "circuits.run_circuit_s": "s",
    "circuits.run_circuit_self_s": "s",
    "circuits.rows_per_call": "count",
    "circuits.weave_noise_calls": "count",
    "model.forward_calls": "count",
    "model.forward_rows": "count",
    "model.forward_s": "s",
    "model.forward_self_s": "s",
    "training.step_calls": "count",
    "training.forwards_per_step": "count",
    "training.adam_step_s": "s",
    "defense.predict_calls": "count",
    "defense.predict_s": "s",
    "defense.predict_self_s": "s",
    "defense.measure_obfuscation_s": "s",
    "attack.query_victim_s": "s",
    "attack.predict_per_query": "count",
    "attack.train_clone_s": "s",
    "metrics.tvd_calls": "count",
    "metrics.tvd_s": "s",
    "metrics.accuracy_s": "s",
    "data.mixed_query_set_s": "s",
    "data.make_blobs_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
}


def forwards_per_step(a: dict, hook_ids: dict) -> float:
    """Number of forward passes a training step makes.

    Counts forward_batch spans under a train span between consecutive
    adam_step spans, in call order, and takes the fewest.  Each epoch's
    evaluation forward lands in the count of the step after it, which is
    every step but the first when an epoch is one step long.
    """
    fwd, adam, train = hook_ids[FORWARD], hook_ids[ADAM], hook_ids[TRAIN]
    counts, current = [], 0
    for i in np.flatnonzero((a["phase"] == PASS) & np.isin(a["hook"], (fwd, adam, train))):
        h = a["hook"][i]
        if h == train:
            current = 0
        elif h == adam:
            counts.append(current)
            current = 0
        elif has_ancestor(a["parent"], a["hook"], i, train):
            current += 1
    return float(min(counts)) if counts else 0.0


def predicts_under(a: dict, hook_ids: dict, ancestor: str) -> int:
    sel = np.flatnonzero((a["phase"] == PASS) & (a["hook"] == hook_ids[PREDICT]))
    return sum(has_ancestor(a["parent"], a["hook"], i, hook_ids[ancestor]) for i in sel)


def top_self(tracer: Tracer, n_pass: int, k: int = 5) -> list[tuple[str, float]]:
    """The k hooks with the most self time per traced pass."""
    p = tracer.stats(PASS)
    ranked = sorted(((key, st.self_s / max(n_pass, 1)) for key, st in p.items()), key=lambda kv: -kv[1])
    return ranked[:k]


def per_layer(tracer: Tracer, n_pass: int, overhead_s: float) -> dict[str, float]:
    p = tracer.stats(PASS)
    s = tracer.stats(SETUP)
    a = tracer.arrays()
    ids = {hook.key: i for i, hook in enumerate(tracer.hooks)}
    n_pass = max(n_pass, 1)
    queries = p[QUERY].rows

    m = {
        "density.superop_calls": p[SUPEROP].calls / n_pass,
        "density.superop_s": p[SUPEROP].total_s / n_pass,
        "density.superop_rows": p[SUPEROP].rows / n_pass,
        "density.unitary_superop_calls": p[UNITARY_SUPEROP].calls / n_pass,
        "density.unitary_superop_s": p[UNITARY_SUPEROP].total_s / n_pass,
        "density.unitary_vec_calls": p[UNITARY_VEC].calls / n_pass,
        "density.unitary_vec_s": p[UNITARY_VEC].total_s / n_pass,
        "gates.rotation_batch_calls": p[ROTATION].calls / n_pass,
        "gates.rotation_batch_s": p[ROTATION].total_s / n_pass,
        "circuits.run_circuit_calls": p[RUN_CIRCUIT].calls / n_pass,
        "circuits.run_circuit_s": p[RUN_CIRCUIT].total_s / n_pass,
        "circuits.run_circuit_self_s": p[RUN_CIRCUIT].self_s / n_pass,
        "circuits.rows_per_call": p[RUN_CIRCUIT].rows / p[RUN_CIRCUIT].calls if p[RUN_CIRCUIT].calls else 0.0,
        "circuits.weave_noise_calls": s[WEAVE].calls,
        "model.forward_calls": p[FORWARD].calls / n_pass,
        "model.forward_rows": p[FORWARD].rows / n_pass,
        "model.forward_s": p[FORWARD].total_s / n_pass,
        "model.forward_self_s": p[FORWARD].self_s / n_pass,
        "training.step_calls": p[ADAM].calls / n_pass,
        "training.forwards_per_step": forwards_per_step(a, ids),
        "training.adam_step_s": p[ADAM].total_s / n_pass,
        "defense.predict_calls": p[PREDICT].calls / n_pass,
        "defense.predict_s": p[PREDICT].total_s / n_pass,
        "defense.predict_self_s": p[PREDICT].self_s / n_pass,
        "defense.measure_obfuscation_s": p[OBFUSCATION].total_s / n_pass,
        "attack.query_victim_s": p[QUERY].total_s / n_pass,
        "attack.predict_per_query": predicts_under(a, ids, QUERY) / queries if queries else 0.0,
        "attack.train_clone_s": p[CLONE].total_s / n_pass,
        "metrics.tvd_calls": p[TVD].calls / n_pass,
        "metrics.tvd_s": p[TVD].total_s / n_pass,
        "metrics.accuracy_s": p[ACCURACY].total_s / n_pass,
        "data.mixed_query_set_s": s[MIXED].total_s,
        "data.make_blobs_s": s[BLOBS].total_s,
        "cli.main_self_s": p[CLI_MAIN].self_s / n_pass,
        "trace.overhead_s": overhead_s,
    }
    return m
