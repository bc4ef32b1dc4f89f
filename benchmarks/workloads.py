"""The three benchmark workloads.

Each workload is one closed loop: a single caller in one process repeats
the same pass, waiting for each call to return before the next.  Its
inputs come from the seed alone, so every pass of a run does identical
work and yields an identical fingerprint.  A pass is a fixed sequence of
short calls into qsteal, each timed on its own under a *kind*; the run
reports the median time of each kind.  All calls go through module
attributes (``attack.query_victim``, not a name imported into this file)
so that the tracer sees them.  See README.md for why each was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from qsteal import attack, cli, data, defense, devices, metrics, model, training
from qsteal.circuits import PQCTemplate

import oracle
from checks import Tally, check_responses, latency_summary

#: the reference task of the shipped configs: 4 classes, 8 features
TASK = {"k": 4, "d": 8, "n_per_class": 150, "separation": 8.0, "train_size": 400}
CHANCE = 1.0 / TASK["k"]
ORACLE_TOL = 1e-9
ORACLE_INPUTS = 4
#: queries per timed query_victim call, and per measure_obfuscation call
QUERY_CHUNK = 50
OBFUSCATION_CHUNK = 10


class Calls:
    """Seconds of each timed call of one pass, by kind.

    ``after``, if given, is called with each call's seconds once the call
    is timed, outside the timed region.
    """

    def __init__(self, after=None):
        self.times = defaultdict(list)
        self.after = after

    def __call__(self, kind: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        seconds = perf_counter() - t0
        self.times[kind].append(seconds)
        if self.after is not None:
            self.after(seconds)
        return out


@dataclass
class PassResult:
    fingerprint: str
    #: kind -> seconds of each call of that kind, in call order
    calls: dict = field(default_factory=dict)
    accuracy: float | None = None


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def model_arrays(m) -> tuple:
    return (m.theta, m.weights, m.bias)


def task_split(seed: int):
    ds = data.make_blobs(TASK["k"], TASK["d"], TASK["n_per_class"], TASK["separation"], seed)
    return data.train_test_split(ds, seed, 0.7, TASK["train_size"])


def npd_sources(seed: int):
    return data.make_npd_sources(TASK["k"], TASK["d"], TASK["n_per_class"], TASK["separation"], seed)


def chunks(qs: data.QuerySet, size: int) -> list:
    return [data.QuerySet(qs.features[i : i + size], qs.provenance) for i in range(0, qs.m, size)]


def query_in_chunks(calls: Calls, service, qs: data.QuerySet, mode: str) -> attack.AdversarialDataset:
    """``query_victim`` over `qs` in QUERY_CHUNK-query calls to one service.

    The service numbers queries itself, so the responses equal those of a
    single call over all of `qs`.
    """
    parts = [calls("query_victim", attack.query_victim, service, part, mode) for part in chunks(qs, QUERY_CHUNK)]
    responses = np.concatenate([da.responses for da in parts])
    return attack.AdversarialDataset(qs.features, responses, mode, parts[0].k)


def registry_profiles():
    reg = devices.default_registry()
    return reg.get("ideal"), reg.get("devA"), reg.get("devB")


def check_oracle(tally: Tally, label: str, m, xs: np.ndarray, profiles) -> None:
    """expectations_batch against the kron oracle, one check per device."""
    for profile in profiles:
        got = model.expectations_batch(m, xs, profile)
        ref = np.array([oracle.expectations(m, x, profile) for x in xs])
        err = float(np.max(np.abs(got - ref)))
        tally.check(f"oracle {label} on {profile.name}", err <= ORACLE_TOL, f"max |diff| {err:.3g}")


def check_above_chance(tally: Tally, label: str, acc: float) -> None:
    tally.check(f"{label} test accuracy above chance", acc > CHANCE, f"accuracy {acc:.4f}, chance {CHANCE}")


class Workload:
    name = ""
    why = ""
    #: shipped config this workload is a shortened slice of
    slices = ""
    params: dict = {}
    #: operations one pass attempts; all count as failed if the pass raises
    units = 1
    min_passes = 3
    #: kind -> (work units per call, name of the rate figure), for the
    #: throughput figures printed next to the metrics
    rates: dict = {}
    #: binding sites a traced run must see called at least once
    required: tuple = ()

    def setup(self, seed: int, out: Path):
        raise NotImplementedError

    def run_pass(self, state, tally: Tally, calls: Calls) -> PassResult:
        """One pass, timing each call into qsteal through `calls`."""
        raise NotImplementedError

    def check(self, state, results: list[PassResult], tally: Tally) -> str | None:
        """Check the outputs after the timed loop; may return a fingerprint
        of further outputs it computed."""
        raise NotImplementedError


class TrainNoisy(Workload):
    name = "train_noisy"
    why = "noisy devA-then-devB victim training through the CLI: density-matrix superops at B=32, no serving"
    slices = ("configs/defense_hvip.yaml (victim section), schedule cut from devA 20 + devB 5 epochs to 1 + 1; "
              "the timed pass trains on 32 samples, the check after the loop on the full 400")
    params = {
        "template": "PQC19", "n_qubits": 4, "schedule": [["devA", 1], ["devB", 1]],
        "batch_size": 32, "spsa_draws": 8, "learning_rate": 0.01,
        "pass_task": {**TASK, "n_per_class": 12, "train_size": 32}, "check_task": TASK,
    }
    rates = {"train_victim": ("samples_epochs", "train_samples_per_s")}
    required = (
        "qsteal.cli.main", "qsteal.cli.train", "qsteal.training.forward_batch",
        "qsteal.training.adam_step", "qsteal.model.run_circuit",
        "qsteal.density.apply_superop_batch",
    )

    def _config(self, seed, task):
        p = self.params
        epochs = sum(e for _, e in p["schedule"])
        return {
            "seed": seed,
            "shots": "analytic",
            "task": {"kind": "blobs", "k": task["k"], "d": task["d"], "n_per_class": task["n_per_class"],
                     "separation": task["separation"], "seed": seed, "train_size": task["train_size"]},
            "victim": {
                "template": p["template"], "n_qubits": p["n_qubits"], "layers": 1,
                "device": p["schedule"][0][0],
                "schedule": [{"device": d, "epochs": e} for d, e in p["schedule"]],
                "train": {"epochs": epochs, "learning_rate": p["learning_rate"],
                          "batch_size": p["batch_size"], "loss": "nll_top1",
                          "spsa_draws": p["spsa_draws"]},
            },
        }

    def setup(self, seed, out):
        p = self.params
        out.mkdir(parents=True, exist_ok=True)
        argv = {}
        for label in ("pass", "check"):
            path = out / f"train_noisy-{label}.yaml"
            path.write_text(yaml.safe_dump(self._config(seed, p[f"{label}_task"]), sort_keys=False))
            argv[label] = ["train-victim", "--config", str(path), "--out", str(out / label)]
        _, test = task_split(seed)
        ideal, dev_a, dev_b = registry_profiles()
        probe = model.init_model(PQCTemplate(p["template"], p["n_qubits"]), TASK["k"], seed)
        for profile in (dev_a, dev_b):
            model.forward_batch(probe, test.features[:1], profile)
        epochs = sum(e for _, e in p["schedule"])
        return {
            "argv": argv,
            "out": out,
            "samples_epochs": p["pass_task"]["train_size"] * epochs,
            "oracle_x": test.features[:ORACLE_INPUTS],
            "profiles": (ideal, dev_a, dev_b),
        }

    def _train(self, state, label, calls=None):
        """One ``train-victim`` CLI call; returns the trained model and its
        final test accuracy."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = calls("train_victim", cli.main, state["argv"][label]) if calls else cli.main(state["argv"][label])
        if rc != 0:
            raise RuntimeError(f"train-victim exited {rc}: {sink.getvalue()[-300:]}")
        out = state["out"] / label
        trained, _ = model.load_checkpoint(out / "victim.checkpoint.json")
        history = json.loads((out / "victim.history.json").read_text())
        return trained, float(history["epochs"][-1]["test_accuracy"])

    def run_pass(self, state, tally, calls):
        trained, acc = self._train(state, "pass", calls)
        tally.ops(1)
        return PassResult(fingerprint=fingerprint(*model_arrays(trained)), calls=calls.times, accuracy=acc)

    def check(self, state, results, tally):
        trained, acc = self._train(state, "check")
        tally.ops(1)
        check_oracle(tally, "trained victim", trained, state["oracle_x"], state["profiles"])
        check_above_chance(tally, "victim", acc)
        state["check_accuracy"] = acc
        return fingerprint(*model_arrays(trained))


class StealIdeal(Workload):
    name = "steal_ideal"
    why = "one noise-free attack cell: 700 top-k queries, clone training, clone accuracy; pure-statevector path only"
    slices = "configs/attack_sweep.yaml, one cell (topk, mixed, |D_A|=700, PQC19x4), epochs cut from 25"
    params = {
        "template": "PQC19", "n_qubits": 4, "device": "ideal", "victim_epochs": 3,
        "clone_epochs": 2, "da_size": 700, "query_kind": "mixed", "mode": "topk",
        "batch_size": 32, "spsa_draws": 8, "learning_rate": 0.01, **TASK,
    }
    units = 701
    rates = {"query_victim": (QUERY_CHUNK, "queries_per_s"), "train_clone": ("samples_epochs", "train_samples_per_s")}
    required = (
        "qsteal.attack.query_victim", "qsteal.attack.train_clone", "qsteal.attack.train",
        "qsteal.defense.VictimService.predict", "qsteal.model.forward_batch",
        "qsteal.metrics.accuracy", "qsteal.model.run_circuit", "qsteal.density.apply_unitary_vec",
    )

    def _cfg(self, epochs, loss):
        p = self.params
        return training.TrainConfig(epochs=epochs, learning_rate=p["learning_rate"],
                                    batch_size=p["batch_size"], loss=loss, spsa_draws=p["spsa_draws"])

    def setup(self, seed, out):
        p = self.params
        train, test = task_split(seed)
        ideal, dev_a, _ = registry_profiles()
        template = PQCTemplate(p["template"], p["n_qubits"])
        victim, _ = training.train(
            model.init_model(template, p["k"], seed), train.features, train.labels,
            self._cfg(p["victim_epochs"], "nll_top1"), ideal, seed,
        )
        queries = data.mixed_query_set(npd_sources(seed), p["da_size"], seed)
        return {
            "seed": seed,
            "template": template,
            "service": defense.no_defense(victim, ideal, seed=seed),
            "victim": victim,
            "queries": queries,
            "test": test,
            "clone_cfg": self._cfg(p["clone_epochs"], "kl_topk"),
            "profiles": (ideal, dev_a),
            "samples_epochs": p["da_size"] * p["clone_epochs"],
        }

    def run_pass(self, state, tally, calls):
        seed = state["seed"]
        ideal = state["profiles"][0]
        da = query_in_chunks(calls, state["service"].reseeded(seed), state["queries"], "topk")
        clone, _ = calls("train_clone", attack.train_clone, da, state["template"], state["clone_cfg"], ideal, seed)
        acc = calls("accuracy", metrics.accuracy, clone, state["test"], ideal, None, seed=seed)
        tally.ops(da.m + 1)
        check_responses(tally, "steal_ideal responses", da.responses)
        state["clone"] = clone
        return PassResult(
            fingerprint=fingerprint(da.responses, *model_arrays(clone)), calls=calls.times, accuracy=acc,
        )

    def check(self, state, results, tally):
        xs = state["test"].features[:ORACLE_INPUTS]
        check_oracle(tally, "victim", state["victim"], xs, state["profiles"])
        if "clone" in state:
            check_oracle(tally, "clone", state["clone"], xs, state["profiles"][:1])
            check_above_chance(tally, "clone", results[-1].accuracy)


class ServeDefended(Workload):
    name = "serve_defended"
    why = "HVIP and HAVIP serving at B=1: single predicts, obfuscation over service seeds, one top-k query run; no training"
    slices = "configs/defense_hvip.yaml and configs/defense_havip.yaml, serving side only, victims untrained"
    params = {
        "hvip": "PQC19 on devA/devB", "havip": "PQC1@devA + PQC19@devB", "probs": [0.5, 0.5],
        "direct_predicts": 250, "obfuscation_queries": 60, "service_seeds": 2,
        "da_size": 700, "query_kind": "mixed", "mode": "topk", **TASK,
    }
    min_passes = 4
    rates = {"query_victim": (QUERY_CHUNK, "queries_per_s")}
    required = (
        "qsteal.defense.VictimService.predict", "qsteal.model.forward_batch",
        "qsteal.defense.measure_obfuscation", "qsteal.defense.tvd",
        "qsteal.attack.query_victim", "qsteal.density.apply_superop_batch",
    )

    def __init__(self):
        p = self.params
        self.obf_units = p["obfuscation_queries"] * p["service_seeds"]
        self.units = p["direct_predicts"] + 2 * self.obf_units + p["da_size"]

    def setup(self, seed, out):
        p = self.params
        ideal, dev_a, dev_b = registry_profiles()
        v19 = model.init_model(PQCTemplate("PQC19", 4), p["k"], seed)
        v1 = model.init_model(PQCTemplate("PQC1", 4), p["k"], seed + 1)
        hv = defense.hvip(v19, [dev_a, dev_b], p["probs"], seed=seed)
        ha = defense.havip([(v1, dev_a), (v19, dev_b)], p["probs"], seed=seed)
        sources = npd_sources(seed)
        direct = data.mixed_query_set(sources, p["direct_predicts"], seed + 2)
        for m, profile in ((v19, dev_a), (v19, dev_b), (v1, dev_a)):
            model.forward_batch(m, direct.features[:1], profile)
        return {
            "seed": seed,
            "hvip": hv,
            "havip": ha,
            "direct": direct,
            "obf_queries": data.mixed_query_set(sources, p["obfuscation_queries"], seed),
            "attack_queries": data.mixed_query_set(sources, p["da_size"], seed + 1),
            "oracle": [("PQC19 victim", v19, (ideal, dev_a, dev_b)), ("PQC1 victim", v1, (dev_a,))],
        }

    def run_pass(self, state, tally, calls):
        seed = state["seed"]
        seeds = [seed + i for i in range(self.params["service_seeds"])]
        service = state["hvip"].reseeded(seed)
        served = [calls("predict", service.predict, x) for x in state["direct"].features]
        tvds = []
        for policy in (state["hvip"], state["havip"]):
            baseline = defense.baseline_of(policy)
            for part in chunks(state["obf_queries"], OBFUSCATION_CHUNK):
                report = calls("measure_obfuscation", defense.measure_obfuscation, policy, baseline, part, seeds)
                tvds.append(np.asarray(report.per_query_tvd))
        da = query_in_chunks(calls, state["havip"].reseeded(seed), state["attack_queries"], "topk")
        tally.ops(len(served) + 2 * self.obf_units + da.m)
        check_responses(tally, "serve_defended direct responses", np.array(served))
        check_responses(tally, "serve_defended query responses", da.responses)
        tvd = np.concatenate(tvds)
        tally.check("obfuscation TVDs finite and in [0, 1]",
                    np.all(np.isfinite(tvd)) and np.all((tvd >= 0) & (tvd <= 1)),
                    f"range [{tvd.min():.3g}, {tvd.max():.3g}]")
        return PassResult(fingerprint=fingerprint(np.array(served), tvd, da.responses), calls=calls.times)

    def check(self, state, results, tally):
        xs = state["direct"].features[:ORACLE_INPUTS]
        for label, m, profiles in state["oracle"]:
            check_oracle(tally, label, m, xs, profiles)


WORKLOADS = {w.name: w for w in (TrainNoisy(), StealIdeal(), ServeDefended())}
