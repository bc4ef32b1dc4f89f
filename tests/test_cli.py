"""CLI subcommands: validation errors, output documents, determinism."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from qsteal.attack import AttackSpec
from qsteal.cli import _ATTACK, _DEFENSE_ATTACK, _attack_section, _section, _train_cfg, main
from qsteal.devices import IDEAL, default_registry
from qsteal.training import TrainConfig

TINY = {
    "seed": 1,
    "shots": "analytic",
    "task": {
        "kind": "blobs", "k": 3, "d": 4, "n_per_class": 12, "separation": 6.0,
        "seed": 5, "train_fraction": 0.7,
    },
    "victim": {
        "template": "PQC19", "n_qubits": 2, "layers": 1,
        "train": {"epochs": 2, "batch_size": 8, "loss": "nll_top1", "spsa_draws": 1},
    },
    "attack": {
        "mode": "topk", "query_kind": "random", "da_size": 16,
        "clone": {"template": "PQC19", "n_qubits": 2, "layers": 1, "device": "ideal"},
        "train": {"epochs": 1, "batch_size": 8, "loss": "kl_topk", "spsa_draws": 1},
        "seeds": [1],
    },
    "defense": {
        "policy": "hvip", "devices": ["devA", "devB"], "probs": [0.5, 0.5],
        "n_queries": 6, "query_kind": "random",
    },
}


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if a command starts training a victim."""
    def refuse(*args, **kwargs):
        raise AssertionError("a victim was trained")

    monkeypatch.setattr("qsteal.cli.train", refuse)


def _fail_queries(monkeypatch, when):
    """Make each attack query that `when(service, query_set)` picks fail, as a down endpoint would."""
    import qsteal.attack

    original = qsteal.attack.query_victim

    def query(service, qs, mode):
        if when(service, qs):
            raise RuntimeError("endpoint down")
        return original(service, qs, mode)

    monkeypatch.setattr(qsteal.attack, "query_victim", query)


def _write_config(tmp_path, overrides=None, **merge):
    doc = json.loads(json.dumps(TINY))  # deep copy
    for key, value in (overrides or {}).items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    doc.update(merge)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestSections:
    def test_unset_fields_take_the_dataclass_defaults(self):
        assert _train_cfg({}, "victim.train", None) == TrainConfig()
        assert _train_cfg(None, "victim.train", 8) == TrainConfig(shots=8)
        specs, cfg, device = _attack_section(_section({}, "attack", _ATTACK), "attack", default_registry(), None, 3)
        assert specs == [AttackSpec(seed=3)]
        assert cfg == TrainConfig() and device == IDEAL

    def test_set_fields_reach_the_spec(self):
        doc = {"mode": "top1", "da_size": 9, "query_kind": "random",
               "clone": {"template": "PQC6", "n_qubits": 3, "layers": 2}}
        specs, _, _ = _attack_section(_section(doc, "attack", _ATTACK), "attack", default_registry(), None, 0)
        assert specs == [AttackSpec("top1", 9, "random", "PQC6", 3, 2, 0)]

    @pytest.mark.parametrize(
        "key, value, field",
        [("victim.train.head_mode", "spsa", "victim.train.head_mode"),
         ("victim.train.epochs", "two", "victim.train.epochs"),
         ("victim.train.learning_rate", "fast", "victim.train.learning_rate")],
    )
    def test_train_field_errors_name_the_field(self, tmp_path, capsys, key, value, field):
        cfg = _write_config(tmp_path, {key: value})
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["reference", "attack_sweep", "defense_hvip", "defense_havip"])
    def test_shipped_configs_make_distinct_cells(self, name):
        config = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml").read_text())
        path, table, doc = ("attack", _ATTACK, config["attack"]) if "attack" in config else (
            "defense.attack", _DEFENSE_ATTACK, config["defense"]["attack"])
        specs, _, _ = _attack_section(_section(doc, path, table), path, default_registry(), None, config["seed"])
        assert len(set(specs)) == len(specs) >= 1


#: havip victims for TINY, each with its own device
HAVIP = [
    {"template": "PQC1", "n_qubits": 2, "device": "devA", "train": {"epochs": 1, "spsa_draws": 1, "batch_size": 8}},
    {"template": "PQC19", "n_qubits": 2, "device": "devB", "train": {"epochs": 1, "spsa_draws": 1, "batch_size": 8}},
]


def _policy(name):
    """Overrides that switch TINY's defense to policy `name`, unsetting (as
    explicit nulls) the hvip fields that policy never reads."""
    unset = {"none": ("defense.devices", "defense.probs"), "havip": ("defense.devices", "victim")}[name]
    return {"defense.policy": name, **dict.fromkeys(unset)}


def _havip(index=1, **fields):
    """A havip defense whose victim `index` has `fields` set."""
    victims = json.loads(json.dumps(HAVIP))  # deep copy
    victims[index].update(fields)
    return {**_policy("havip"), "defense.victims": victims}


class TestFieldTables:
    @pytest.mark.parametrize(
        "command, overrides, field",
        [("train-victim", {"sede": 3}, "sede"),
         ("train-victim", {"task.n_per_clas": 12}, "task.n_per_clas"),
         ("train-victim", {"victim.devcie": "devA"}, "victim.devcie"),
         ("train-victim", {"victim.schedule": [{"device": "devA", "epochs": 2, "epoch": 2}]},
          "victim.schedule[0].epoch"),
         ("attack", {"attack.victim_devcie": "devA"}, "attack.victim_devcie"),
         ("attack", {"attack.clone.qubits": 3}, "attack.clone.qubits"),
         ("attack", {"attack.sweep": {"width": [3]}}, "attack.sweep.width"),
         ("defend-eval", {"defense.device": ["devA"]}, "defense.device"),
         ("defend-eval", {"defense.attack": {"mde": "top1"}}, "defense.attack.mde"),
         ("defend-eval", {"defense.attack": {"victim_device": "devA"}}, "defense.attack.victim_device"),
         ("defend-eval", _havip(devcie="devB"), "defense.victims[1].devcie")],
        ids=["root", "task", "victim", "schedule-entry", "attack", "clone", "sweep", "defense",
             "defense-attack", "defense-attack-victim-device", "havip-victim"],
    )
    def test_unknown_key_names_its_path(self, tmp_path, capsys, no_training, command, overrides, field):
        cfg = _write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_havip_checks_every_victim_before_the_first_trains(self, tmp_path, capsys, no_training):
        cfg = _write_config(tmp_path, _havip(template="PQC99"))
        assert main(["defend-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: defense.victims[1].template:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, field",
        [("train-victim", {"victim.train.loss": "kl_topk"}, "victim.train.loss"),
         ("attack", {"victim.train.loss": "kl_topk"}, "victim.train.loss"),
         ("defend-eval", _havip(index=0, train={"loss": "kl_topk"}), "defense.victims[0].train.loss")],
        ids=["train-victim", "attack", "havip"],
    )
    def test_victim_loss_other_than_nll_top1_rejected(self, tmp_path, capsys, no_training, command, overrides, field):
        cfg = _write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err and "nll_top1" in err

    def test_the_parser_is_built_once_and_repeats_its_usage_errors(self, tmp_path, capsys):
        from qsteal.cli import build_parser

        assert build_parser() is build_parser()
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["train-victim", "--out", str(tmp_path / "o")])
            errors.append((exit_info.value.code, capsys.readouterr().err))
        assert errors[0] == errors[1] and errors[0][0] == 2 and "--config" in errors[0][1]
        assert main(["report", "--out", str(tmp_path)]) == 1  # and it parses the next call afresh

    @pytest.mark.parametrize(
        "overrides, field",
        [({"victim.device": "ideal"}, "victim.device"),
         ({"victim.device": "devB", "victim.train.epochs": 2}, "victim.device"),
         ({**_policy("none"), "victim.device": "devB",
           "victim.schedule": [{"device": "devA", "epochs": 2}]}, "victim.device"),
         (_havip(schedule=[{"device": "devA", "epochs": 1}]), "defense.victims[1].device")],
        ids=["hvip-default", "hvip-short", "explicit-schedule", "havip"],
    )
    def test_set_device_the_schedule_never_trains_on_rejected(self, tmp_path, capsys, no_training, overrides, field):
        cfg = _write_config(tmp_path, overrides)
        assert main(["defend-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_set_device_the_schedule_trains_on_accepted(self, tmp_path):
        # two epochs: the default hvip schedule trains both on devA
        cfg = _write_config(tmp_path, {"victim.device": "devA", "victim.train.epochs": 2})
        assert main(["defend-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "command, overrides, field",
        [("defend-eval", {**_policy("none"), "defense.probs": [0.5, 0.5]}, "defense.probs"),
         ("defend-eval", {**_policy("none"), "defense.devices": ["devA", "devB"]}, "defense.devices"),
         ("defend-eval", {**_havip(), "defense.devices": ["devA", "devB"]}, "defense.devices"),
         ("defend-eval", {**_policy("none"), "defense.victims": HAVIP}, "defense.victims"),
         ("defend-eval", {"defense.victims": HAVIP}, "defense.victims"),
         ("defend-eval", {**_havip(), "victim": TINY["victim"]}, "victim"),
         ("train-victim", {"task.path": "data.csv"}, "task.path"),
         ("train-victim", {"task.kind": "csv", "task.path": "data.csv", "task.k": 3}, "task.k"),
         ("attack", {"attack.sweep": {"modes": ["top1", "topk"]}}, "attack.train.loss"),
         ("defend-eval", {"defense.attack": {**TINY["attack"], "sweep": {"modes": ["topk"]}}},
          "defense.attack.train.loss")],
        ids=["probs-none", "devices-none", "devices-havip", "victims-none", "victims-hvip", "victim-havip",
             "path-blobs", "k-csv", "loss-attack-modes-sweep", "loss-defense-attack-modes-sweep"],
    )
    def test_field_the_policy_or_kind_never_reads_rejected(self, tmp_path, capsys, no_training, command, overrides,
                                                           field):
        cfg = _write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}: set, but never read" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestTrainVictim:
    def test_writes_checkpoint_and_history(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train-victim", "--config", str(cfg), "--out", str(out)]) == 0
        emitted = capsys.readouterr().out.splitlines()
        assert str(out / "victim.checkpoint.json") in emitted
        history = json.loads((out / "victim.history.json").read_text())
        assert len(history["epochs"]) == 2

    def test_invalid_template_names_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"victim.template": "PQC99"})
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "victim.template" in err and "PQC99" in err

    def test_unknown_device_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"victim.device": "devZZ"})
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "devZZ" in capsys.readouterr().err

    def test_devices_file_resolves_custom_device(self, tmp_path):
        devices = tmp_path / "devices.yaml"
        devices.write_text("devices:\n  - {name: devCustom, p1: 0.001}\n")
        cfg = _write_config(tmp_path, {"victim.device": "devCustom"}, devices_file=str(devices))
        out = tmp_path / "out"
        assert main(["train-victim", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "victim.checkpoint.json").is_file()

    def test_width_over_the_qubit_cap_names_field(self, tmp_path, capsys, no_training):
        cfg = _write_config(tmp_path, {"victim.n_qubits": 9})
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "victim" in err and "8-qubit cap" in err

    @pytest.mark.parametrize("contents", [None, "1.0,2.0\n", "1.0,2.0,3.0,4.0,1.5\n", "1.0,2.0,3.0,4.0,nan\n",
                                          "1.0,2.0,3.0,4.0,inf\n"],
                             ids=["missing", "malformed", "fractional-label", "nan-label", "inf-label"])
    def test_unreadable_task_csv_names_field(self, tmp_path, capsys, no_training, contents):
        data = tmp_path / "data.csv"
        if contents is not None:
            data.write_text(contents)
        cfg = _write_config(tmp_path, {"task": {"kind": "csv", "path": str(data), "d": 4}})
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "task.path" in err and str(data) in err

    def test_missing_devices_file_names_field(self, tmp_path, capsys):
        devices = tmp_path / "absent.yaml"
        cfg = _write_config(tmp_path, devices_file=str(devices))
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "devices_file" in err and str(devices) in err

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train-victim", "--config", str(cfg), "--out", str(out1)])
        main(["train-victim", "--config", str(cfg), "--out", str(out2)])
        for name in ("victim.checkpoint.json", "victim.history.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_result(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train-victim", "--config", str(cfg), "--out", str(out1)])
        main(["train-victim", "--config", str(cfg), "--out", str(out2), "--seed-override", "9"])
        a = json.loads((out1 / "victim.checkpoint.json").read_text())
        b = json.loads((out2 / "victim.checkpoint.json").read_text())
        assert a["theta"] != b["theta"] and b["seed"] == 9


class TestAttack:
    def test_report_per_seed(self, tmp_path):
        cfg = _write_config(tmp_path, {"attack.seeds": [1, 2]})
        out = tmp_path / "out"
        main(["train-victim", "--config", str(cfg), "--out", str(out)])
        cfg2 = _write_config(
            tmp_path, {"attack.victim_checkpoint": str(out / "victim.checkpoint.json"),
                       "attack.seeds": [1, 2]},
        )
        assert main(["attack", "--config", str(cfg2), "--out", str(out)]) == 0
        lines = (out / "attack_reports.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["ratio"] == record["clone_accuracy"] / record["victim_accuracy"]

    def test_mode_loss_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"attack.mode": "top1"})
        out = tmp_path / "out"
        code = main(["attack", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "attack.train.loss" in err and "nll_top1" in err

    @pytest.mark.parametrize(
        "key, value, field",
        [("train", 5, "attack.train"),
         ("seeds", 5, "attack.seeds"),
         ("seeds", [], "attack.seeds"),
         ("sweep", {"modes": ["bogus"]}, "attack.sweep.modes"),
         ("sweep", {"query_kinds": ["bogus"]}, "attack.sweep.query_kinds"),
         ("clone.template", "PQC99", "attack.clone.template"),
         ("sweep", {"widths": [1]}, "attack.sweep.widths")],
        ids=["train", "seeds", "no-seeds", "sweep.modes", "sweep.query_kinds", "clone.template", "sweep.widths"],
    )
    def test_section_checked_before_training(self, tmp_path, capsys, no_training, key, value, field):
        cfg = _write_config(tmp_path, {f"attack.{key}": value})
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "attack_reports.jsonl").exists()

    def test_sweep_emits_one_record_per_cell(self, tmp_path):
        axes = {
            "seeds": [2, 1], "modes": ["topk", "top1"], "da_sizes": [16, 8],
            "query_kinds": ["random", "mixed"], "widths": [3, 2],
        }
        sweep = {key: axes[key] for key in ("modes", "da_sizes", "query_kinds", "widths")}
        # under a sweep over modes each cell takes its mode's loss, so train.loss stays unset
        train = {"epochs": 1, "batch_size": 8, "spsa_draws": 1}
        cfg = _write_config(tmp_path, {"attack.sweep": sweep, "attack.seeds": axes["seeds"], "attack.train": train})
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "attack_reports.jsonl").read_text().splitlines()
        assert len(lines) == 32
        # cells run in the order seed, mode, da_size, kind, width (last varies fastest)
        cells = [
            (r["seed"], r["mode"], r["da_size"], r["query_kind"], r["clone_qubits"])
            for r in map(json.loads, lines)
        ]
        assert cells == list(itertools.product(*axes.values()))

    def test_a_failed_cell_exits_1_and_keeps_the_other_cells(self, tmp_path, capsys, monkeypatch):
        _fail_queries(monkeypatch, lambda service, qs: qs.m == 16)
        cfg = _write_config(tmp_path, {"attack.sweep": {"da_sizes": [16, 12]}})
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cell topk-random-m16-pqc19x2-s1 failed: endpoint down" in err and "internal error:" not in err
        records = [json.loads(line) for line in (out / "attack_reports.jsonl").read_text().splitlines()]
        assert [r["da_size"] for r in records] == [12]

    def test_rerun_identical_reports(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["attack", "--config", str(cfg), "--out", str(out1)])
        main(["attack", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "attack_reports.jsonl").read_bytes() == (out2 / "attack_reports.jsonl").read_bytes()


class TestDefendEval:
    def test_hvip_writes_obfuscation(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "obfuscation.json").read_text())
        assert doc["policy"] == "hvip"
        assert doc["n_queries"] == 6
        assert doc["mean_tvd"] >= 0.0

    @pytest.mark.parametrize(
        "devices, epochs, expected",
        [(["devA", "devB"], 7, ["devA"] * 2 + ["devB"] * 5),
         (["devB", "devA"], 6, ["devB"] + ["devA"] * 5),
         (["devA", "devB"], 5, ["devA"] * 5),
         (["devB", "devA"], 2, ["devB"] * 2)],
    )
    def test_hvip_default_schedule_ends_with_five_epochs_on_the_second_device(
        self, tmp_path, monkeypatch, devices, epochs, expected
    ):
        # train evaluates the held-out split once per epoch, on that epoch's device
        import qsteal.training

        seen = []
        original = qsteal.training.forward_batch

        def recording(model, x, profile, *args, **kwargs):
            seen.append(profile.name)
            return original(model, x, profile, *args, **kwargs)

        monkeypatch.setattr(qsteal.training, "forward_batch", recording)
        cfg = _write_config(tmp_path, {"defense.devices": devices, "victim.train.epochs": epochs})
        assert main(["defend-eval", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert seen == expected

    def test_havip_requires_two_victims(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {**_havip(), "defense.victims": HAVIP[:1]})
        assert main(["defend-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "defense.victims" in capsys.readouterr().err

    def test_unregistered_device_is_validation_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"defense.devices": ["devA", "devNOPE"]})
        assert main(["defend-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "devNOPE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, field",
        [("mode", "bogus", "defense.attack.mode"),
         ("train.loss", "nll_top1", "defense.attack.train.loss"),
         ("clone.n_qubits", "four", "defense.attack.clone.n_qubits")],
    )
    def test_attack_section_checked_at_its_path_before_training(self, tmp_path, capsys, key, value, field):
        section = json.loads(json.dumps(TINY["attack"]))  # deep copy
        cfg = _write_config(tmp_path, {"defense.attack": section, f"defense.attack.{key}": value})
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "obfuscation.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("query_kind", "bogus"), ("n_queries", 0), ("seeds", 5), ("seeds", [])],
        ids=["query_kind", "n_queries", "seeds", "no-seeds"],
    )
    def test_measurement_fields_checked_before_training(self, tmp_path, capsys, no_training, key, value):
        cfg = _write_config(tmp_path, {f"defense.{key}": value})
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"defense.{key}" in capsys.readouterr().err
        assert not (out / "obfuscation.json").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [({"defense.probs": [0.7, 0.7]}, "defense.probs"),
         ({"defense.probs": [1.0]}, "defense.probs"),
         ({"defense.probs": [1.5, -0.5]}, "defense.probs"),
         ({"defense.probs": [float("nan"), 1.0]}, "defense.probs"),
         ({"defense.probs": ["half", 0.5]}, "defense.probs[0]"),
         ({**_havip(), "defense.probs": [0.2, 0.2, 0.6]}, "defense.probs"),
         ({"defense.devices": ["devA", "devA"]}, "defense.devices"),
         ({"defense.devices": ["devA", "devB", "ideal"], "defense.probs": [0.4, 0.3, 0.3]}, "defense.devices")],
        ids=["sum", "length", "negative", "nan", "type", "havip-length", "repeated-device",
             "three-devices-unscheduled"],
    )
    def test_serving_fields_checked_before_training(self, tmp_path, capsys, no_training, overrides, field):
        cfg = _write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (out / "obfuscation.json").exists()

    def test_havip_writes_obfuscation(self, tmp_path):
        cfg = _write_config(tmp_path, _havip())
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "obfuscation.json").read_text())["policy"] == "havip"

    @pytest.mark.parametrize("policy, want", [("hvip", ("PQC19", 2, "devA")), ("havip", ("PQC1", 2, "devA"))])
    def test_documents_record_the_undefended_baseline_pair(self, tmp_path, policy, want):
        # the baseline is the first-listed pair: under havip the first victim, not the mix it stands beside
        overrides = _havip() if policy == "havip" else {}
        cfg = _write_config(tmp_path, {**overrides, "defense.attack": TINY["attack"]})
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 0
        want = dict(zip(("template", "qubits", "device"), want))
        assert json.loads((out / "obfuscation.json").read_text())["baseline"] == want
        records = [json.loads(line) for line in (out / "defense_eval.jsonl").read_text().splitlines()]
        assert records and all(r["baseline"] == want for r in records)

    @pytest.mark.parametrize("policy", ["hvip", "havip"])
    def test_rerun_identical_documents(self, tmp_path, policy):
        overrides = _havip() if policy == "havip" else {}
        cfg = _write_config(tmp_path, {**overrides, "defense.attack": TINY["attack"]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("obfuscation.json", "defense_eval.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("side", ["defended", "both"])
    def test_a_failed_cell_exits_1_and_writes_no_evaluation(self, tmp_path, capsys, monkeypatch, side):
        # a cell that raises against either service is a failed cell, as in attack: logged, not a traceback
        _fail_queries(monkeypatch, lambda service, qs: side == "both" or service.name == "hvip")
        cfg = _write_config(tmp_path, {"defense.attack": TINY["attack"]})
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cell topk-random-m16-pqc19x2-s1 failed: endpoint down" in err
        assert "internal error:" not in err
        assert (out / "obfuscation.json").exists() and not (out / "defense_eval.jsonl").exists()

    def test_none_policy_reports_zero_tvd(self, tmp_path):
        cfg = _write_config(tmp_path, _policy("none"))
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "obfuscation.json").read_text())
        assert doc["mean_tvd"] == 0.0


class TestExitCodes:
    def test_unreadable_config_exits_3_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.yaml"
        assert main(["train-victim", "--config", str(missing), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(missing) in err

    def test_invalid_yaml_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_text("seed: [1,\n")
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    def test_unexpected_exception_exits_1_as_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("numerical trouble")

        monkeypatch.setattr("qsteal.cli.train", broken)
        cfg = _write_config(tmp_path)
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "numerical trouble" in err

    @pytest.mark.parametrize(
        "overrides, field",
        [({"task.k": 0}, "task"),
         ({"task.train_fraction": 1.0}, "task"),
         ({"victim.schedule": [5]}, "victim.schedule[0]"),
         ({"victim.schedule": "devA"}, "victim.schedule"),
         ({"victim.schedule": [{"device": "devA", "epochs": -1}, {"device": "devB", "epochs": 3}]},
          "victim.schedule[0].epochs")],
        ids=["blobs", "split", "schedule-entry", "schedule", "negative-epochs"],
    )
    def test_config_value_errors_name_their_field(self, tmp_path, capsys, no_training, overrides, field):
        cfg = _write_config(tmp_path, overrides)
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, flags, field",
        [("train-victim", {"seed": -3}, [], "seed"),
         ("train-victim", {}, ["--seed-override=-3"], "--seed-override"),
         ("train-victim", {"task.seed": -1}, [], "task.seed"),
         ("attack", {"attack.seeds": [1, -2]}, [], "attack.seeds[1]"),
         ("defend-eval", {"defense.seeds": [-1]}, [], "defense.seeds[0]")],
        ids=["root", "override", "task", "attack-seeds", "defense-seeds"],
    )
    def test_negative_seed_is_config_error_naming_field(self, tmp_path, capsys, no_training, command, overrides,
                                                        flags, field):
        cfg = _write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 2
        assert f"config error: {field}: expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, field",
        [("attack", {"attack.seeds": [1, 2, 1]}, "attack.seeds[2]: repeats attack.seeds[0] (1)"),
         ("attack", {"attack.sweep": {"da_sizes": [16, 16]}}, "attack.sweep.da_sizes[1]"),
         ("attack", {"attack.sweep": {"modes": ["top1", "top1"]}, "attack.train": {"epochs": 1}},
          "attack.sweep.modes[1]"),
         ("attack", {"attack.sweep": {"query_kinds": ["random", "mixed", "random"]}}, "attack.sweep.query_kinds[2]"),
         ("attack", {"attack.sweep": {"widths": [2, 2]}}, "attack.sweep.widths[1]"),
         ("defend-eval", {"defense.seeds": [3, 3]}, "defense.seeds[1]"),
         ("defend-eval", {"defense.attack": {**TINY["attack"], "seeds": [4, 4]}}, "defense.attack.seeds[1]")],
        ids=["attack-seeds", "da-sizes", "modes", "query-kinds", "widths", "defense-seeds", "defense-attack-seeds"],
    )
    def test_a_repeated_value_is_a_config_error_naming_the_repeat(self, tmp_path, capsys, no_training, command,
                                                                 overrides, field):
        # a repeat made identical cells, which report then averaged as if over several seeds
        cfg = _write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}" in err and "repeats" in err

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        cfg = _write_config(tmp_path, {"seed": -3})
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "qsteal", "train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 2
        assert "config error: seed:" in done.stderr

    @pytest.mark.parametrize("contents", [None, "{}"], ids=["missing", "malformed"])
    def test_victim_checkpoint_errors_name_the_field(self, tmp_path, capsys, no_training, contents):
        ckpt = tmp_path / "victim.json"
        if contents is not None:
            ckpt.write_text(contents)
        cfg = _write_config(tmp_path, {"attack.victim_checkpoint": str(ckpt)})
        assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "attack.victim_checkpoint" in err and str(ckpt) in err


class TestReport:
    def test_summarizes_documents(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["attack", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "attack_reports.jsonl" in text and "mean ratio" in text

    def test_empty_directory_nonzero(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "name, text, where, message",
        [("history.json", '{"epochs": [', "history.json", "not valid JSON"),
         ("history.json", "[1, 2]", "history.json", "expected a JSON object, got list"),
         ("attack_reports.jsonl",
          '{"mode": "topk", "query_kind": "random", "da_size": 16, "clone_template": "PQC19", '
          '"clone_qubits": 2, "ratio": 0.5}\n\n{"mode": "topk", "ratio": 0.4}\n',
          "attack_reports.jsonl line 3", "missing field 'query_kind'"),
         ("defense_eval.jsonl", '{"seed": 1}\n{"seed": \n', "defense_eval.jsonl line 2", "not valid JSON")],
        ids=["bad-json", "not-an-object", "jsonl-missing-field", "jsonl-bad-line"],
    )
    def test_malformed_document_is_an_input_error_naming_it(self, tmp_path, capsys, name, text, where, message):
        (tmp_path / name).write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: report document {tmp_path / where}: {message}")
        assert "Traceback" not in err
