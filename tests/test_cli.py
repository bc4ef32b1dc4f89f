"""CLI subcommands: validation errors, output documents, determinism."""

import itertools
import json
from pathlib import Path

import pytest
import yaml

from qsteal.attack import AttackSpec
from qsteal.cli import _attack_section, _train_cfg, main
from qsteal.devices import IDEAL, DeviceProfile, DeviceRegistry, default_registry, save_registry
from qsteal.training import TrainConfig

TINY = {
    "seed": 1,
    "shots": "analytic",
    "task": {
        "kind": "blobs", "k": 3, "d": 4, "n_per_class": 12, "separation": 6.0,
        "seed": 5, "train_fraction": 0.7,
    },
    "victim": {
        "template": "PQC19", "n_qubits": 2, "layers": 1, "device": "ideal",
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
        specs, cfg, device = _attack_section({}, "attack", default_registry(), None, 3)
        assert specs == [AttackSpec(seed=3)]
        assert cfg == TrainConfig() and device == IDEAL

    def test_set_fields_reach_the_spec(self):
        doc = {"mode": "top1", "da_size": 9, "query_kind": "random",
               "clone": {"template": "PQC6", "n_qubits": 3, "layers": 2}}
        specs, _, _ = _attack_section(doc, "attack", default_registry(), None, 0)
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
        save_registry(DeviceRegistry([DeviceProfile(name="devCustom", p1=0.001)]), devices)
        cfg = _write_config(tmp_path, {"victim.device": "devCustom"}, devices_file=str(devices))
        out = tmp_path / "out"
        assert main(["train-victim", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "victim.checkpoint.json").is_file()

    def test_width_over_the_qubit_cap_names_field(self, tmp_path, capsys, no_training):
        cfg = _write_config(tmp_path, {"victim.n_qubits": 9})
        assert main(["train-victim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "victim" in err and "8-qubit cap" in err

    @pytest.mark.parametrize("contents", [None, "1.0,2.0\n"], ids=["missing", "malformed"])
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
         ("sweep", {"modes": ["bogus"]}, "attack.sweep.modes"),
         ("sweep", {"query_kinds": ["bogus"]}, "attack.sweep.query_kinds"),
         ("clone.template", "PQC99", "attack.clone.template"),
         ("sweep", {"widths": [1]}, "attack.sweep.widths")],
        ids=["train", "seeds", "sweep.modes", "sweep.query_kinds", "clone.template", "sweep.widths"],
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
        cfg = _write_config(tmp_path, {"attack.sweep": sweep, "attack.seeds": axes["seeds"]})
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

    def test_havip_requires_two_victims(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"defense.policy": "havip", "defense.victims": [
                {"template": "PQC1", "n_qubits": 2, "device": "devA",
                 "train": {"epochs": 1, "spsa_draws": 1, "batch_size": 8}},
            ]},
        )
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
        [("query_kind", "bogus"), ("n_queries", 0), ("seeds", 5)],
        ids=["query_kind", "n_queries", "seeds"],
    )
    def test_measurement_fields_checked_before_training(self, tmp_path, capsys, no_training, key, value):
        cfg = _write_config(tmp_path, {f"defense.{key}": value})
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"defense.{key}" in capsys.readouterr().err
        assert not (out / "obfuscation.json").exists()

    def test_none_policy_reports_zero_tvd(self, tmp_path):
        cfg = _write_config(tmp_path, {"defense.policy": "none"})
        out = tmp_path / "out"
        assert main(["defend-eval", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "obfuscation.json").read_text())
        assert doc["mean_tvd"] == 0.0


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
