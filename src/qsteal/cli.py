"""Command-line entry point.

Whole experiments are described by one YAML config; flags only choose the
subcommand, config path, output directory, and an optional seed override.
Subcommands: train-victim, attack, defend-eval, report.  Result documents
are written atomically; log lines go to stderr, result paths to stdout.

Exit codes: 0 success; 1 an internal error (or, for attack, a failed
sweep cell; for report, no documents); 2 a config or device-registry
error, naming the offending field; 3 a config file that cannot be read.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from .attack import AttackSpec, build_queries, loss_for, run_attack_suite, save_reports
from .circuits import TEMPLATE_IDS, PQCTemplate
from .data import (
    DatasetError, LabeledDataset, load_csv, make_blobs, make_npd_sources, scale_features, train_test_split,
)
from .defense import (
    baseline_of, evaluate_defended_attack, havip, hvip, measure_obfuscation, no_defense, selection_probs,
)
from .devices import YAML_LOADER, DeviceRegistry, RegistryError, default_registry, load_registry
from .metrics import accuracy
from .model import atomic_write, init_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class InputError(Exception):
    """An input file that cannot be read."""


#: the default of a field that every section of its kind sets
_REQUIRED = object()

# Each config section is read through one table, key -> (type, default); a
# default of None is "unset", and the code that reads the field says what
# that means.
_ROOT = {"seed": (int, 0), "shots": (None, "analytic"), "devices_file": (str, None), "task": (dict, _REQUIRED),
         "victim": (dict, None), "attack": (dict, None), "defense": (dict, None)}
_TASK = {"kind": (str, "blobs"), "k": (int, 4), "d": (int, 8), "n_per_class": (int, 150), "separation": (float, 8.0),
         "seed": (int, 7), "path": (str, None), "train_size": (int, None), "train_fraction": (float, 0.7)}
_VICTIM = {"template": (str, _REQUIRED), "n_qubits": (int, _REQUIRED), "layers": (int, 1), "device": (str, "ideal"),
           "schedule": (list, None), "train": (dict, None)}
#: TrainConfig's fields but `shots`, which the root section sets, with its defaults
_TRAIN = {key: (kind, getattr(TrainConfig, key)) for key, kind in (
    ("epochs", int), ("learning_rate", float), ("batch_size", int), ("loss", str), ("spsa_c", float),
    ("spsa_draws", int))}
_SCHEDULE_ENTRY = {"device": (str, _REQUIRED), "epochs": (int, _REQUIRED)}
_ATTACK = {"mode": (str, AttackSpec.mode), "da_size": (int, AttackSpec.da_size),
           "query_kind": (str, AttackSpec.query_kind), "clone": (dict, None), "train": (dict, None),
           "sweep": (dict, None), "seeds": (list, None), "victim_device": (str, "ideal"),
           "victim_checkpoint": (str, None)}
#: a defense's attack runs against the defended service, never a victim of its own
_DEFENSE_ATTACK = {key: entry for key, entry in _ATTACK.items() if key not in ("victim_device", "victim_checkpoint")}
_CLONE = {"template": (str, AttackSpec.clone_template), "n_qubits": (int, AttackSpec.clone_qubits),
          "layers": (int, AttackSpec.clone_layers), "device": (str, "ideal")}
#: sweep axis -> (AttackSpec field, value type); an unset axis holds the section's own value
_SWEEP_AXES = {"modes": ("mode", str), "da_sizes": ("da_size", int), "query_kinds": ("query_kind", str),
               "widths": ("clone_qubits", int)}
_SWEEP = {axis: (list, None) for axis in _SWEEP_AXES}
_DEFENSE = {"policy": (str, _REQUIRED), "devices": (list, None), "victims": (list, None), "probs": (list, None),
            "n_queries": (int, 300), "query_kind": (str, "mixed"), "seeds": (list, None), "attack": (dict, None)}


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _check(here: str, value, kind):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(here, f"expected {getattr(kind, '__name__', kind)}, got {value!r}")
    return value


def _section(doc, path: str, table: dict) -> dict:
    """The fields of the section `doc` at `path`, read through `table`: a set
    field is type-checked, an unset one (or a null where the default is None)
    takes its default, and a key the table does not list is an error."""
    if doc is None:
        raise ConfigError(path, "missing required field")
    for key in _check(path, doc, dict):
        if key not in table:
            raise ConfigError(_at(path, key), f"unknown field; known: {', '.join(table)}")
    values = {}
    for key, (kind, default) in table.items():
        value = doc.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(_at(path, key), "missing required field")
        values[key] = value if value is default else _check(_at(path, key), value, kind)
    return values


def _unread(doc: dict, path: str, keys, reason: str) -> None:
    """Reject each of `keys` that `doc` sets: under `reason` nothing reads it."""
    for key in keys:
        if doc.get(key) is not None:
            raise ConfigError(_at(path, key), f"set, but never read {reason}")


def _seed(here: str, value) -> int:
    """The seed at `here`: a nonnegative int, the only kind numpy's streams take."""
    value = _check(here, value, int)
    if value < 0:
        raise ConfigError(here, f"expected a nonnegative integer, got {value}")
    return value


def _seeds(seeds, path: str, seed: int) -> list[int]:
    """The nonempty seed list `seeds` of the section at `path`; [seed] when unset."""
    if seeds is None:
        return [seed]
    if not seeds:
        raise ConfigError(f"{path}.seeds", "needs at least one seed")
    return [_seed(f"{path}.seeds[{i}]", s) for i, s in enumerate(seeds)]


def _registry(path) -> DeviceRegistry:
    if not path:
        return default_registry()
    try:
        return load_registry(Path(path))
    except RegistryError as exc:
        raise ConfigError("devices_file", str(exc)) from exc


def _device(registry: DeviceRegistry, name: str, path: str):
    try:
        return registry.get(name)
    except RegistryError as exc:
        raise ConfigError(path, str(exc)) from exc


def _shots(value):
    if value in ("analytic", None):
        return None
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise ConfigError("shots", f"expected 'analytic' or a positive integer, got {value!r}")


def _train_cfg(doc: dict | None, path: str, shots) -> TrainConfig:
    values = _section(doc or {}, path, _TRAIN)
    try:
        return TrainConfig(shots=shots, **values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _task(doc) -> tuple[LabeledDataset, LabeledDataset, functools.partial]:
    """The train and test splits of the task section, and a maker of the
    non-problem-domain query sources shaped like it."""
    task = _section(doc, "task", _TASK)
    _seed("task.seed", task["seed"])
    _unread(doc, "task", {"blobs": ("path",), "csv": ("k",)}.get(task["kind"], ()), f"for kind {task['kind']!r}")
    if task["kind"] == "blobs":
        try:
            ds = make_blobs(task["k"], task["d"], task["n_per_class"], task["separation"], task["seed"])
        except DatasetError as exc:
            raise ConfigError("task", str(exc)) from exc
    elif task["kind"] == "csv":
        path = task["path"]
        if path is None:
            raise ConfigError("task.path", "missing required field")
        try:
            ds = scale_features(load_csv(path, task["d"]))
        except OSError as exc:
            raise ConfigError("task.path", f"data file {path}: cannot be read ({exc.strerror or exc})") from exc
        except DatasetError as exc:
            raise ConfigError("task.path", str(exc)) from exc
    else:
        raise ConfigError("task.kind", f"expected 'blobs' or 'csv', got {task['kind']!r}")
    try:
        train_ds, test_ds = train_test_split(ds, task["seed"], task["train_fraction"], task["train_size"])
    except DatasetError as exc:
        raise ConfigError("task", str(exc)) from exc
    return train_ds, test_ds, functools.partial(
        make_npd_sources, train_ds.k, train_ds.d, task["n_per_class"], task["separation"], task["seed"])


def _schedule(entries, path: str, registry, cfg: TrainConfig):
    """The (device, epochs) list of `path.schedule`; None when unset or empty."""
    if not entries:
        return None
    sched = []
    for i, entry in enumerate(entries):
        here = f"{path}.schedule[{i}]"
        values = _section(entry, here, _SCHEDULE_ENTRY)
        if values["epochs"] < 0:
            raise ConfigError(f"{here}.epochs", f"negative epoch count {values['epochs']}")
        sched.append((_device(registry, values["device"], f"{here}.device"), values["epochs"]))
    total = sum(e for _, e in sched)
    if total != cfg.epochs:
        raise ConfigError(f"{path}.schedule", f"covers {total} epochs, train.epochs is {cfg.epochs}")
    return sched


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# victims: every section is read before the first one trains
# ---------------------------------------------------------------------------

def _hvip_schedule(devices, epochs: int) -> list:
    """Most epochs on the first device and the last 5 on the second, so the
    victim tolerates both; every epoch on the first when there are 5 or fewer."""
    if len(devices) > 2:
        raise ConfigError("defense.devices", "more than two devices need an explicit victim.schedule")
    if epochs > 5:
        return [(devices[0], epochs - 5), (devices[1], 5)]
    return [(devices[0], epochs)]


def _victim(doc, path: str, registry, shots, hvip_devices=None) -> tuple:
    """The template, train config, schedule and serving device of the victim
    at `path`: its own schedule, else HVIP's over `hvip_devices`, else its device."""
    values = _section(doc, path, _VICTIM)
    tid = values["template"]
    if tid not in TEMPLATE_IDS:
        raise ConfigError(f"{path}.template", f"unknown template {tid!r}; known: {list(TEMPLATE_IDS)}")
    try:
        template = PQCTemplate(tid, values["n_qubits"], values["layers"])
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    cfg = _train_cfg(values["train"], f"{path}.train", shots)
    if cfg.loss != "nll_top1":
        raise ConfigError(f"{path}.train.loss", f"a victim learns class labels with 'nll_top1', got {cfg.loss!r}")
    device = _device(registry, values["device"], f"{path}.device")
    schedule = _schedule(values["schedule"], path, registry, cfg)
    if schedule is None and hvip_devices:
        schedule = _hvip_schedule(hvip_devices, cfg.epochs)
    if schedule is None:
        return template, cfg, device, device
    # a device the config sets is served, so the victim must have trained on it
    if "device" in doc and device.name not in {profile.name for profile, _ in schedule}:
        raise ConfigError(f"{path}.device", f"the schedule never trains on {device.name!r}")
    return template, cfg, schedule, device


def _train_victim(victim: tuple, train_ds: LabeledDataset, test_ds: LabeledDataset, seed: int):
    template, cfg, schedule, _ = victim
    model = init_model(template, train_ds.k, seed)
    return train(model, train_ds.features, train_ds.labels, cfg, schedule, seed, test_ds.features, test_ds.labels)


def cmd_train_victim(config: dict, out: Path, seed: int) -> int:
    registry = _registry(config["devices_file"])
    shots = _shots(config["shots"])
    train_ds, test_ds, _ = _task(config["task"])
    victim = _victim(config["victim"], "victim", registry, shots)
    trained, history = _train_victim(victim, train_ds, test_ds, seed)
    _log(f"trained victim on {train_ds.n} samples; final test accuracy {history.final.test_accuracy:.3f}")
    ckpt = out / "victim.checkpoint.json"
    save_checkpoint(trained, ckpt, seed=seed)
    hist_path = out / "victim.history.json"
    atomic_write(hist_path, json.dumps(asdict(history), indent=1))
    print(ckpt)
    print(hist_path)
    return 0


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

#: clone section key -> AttackSpec field
_CLONE_FIELDS = {"template": "clone_template", "n_qubits": "clone_qubits", "layers": "clone_layers"}


def _respec(spec: AttackSpec, here: str, **fields) -> AttackSpec:
    """`spec` with `fields` replaced; a value AttackSpec rejects is a config error at `here`."""
    try:
        return replace(spec, **fields)
    except ValueError as exc:
        raise ConfigError(here, str(exc)) from exc


def _attack_section(values: dict, path: str, registry, shots, seed: int):
    """The sweep cells, clone train config and clone device of the attack
    section read into `values` at `path`; every error names its field."""
    clone = _section(values["clone"] or {}, f"{path}.clone", _CLONE)
    # one field at a time, the clone template before its width, so that a
    # rejection names the field that caused it
    base = AttackSpec()
    for key, field in _CLONE_FIELDS.items():
        base = _respec(base, f"{path}.clone.{key}", **{field: clone[key]})
    for key in ("mode", "da_size", "query_kind"):
        base = _respec(base, f"{path}.{key}", **{key: values[key]})
    cfg = _train_cfg(values["train"], f"{path}.train", shots)
    sweep = _section(values["sweep"] or {}, f"{path}.sweep", _SWEEP)
    axes = [_seeds(values["seeds"], path, seed)]
    for axis, (field, kind) in _SWEEP_AXES.items():
        points = [getattr(base, field)] if sweep[axis] is None else sweep[axis]
        for i, value in enumerate(points):
            here = f"{path}.sweep.{axis}[{i}]"
            _respec(base, here, **{field: _check(here, value, kind)})
        axes.append(points)
    # a sweep over modes sets each cell's loss from its mode
    if sweep["modes"]:
        _unread(values["train"] or {}, f"{path}.train", ("loss",), "under a sweep over modes")
    elif "loss" in (values["train"] or {}) and cfg.loss != loss_for(base.mode):
        raise ConfigError(f"{path}.train.loss",
                          f"{base.mode} responses need {loss_for(base.mode)!r}, got {cfg.loss!r}")
    clone_device = _device(registry, clone["device"], f"{path}.clone.device")
    specs = [
        replace(base, mode=mode, da_size=da_size, query_kind=kind, clone_qubits=width, seed=cell_seed)
        for cell_seed, mode, da_size, kind, width in itertools.product(*axes)
    ]
    return specs, cfg, clone_device


def cmd_attack(config: dict, out: Path, seed: int) -> int:
    registry = _registry(config["devices_file"])
    shots = _shots(config["shots"])
    train_ds, test_ds, sources = _task(config["task"])
    values = _section(config["attack"], "attack", _ATTACK)
    specs, cfg, clone_device = _attack_section(values, "attack", registry, shots, seed)
    victim_device = _device(registry, values["victim_device"], "attack.victim_device")
    ckpt_path = values["victim_checkpoint"]
    if ckpt_path:
        try:
            victim, _ = load_checkpoint(ckpt_path)
        except OSError as exc:
            raise ConfigError(
                "attack.victim_checkpoint", f"checkpoint file {ckpt_path}: cannot be read ({exc.strerror or exc})"
            ) from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError("attack.victim_checkpoint", f"checkpoint file {ckpt_path}: malformed ({exc})") from exc
        if victim.k != train_ds.k:
            raise ConfigError("attack.victim_checkpoint", "checkpoint class count does not match the task")
    else:
        victim, _ = _train_victim(_victim(config["victim"], "victim", registry, shots), train_ds, test_ds, seed)
    victim_acc = accuracy(victim, test_ds, victim_device, shots, seed=seed)
    service = no_defense(victim, victim_device, shots, seed=seed)
    reports, errors = run_attack_suite(
        service,
        specs,
        query_sources=sources(),
        d=train_ds.d,
        train_cfg=cfg,
        clone_profile=clone_device,
        eval_data=test_ds,
        victim_accuracy=victim_acc,
    )
    for spec, message in errors:
        _log(f"cell {spec.label()} failed: {message}")
    for r in reports:
        _log(f"cell done: mode={r.mode} kind={r.query_kind} |D_A|={r.da_size} "
             f"width={r.clone_qubits} seed={r.seed} ratio={r.ratio:.3f}")
    path = out / "attack_reports.jsonl"
    save_reports(reports, path)
    print(path)
    return 0 if not errors else 1


# ---------------------------------------------------------------------------
# defense evaluation
# ---------------------------------------------------------------------------

def cmd_defend_eval(config: dict, out: Path, seed: int) -> int:
    registry = _registry(config["devices_file"])
    shots = _shots(config["shots"])
    train_ds, test_ds, sources = _task(config["task"])
    doc = _section(config["defense"], "defense", _DEFENSE)
    policy = doc["policy"]
    unread = {"none": ("probs", "devices", "victims"), "hvip": ("victims",), "havip": ("devices",)}
    _unread(doc, "defense", unread.get(policy, ()), f"under policy {policy!r}")
    if policy == "havip":
        _unread(config, "", ("victim",), "under policy 'havip', whose victims are defense.victims")
    probs = doc["probs"] and [_check(f"defense.probs[{i}]", p, float) for i, p in enumerate(doc["probs"])]
    queries = _respec(AttackSpec(seed=seed), "defense.n_queries", da_size=doc["n_queries"])
    queries = _respec(queries, "defense.query_kind", query_kind=doc["query_kind"])
    service_seeds = _seeds(doc["seeds"], "defense", seed)
    attack_values = doc["attack"] and _section(doc["attack"], "defense.attack", _DEFENSE_ATTACK)
    attack = attack_values and _attack_section(attack_values, "defense.attack", registry, shots, seed)

    if policy == "hvip":
        devices = [_device(registry, n, f"defense.devices[{i}]") for i, n in enumerate(doc["devices"] or [])]
        if len(devices) < 2 or len({d.name for d in devices}) != len(devices):
            raise ConfigError("defense.devices", "hvip needs at least two distinct devices")
        victims = [_victim(config["victim"], "victim", registry, shots, hvip_devices=devices)]
    elif policy == "havip":
        docs = doc["victims"] or []
        if len(docs) < 2:
            raise ConfigError("defense.victims", "havip needs at least two victim specs")
        victims = [_victim(vdoc, f"defense.victims[{i}]", registry, shots) for i, vdoc in enumerate(docs)]
    elif policy == "none":
        victims = [_victim(config["victim"], "victim", registry, shots)]
    else:
        raise ConfigError("defense.policy", f"expected none|hvip|havip, got {policy!r}")
    if probs is not None:
        try:
            selection_probs(probs, len(devices) if policy == "hvip" else len(victims))
        except ValueError as exc:
            raise ConfigError("defense.probs", str(exc)) from exc

    # havip's i-th victim trains on seed + i
    models = [_train_victim(victim, train_ds, test_ds, seed + i)[0] for i, victim in enumerate(victims)]
    if policy == "hvip":
        service = hvip(models[0], devices, probs, shots, seed=seed)
    else:
        pairs = [(model, device) for model, (*_, device) in zip(models, victims)]
        service = havip(pairs, probs, shots, seed) if policy == "havip" else no_defense(*pairs[0], shots, seed)

    query_sources = sources()
    qs = build_queries(queries, query_sources, train_ds.d)
    obf = measure_obfuscation(service, baseline_of(service), qs, seeds=service_seeds)
    _log(f"obfuscation: mean TVD {obf.mean_tvd:.4f}, top-1 mismatch {obf.top1_mismatch_rate:.4f}")
    obf_path = out / "obfuscation.json"
    atomic_write(obf_path, json.dumps(obf.to_dict(), indent=1))
    print(obf_path)

    if attack:
        specs, cfg, clone_device = attack
        victim_acc = accuracy(service.pairs[0][0], test_ds, service.pairs[0][1], shots, seed=seed)
        results = []
        for spec in specs:
            result = evaluate_defended_attack(
                service,
                spec,
                query_sources=query_sources,
                d=train_ds.d,
                train_cfg=cfg,
                clone_profile=clone_device,
                eval_data=test_ds,
                victim_accuracy=victim_acc,
            )
            _log(f"defended attack seed {spec.seed}: gap {result.accuracy_gap:+.3f}")
            results.append(result)
        eval_path = out / "defense_eval.jsonl"
        atomic_write(eval_path, "\n".join(json.dumps(r.to_dict()) for r in results) + "\n")
        print(eval_path)
    return 0


# ---------------------------------------------------------------------------
# report aggregation
# ---------------------------------------------------------------------------

def cmd_report(out: Path) -> int:
    found = False
    for path in sorted(out.glob("*.jsonl")) + sorted(out.glob("*.json")):
        found = True
        print(f"# {path}")
        if path.suffix == ".jsonl":
            records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
            if records and "ratio" in records[0]:
                groups: dict[tuple, list[float]] = {}
                for r in records:
                    key = (r["mode"], r["query_kind"], r["da_size"], r["clone_template"], r["clone_qubits"])
                    groups.setdefault(key, []).append(r["ratio"])
                for key, ratios in sorted(groups.items()):
                    mode, kind, da, tmpl, width = key
                    print(
                        f"  mode={mode} kind={kind} |D_A|={da} clone={tmpl}x{width}: "
                        f"mean ratio {np.mean(ratios):.3f} over {len(ratios)} seed(s)"
                    )
            else:
                for r in records:
                    print(f"  {json.dumps(r)}")
        else:
            doc = json.loads(path.read_text())
            summary = {k: v for k, v in doc.items() if not isinstance(v, (list, dict))}
            print(f"  {json.dumps(summary)}")
    if not found:
        _log(f"no report documents under {out}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsteal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train-victim", "attack", "defend-eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config YAML")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed-override", type=int, default=None)
    p = sub.add_parser("report")
    p.add_argument("--out", default="results", help="directory of result documents")
    return parser


def _read_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"config file {path}: cannot be read ({exc.strerror or exc})") from exc
    try:
        config = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"{path} is not valid YAML ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(Path(args.out))
    try:
        config = _section(_read_config(Path(args.config)), "", _ROOT)
        seed = _seed("seed", config["seed"])
        if args.seed_override is not None:
            seed = _seed("--seed-override", args.seed_override)
        out = Path(args.out)
        if args.command == "train-victim":
            return cmd_train_victim(config, out, seed)
        if args.command == "attack":
            return cmd_attack(config, out, seed)
        return cmd_defend_eval(config, out, seed)
    except (ConfigError, RegistryError) as exc:
        _log(f"config error: {exc}")
        return 2
    except InputError as exc:
        _log(f"input error: {exc}")
        return 3
    except Exception:
        _log(f"internal error:\n{traceback.format_exc()}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
