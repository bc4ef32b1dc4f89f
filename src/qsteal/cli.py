"""Command-line entry point.

Whole experiments are described by one YAML config; flags only choose the
subcommand, config path, output directory, and an optional seed override.
Subcommands: train-victim, attack, defend-eval, report.  Result documents
are written atomically; log lines go to stderr, result paths to stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .attack import AttackSpec, build_queries, loss_for, run_attack_suite, save_reports
from .circuits import TEMPLATE_IDS, PQCTemplate
from .data import (
    DatasetError, LabeledDataset, load_csv, make_blobs, make_npd_sources, scale_features, train_test_split,
)
from .defense import baseline_of, evaluate_defended_attack, havip, hvip, measure_obfuscation, no_defense
from .devices import DeviceRegistry, RegistryError, default_registry, load_registry
from .metrics import accuracy
from .model import init_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _check(here: str, value, kind):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(here, f"expected {getattr(kind, '__name__', kind)}, got {value!r}")
    return value


def _get(doc: dict, path: str, key: str, kind, default=...):
    here = f"{path}.{key}" if path else key
    if key not in doc:
        if default is ...:
            raise ConfigError(here, "missing required field")
        return default
    return _check(here, doc[key], kind)


def _set_fields(doc: dict, path: str, kinds: dict) -> dict:
    """The fields of `kinds` that `doc` sets, type-checked; the ones it
    leaves out are left to the defaults of the dataclass they build."""
    return {key: _get(doc, path, key, kind) for key, kind in kinds.items() if key in doc}


def _template(doc: dict, path: str) -> PQCTemplate:
    tid = _get(doc, path, "template", str)
    if tid not in TEMPLATE_IDS:
        raise ConfigError(f"{path}.template", f"unknown template {tid!r}; known: {list(TEMPLATE_IDS)}")
    n_qubits = _get(doc, path, "n_qubits", int)
    layers = _get(doc, path, "layers", int, 1)
    try:
        return PQCTemplate(tid, n_qubits, layers)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _seeds(doc: dict, path: str, seed: int) -> list[int]:
    """The integer list `seeds` of the section at `path`; [seed] when unset."""
    return [_check(f"{path}.seeds[{i}]", s, int) for i, s in enumerate(_get(doc, path, "seeds", list, [seed]))]


def _registry(config: dict) -> DeviceRegistry:
    path = _get(config, "", "devices_file", str, None)
    if path:
        try:
            return load_registry(Path(path))
        except RegistryError as exc:
            raise ConfigError("devices_file", str(exc)) from exc
    return default_registry()


def _device(registry: DeviceRegistry, name: str, path: str):
    try:
        return registry.get(name)
    except RegistryError as exc:
        raise ConfigError(path, str(exc)) from exc


def _shots(config: dict):
    value = config.get("shots", "analytic")
    if value in ("analytic", None):
        return None
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise ConfigError("shots", f"expected 'analytic' or a positive integer, got {value!r}")


_TRAIN_FIELDS = {
    "epochs": int, "learning_rate": float, "batch_size": int, "loss": str, "spsa_c": float, "spsa_draws": int,
}


def _train_cfg(doc: dict | None, path: str, shots) -> TrainConfig:
    doc = _check(path, doc or {}, dict)
    for key in doc:
        if key not in _TRAIN_FIELDS:
            raise ConfigError(f"{path}.{key}", "unknown field")
    fields = _set_fields(doc, path, _TRAIN_FIELDS)
    try:
        return TrainConfig(shots=shots, **fields)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _task(config: dict) -> tuple[LabeledDataset, LabeledDataset, dict]:
    doc = _get(config, "", "task", dict)
    kind = _get(doc, "task", "kind", str, "blobs")
    if kind == "blobs":
        params = {
            "k": _get(doc, "task", "k", int, 4),
            "d": _get(doc, "task", "d", int, 8),
            "n_per_class": _get(doc, "task", "n_per_class", int, 150),
            "separation": _get(doc, "task", "separation", float, 8.0),
            "seed": _get(doc, "task", "seed", int, 7),
        }
        ds = make_blobs(**params)
    elif kind == "csv":
        path = _get(doc, "task", "path", str)
        d = _get(doc, "task", "d", int, 8)
        try:
            ds = scale_features(load_csv(path, d))
        except OSError as exc:
            raise ConfigError("task.path", f"data file {path}: cannot be read ({exc.strerror or exc})") from exc
        except DatasetError as exc:
            raise ConfigError("task.path", str(exc)) from exc
        params = {"k": ds.k, "d": d, "seed": _get(doc, "task", "seed", int, 7)}
    else:
        raise ConfigError("task.kind", f"expected 'blobs' or 'csv', got {kind!r}")
    split_seed = _get(doc, "task", "seed", int, 7)
    train_size = _get(doc, "task", "train_size", int, None)
    fraction = _get(doc, "task", "train_fraction", float, 0.7)
    train_ds, test_ds = train_test_split(ds, split_seed, fraction, train_size)
    return train_ds, test_ds, params


def _npd_sources(train_ds: LabeledDataset, task_params: dict) -> list[LabeledDataset]:
    """Non-problem-domain query sources shaped like the task."""
    return make_npd_sources(
        task_params.get("k", train_ds.k),
        train_ds.d,
        task_params.get("n_per_class", 150),
        task_params.get("separation", 8.0),
        task_params.get("seed", 7),
    )


def _schedule(doc: dict, path: str, registry, cfg: TrainConfig, default_device):
    entries = doc.get("schedule")
    if not entries:
        return default_device
    sched = []
    for i, entry in enumerate(entries):
        device = _device(registry, _get(entry, f"{path}.schedule[{i}]", "device", str), f"{path}.schedule[{i}].device")
        epochs = _get(entry, f"{path}.schedule[{i}]", "epochs", int)
        sched.append((device, epochs))
    total = sum(e for _, e in sched)
    if total != cfg.epochs:
        raise ConfigError(f"{path}.schedule", f"covers {total} epochs, train.epochs is {cfg.epochs}")
    return sched


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(path: Path) -> None:
    print(str(path))


# ---------------------------------------------------------------------------
# victim training shared by subcommands
# ---------------------------------------------------------------------------

def _train_victim_model(
    config, registry, train_ds, test_ds, seed, shots, victim_doc=None, path="victim",
    default_schedule=None,
):
    doc = victim_doc if victim_doc is not None else _get(config, "", "victim", dict)
    template = _template(doc, path)
    cfg = _train_cfg(doc.get("train"), f"{path}.train", shots)
    device = _device(registry, _get(doc, path, "device", str, "ideal"), f"{path}.device")
    fallback = default_schedule if default_schedule is not None else device
    schedule = _schedule(doc, path, registry, cfg, fallback)
    model = init_model(template, train_ds.k, seed)
    trained, history = train(
        model, train_ds.features, train_ds.labels, cfg, schedule, seed,
        test_ds.features, test_ds.labels,
    )
    return trained, history, device, cfg


def cmd_train_victim(config: dict, out: Path, seed: int) -> int:
    registry = _registry(config)
    shots = _shots(config)
    train_ds, test_ds, _ = _task(config)
    trained, history, device, _cfg = _train_victim_model(config, registry, train_ds, test_ds, seed, shots)
    _log(f"trained victim on {train_ds.n} samples; final test accuracy {history.final.test_accuracy:.3f}")
    ckpt = out / "victim.checkpoint.json"
    save_checkpoint(trained, ckpt, seed=seed)
    hist_path = out / "victim.history.json"
    _atomic_write(hist_path, json.dumps(history.to_dict(), indent=1))
    _emit(ckpt)
    _emit(hist_path)
    return 0


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

#: clone section key -> AttackSpec field
_CLONE_FIELDS = {"template": "clone_template", "n_qubits": "clone_qubits", "layers": "clone_layers"}
#: sweep axis -> (AttackSpec field, value type)
_SWEEP_AXES = {"modes": ("mode", str), "da_sizes": ("da_size", int), "query_kinds": ("query_kind", str),
               "widths": ("clone_qubits", int)}


def _respec(spec: AttackSpec, here: str, **fields) -> AttackSpec:
    """`spec` with `fields` replaced; a value AttackSpec rejects is a config
    error at `here`."""
    try:
        return replace(spec, **fields)
    except ValueError as exc:
        raise ConfigError(here, str(exc)) from exc


def _attack_section(doc: dict, path: str, registry, shots, seed: int):
    """The sweep cells, clone train config and clone device of the attack
    section at `path`; every error names its field under `path`."""
    clone_doc = _get(doc, path, "clone", dict, {})
    # one field at a time, the clone template before its width, so that a
    # rejection names the field that caused it
    base = AttackSpec()
    clone = _set_fields(clone_doc, f"{path}.clone", {"template": str, "n_qubits": int, "layers": int})
    for key, value in clone.items():
        base = _respec(base, f"{path}.clone.{key}", **{_CLONE_FIELDS[key]: value})
    for key, value in _set_fields(doc, path, {"mode": str, "da_size": int, "query_kind": str}).items():
        base = _respec(base, f"{path}.{key}", **{key: value})
    cfg = _train_cfg(doc.get("train"), f"{path}.train", shots)
    sweep = _check(f"{path}.sweep", doc.get("sweep") or {}, dict)
    axes = [_seeds(doc, path, seed)]
    for axis, (field, kind) in _SWEEP_AXES.items():
        values = _get(sweep, f"{path}.sweep", axis, list, [getattr(base, field)])
        for i, value in enumerate(values):
            here = f"{path}.sweep.{axis}[{i}]"
            _respec(base, here, **{field: _check(here, value, kind)})
        axes.append(values)
    # a sweep over modes sets each cell's loss from its mode
    if "loss" in (doc.get("train") or {}) and not sweep.get("modes") and cfg.loss != loss_for(base.mode):
        raise ConfigError(
            f"{path}.train.loss", f"{base.mode} responses need {loss_for(base.mode)!r}, got {cfg.loss!r}"
        )
    clone_device = _device(
        registry, _get(clone_doc, f"{path}.clone", "device", str, "ideal"), f"{path}.clone.device"
    )
    specs = [
        replace(base, mode=mode, da_size=da_size, query_kind=kind, clone_qubits=width, seed=cell_seed)
        for cell_seed, mode, da_size, kind, width in itertools.product(*axes)
    ]
    return specs, cfg, clone_device


def cmd_attack(config: dict, out: Path, seed: int) -> int:
    registry = _registry(config)
    shots = _shots(config)
    train_ds, test_ds, task_params = _task(config)
    doc = _get(config, "", "attack", dict)
    specs, cfg, clone_device = _attack_section(doc, "attack", registry, shots, seed)
    victim_device = _device(registry, _get(doc, "attack", "victim_device", str, "ideal"), "attack.victim_device")

    ckpt_path = doc.get("victim_checkpoint")
    if ckpt_path:
        victim, _ = load_checkpoint(ckpt_path)
        if victim.k != train_ds.k:
            raise ConfigError("attack.victim_checkpoint", "checkpoint class count does not match the task")
    else:
        victim, _, _, _ = _train_victim_model(config, registry, train_ds, test_ds, seed, shots)
    victim_acc = accuracy(victim, test_ds, victim_device, shots, seed=seed)
    sources = _npd_sources(train_ds, task_params)
    service = no_defense(victim, victim_device, shots, seed=seed)
    reports, errors = run_attack_suite(
        service,
        specs,
        query_sources=sources,
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
    out.mkdir(parents=True, exist_ok=True)
    save_reports(reports, path)
    _emit(path)
    return 0 if not errors else 1


# ---------------------------------------------------------------------------
# defense evaluation
# ---------------------------------------------------------------------------

def cmd_defend_eval(config: dict, out: Path, seed: int) -> int:
    registry = _registry(config)
    shots = _shots(config)
    train_ds, test_ds, task_params = _task(config)
    doc = _get(config, "", "defense", dict)
    policy_kind = _get(doc, "defense", "policy", str)
    probs = doc.get("probs")
    n_queries = _get(doc, "defense", "n_queries", int, 300)
    queries = _respec(AttackSpec(seed=seed), "defense.n_queries", da_size=n_queries)
    queries = _respec(queries, "defense.query_kind", query_kind=_get(doc, "defense", "query_kind", str, "mixed"))
    service_seeds = _seeds(doc, "defense", seed)
    attack_doc = _get(doc, "defense", "attack", dict, None)
    attack = _attack_section(attack_doc, "defense.attack", registry, shots, seed) if attack_doc else None

    if policy_kind == "hvip":
        names = _get(doc, "defense", "devices", list)
        devices = [_device(registry, n, f"defense.devices[{i}]") for i, n in enumerate(names)]
        # without an explicit schedule, train mostly on the first device with
        # a short tail on the second so the victim tolerates both
        victim, history, _, _ = _train_victim_model(
            config, registry, train_ds, test_ds, seed, shots, default_schedule=list(devices)
        )
        service = hvip(victim, devices, probs, shots, seed=seed)
    elif policy_kind == "havip":
        victim_docs = _get(doc, "defense", "victims", list)
        if len(victim_docs) < 2:
            raise ConfigError("defense.victims", "havip needs at least two victim specs")
        pairs = []
        for i, vdoc in enumerate(victim_docs):
            path = f"defense.victims[{i}]"
            model, _, device, _ = _train_victim_model(
                config, registry, train_ds, test_ds, seed + i, shots, victim_doc=vdoc, path=path
            )
            pairs.append((model, device))
        service = havip(pairs, probs, shots, seed=seed)
    elif policy_kind == "none":
        victim, _, device, _ = _train_victim_model(config, registry, train_ds, test_ds, seed, shots)
        service = no_defense(victim, device, shots, seed=seed)
    else:
        raise ConfigError("defense.policy", f"expected none|hvip|havip, got {policy_kind!r}")

    sources = _npd_sources(train_ds, task_params)
    qs = build_queries(queries, sources, train_ds.d)
    obf = measure_obfuscation(service, baseline_of(service), qs, seeds=service_seeds)
    _log(f"obfuscation: mean TVD {obf.mean_tvd:.4f}, top-1 mismatch {obf.top1_mismatch_rate:.4f}")
    out.mkdir(parents=True, exist_ok=True)
    obf_path = out / "obfuscation.json"
    _atomic_write(obf_path, json.dumps(obf.to_dict(), indent=1))
    _emit(obf_path)

    if attack:
        specs, cfg, clone_device = attack
        victim_acc = accuracy(service.pairs[0][0], test_ds, service.pairs[0][1], shots, seed=seed)
        results = []
        for spec in specs:
            result = evaluate_defended_attack(
                service,
                spec,
                query_sources=sources,
                d=train_ds.d,
                train_cfg=cfg,
                clone_profile=clone_device,
                eval_data=test_ds,
                victim_accuracy=victim_acc,
            )
            _log(f"defended attack seed {spec.seed}: gap {result.accuracy_gap:+.3f}")
            results.append(result)
        eval_path = out / "defense_eval.jsonl"
        _atomic_write(eval_path, "\n".join(json.dumps(r.to_dict()) for r in results) + "\n")
        _emit(eval_path)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(Path(args.out))
    try:
        config = yaml.safe_load(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ConfigError("<root>", "config must be a mapping")
        seed = args.seed_override if args.seed_override is not None else _get(config, "", "seed", int, 0)
        out = Path(args.out)
        if args.command == "train-victim":
            return cmd_train_victim(config, out, seed)
        if args.command == "attack":
            return cmd_attack(config, out, seed)
        return cmd_defend_eval(config, out, seed)
    except (ConfigError, RegistryError, ValueError) as exc:
        _log(f"config error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
