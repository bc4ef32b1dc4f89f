"""The model-stealing attack: query the victim, build the adversarial
dataset, and train a clone on the responses.

The attack only ever touches the victim through its `predict` endpoint.
Responses are either the full probability vector (top-k) or just the
argmax label (top-1, ties to the lowest index).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

import numpy as np

from .circuits import PQCTemplate
from .data import LabeledDataset, QuerySet, mixed_query_set, random_query_set
from .devices import DeviceProfile
from .metrics import accuracy, clone_ratio
from .model import HybridModel, init_model
from .training import TrainConfig, TrainHistory, train

MODES = ("top1", "topk")


def loss_for(mode: str) -> str:
    """The training loss that fits a response mode's targets."""
    return "kl_topk" if mode == "topk" else "nll_top1"


class QueryService(Protocol):
    """The only victim surface the attacker sees."""

    def predict(self, x: np.ndarray) -> np.ndarray: ...


class QueryError(RuntimeError):
    def __init__(self, index: int, retries: int, cause: Exception):
        super().__init__(f"query {index} failed after {retries} retries: {cause}")
        self.index = index
        self.retries = retries


@dataclass(frozen=True)
class AdversarialDataset:
    """Query features paired with victim responses."""

    features: np.ndarray  # (M, d)
    responses: np.ndarray  # (M,) labels for top1, (M, k) vectors for topk
    mode: str
    k: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        features = np.asarray(self.features, dtype=np.float64)
        if self.mode == "topk":
            responses = np.asarray(self.responses, dtype=np.float64)
            if responses.shape != (features.shape[0], self.k):
                raise ValueError("topk responses must be (M, k)")
            if np.any(np.abs(responses.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("topk responses must sum to 1")
        else:
            responses = np.asarray(self.responses, dtype=np.int64)
            if responses.shape != (features.shape[0],):
                raise ValueError("top1 responses must be (M,)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "responses", responses)

    @property
    def m(self) -> int:
        return self.features.shape[0]


def query_victim(service: QueryService, qs: QuerySet, mode: str, retries: int = 2) -> AdversarialDataset:
    """One response per query, in order.  Per-query failures are retried;
    persistent failures surface as QueryError with the retry count."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if qs.m < 1:
        raise ValueError("query set is empty")
    vectors = []
    for i, x in enumerate(qs.features):
        for attempt in range(retries + 1):
            try:
                vectors.append(np.asarray(service.predict(x), dtype=np.float64))
                break
            except Exception as exc:  # noqa: BLE001 - endpoint errors are data here
                if attempt == retries:
                    raise QueryError(i, retries, exc) from exc
    k = vectors[0].shape[0]
    if mode == "topk":
        responses = np.stack(vectors)
    else:
        responses = np.array([int(np.argmax(v)) for v in vectors], dtype=np.int64)
    return AdversarialDataset(qs.features, responses, mode, k)


def train_clone(
    da: AdversarialDataset,
    template: PQCTemplate,
    cfg: TrainConfig,
    profile: DeviceProfile | None,
    seed: int,
    eval_data: LabeledDataset | None = None,
) -> tuple[HybridModel, TrainHistory]:
    """Train a substitute model on the adversarial dataset.

    The clone's encoder re-blocks the d query features for its own qubit
    count, so clone width is free to differ from the victim's.
    """
    if da.m < 1:
        raise ValueError("adversarial dataset is empty")
    expected = loss_for(da.mode)
    if cfg.loss != expected:
        raise ValueError(f"{da.mode} responses need loss {expected!r}, config has {cfg.loss!r}")
    clone = init_model(template, da.k, seed)
    eval_x = eval_data.features if eval_data is not None else None
    eval_y = eval_data.labels if eval_data is not None else None
    return train(clone, da.features, da.responses, cfg, profile, seed, eval_x, eval_y)


# ---------------------------------------------------------------------------
# sweep orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackSpec:
    """One cell of an attack sweep."""

    mode: str = "topk"
    da_size: int = 700
    query_kind: str = "mixed"  # "mixed" | "random"
    clone_template: str = "PQC19"
    clone_qubits: int = 4
    clone_layers: int = 1
    seed: int = 0

    def label(self) -> str:
        return (
            f"{self.mode}-{self.query_kind}-m{self.da_size}"
            f"-{self.clone_template.lower()}x{self.clone_qubits}-s{self.seed}"
        )


@dataclass(frozen=True)
class AttackReport:
    victim_accuracy: float
    clone_accuracy: float
    ratio: float
    mode: str
    da_size: int
    query_kind: str
    clone_template: str
    clone_qubits: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "victim_accuracy": self.victim_accuracy,
            "clone_accuracy": self.clone_accuracy,
            "ratio": self.ratio,
            "mode": self.mode,
            "da_size": self.da_size,
            "query_kind": self.query_kind,
            "clone_template": self.clone_template,
            "clone_qubits": self.clone_qubits,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AttackReport":
        return cls(**doc)


def build_queries(spec: AttackSpec, query_sources: list[LabeledDataset], d: int) -> QuerySet:
    if spec.query_kind == "mixed":
        return mixed_query_set(query_sources, spec.da_size, spec.seed)
    if spec.query_kind == "random":
        return random_query_set(spec.da_size, d, spec.seed)
    raise ValueError(f"unknown query kind {spec.query_kind!r}")


def run_attack(
    service: QueryService,
    spec: AttackSpec,
    *,
    query_sources: list[LabeledDataset],
    d: int,
    train_cfg: TrainConfig,
    clone_profile: DeviceProfile | None,
    eval_data: LabeledDataset,
    victim_accuracy: float,
) -> tuple[HybridModel, AttackReport]:
    """Query -> adversarial dataset -> clone training -> report."""
    qs = build_queries(spec, query_sources, d)
    da = query_victim(service, qs, spec.mode)
    cfg = replace(train_cfg, loss=loss_for(spec.mode))
    template = PQCTemplate(spec.clone_template, spec.clone_qubits, spec.clone_layers)
    clone, _ = train_clone(da, template, cfg, clone_profile, spec.seed)
    clone_acc = accuracy(clone, eval_data, clone_profile, cfg.shots, seed=spec.seed)
    report = AttackReport(
        victim_accuracy=victim_accuracy,
        clone_accuracy=clone_acc,
        ratio=clone_ratio(clone_acc, victim_accuracy),
        mode=spec.mode,
        da_size=spec.da_size,
        query_kind=spec.query_kind,
        clone_template=spec.clone_template,
        clone_qubits=spec.clone_qubits,
        seed=spec.seed,
    )
    return clone, report


def run_attack_suite(
    service: QueryService,
    specs: list[AttackSpec],
    **shared,
) -> tuple[list[AttackReport], list[tuple[AttackSpec, str]]]:
    """Run each sweep cell independently; failures are collected, not fatal."""
    reports, errors = [], []
    for spec in specs:
        try:
            _, report = run_attack(service, spec, **shared)
            reports.append(report)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            errors.append((spec, str(exc)))
    return reports, errors


def save_reports(reports: list[AttackReport], path) -> None:
    """One JSON record per line, append-friendly for sweep aggregation."""
    lines = [json.dumps(r.to_dict()) for r in reports]
    Path(path).write_text("\n".join(lines) + "\n")


def load_reports(path) -> list[AttackReport]:
    reports = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            reports.append(AttackReport.from_dict(json.loads(line)))
    return reports
