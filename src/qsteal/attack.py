"""The model-stealing attack: query the victim, build the adversarial
dataset, and train a clone on the responses.

The attack only ever touches the victim through its `predict` endpoint.
Responses are either the full probability vector (top-k) or just the
argmax label (top-1, ties to the lowest index).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Protocol

import numpy as np

from .circuits import PQCTemplate
from .data import LabeledDataset, QuerySet, mixed_query_set, random_query_set
from .devices import DeviceProfile
from .metrics import accuracy, clone_ratio
from .model import HybridModel, atomic_write, init_model
from .training import TrainConfig, TrainHistory, train

MODES = ("top1", "topk")
QUERY_KINDS = ("mixed", "random")


def loss_for(mode: str) -> str:
    """The training loss that fits a response mode's targets."""
    return "kl_topk" if mode == "topk" else "nll_top1"


class QueryService(Protocol):
    """The only victim surface the attacker sees: class probabilities for
    one input (d,) -> (k,) or a batch (B, d) -> (B, k)."""

    def predict(self, x: np.ndarray) -> np.ndarray: ...


class QueryError(RuntimeError):
    def __init__(self, n_queries: int, retries: int, cause: Exception):
        super().__init__(f"predict over {n_queries} queries failed after {retries} retries: {cause}")
        self.n_queries = n_queries
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
    """One response per query, in order, from one predict call over the
    whole query set.  A failed call is retried as a unit; persistent
    failure surfaces as QueryError with the retry count."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if qs.m < 1:
        raise ValueError("query set is empty")
    for attempt in range(retries + 1):
        try:
            vectors = np.asarray(service.predict(qs.features), dtype=np.float64)
            break
        except Exception as exc:  # noqa: BLE001 - endpoint errors are data here
            if attempt == retries:
                raise QueryError(qs.m, retries, exc) from exc
    if vectors.ndim != 2 or vectors.shape[0] != qs.m:
        raise ValueError(f"the service answered {qs.m} queries with an array of shape {vectors.shape}")
    if mode == "topk":
        responses = vectors
    else:
        responses = vectors.argmax(axis=1)
    return AdversarialDataset(qs.features, responses, mode, vectors.shape[1])


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
    query_kind: str = "mixed"
    clone_template: str = "PQC19"
    clone_qubits: int = 4
    clone_layers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.query_kind not in QUERY_KINDS:
            raise ValueError(f"query_kind must be one of {QUERY_KINDS}, got {self.query_kind!r}")
        if self.da_size < 1:
            raise ValueError(f"da_size must be >= 1, got {self.da_size}")
        PQCTemplate(self.clone_template, self.clone_qubits, self.clone_layers)

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


def build_queries(spec: AttackSpec, query_sources: list[LabeledDataset], d: int) -> QuerySet:
    if spec.query_kind == "mixed":
        return mixed_query_set(query_sources, spec.da_size, spec.seed)
    return random_query_set(spec.da_size, d, spec.seed)


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
    """One JSON record per line, written atomically."""
    atomic_write(path, "\n".join(json.dumps(asdict(r)) for r in reports) + "\n")
