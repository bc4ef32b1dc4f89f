"""Shared metrics: accuracy, total variation distance, mismatch rate, clone
ratio, and the reference-expectations registry that freezes regression bounds."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .data import LabeledDataset
from .devices import DeviceProfile
from .model import HybridModel, forward_batch

_EVAL_CHUNK = 256


def predict_labels(
    model: HybridModel,
    features: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Argmax class per row, ties to the lowest index; evaluated in chunks."""
    features = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, features.shape[0], _EVAL_CHUNK):
        probs = forward_batch(model, features[start : start + _EVAL_CHUNK], profile, shots, rng)
        out.append(probs.argmax(axis=1))
    return np.concatenate(out)


def accuracy(
    model: HybridModel,
    ds: LabeledDataset,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Fraction of argmax-correct predictions on the dataset."""
    if ds.n < 1:
        raise ValueError("accuracy needs a nonempty dataset")
    predicted = predict_labels(model, ds.features, profile, shots, seed)
    return float(np.mean(predicted == ds.labels))


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or np.any(p < -1e-9) or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} is not a probability distribution")
    return p


def tvd(p, q) -> float:
    """Total variation distance between two distributions: 0.5 * sum |p - q|."""
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError("distributions differ in length")
    return float(0.5 * np.abs(p - q).sum())


def mismatch_rate(labels_a, labels_b) -> float:
    """Fraction of positions where the two label lists disagree."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.size < 1:
        raise ValueError("label lists must have equal nonzero length")
    return float(np.mean(a != b))


def clone_ratio(clone_acc: float, victim_acc: float) -> float:
    """Clone test accuracy divided by victim test accuracy."""
    if victim_acc <= 0:
        raise ValueError("victim accuracy must be positive")
    return clone_acc / victim_acc


class Expectations:
    """Frozen reference-run values: experiment id -> (value, tolerance).

    The first pinned-seed run of a derived bound records its value here;
    later runs assert against it instead of re-deriving, turning stochastic
    training outcomes into stable regression tests.
    """

    def __init__(self, entries: dict | None = None):
        self.entries = dict(entries or {})

    @classmethod
    def load(cls, path) -> "Expectations":
        doc = yaml.safe_load(Path(path).read_text()) or {}
        return cls(doc.get("expectations", {}))

    def save(self, path) -> None:
        Path(path).write_text(yaml.safe_dump({"expectations": self.entries}, sort_keys=True))

    def record(self, key: str, value: float, tolerance: float) -> None:
        self.entries[key] = {"value": float(value), "tolerance": float(tolerance)}

    def get(self, key: str) -> tuple[float, float]:
        entry = self.entries[key]
        return entry["value"], entry["tolerance"]

    def check(self, key: str, value: float) -> bool:
        expected, tol = self.get(key)
        return abs(value - expected) <= tol

    def __contains__(self, key: str) -> bool:
        return key in self.entries
