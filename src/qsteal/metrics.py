"""Shared metrics: accuracy, total variation distance, mismatch rate and
clone ratio."""

from __future__ import annotations

import numpy as np

from .data import LabeledDataset
from .devices import DeviceProfile
from .model import HybridModel, forward_batch


def accuracy(
    model: HybridModel,
    ds: LabeledDataset,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Fraction of argmax-correct predictions on the dataset, ties to the
    lowest index; shot noise, if any, is drawn from ``default_rng(seed)``."""
    if ds.n < 1:
        raise ValueError("accuracy needs a nonempty dataset")
    probs = forward_batch(model, ds.features, profile, shots, np.random.default_rng(seed))
    return float(np.mean(probs.argmax(axis=1) == ds.labels))


def _check_distribution(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise ValueError(f"{name} must be a distribution (k,) or a stack of them (B, k), got shape {p.shape}")
    # inverted comparisons: a NaN entry fails both, and so does the NaN sum it makes
    ok = (p >= -1e-9).all(axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= 1e-6)
    if not ok.all():
        row = "" if p.ndim == 1 else f" row {np.argmin(ok)}"
        raise ValueError(f"{name}{row} is not a probability distribution")
    return p


def tvd(p, q) -> float | np.ndarray:
    """Total variation distance 0.5 * sum |p - q|: a float for two (k,) distributions,
    a (B,) array for two (B, k) stacks, each entry equal to the call on its rows alone."""
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"distributions differ in shape: {p.shape} and {q.shape}")
    d = 0.5 * np.abs(p - q).sum(axis=-1)
    return float(d) if p.ndim == 1 else d


def mismatch_rate(labels_a, labels_b) -> float:
    """Fraction of positions where the two label lists disagree."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.size < 1:
        raise ValueError("label lists must have equal nonzero length")
    return float(np.mean(a != b))


def clone_ratio(clone_acc: float, victim_acc: float) -> float:
    """Clone test accuracy divided by victim test accuracy."""
    if not victim_acc > 0:
        raise ValueError("victim accuracy must be positive")
    return clone_acc / victim_acc

