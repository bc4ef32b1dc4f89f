"""SPSA gradient estimation, Adam, and the training loop.

The whole flattened parameter vector (PQC angles plus the classical head)
is trained with SPSA estimates averaged over `spsa_draws` per batch; a
batch's 2 * `spsa_draws` probes are evaluated in one forward_probes call.
All randomness is derived from a single seed, split per (epoch, batch,
purpose), so training is bitwise reproducible; an epoch's sign vectors
are one vectorised draw of its streams' raw words (:func:`spsa_signs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .devices import DeviceProfile
from .model import HybridModel, forward_batch, forward_probes, hold_features, kl_terms, mean_nll, nll_terms
from .streams import checked_seed, key_words, raw_words

LOSS_KINDS = ("nll_top1", "kl_topk")

# rng purposes, combined with (seed, epoch, batch) into a stream key
_SHUFFLE, _DELTA, _PLUS, _MINUS, _EVAL = range(5)


def stream(seed: int, *tags: int) -> np.random.Generator:
    """A deterministic generator for (seed, *tags)."""
    return np.random.default_rng([seed, *tags])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25
    learning_rate: float = 0.01
    batch_size: int = 32
    loss: str = "nll_top1"
    spsa_c: float = 0.1
    #: independent SPSA estimates averaged per batch; one draw is too noisy
    #: for the 25-epoch budget on the reference task
    spsa_draws: int = 4
    shots: int | None = None  # None = analytic expectations

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.spsa_c <= 0:
            raise ValueError("spsa_c must be positive")
        if self.spsa_draws < 1:
            raise ValueError("spsa_draws must be >= 1")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 or None")


@dataclass
class EpochStats:
    train_loss: float
    test_accuracy: float
    test_loss: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    @property
    def final(self) -> EpochStats:
        return self.epochs[-1]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def spsa_signs(seed: int, epoch: int, batches: int, draws: int, n: int) -> np.ndarray:
    """An epoch's (batches, draws, n) random +-1 SPSA sign vectors, batch
    b's draw j from the stream (seed, epoch, b, _DELTA, j), whatever `batches`.

    Each is what ``stream(...).integers(0, 2, size=n) * 2.0 - 1.0`` gives,
    read from the raw PCG64 words of all the epoch's streams at once
    (:func:`streams.raw_words`): that Lemire draw over a range of 2 keeps
    the top bit of each 32-bit half of a word, low half first, so sign 2i
    is bit 31 of word i and sign 2i + 1 its bit 63.
    """
    batch, draw = np.divmod(np.arange(batches * draws), draws)
    words = raw_words(key_words(seed) + key_words(epoch) + [batch, _DELTA, draw], -(-n // 2))
    bits = (words[..., None] >> np.array([31, 63], dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(batches, draws, -1)[..., :n] * 2.0 - 1.0


def spsa_probes(theta: np.ndarray, deltas: np.ndarray, c: float) -> np.ndarray:
    """The SPSA probe points for D sign vectors, shape (2D, n): for each
    draw, theta + c*delta then theta - c*delta."""
    steps = c * deltas
    return np.stack([theta + steps, theta - steps], axis=1).reshape(-1, theta.shape[0])


def spsa_gradient(plus: np.ndarray, minus: np.ndarray, deltas: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """Simultaneous-perturbation gradient estimate averaged over D draws,
    from each draw's losses at theta + c*delta (`plus`, (D,)) and theta -
    c*delta (`minus`, (D,)), its sign vector delta a row of `deltas`,
    (D, n).

    Returns the estimate and the mean of the 2D probe losses.  Each draw's
    estimate and mean loss are divided by D, then added in draw order to a
    zero start, so the result is bitwise what a loop over the draws gives.
    """
    if c <= 0:
        raise ValueError("perturbation magnitude c must be positive")
    terms = np.column_stack([((plus - minus) / (2.0 * c))[:, None] * deltas, 0.5 * (plus + minus)])
    # a reduction over the leading axis adds whole rows in order
    total = np.add.reduce(terms / deltas.shape[0], axis=0, initial=0.0)
    return total[:-1], float(total[-1])


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    t = state.t + 1
    m = beta1 * state.m + (1 - beta1) * grads
    v = beta2 * state.v + (1 - beta2) * grads**2
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m, v, t)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _probe_losses(cfg: TrainConfig, probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each probe's mean loss over the batch, (P,); probs (P, B, k).  The
    terms come from the whole grid; made contiguous, each probe's mean sums
    its own row exactly as a mean of that row alone does."""
    terms = nll_terms(probs, targets) if cfg.loss == "nll_top1" else kl_terms(probs, targets)
    return np.ascontiguousarray(terms).mean(axis=-1)


def _check_targets(cfg: TrainConfig, features: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("training set is empty")
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(f"feature row {row}, column {col} is not finite: {features[row, col]}")
    if targets.shape[0] != features.shape[0]:
        raise ValueError("features and targets disagree on sample count")
    if cfg.loss == "nll_top1":
        targets = np.asarray(targets)
        if targets.ndim != 1:
            raise ValueError("nll_top1 expects a 1-d array of class labels")
        fractional = targets[targets != np.round(targets)]
        if fractional.size:
            raise ValueError(f"label {fractional[0]} is not a whole number")
        if targets.max() >= k:
            raise ValueError(f"label {targets.max()} out of range for {k} classes")
        if targets.min() < 0:
            raise ValueError(f"label {targets.min()} is negative")
        return targets.astype(np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] != k:
        raise ValueError(f"kl_topk expects (N, {k}) probability targets")
    # the tolerance AdversarialDataset applies to top-k responses
    bad = ~np.all(targets >= 0, axis=1) | ~(np.abs(targets.sum(axis=1) - 1.0) <= 1e-9)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(f"kl_topk target row {row} is not a probability vector: {targets[row]}")
    return targets


def normalize_schedule(schedule, epochs: int) -> list[tuple[DeviceProfile | None, int]]:
    """Accept a single profile (None is the noise-free circuit) or a list of
    (profile, epochs) pairs that covers `epochs`."""
    if schedule is None or isinstance(schedule, DeviceProfile):
        return [(schedule, epochs)]
    schedule = [(p, e) for p, e in schedule]
    for i, (_, e) in enumerate(schedule):
        if e < 0:
            raise ValueError(f"schedule entry {i} has a negative epoch count {e}")
    total = sum(e for _, e in schedule)
    if total != epochs:
        raise ValueError(f"schedule covers {total} epochs, config asks for {epochs}")
    return schedule


def train(
    model: HybridModel,
    features: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    schedule,
    seed: int,
    eval_features: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
) -> tuple[HybridModel, TrainHistory]:
    """Train the flattened parameter vector with SPSA + Adam.

    `targets` are class labels for nll_top1 or probability vectors for
    kl_topk.  `schedule` assigns a device profile to each epoch.  History
    records per-epoch train loss (mean of the two SPSA probe losses),
    test accuracy, and test NLL; test fields are NaN without an eval set.

    The feature gates do not depend on the parameters, so each device
    segment of two or more steps holds every sample's head states once
    (:func:`hold_features`), and each step meets its batch's rows there.
    """
    seed = checked_seed(seed, "training")
    features = np.asarray(features, dtype=np.float64)
    targets = _check_targets(cfg, features, targets, model.k)
    n = features.shape[0]
    segments = [(profile, count) for profile, count in normalize_schedule(schedule, cfg.epochs) if count]
    profiles = [profile for profile, count in segments for _ in range(count)]
    counts = [count for _, count in segments]
    firsts = dict(zip(accumulate([0] + counts), counts))  # each device segment's first epoch -> its epochs
    params = model.flat_params()
    adam = AdamState.zeros(params.shape[0])
    history = TrainHistory()

    for epoch, profile in enumerate(profiles):
        if epoch in firsts:  # a held head pays off only where a second step meets it
            several = firsts[epoch] > 1 or n > cfg.batch_size
            held = None if not several else hold_features(
                model.template, features, profile, 2 * cfg.spsa_draws, cfg.batch_size
            )
        order = stream(seed, epoch, 0, _SHUFFLE).permutation(n)
        signs = spsa_signs(seed, epoch, -(-n // cfg.batch_size), cfg.spsa_draws, params.shape[0])
        probe_losses = []
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            xb, tb = features[idx], targets[idx]
            deltas = signs[b_idx]
            rngs = None if cfg.shots is None else [
                stream(seed, epoch, b_idx, side, draw) for draw in range(cfg.spsa_draws) for side in (_PLUS, _MINUS)
            ]
            probes = spsa_probes(params, deltas, cfg.spsa_c)
            probs = forward_probes(model, probes, xb, profile, cfg.shots, rngs, None if held is None else (held, idx))
            losses = _probe_losses(cfg, probs, tb)
            grad, probe_mean = spsa_gradient(losses[0::2], losses[1::2], deltas, cfg.spsa_c)
            params, adam = adam_step(params, grad, adam, cfg.learning_rate)
            probe_losses.append(probe_mean)
        test_acc = float("nan")
        test_loss = float("nan")
        if eval_features is not None and eval_labels is not None:
            current = model.with_flat_params(params)
            probs = forward_batch(
                current, eval_features, profile, cfg.shots, stream(seed, epoch, 0, _EVAL)
            )
            predicted = probs.argmax(axis=1)
            test_acc = float(np.mean(predicted == eval_labels))
            test_loss = mean_nll(probs, np.asarray(eval_labels, dtype=np.int64))
        history.epochs.append(EpochStats(float(np.mean(probe_losses)), test_acc, test_loss))
    return model.with_flat_params(params), history
