"""Victim-side serving with perturbation defenses, and their measurement.

A :class:`VictimService` holds one or more (model, device) pairs and
serves `predict` queries by sampling a pair per query:

* no defense: a single pair, always served;
* hardware variation (HVIP): one model, several devices;
* hardware + architecture variation (HAVIP): several trained models, each
  bound to its own device.

Callers never learn which pair answered; the service keeps an opaque
selection log on its side.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import model
from .attack import AttackReport
from .data import QuerySet
from .devices import DeviceProfile
from .metrics import mismatch_rate, tvd
from .model import HybridModel
from .streams import checked_seed, key_words, raw_words


def selection_probs(probs: list[float] | None, n_pairs: int) -> np.ndarray:
    """Checked selection probabilities for `n_pairs` served pairs: one
    nonnegative entry per pair, summing to 1.  None means uniform."""
    probs = [1.0 / n_pairs] * n_pairs if probs is None else list(probs)
    if len(probs) != n_pairs:
        raise ValueError(f"{len(probs)} selection probabilities for {n_pairs} served pairs; they must match")
    # inverted comparisons: a NaN entry fails both, and so does the NaN sum it makes
    if not all(p >= 0 for p in probs):
        raise ValueError(f"selection probabilities must be nonnegative, got {probs}")
    if not abs(sum(probs) - 1.0) <= 1e-9:
        raise ValueError(f"selection probabilities sum to {sum(probs)}, expected 1")
    return np.array(probs, dtype=np.float64)


#: queries a multi-pair service draws its pairs for at once: a draw's cost
#: is nearly all fixed, about the same for 1 row as for 64
PICK_BLOCK = 64


def draw_pairs(cdf: np.ndarray, seed: int, first: int, count: int) -> np.ndarray:
    """The pairs queries first .. first + count - 1 draw: query i takes the first
    pair whose `cdf` entry exceeds the first double of the stream [seed, i, 0].
    For cdf = probs.cumsum() / its last entry, these are the bits that
    default_rng([seed, i, 0]).choice(len(cdf), p=probs) gives, without a Generator.
    Each run of indices with one word count is one vectorised draw."""
    if first + count > 2**64:
        raise ValueError(f"query indices stop at 2**64, got {first} + {count}")
    head = key_words(seed)
    raws = np.empty(count, np.uint64)
    start = first
    while start < first + count:
        width = len(key_words(start))
        stop = min(first + count, 2 ** (32 * width))
        idx = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
        words = [(idx >> np.uint64(32 * j)) & np.uint64(0xFFFFFFFF) for j in range(width)]
        raws[start - first : stop - first] = raw_words(head + words + [0], 1)[:, 0]
        start = stop
    return cdf.searchsorted((raws >> np.uint64(11)) * 2.0**-53, side="right")


class VictimService:
    """In-process victim endpoint: exactly one operation, predict."""

    def __init__(
        self,
        pairs: list[tuple[HybridModel, DeviceProfile]],
        probs: list[float] | None = None,
        shots: int | None = None,
        seed: int = 0,
        name: str = "none",
    ):
        if not pairs:
            raise ValueError("a victim service needs at least one (model, device) pair")
        ks = {m.k for m, _ in pairs}
        if len(ks) != 1:
            raise ValueError("all served models must share the class count")
        (self.k,) = ks
        self.pairs = list(pairs)
        self.probs = selection_probs(probs, len(pairs))
        self.cdf = self.probs.cumsum() / self.probs.cumsum()[-1]  # as Generator.choice makes it
        self.shots = shots
        self.seed = checked_seed(seed, "service")
        self.name = name
        self.selection_log: list[int] = []
        # the pairs of queries block_start .. block_start + len(block) - 1
        self._block_start = 0
        self._block = np.zeros(0, np.intp)

    def reseeded(self, seed: int) -> "VictimService":
        return VictimService(self.pairs, self.probs.tolist(), self.shots, seed, self.name)

    def _picks(self, first: int, b: int) -> np.ndarray:
        """The pairs of queries first .. first + b - 1.  A multi-pair service
        draws max(2 * b, PICK_BLOCK) queries ahead, so calls of b rows draw
        at most every other call; each pick depends only on (seed, i), so
        the block bounds never show in the answers."""
        if len(self.pairs) == 1:  # a draw over a single pair always returns it
            return np.zeros(b, np.intp)
        if first + b > self._block_start + len(self._block):
            self._block_start, self._block = first, draw_pairs(self.cdf, self.seed, first, max(2 * b, PICK_BLOCK))
        return self._block[first - self._block_start : first - self._block_start + b]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for one input (d,) -> (k,) or a batch
        (B, d) -> (B, k); the pair choice stays hidden.

        The service numbers every query row it answers.  Query i draws its
        pair by the first double of the stream [seed, i, 0] against the cdf
        of the selection probabilities (:func:`draw_pairs`, a block of
        queries at a time; the bits equal Generator.choice's) and its shot
        noise from [seed, i, 1], so serving is deterministic per (seed, query
        order) and a batch answers exactly as its rows sent one at a time.  The rows that drew the same pair go
        through one forward_batch call.  The selection log grows only once
        the whole call has succeeded; a call with a NaN or infinite input
        is refused before any pair is drawn.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"predict takes one input (d,) or a batch (B, d), got shape {x.shape}")
        rows = np.atleast_2d(x)
        if not np.isfinite(rows).all():
            row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
            raise ValueError(f"query row {row} is not finite: {rows[row]}")
        first = len(self.selection_log)
        b = rows.shape[0]
        picks = self._picks(first, b)
        out = np.empty((b, self.k))
        for idx, (served, profile) in enumerate(self.pairs):
            sel = np.flatnonzero(picks == idx)
            if sel.size == 0:
                continue
            rngs = None if self.shots is None else [np.random.default_rng([self.seed, first + i, 1]) for i in sel]
            # through the module, so that a patched model.forward_batch also sees serving
            out[sel] = model.forward_batch(served, rows[sel], profile, self.shots, rngs)
        self.selection_log.extend(picks.tolist())
        return out[0] if x.ndim == 1 else out


def no_defense(model: HybridModel, device: DeviceProfile, shots: int | None = None, seed: int = 0) -> VictimService:
    """Single model on a single device, served every time."""
    return VictimService([(model, device)], [1.0], shots, seed, name="none")


def hvip(
    model: HybridModel,
    devices: list[DeviceProfile],
    probs: list[float] | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> VictimService:
    """Hardware variation: one model, randomly executed on >= 2 devices."""
    if len(devices) < 2:
        raise ValueError("hvip needs at least two devices")
    if len({d.name for d in devices}) != len(devices):
        raise ValueError("hvip devices must be distinct")
    return VictimService([(model, d) for d in devices], probs, shots, seed, name="hvip")


def havip(
    pairs: list[tuple[HybridModel, DeviceProfile]],
    probs: list[float] | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> VictimService:
    """Hardware + architecture variation: >= 2 (model, device) pairs."""
    if len(pairs) < 2:
        raise ValueError("havip needs at least two (model, device) pairs")
    return VictimService(pairs, probs, shots, seed, name="havip")


def baseline_of(service: VictimService) -> VictimService:
    """The undefended reference: the first-listed pair served deterministically.
    The one place that chooses it; every report's baseline and victim accuracy come from here."""
    return VictimService([service.pairs[0]], [1.0], service.shots, service.seed, name="none")


def pair_record(service: VictimService) -> dict:
    """The template, width and device of a one-pair service, as reports record :func:`baseline_of`'s."""
    [(served, device)] = service.pairs
    return {"template": served.template.id, "qubits": served.template.n_qubits, "device": device.name}


# ---------------------------------------------------------------------------
# obfuscation measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObfuscationReport:
    """Defended-vs-baseline divergence over a query set."""

    top1_mismatch_rate: float
    mean_tvd: float
    per_query_tvd: tuple
    n_queries: int
    shots: int | None
    policy: str
    seeds: tuple
    baseline: dict

    def to_dict(self) -> dict:
        """Every field but the per-query TVDs, which the mean summarises."""
        doc = asdict(self)
        del doc["per_query_tvd"]
        return doc


def measure_obfuscation(
    policy: VictimService,
    baseline: VictimService,
    qs: QuerySet,
    seeds: list[int],
) -> ObfuscationReport:
    """Per-query TVD and argmax mismatch between defended and baseline
    responses, pooled over the given service seeds.  Each service answers
    the whole query set in one predict call per seed, and one tvd call
    scores every pooled answer."""
    if policy.k != baseline.k:
        raise ValueError("policy and baseline disagree on class count")
    if qs.m < 1:
        raise ValueError("query set is empty")
    if not seeds:
        raise ValueError("obfuscation needs at least one service seed")
    answers = [(policy.reseeded(s).predict(qs.features), baseline.reseeded(s).predict(qs.features)) for s in seeds]
    defended, reference = (np.concatenate(a) for a in zip(*answers))
    tvds = tvd(defended, reference)
    return ObfuscationReport(
        top1_mismatch_rate=mismatch_rate(defended.argmax(axis=1), reference.argmax(axis=1)),
        mean_tvd=float(np.mean(tvds)),
        per_query_tvd=tuple(tvds.tolist()),
        n_queries=qs.m,
        shots=policy.shots,
        policy=policy.name,
        seeds=tuple(seeds),
        baseline=pair_record(baseline),
    )


# ---------------------------------------------------------------------------
# defended attack evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefenseEvalResult:
    """One attack cell run against the defended service and against its :func:`baseline_of`."""

    defended: AttackReport
    undefended: AttackReport
    baseline: dict  # the undefended pair (pair_record)

    @property
    def accuracy_gap(self) -> float:
        return self.undefended.clone_accuracy - self.defended.clone_accuracy

    def to_dict(self) -> dict:
        return {**asdict(self), "accuracy_gap": self.accuracy_gap}

