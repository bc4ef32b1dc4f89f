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

from dataclasses import dataclass

import numpy as np

from .attack import AttackReport, AttackSpec, run_attack
from .data import QuerySet
from .devices import DeviceProfile
from .metrics import tvd
from .model import HybridModel, forward


def selection_probs(probs: list[float] | None, n_pairs: int) -> np.ndarray:
    """Checked selection probabilities for `n_pairs` served pairs: one
    nonnegative entry per pair, summing to 1.  None means uniform."""
    probs = [1.0 / n_pairs] * n_pairs if probs is None else list(probs)
    if len(probs) != n_pairs:
        raise ValueError(f"{len(probs)} selection probabilities for {n_pairs} served pairs; they must match")
    if any(p < 0 for p in probs):
        raise ValueError(f"selection probabilities must be nonnegative, got {probs}")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"selection probabilities sum to {sum(probs)}, expected 1")
    return np.array(probs, dtype=np.float64)


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
        self.pairs = list(pairs)
        self.probs = selection_probs(probs, len(pairs))
        self.shots = shots
        self.seed = seed
        self.name = name
        self.selection_log: list[int] = []

    @property
    def k(self) -> int:
        return self.pairs[0][0].k

    def reseeded(self, seed: int) -> "VictimService":
        return VictimService(self.pairs, self.probs.tolist(), self.shots, seed, self.name)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for one input; the pair choice stays hidden.

        Selection and shot noise draw from streams keyed by the query
        ordinal, so serving is deterministic per (seed, query order).
        """
        ordinal = len(self.selection_log)
        pick_rng = np.random.default_rng([self.seed, ordinal, 0])
        idx = int(pick_rng.choice(len(self.pairs), p=self.probs))
        model, profile = self.pairs[idx]
        shot_rng = np.random.default_rng([self.seed, ordinal, 1])
        probs = forward(model, x, profile, self.shots, shot_rng)
        self.selection_log.append(idx)
        return probs


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
    """The undefended reference: the first-listed pair served deterministically."""
    return VictimService([service.pairs[0]], [1.0], service.shots, service.seed, name="none")


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

    def to_dict(self) -> dict:
        return {
            "top1_mismatch_rate": self.top1_mismatch_rate,
            "mean_tvd": self.mean_tvd,
            "n_queries": self.n_queries,
            "shots": self.shots,
            "policy": self.policy,
            "seeds": list(self.seeds),
        }


def measure_obfuscation(
    policy: VictimService,
    baseline: VictimService,
    qs: QuerySet,
    seeds: list[int],
) -> ObfuscationReport:
    """Per-query TVD and argmax mismatch between defended and baseline
    responses, pooled over the given service seeds."""
    if policy.k != baseline.k:
        raise ValueError("policy and baseline disagree on class count")
    tvds = []
    mismatches = []
    for seed in seeds:
        defended = policy.reseeded(seed)
        reference = baseline.reseeded(seed)
        for x in qs.features:
            p = defended.predict(x)
            q = reference.predict(x)
            tvds.append(tvd(p, q))
            mismatches.append(int(np.argmax(p)) != int(np.argmax(q)))
    return ObfuscationReport(
        top1_mismatch_rate=float(np.mean(mismatches)),
        mean_tvd=float(np.mean(tvds)),
        per_query_tvd=tuple(tvds),
        n_queries=qs.m,
        shots=policy.shots,
        policy=policy.name,
        seeds=tuple(seeds),
    )


# ---------------------------------------------------------------------------
# defended attack evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefenseEvalResult:
    defended: AttackReport
    undefended: AttackReport

    @property
    def accuracy_gap(self) -> float:
        return self.undefended.clone_accuracy - self.defended.clone_accuracy

    def to_dict(self) -> dict:
        return {
            "defended": self.defended.to_dict(),
            "undefended": self.undefended.to_dict(),
            "accuracy_gap": self.accuracy_gap,
        }


def evaluate_defended_attack(
    policy: VictimService,
    spec: AttackSpec,
    **attack_kwargs,
) -> DefenseEvalResult:
    """Run the full theft pipeline against the defended service and against
    its undefended baseline with matched seeds; report both."""
    _, defended_report = run_attack(policy.reseeded(spec.seed), spec, **attack_kwargs)
    _, undefended_report = run_attack(baseline_of(policy).reseeded(spec.seed), spec, **attack_kwargs)
    return DefenseEvalResult(defended=defended_report, undefended=undefended_report)
