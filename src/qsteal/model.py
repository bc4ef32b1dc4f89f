"""The hybrid model: angle encoding -> PQC -> per-qubit <Z> -> linear head -> softmax.

Forward passes are batched; a whole batch shares one circuit skeleton with
per-sample encoding angles, and several parameter vectors (a training
step's SPSA probes) run as one batch of rows.  Checkpoints round-trip
bitwise through JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .channels import ReadoutConfusion
from .circuits import PQCTemplate, assemble_circuit, encoding_rz_slots, run_circuit, weave_noise
from .density import sample_expectations
from .devices import DeviceProfile

LOG_FLOOR = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class HybridModel:
    """PQC parameters plus the classical linear head."""

    template: PQCTemplate
    theta: np.ndarray
    weights: np.ndarray  # (k, n_qubits)
    bias: np.ndarray  # (k,)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if theta.shape != (self.template.param_count,):
            raise ValueError(
                f"theta has {theta.shape[0] if theta.ndim == 1 else theta.shape} entries, "
                f"template takes {self.template.param_count}"
            )
        if weights.ndim != 2 or weights.shape[1] != self.template.n_qubits:
            raise ValueError(f"weights shape {weights.shape} does not match {self.template.n_qubits} qubits")
        if bias.shape != (weights.shape[0],):
            raise ValueError(f"bias shape {bias.shape} does not match {weights.shape[0]} classes")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    @property
    def n_qubits(self) -> int:
        return self.template.n_qubits

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def n_params(self) -> int:
        return self.theta.size + self.weights.size + self.bias.size

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.theta, self.weights.ravel(), self.bias])

    def with_flat_params(self, flat: np.ndarray) -> "HybridModel":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        t = self.template.param_count
        w = self.weights.size
        return replace(
            self,
            theta=flat[:t].copy(),
            weights=flat[t : t + w].reshape(self.weights.shape).copy(),
            bias=flat[t + w :].copy(),
        )


def init_model(template: PQCTemplate, k: int, seed: int) -> HybridModel:
    """Random initialization: theta ~ U[0, 2pi), head ~ U[-0.1, 0.1]."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, template.param_count)
    weights = rng.uniform(-0.1, 0.1, (k, template.n_qubits))
    bias = rng.uniform(-0.1, 0.1, k)
    return HybridModel(template, theta, weights, bias)


@lru_cache(maxsize=128)
def _prepared_circuit(template: PQCTemplate, d: int, profile: DeviceProfile | None):
    """Woven circuit skeleton with placeholder angles, plus the override
    slots for encoding features and PQC parameters.  Cached per shape."""
    circuit = assemble_circuit(np.zeros(d), template, np.zeros(template.param_count))
    if profile is not None:
        circuit = weave_noise(circuit, profile)
    enc_slots = tuple(encoding_rz_slots(d, template.n_qubits))
    n_enc = 2 * len(enc_slots)
    pqc_slots = tuple(
        n_enc + j for j, op in enumerate(circuit.ops[n_enc:]) if op.angle is not None
    )
    assert len(pqc_slots) == template.param_count
    return circuit, enc_slots, pqc_slots


def _probe_expectations(template: PQCTemplate, thetas: np.ndarray, x: np.ndarray, profile: DeviceProfile | None):
    """Exact <Z> per qubit for P PQC parameter vectors over one batch of
    inputs, from one run_circuit call over the P * B rows: shape (P, B, n),
    plus the circuit's readout confusion."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, d = x.shape
    n_probes = thetas.shape[0]
    circuit, enc_slots, pqc_slots = _prepared_circuit(template, d, profile)
    rows = np.tile(x, (n_probes, 1))
    overrides = {op: rows[:, feat] for op, feat in enc_slots}
    # a single probe's angles are shared by every row, so they stay scalars
    overrides.update({
        op: thetas[0, j] if n_probes == 1 else np.repeat(thetas[:, j], b) for j, op in enumerate(pqc_slots)
    })
    return run_circuit(circuit, overrides).reshape(n_probes, b, -1), circuit.readout


def _sampled(exps: np.ndarray, readout: ReadoutConfusion | None, shots: int, rng) -> np.ndarray:
    if rng is None:
        raise ValueError("shot sampling requires an rng")
    if readout is None:
        readout = ReadoutConfusion.identity(exps.shape[1])
    return sample_expectations(exps, readout, shots, rng)


def expectations_batch(
    model: HybridModel,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-qubit <Z> features for a batch of inputs, shape (B, n_qubits)."""
    exps, readout = _probe_expectations(model.template, model.theta[None], x, profile)
    return exps[0] if shots is None else _sampled(exps[0], readout, shots, rng)


def forward_probes(
    model: HybridModel,
    flats: np.ndarray,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rngs=None,
) -> np.ndarray:
    """Class probabilities of P flat parameter vectors (shaped like
    ``model.flat_params()``) on one batch of inputs, shape (P, B, k).

    All P * B circuits run in one run_circuit call; probe p draws its shot
    noise from ``rngs[p]`` and applies its own head.
    """
    flats = np.asarray(flats, dtype=np.float64)
    if flats.ndim != 2 or flats.shape[1] != model.n_params:
        raise ValueError(f"expected (P, {model.n_params}) parameter vectors, got {flats.shape}")
    if rngs is None:
        rngs = [None] * flats.shape[0]
    t = model.template.param_count
    w = model.weights.size
    exps, readout = _probe_expectations(model.template, flats[:, :t], x, profile)
    probs = []
    for flat, e, rng in zip(flats, exps, rngs, strict=True):
        if shots is not None:
            e = _sampled(e, readout, shots, rng)
        logits = e @ flat[t : t + w].reshape(model.weights.shape).T + flat[t + w :]
        probs.append(softmax(logits))
    return np.stack(probs)


def forward_batch(
    model: HybridModel,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for a batch of inputs, shape (B, k): the
    one-probe case of :func:`forward_probes`."""
    return forward_probes(model, model.flat_params()[None], x, profile, shots, [rng])[0]


def forward(
    model: HybridModel,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for a single input, shape (k,)."""
    return forward_batch(model, np.asarray(x)[None, :], profile, shots, rng)[0]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mean_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL over a batch; probs (B, k), labels (B,)."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_FLOOR))))


def mean_kl(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean KL(target || probs) over a batch; both (B, k)."""
    t = np.asarray(targets, dtype=np.float64)
    p = np.maximum(probs, LOG_FLOOR)
    terms = np.where(t > 0, t * (np.log(np.maximum(t, LOG_FLOOR)) - np.log(p)), 0.0)
    return float(np.mean(terms.sum(axis=1)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "qsteal-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: HybridModel, path, seed: int | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "template": model.template.id,
        "n_qubits": model.template.n_qubits,
        "layers": model.template.layers,
        "k": model.k,
        "theta": model.theta.tolist(),
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "seed": seed,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc, indent=1))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[HybridModel, int | None]:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    template = PQCTemplate(doc["template"], doc["n_qubits"], doc["layers"])
    model = HybridModel(
        template,
        np.array(doc["theta"], dtype=np.float64),
        np.array(doc["weights"], dtype=np.float64),
        np.array(doc["bias"], dtype=np.float64),
    )
    if model.k != doc["k"]:
        raise ValueError(f"{path}: inconsistent class count")
    return model, doc.get("seed")
