"""The hybrid model: angle encoding -> PQC -> per-qubit <Z> -> linear head -> softmax.

Forward passes are batched; a whole batch shares one circuit skeleton with
per-sample encoding angles.  At fixed parameters (evaluation, serving) the
circuit is split at the end of its product-state prefix once per (feature
count, device) and both parts are held on the model: the prefix compiled
with the PQC angles pinned, so a row runs only its feature gates, and the
rest pulled back, the 2^n basis vectors when the circuit is noise-free,
else the measured observables.  Several parameter vectors (a training
step's SPSA probes) run as one probes x samples grid through run_circuit.
Checkpoints round-trip bitwise through JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .channels import ReadoutConfusion
from .circuits import (
    HeldHead,
    PQCTemplate,
    Prefix,
    assemble_circuit,
    compile_prefix,
    hold_head,
    meet,
    pulled_back,
    run_circuit,
    run_prefix,
    weave_noise,
)
from .density import matmul_rows, sample_expectations
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
    #: (compiled prefix, readout) at this model's theta, by (d, profile): the rest of the
    #: circuit pulled back, as U^dag e_k when noise-free, else as Phi^dag(Z_q); filled
    #: by forward_batch, so a replaced or discarded model takes its own
    _readouts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        # a private read-only copy: the readouts held on the model are valid for this theta only
        theta = np.array(self.theta, dtype=np.float64)
        theta.flags.writeable = False
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
    """Woven circuit skeleton with placeholder angles, plus its angle slots:
    the indices of the ops that carry an angle, in order, the first d for
    features 0..d-1 and the rest for the PQC parameters.  Cached per shape."""
    circuit = assemble_circuit(np.zeros(d), template, np.zeros(template.param_count))
    if profile is not None:
        circuit = weave_noise(circuit, profile)
    slots = tuple(i for i, op in enumerate(circuit.ops) if op.angle is not None)
    assert len(slots) == d + template.param_count
    return circuit, slots


def _readout(model: HybridModel, d: int, profile: DeviceProfile | None) -> tuple[Prefix, np.ndarray]:
    """The circuit at the model's PQC parameters, split at the end of its
    product-state prefix: the prefix compiled with theta pinned and laid
    out by depth (:class:`Prefix`), and the rest of the circuit pulled
    back (:func:`pulled_back`), read-only.  A noise-free circuit holds its
    prefix as 2x2 unitaries and the rest as the pulled-back basis vectors
    U^dag e_k, (2^n, 2^n), 1 MB at the 8-qubit cap; a noisy one its prefix
    as PTMs and Phi^dag(Z_q) for each measured qubit q, Phi the rest, as
    real (m, 4^n) Pauli vectors, at most 4 MB.  Held on the model."""
    entry = model._readouts.get((d, profile))
    if entry is None:
        circuit, slots = _prepared_circuit(model.template, d, profile)
        pinned = dict(zip(slots[d:], model.theta, strict=True))
        readout = pulled_back(circuit, pinned)
        readout.flags.writeable = False
        prefix = compile_prefix(circuit, pinned, pure=not circuit.has_noise)
        assert [i for i, _, _ in prefix.steps] == list(slots[:d])  # the steps are the features, in order
        entry = model._readouts[(d, profile)] = (prefix, readout)
    return entry


def _fixed_expectations(model: HybridModel, x: np.ndarray, profile: DeviceProfile | None):
    """Exact <Z> per qubit for a batch of inputs at the model's parameters,
    shape (B, n), plus the circuit's readout confusion.

    The features go in straight from `x.T`: the batch's d feature gates
    run one depth at a time (:func:`run_prefix`), then each row meets
    the held readout (:func:`meet`).  A row's result does not depend on
    the rest of the batch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, d = x.shape
    circuit, _ = _prepared_circuit(model.template, d, profile)
    prefix, readout = _readout(model, d, profile)
    return meet(circuit, run_prefix(circuit, x.T, prefix, (1, 1)), np.arange(b), readout), circuit.readout


def _probe_overrides(slots: tuple, thetas: np.ndarray, x: np.ndarray) -> dict:
    """The angles of the P probes x B samples grid: features vary by sample
    (1, B), parameters by probe (P, 1), each a float64 view the grid takes
    as it is."""
    return dict(zip(slots, [*x.T[:, None], *thetas.T[:, :, None]], strict=True))


def _probe_expectations(
    template: PQCTemplate, thetas: np.ndarray, x: np.ndarray, profile: DeviceProfile | None, held: tuple | None = None
):
    """Exact <Z> per qubit for P PQC parameter vectors over one batch of
    inputs, from one run_circuit call on the P probes x B samples grid:
    shape (P, B, n), plus the circuit's readout confusion."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, d = x.shape
    circuit, slots = _prepared_circuit(template, d, profile)
    exps = run_circuit(circuit, _probe_overrides(slots, thetas, x), held)
    return exps.reshape(thetas.shape[0], b, -1), circuit.readout


def hold_features(
    template: PQCTemplate, x: np.ndarray, profile: DeviceProfile | None, probes: int, batch: int
) -> HeldHead | None:
    """The per-sample head of every row of `x` (:func:`hold_head`), for
    forward_probes calls of `probes` parameter vectors on `batch` of its
    rows at a time; None when such a call would not meet held rows."""
    x = np.asarray(x, dtype=np.float64)
    circuit, slots = _prepared_circuit(template, x.shape[1], profile)
    return hold_head(circuit, _probe_overrides(slots, np.zeros((probes, template.param_count)), x), batch)


def _sampled(exps: np.ndarray, readout: ReadoutConfusion | None, shots: int, rng) -> np.ndarray:
    """Shot-sampled features: `rng` is one generator for the whole batch,
    or a sequence of one generator per row."""
    if rng is None:
        raise ValueError("shot sampling requires an rng")
    if readout is None:
        readout = ReadoutConfusion.identity(exps.shape[1])
    if isinstance(rng, np.random.Generator):
        return sample_expectations(exps, readout, shots, rng)
    rngs = list(rng)
    if len(rngs) != exps.shape[0]:
        raise ValueError(f"{len(rngs)} rngs for {exps.shape[0]} rows; give one per row")
    return np.concatenate([sample_expectations(e[None], readout, shots, r) for e, r in zip(exps, rngs)])


def expectations_batch(
    model: HybridModel,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-qubit <Z> features for a batch of inputs, shape (B, n_qubits)."""
    exps, readout = _fixed_expectations(model, x, profile)
    return exps if shots is None else _sampled(exps, readout, shots, rng)


def forward_probes(
    model: HybridModel,
    flats: np.ndarray,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rngs=None,
    held: tuple[HeldHead, np.ndarray] | None = None,
) -> np.ndarray:
    """Class probabilities of P flat parameter vectors (shaped like
    ``model.flat_params()``) on one batch of inputs, shape (P, B, k).

    All P * B circuits run in one run_circuit call on the probes x samples
    grid; probe p draws its shot noise from ``rngs[p]``.  `held`, a
    (:func:`hold_features` result, row indices) pair with ``x`` those rows
    of the held inputs, lets the call meet the rows' held head states
    instead of running their feature gates (run_circuit's `held`).  The P
    heads apply as one stacked product, each probe's rows exactly as
    forward_batch would compute them.
    """
    flats = np.asarray(flats, dtype=np.float64)
    if flats.ndim != 2 or flats.shape[1] != model.n_params:
        raise ValueError(f"expected (P, {model.n_params}) parameter vectors, got {flats.shape}")
    if rngs is None:
        rngs = [None] * flats.shape[0]
    t = model.template.param_count
    w = model.weights.size
    exps, readout = _probe_expectations(model.template, flats[:, :t], x, profile, held)
    if shots is not None:
        exps = np.stack([_sampled(e, readout, shots, rng) for e, rng in zip(exps, rngs, strict=True)])
    heads = flats[:, t : t + w].reshape(-1, *model.weights.shape).transpose(0, 2, 1)
    one_row = exps.shape[1] == 1
    logits = np.stack([matmul_rows(e, h) for e, h in zip(exps, heads)]) if one_row else np.matmul(exps, heads)
    return softmax(logits + flats[:, None, t + w :])


def forward_batch(
    model: HybridModel,
    x: np.ndarray,
    profile: DeviceProfile | None = None,
    shots: int | None = None,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> np.ndarray:
    """Class probabilities for a batch of inputs (B, d) at the model's
    parameters, shape (B, k).

    The circuit's compiled prefix and its pulled-back rest (basis vectors
    or observables) are held on the model per (d, profile), so each row
    costs its d feature gates and one product, and its result does not
    depend on the rest of the batch.  `rng` draws the shot noise: one
    generator for the batch, or a sequence of one generator per row.
    """
    exps, readout = _fixed_expectations(model, x, profile)
    if shots is not None:
        exps = _sampled(exps, readout, shots, rng)
    return softmax(matmul_rows(exps, model.weights.T) + model.bias)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def nll_terms(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each sample's NLL; probs (..., B, k), labels (B,): shape (..., B)."""
    picked = probs[..., np.arange(probs.shape[-2]), labels]
    return -np.log(np.maximum(picked, LOG_FLOOR))


def kl_terms(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each sample's KL(target || probs); probs (..., B, k), targets (B, k)."""
    t = np.asarray(targets, dtype=np.float64)
    p = np.maximum(probs, LOG_FLOOR)
    return np.where(t > 0, t * (np.log(np.maximum(t, LOG_FLOOR)) - np.log(p)), 0.0).sum(axis=-1)


def mean_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL over a batch; probs (B, k), labels (B,)."""
    return float(np.mean(nll_terms(probs, labels)))


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
    atomic_write(path, json.dumps(doc, indent=1))


def atomic_write(path, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same
    directory: readers see the old document or the new one, never part of
    one, and a failed write leaves no temporary file behind."""
    path = Path(path)
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
