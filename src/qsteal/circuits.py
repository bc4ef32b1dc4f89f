"""Circuit construction: angle encoding, PQC templates, and noise weaving.

A :class:`CircuitIR` is an ordered gate list plus interleaved noise points
and a measurement spec.  Circuits are immutable values; the batched
executor :func:`run_circuit` evolves many input states at once and takes
per-sample angle overrides so one circuit skeleton serves a whole batch
of encoded samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import density
from .channels import (
    KrausChannel,
    ReadoutConfusion,
    amplitude_damping,
    bit_flip,
    depolarizing,
    depolarizing_2q,
    phase_flip,
)
from .devices import DeviceProfile
from .gates import GateOp, gate_matrix, rotation_batch, validate_gate

TEMPLATE_IDS = ("PQC1", "PQC6", "PQC17", "PQC19")

#: widest register the dense simulator takes: a (B, 2^n, 2^n) state stack grows 4x per qubit
MAX_QUBITS = 8


@dataclass(frozen=True)
class PQCTemplate:
    """A named circuit family instantiated at a width and layer count."""

    id: str
    n_qubits: int
    layers: int = 1

    def __post_init__(self):
        if self.id not in TEMPLATE_IDS:
            raise ValueError(f"unknown template {self.id!r}; known: {TEMPLATE_IDS}")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        min_width = 1 if self.id == "PQC1" else 2
        if self.n_qubits < min_width:
            raise ValueError(f"{self.id} needs at least {min_width} qubits")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"{self.id} on {self.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap")

    @property
    def params_per_layer(self) -> int:
        n = self.n_qubits
        if self.id == "PQC1":
            return 2 * n
        if self.id == "PQC6":
            return 4 * n + n * (n - 1)
        if self.id == "PQC17":
            return 2 * n + n // 2 + (n - 1) // 2
        return 3 * n  # PQC19

    @property
    def param_count(self) -> int:
        return self.layers * self.params_per_layer


@dataclass(frozen=True)
class NoisePoint:
    """A channel application scheduled immediately after ops[after_op]."""

    after_op: int
    channel: KrausChannel
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class CircuitIR:
    n_qubits: int
    ops: tuple[GateOp, ...]
    measured_qubits: tuple[int, ...]
    #: op-count positions after which a layer boundary falls (encoding end, each PQC layer end)
    layer_breaks: tuple[int, ...] = ()
    noise_points: tuple[NoisePoint, ...] = ()
    noise_woven: bool = False
    readout: ReadoutConfusion | None = None

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "measured_qubits", tuple(self.measured_qubits))
        object.__setattr__(self, "layer_breaks", tuple(self.layer_breaks))
        object.__setattr__(self, "noise_points", tuple(self.noise_points))
        if not self.measured_qubits:
            raise ValueError("measured_qubits must be nonempty")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise ValueError("measured_qubits must be distinct")
        for q in self.measured_qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"measured qubit {q} out of range")
        for op in self.ops:
            validate_gate(op, self.n_qubits)

    @property
    def has_noise(self) -> bool:
        return any(not p.channel.is_identity for p in self.noise_points)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode_layout(d: int, n_qubits: int) -> list[list[int]]:
    """Feature indices per qubit: consecutive blocks of ceil(d / n_qubits)."""
    if d < 1:
        raise ValueError("need at least one feature")
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    block = math.ceil(d / n_qubits)
    return [list(range(q * block, min((q + 1) * block, d))) for q in range(n_qubits)]


def encode_angles(features, n_qubits: int) -> list[GateOp]:
    """Angle-encoding gate list: per qubit, H then RZ(f) for each assigned feature."""
    features = np.asarray(features, dtype=np.float64)
    ops = []
    for q, feats in enumerate(encode_layout(features.shape[0], n_qubits)):
        for f in feats:
            ops.append(GateOp("H", (q,)))
            ops.append(GateOp("RZ", (q,), float(features[f])))
    return ops


def encoding_rz_slots(d: int, n_qubits: int) -> list[tuple[int, int]]:
    """(op index, feature index) for every RZ in the encoding gate list."""
    slots = []
    pos = 0
    for feats in encode_layout(d, n_qubits):
        for f in feats:
            slots.append((pos + 1, f))
            pos += 2
    return slots


# ---------------------------------------------------------------------------
# PQC templates
# ---------------------------------------------------------------------------

def _rotation_columns(n: int, take) -> list[GateOp]:
    ops = [GateOp("RX", (q,), take()) for q in range(n)]
    ops += [GateOp("RZ", (q,), take()) for q in range(n)]
    return ops


def _layer_ops(template: PQCTemplate, take) -> list[GateOp]:
    n = template.n_qubits
    tid = template.id
    ops = _rotation_columns(n, take)
    if tid == "PQC1":
        return ops
    if tid == "PQC6":
        for control in range(n):
            for target in range(n):
                if target != control:
                    ops.append(GateOp("CRX", (control, target), take()))
        ops += _rotation_columns(n, take)
        return ops
    if tid == "PQC17":
        for q in range(0, n - 1, 2):
            ops.append(GateOp("CRX", (q + 1, q), take()))
        for q in range(1, n - 1, 2):
            ops.append(GateOp("CRX", (q + 1, q), take()))
        return ops
    # PQC19: controlled-rotation ring, control i -> target (i+1) mod n, i = n-1 .. 0
    for i in range(n - 1, -1, -1):
        ops.append(GateOp("CRX", (i, (i + 1) % n), take()))
    return ops


def build_pqc(template: PQCTemplate, params) -> list[GateOp]:
    """Emit the template's gates, consuming `params` in declaration order."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (template.param_count,):
        raise ValueError(
            f"{template.id} with {template.layers} layer(s) on {template.n_qubits} qubits "
            f"takes {template.param_count} parameters, got {params.shape}"
        )
    cursor = iter(range(params.shape[0]))

    def take():
        return float(params[next(cursor)])

    ops = []
    for _ in range(template.layers):
        ops += _layer_ops(template, take)
    return ops


def pqc_gates_per_layer(template: PQCTemplate) -> int:
    dummy = build_pqc(replace(template, layers=1), np.zeros(template.params_per_layer))
    return len(dummy)


def assemble_circuit(features, template: PQCTemplate, params, measured_qubits=None) -> CircuitIR:
    """Encoding followed by the PQC, with layer breaks at the encoding end
    and at each PQC layer end."""
    enc = encode_angles(features, template.n_qubits)
    pqc = build_pqc(template, params)
    per_layer = pqc_gates_per_layer(template)
    breaks = [len(enc)] + [len(enc) + (l + 1) * per_layer for l in range(template.layers)]
    measured = tuple(measured_qubits) if measured_qubits is not None else tuple(range(template.n_qubits))
    return CircuitIR(
        n_qubits=template.n_qubits,
        ops=tuple(enc + pqc),
        measured_qubits=measured,
        layer_breaks=tuple(breaks),
    )


# ---------------------------------------------------------------------------
# noise weaving
# ---------------------------------------------------------------------------

def weave_noise(circuit: CircuitIR, profile: DeviceProfile) -> CircuitIR:
    """Insert the profile's channels into the circuit.

    Depolarizing noise follows every gate (1- or 2-qubit rate by gate
    class); at every layer break each qubit gets amplitude damping, then
    phase flip, then bit flip.  Readout confusion attaches to the
    measurement spec.  Weaving an already-woven circuit is an error.
    """
    if circuit.noise_woven:
        raise ValueError("circuit already has noise woven in")
    points = []
    breaks = set(circuit.layer_breaks)
    for i, op in enumerate(circuit.ops):
        if op.n_qubits_acted == 1:
            points.append(NoisePoint(i, depolarizing(profile.p1), op.qubits))
        else:
            points.append(NoisePoint(i, depolarizing_2q(profile.p2), op.qubits))
        if (i + 1) in breaks:
            for q in range(circuit.n_qubits):
                points.append(NoisePoint(i, amplitude_damping(profile.gamma), (q,)))
            for q in range(circuit.n_qubits):
                points.append(NoisePoint(i, phase_flip(profile.p_phase), (q,)))
            for q in range(circuit.n_qubits):
                points.append(NoisePoint(i, bit_flip(profile.p_bit), (q,)))
    return replace(
        circuit,
        noise_points=tuple(points),
        noise_woven=True,
        readout=profile.readout_for(circuit.n_qubits),
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _batch_size(angle_overrides) -> int:
    sizes = {
        np.asarray(v).shape[0]
        for v in (angle_overrides or {}).values()
        if np.ndim(v) == 1
    }
    if len(sizes) > 1:
        raise ValueError(f"override arrays disagree on batch size: {sorted(sizes)}")
    return sizes.pop() if sizes else 1


def _evolve(circuit: CircuitIR, angle_overrides, pure: bool) -> np.ndarray:
    """Run the gates and channels in order on a batch of statevectors
    (`pure`) or density matrices, starting from |0...0>.

    An override for op i replaces its angle: a (B,) array gives per-sample
    matrices, a scalar one shared matrix.  Identity channels are skipped.
    """
    overrides = angle_overrides or {}
    b = _batch_size(overrides)
    n = circuit.n_qubits
    state = density.zero_vecs(b, n) if pure else density.zero_states(b, n)
    channels_after = {}
    for p in circuit.noise_points:
        if not p.channel.is_identity:
            channels_after.setdefault(p.after_op, []).append(p)
    for i, op in enumerate(circuit.ops):
        angle = overrides.get(i)
        mat = gate_matrix(op) if angle is None else rotation_batch(op.kind, angle)
        if pure:
            state = density.apply_unitary_vec(state, mat, op.qubits, n)
        else:
            state = density.apply_superop_batch(state, density.unitary_superop(mat), op.qubits, n)
        for p in channels_after.get(i, ()):
            state = density.apply_superop_batch(state, p.channel.superop, p.qubits, n)
    return state


def run_circuit(circuit: CircuitIR, angle_overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Execute the circuit and return exact <Z> per measured qubit, shape (B, m).

    `angle_overrides` maps op indices of parameterized gates to per-sample
    angle arrays (or scalar rebindings); arrays share the batch size B.
    Noise-free circuits run on pure statevectors, noisy ones on density
    matrices; both give identical expectations for the same circuit.
    """
    pure = not circuit.has_noise
    state = _evolve(circuit, angle_overrides, pure)
    exp_z = density.exp_z_vec if pure else density.exp_z_batch
    return np.stack([exp_z(state, q, circuit.n_qubits) for q in circuit.measured_qubits], axis=1)


def final_states(circuit: CircuitIR, angle_overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Density matrices after the full circuit, shape (B, dim, dim).

    Always evolves density matrices, regardless of noise content.
    """
    return _evolve(circuit, angle_overrides, pure=False)
