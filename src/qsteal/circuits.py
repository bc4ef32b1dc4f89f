"""Circuit construction: angle encoding, PQC templates, and noise weaving.

A :class:`CircuitIR` is an ordered gate list plus interleaved noise points
and a measurement spec.  Circuits are immutable values; the batched
executor :func:`run_circuit` evaluates many rows at once and takes
per-row angle overrides so one circuit skeleton serves a whole batch
of encoded samples (and of parameter vectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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

#: rows per product-state contraction; a chunk's (rows, 4^n) product states
#: take 32 MB at the 8-qubit cap
CONTRACT_ROWS = 32


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
        for i, p in enumerate(self.noise_points):
            where = f"noise point {i} ({p.channel.name} after op {p.after_op})"
            if not 0 <= p.after_op < len(self.ops):
                raise ValueError(f"{where}: after_op out of range for {len(self.ops)} ops")
            if len(p.qubits) != p.channel.n_qubits_acted:
                raise ValueError(f"{where}: acts on {p.channel.n_qubits_acted} qubit(s), got qubits {p.qubits}")
            if len(set(p.qubits)) != len(p.qubits):
                raise ValueError(f"{where}: qubits must be distinct, got {p.qubits}")
            for q in p.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"{where}: qubit {q} out of range for {self.n_qubits} qubits")

    @property
    def has_noise(self) -> bool:
        return bool(self.channels_after)

    @cached_property
    def channels_after(self) -> dict[int, list[NoisePoint]]:
        """Non-identity noise points by the op they follow, in circuit order."""
        after = {}
        for p in self.noise_points:
            if not p.channel.is_identity:
                after.setdefault(p.after_op, []).append(p)
        return after

    @cached_property
    def product_prefix_end(self) -> int:
        """Length of the leading run of ops that, with the channels after
        them, each act on one qubit: the part of the circuit that keeps
        |0...0> a product state."""
        for i, op in enumerate(self.ops):
            if op.n_qubits_acted > 1 or any(len(p.qubits) > 1 for p in self.channels_after.get(i, ())):
                return i
        return len(self.ops)


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


def _matrix(op: GateOp, angle) -> np.ndarray:
    return gate_matrix(op) if angle is None else rotation_batch(op.kind, angle)


def _evolve(circuit: CircuitIR, overrides: dict, b: int, pure: bool) -> np.ndarray:
    """Run the gates and channels in order on a batch of B statevectors
    (`pure`) or density matrices, starting from |0...0>.

    An override for op i replaces its angle: a (B,) array gives per-sample
    matrices, a scalar one shared matrix.  Identity channels are skipped.
    """
    n = circuit.n_qubits
    state = density.zero_vecs(b, n) if pure else density.zero_states(b, n)
    for i, op in enumerate(circuit.ops):
        mat = _matrix(op, overrides.get(i))
        if pure:
            state = density.apply_unitary_vec(state, mat, op.qubits, n)
        else:
            state = density.apply_superop_batch(state, density.unitary_superop(mat), op.qubits, n)
        for p in circuit.channels_after.get(i, ()):
            state = density.apply_superop_batch(state, p.channel.superop, p.qubits, n)
    return state


def _suffix_rows(overrides: dict, start: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the B rows by their angles at ops >= `start`.

    Returns each row's group index and one representative row per group.
    """
    columns = [np.asarray(v) for i, v in sorted(overrides.items()) if i >= start and np.ndim(v) == 1]
    if not columns:
        return np.zeros(b, dtype=np.intp), np.zeros(1, dtype=np.intp)
    _, first, group = np.unique(np.stack(columns, axis=1), axis=0, return_index=True, return_inverse=True)
    return group.reshape(-1), first


def product_prefix(circuit: CircuitIR, overrides: dict, b: int) -> list[np.ndarray]:
    """Each row's state after the circuit's product-state prefix (the ops
    before `product_prefix_end`), as one transposed (B, 2, 2) factor per
    qubit: the 2x2 evolutions of a product state, row by row."""
    n = circuit.n_qubits
    # vecs[q] holds the row-major vec of each row's 2x2 state of qubit q,
    # which a 1-qubit superoperator multiplies directly
    vecs = np.zeros((n, b, 4), dtype=np.complex128)
    vecs[:, :, 0] = 1.0
    for i in range(circuit.product_prefix_end):
        op = circuit.ops[i]
        steps = [(density.unitary_superop(_matrix(op, overrides.get(i))), op.qubits[0])]
        steps += [(p.channel.superop, p.qubits[0]) for p in circuit.channels_after.get(i, ())]
        for superop, q in steps:
            vecs[q] = np.matmul(superop, vecs[q][..., None])[..., 0]
    return [v.reshape(b, 2, 2).transpose(0, 2, 1) for v in vecs]


def pulled_back_z(circuit: CircuitIR, overrides: dict, rows: np.ndarray) -> np.ndarray:
    """Phi^dag(Z_q) for each representative row and measured qubit q, where
    Phi is the circuit after its product-state prefix: (len(rows) * m, dim,
    dim), row-major.

    The adjoint of a superoperator S is its conjugate transpose, so the
    observables run backwards through the same kernel the states use.
    """
    n = circuit.n_qubits
    m = len(circuit.measured_qubits)
    dim = 2**n
    signs = 1.0 - 2.0 * ((np.arange(dim)[None, :] >> np.array(circuit.measured_qubits)[:, None]) & 1)
    obs = np.zeros((len(rows) * m, dim, dim), dtype=np.complex128)
    obs[:, np.arange(dim), np.arange(dim)] = np.tile(signs, (len(rows), 1))
    for i in range(len(circuit.ops) - 1, circuit.product_prefix_end - 1, -1):
        for p in reversed(circuit.channels_after.get(i, ())):
            obs = density.apply_superop_batch(obs, p.channel.superop.conj().T, p.qubits, n)
        angle = overrides.get(i)
        if np.ndim(angle) == 1:
            angle = np.repeat(np.asarray(angle)[rows], m)
        superop = density.unitary_superop(_matrix(circuit.ops[i], angle))
        obs = density.apply_superop_batch(obs, superop.conj().swapaxes(-1, -2), circuit.ops[i].qubits, n)
    return obs


def contract_rows(factors: list[np.ndarray], rows: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """<Z_q> = Tr(O_q rho) for the selected rows: (len(rows), m).

    `factors` come from :func:`product_prefix` and `obs` holds the m
    pulled-back observables as (m, 4^n) row-major matrices.  Since
    Tr(O rho) = sum_xy O[x, y] rho^T[x, y] and rho^T is the product of the
    transposed factors, each row is one product state against `obs`.  The
    rows go CONTRACT_ROWS at a time, and each row's result does not depend
    on the rows contracted beside it.
    """
    out = np.empty((rows.size, obs.shape[0]))
    for lo in range(0, rows.size, CONTRACT_ROWS):
        sel = rows[lo : lo + CONTRACT_ROWS]
        states = _product_state(factors, sel).reshape(sel.size, -1)
        out[lo : lo + sel.size] = density.matmul_rows(states, obs.T).real
    return out


def _heisenberg(circuit, overrides, group, first) -> np.ndarray:
    """<Z> per measured qubit as Tr(Phi^dag(Z_q) rho_prefix) for every row.

    The product-state prefix runs as one 2x2 state per row and qubit; the
    rest of the circuit is applied to the observables, once per group
    of rows sharing its angles.  Groups are pulled back a chunk at a time,
    so the observable stack holds fewer matrices than a group has rows on
    average: never more memory than the Schroedinger picture of one group.
    """
    b = group.shape[0]
    m = len(circuit.measured_qubits)
    factors = product_prefix(circuit, overrides, b)
    exps = np.empty((b, m))
    chunk = max(1, (b - 1) // (len(first) * m))
    for lo in range(0, len(first), chunk):
        obs = pulled_back_z(circuit, overrides, first[lo : lo + chunk])
        obs = obs.reshape(-1, m, 4**circuit.n_qubits)
        for j, g in enumerate(range(lo, lo + obs.shape[0])):
            sel = np.flatnonzero(group == g)
            exps[sel] = contract_rows(factors, sel, obs[j])
        del obs  # the next chunk's pull-back must not overlap this one's observables
    return exps


def _product_state(factors: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The selected rows of the product of per-qubit (B, 2, 2) factors,
    qubit 0 the least significant bit: (len(rows), dim, dim)."""
    out = factors[-1][rows]
    for f in reversed(factors[:-1]):
        out = np.einsum("rab,rcd->racbd", out, f[rows]).reshape(rows.size, 2 * out.shape[1], -1)
    return out


def _schroedinger(circuit: CircuitIR, overrides: dict, b: int) -> np.ndarray:
    pure = not circuit.has_noise
    state = _evolve(circuit, overrides, b, pure)
    exp_z = density.exp_z_vec if pure else density.exp_z_batch
    return np.stack([exp_z(state, q, circuit.n_qubits) for q in circuit.measured_qubits], axis=1)


def run_circuit(circuit: CircuitIR, angle_overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Execute the circuit and return exact <Z> per measured qubit, shape (B, m).

    `angle_overrides` maps op indices of parameterized gates to per-row
    angle arrays (or scalar rebindings); arrays share the batch size B.
    Noise-free circuits run on pure statevectors.  Noisy ones run on
    density matrices in one of two pictures that give the same
    expectations.  The rows are grouped by their angles after the circuit's
    product-state prefix (its leading 1-qubit ops and channels).  With G
    groups and m measured qubits:

    * G * m < B: Heisenberg.  The prefix runs per qubit and each Z_q is
      pulled back through the rest of the circuit once per group.
    * otherwise Schroedinger: the B states are evolved, a group at a time
      (its angles as shared matrices) when groups hold several rows.
    """
    overrides = angle_overrides or {}
    b = _batch_size(overrides)
    # a single row is a single group: neither alternative to the plain loop applies
    if not circuit.has_noise or b == 1:
        return _schroedinger(circuit, overrides, b)
    start = circuit.product_prefix_end
    group, first = _suffix_rows(overrides, start, b)
    if len(first) * len(circuit.measured_qubits) < b:
        return _heisenberg(circuit, overrides, group, first)
    if not 1 < len(first) < b:
        return _schroedinger(circuit, overrides, b)
    exps = np.empty((b, len(circuit.measured_qubits)))
    for g, row in enumerate(first):
        sel = np.flatnonzero(group == g)
        exps[sel] = _schroedinger(circuit, {
            i: v if np.ndim(v) == 0 else np.asarray(v)[row if i >= start else sel] for i, v in overrides.items()
        }, sel.size)
    return exps


def final_states(circuit: CircuitIR, angle_overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Density matrices after the full circuit, shape (B, dim, dim).

    Always evolves density matrices, regardless of noise content.
    """
    overrides = angle_overrides or {}
    return _evolve(circuit, overrides, _batch_size(overrides), pure=False)
