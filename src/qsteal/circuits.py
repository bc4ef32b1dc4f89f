"""Circuit construction: angle encoding, PQC templates, and noise weaving.

A :class:`CircuitIR` is an ordered gate list plus interleaved noise points
and a measurement spec.  Circuits are immutable values; the batched
executor :func:`run_circuit` evaluates a grid of probes x samples at once
from angle overrides, so one circuit skeleton serves a whole batch of
encoded samples under several parameter vectors.  Every parameterized
gate, as a unitary or a PTM, is a fixed basis weighted by 1 and the
cosines and sines of its angle (:func:`rotation_basis`).  A call builds
its gates one product of weights and basis per (gate kind, angle shape)
(:func:`_built`), and a step's matrix does not depend on what it was
built beside; the compiled product-state prefix holds its steps' bases
(:class:`Prefix`) and builds no gate at all.

A noise-free circuit runs on statevectors and unitaries, a noisy one in
the real Pauli basis of :mod:`qsteal.density`: PTM steps, per-qubit Bloch
vectors (1, x, y, z) and real pulled-back Z_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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
from .gates import GATE_KINDS, H, GateOp, gate_matrix, rotation_batch

TEMPLATE_IDS = ("PQC1", "PQC6", "PQC17", "PQC19")

#: widest register the dense simulator takes: a (B, 2^n, 2^n) state stack grows 4x per qubit
MAX_QUBITS = 8

#: rows per product-state contraction; a chunk's (rows, 4^n) Pauli vectors
#: take 16 MB at the 8-qubit cap
CONTRACT_ROWS = 32

#: samples per head call of :func:`hold_head`: at d = 8 on 4 qubits a
#: chunk's per-depth products take 64 KB as statevectors and 96 KB as
#: Bloch vectors, where one call on a 700-sample set would make 175 KB
#: and 262 KB
HOLD_ROWS = 256

#: entries of the observables one pull-back call may hold even where that is
#: more matrices than a group has rows: 2^19 (8 MB) take every probe's n
#: pulled-back Z_q at up to 6 qubits, and less than one probe's at 8
PULL_BACK_ENTRIES = 2**19


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
    """An n-qubit circuit that measures Z on every qubit: its ops, where its
    layers end, the noise woven in, and the readout confusion."""

    n_qubits: int
    ops: tuple[GateOp, ...]
    #: op-count positions after which a layer boundary falls (encoding end, each PQC layer end)
    layer_breaks: tuple[int, ...] = ()
    noise_points: tuple[NoisePoint, ...] = ()
    noise_woven: bool = False
    readout: ReadoutConfusion | None = None

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "layer_breaks", tuple(self.layer_breaks))
        object.__setattr__(self, "noise_points", tuple(self.noise_points))
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"{op.kind} qubit index {q} out of range for {self.n_qubits} qubits")
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
            if len(op.qubits) > 1 or any(len(p.qubits) > 1 for p in self.channels_after.get(i, ())):
                return i
        return len(self.ops)

    @cached_property
    def plan(self) -> tuple[tuple, tuple]:
        """Fused steps (op index or None, qubits, after) before and after
        `product_prefix_end`: the op's gate, then `after`, a fixed PTM or
        None.  A channel folds into its part's latest step on its qubits when
        that step covers them all (channels on other qubits commute past it),
        else starts a standalone step with op index None."""
        parts, latest = ([], []), ({}, {})  # per part: its steps, and the latest step on each qubit
        for i, op in enumerate(self.ops):
            steps, last = parts[i >= self.product_prefix_end], latest[i >= self.product_prefix_end]
            step = [i, op.qubits, None]
            steps.append(step)
            last.update(dict.fromkeys(op.qubits, step))
            for p in self.channels_after.get(i, ()):
                step = last.get(p.qubits[0])
                if step is None or any(last.get(q) is not step for q in p.qubits):
                    step = [None, p.qubits, None]
                    steps.append(step)
                    last.update(dict.fromkeys(p.qubits, step))
                superop = _embed(p.channel.superop, p.qubits, step[1])
                step[2] = superop if step[2] is None else superop @ step[2]
        return tuple(tuple(map(tuple, steps)) for steps in parts)

    @cached_property
    def z_signs(self) -> np.ndarray:
        """The diagonal of Z_q for each qubit q: read-only (n, 2^n) signs."""
        signs = 1.0 - 2.0 * ((np.arange(2**self.n_qubits) >> np.arange(self.n_qubits)[:, None]) & 1)
        signs.flags.writeable = False
        return signs

    @cached_property
    def splits(self) -> dict:
        """The prefix splits :func:`_split` has made, filled on first use."""
        return {}

    @cached_property
    def prefix(self) -> "Prefix":
        """`plan[0]` compiled with no angle pinned, in the form run_circuit
        runs it: 2x2 unitaries when noise-free, else PTMs."""
        return compile_prefix(self, {}, pure=not self.has_noise)


def _embed(op: np.ndarray, qubits: tuple[int, ...], into: tuple[int, ...]) -> np.ndarray:
    """An operator on `qubits` (or a stack of them) as one on `into`, which
    holds them all: identity on the other qubits, indices ordered as `into`
    lists them.  A (2^j, 2^j) unitary has one leg per qubit, a (4^j, 4^j)
    PTM two (the two bits of each qubit's Pauli index)."""
    if qubits == into:
        return op
    lead = op.shape[:-2]
    padded = np.concatenate([op.reshape(lead + (-1,)), np.zeros(lead + (1,))], axis=-1)
    return padded[..., _embedding(qubits, into, (op.shape[-1].bit_length() - 1) // len(qubits))]


@lru_cache(maxsize=None)
def _embedding(qubits: tuple[int, ...], into: tuple[int, ...], legs: int) -> np.ndarray:
    """For each entry of an operator on `into` with `legs` bits per qubit,
    the flat index of the entry of one on `qubits` that :func:`_embed`
    copies there, or -1 where the identity on the other qubits puts a zero."""
    k, j = len(into), len(qubits)
    rest = [q for q in into if q not in qubits]
    # kron(op, identity): output bits are each leg of `qubits`, then each leg of `rest`
    index = np.arange(4 ** (legs * j)).reshape(2 ** (legs * j), -1)
    full = np.where(np.eye(2 ** (legs * (k - j)), dtype=bool)[None, :, None, :], index[:, None, :, None], -1)
    at = [[*qubits, *rest].index(q) for q in into]
    out = [leg * j + t if t < j else legs * j + leg * (k - j) + t - j for leg in range(legs) for t in at]
    return full.reshape((2,) * (2 * legs * k)).transpose(out + [a + legs * k for a in out]).reshape(2 ** (legs * k), -1)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode_layout(d: int, n_qubits: int) -> list[list[int]]:
    """Feature indices per qubit: consecutive blocks of ceil(d / n_qubits).

    Qubits past the last block get no feature and no encoding gate: at
    d = 8, widths 5, 6 and 7 encode on the first 4 qubits and leave 1, 2
    and 3 qubits in |0> until the PQC.
    """
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


def assemble_circuit(features, template: PQCTemplate, params) -> CircuitIR:
    """Encoding followed by the PQC, with layer breaks at the encoding end
    and at each PQC layer end."""
    enc = encode_angles(features, template.n_qubits)
    pqc = build_pqc(template, params)
    per_layer = len(pqc) // template.layers  # every layer emits the same gates
    breaks = [len(enc)] + [len(enc) + (l + 1) * per_layer for l in range(template.layers)]
    return CircuitIR(
        n_qubits=template.n_qubits,
        ops=tuple(enc + pqc),
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
        gate_noise = depolarizing(profile.p1) if len(op.qubits) == 1 else depolarizing_2q(profile.p2)
        points.append(NoisePoint(i, gate_noise, op.qubits))
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

@dataclass(frozen=True)
class _Grid:
    """Angle overrides on a grid of P probes x B samples, rows probe-major.

    Each angle is a 0-d array (one angle for every row) or a 2-D array that
    broadcasts to (P, B): (P, 1) per probe, (1, B) per sample, (P, B) per row.
    """

    p: int
    b: int
    angles: dict

    @classmethod
    def of(cls, overrides: dict | None) -> "_Grid":
        angles = {}
        for i, v in (overrides or {}).items():
            a = v if type(v) is np.ndarray and v.dtype == np.float64 else np.asarray(v, dtype=np.float64)
            if a.ndim > 2:
                raise ValueError(f"override for op {i} has shape {a.shape}; "
                                 "expected a scalar, (B,), (1, B), (P, 1) or (P, B)")
            angles[i] = a[None] if a.ndim == 1 else a
        shapes = {a.shape for a in angles.values() if a.ndim == 2}
        try:
            p, b = np.broadcast_shapes((1, 1), *shapes)
        except ValueError:
            shapes = sorted(shapes)
            raise ValueError(f"override arrays do not broadcast to one (probes, samples) grid: {shapes}") from None
        return cls(p, b, angles)

    @property
    def rows(self) -> int:
        return self.p * self.b

    @cached_property
    def varies(self) -> tuple:
        """(op index, by probe, by sample) for each override that varies over the grid."""
        return tuple(sorted((i, a.shape[0] > 1, a.shape[1] > 1) for i, a in self.angles.items() if a.size > 1))

    def spread(self, shape: tuple[int, int], ops=None) -> dict:
        """The overrides of `ops` (every op when None), each as one angle or
        a flat array over `shape`, a part of the grid they broadcast to."""
        return {
            i: a if a.ndim == 0 else (a if a.shape == shape else np.broadcast_to(a, shape)).ravel()
            for i, a in self.angles.items()
            if ops is None or i in ops
        }

    def span(self, ops) -> tuple[int, int]:
        """The part of the grid the overrides of `ops` vary over: (1 or P, 1 or B)."""
        shapes = [a.shape for i, a in self.angles.items() if a.ndim == 2 and i in ops]
        return max((s[0] for s in shapes), default=1), max((s[1] for s in shapes), default=1)

    def groups(self, ops) -> tuple[int, dict]:
        """The rows grouped by their angles at `ops`: the P probes when
        every such override is per probe or one angle, a single group when
        all are one angle, every row otherwise.  Returns the group count G
        and each such override as one angle or a (G,) per-group array;
        group g holds rows g * R to (g + 1) * R - 1, R = P * B / G.
        """
        shape = self.span(ops)
        shape = shape if shape[1] == 1 else (self.p, self.b)
        return shape[0] * shape[1], self.spread(shape, ops)

    def count(self, ops) -> int:
        """The number of groups :meth:`groups` makes of the rows at `ops`."""
        p, b = self.span(ops)
        return p if b == 1 else self.rows

    def samples(self, lo: int, hi: int) -> "_Grid":
        """The grid of samples lo to hi - 1, under the same probes."""
        b = min(hi, self.b) - lo
        return _Grid(self.p, b, {i: a[:, lo : lo + b] if a.ndim == 2 and a.shape[1] > 1 else a
                                 for i, a in self.angles.items()})


#: PTMs of the gates that take no angle, built once
_FIXED_SUPEROPS = {"H": density.unitary_superop(H)}


def _built(circuit: CircuitIR, steps, angles: dict, pure: bool = False) -> list[np.ndarray]:
    """Each plan step's PTM, or its unitary when `pure`: its gate at its
    angle in `angles` (op index -> angle or array of angles; else the op's
    own), then its `after`; the gates of one kind and angle shape from one
    :func:`rotation_stack` over their stacked angles."""
    out, stacks = [], {}
    for k, (i, _, after) in enumerate(steps):
        op = None if i is None else circuit.ops[i]
        angle = None if op is None else angles.get(i, op.angle)
        if angle is not None:
            stacks.setdefault((op.kind, np.shape(angle)), []).append((k, angle))
        gate = None if op is None or angle is not None else gate_matrix(op) if pure else _FIXED_SUPEROPS[op.kind]
        out.append(after if gate is None else gate if after is None else after @ gate)  # a stacked step is set below
    for (kind, _), members in stacks.items():
        for (k, _), gate in zip(members, rotation_stack(kind, [angle for _, angle in members], pure)):
            out[k] = gate if steps[k][2] is None else steps[k][2] @ gate
    return out


@lru_cache(maxsize=None)
def rotation_basis(kind: str, pure: bool) -> np.ndarray:
    """The fixed matrices B_t, read-only (T, d, d), whose sum weighted by
    :func:`rotation_weights` is the gate `kind` (RX, RZ, CRX) at
    any angle, as a unitary when `pure`, else as its PTM, whose entries are
    products of two of the unitary's (Greenbaum, arXiv:1509.02921).  Read
    off the builders at the angles k pi / 2, k < 8, over which the weights
    are orthogonal, and rounded to the multiples of 1/2 every entry is."""
    thetas = np.arange(8) * (np.pi / 2)
    weights = rotation_weights(thetas, pure, GATE_KINDS[kind][0] == 2)
    samples = rotation_batch(kind, thetas) if pure else density.unitary_superop(rotation_batch(kind, thetas))
    basis = ((weights / (weights * weights).sum(axis=0)).T @ samples.reshape(8, -1)).reshape(-1, *samples.shape[1:])
    basis = np.round(2 * basis) / 2 + 0.0  # + 0.0 turns a rounded -0.0 into 0.0
    basis.flags.writeable = False
    return basis


def rotation_weights(angles, pure: bool, controlled: bool = False) -> np.ndarray:
    """The :func:`rotation_basis` weights, (..., T): 1 unless the gate is a 1-qubit rotation as a
    unitary, then cos, sin of theta / 2 if `pure` or `controlled`, then cos, sin of theta unless `pure`."""
    angles = np.asarray(angles, dtype=np.float64)
    ones, half = int(controlled or not pure), pure or controlled
    out = np.empty(angles.shape + (ones + 2 * half + 2 * (not pure),))
    if ones:
        out[..., 0] = 1.0
    if half:
        halves = angles / 2
        np.cos(halves, out=out[..., ones])
        np.sin(halves, out=out[..., ones + 1])
    if not pure:
        np.cos(angles, out=out[..., -2])
        np.sin(angles, out=out[..., -1])
    return out


def rotation_stack(kind: str, angles, pure: bool) -> np.ndarray:
    """The gate `kind` at each of `angles`, angles.shape + (d, d): weights times basis, each entry at most two
    nonzero exact products, so one rounding whatever the stack: it equals the gate built alone."""
    basis = rotation_basis(kind, pure)
    weights = rotation_weights(angles, pure, GATE_KINDS[kind][0] == 2)
    flat = np.dot(weights.reshape(-1, basis.shape[0]), basis.reshape(basis.shape[0], -1))
    return flat.reshape(weights.shape[:-1] + basis.shape[1:])


@dataclass(frozen=True, eq=False)
class Prefix:
    """A compiled product-state prefix (:func:`compile_prefix`), or a head of
    one, laid out by depth for :func:`run_prefix`: read-only start states
    `starts`, (n, 2) statevectors or (n, 4) Bloch vectors, and the variable
    steps (op index, (q,), after) in plan order, `after` a 2x2 unitary, a
    4x4 PTM or None.  The k-th step of each qubit has depth k.  The qubits
    stand in `order` (None for 0..n-1) by falling step count, so those with
    a step at depth k are the first `depths[k][1]`, and the steps stand
    depth-major in that order, depth k from position `depths[k][0]` on.  Per
    position, `ops` holds the op index, `rows` the index in `steps`, and
    `maps` the read-only `after` @ B_t of the op's :func:`rotation_basis`,
    (positions, T, dim, dim): the step at theta is sum_t w_t(theta) maps[k, t].
    """

    starts: np.ndarray
    steps: tuple
    order: np.ndarray | None
    depths: tuple
    ops: tuple
    rows: np.ndarray
    maps: np.ndarray

    @classmethod
    def of(cls, circuit: CircuitIR, starts: np.ndarray, steps: tuple) -> "Prefix":
        """The layout of `steps`, variable prefix steps of `circuit` in plan
        order, from the start states `starts`."""
        on = [[step for step in steps if step[1] == (q,)] for q in range(starts.shape[0])]
        order = sorted(range(len(on)), key=lambda q: -len(on[q]))
        seq, depths = [], []
        for k in range(len(on[order[0]]) if steps else 0):
            here = [on[q][k] for q in order if len(on[q]) > k]
            depths.append((len(seq), len(here)))
            seq += here
        ops = tuple(i for i, _, _ in seq)
        dim = starts.shape[1]
        bases = [rotation_basis(circuit.ops[i].kind, dim == 2) for i in ops]
        maps = np.array([b if after is None else after @ b for b, (_, _, after) in zip(bases, seq)])
        maps = maps.reshape(-1, 2 if dim == 2 else 3, dim, dim)
        maps.flags.writeable = False
        return cls(
            starts=starts,
            steps=tuple(steps),
            order=None if order == sorted(order) else np.array(order),
            depths=tuple(depths),
            ops=ops,
            rows=np.array([[i for i, _, _ in steps].index(i) for i in ops], dtype=np.intp),
            maps=maps,
        )


def compile_prefix(circuit: CircuitIR, pinned: dict, pure: bool) -> Prefix:
    """The product-state prefix, `plan[0]`, with its fixed steps folded away.

    A step is fixed when it has no angle or `pinned` (op index -> angle)
    holds its angle.  On each qubit a run of fixed steps folds into the
    `after` of the variable-angle step before it, or else into the qubit's
    start state.  Returns the read-only start states, (n, 2) statevectors
    (`pure`, `after` then 2x2) or (n, 4) Bloch vectors (`after` then a PTM),
    and the variable steps (op index, qubits, after) in plan order, laid
    out by depth (:class:`Prefix`)."""
    starts = np.zeros((circuit.n_qubits, 2 if pure else 4), dtype=np.complex128 if pure else np.float64)
    starts[:, [0] if pure else [0, 3]] = 1.0  # |0>, or the Bloch vector (1, 0, 0, 1) of |0><0| = (I + Z) / 2
    steps, last, plan = [], {}, circuit.plan[0]
    variable = [i is not None and circuit.ops[i].angle is not None and i not in pinned for i, _, _ in plan]
    fixed = iter(_built(circuit, [step for step, var in zip(plan, variable) if not var], pinned, pure))
    for (i, (q,), after), var in zip(plan, variable):
        if var:
            last[q] = [i, (q,), after]
            steps.append(last[q])
            continue
        mat = next(fixed)
        if q in last:
            last[q][2] = mat if last[q][2] is None else mat @ last[q][2]
        else:
            starts[q] = mat @ starts[q]
    for array in [starts] + [after for _, _, after in steps if after is not None]:
        array.flags.writeable = False
    return Prefix.of(circuit, starts, tuple(map(tuple, steps)))


def _evolve(circuit: CircuitIR, overrides: dict, b: int) -> np.ndarray:
    """Run the circuit's plan steps in order on a batch of B Pauli vectors,
    (B, 2^n, 2^n), starting from |0...0>, whose Pauli vector is the identity.

    An override for op i replaces its angle: a (B,) array gives per-row
    matrices, one angle a shared matrix.
    """
    plan = circuit.plan[0] + circuit.plan[1]
    steps = list(zip(_built(circuit, plan, overrides), [qubits for _, qubits, _ in plan]))
    start = np.broadcast_to(np.eye(2**circuit.n_qubits), (b, 2**circuit.n_qubits, 2**circuit.n_qubits))
    return density.apply_superop_batch(start, steps, circuit.n_qubits)


def run_prefix(circuit: CircuitIR, angles: dict | np.ndarray, prefix: Prefix, shape: tuple):
    """Each row's state after the steps of a compiled product-state prefix
    (:class:`Prefix`), the rows laid out over the (probes, samples) grid
    that `shape` and the steps' angles span: the (rows, 2^n) product
    statevectors from 2x2 unitaries, each qubit's Bloch vectors (n, rows,
    4) from PTMs.  An angle in `angles` (op index -> angle) is one angle, a
    (B,) array or a 2-D array that broadcasts to (P, B); a step without
    one takes its op's own.  Or `angles` is a (steps, B) array of every
    step's per-sample angles in plan order, as a served batch's x.T.

    The steps run one depth at a time and build no gate: a depth's qubits,
    the leading ones of `order`, meet its `maps` in one stacked product,
    whose sum weighted by :func:`rotation_weights` is the new states.  The
    states span only the grid axes the steps so far vary over, so per-sample
    encodings before per-probe rotations run on B rows, not P * B.
    """
    n, size = prefix.starts.shape
    pure = size == 2
    if isinstance(angles, dict):
        vals = [np.atleast_2d(angles.get(i, circuit.ops[i].angle)) for i in prefix.ops]
        weights = [rotation_weights(np.array(np.broadcast_arrays(*vals[lo : lo + count])), pure)[..., None]
                   for lo, count in prefix.depths]
    else:  # (steps, B) per-sample angles, the steps in plan order
        w = rotation_weights(angles[prefix.rows][:, None], pure)[..., None]
        weights = [w[lo : lo + count] for lo, count in prefix.depths]
    states = (prefix.starts if prefix.order is None else prefix.starts[prefix.order])[:, None, None]
    for (lo, count), w in zip(prefix.depths, weights):
        maps = prefix.maps[lo : lo + count].reshape(count, 1, 1, -1, size)
        products = np.matmul(maps, states[:count, ..., None]).reshape(count, *states.shape[1:3], -1, size)
        out = np.add.reduce(products * w, axis=-2)
        if count < n:  # the qubits with no step at this depth keep their states
            out = np.concatenate([out, np.broadcast_to(states[count:], (n - count, *out.shape[1:]))])
        states = out
    grid = (max(states.shape[1], shape[0]), max(states.shape[2], shape[1]))
    if states.shape[1:3] != grid:
        states = np.broadcast_to(states, (n, *grid, size))
    if prefix.order is not None:
        states = states[np.argsort(prefix.order)]
    if pure:
        return _kron_rows(list(states.reshape(n, -1, 2)))
    return states.reshape(n, -1, 4)


def _kron_rows(vecs: list[np.ndarray]) -> np.ndarray:
    """Each row's product of per-qubit (rows, s) vectors, qubit 0 the least
    significant digit: (rows, s^n), statevectors or Pauli vectors."""
    out = vecs[-1]
    for v in reversed(vecs[:-1]):
        out = (out[:, :, None] * v[:, None, :]).reshape(out.shape[0], -1)
    return out


def z_expectations(circuit: CircuitIR, vecs: np.ndarray) -> np.ndarray:
    """<Z_q> per qubit q of each statevector in a (..., R, 2^n)
    stack: (..., R, n).  Each block of R rows meets the signs in its own
    (R, 2^n) @ (2^n, n) product, so a row's result does not depend on the
    blocks beside it, as it can on the rows beside it in one BLAS product
    at 5-7 qubits."""
    return (vecs.conj() * vecs).real @ circuit.z_signs.T


def _rest(circuit: CircuitIR, overrides: dict, lead: tuple) -> list[tuple]:
    """The circuit after its product-state prefix as (operator, qubits)
    steps in plan order, unitaries when it is noise-free and else PTMs,
    with `lead`, steps of the compiled prefix, run first:
    each qubit's lead steps fold into the first later step on that qubit,
    or stay a step of their own when no later step touches it.
    """
    ops = _built(circuit, lead + circuit.plan[1], overrides, pure=not circuit.has_noise)
    pending = {}
    for (_, (q,), _), op in zip(lead, ops):
        pending[q] = op if q not in pending else op @ pending[q]
    steps = []
    for (_, qubits, _), op in zip(circuit.plan[1], ops[len(lead) :]):
        for q in qubits:
            if q in pending:
                op = op @ _embed(pending.pop(q), (q,), qubits)
        steps.append((op, qubits))
    return [(op, (q,)) for q, op in pending.items()] + steps


def pulled_back(circuit: CircuitIR, overrides: dict, lead: tuple = ()) -> np.ndarray:
    """Each group of rows' readout pulled back through `lead` (steps of the
    compiled prefix) and then the circuit after its product-state prefix:
    (G * width, entries), group-major.  An override is one angle for every
    group or a (G,) array of per-group angles.

    A noisy circuit, Phi, pulls back each Z_q as Phi^dag(Z_q), a
    real (4^n,) Pauli vector in Kronecker order, qubit 0 the least
    significant digit: width n.  A noise-free one, U, pulls back each basis
    vector e_k as U^dag e_k, a (2^n,) row: width 2^n.  The adjoint of a
    step is its conjugate transpose, so the rows run backwards through the
    steps (:func:`_rest`), each one fused operator, with the kernel the
    states use, one GEMM per step and group.
    """
    n, dim = circuit.n_qubits, 2**circuit.n_qubits
    g = max((np.size(v) for v in overrides.values() if np.ndim(v) == 1), default=1)
    steps = [(op.conj().swapaxes(-1, -2), qubits) for op, qubits in reversed(_rest(circuit, overrides, lead))]
    if not circuit.has_noise:
        return density.apply_unitary_vec(np.tile(np.eye(dim, dtype=np.complex128), (g, 1)), steps, n, g)
    obs = np.zeros((g * n, dim, dim))
    bits = np.tile(1 << np.arange(n), g)
    obs[np.arange(obs.shape[0]), bits, bits] = 1.0  # Z_q: Pauli index 3 on qubit q, both its bits set
    obs = density.apply_superop_batch(obs, steps, n, g)
    # each qubit's bit of the first leg beside its bit of the second: Kronecker order
    interleaved = [0, *(1 + k + leg * n for k in range(n) for leg in (0, 1))]
    return obs.reshape((-1,) + (2,) * (2 * n)).transpose(interleaved).reshape(obs.shape[0], -1)


def contract_rows(bloch: np.ndarray, rows: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Tr(O rho) for each selected row rho and each observable O in `obs`:
    (len(rows), len(obs)).

    `bloch` holds each qubit's Bloch vectors, (n, rows, 4), as
    :func:`run_prefix` gives them, and `obs` real (4^n,) Pauli vectors
    in Kronecker order, such as pulled-back Z_q (:func:`pulled_back`).
    Each row's Pauli vector, the Kronecker product of its Bloch vectors, is
    formed once and meets every observable in one matrix product.  The rows
    go CONTRACT_ROWS at a time, a short chunk padded with zero rows: BLAS
    rounds a row of a real GEMM by the number of rows beside it, so every
    product has one shape and a row's result does not depend on the rows
    beside it.
    """
    out = np.empty((rows.size, obs.shape[0]))
    for lo in range(0, rows.size, CONTRACT_ROWS):
        sel = rows[lo : lo + CONTRACT_ROWS]
        states = _kron_rows([b[sel] for b in bloch])
        if sel.size < CONTRACT_ROWS:
            states = np.concatenate([states, np.zeros((CONTRACT_ROWS - sel.size, states.shape[1]))])
        out[lo : lo + sel.size] = (states @ obs.T)[: sel.size]
    return out


def meet(circuit: CircuitIR, states, rows: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """<Z_q> per qubit q for each selected row of `states`, as
    :func:`run_prefix` gives them, after each group's pulled-back rows in `obs`
    (:func:`pulled_back`): (len(rows), G * n).

    A mixed row rho meets the pulled-back Z_q as the dot products of their
    Pauli vectors (:func:`contract_rows`).  A pure row psi meets the pulled-back basis
    rows y_k = U^dag e_k in the same product, conj(psi) @ Y^T, whose
    entries sum_j conj(y_k[j]) psi[j] are the amplitudes <e_k|U|psi>,
    conjugated; their squares meet the Z signs, each row's in a block of
    its own.  Each row's result does not depend on the rows beside it.
    """
    if circuit.has_noise:
        return contract_rows(states, rows, obs)
    amps = density.matmul_rows(states[rows].conj(), obs.T).reshape(rows.size, -1, states.shape[1])
    return z_expectations(circuit, amps).reshape(rows.size, -1)


def _split(circuit: CircuitIR, grid: _Grid, width: int) -> tuple[Prefix, tuple, set] | None:
    """The pulled-back picture's split of the compiled prefix for `grid`:
    a head (:class:`Prefix`), a lead, and the ops of the lead and the rest
    of the circuit; or None when that picture does not take the grid.

    On each qubit the head holds the steps up to its last one whose angle
    varies by sample, and the lead the steps after it.  The picture takes
    the grid when no head angle varies by probe, so the head runs on the
    B samples alone, and the groups of rows with equal angles in the lead
    and the rest (:meth:`_Grid.groups`) pull back fewer than P * B rows of
    `width` each (:func:`pulled_back`).  The split depends on the grid only
    through the axes each override varies over, so it is held per such
    pattern (`CircuitIR.splits`)."""
    if grid.varies not in circuit.splits:
        circuit.splits[grid.varies] = _split_entry(circuit, grid.varies)
    entry = circuit.splits[grid.varies]
    return entry if entry is not None and grid.count(entry[2]) * width < grid.rows else None


def _split_entry(circuit: CircuitIR, varies: tuple) -> tuple[Prefix, tuple, set] | None:
    """An entry of `CircuitIR.splits`: the head, the lead, and the ops of
    the lead and the rest; None when a head angle varies by probe."""
    steps, by_sample = circuit.prefix.steps, {i for i, _, s in varies if s}
    last = {step[1]: k for k, step in enumerate(steps) if step[0] in by_sample}
    moved = [k > last.get(step[1], -1) for k, step in enumerate(steps)]
    head = tuple(step for step, mv in zip(steps, moved) if not mv)
    lead = tuple(step for step, mv in zip(steps, moved) if mv)
    if any(p for i, p, _ in varies if i in {step[0] for step in head}):
        return None
    ops = {i for i, _, _ in circuit.plan[1]} | {step[0] for step in lead}
    head = circuit.prefix if len(head) == len(steps) else Prefix.of(circuit, circuit.prefix.starts, head)
    return head, lead, ops


@dataclass(frozen=True, eq=False)
class HeldHead:
    """The head of one split (:func:`_split`), run once on every sample of
    a data set (:func:`hold_head`): `states` as :func:`run_prefix` gives them,
    (N, 2^n) product statevectors or (n, N, 4) real Bloch vectors, for the
    grids whose overrides vary as `varies` says."""

    head: Prefix
    varies: tuple
    states: np.ndarray


def hold_head(circuit: CircuitIR, angle_overrides: dict, batch: int) -> HeldHead | None:
    """The per-sample head that run_circuit splits off a call on the first
    `batch` samples of a probes x samples grid, run on all N of them, so a
    call on any `batch` samples with the same probes meets its rows here
    (:func:`run_circuit`'s `held`).  None when such a call takes another
    picture (:func:`_split`) or has a single sample.  The head runs on
    HOLD_ROWS samples at a time, which bounds the arrays it makes; a row's
    state does not depend on the rows run beside it.
    """
    grid = _grid(circuit, angle_overrides)
    call = grid.samples(0, batch)
    split = None if call.b < 2 else _split(circuit, call, _width(circuit))
    if split is None:
        return None
    head, noisy = split[0], circuit.has_noise
    states = np.empty((circuit.n_qubits, grid.b, 4) if noisy else (1, grid.b, 2**circuit.n_qubits),
                      dtype=np.float64 if noisy else np.complex128)
    for lo in range(0, grid.b, HOLD_ROWS):
        part = grid.samples(lo, lo + HOLD_ROWS)
        states[:, lo : lo + part.b] = run_prefix(circuit, part.angles, head, (1, part.b))
    return HeldHead(head, call.varies, states if noisy else states[0])


def _pulled_back_picture(circuit: CircuitIR, grid: _Grid, split: tuple, width: int,
                         held: tuple | None = None) -> np.ndarray:
    """<Z> per qubit for every row, from its head state and its
    group's pulled-back rows.

    `split` is the grid's head, lead, and ops of the lead and the rest
    (:func:`_split`).  The head runs on the B samples, or, when `held` is
    a (:class:`HeldHead`, B row indices) pair held for this head, the B
    samples are those rows of the held states.  Through the lead and the
    rest, each group of rows with equal angles there pulls back its
    `width` rows once, a chunk of groups at a time, and each chunk meets
    the B samples in one :func:`meet` call.  A chunk holds up to
    PULL_BACK_ENTRIES entries, which take every group at up to 6 qubits,
    or else fewer rows than a group has rows, and at least one group.
    """
    head, lead, ops = split
    g, angles = grid.groups(ops)
    if held is not None and held[0].head is head and held[0].varies == grid.varies:
        states, rows = held[0].states, held[1]
    else:
        states, rows = run_prefix(circuit, grid.angles, head, (1, grid.b)), np.arange(grid.b)
    n = circuit.n_qubits
    entries = circuit.prefix.starts.shape[1] ** circuit.n_qubits  # 2^n per statevector, 4^n per density matrix
    chunk = max(1, (grid.rows - 1) // (g * width), PULL_BACK_ENTRIES // (width * entries))
    exps = np.empty((g, grid.b, n))
    for lo in range(0, g, chunk):
        part = {i: a if a.ndim == 0 else a[lo : lo + chunk] for i, a in angles.items()}
        obs = pulled_back(circuit, part, lead)
        exps[lo : lo + chunk] = meet(circuit, states, rows, obs).reshape(grid.b, -1, n).swapaxes(0, 1)
        del obs  # the next chunk's pull-back must not overlap this one's rows
    return np.broadcast_to(exps, (grid.p, grid.b, n)).reshape(grid.rows, n)


def run_circuit(
    circuit: CircuitIR, angle_overrides: dict[int, np.ndarray] | None = None, held: tuple | None = None
) -> np.ndarray:
    """Execute the circuit and return exact <Z> per qubit, shape
    (P * B, n), rows probe-major.

    `angle_overrides` maps op indices of parameterized gates to angles laid
    out on a grid of P probes x B samples: one angle for every row, a (B,)
    or (1, B) array per sample, a (P, 1) array per probe or a (P, B) array
    per row; they broadcast.  Every circuit starts with its compiled
    product-state prefix (`CircuitIR.prefix`).  The rows are grouped by
    their angles after the prefix (:meth:`_Grid.groups`), and a group's
    readout is `width` rows wide (:func:`_width`).  The picture is:

    * pulled-back (:func:`_pulled_back_picture`) when :func:`_split` takes
      the grid;
    * else, noise-free, the state picture: the prefix forms each row's
      statevector, and each later gate is applied once per group;
    * else Schroedinger, every row's Pauli vector evolved through the
      whole circuit, whose Z_q coefficients are the <Z_q>.

    `held`, a (:class:`HeldHead`, rows) pair from :func:`hold_head`, gives
    the B samples' head states as those rows of a data set's held states,
    which the pulled-back picture meets instead of running the head from
    the samples' angles (those rows' angles); any other picture runs from
    the angles, so the result is the same.
    """
    grid = _grid(circuit, angle_overrides)
    if held is not None and len(held[1]) != grid.b:
        raise ValueError(f"{len(held[1])} held rows for a grid of {grid.b} samples")
    width = _width(circuit)
    split = _split(circuit, grid, width)
    if split is not None:
        return _pulled_back_picture(circuit, grid, split, width, held)
    if not circuit.has_noise:
        g, angles = grid.groups(range(circuit.product_prefix_end, len(circuit.ops)))
        plan = circuit.plan[1]
        steps = list(zip(_built(circuit, plan, angles, pure=True), [qubits for _, qubits, _ in plan]))
        vecs = run_prefix(circuit, grid.angles, circuit.prefix, (grid.p, grid.b))
        return z_expectations(circuit, density.apply_unitary_vec(vecs, steps, circuit.n_qubits, g))
    z = 1 << np.arange(circuit.n_qubits)  # Z_q: Pauli index 3 on qubit q, both its bits set
    return _evolve(circuit, grid.spread((grid.p, grid.b)), grid.rows)[:, z, z]


def _width(circuit: CircuitIR) -> int:
    """The rows a group's readout pulls back: 2^n basis vectors when the
    circuit is noise-free, else its n Z_q."""
    return circuit.n_qubits if circuit.has_noise else 2**circuit.n_qubits


def _grid(circuit: CircuitIR, overrides: dict | None) -> _Grid:
    """The grid of `overrides` (:meth:`_Grid.of`), each of which must name
    an op of the circuit that takes an angle."""
    for i in overrides or {}:
        if not 0 <= i < len(circuit.ops):
            raise ValueError(f"override for op {i}: the circuit has {len(circuit.ops)} ops")
        if circuit.ops[i].angle is None:
            raise ValueError(f"override for op {i}: {circuit.ops[i].kind} takes no angle")
    return _Grid.of(overrides)


def final_states(circuit: CircuitIR, angle_overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Density matrices after the full circuit, shape (P * B, dim, dim), for
    overrides laid out as :func:`run_circuit` takes them.

    Always evolves Pauli vectors, regardless of noise content, and maps
    them back at the end: one complex 4x4 change of basis per qubit, from
    its two Pauli bits to its row and column bits, in one kernel call.
    """
    grid = _grid(circuit, angle_overrides)
    back = [(density.pauli_basis(1)[1], (q,)) for q in range(circuit.n_qubits)]
    return density.apply_superop_batch(_evolve(circuit, grid.spread((grid.p, grid.b)), grid.rows), back, circuit.n_qubits)
