"""Gate definitions and the gate-operation value type.

Conventions (fixed once, everything downstream depends on them):

* Qubit 0 is the least significant bit of the computational-basis index.
* Rotations follow exp(-i * theta * P / 2), so RZ(theta) is
  diag(e^{-i theta/2}, e^{+i theta/2}).
* Two-qubit gate matrices are indexed with the first listed qubit as the
  high bit of the 2-bit index, i.e. CNOT acts on (control, target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}

#: gate name -> (number of qubits, takes an angle)
GATE_KINDS = {
    "H": (1, False),
    "X": (1, False),
    "SX": (1, False),
    "RX": (1, True),
    "RY": (1, True),
    "RZ": (1, True),
    "CNOT": (2, False),
    "CZ": (2, False),
    "CRX": (2, True),
    "CRZ": (2, True),
}


_CONTROLLED_BASE = {"CRX": "RX", "CRZ": "RZ"}


def rotation_batch(kind: str, angles) -> np.ndarray:
    """Matrices of a parameterized gate kind (RX, RY, RZ, CRX, CRZ).

    A scalar angle gives one (d, d) matrix; an array of angles gives a
    stack of shape angles.shape + (d, d) whose entries each equal the
    matrix built alone.
    """
    angles = np.asarray(angles, dtype=np.float64)
    base = _CONTROLLED_BASE.get(kind, kind)
    out = np.zeros(angles.shape + (2, 2), dtype=np.complex128)
    if base == "RZ":
        out[..., 0, 0] = np.exp(-0.5j * angles)
        out[..., 1, 1] = np.exp(0.5j * angles)
    elif base == "RX":
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        out[..., 0, 0] = out[..., 1, 1] = c
        out[..., 0, 1] = out[..., 1, 0] = -1j * s
    elif base == "RY":
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        out[..., 0, 0] = out[..., 1, 1] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
    else:
        raise ValueError(f"{kind} is not a parameterized gate")
    return out if base == kind else _controlled(out)


def _controlled(u: np.ndarray) -> np.ndarray:
    """4x4 controlled-U with the control on the high bit; batched over
    leading axes of `u`."""
    out = np.zeros(u.shape[:-2] + (4, 4), dtype=np.complex128)
    out[..., :2, :2] = I2
    out[..., 2:, 2:] = u
    return out

CNOT = _controlled(X)
CZ = _controlled(Z)


@dataclass(frozen=True)
class GateOp:
    """A single named gate application: kind, target qubit(s), optional angle."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, parameterized = GATE_KINDS[self.kind]
        qubits = tuple(self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {qubits}")
        if parameterized and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle")
        if not parameterized and self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def n_qubits_acted(self) -> int:
        return len(self.qubits)


_FIXED_GATES = {"H": H, "X": X, "SX": SX, "CNOT": CNOT, "CZ": CZ}


def gate_matrix(op: GateOp) -> np.ndarray:
    """Return the 2x2 or 4x4 unitary for a gate operation."""
    fixed = _FIXED_GATES.get(op.kind)
    return fixed if fixed is not None else rotation_batch(op.kind, op.angle)


def validate_gate(op: GateOp, n_qubits: int) -> None:
    """Check that the gate's qubit indices fit an n-qubit register."""
    for q in op.qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(
                f"{op.kind} qubit index {q} out of range for {n_qubits} qubits"
            )
