"""Gate definitions and the gate-operation value type.

Conventions (fixed once, everything downstream depends on them):

* Qubit 0 is the least significant bit of the computational-basis index.
* Rotations follow exp(-i * theta * P / 2), so RZ(theta) is
  diag(e^{-i theta/2}, e^{+i theta/2}).
* Two-qubit gate matrices are indexed with the first listed qubit as the
  high bit of the 2-bit index, i.e. CRX acts on (control, target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}

#: gate name -> (number of qubits, takes an angle)
GATE_KINDS = {
    "H": (1, False),
    "RX": (1, True),
    "RZ": (1, True),
    "CRX": (2, True),
}


def rotation_batch(kind: str, angles) -> np.ndarray:
    """Matrices of a parameterized gate kind (RX, RZ, CRX).

    A scalar angle gives one (d, d) matrix; an array of angles gives a
    stack of shape angles.shape + (d, d) whose entries each equal the
    matrix built alone.
    """
    angles = np.asarray(angles, dtype=np.float64)
    out = np.zeros(angles.shape + ((4, 4) if kind == "CRX" else (2, 2)), dtype=np.complex128)
    if kind == "CRX":  # the identity while the control, the high bit, is 0
        out[..., :2, :2] = I2
    u = out[..., -2:, -2:]
    if kind == "RZ":
        u[..., 0, 0] = np.exp(-0.5j * angles)
        u[..., 1, 1] = np.exp(0.5j * angles)
    elif kind in ("RX", "CRX"):
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        u[..., 0, 0] = u[..., 1, 1] = c
        u[..., 0, 1] = u[..., 1, 0] = -1j * s
    else:
        raise ValueError(f"{kind} is not a parameterized gate")
    return out


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
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if parameterized and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle")
        if not parameterized and self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


def gate_matrix(op: GateOp) -> np.ndarray:
    """Return the 2x2 or 4x4 unitary for a gate operation."""
    return H if op.kind == "H" else rotation_batch(op.kind, op.angle)
