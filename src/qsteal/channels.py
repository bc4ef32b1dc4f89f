"""Kraus noise channels and classical readout confusion.

Channel conventions:

* bit_flip(p):      (1-p) rho + p X rho X
* phase_flip(p):    (1-p) rho + p Z rho Z
* depolarizing(p):  (1-p) rho + p I/2   (p = 1 is maximally mixing)
* amplitude_damping(gamma): standard decay |1> -> |0> at rate gamma
* depolarizing_2q(p): 16 Kraus operators {I,X,Y,Z} x {I,X,Y,Z}, the 15
  non-identity Paulis weighted p/15 each.

A channel acts as its real Pauli transfer matrix (:attr:`KrausChannel.superop`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .density import pauli_basis
from .gates import I2, PAULIS, X, Y, Z

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A trace-preserving noise channel given by its Kraus operators."""

    name: str
    rate: float
    operators: tuple[np.ndarray, ...]
    n_qubits_acted: int = 1

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"{self.name} rate {self.rate} outside [0, 1]")
        dim = 2**self.n_qubits_acted
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.operators)
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError(
                    f"{self.name} Kraus operator shape {k.shape}, expected {(dim, dim)}"
                )
        object.__setattr__(self, "operators", ops)
        total = sum(k.conj().T @ k for k in ops)
        if not np.allclose(total, np.eye(dim), atol=COMPLETENESS_TOL):
            raise ValueError(f"{self.name} Kraus operators are not trace preserving")

    @property
    def is_identity(self) -> bool:
        """True when the channel is exactly the identity map (rate 0)."""
        return self.rate == 0.0

    @cached_property
    def superop(self) -> np.ndarray:
        """The (dim^2, dim^2) real PTM: T S T^-1 of S = sum_m K_m (x) conj(K_m)
        (:func:`qsteal.density.pauli_basis`), its rounding imaginary part dropped."""
        k = np.stack(self.operators)
        t, inv = pauli_basis(self.n_qubits_acted)
        # the products np.kron forms, summed over m in order
        return (t @ (k[:, :, None, :, None] * k.conj()[:, None, :, None, :]).sum(axis=0).reshape(t.shape) @ inv).real


def _check_rate(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} rate {p} outside [0, 1]")


@lru_cache(maxsize=None)
def bit_flip(p: float) -> KrausChannel:
    _check_rate("BitFlip", p)
    return KrausChannel("BitFlip", p, (np.sqrt(1 - p) * I2, np.sqrt(p) * X))


@lru_cache(maxsize=None)
def phase_flip(p: float) -> KrausChannel:
    _check_rate("PhaseFlip", p)
    return KrausChannel("PhaseFlip", p, (np.sqrt(1 - p) * I2, np.sqrt(p) * Z))


@lru_cache(maxsize=None)
def depolarizing(p: float) -> KrausChannel:
    _check_rate("Depolarizing", p)
    ops = (
        np.sqrt(1 - 0.75 * p) * I2,
        np.sqrt(p / 4) * X,
        np.sqrt(p / 4) * Y,
        np.sqrt(p / 4) * Z,
    )
    return KrausChannel("Depolarizing", p, ops)


@lru_cache(maxsize=None)
def amplitude_damping(gamma: float) -> KrausChannel:
    _check_rate("AmplitudeDamping", gamma)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    return KrausChannel("AmplitudeDamping", gamma, (k0, k1))


@lru_cache(maxsize=None)
def depolarizing_2q(p: float) -> KrausChannel:
    _check_rate("Depolarizing2Q", p)
    ops = []
    for a in "IXYZ":
        for b in "IXYZ":
            pauli = np.kron(PAULIS[a], PAULIS[b])
            weight = 1 - p if (a, b) == ("I", "I") else p / 15
            ops.append(np.sqrt(weight) * pauli)
    return KrausChannel("Depolarizing2Q", p, tuple(ops), n_qubits_acted=2)


@dataclass(frozen=True, eq=False)
class ReadoutConfusion:
    """Per-qubit 2x2 row-stochastic matrices; entry [i][j] = P(read j | true i)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=np.float64) for m in self.matrices)
        for q, m in enumerate(mats):
            if m.shape != (2, 2):
                raise ValueError(f"readout matrix for qubit {q} has shape {m.shape}")
            if np.any(m < 0) or np.any(m > 1):
                raise ValueError(f"readout matrix for qubit {q} has entries outside [0, 1]")
            if not np.allclose(m.sum(axis=1), 1.0, atol=1e-12):
                raise ValueError(f"readout matrix rows for qubit {q} do not sum to 1")
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def identity(cls, n_qubits: int) -> "ReadoutConfusion":
        return cls(tuple(np.eye(2) for _ in range(n_qubits)))

    @classmethod
    def broadcast(cls, matrix, n_qubits: int) -> "ReadoutConfusion":
        m = np.asarray(matrix, dtype=np.float64)
        return cls(tuple(m.copy() for _ in range(n_qubits)))

    def matrix(self, qubit: int) -> np.ndarray:
        return self.matrices[qubit]
