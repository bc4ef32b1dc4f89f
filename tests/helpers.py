"""Shared test utilities: an independent full-register embedding oracle.

The simulator applies 2x2/4x4 operators by tensor contraction; these
helpers build explicit 2^n x 2^n matrices by brute-force index arithmetic
so the two routes share no code.
"""

import numpy as np

from qsteal.gates import GATE_KINDS, GateOp


def embed_full(mat: np.ndarray, qubits, n: int) -> np.ndarray:
    """Full-register embedding of a k-qubit operator on the listed qubits.

    Qubit 0 is the least significant bit of the basis index; the first
    listed qubit is the most significant bit of the operator's sub-index.
    """
    dim = 2**n
    qubits = list(qubits)
    mask = sum(1 << q for q in qubits)
    full = np.zeros((dim, dim), dtype=np.complex128)

    def sub(i):
        s = 0
        for q in qubits:
            s = (s << 1) | ((i >> q) & 1)
        return s

    for a in range(dim):
        for b in range(dim):
            if (a & ~mask) == (b & ~mask):
                full[a, b] = mat[sub(a), sub(b)]
    return full


def random_gate(rng: np.random.Generator, n_qubits: int) -> GateOp:
    kind = rng.choice(list(GATE_KINDS))
    arity, parameterized = GATE_KINDS[kind]
    qubits = tuple(rng.choice(n_qubits, size=arity, replace=False).tolist())
    angle = float(rng.uniform(0, 2 * np.pi)) if parameterized else None
    return GateOp(kind, qubits, angle)


def random_density(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Random full-rank density matrix via a Wishart-style construction."""
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def assert_density_matrix(rho: np.ndarray, trace_tol: float = 1e-10, eig_floor: float = -1e-9) -> None:
    """Assert that one (dim, dim) state has trace 1, is Hermitian and is PSD.

    Eigenvalue-based, O(dim^3): a check for tests, not for training loops.
    """
    tr = np.trace(rho)
    assert abs(tr - 1.0) <= trace_tol, f"trace {tr} deviates from 1 beyond {trace_tol}"
    assert np.allclose(rho, rho.conj().T, atol=trace_tol), "state is not Hermitian"
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= eig_floor, f"negative eigenvalue {eigs.min()} below {eig_floor}"
