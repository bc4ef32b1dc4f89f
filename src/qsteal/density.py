"""Density-matrix states and their evolution under gates and Kraus channels.

States are dense (2^n x 2^n) complex matrices, n <= 8.  The public
operations work on a single immutable :class:`DensityMatrix`; internally
everything is routed through batched kernels that evolve a stack of
states at once by contracting 2x2 / 4x4 operators against the qubit axes
(no full-register embeddings are ever built).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, ReadoutConfusion
from .gates import GateOp, gate_matrix, validate_gate

MAX_QUBITS = 8


# ---------------------------------------------------------------------------
# batched kernels on raw arrays
# ---------------------------------------------------------------------------

def _super_perm(qubits: tuple[int, ...], n: int) -> list[int]:
    """Axis permutation pulling the row and column bits of `qubits` to the
    front of the (B, 2, ..., 2) view, rows first then columns."""
    row = [1 + (n - 1 - q) for q in qubits]
    col = [1 + n + (n - 1 - q) for q in qubits]
    row_rest = [ax for ax in range(1, n + 1) if ax not in row]
    col_rest = [ax for ax in range(n + 1, 2 * n + 1) if ax not in col]
    return [0] + row + col + row_rest + col_rest


def _to_super_layout(states: np.ndarray, qubits: tuple[int, ...], n: int):
    """(B, dim, dim) -> (B, 4^k, rest): the addressed qubits' (row, col) bit
    pairs become one leading block index that a superoperator acts on."""
    b = states.shape[0]
    k = len(qubits)
    perm = _super_perm(qubits, n)
    t = states.reshape((b,) + (2,) * (2 * n)).transpose(perm)
    return t.reshape(b, 4**k, -1), perm


def _from_super_layout(t: np.ndarray, perm: list[int], n: int) -> np.ndarray:
    b = t.shape[0]
    dim = 2**n
    back = t.reshape((b,) + (2,) * (2 * n)).transpose(np.argsort(perm))
    return back.reshape(b, dim, dim)


def unitary_superop(mat: np.ndarray) -> np.ndarray:
    """U (x) conj(U): the superoperator of rho -> U rho U^dag.

    Batched input (B, dk, dk) gives (B, dk^2, dk^2).
    """
    if mat.ndim == 2:
        return np.kron(mat, mat.conj())
    b, dk, _ = mat.shape
    out = np.einsum("bxa,byc->bxyac", mat, mat.conj())
    return out.reshape(b, dk * dk, dk * dk)


def apply_superop_batch(states: np.ndarray, superop: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a (4^k, 4^k) channel superoperator (or a (B, ...) batch of them)
    to the addressed qubits of every state: one GEMM per operation."""
    t, perm = _to_super_layout(states, qubits, n)
    return _from_super_layout(np.matmul(superop, t), perm, n)


def apply_unitary_batch(states: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """rho -> U rho U^dag on each state of the batch.

    `mat` is (2^k, 2^k) shared across the batch, or (B, 2^k, 2^k) per sample.
    """
    return apply_superop_batch(states, unitary_superop(mat), qubits, n)


def exp_z_batch(states: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """<Z_qubit> for each state in the batch."""
    diag = np.einsum("bii->bi", states).real
    signs = 1.0 - 2.0 * ((np.arange(2**n) >> qubit) & 1)
    return diag @ signs


def apply_unitary_vec(vecs: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Statevector counterpart of :func:`apply_unitary_batch`; vecs is (B, dim)."""
    b = vecs.shape[0]
    k = len(qubits)
    dk, rest = 2**k, 2 ** (n - k)
    axes = [1 + (n - 1 - q) for q in qubits]
    axes_rest = [ax for ax in range(1, n + 1) if ax not in axes]
    perm = [0] + axes + axes_rest
    t = vecs.reshape((b,) + (2,) * n).transpose(perm).reshape(b, dk, rest)
    out = np.matmul(mat, t)
    return out.reshape((b,) + (2,) * n).transpose(np.argsort(perm)).reshape(b, 2**n)


def exp_z_vec(vecs: np.ndarray, qubit: int, n: int) -> np.ndarray:
    probs = (vecs.conj() * vecs).real
    signs = 1.0 - 2.0 * ((np.arange(2**n) >> qubit) & 1)
    return probs @ signs


def sample_expectations(
    exps: np.ndarray, confusion: ReadoutConfusion, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Shot-sampled (n0 - n1) / shots for each exact <Z> in a (B, m) batch,
    with column q read out through confusion.matrix(q)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p1 = np.clip((1.0 - exps) / 2.0, 0.0, 1.0)
    p_read1 = np.empty_like(p1)
    for q in range(exps.shape[1]):
        m = confusion.matrix(q)
        p_read1[:, q] = (1.0 - p1[:, q]) * m[0, 1] + p1[:, q] * m[1, 1]
    n1 = rng.binomial(shots, p_read1)
    return 1.0 - 2.0 * n1 / shots


def zero_states(batch: int, n_qubits: int) -> np.ndarray:
    """Batch of |0...0><0...0| density matrices."""
    dim = 2**n_qubits
    states = np.zeros((batch, dim, dim), dtype=np.complex128)
    states[:, 0, 0] = 1.0
    return states


def zero_vecs(batch: int, n_qubits: int) -> np.ndarray:
    vecs = np.zeros((batch, 2**n_qubits), dtype=np.complex128)
    vecs[:, 0] = 1.0
    return vecs


# ---------------------------------------------------------------------------
# the public single-state interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit mixed state: Hermitian, PSD, unit-trace (2^n x 2^n)."""

    n_qubits: int
    data: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        dim = 2**self.n_qubits
        data = np.asarray(self.data, dtype=np.complex128)
        if data.shape != (dim, dim):
            raise ValueError(f"state shape {data.shape}, expected {(dim, dim)}")
        object.__setattr__(self, "data", data)

    @classmethod
    def zero_state(cls, n_qubits: int) -> "DensityMatrix":
        return cls(n_qubits, zero_states(1, n_qubits)[0])

    @classmethod
    def from_statevector(cls, vec, n_qubits: int) -> "DensityMatrix":
        v = np.asarray(vec, dtype=np.complex128)
        return cls(n_qubits, np.outer(v, v.conj()))

    def validate(self, trace_tol: float = 1e-10, eig_floor: float = -1e-9) -> None:
        """Assert trace 1, Hermiticity, and positive semidefiniteness.

        Eigenvalue-based, O(dim^3): meant for tests and debugging, not for
        per-operation use inside training loops.
        """
        tr = np.trace(self.data)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {trace_tol}")
        if not np.allclose(self.data, self.data.conj().T, atol=trace_tol):
            raise ValueError("state is not Hermitian")
        eigs = np.linalg.eigvalsh(self.data)
        if eigs.min() < eig_floor:
            raise ValueError(f"negative eigenvalue {eigs.min()} below {eig_floor}")


def apply_gate(rho: DensityMatrix, gate: GateOp) -> DensityMatrix:
    """Evolve rho -> U rho U^dag for the register embedding of `gate`."""
    validate_gate(gate, rho.n_qubits)
    mat = gate_matrix(gate)
    out = apply_unitary_batch(rho.data[None], mat, gate.qubits, rho.n_qubits)[0]
    return DensityMatrix(rho.n_qubits, out)


def apply_channel(rho: DensityMatrix, channel: KrausChannel, qubits) -> DensityMatrix:
    """Evolve rho -> sum_m K_m rho K_m^dag on the listed qubits."""
    qubits = tuple(qubits)
    if len(qubits) != channel.n_qubits_acted:
        raise ValueError(
            f"{channel.name} acts on {channel.n_qubits_acted} qubit(s), got {qubits}"
        )
    for q in qubits:
        if not 0 <= q < rho.n_qubits:
            raise ValueError(f"channel qubit {q} out of range for {rho.n_qubits} qubits")
    out = apply_superop_batch(rho.data[None], channel.superop, qubits, rho.n_qubits)[0]
    return DensityMatrix(rho.n_qubits, out)


def expectation_z(rho: DensityMatrix, qubit: int) -> float:
    """Exact trace(Z_qubit rho)."""
    if not 0 <= qubit < rho.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {rho.n_qubits} qubits")
    return float(exp_z_batch(rho.data[None], qubit, rho.n_qubits)[0])


def sample_expectation_z(
    rho: DensityMatrix,
    qubit: int,
    shots: int,
    confusion: ReadoutConfusion,
    rng: np.random.Generator,
) -> float:
    """Shot-sampled <Z_qubit> with readout confusion: (n0 - n1) / shots."""
    exact = np.array([[expectation_z(rho, qubit)]])
    single = ReadoutConfusion((confusion.matrix(qubit),))
    return float(sample_expectations(exact, single, shots, rng)[0, 0])
