"""Density-matrix and statevector kernels on batches of states.

States are stacked as (B, 2^n, 2^n) density matrices or (B, 2^n)
statevectors.  Every operation evolves the whole stack at once by
contracting a 2x2 / 4x4 operator (or its superoperator) against the
addressed qubit axes; no full-register embeddings are ever built.
"""

from __future__ import annotations

import numpy as np

from .channels import ReadoutConfusion

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


def exp_z_batch(states: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """<Z_qubit> for each state in the batch."""
    diag = np.einsum("bii->bi", states).real
    signs = 1.0 - 2.0 * ((np.arange(2**n) >> qubit) & 1)
    return diag @ signs


def apply_unitary_vec(vecs: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """psi -> U psi on each statevector of the batch; vecs is (B, dim).

    `mat` is (2^k, 2^k) shared across the batch, or (B, 2^k, 2^k) per sample.
    """
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
