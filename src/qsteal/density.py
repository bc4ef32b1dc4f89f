"""Density-matrix and statevector kernels on batches of states.

States are stacked as (B, 2^n, 2^n) density matrices or (B, 2^n)
statevectors.  Every operation evolves the whole stack at once by
contracting a 2x2 / 4x4 operator (or its superoperator) against the
addressed qubit axes; no full-register embeddings are ever built.
"""

from __future__ import annotations

import numpy as np

from .channels import ReadoutConfusion


def unitary_superop(mat: np.ndarray) -> np.ndarray:
    """U (x) conj(U): the superoperator of rho -> U rho U^dag.

    A stack (..., dk, dk) gives (..., dk^2, dk^2).
    """
    dk = mat.shape[-1]
    if mat.ndim == 2:
        # the products np.kron forms, without its per-call overhead
        return (mat[:, None, :, None] * mat.conj()[None, :, None, :]).reshape(dk * dk, dk * dk)
    out = np.einsum("...xa,...yc->...xyac", mat, mat.conj())
    return out.reshape(mat.shape[:-2] + (dk * dk, dk * dk))


def apply_superop_batch(states: np.ndarray, superop: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a (4^k, 4^k) channel superoperator (or a (B, ...) batch of them)
    to the addressed qubits of every state: one GEMM per operation.

    The row and column bits of `qubits` (rows first, each in the listed
    order) move to the front of the (B, 2, ..., 2) view and form the
    4^k block index that the superoperator acts on."""
    b = states.shape[0]
    addressed = [1 + (n - 1 - q) for q in qubits] + [1 + n + (n - 1 - q) for q in qubits]
    perm = [0] + addressed + [ax for ax in range(1, 2 * n + 1) if ax not in addressed]
    t = states.reshape((b,) + (2,) * (2 * n)).transpose(perm)
    out = np.matmul(superop, t.reshape(b, 4 ** len(qubits), -1))
    return out.reshape(t.shape).transpose(np.argsort(perm)).reshape(states.shape)


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (R, K) stack of rows, each result row independent of R.

    BLAS computes a one-row product as a matrix-vector product, whose
    rounding differs from that of the same row inside a matrix product, so
    a lone row is multiplied beside a zero row.
    """
    if a.shape[0] != 1:
        return a @ b
    return (np.concatenate([a, np.zeros_like(a)]) @ b)[:1]


def apply_unitary_vec(vecs: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """psi -> U psi on a batch of statevectors: (B, dim), or (G, R, dim) for
    G groups of R rows.

    `mat` is (2^k, 2^k) shared by every row, or one matrix per leading
    entry: (B, 2^k, 2^k) per statevector, (G, 2^k, 2^k) per group.  A group
    is one matrix product against all of its rows.
    """
    g = vecs.shape[0]
    k = len(qubits)
    axes = [2 + (n - 1 - q) for q in qubits]
    axes_rest = [ax for ax in range(2, n + 2) if ax not in axes]
    perm = [0] + axes + [1] + axes_rest
    t = vecs.reshape((g, -1) + (2,) * n).transpose(perm)
    out = np.matmul(mat, t.reshape(g, 2**k, -1))
    return out.reshape(t.shape).transpose(np.argsort(perm)).reshape(vecs.shape)


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
