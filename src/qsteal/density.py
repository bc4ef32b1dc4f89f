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

    A stack (..., dk, dk) gives (..., dk^2, dk^2), each entry the
    superoperator of its matrix built alone: the products np.kron forms,
    one broadcast product for the whole stack.
    """
    dk = mat.shape[-1]
    out = mat[..., :, None, :, None] * mat.conj()[..., None, :, None, :]
    return out.reshape(mat.shape[:-2] + (dk * dk, dk * dk))


def apply_superop_batch(states: np.ndarray, steps, n: int) -> np.ndarray:
    """Apply (superoperator, qubits) steps in order to every state of a
    (B, 2^n, 2^n) batch: one GEMM per superoperator and state group.

    A superoperator is (4^k, 4^k), shared by every state, or a (G, 4^k,
    4^k) stack: the B states form G groups of B / G consecutive states and
    group g takes superoperator g (G = B: one per state).  Every stack in
    one call has the same G; with none, each state is its own group.

    A step moves the row and column bits of its qubits (rows first, each
    in the listed order) to the front of each group's (2, ..., 2) view,
    where they form the 4^k block index the superoperator acts on, and the
    group's states stand side by side in the GEMM's columns.  The product
    keeps that axis order for the next step, so each step copies the batch
    once, and only the result is put back in the standard order.
    """
    b = states.shape[0]
    g = next((superop.shape[0] for superop, _ in steps if superop.ndim == 3), b)
    # logical axes: group, state in group, row bits (qubit n-1 first), column bits;
    # order[i] is the logical axis at position i of t
    order = list(range(2 * n + 2))
    t = states.reshape((g, b // g) + (2,) * (2 * n))
    for superop, qubits in steps:
        addressed = [2 + (n - 1 - q) for q in qubits] + [2 + n + (n - 1 - q) for q in qubits]
        moved = [0] + addressed + [ax for ax in order[1:] if ax not in addressed]
        t = t.transpose([order.index(ax) for ax in moved])
        t = np.matmul(superop, t.reshape(g, 4 ** len(qubits), -1)).reshape(t.shape)
        order = moved
    return t.transpose(np.argsort(order)).reshape(states.shape)


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
    return out.reshape(t.shape).transpose([perm.index(ax) for ax in range(n + 2)]).reshape(vecs.shape)


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
