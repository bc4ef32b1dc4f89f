"""Density-matrix and statevector kernels on batches of states.

States are stacked as (B, 2^n, 2^n) density matrices, two legs of bits
per qubit, or (B, 2^n) statevectors, one leg.  One kernel runs a list of
steps on either stack: it contracts each step's operator, a superoperator
or a 2x2 / 4x4 unitary, against the addressed qubits' bits of every leg,
so no full-register embeddings are ever built.
"""

from __future__ import annotations

import types

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


def apply_superop_batch(states: np.ndarray, steps, n: int, groups: int | None = None) -> np.ndarray:
    """Apply (operator, qubits) steps in order to every state of a batch:
    (B, 2^n, 2^n) density matrices, whose operators are superoperators,
    or (B, 2^n) statevectors, whose operators are unitaries.  One GEMM per
    step and state group.

    The stack's legs, 2 for density matrices and 1 for statevectors, are
    the bit sets each qubit has.  An operator on k qubits is (2^(legs k),
    2^(legs k)), shared by every state, or a (G, ., .) stack: the B states
    form G groups of B / G consecutive states and group g takes operator g
    (G = B: one per state).  Every stack in one call has the same G.
    `groups` gives G; by default it is the stacks' G, or B when no step
    carries a stack, so that each state is its own group.

    A step moves the bits of its qubits (one leg after the other, each in
    the listed order) to the front of each group's (2, ..., 2) view, where
    they form the block index the operator acts on, and the group's states
    stand side by side in the GEMM's columns.  The product keeps that axis
    order for the next step, so each step copies the batch once, and only
    the result is put back in the standard order.
    """
    b, legs = states.shape[0], states.ndim - 1
    g = groups or next((op.shape[0] for op, _ in steps if op.ndim == 3), b)
    # logical axes: group, state in group, then each leg's bits (qubit n-1 first);
    # order[i] is the logical axis at position i of t
    order = list(range(legs * n + 2))
    t = states.reshape((g, b // g) + (2,) * (legs * n))
    for op, qubits in steps:
        addressed = [2 + leg * n + (n - 1 - q) for leg in range(legs) for q in qubits]
        moved = [0] + addressed + [ax for ax in order[1:] if ax not in addressed]
        t = t.transpose([order.index(ax) for ax in moved])
        t = np.matmul(op, t.reshape(g, 2 ** len(addressed), -1)).reshape(t.shape)
        order = moved
    return t.transpose(np.argsort(order)).reshape(states.shape)


#: the same kernel under a second name and function object, called for
#: statevectors, so that a profiler hooking functions by object counts the
#: noise-free work apart from the density-matrix work
apply_unitary_vec = types.FunctionType(
    apply_superop_batch.__code__, globals(), "apply_unitary_vec", apply_superop_batch.__defaults__
)


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (R, K) stack of rows, each result row independent of R.

    BLAS computes a one-row product as a matrix-vector product, whose
    rounding differs from that of the same row inside a matrix product, so
    a lone row is multiplied beside a zero row.
    """
    if a.shape[0] != 1:
        return a @ b
    return (np.concatenate([a, np.zeros_like(a)]) @ b)[:1]


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
