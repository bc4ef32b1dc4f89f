"""Kernels on batches of states, and the Pauli transfer matrices they apply.

A noisy state is its Pauli vector x_a = Tr(P_a rho), each qubit's Pauli
index a = 2r + c (I, X, Y, Z) written as two bits: a real (B, 2^n, 2^n)
stack whose two legs hold the r and c bits as a density matrix's hold its
row and column bits.  A gate or channel Phi acts on it as its real Pauli
transfer matrix (PTM) R_ab = Tr(P_a Phi(P_b)) / 2^k, with the same two bits
per qubit; an observable O is Tr(P_a O) / 2^n, so Tr(O rho) is a dot
product, and O pulls back through Phi as R^T (Chow et al., PRL 109, 060501
(2012); Greenbaum, arXiv:1509.02921); every PTM, a gate's or a channel's,
comes from one change of basis (:func:`pauli_transfer`), and a
parameterized gate's from a fixed basis (:func:`qsteal.circuits.rotation_basis`)
read off it.  A pure state is a (B, 2^n) complex
statevector, one leg.  One kernel runs a list of steps on either stack: it
contracts each step's operator, a PTM or a 2x2 / 4x4 unitary, against the
addressed qubits' bits of every leg, so no full-register embeddings are
ever built.
"""

from __future__ import annotations

import types
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .channels import ReadoutConfusion

#: the Paulis I, X, Y, Z by index a = 2r + c
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@lru_cache(maxsize=None)
def pauli_basis(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, T^-1) on k = 1 or 2 qubits, (4^k, 4^k) and read-only: T takes the
    row-major vec(rho), the index of K (x) conj(K), to the Pauli vector, and
    T S T^-1 is the PTM of a superoperator S; each index holds every
    qubit's first bit, then every qubit's second."""
    t, inv = _PAULIS.conj().reshape(4, 4), _PAULIS.reshape(4, 4).T / 2  # x_a = sum_ij conj(P_a)_ij rho_ij
    if k == 2:  # np.kron pairs each qubit's two bits: swap the middle bits of both indices
        swap = np.ix_(*[[0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]] * 2)
        t, inv = np.kron(t, t)[swap], np.kron(inv, inv)[swap]
    t.flags.writeable = inv.flags.writeable = False
    return t, inv


def pauli_transfer(kraus: np.ndarray) -> np.ndarray:
    """The real PTM T S T^-1 (:func:`pauli_basis`) of S = sum_m K_m (x)
    conj(K_m), the products np.kron forms summed over m in order, its
    rounding imaginary part dropped: (..., 4^k, 4^k) for a stack of Kraus
    operators (..., M, 2^k, 2^k), each entry the PTM of its operators
    built alone."""
    t, inv = pauli_basis(kraus.shape[-1].bit_length() - 1)
    s = (kraus[..., :, :, None, :, None] * kraus.conj()[..., :, None, :, None, :]).sum(axis=-5)
    return (t @ s.reshape(kraus.shape[:-3] + t.shape) @ inv).real


def unitary_superop(mat: np.ndarray) -> np.ndarray:
    """The PTM of rho -> U rho U^dag, real: (..., 4^k, 4^k) for a stack
    (..., 2^k, 2^k), the :func:`pauli_transfer` of each U alone.  A
    unitary's PTM is 1 (+) a rotation: its first row and column are e_0."""
    out = pauli_transfer(mat[..., None, :, :])
    out[..., 0, :] = out[..., :, 0] = np.eye(out.shape[-1])[0]
    return out


def apply_superop_batch(states: np.ndarray, steps, n: int, groups: int | None = None) -> np.ndarray:
    """Apply (operator, qubits) steps in order to every state of a batch:
    (B, 2^n, 2^n) Pauli vectors, whose operators are PTMs (or any stack
    with two bits per qubit, such as density matrices and their
    superoperators), or (B, 2^n) statevectors, whose operators are
    unitaries.  One GEMM per step and state group.

    The stack's legs, 2 for Pauli vectors and 1 for statevectors, are
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
