"""Kernels on batches of states, and the Pauli transfer matrices they apply.

A noisy state is its Pauli vector x_a = Tr(P_a rho), each qubit's Pauli
index a = 2r + c (I, X, Y, Z) written as two bits: a real (B, 2^n, 2^n)
stack whose two legs hold the r and c bits as a density matrix's hold its
row and column bits.  A gate or channel Phi acts on it as its real Pauli
transfer matrix (PTM) R_ab = Tr(P_a Phi(P_b)) / 2^k, with the same two bits
per qubit; an observable O is Tr(P_a O) / 2^n, so Tr(O rho) is a dot
product, and O pulls back through Phi as R^T (Chow et al., PRL 109, 060501
(2012); Greenbaum, arXiv:1509.02921).  A pure state is a (B, 2^n) complex
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


#: the products U_x conj(U_y) of U = [[a, b], [c, d]] a 1-qubit PTM is read
#: from: a d*, b c*, a c*, b d*, a b*, c d*, |a|^2, |b|^2 and d a*
_PRODUCT_X, _PRODUCT_Y = np.array([0, 1, 0, 1, 0, 2, 0, 1, 3]), np.array([3, 2, 2, 3, 1, 3, 0, 1, 0])
#: each entry of the PTM's 3x3 block (rows and columns X, Y, Z, at _BLOCK)
#: as plus - sign * minus of two parts of those products, product p's real
#: part at 2p and its imaginary part at 2p + 1: XX = Re(a d*) + Re(b c*)
_BLOCK_PLUS, _BLOCK_MINUS = np.array([0, 1, 4, 17, 0, 7, 8, 9, 12]), np.array([2, 3, 6, 3, 2, 5, 10, 11, 14])
_BLOCK_SIGN = np.array([-1.0, 1, 1, 1, 1, 1, 1, 1, 1])
_BLOCK = np.array([5, 6, 7, 9, 10, 11, 13, 14, 15])
#: per (c, b), row-major, the two entries of V with a weight in
#: Tr(P_c V P_b) / 2 = sum_ij V_ij (P_b P_c)_ji / 2, and their weights
_MIXED_WEIGHTS = np.einsum("bjp,cpi->cbij", _PAULIS, _PAULIS).reshape(16, 4) / 2
_MIXED_PICK = np.array([np.flatnonzero(w) for w in _MIXED_WEIGHTS])
_MIXED_PICKED = np.take_along_axis(_MIXED_WEIGHTS, _MIXED_PICK, axis=1)
#: the Pauli pairs (control a, control b) whose 4x4 block of a controlled
#: gate's PTM is not zero, and which block of :func:`_controlled` it is
_CONTROLLED_BLOCKS = ((0, 0, 0), (3, 3, 0), (3, 0, 1), (0, 3, 1), (1, 1, 2), (2, 2, 2), (2, 1, 3), (1, 2, 4))


def _rotation(flat: np.ndarray) -> np.ndarray:
    """The PTMs (N, 16) of N 1-qubit unitaries (N, 4), both row-major:
    1 (+) the 3x3 rotation read from nine products of entries."""
    parts = (np.take(flat, _PRODUCT_X, axis=1) * np.take(flat, _PRODUCT_Y, axis=1).conj()).view(np.float64)
    out = np.zeros((flat.shape[0], 16))
    out[:, 0] = 1.0
    out[:, _BLOCK] = parts[:, _BLOCK_PLUS] - parts[:, _BLOCK_MINUS] * _BLOCK_SIGN
    return out


def _controlled(v: np.ndarray) -> np.ndarray:
    """The PTMs (N, 16, 16) of N controlled-V gates, the control the high
    qubit, from their target blocks V (N, 4) row-major.  With R_V the PTM
    of V and K+, K- the real and imaginary parts of Tr(P_c V P_b) / 2, a
    Pauli I (x) B leaves as I (x) (1 + R_V)B / 2 + Z (x) (1 - R_V)B / 2 and
    Z (x) B the other way round, X (x) B as X (x) K+ B + Y (x) K- B and
    Y (x) B as Y (x) K+ B - X (x) K- B: eight 4x4 blocks, each written
    straight into the two-bits-per-qubit layout."""
    n, eye = v.shape[0], np.eye(4)
    rv = _rotation(v).reshape(n, 4, 4)
    mixed = (np.take(v, _MIXED_PICK, axis=1) * _MIXED_PICKED).sum(axis=-1)
    blocks = [(eye + rv) * 0.5, (eye - rv) * 0.5, mixed.real, mixed.imag, -mixed.imag]
    out = np.zeros((n,) + (2,) * 8)  # the bits r1 r2 c1 c2 of the row, then of the column
    for a, b, k in _CONTROLLED_BLOCKS:
        out[:, a >> 1, :, a & 1, :, b >> 1, :, b & 1, :] = blocks[k].reshape(n, 2, 2, 2, 2)
    return out.reshape(n, 16, 16)


def unitary_superop(mat: np.ndarray) -> np.ndarray:
    """The PTM of rho -> U rho U^dag: real, (..., 4^k, 4^k) for a stack
    (..., 2^k, 2^k), each entry the PTM of its matrix built alone.

    A unitary's PTM is 1 (+) a rotation, its first row and column e_0
    exactly.  On one qubit the rotation is read from products of entries
    (:func:`_rotation`); on two, U must be a controlled gate, as every
    2-qubit gate of the gate set is: the identity while its control, the
    high qubit, is |0> (:func:`_controlled`).
    """
    lead, dk = mat.shape[:-2], mat.shape[-1]
    if dk == 2:
        return _rotation(mat.reshape(-1, 4)).reshape(lead + (4, 4))
    if not (mat[..., :2, :] == np.eye(2, 4)).all() or mat[..., 2:, :2].any():
        raise ValueError("a 2-qubit unitary must be a controlled gate, the identity while its control is |0>")
    return _controlled(mat[..., 2:, 2:].reshape(-1, 4)).reshape(lead + (16, 16))


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
