"""Shared test utilities: an independent full-register embedding oracle,
an unfused circuit reference, step-at-a-time gate-matrix and product-state
prefix references, Pauli-vector conversions, and <Z> read off density
matrices.

The simulator applies 2x2/4x4 operators by tensor contraction; these
helpers build explicit 2^n x 2^n matrices by brute-force index arithmetic
so the two routes share no code.  The circuit executor runs each circuit's
compiled plan of fused steps in the Pauli basis; `unfused_states` runs
every gate and every noise point on its own instead, on density matrices,
with computational-basis superoperators built here: K (x) conj(K) per
gate, summed over a channel's Kraus operators.  The Pauli transfer
matrices the references compare against come from those through a change
of basis written out from the Pauli strings.
"""

from functools import lru_cache

import numpy as np

from qsteal.circuits import _kron_rows
from qsteal.density import apply_superop_batch
from qsteal.gates import GATE_KINDS, GateOp, gate_matrix, rotation_batch

PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def zero_states(batch: int, n_qubits: int) -> np.ndarray:
    """Batch of |0...0><0...0| density matrices."""
    dim = 2**n_qubits
    states = np.zeros((batch, dim, dim), dtype=np.complex128)
    states[:, 0, 0] = 1.0
    return states


def superop(mat: np.ndarray) -> np.ndarray:
    """np.kron(U, conj(U)) for each matrix of a stack (..., d, d): the
    computational-basis superoperator of rho -> U rho U^dag, row-major vec."""
    d = mat.shape[-1]
    return (mat[..., :, None, :, None] * mat.conj()[..., None, :, None, :]).reshape(mat.shape[:-2] + (d * d, d * d))


def kraus_superop(channel) -> np.ndarray:
    """sum_m np.kron(K_m, conj(K_m)) over a channel's Kraus operators."""
    return sum(np.kron(k, k.conj()) for k in channel.operators)


def pauli_string(index: int, k: int) -> np.ndarray:
    """The k-qubit Pauli string of a PTM index: bit k + j holds the first
    and bit j the second bit of qubit j's Pauli index 2r + c (I, X, Y, Z),
    the first qubit in the high bits and leftmost in the Kronecker product."""
    out = np.ones((1, 1), dtype=np.complex128)
    for j in range(k):
        r, c = (index >> (2 * k - 1 - j)) & 1, (index >> (k - 1 - j)) & 1
        out = np.kron(out, PAULIS[2 * r + c])
    return out


@lru_cache(maxsize=None)
def _to_pauli(k: int) -> tuple[np.ndarray, np.ndarray]:
    strings = [pauli_string(a, k) for a in range(4**k)]
    forward = np.array([s.conj().ravel() for s in strings])  # x_a = Tr(P_a rho) = sum_ij conj(P_a)_ij rho_ij
    backward = np.array([s.ravel() for s in strings]).T / 2**k  # rho = sum_a x_a P_a / 2^k
    return forward, backward


def to_ptm(sup: np.ndarray) -> np.ndarray:
    """The real Pauli transfer matrix of a computational-basis superoperator
    (..., 4^k, 4^k), with the imaginary part checked to be rounding."""
    forward, backward = _to_pauli((sup.shape[-1].bit_length() - 1) // 2)
    ptm = forward @ sup @ backward
    assert np.abs(ptm.imag).max(initial=0.0) <= 1e-15
    return ptm.real


def pauli_vectors(states: np.ndarray) -> np.ndarray:
    """The Pauli vectors Tr(P_a rho) of a (B, 2^n, 2^n) stack of density
    matrices, in the kernel's layout: (B, 2^n, 2^n) real, entry [R, C]
    holding qubit q's Pauli bits at bit q of R and of C."""
    n = states.shape[-1].bit_length() - 1
    out = np.zeros(states.shape)
    for a in range(4**n):
        # kernel index (R, C): qubit n-1 first in each leg, as pauli_string lists qubits high to low
        out[:, a >> n, a & (2**n - 1)] = np.einsum("ij,bji->b", pauli_string(a, n), states).real
    return out


def density_matrices(paulis: np.ndarray) -> np.ndarray:
    """The density matrices sum_a x_a P_a / 2^n of a stack of Pauli vectors
    laid out as `pauli_vectors` gives them."""
    n = paulis.shape[-1].bit_length() - 1
    out = np.zeros(paulis.shape, dtype=np.complex128)
    for a in range(4**n):
        out += paulis[:, a >> n, a & (2**n - 1), None, None] * pauli_string(a, n) / 2**n
    return out


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


def exp_z_batch(states: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """<Z_qubit> for each density matrix in a (B, 2^n, 2^n) batch."""
    signs = 1.0 - 2.0 * ((np.arange(2**n) >> qubit) & 1)
    return np.einsum("bii->bi", states).real @ signs


def unfused_states(circuit, overrides=None) -> np.ndarray:
    """Density matrices after `circuit`, one per row of the probes x samples
    grid that `overrides` span, laid out as `run_circuit` lays out rows: each
    op, then each of its noise points in the listed order, applied one at a
    time with no compiled plan."""
    angles = {i: np.asarray(v, dtype=np.float64) for i, v in (overrides or {}).items()}
    angles = {i: a[None] if a.ndim == 1 else a for i, a in angles.items()}
    grid = np.broadcast_shapes((1, 1), *(a.shape for a in angles.values()))
    n = circuit.n_qubits
    states = zero_states(grid[0] * grid[1], n)
    for i, op in enumerate(circuit.ops):
        mat = rotation_batch(op.kind, np.broadcast_to(angles[i], grid).ravel()) if i in angles else gate_matrix(op)
        states = apply_superop_batch(states, [(superop(mat), op.qubits)], n)
        for p in circuit.noise_points:
            if p.after_op == i:
                states = apply_superop_batch(states, [(kraus_superop(p.channel), p.qubits)], n)
    return states


def per_step_matrices(circuit, steps, angles: dict, pure: bool = False) -> list:
    """Each plan step's PTM, or its unitary when `pure`, built on its own:
    its gate at `angles[i]` (the op's own angle when absent) from its own
    rotation_batch call, as a PTM through `superop` and `to_ptm`, then its
    `after`.  A reference for `circuits._built`, which builds the gates of
    one kind and angle shape in one stacked call; it takes the same
    arguments."""
    out = []
    for i, _, after in steps:
        if i is None:
            out.append(after)
            continue
        op = circuit.ops[i]
        mat = gate_matrix(op) if i not in angles else rotation_batch(op.kind, angles[i])
        gate = mat if pure else to_ptm(superop(mat))
        out.append(gate if after is None else after @ gate)
    return out


def per_step_prefix(circuit, angles: dict, prefix, shape, matrices=per_step_matrices) -> np.ndarray:
    """Each row's state after the steps of a compiled prefix, one step at a
    time: each step's matrix built on its own (`matrices`, by default
    `per_step_matrices`), then one product with its qubit's state.  A
    reference for `circuits.run_prefix`, which runs the steps one depth at a
    time; it takes the same arguments and lays the rows out over the grid
    that `shape` and the steps' angles span."""
    angles = {i: np.asarray(a) for i, a in angles.items()}
    angles = {i: a[None] if a.ndim == 1 else a for i, a in angles.items()}
    shape = np.broadcast_shapes(shape, *(angles[i].shape for i, _, _ in prefix.steps if i in angles))
    n, size = prefix.starts.shape
    states = list(prefix.starts[:, None, None])
    for (_, (q,), _), mat in zip(prefix.steps, matrices(circuit, prefix.steps, angles, pure=size == 2)):
        states[q] = np.matmul(mat, states[q][..., None])[..., 0]
    rows = np.empty((n, *shape, size), dtype=prefix.starts.dtype)
    for q, state in enumerate(states):
        rows[q] = state
    rows = rows.reshape(n, -1, size)
    return _kron_rows(list(rows)) if size == 2 else rows
