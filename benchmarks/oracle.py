"""Brute-force reference for the per-qubit <Z> features of a hybrid model.

Independent of the simulator: it rebuilds the circuit from the documented
layout (H + RZ angle encoding, PQC1 / PQC19 layers, per-gate depolarizing
noise, and amplitude damping, phase flip and bit flip at each layer
break), embeds every gate and Kraus operator into a full 2^n x 2^n matrix
with ``np.kron``, and evolves one density matrix per input.  Only the
template id, widths, parameters and device rates are read from the
program's objects.

Conventions, as in ``qsteal.gates``: qubit 0 is the least significant bit
of the basis index; a two-qubit operator's first qubit is its high bit;
rotations are exp(-i theta P / 2).
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
P0 = np.diag([1, 0]).astype(np.complex128)
P1 = np.diag([0, 1]).astype(np.complex128)
PAULIS = (I2, X, Y, Z)


def rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def embed(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    """kron of single-qubit factors over the register, qubit n-1 leftmost."""
    out = np.ones((1, 1), dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, factors.get(q, I2))
    return out


def crx(control: int, target: int, t: float, n: int) -> np.ndarray:
    return embed({control: P0}, n) + embed({control: P1, target: rx(t)}, n)


def kraus_1q(kind: str, rate: float) -> list[np.ndarray]:
    if kind == "depolarizing":
        return [math.sqrt(1 - 0.75 * rate) * I2] + [math.sqrt(rate / 4) * p for p in (X, Y, Z)]
    if kind == "amplitude_damping":
        return [
            np.array([[1, 0], [0, math.sqrt(1 - rate)]], dtype=np.complex128),
            np.array([[0, math.sqrt(rate)], [0, 0]], dtype=np.complex128),
        ]
    if kind == "phase_flip":
        return [math.sqrt(1 - rate) * I2, math.sqrt(rate) * Z]
    if kind == "bit_flip":
        return [math.sqrt(1 - rate) * I2, math.sqrt(rate) * X]
    raise ValueError(kind)


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def apply_kraus(rho: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def circuit_gates(template_id: str, n: int, layers: int, theta, x) -> tuple[list, list[int]]:
    """Gate list as (qubits, full-register unitary), and the gate counts
    after which a layer break falls (end of encoding, end of each layer)."""
    gates = []
    block = math.ceil(len(x) / n)
    for q in range(n):
        for f in range(q * block, min((q + 1) * block, len(x))):
            gates.append(((q,), embed({q: H}, n)))
            gates.append(((q,), embed({q: rz(x[f])}, n)))
    breaks = [len(gates)]
    params = iter(theta)
    for _ in range(layers):
        gates += [((q,), embed({q: rx(next(params))}, n)) for q in range(n)]
        gates += [((q,), embed({q: rz(next(params))}, n)) for q in range(n)]
        if template_id == "PQC19":
            for i in range(n - 1, -1, -1):
                gates.append(((i, (i + 1) % n), crx(i, (i + 1) % n, next(params), n)))
        elif template_id != "PQC1":
            raise ValueError(f"oracle covers PQC1 and PQC19, not {template_id}")
        breaks.append(len(gates))
    return gates, breaks


def expectations(model, x, profile) -> np.ndarray:
    """<Z_q> for q = 0..n-1 after the model's circuit on input x under the
    device profile (None or a noiseless profile: no channels)."""
    t = model.template
    n = t.n_qubits
    rates = {
        "p1": 0.0, "p2": 0.0, "gamma": 0.0, "p_phase": 0.0, "p_bit": 0.0,
    }
    if profile is not None:
        rates = {k: float(getattr(profile, k)) for k in rates}
    gates, breaks = circuit_gates(t.id, n, t.layers, np.asarray(model.theta), np.asarray(x))
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    for i, (qubits, u) in enumerate(gates):
        rho = apply_unitary(rho, u)
        if len(qubits) == 1 and rates["p1"] > 0:
            rho = apply_kraus(rho, [embed({qubits[0]: k}, n) for k in kraus_1q("depolarizing", rates["p1"])])
        if len(qubits) == 2 and rates["p2"] > 0:
            a, b = qubits
            ops = []
            for ia, pa in enumerate(PAULIS):
                for ib, pb in enumerate(PAULIS):
                    w = 1 - rates["p2"] if ia == ib == 0 else rates["p2"] / 15
                    ops.append(math.sqrt(w) * embed({a: pa, b: pb}, n))
            rho = apply_kraus(rho, ops)
        if i + 1 in breaks:
            for kind, rate in (("amplitude_damping", rates["gamma"]),
                               ("phase_flip", rates["p_phase"]),
                               ("bit_flip", rates["p_bit"])):
                if rate > 0:
                    for q in range(n):
                        rho = apply_kraus(rho, [embed({q: k}, n) for k in kraus_1q(kind, rate)])
    return np.array([np.trace(embed({q: Z}, n) @ rho).real for q in range(n)])
