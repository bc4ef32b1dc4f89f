"""A fixed reference kernel that measures how fast the machine is right now.

On a host shared with other tenants the same code runs up to 1.6x slower
for seconds to minutes at a time, within one run as well as between runs,
and no statistic taken inside one run removes that.  The run therefore
times this kernel between set-ups and between the workload's calls, and
divides the times it reports by the kernel's median time: when the host
slows both down, the quotient stays put.

The kernel does the kind of work the simulator spends its time on: it
permutes the qubit axes of a stack of 4-qubit density matrices into
superoperator layout, multiplies by 1- and 2-qubit superoperators, and
permutes back, at batch 32 and at batch 1.  It is written here, from
numpy alone, so that no change to the program under test can change its
speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

N_QUBITS = 4
DIM = 2**N_QUBITS
#: sweeps over every qubit and neighbouring pair, per batch size, per call
SWEEPS = {32: 4, 1: 8}
#: reference time kept at about this share of the workload's timed time
SHARE = 0.1


def _perm(qubits: tuple[int, ...]) -> list[int]:
    """Axes of the (B, 2, ..., 2) view: addressed row bits, then their
    column bits, then the remaining row and column bits."""
    n = N_QUBITS
    row = [1 + (n - 1 - q) for q in qubits]
    col = [1 + n + (n - 1 - q) for q in qubits]
    rest_row = [a for a in range(1, n + 1) if a not in row]
    rest_col = [a for a in range(n + 1, 2 * n + 1) if a not in col]
    return [0] + row + col + rest_row + rest_col


PERMS = [_perm((q,)) for q in range(N_QUBITS)] + [_perm((q, (q + 1) % N_QUBITS)) for q in range(N_QUBITS)]


def _apply(states: np.ndarray, superop: np.ndarray, perm: list[int]) -> np.ndarray:
    b = states.shape[0]
    t = states.reshape((b,) + (2,) * (2 * N_QUBITS)).transpose(perm)
    t = np.matmul(superop, t.reshape(b, superop.shape[-1], -1))
    return t.reshape((b,) + (2,) * (2 * N_QUBITS)).transpose(np.argsort(perm)).reshape(b, DIM, DIM)


class Reference:
    """The kernel's inputs, fixed by a constant seed, and the seconds of
    every timed call of it."""

    def __init__(self):
        rng = np.random.default_rng(20240218)
        self.inputs = {}
        for b in SWEEPS:
            states = rng.standard_normal((b, DIM, DIM)) + 1j * rng.standard_normal((b, DIM, DIM))
            one = rng.standard_normal((b, 4, 4)) + 1j * rng.standard_normal((b, 4, 4))
            two = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            self.inputs[b] = (states, one / 4, two / 16)
        self.times: list[float] = []
        #: the workload's timed seconds seen so far
        self.workload_s = 0.0
        self.kernel()  # warm-up, not timed

    def kernel(self) -> float:
        """One call of the kernel; returns a number that depends on every
        step, so none of the work can be skipped."""
        total = 0.0
        for b, sweeps in SWEEPS.items():
            states, one, two = self.inputs[b]
            for _ in range(sweeps):
                for i, perm in enumerate(PERMS):
                    states = _apply(states, one if i < N_QUBITS else two, perm)
                states = states / np.abs(states).max()
            total += float(states.real.sum())
        return total

    def after_call(self, seconds: float) -> None:
        """Count a timed workload call of `seconds`, then time the kernel
        until it has run for SHARE of all workload time so far."""
        self.workload_s += seconds
        while sum(self.times) < SHARE * self.workload_s:
            t0 = perf_counter()
            self.kernel()
            self.times.append(perf_counter() - t0)
