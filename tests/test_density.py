"""Batched density-matrix kernels against an independent full-embedding oracle."""

import numpy as np
import pytest

from qsteal.channels import ReadoutConfusion, amplitude_damping, depolarizing, depolarizing_2q
from qsteal.density import (
    apply_superop_batch,
    apply_unitary_vec,
    exp_z_batch,
    exp_z_vec,
    sample_expectations,
    unitary_superop,
    zero_states,
    zero_vecs,
)
from qsteal.gates import GateOp, gate_matrix, rotation_batch

from helpers import assert_density_matrix, embed_full, random_density, random_gate


def _gate(states, op: GateOp, n: int) -> np.ndarray:
    return apply_superop_batch(states, unitary_superop(gate_matrix(op)), op.qubits, n)


def _channel(states, channel, qubits, n: int) -> np.ndarray:
    return apply_superop_batch(states, channel.superop, tuple(qubits), n)


def _random_states(rng, n: int, batch: int) -> np.ndarray:
    return np.stack([random_density(rng, n) for _ in range(batch)])


class TestGateApplication:
    def test_matches_full_embedding_oracle(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                op = random_gate(rng, n) if n > 1 else GateOp("RX", (0,), 0.4)
                states = _random_states(rng, n, 3)
                full = embed_full(gate_matrix(op), op.qubits, n)
                expected = full @ states @ full.conj().T
                np.testing.assert_allclose(_gate(states, op, n), expected, atol=1e-12)

    def test_two_qubit_qubit_order_matters(self):
        rng = np.random.default_rng(22)
        states = random_density(rng, 3)[None]
        a = _gate(states, GateOp("CNOT", (0, 2)), 3)
        b = _gate(states, GateOp("CNOT", (2, 0)), 3)
        assert not np.allclose(a, b, atol=1e-6)

    def test_x_flips_zero_state(self):
        out = _gate(zero_states(1, 1), GateOp("X", (0,)), 1)
        assert abs(exp_z_batch(out, 0, 1)[0] + 1.0) < 1e-12

    def test_rz_leaves_diagonal_state_unchanged(self):
        states = zero_states(1, 1)
        for theta in (0.0, 0.3, 2.7):
            out = _gate(states, GateOp("RZ", (0,), theta), 1)
            np.testing.assert_allclose(out, states, atol=1e-14)

    def test_hadamard_puts_state_on_equator(self):
        states = _gate(zero_states(1, 1), GateOp("H", (0,)), 1)
        assert abs(exp_z_batch(states, 0, 1)[0]) < 1e-12

    def test_composition_equals_product_unitary(self):
        rng = np.random.default_rng(23)
        n = 3
        for _ in range(25):
            g1, g2 = random_gate(rng, n), random_gate(rng, n)
            states = _random_states(rng, n, 2)
            stepped = _gate(_gate(states, g1, n), g2, n)
            u = embed_full(gate_matrix(g2), g2.qubits, n) @ embed_full(gate_matrix(g1), g1.qubits, n)
            expected = u @ states @ u.conj().T
            np.testing.assert_allclose(stepped, expected, atol=1e-10)

    def test_invariants_preserved(self):
        rng = np.random.default_rng(24)
        states = _random_states(rng, 4, 2)
        for _ in range(30):
            states = _gate(states, random_gate(rng, 4), 4)
        for rho in states:
            assert_density_matrix(rho)


class TestChannelApplication:
    def test_matches_full_embedding_oracle(self):
        rng = np.random.default_rng(31)
        for n in (2, 3):
            for _ in range(10):
                states = _random_states(rng, n, 3)
                ch = depolarizing(float(rng.uniform(0, 1)))
                q = int(rng.integers(n))
                expected = sum(
                    embed_full(k, (q,), n) @ states @ embed_full(k, (q,), n).conj().T
                    for k in ch.operators
                )
                np.testing.assert_allclose(_channel(states, ch, (q,), n), expected, atol=1e-12)

    def test_two_qubit_channel_matches_oracle(self):
        rng = np.random.default_rng(32)
        states = _random_states(rng, 3, 2)
        ch = depolarizing_2q(0.4)
        qubits = (2, 0)
        expected = sum(
            embed_full(k, qubits, 3) @ states @ embed_full(k, qubits, 3).conj().T
            for k in ch.operators
        )
        np.testing.assert_allclose(_channel(states, ch, qubits, 3), expected, atol=1e-12)

    def test_amplitude_damping_full_decay_multi_qubit(self):
        states = _gate(zero_states(1, 2), GateOp("X", (1,)), 2)
        out = _channel(states, amplitude_damping(1.0), (1,), 2)
        np.testing.assert_allclose(out, zero_states(1, 2), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(33)
        states = _random_states(rng, 2, 4)
        out = _channel(states, depolarizing_2q(0.7), (0, 1), 2)
        np.testing.assert_allclose(np.trace(out, axis1=1, axis2=2), 1.0, atol=1e-10)


class TestExpectation:
    def test_product_state(self):
        states = _gate(zero_states(1, 2), GateOp("X", (1,)), 2)
        assert abs(exp_z_batch(states, 1, 2)[0] + 1.0) < 1e-12
        assert abs(exp_z_batch(states, 0, 2)[0] - 1.0) < 1e-12

    def test_maximally_mixed(self):
        for n in (1, 2, 3):
            states = np.eye(2**n, dtype=complex)[None] / 2**n
            for q in range(n):
                assert abs(exp_z_batch(states, q, n)[0]) < 1e-12


class TestSampling:
    def test_zero_variance_state(self):
        exps = exp_z_batch(zero_states(1, 1), 0, 1)[:, None]
        conf = ReadoutConfusion.identity(1)
        rng = np.random.default_rng(0)
        for shots in (1, 10, 1000):
            assert sample_expectations(exps, conf, shots, rng)[0, 0] == 1.0

    def test_confusion_shifts_mean(self):
        # E[estimate] = 0.95 - 0.05 = 0.90 for |0><0| with the given confusion
        exps = exp_z_batch(zero_states(1, 1), 0, 1)[:, None]
        conf = ReadoutConfusion((np.array([[0.95, 0.05], [0.10, 0.90]]),))
        shots = 100_000
        est = sample_expectations(exps, conf, shots, np.random.default_rng(7))[0, 0]
        sigma = 2 * np.sqrt(0.05 * 0.95 / shots)
        assert abs(est - 0.90) < 3 * sigma

    def test_each_column_reads_through_its_own_qubit(self):
        # qubit 0 reads faithfully, qubit 1 always reads the flipped bit
        conf = ReadoutConfusion((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
        exps = np.array([[1.0, 1.0], [-1.0, -1.0]])
        est = sample_expectations(exps, conf, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(est, [[1.0, -1.0], [-1.0, 1.0]])

    def test_mixed_state_mean_near_zero(self):
        states = np.repeat(np.eye(2, dtype=complex)[None] / 2, 20, axis=0)
        exps = exp_z_batch(states, 0, 1)[:, None]
        shots = 1000
        estimates = sample_expectations(exps, ReadoutConfusion.identity(1), shots, np.random.default_rng(0))
        assert abs(np.mean(estimates)) < 3 / np.sqrt(shots)

    def test_convergence_to_analytic_on_random_states(self):
        rng = np.random.default_rng(41)
        shots = 40_000
        states = _random_states(rng, 2, 20)
        exact = np.stack([exp_z_batch(states, q, 2) for q in range(2)], axis=1)
        est = sample_expectations(exact, ReadoutConfusion.identity(2), shots, rng)
        assert np.max(np.abs(est - exact)) < 4 / np.sqrt(shots)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            sample_expectations(np.ones((1, 1)), ReadoutConfusion.identity(1), 0, np.random.default_rng(0))


class TestBatchedKernels:
    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(51)
        n = 3
        states = _random_states(rng, n, 6)
        op = GateOp("CRX", (2, 0), 0.9)
        batched = _gate(states, op, n)
        for i in range(6):
            single = _gate(states[i][None], op, n)[0]
            np.testing.assert_array_equal(batched[i], single)

    def test_per_sample_matrices(self):
        rng = np.random.default_rng(52)
        n = 2
        states = _random_states(rng, n, 4)
        angles = rng.uniform(0, 2 * np.pi, 4)
        mats = np.stack([rotation_batch("RZ", a) for a in angles])
        batched = apply_superop_batch(states, unitary_superop(mats), (1,), n)
        for i in range(4):
            expected = apply_superop_batch(states[i][None], unitary_superop(mats[i]), (1,), n)[0]
            np.testing.assert_allclose(batched[i], expected, atol=1e-15)

    def test_statevector_matches_density_route(self):
        rng = np.random.default_rng(53)
        n = 3
        vecs = zero_vecs(2, n)
        states = zero_states(2, n)
        for _ in range(15):
            op = random_gate(rng, n)
            vecs = apply_unitary_vec(vecs, gate_matrix(op), op.qubits, n)
            states = _gate(states, op, n)
        for q in range(n):
            np.testing.assert_allclose(
                exp_z_vec(vecs, q, n), exp_z_batch(states, q, n), atol=1e-12
            )
