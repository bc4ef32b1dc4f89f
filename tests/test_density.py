"""Density-matrix evolution against an independent full-embedding oracle."""

import numpy as np
import pytest

from qsteal.channels import ReadoutConfusion, amplitude_damping, depolarizing, depolarizing_2q
from qsteal.density import (
    DensityMatrix,
    apply_channel,
    apply_gate,
    apply_unitary_batch,
    apply_unitary_vec,
    exp_z_batch,
    exp_z_vec,
    expectation_z,
    sample_expectation_z,
    zero_states,
    zero_vecs,
)
from qsteal.gates import GateOp, gate_matrix, rotation_batch

from helpers import embed_full, random_density, random_gate


class TestGateApplication:
    def test_matches_full_embedding_oracle(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                op = random_gate(rng, n) if n > 1 else GateOp("RX", (0,), 0.4)
                rho = DensityMatrix(n, random_density(rng, n))
                full = embed_full(gate_matrix(op), op.qubits, n)
                expected = full @ rho.data @ full.conj().T
                np.testing.assert_allclose(apply_gate(rho, op).data, expected, atol=1e-12)

    def test_two_qubit_qubit_order_matters(self):
        rng = np.random.default_rng(22)
        rho = DensityMatrix(3, random_density(rng, 3))
        a = apply_gate(rho, GateOp("CNOT", (0, 2)))
        b = apply_gate(rho, GateOp("CNOT", (2, 0)))
        assert not np.allclose(a.data, b.data, atol=1e-6)

    def test_x_flips_zero_state(self):
        rho = DensityMatrix.zero_state(1)
        out = apply_gate(rho, GateOp("X", (0,)))
        assert abs(expectation_z(out, 0) + 1.0) < 1e-12

    def test_rz_leaves_diagonal_state_unchanged(self):
        rho = DensityMatrix.zero_state(1)
        for theta in (0.0, 0.3, 2.7):
            out = apply_gate(rho, GateOp("RZ", (0,), theta))
            np.testing.assert_allclose(out.data, rho.data, atol=1e-14)

    def test_hadamard_puts_state_on_equator(self):
        rho = apply_gate(DensityMatrix.zero_state(1), GateOp("H", (0,)))
        assert abs(expectation_z(rho, 0)) < 1e-12

    def test_composition_equals_product_unitary(self):
        rng = np.random.default_rng(23)
        n = 3
        for _ in range(25):
            g1, g2 = random_gate(rng, n), random_gate(rng, n)
            rho = DensityMatrix(n, random_density(rng, n))
            stepped = apply_gate(apply_gate(rho, g1), g2)
            u = embed_full(gate_matrix(g2), g2.qubits, n) @ embed_full(gate_matrix(g1), g1.qubits, n)
            expected = u @ rho.data @ u.conj().T
            np.testing.assert_allclose(stepped.data, expected, atol=1e-10)

    def test_invariants_preserved(self):
        rng = np.random.default_rng(24)
        rho = DensityMatrix(4, random_density(rng, 4))
        for _ in range(30):
            rho = apply_gate(rho, random_gate(rng, 4))
        rho.validate()


class TestChannelApplication:
    def test_matches_full_embedding_oracle(self):
        rng = np.random.default_rng(31)
        for n in (2, 3):
            for _ in range(10):
                rho = DensityMatrix(n, random_density(rng, n))
                ch = depolarizing(float(rng.uniform(0, 1)))
                q = int(rng.integers(n))
                expected = sum(
                    embed_full(k, (q,), n) @ rho.data @ embed_full(k, (q,), n).conj().T
                    for k in ch.operators
                )
                np.testing.assert_allclose(apply_channel(rho, ch, (q,)).data, expected, atol=1e-12)

    def test_two_qubit_channel_matches_oracle(self):
        rng = np.random.default_rng(32)
        rho = DensityMatrix(3, random_density(rng, 3))
        ch = depolarizing_2q(0.4)
        qubits = (2, 0)
        expected = sum(
            embed_full(k, qubits, 3) @ rho.data @ embed_full(k, qubits, 3).conj().T
            for k in ch.operators
        )
        np.testing.assert_allclose(apply_channel(rho, ch, qubits).data, expected, atol=1e-12)

    def test_amplitude_damping_full_decay_multi_qubit(self):
        rho = apply_gate(DensityMatrix.zero_state(2), GateOp("X", (1,)))
        out = apply_channel(rho, amplitude_damping(1.0), (1,))
        np.testing.assert_allclose(out.data, DensityMatrix.zero_state(2).data, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(33)
        rho = DensityMatrix(2, random_density(rng, 2))
        out = apply_channel(rho, depolarizing_2q(0.7), (0, 1))
        assert abs(np.trace(out.data) - 1.0) < 1e-10

    def test_dimension_mismatch_rejected(self):
        rho = DensityMatrix.zero_state(2)
        with pytest.raises(ValueError, match="acts on"):
            apply_channel(rho, depolarizing(0.1), (0, 1))


class TestExpectation:
    def test_product_state(self):
        rho = apply_gate(DensityMatrix.zero_state(2), GateOp("X", (1,)))
        assert abs(expectation_z(rho, 1) + 1.0) < 1e-12
        assert abs(expectation_z(rho, 0) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        for n in (1, 2, 3):
            rho = DensityMatrix(n, np.eye(2**n, dtype=complex) / 2**n)
            for q in range(n):
                assert abs(expectation_z(rho, q)) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            expectation_z(DensityMatrix.zero_state(2), 2)


class TestSampling:
    def test_zero_variance_state(self):
        rho = DensityMatrix.zero_state(1)
        conf = ReadoutConfusion.identity(1)
        rng = np.random.default_rng(0)
        for shots in (1, 10, 1000):
            assert sample_expectation_z(rho, 0, shots, conf, rng) == 1.0

    def test_confusion_shifts_mean(self):
        # E[estimate] = 0.95 - 0.05 = 0.90 for |0><0| with the given confusion
        rho = DensityMatrix.zero_state(1)
        conf = ReadoutConfusion((np.array([[0.95, 0.05], [0.10, 0.90]]),))
        shots = 100_000
        est = sample_expectation_z(rho, 0, shots, conf, np.random.default_rng(7))
        sigma = 2 * np.sqrt(0.05 * 0.95 / shots)
        assert abs(est - 0.90) < 3 * sigma

    def test_mixed_state_mean_near_zero(self):
        rho = DensityMatrix(1, np.eye(2, dtype=complex) / 2)
        conf = ReadoutConfusion.identity(1)
        shots = 1000
        estimates = [
            sample_expectation_z(rho, 0, shots, conf, np.random.default_rng(seed))
            for seed in range(20)
        ]
        assert abs(np.mean(estimates)) < 3 / np.sqrt(shots)

    def test_convergence_to_analytic_on_random_states(self):
        rng = np.random.default_rng(41)
        shots = 40_000
        for _ in range(20):
            rho = DensityMatrix(2, random_density(rng, 2))
            conf = ReadoutConfusion.identity(2)
            q = int(rng.integers(2))
            est = sample_expectation_z(rho, q, shots, conf, rng)
            assert abs(est - expectation_z(rho, q)) < 4 / np.sqrt(shots)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            sample_expectation_z(
                DensityMatrix.zero_state(1), 0, 0, ReadoutConfusion.identity(1),
                np.random.default_rng(0),
            )


class TestBatchedKernels:
    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(51)
        n = 3
        states = np.stack([random_density(rng, n) for _ in range(6)])
        op = GateOp("CRX", (2, 0), 0.9)
        mat = gate_matrix(op)
        batched = apply_unitary_batch(states, mat, op.qubits, n)
        for i in range(6):
            single = apply_unitary_batch(states[i][None], mat, op.qubits, n)[0]
            np.testing.assert_array_equal(batched[i], single)

    def test_per_sample_matrices(self):
        rng = np.random.default_rng(52)
        n = 2
        states = np.stack([random_density(rng, n) for _ in range(4)])
        angles = rng.uniform(0, 2 * np.pi, 4)
        mats = np.stack([rotation_batch("RZ", a) for a in angles])
        batched = apply_unitary_batch(states, mats, (1,), n)
        for i in range(4):
            expected = apply_unitary_batch(states[i][None], mats[i], (1,), n)[0]
            np.testing.assert_allclose(batched[i], expected, atol=1e-15)

    def test_statevector_matches_density_route(self):
        rng = np.random.default_rng(53)
        n = 3
        vecs = zero_vecs(2, n)
        states = zero_states(2, n)
        for _ in range(15):
            op = random_gate(rng, n)
            mat = gate_matrix(op)
            vecs = apply_unitary_vec(vecs, mat, op.qubits, n)
            states = apply_unitary_batch(states, mat, op.qubits, n)
        for q in range(n):
            np.testing.assert_allclose(
                exp_z_vec(vecs, q, n), exp_z_batch(states, q, n), atol=1e-12
            )
