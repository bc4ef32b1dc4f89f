"""Batched kernels and Pauli transfer matrices against an independent
full-embedding oracle.

The kernel runs PTMs on Pauli vectors; the tests hand it density
matrices turned into Pauli vectors and read its results back as density
matrices (helpers.pauli_vectors, helpers.density_matrices), so every
check is stated on density matrices."""

import numpy as np
import pytest

from qsteal.channels import (
    ReadoutConfusion,
    amplitude_damping,
    bit_flip,
    depolarizing,
    depolarizing_2q,
    phase_flip,
)
from qsteal.density import apply_superop_batch, apply_unitary_vec, sample_expectations, unitary_superop
from qsteal.gates import GATE_KINDS, GateOp, gate_matrix, rotation_batch

from helpers import (
    assert_density_matrix,
    density_matrices,
    embed_full,
    exp_z_batch,
    kraus_superop,
    pauli_vectors,
    random_density,
    random_gate,
    superop,
    to_ptm,
    zero_states,
)


def _run(states, steps, n: int) -> np.ndarray:
    """Density matrices after PTM steps, run on their Pauli vectors."""
    return density_matrices(apply_superop_batch(pauli_vectors(states), steps, n))


def _gate(states, op: GateOp, n: int) -> np.ndarray:
    return _run(states, [(unitary_superop(gate_matrix(op)), op.qubits)], n)


def _channel(states, channel, qubits, n: int) -> np.ndarray:
    return _run(states, [(channel.superop, tuple(qubits))], n)


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
        states = pauli_vectors(_random_states(rng, n, 4))
        angles = rng.uniform(0, 2 * np.pi, 4)
        mats = np.stack([rotation_batch("RZ", a) for a in angles])
        batched = apply_superop_batch(states, [(unitary_superop(mats), (1,))], n)
        for i in range(4):
            expected = apply_superop_batch(states[i][None], [(unitary_superop(mats[i]), (1,))], n)[0]
            assert batched[i].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "CRX", "CRZ"])
    def test_superop_stack_entries_equal_single_builds(self, kind):
        # bytes, not values: assert_array_equal takes -0.0 for 0.0
        mats = rotation_batch(kind, np.random.default_rng(57).uniform(0, 2 * np.pi, (4, 16)))
        stack = unitary_superop(mats)
        assert stack.shape == mats.shape[:-2] + (mats.shape[-1] ** 2,) * 2
        for idx in np.ndindex(mats.shape[:-2]):
            assert stack[idx].tobytes() == unitary_superop(mats[idx]).tobytes()

    @pytest.mark.parametrize("qubits", [(1,), (2, 0), (0, 3)])
    def test_grouped_statevectors_match_per_row_matrices(self, qubits):
        # a (G, 2^k, 2^k) stack over G * R rows equals every row with its group's matrix
        rng = np.random.default_rng(54)
        n, g, r = 4, 3, 5
        vecs = rng.normal(size=(g * r, 2**n)) + 1j * rng.normal(size=(g * r, 2**n))
        kind = "RX" if len(qubits) == 1 else "CRX"
        mats = rotation_batch(kind, rng.uniform(0, 2 * np.pi, g))
        grouped = apply_unitary_vec(vecs, [(mats, qubits)], n)
        per_row = apply_unitary_vec(vecs, [(np.repeat(mats, r, axis=0), qubits)], n)
        np.testing.assert_allclose(grouped, per_row, rtol=0, atol=1e-14)
        # one group of every row equals a matrix shared by rows that are each their own group
        one_group = apply_unitary_vec(vecs, [(mats[:1], qubits)], n)
        np.testing.assert_allclose(one_group, apply_unitary_vec(vecs, [(mats[0], qubits)], n), rtol=0, atol=1e-14)

    def test_a_group_count_from_the_caller_runs_each_step_in_one_product(self, monkeypatch):
        # G = 1: every state in one group, one GEMM per shared step; by default each state is its own group
        rng = np.random.default_rng(59)
        n, b = 4, 6
        vecs = rng.normal(size=(b, 2**n)) + 1j * rng.normal(size=(b, 2**n))
        states = pauli_vectors(_random_states(rng, n, b))
        steps = [(gate_matrix(op), op.qubits) for op in (random_gate(rng, n) for _ in range(8))]
        superops = [(unitary_superop(u), qubits) for u, qubits in steps] + [(amplitude_damping(0.2).superop, (1,))]
        groups = []
        original = np.matmul
        monkeypatch.setattr(np, "matmul", lambda op, t: groups.append(t.shape[0]) or original(op, t))
        one = apply_unitary_vec(vecs, steps, n, 1)
        assert groups == [1] * len(steps)
        groups.clear()
        default = apply_unitary_vec(vecs, steps, n)
        assert groups == [b] * len(steps)
        monkeypatch.undo()
        np.testing.assert_allclose(one, default, rtol=0, atol=1e-14)
        # by default a state's result is what it is alone, byte for byte, which the noisy pictures rely on
        mixed = apply_superop_batch(states, superops, n)
        for i in range(b):
            assert default[i].tobytes() == apply_unitary_vec(vecs[i : i + 1], steps, n)[0].tobytes()
            assert mixed[i].tobytes() == apply_superop_batch(states[i : i + 1], superops, n)[0].tobytes()

    def test_statevectors_run_the_density_kernel(self):
        # one body: the statevector name is the same code, read with one leg per qubit
        assert apply_unitary_vec.__code__ is apply_superop_batch.__code__

    @pytest.mark.parametrize("stacks", ["shared", "per_group"])
    def test_unitaries_on_statevectors_match_their_ptms_on_projectors(self, stacks):
        # psi through a step list of unitaries equals |psi><psi| through their PTMs
        rng = np.random.default_rng(58)
        n, g, r = 3, 4, 3
        vecs = rng.normal(size=(g * r, 2**n)) + 1j * rng.normal(size=(g * r, 2**n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        steps = []
        for _ in range(10):
            op = random_gate(rng, n)
            angles = rng.uniform(0, 2 * np.pi, g) if stacks == "per_group" else op.angle
            steps.append((gate_matrix(op) if op.angle is None else rotation_batch(op.kind, angles), op.qubits))
        out = apply_unitary_vec(vecs, steps, n)
        rho = _run(np.einsum("bi,bj->bij", vecs, vecs.conj()), [(unitary_superop(u), qubits) for u, qubits in steps], n)
        np.testing.assert_allclose(np.einsum("bi,bj->bij", out, out.conj()), rho, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("qubits", [(1,), (2, 0), (0, 3)])
    def test_grouped_ptms_match_per_state_stacks(self, qubits):
        # a (G, 4^k, 4^k) stack over G * R states equals every state with its group's PTM
        rng = np.random.default_rng(55)
        n, g, r = 4, 3, 5
        states = pauli_vectors(_random_states(rng, n, g * r))
        kind = "RX" if len(qubits) == 1 else "CRX"
        stack = unitary_superop(rotation_batch(kind, rng.uniform(0, 2 * np.pi, g)))
        grouped = apply_superop_batch(states, [(stack, qubits)], n)
        per_state = apply_superop_batch(states, [(np.repeat(stack, r, axis=0), qubits)], n)
        np.testing.assert_allclose(grouped, per_state, rtol=0, atol=1e-15)

    def test_a_sequence_of_steps_equals_its_steps_one_at_a_time(self):
        # each step leaves the batch in its own axis order; only the result is put back
        rng = np.random.default_rng(56)
        n, b = 4, 6
        states = pauli_vectors(_random_states(rng, n, b))
        steps = []
        for _ in range(12):
            op = random_gate(rng, n)
            mat = gate_matrix(op) if op.angle is None else rotation_batch(op.kind, rng.uniform(0, 2 * np.pi, b))
            steps.append((unitary_superop(mat), op.qubits))
        steps.append((depolarizing_2q(0.1).superop, (3, 1)))
        steps.append((amplitude_damping(0.2).superop, (2,)))
        one_at_a_time = states
        for step in steps:
            one_at_a_time = apply_superop_batch(one_at_a_time, [step], n)
        np.testing.assert_allclose(apply_superop_batch(states, steps, n), one_at_a_time, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(apply_superop_batch(states, [], n), states)

    def test_statevector_matches_density_route(self):
        from qsteal.circuits import CircuitIR, run_circuit

        rng = np.random.default_rng(53)
        n = 3
        vecs = np.zeros((2, 2**n), dtype=np.complex128)
        vecs[:, 0] = 1.0
        states = zero_states(2, n)
        ops = [random_gate(rng, n) for _ in range(15)]
        for op in ops:
            vecs = apply_unitary_vec(vecs, [(gate_matrix(op), op.qubits)], n)
            states = _gate(states, op, n)
        np.testing.assert_allclose(np.einsum("bi,bj->bij", vecs, vecs.conj()), states, atol=1e-12)
        # run_circuit's statevector readout: |psi|^2 against each measured qubit's signs, in measured order
        measured = (2, 0)
        got = run_circuit(CircuitIR(n, tuple(ops), measured))
        want = np.stack([exp_z_batch(states, q, n) for q in measured], axis=1)
        np.testing.assert_allclose(got, want[:1], rtol=0, atol=1e-12)


#: a gate of every kind, the parameterized ones at several angles, and every channel at several rates
GATES = [gate_matrix(GateOp(kind, tuple(range(arity)), a)) for kind, (arity, angled) in GATE_KINDS.items()
         for a in ((0.0, 0.7, np.pi, 4.1) if angled else (None,))]
CHANNELS = [build(p) for build in (bit_flip, phase_flip, depolarizing, amplitude_damping, depolarizing_2q)
            for p in (0.0, 0.05, 0.3, 1.0)]


class TestPauliTransferMatrices:
    """Every gate and channel as a real PTM, R_ab = Tr(P_a Phi(P_b)) / 2^k,
    against the one the test builds from its computational-basis
    superoperator through a change of basis written out from the Pauli
    strings (helpers.to_ptm, which checks that the imaginary part it drops
    is at most 1e-15)."""

    @pytest.mark.parametrize("k", range(len(GATES)))
    def test_gate_ptm_is_real_orthogonal_and_fixes_the_identity(self, k):
        u = GATES[k]
        got = unitary_superop(u)
        assert got.dtype == np.float64 and got.shape == (u.shape[0] ** 2,) * 2
        np.testing.assert_allclose(got, to_ptm(superop(u)), rtol=0, atol=1e-15)
        e0 = np.eye(got.shape[0])[0]
        np.testing.assert_array_equal(got[0], e0)
        np.testing.assert_array_equal(got[:, 0], e0)
        np.testing.assert_allclose(got @ got.T, np.eye(got.shape[0]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", range(len(CHANNELS)))
    def test_channel_ptm_is_real_and_trace_preserving(self, k):
        channel = CHANNELS[k]
        got = channel.superop
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, to_ptm(kraus_superop(channel)), rtol=0, atol=1e-15)
        e0 = np.eye(got.shape[0])[0]
        np.testing.assert_allclose(got[0], e0, rtol=0, atol=1e-15)
        if channel.name != "AmplitudeDamping" or channel.rate == 0.0:  # every other channel is unital
            np.testing.assert_allclose(got[:, 0], e0, rtol=0, atol=1e-15)
        else:
            assert abs(got[3, 0] - channel.rate) < 1e-15  # |1> decays to |0>: <Z> gains gamma

    def test_random_unitaries_and_controlled_unitaries(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            np.testing.assert_allclose(unitary_superop(u), to_ptm(superop(u)), rtol=0, atol=1e-15)
            controlled = np.eye(4, dtype=np.complex128)
            controlled[2:, 2:] = u
            np.testing.assert_allclose(unitary_superop(controlled), to_ptm(superop(controlled)), rtol=0, atol=1e-15)

    def test_a_two_qubit_unitary_that_is_no_controlled_gate_is_refused(self):
        swap = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
        with pytest.raises(ValueError, match="controlled gate"):
            unitary_superop(np.stack([gate_matrix(GateOp("CNOT", (0, 1))), swap]))

    def test_pauli_vectors_round_trip_and_read_out_z(self):
        rng = np.random.default_rng(62)
        states = _random_states(rng, 3, 4)
        paulis = pauli_vectors(states)
        np.testing.assert_allclose(density_matrices(paulis), states, rtol=0, atol=1e-15)
        # <Z_q> is the coefficient of Z on qubit q: both its bits set
        for q in range(3):
            np.testing.assert_allclose(paulis[:, 1 << q, 1 << q], exp_z_batch(states, q, 3), rtol=0, atol=1e-15)
