"""Encoding layout, PQC templates, noise weaving, and the batched executor."""

import numpy as np
import pytest

from qsteal.circuits import (
    MAX_QUBITS,
    CircuitIR,
    PQCTemplate,
    assemble_circuit,
    build_pqc,
    encode_angles,
    encode_layout,
    encoding_rz_slots,
    final_states,
    pqc_gates_per_layer,
    run_circuit,
    weave_noise,
)
from qsteal.devices import DEV_A, DeviceProfile, IDEAL
from qsteal.gates import GATE_KINDS

from helpers import assert_density_matrix


def _encoding_circuit(features, n_qubits):
    ops = encode_angles(features, n_qubits)
    return CircuitIR(n_qubits=n_qubits, ops=tuple(ops), measured_qubits=tuple(range(n_qubits)),
                     layer_breaks=(len(ops),))


class TestEncoding:
    def test_two_features_per_qubit(self):
        ops = encode_angles(np.arange(8.0), 4)
        assert len(ops) == 16
        kinds = [op.kind for op in ops]
        assert kinds == ["H", "RZ"] * 8
        # qubit-major emission: first four gates act on qubit 0
        assert all(op.qubits == (0,) for op in ops[:4])

    def test_round_robin_blocks(self):
        assert encode_layout(8, 2) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert encode_layout(8, 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert encode_layout(3, 2) == [[0, 1], [2]]
        assert encode_layout(8, 8) == [[i] for i in range(8)]

    def test_rz_slots_align_with_ops(self):
        features = np.linspace(0.1, 2.0, 8)
        ops = encode_angles(features, 4)
        for op_idx, feat_idx in encoding_rz_slots(8, 4):
            assert ops[op_idx].kind == "RZ"
            assert ops[op_idx].angle == features[feat_idx]

    def test_single_feature_per_qubit_zero_input_sits_on_equator(self):
        exps = run_circuit(_encoding_circuit(np.zeros(4), 4))
        np.testing.assert_allclose(exps, np.zeros((1, 4)), atol=1e-12)

    def test_expectation_depends_on_first_feature_only(self):
        # per qubit H RZ(f1) H RZ(f2) gives <Z> = cos(f1); with f = 0 the two
        # H gates cancel and the state returns to the pole
        rng = np.random.default_rng(9)
        features = rng.uniform(0, 2 * np.pi, 8)
        exps = run_circuit(_encoding_circuit(features, 4))[0]
        np.testing.assert_allclose(exps, np.cos(features[::2]), atol=1e-12)
        zero = run_circuit(_encoding_circuit(np.zeros(8), 4))[0]
        np.testing.assert_allclose(zero, np.ones(4), atol=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            encode_angles(np.array([]), 4)
        with pytest.raises(ValueError):
            encode_angles(np.ones(4), 0)


class TestTemplates:
    def test_pqc1_layout(self):
        t = PQCTemplate("PQC1", 4)
        assert t.param_count == 8
        ops = build_pqc(t, np.arange(8.0))
        assert len(ops) == 8
        assert [op.kind for op in ops] == ["RX"] * 4 + ["RZ"] * 4
        assert all(len(op.qubits) == 1 for op in ops)

    def test_pqc19_layout(self):
        t = PQCTemplate("PQC19", 4)
        assert t.param_count == 12
        ops = build_pqc(t, np.arange(12.0))
        assert len(ops) == 12
        assert [op.kind for op in ops[8:]] == ["CRX"] * 4
        assert [op.qubits for op in ops[8:]] == [(3, 0), (2, 3), (1, 2), (0, 1)]

    def test_pqc6_param_count_by_enumeration(self):
        t = PQCTemplate("PQC6", 4)
        assert t.param_count == 28
        ops = build_pqc(t, np.zeros(28))
        crx = [op for op in ops if op.kind == "CRX"]
        assert len(crx) == 12  # all ordered pairs of 4 qubits
        assert len({op.qubits for op in crx}) == 12

    def test_pqc17_staggered_pairs(self):
        t = PQCTemplate("PQC17", 4)
        assert t.param_count == 11
        ops = build_pqc(t, np.zeros(11))
        crx = [op.qubits for op in ops if op.kind == "CRX"]
        assert crx == [(1, 0), (3, 2), (2, 1)]

    @pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_param_count_matches_enumerated_gates(self, tid, n, layers):
        t = PQCTemplate(tid, n, layers)
        ops = build_pqc(t, np.zeros(t.param_count))
        parameterized = [op for op in ops if GATE_KINDS[op.kind][1]]
        assert len(parameterized) == t.param_count

    def test_param_count_mismatch_rejected(self):
        t = PQCTemplate("PQC19", 4)
        with pytest.raises(ValueError, match="12 parameters"):
            build_pqc(t, np.zeros(11))

    def test_build_is_deterministic(self):
        t = PQCTemplate("PQC6", 4, layers=2)
        params = np.linspace(0, 1, t.param_count)
        assert build_pqc(t, params) == build_pqc(t, params)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError, match="unknown template"):
            PQCTemplate("PQC3", 4)

    def test_width_over_the_qubit_cap_rejected(self):
        assert PQCTemplate("PQC1", MAX_QUBITS).n_qubits == 8
        with pytest.raises(ValueError, match="8-qubit cap"):
            PQCTemplate("PQC1", 9)


class TestWeaving:
    def _circuit(self, tid="PQC19", n=4):
        t = PQCTemplate(tid, n)
        rng = np.random.default_rng(1)
        return assemble_circuit(rng.uniform(0, 2 * np.pi, 2 * n), t, rng.uniform(0, 2 * np.pi, t.param_count))

    def test_zero_noise_profile_matches_bare_circuit(self):
        circuit = self._circuit()
        woven = weave_noise(circuit, IDEAL)
        assert woven.noise_points  # structure present, all identity
        assert not woven.has_noise
        np.testing.assert_allclose(run_circuit(circuit), run_circuit(woven), atol=1e-12)

    def test_pqc1_gets_no_two_qubit_noise(self):
        circuit = self._circuit("PQC1")
        woven = weave_noise(circuit, DEV_A)
        assert all(p.channel.name != "Depolarizing2Q" for p in woven.noise_points)

    def test_pqc6_accumulates_more_channels_than_pqc1(self):
        c1 = weave_noise(self._circuit("PQC1"), DEV_A)
        c6 = weave_noise(self._circuit("PQC6"), DEV_A)
        assert len(c6.noise_points) > len(c1.noise_points)

    def test_channel_counts_by_enumeration(self):
        circuit = self._circuit("PQC19", 4)
        woven = weave_noise(circuit, DEV_A)
        # 16 encoding gates + 12 PQC gates, 4 of which are CRX
        dep1 = [p for p in woven.noise_points if p.channel.name == "Depolarizing"]
        dep2 = [p for p in woven.noise_points if p.channel.name == "Depolarizing2Q"]
        layer = [p for p in woven.noise_points if p.channel.name in ("AmplitudeDamping", "PhaseFlip", "BitFlip")]
        assert len(dep1) == 16 + 8
        assert len(dep2) == 4
        assert len(layer) == 2 * 3 * 4  # two layer breaks, three channel kinds, four qubits

    def test_double_weave_rejected(self):
        woven = weave_noise(self._circuit(), DEV_A)
        with pytest.raises(ValueError, match="already"):
            weave_noise(woven, DEV_A)

    def test_readout_attached(self):
        woven = weave_noise(self._circuit(), DEV_A)
        assert woven.readout is not None
        np.testing.assert_allclose(woven.readout.matrix(0), [[0.97, 0.03], [0.05, 0.95]])


class TestExecutor:
    def test_statevector_and_density_paths_agree(self):
        rng = np.random.default_rng(77)
        t = PQCTemplate("PQC6", 3)
        circuit = assemble_circuit(
            rng.uniform(0, 2 * np.pi, 6), t, rng.uniform(0, 2 * np.pi, t.param_count)
        )
        assert not circuit.has_noise
        fast = run_circuit(circuit)  # statevector route
        states = final_states(circuit)  # density route
        from qsteal.density import exp_z_batch

        slow = np.stack([exp_z_batch(states, q, 3) for q in circuit.measured_qubits], axis=1)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_angle_overrides_batch(self):
        t = PQCTemplate("PQC1", 2)
        rng = np.random.default_rng(5)
        params = rng.uniform(0, 2 * np.pi, t.param_count)
        base_features = np.zeros(4)
        circuit = assemble_circuit(base_features, t, params)
        batch = rng.uniform(0, 2 * np.pi, (6, 4))
        overrides = {
            op_idx: batch[:, feat_idx] for op_idx, feat_idx in encoding_rz_slots(4, 2)
        }
        batched = run_circuit(circuit, overrides)
        for i in range(6):
            single = run_circuit(assemble_circuit(batch[i], t, params))
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12)

    def test_noisy_execution_preserves_density_invariants(self):
        rng = np.random.default_rng(13)
        t = PQCTemplate("PQC19", 4)
        circuit = assemble_circuit(
            rng.uniform(0, 2 * np.pi, 8), t, rng.uniform(0, 2 * np.pi, t.param_count)
        )
        woven = weave_noise(circuit, DEV_A)
        assert_density_matrix(final_states(woven)[0])

    def test_noisy_expectations_differ_from_ideal(self):
        rng = np.random.default_rng(14)
        t = PQCTemplate("PQC19", 4)
        circuit = assemble_circuit(
            rng.uniform(0, 2 * np.pi, 8), t, rng.uniform(0, 2 * np.pi, t.param_count)
        )
        loud = DeviceProfile(name="loud", p1=0.05, p2=0.1, gamma=0.05, p_phase=0.05, p_bit=0.05)
        ideal_exps = run_circuit(circuit)
        noisy_exps = run_circuit(weave_noise(circuit, loud))
        assert np.max(np.abs(ideal_exps - noisy_exps)) > 1e-3
