"""Gate matrices, conventions, and GateOp validation."""

import numpy as np
import pytest

from qsteal.circuits import TEMPLATE_IDS, CircuitIR, PQCTemplate, build_pqc, encode_angles
from qsteal.gates import GATE_KINDS, GateOp, gate_matrix, rotation_batch


def _random_op(kind, rng):
    arity, parameterized = GATE_KINDS[kind]
    qubits = tuple(range(arity))
    angle = float(rng.uniform(0, 2 * np.pi)) if parameterized else None
    return GateOp(kind, qubits, angle)


class TestGateMatrices:
    def test_every_kind_is_unitary(self):
        rng = np.random.default_rng(3)
        for kind in GATE_KINDS:
            for _ in range(5):
                mat = gate_matrix(_random_op(kind, rng))
                np.testing.assert_allclose(
                    mat.conj().T @ mat, np.eye(mat.shape[0]), atol=1e-12,
                    err_msg=f"{kind} is not unitary",
                )

    def test_rz_convention(self):
        theta = 0.7
        expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        np.testing.assert_allclose(rotation_batch("RZ", theta), expected, atol=1e-15)

    def test_rotation_addition(self):
        rng = np.random.default_rng(5)
        for kind in ("RX", "RZ"):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            np.testing.assert_allclose(
                rotation_batch(kind, a) @ rotation_batch(kind, b), rotation_batch(kind, a + b),
                atol=1e-12,
            )

    def test_crx_control_is_high_bit(self):
        # CRX(pi) flips the target up to a phase: |10> (control=1, target=0) -> -i|11>
        crx = gate_matrix(GateOp("CRX", (1, 0), np.pi))
        vec = np.zeros(4)
        vec[0b10] = 1.0
        out = crx @ vec
        assert abs(out[0b11] + 1j) < 1e-15

    def test_crx_reduces_to_identity_on_control_zero(self):
        crx = gate_matrix(GateOp("CRX", (0, 1), 1.3))
        np.testing.assert_allclose(crx[:2, :2], np.eye(2), atol=1e-15)


PARAMETERIZED = [kind for kind, (_, parameterized) in GATE_KINDS.items() if parameterized]
FIXED = [kind for kind, (_, parameterized) in GATE_KINDS.items() if not parameterized]
#: kinds the gate set no longer has; each must be refused, never built
REMOVED = ["X", "SX", "RY", "CNOT", "CZ", "CRZ"]


class TestRotationBatch:
    def test_covers_every_parameterized_kind(self):
        assert set(PARAMETERIZED) == {"RX", "RZ", "CRX"}

    @pytest.mark.parametrize("kind", PARAMETERIZED)
    def test_rows_equal_matrices_built_alone(self, kind):
        angles = np.random.default_rng(6).uniform(-2 * np.pi, 2 * np.pi, 7)
        stack = rotation_batch(kind, angles)
        dim = 2 ** GATE_KINDS[kind][0]
        assert stack.shape == (7, dim, dim)
        for angle, row in zip(angles, stack):
            alone = rotation_batch(kind, angle)
            assert alone.shape == (dim, dim)
            np.testing.assert_array_equal(row, alone)
            op = GateOp(kind, tuple(range(GATE_KINDS[kind][0])), float(angle))
            np.testing.assert_array_equal(gate_matrix(op), alone)

    @pytest.mark.parametrize("kind", FIXED)
    def test_fixed_kind_raises(self, kind):
        with pytest.raises(ValueError, match="not a parameterized gate"):
            rotation_batch(kind, 0.3)

    @pytest.mark.parametrize("kind", REMOVED)
    def test_removed_kind_raises(self, kind):
        with pytest.raises(ValueError, match="not a parameterized gate"):
            rotation_batch(kind, 0.3)

    def test_controlled_kinds_embed_their_rotation(self):
        mat = rotation_batch("CRX", 0.9)
        np.testing.assert_array_equal(mat[:2, :2], np.eye(2))
        np.testing.assert_array_equal(mat[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(mat[2:, 2:], rotation_batch("RX", 0.9))


class TestVocabulary:
    def test_every_kind_is_emitted_by_the_encoding_or_a_template(self):
        # a kind no circuit the program builds uses is dead vocabulary
        emitted = {op.kind for op in encode_angles(np.zeros(4), 2)}
        for tid in TEMPLATE_IDS:
            template = PQCTemplate(tid, 3)
            emitted |= {op.kind for op in build_pqc(template, np.zeros(template.param_count))}
        assert emitted == set(GATE_KINDS)


class TestGateOpValidation:
    def test_missing_angle(self):
        with pytest.raises(ValueError, match="requires an angle"):
            GateOp("RX", (0,))

    def test_unexpected_angle(self):
        with pytest.raises(ValueError, match="takes no angle"):
            GateOp("H", (0,), 0.5)

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="distinct"):
            GateOp("CRX", (1, 1), 0.4)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="qubit"):
            GateOp("CRX", (0,), 0.4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateOp("SWAP", (0, 1))

    @pytest.mark.parametrize("kind", REMOVED)
    def test_removed_kind_is_unknown(self, kind):
        arity = 2 if kind in ("CNOT", "CZ", "CRZ") else 1
        with pytest.raises(ValueError, match=f"unknown gate kind '{kind}'"):
            GateOp(kind, tuple(range(arity)), 0.3 if kind in ("RY", "CRZ") else None)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="H qubit index 3 out of range for 2 qubits"):
            CircuitIR(n_qubits=2, ops=(GateOp("H", (3,)),))
