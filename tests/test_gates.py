"""Gate matrices, conventions, and GateOp validation."""

import numpy as np
import pytest

from qsteal import gates
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
        for kind in ("RX", "RY", "RZ"):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            np.testing.assert_allclose(
                rotation_batch(kind, a) @ rotation_batch(kind, b), rotation_batch(kind, a + b),
                atol=1e-12,
            )

    def test_sx_squares_to_x(self):
        np.testing.assert_allclose(gates.SX @ gates.SX, gates.X, atol=1e-14)

    def test_cnot_control_is_high_bit(self):
        # |10> (control=1, target=0) -> |11>
        cnot = gate_matrix(GateOp("CNOT", (1, 0)))
        vec = np.zeros(4)
        vec[0b10] = 1.0
        out = cnot @ vec
        assert abs(out[0b11] - 1.0) < 1e-15

    def test_crx_reduces_to_identity_on_control_zero(self):
        crx = gate_matrix(GateOp("CRX", (0, 1), 1.3))
        np.testing.assert_allclose(crx[:2, :2], np.eye(2), atol=1e-15)


PARAMETERIZED = [kind for kind, (_, parameterized) in GATE_KINDS.items() if parameterized]
FIXED = [kind for kind, (_, parameterized) in GATE_KINDS.items() if not parameterized]


class TestRotationBatch:
    def test_covers_every_parameterized_kind(self):
        assert set(PARAMETERIZED) == {"RX", "RY", "RZ", "CRX", "CRZ"}

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

    def test_controlled_kinds_embed_their_rotation(self):
        for kind, base in (("CRX", "RX"), ("CRZ", "RZ")):
            mat = rotation_batch(kind, 0.9)
            np.testing.assert_array_equal(mat[:2, :2], np.eye(2))
            np.testing.assert_array_equal(mat[:2, 2:], np.zeros((2, 2)))
            np.testing.assert_array_equal(mat[2:, 2:], rotation_batch(base, 0.9))


class TestGateOpValidation:
    def test_missing_angle(self):
        with pytest.raises(ValueError, match="requires an angle"):
            GateOp("RX", (0,))

    def test_unexpected_angle(self):
        with pytest.raises(ValueError, match="takes no angle"):
            GateOp("H", (0,), 0.5)

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="distinct"):
            GateOp("CNOT", (1, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="qubit"):
            GateOp("CZ", (0,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateOp("SWAP", (0, 1))

    def test_out_of_range_index(self):
        op = GateOp("X", (3,))
        with pytest.raises(ValueError, match="out of range"):
            gates.validate_gate(op, 2)
