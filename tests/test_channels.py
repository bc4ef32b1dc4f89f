"""Kraus channel construction, completeness, and known fixed points."""

import numpy as np
import pytest

from qsteal import channels
from qsteal.channels import (
    ReadoutConfusion,
    KrausChannel,
    amplitude_damping,
    bit_flip,
    depolarizing,
    depolarizing_2q,
    phase_flip,
)


BUILDERS = (bit_flip, phase_flip, depolarizing, amplitude_damping)


def _apply(channel, rho):
    return sum(k @ rho @ k.conj().T for k in channel.operators)


class TestCompleteness:
    def test_all_types_over_random_rates(self):
        rng = np.random.default_rng(11)
        for build in BUILDERS:
            for p in rng.uniform(0, 1, 50):
                ch = build(float(p))
                total = sum(k.conj().T @ k for k in ch.operators)
                np.testing.assert_allclose(
                    total, np.eye(2), atol=1e-10, err_msg=f"{build.__name__} p={p}"
                )

    def test_two_qubit_depolarizing(self):
        rng = np.random.default_rng(12)
        for p in rng.uniform(0, 1, 50):
            ch = depolarizing_2q(float(p))
            assert len(ch.operators) == 16
            total = sum(k.conj().T @ k for k in ch.operators)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-10)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            bit_flip(1.5)

    def test_non_trace_preserving_rejected(self):
        bad = (np.eye(2) * 0.9,)
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel("Broken", 0.1, bad)


class TestKnownActions:
    def test_depolarizing_full_strength_is_maximally_mixed(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = _apply(depolarizing(1.0), rho)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_full_decay(self):
        one = np.diag([0.0, 1.0]).astype(complex)
        out = _apply(amplitude_damping(1.0), one)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_bit_flip_half_mixes_zero_state(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        out = _apply(bit_flip(0.5), zero)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5])
    def test_phase_flip_shrinks_coherence(self, p):
        # explicit 2x2 algebra: E(|+><+|) = (1-p)|+><+| + p Z|+><+|Z, so <X> = 1-2p
        plus = np.full((2, 2), 0.5, dtype=complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        out = _apply(phase_flip(p), plus)
        expected = (1 - p) * plus + p * z @ plus @ z
        np.testing.assert_allclose(out, expected, atol=1e-14)
        assert abs(np.trace(x @ out).real - (1 - 2 * p)) < 1e-12

    def test_zero_rate_channels_flagged_identity(self):
        for build in BUILDERS:
            assert build(0.0).is_identity
            assert not build(0.3).is_identity


class TestReadoutConfusion:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ReadoutConfusion((np.array([[0.9, 0.2], [0.1, 0.9]]),))

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            ReadoutConfusion((np.array([[1.2, -0.2], [0.0, 1.0]]),))

    def test_identity_and_broadcast(self):
        ident = ReadoutConfusion.identity(3)
        assert len(ident.matrices) == 3 and all(np.array_equal(ident.matrix(q), np.eye(2)) for q in range(3))
        m = np.array([[0.97, 0.03], [0.05, 0.95]])
        conf = ReadoutConfusion.broadcast(m, 4)
        assert len(conf.matrices) == 4
        for q in range(4):
            np.testing.assert_array_equal(conf.matrix(q), m)
