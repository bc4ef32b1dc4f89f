"""Encoding layout, PQC templates, noise weaving, and the batched executor."""

import numpy as np
import pytest

from qsteal.channels import KrausChannel, amplitude_damping, bit_flip, depolarizing_2q, phase_flip
from qsteal.circuits import (
    MAX_QUBITS,
    CircuitIR,
    NoisePoint,
    PQCTemplate,
    assemble_circuit,
    build_pqc,
    compile_prefix,
    encode_angles,
    encode_layout,
    final_states,
    TEMPLATE_IDS,
    pulled_back,
    rotation_basis,
    rotation_stack,
    rotation_weights,
    run_circuit,
    run_prefix,
    weave_noise,
)
from qsteal.devices import DEV_A, DEV_B, DeviceProfile, IDEAL
from qsteal.density import unitary_superop
from qsteal.gates import GATE_KINDS, GateOp, gate_matrix, rotation_batch

from helpers import (
    assert_density_matrix,
    embed_full,
    exp_z_batch,
    per_step_matrices,
    per_step_prefix,
    superop,
    to_ptm,
    unfused_states,
)


def _rz_slots(d):
    """(op index, feature index) of each encoding RZ: features go to qubits
    in consecutive blocks, each as H then RZ, so feature f sits at 2f + 1."""
    return [(2 * f + 1, f) for f in range(d)]


def _encoding_circuit(features, n_qubits):
    ops = encode_angles(features, n_qubits)
    return CircuitIR(n_qubits=n_qubits, ops=tuple(ops), layer_breaks=(len(ops),))


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
        for op_idx, feat_idx in _rz_slots(8):
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


class TestNoisePointValidation:
    @pytest.mark.parametrize(
        "point, message",
        [(NoisePoint(2, bit_flip(0.1), (0,)), "after_op out of range for 2 ops"),
         (NoisePoint(-1, bit_flip(0.1), (0,)), "after_op out of range"),
         (NoisePoint(0, bit_flip(0.1), (2,)), "qubit 2 out of range for 2 qubits"),
         (NoisePoint(0, bit_flip(0.1), (-1,)), "qubit -1 out of range"),
         (NoisePoint(1, depolarizing_2q(0.1), (1, 1)), "qubits must be distinct"),
         (NoisePoint(0, bit_flip(0.1), (0, 1)), "acts on 1 qubit"),
         (NoisePoint(1, depolarizing_2q(0.1), (0,)), "acts on 2 qubit")],
        ids=["after-end", "after-negative", "qubit-high", "qubit-negative", "repeated", "arity-1q", "arity-2q"],
    )
    def test_bad_point_names_itself(self, point, message):
        ops = (GateOp("H", (0,)), GateOp("CRX", (0, 1), 0.5))
        good = NoisePoint(0, bit_flip(0.2), (0,))
        with pytest.raises(ValueError, match=rf"noise point 1 \({point.channel.name} after op {point.after_op}\): {message}"):
            CircuitIR(n_qubits=2, ops=ops, noise_points=(good, point))


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
        slow = np.stack([exp_z_batch(states, q, 3) for q in range(3)], axis=1)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_angle_overrides_batch(self):
        t = PQCTemplate("PQC1", 2)
        rng = np.random.default_rng(5)
        params = rng.uniform(0, 2 * np.pi, t.param_count)
        base_features = np.zeros(4)
        circuit = assemble_circuit(base_features, t, params)
        batch = rng.uniform(0, 2 * np.pi, (6, 4))
        overrides = {
            op_idx: batch[:, feat_idx] for op_idx, feat_idx in _rz_slots(4)
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


def _model_circuit(tid, n, profile, b, n_probes=1, seed=0, layers=1):
    """A woven model circuit with per-sample encoding angles for b samples
    and, with several probes, per-probe (P, 1) PQC angles: a probes x
    samples grid."""
    rng = np.random.default_rng(seed)
    t = PQCTemplate(tid, n, layers)
    circuit = assemble_circuit(np.zeros(8), t, np.zeros(t.param_count))
    if profile is not None:
        circuit = weave_noise(circuit, profile)
    overrides = {op: rng.uniform(0, 2 * np.pi, b) for op, _ in _rz_slots(8)}
    thetas = rng.uniform(0, 2 * np.pi, (n_probes, t.param_count))
    slots = [i for i, op in enumerate(circuit.ops) if op.angle is not None and i >= 16]
    for j, op in enumerate(slots):
        overrides[op] = thetas[0, j] if n_probes == 1 else thetas[:, j, None]
    return circuit, overrides


def _flat(overrides, n_probes, b):
    """The grid's overrides as P * B probe-major rows: samples tiled, probes repeated."""
    flat = {}
    for op, v in overrides.items():
        v = np.asarray(v)
        if v.ndim == 0:
            flat[op] = v
        elif v.ndim == 1:
            flat[op] = np.tile(v, n_probes)
        else:
            flat[op] = np.broadcast_to(v, (n_probes, b)).ravel()
    return flat


def _z(states, circuit):
    return np.stack([exp_z_batch(states, q, circuit.n_qubits) for q in range(circuit.n_qubits)], axis=1)


def _unfused_reference(circuit, overrides):
    """<Z> per qubit from density matrices evolved gate by gate and
    channel by channel, without the circuit's compiled plan."""
    return _z(unfused_states(circuit, overrides), circuit)


class TestPictures:
    @pytest.mark.parametrize("tid, n", [(t, n) for t in ("PQC1", "PQC6", "PQC17", "PQC19") for n in range(2, 7)])
    def test_run_circuit_matches_evolved_density_matrices(self, tid, n):
        for profile in (None, IDEAL, DEV_A, DEV_B):
            for b in (1, 2, 7, 32):
                circuit, overrides = _model_circuit(tid, n, profile, b, seed=n * b)
                got = run_circuit(circuit, overrides)
                np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [1, 2, 3, 7])
    def test_probe_rows_match_evolved_density_matrices(self, b):
        # 5 probes x b rows: Schroedinger group by group for b <= 3 qubits, pulled back above
        circuit, overrides = _model_circuit("PQC19", 3, DEV_A, b, n_probes=5, seed=b)
        got = run_circuit(circuit, overrides)
        np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tid, n, profile, n_probes, b, pulled", [
        # mixed: G groups of m = 4 pulled-back Z_q against P * B rows
        ("PQC19", 4, DEV_A, 1, 1, False), ("PQC19", 4, DEV_A, 1, 4, False), ("PQC19", 4, DEV_A, 1, 5, True),
        ("PQC19", 4, DEV_A, 3, 4, False), ("PQC19", 4, DEV_A, 3, 5, True), ("PQC19", 4, DEV_A, 16, 32, True),
        # PQC1 has no step after its prefix, so its G counts the groups of the probes' rotations, the lead
        ("PQC1", 4, DEV_A, 16, 2, False), ("PQC1", 4, DEV_A, 16, 32, True),
        # pure: G groups of 2^n pulled-back basis vectors against P * B rows
        ("PQC19", 4, None, 16, 16, False), ("PQC19", 4, None, 16, 17, True), ("PQC19", 4, None, 16, 32, True),
        ("PQC19", 6, None, 16, 32, False), ("PQC19", 8, None, 1, 300, True),
    ])
    def test_pulled_back_picture_only_when_groups_times_width_are_fewer_than_rows(self, monkeypatch, tid, n, profile,
                                                                                  n_probes, b, pulled):
        used = _spy(monkeypatch, "_pulled_back_picture")
        circuit, overrides = _model_circuit(tid, n, profile, b, n_probes=n_probes)
        got = run_circuit(circuit, overrides)
        assert bool(used) == pulled
        if tid == "PQC1":
            np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)

    def test_single_row_stays_on_the_evolved_states_bitwise(self):
        # Schroedinger reads each row's Z_q coefficients off its evolved Pauli vector: both bits of qubit q set
        from qsteal.circuits import _evolve

        circuit, overrides = _model_circuit("PQC19", 4, DEV_A, 1)
        z = [1 << q for q in range(circuit.n_qubits)]
        assert run_circuit(circuit, overrides).tobytes() == _evolve(circuit, overrides, 1)[:, z, z].tobytes()

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    def test_schroedinger_rows_read_out_alone_and_near_the_per_qubit_readout(self, monkeypatch, tid):
        # each row's result is what it is alone; against one (rows, 2^n) @ (2^n,) product per
        # qubit, the readout this one replaced, the drift stays within 1e-12
        pulled, used = _spy(monkeypatch, "_pulled_back_picture"), set()
        for n in range(2 if tid != "PQC1" else 1, 6):
            for profile in (DEV_A, DEV_B):
                for n_probes, b in ((1, 1), (1, 3), (3, 2)):
                    circuit, overrides = _model_circuit(tid, n, profile, b, n_probes, seed=n + b)
                    got = run_circuit(circuit, overrides)
                    if pulled:
                        pulled.clear()
                        continue
                    probs = np.einsum("bii->bi", final_states(circuit, overrides)).real
                    old = np.stack([probs @ signs for signs in circuit.z_signs], axis=1)
                    np.testing.assert_allclose(got, old, rtol=0, atol=1e-12)
                    last = _sub_grid(overrides, [n_probes - 1], [b - 1])
                    assert got[-1].tobytes() == run_circuit(circuit, last)[0].tobytes()
                    used.add((n, n_probes * b))
        assert len(used) >= 8

    def test_wide_channel_ends_the_product_prefix(self):
        # a 2-qubit channel after a 1-qubit gate keeps the gate out of the prefix
        ops = (GateOp("H", (0,)), GateOp("RX", (1,), 0.3), GateOp("RZ", (0,), 0.0))
        points = (NoisePoint(0, depolarizing_2q(0.2), (0, 1)), NoisePoint(2, bit_flip(0.1), (0,)))
        circuit = CircuitIR(n_qubits=2, ops=ops, noise_points=points)
        overrides = {2: np.linspace(0, 3, 9)}
        np.testing.assert_allclose(run_circuit(circuit, overrides), _unfused_reference(circuit, overrides),
                                   rtol=0, atol=1e-12)


def _sub_grid(overrides, probes, samples):
    """The overrides of a probes x samples grid cut down to the listed
    probes and samples, laid out as run_circuit lays out the full grid."""
    cut = {}
    for op, v in overrides.items():
        v = np.asarray(v)
        cut[op] = v if v.ndim == 0 else v[samples] if v.ndim == 1 else v[probes]
    return cut


def _spy(monkeypatch, name):
    """Record the arguments of each call to a circuits function."""
    import qsteal.circuits as circuits_mod

    calls = []
    original = getattr(circuits_mod, name)
    monkeypatch.setattr(circuits_mod, name, lambda *a: calls.append(a) or original(*a))
    return calls


def _results(monkeypatch, name):
    """Record the shape of each result of a circuits function."""
    import qsteal.circuits as circuits_mod

    shapes = []
    original = getattr(circuits_mod, name)

    def recorded(*args):
        out = original(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(circuits_mod, name, recorded)
    return shapes


#: grids whose head varies by probe: a per-row feature angle, with per-probe or shared later angles, or a
#: per-probe angle on a qubit's first feature gate before a per-sample one on the same qubit
_PROBE_VARYING_HEADS = ["per_row_features", "per_row_features_shared_rest", "probe_before_sample"]


def _probe_varying_head(case, profile, b):
    """PQC19x3 on 4 probes x b samples with one of _PROBE_VARYING_HEADS."""
    circuit, overrides = _model_circuit("PQC19", 3, profile, b, n_probes=4, seed=11)
    rng = np.random.default_rng(12)
    first = min(op for op, v in overrides.items() if np.ndim(v) == 1)
    if case.startswith("per_row_features"):
        overrides[first] = rng.uniform(0, 2 * np.pi, (4, b))
    if case == "per_row_features_shared_rest":
        overrides = {op: v[0, 0] if np.ndim(v) == 2 and np.shape(v)[1] == 1 else v for op, v in overrides.items()}
    if case == "probe_before_sample":
        overrides[first] = rng.uniform(0, 2 * np.pi, (4, 1))
    return circuit, overrides


class TestSplit:
    """The noisy pulled-back picture: each qubit's prefix splits where its
    per-sample steps end; the head runs on the samples, the per-probe rest
    folds into the pulled-back observables."""

    @pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_split_matches_evolved_and_unfused_states(self, tid, n):
        # at d = 8, widths 5-7 leave 1-3 qubits without a feature
        for layers in (1, 2):
            for profile in (DEV_A, DEV_B):
                for n_probes, b in ((2, 1), (2, 5), (16, 3), (16, 32)):
                    circuit, overrides = _model_circuit(tid, n, profile, b, n_probes, seed=n + b, layers=layers)
                    got = run_circuit(circuit, overrides)
                    np.testing.assert_array_equal(got, run_circuit(circuit, overrides))
                    probes, samples = [0, n_probes - 1], [0, b - 1]
                    rows = [p * b + s for p in probes for s in samples]
                    cut = _sub_grid(overrides, probes, samples)
                    np.testing.assert_allclose(got[rows], _z(final_states(circuit, cut), circuit), rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got[rows], _unfused_reference(circuit, cut), rtol=0, atol=1e-12)

    def test_separable_head_builds_product_states_for_the_samples_only(self, monkeypatch):
        contracted = _spy(monkeypatch, "contract_rows")
        circuit, overrides = _model_circuit("PQC19", 4, DEV_A, 32, n_probes=16)
        run_circuit(circuit, overrides)
        assert [bloch.shape for bloch, _, _ in contracted] == [(4, 32, 4)]
        assert [rows.size for _, rows, _ in contracted] == [32]
        # one contraction against every probe's pulled-back Z_q
        assert [obs.shape for _, _, obs in contracted] == [(16 * 4, 4**4)]

    def test_a_lead_that_would_outnumber_the_rows_evolves_every_row(self, monkeypatch):
        # PQC1 has no step after its prefix: its 16 probes' rotations would pull back 16 * 4 observables
        # for 16 * 2 rows, so that grid takes the Schroedinger picture; at 16 * 5 rows they are pulled back
        pulled, contracted = _spy(monkeypatch, "_pulled_back_picture"), _spy(monkeypatch, "contract_rows")
        circuit, overrides = _model_circuit("PQC1", 4, DEV_A, 2, n_probes=16, seed=3)
        got = run_circuit(circuit, overrides)
        assert not pulled and not contracted
        np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)
        assert got.tobytes() == run_circuit(circuit, overrides).tobytes()
        circuit, overrides = _model_circuit("PQC1", 4, DEV_A, 5, n_probes=16, seed=3)
        np.testing.assert_allclose(run_circuit(circuit, overrides), _unfused_reference(circuit, overrides),
                                   rtol=0, atol=1e-12)
        assert [(factors[0].shape[0], obs.shape[0]) for factors, _, obs in contracted] == [(5, 64)]

    @pytest.mark.parametrize("n_probes, b", [(3, 10), (2, 32)])
    def test_pull_back_holds_at_most_one_groups_rows_at_eight_qubits(self, monkeypatch, n_probes, b):
        shapes = _results(monkeypatch, "pulled_back")
        circuit, overrides = _model_circuit("PQC19", MAX_QUBITS, DEV_A, b, n_probes=n_probes, seed=b)
        got = run_circuit(circuit, overrides)
        # the Schroedinger picture of one group holds its b rows' density matrices
        assert shapes and all(shape[0] <= b and shape[1] == 4**MAX_QUBITS for shape in shapes)
        assert sum(shape[0] for shape in shapes) == n_probes * MAX_QUBITS
        cut = _sub_grid(overrides, [n_probes - 1], [b - 1])
        np.testing.assert_allclose(got[-1:], _z(final_states(circuit, cut), circuit), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", _PROBE_VARYING_HEADS)
    def test_a_head_that_varies_by_probe_evolves_every_row(self, monkeypatch, case):
        # the pulled-back picture takes no such grid: every row's Pauli vector runs the whole plan
        pulled = _spy(monkeypatch, "_pulled_back_picture")
        circuit, overrides = _probe_varying_head(case, DEV_B, 6)
        got = run_circuit(circuit, overrides)
        assert not pulled
        np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)
        assert got.tobytes() == run_circuit(circuit, overrides).tobytes()


#: the (probes, samples) grids of TestSplit, then those of TestGrid
_PURE_GRIDS = ((2, 1), (2, 5), (16, 3), (16, 32), (1, 1), (1, 6), (5, 1), (4, 6), (3, 9))


def _kernel_calls(monkeypatch):
    """Record each statevector kernel call of a noise-free circuit: the
    shape of the stack and the shape of each step's operator."""
    import qsteal.density as density_mod

    calls = []
    original = density_mod.apply_unitary_vec

    def recorded(vecs, steps, n, *groups):
        calls.append((vecs.shape, [op.shape for op, _ in steps]))
        return original(vecs, steps, n, *groups)

    monkeypatch.setattr(density_mod, "apply_unitary_vec", recorded)
    return calls


class TestUnitaryPicture:
    """Noise-free circuits: where the groups of rows with equal angles after
    the head pull back fewer basis vectors than there are rows, the head
    runs on the samples and each group's pulled-back basis rows meet them
    in one product; else each later gate is applied to every row."""

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_matches_evolved_states(self, tid, n):
        for layers in (1, 2):
            for n_probes, b in _PURE_GRIDS:
                circuit, overrides = _model_circuit(tid, n, None, b, n_probes, seed=n + b, layers=layers)
                got = run_circuit(circuit, overrides)
                assert got.shape == (n_probes * b, n)
                np.testing.assert_array_equal(got, run_circuit(circuit, overrides))
                # `ideal` weaves only identity channels: the same plan, the same bits
                ideal, _ = _model_circuit(tid, n, IDEAL, b, n_probes, seed=n + b, layers=layers)
                np.testing.assert_array_equal(run_circuit(ideal, overrides), got)
                probes, samples = sorted({0, n_probes - 1}), sorted({0, b - 1})
                rows = [p * b + s for p in probes for s in samples]
                cut = _sub_grid(overrides, probes, samples)
                np.testing.assert_allclose(got[rows], _z(final_states(circuit, cut), circuit), rtol=0, atol=1e-12)

    def test_pulled_back_basis_rows_are_the_adjoint_of_the_lead_and_the_rest(self):
        from qsteal.circuits import _Grid, _split

        circuit, overrides = _model_circuit("PQC6", 3, None, 40, n_probes=3, seed=4)
        grid = _Grid.of(overrides)
        _, lead, ops = _split(circuit, grid, 8)
        g, angles = grid.groups(ops)
        assert g == 3 and len(lead) == 6 and all(after is None for _, _, after in lead)
        y = pulled_back(circuit, angles, lead)
        assert y.shape == (3 * 8, 8)
        ops = [i for i, _, _ in lead] + [i for i, _, _ in circuit.plan[1]]
        for k in range(3):
            u = np.eye(8)
            for i in ops:
                op = circuit.ops[i]
                mat = rotation_batch(op.kind, np.broadcast_to(angles[i], (3,))[k]) if i in angles else None
                u = embed_full(mat if mat is not None else rotation_batch(op.kind, op.angle), op.qubits, 3) @ u
            # row j is U^dag e_j: column j of U^dag, so the rows form conj(U)
            np.testing.assert_allclose(y[8 * k : 8 * (k + 1)], u.conj(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_group_pulls_back_its_basis_rows_in_one_product_per_step(self, monkeypatch, tid, n):
        # every angle after the prefix shared: one group, whose 2^n basis rows run each step in one GEMM;
        # against each row run as a group of its own, the rows agree byte for byte at PQC19x4, the served
        # shape, and to rounding elsewhere (PQC6 at 2-3 qubits and PQC19x3 differ in last bits)
        import qsteal.density as density_mod
        from qsteal.circuits import _rest

        circuit, overrides = _model_circuit(tid, n, None, 1, seed=n)
        pinned = {i: a for i, a in overrides.items() if np.ndim(a) == 0}
        calls = _kernel_calls(monkeypatch)
        original = density_mod.apply_unitary_vec
        groups = []
        monkeypatch.setattr(density_mod, "apply_unitary_vec", lambda *a: groups.append(a[3:]) or original(*a))
        got = pulled_back(circuit, pinned)
        assert groups == [(1,)] and len(calls) == 1
        monkeypatch.undo()
        steps = [(op.conj().swapaxes(-1, -2), qubits) for op, qubits in reversed(_rest(circuit, pinned, ()))]
        alone = density_mod.apply_unitary_vec(np.eye(2**n, dtype=np.complex128), steps, n)
        np.testing.assert_allclose(got, alone, rtol=0, atol=1e-15)
        if (tid, n) == ("PQC19", 4):
            assert got.tobytes() == alone.tobytes()

    def test_samples_meet_each_probes_pulled_back_rows_in_one_product(self, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        pulled = _spy(monkeypatch, "pulled_back")
        met = _spy(monkeypatch, "meet")
        circuit, overrides = _model_circuit("PQC19", 4, None, 32, n_probes=16)
        got = run_circuit(circuit, overrides)
        # the 4 CRX of the ring act on 16 probes' 16 basis vectors each, not on 512 rows
        assert calls == [((16 * 16, 16), [(16, 4, 4)] * 4)]
        assert len(pulled) == 1
        assert [(rows.size, obs.shape) for _, _, rows, obs in met] == [(32, (16 * 16, 16))]
        cut = _sub_grid(overrides, [3, 15], [0, 31])
        np.testing.assert_allclose(got[[3 * 32, 3 * 32 + 31, 15 * 32, 511]], _z(final_states(circuit, cut), circuit),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tid, n, b", [("PQC19", 6, 32), ("PQC19", 8, 32), ("PQC17", 5, 32), ("PQC19", 4, 16),
                                           ("PQC19", 4, 1)])
    def test_groups_with_as_many_columns_as_rows_keep_the_state_picture(self, monkeypatch, tid, n, b):
        # 16 groups of 2^n basis vectors against 16 * b rows: PQC19x6 and x8 at B = 32, a final batch of 16 at 4 qubits
        calls = _kernel_calls(monkeypatch)
        pulled = _spy(monkeypatch, "pulled_back")
        circuit, overrides = _model_circuit(tid, n, None, b, n_probes=16, seed=n)
        run_circuit(circuit, overrides)
        assert not pulled
        # one kernel call runs every later gate on the 16 * b rows, one matrix per probe
        [(stack, ops)] = calls
        assert stack == (16 * b, 2**n)
        assert len(ops) == len(circuit.plan[1]) and {op[0] for op in ops} == {16}

    @pytest.mark.parametrize("n, b", [(4, 16), (6, 64), (3, 5)])
    def test_shared_later_angles_run_the_state_picture_as_one_group(self, monkeypatch, n, b):
        # one probe: every angle after the prefix is shared, so the rows form one group and each later
        # gate is one product over all of them; a noisy Schroedinger call takes the default grouping, each
        # row its own group, and a noisy pull-back its group count
        import qsteal.density as density_mod

        groups = {}
        for name in ("apply_unitary_vec", "apply_superop_batch"):
            original = getattr(density_mod, name)
            monkeypatch.setattr(density_mod, name, lambda *a, _name=name, _original=original:
                                groups.setdefault(_name, []).append(a[3:]) or _original(*a))
        pulled = _spy(monkeypatch, "pulled_back")
        circuit, overrides = _model_circuit("PQC19", n, None, b, seed=n)
        got = run_circuit(circuit, overrides)
        assert not pulled and groups == {"apply_unitary_vec": [(1,)]}
        np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)
        groups.clear()
        for n_probes, rows in ((1, 1), (16, 32)):  # Schroedinger; pulled back
            run_circuit(*_model_circuit("PQC19", 3, DEV_A, rows, n_probes, seed=n))
        assert groups["apply_superop_batch"] == [(), (16,)] and "apply_unitary_vec" not in groups

    @pytest.mark.parametrize("n_probes, b", [(16, 32), (2, 32), (1, 300)])
    def test_no_stack_holds_more_than_the_rows_at_eight_qubits(self, monkeypatch, n_probes, b):
        calls = _kernel_calls(monkeypatch)
        circuit, overrides = _model_circuit("PQC19", MAX_QUBITS, None, b, n_probes=n_probes, seed=b)
        got = run_circuit(circuit, overrides)
        assert calls and all(stack[0] <= n_probes * b for stack, _ in calls)
        if b > 2**MAX_QUBITS:  # one group, so one group's 256 basis vectors for the 300 samples
            assert {stack for stack, _ in calls} == {(2**MAX_QUBITS, 2**MAX_QUBITS)}
        cut = _sub_grid(overrides, [n_probes - 1], [b - 1])
        np.testing.assert_allclose(got[-1:], _z(final_states(circuit, cut), circuit), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", _PROBE_VARYING_HEADS)
    def test_a_head_that_varies_by_probe_takes_the_state_picture(self, monkeypatch, case):
        # the pulled-back picture takes no such grid: the whole prefix runs on the 36 rows, then the later gates
        pulled = _spy(monkeypatch, "_pulled_back_picture")
        calls = _kernel_calls(monkeypatch)
        circuit, overrides = _probe_varying_head(case, None, 9)
        got = run_circuit(circuit, overrides)
        assert not pulled and [stack for stack, _ in calls] == [(36, 8)]
        np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)
        assert got.tobytes() == run_circuit(circuit, overrides).tobytes()


def _product_channel():
    """An asymmetric 2-qubit channel: amplitude damping on its first qubit,
    phase flip on its second."""
    kraus = [np.kron(a, b) for a in amplitude_damping(0.3).operators for b in phase_flip(0.2).operators]
    return KrausChannel("DampingPhase", 0.3, tuple(kraus), n_qubits_acted=2)


def _hand_built(case):
    """Circuits whose channels fold into a step other than the op they follow."""
    if case == "damping_on_crx_target":
        # damping of qubit 1 after the RZ on qubit 0 moves back into the CRX
        ops = (GateOp("H", (0,)), GateOp("RX", (1,), 0.4), GateOp("CRX", (0, 1), 1.1), GateOp("RZ", (0,), 0.3),
               GateOp("RX", (1,), 0.8))
        points = (NoisePoint(2, amplitude_damping(0.4), (1,)), NoisePoint(3, amplitude_damping(0.25), (1,)),
                  NoisePoint(3, bit_flip(0.1), (0,)))
        return CircuitIR(n_qubits=2, ops=ops, noise_points=points)
    if case == "reversed_two_qubit_channel":
        ops = (GateOp("H", (0,)), GateOp("RX", (2,), 0.2), GateOp("RX", (1,), 0.7), GateOp("CRX", (0, 2), 1.3),
               GateOp("CRX", (2, 1), np.pi), GateOp("RX", (0,), 0.5))
        points = (NoisePoint(3, _product_channel(), (2, 0)), NoisePoint(4, _product_channel(), (1, 2)),
                  NoisePoint(5, _product_channel(), (2, 1)))
        return CircuitIR(n_qubits=3, ops=ops, noise_points=points)
    assert case == "standalone_steps"
    # qubit 2 has no op in the prefix before its first channel, and none after the prefix
    ops = (GateOp("H", (0,)), GateOp("RX", (2,), 0.6), GateOp("H", (1,)), GateOp("CRX", (0, 1), np.pi),
           GateOp("RZ", (1,), 0.9))
    points = (NoisePoint(0, amplitude_damping(0.3), (2,)), NoisePoint(3, amplitude_damping(0.35), (2,)),
              NoisePoint(4, bit_flip(0.15), (2,)), NoisePoint(4, phase_flip(0.05), (0,)))
    return CircuitIR(n_qubits=3, ops=ops, noise_points=points)


class TestPlan:
    @pytest.mark.parametrize("case", ["damping_on_crx_target", "reversed_two_qubit_channel", "standalone_steps"])
    def test_folded_channels_match_the_unfused_reference(self, case):
        circuit = _hand_built(case)
        for b in (1, 9):  # Schroedinger at one row, pulled back at nine
            overrides = {1: np.linspace(-1.0, 2.5, b)}
            want = _unfused_reference(circuit, overrides)
            np.testing.assert_allclose(run_circuit(circuit, overrides), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(_z(final_states(circuit, overrides), circuit), want, rtol=0, atol=1e-12)

    def test_channels_fold_into_the_latest_step_on_their_qubits(self):
        prefix, rest = _hand_built("damping_on_crx_target").plan
        assert [(i, q, after is not None) for i, q, after in rest] == [(2, (0, 1), True), (3, (0,), True),
                                                                        (4, (1,), False)]
        assert len(prefix) == 2

    def test_a_channel_on_an_untouched_qubit_starts_a_standalone_step(self):
        circuit = _hand_built("standalone_steps")
        prefix, rest = circuit.plan
        assert circuit.product_prefix_end == 3
        assert [(i, q) for i, q, _ in prefix] == [(0, (0,)), (None, (2,)), (1, (2,)), (2, (1,))]
        assert [(i, q) for i, q, _ in rest] == [(3, (0, 1)), (None, (2,)), (4, (1,))]
        assert rest[2][2] is None and rest[0][2] is not None

    def test_a_channel_wider_than_the_latest_step_starts_a_standalone_step(self):
        ops = (GateOp("H", (0,)), GateOp("RX", (1,), 0.3), GateOp("RZ", (0,), 0.0))
        points = (NoisePoint(0, depolarizing_2q(0.2), (0, 1)), NoisePoint(2, bit_flip(0.1), (0,)))
        circuit = CircuitIR(n_qubits=2, ops=ops, noise_points=points)
        prefix, rest = circuit.plan
        assert prefix == ()
        assert [(i, q, after is not None) for i, q, after in rest] == [(0, (0,), False), (None, (0, 1), True),
                                                                        (1, (1,), False), (2, (0,), True)]

    def test_embedding_a_stack_embeds_each_superoperator(self):
        from qsteal.circuits import _embed

        rng = np.random.default_rng(9)
        stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        for qubits, into in (((0,), (0, 1)), ((0,), (1, 0)), ((2,), (0, 2, 1))):
            got = _embed(stack, qubits, into)
            assert got.shape == (5,) + (4 ** len(into),) * 2
            for one, want in zip(got, stack, strict=True):
                np.testing.assert_array_equal(one, _embed(want, qubits, into))
        # a gate on one qubit of a pair: U (x) I with the first listed qubit as the high bit
        u = rotation_batch("RX", 0.7)
        np.testing.assert_allclose(_embed(unitary_superop(u), (0,), (0, 1)), to_ptm(superop(np.kron(u, np.eye(2)))),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(_embed(unitary_superop(u), (0,), (1, 0)), to_ptm(superop(np.kron(np.eye(2), u))),
                                   rtol=0, atol=1e-15)
        # a unitary has one leg per qubit: U (x) I itself
        np.testing.assert_array_equal(_embed(u, (0,), (0, 1)), np.kron(u, np.eye(2)))
        np.testing.assert_array_equal(_embed(u, (0,), (1, 0)), np.kron(np.eye(2), u))
        # into (0, 2, 1) lists qubit 0 as the high bit: qubit q sits at bit 2 - into.index(q) of a 3-qubit index
        crx = rotation_batch("CRX", 0.4)
        np.testing.assert_array_equal(_embed(crx, (2, 0), (0, 2, 1)), embed_full(crx, (1, 2), 3))

    @pytest.mark.parametrize("tid", ["PQC6", "PQC19"])
    @pytest.mark.parametrize("profile", [DEV_A, DEV_B], ids=["devA", "devB"])
    def test_two_layers_match_the_unfused_reference(self, tid, profile):
        # the second layer's rotations are 1-qubit gates after the prefix
        for n in (2, 3, 4):
            for n_probes, b in ((1, 1), (1, 7), (3, 5)):
                circuit, overrides = _model_circuit(tid, n, profile, b, n_probes, seed=n + b, layers=2)
                np.testing.assert_allclose(run_circuit(circuit, overrides), _unfused_reference(circuit, overrides),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_pqc19_on_dev_a_has_one_later_step_per_crx(self, n):
        circuit, _ = _model_circuit("PQC19", n, DEV_A, 1)
        prefix, rest = circuit.plan
        assert [i for i, _, _ in rest] == list(range(circuit.product_prefix_end, len(circuit.ops)))
        assert len(rest) == n
        # one step per prefix op, plus one standalone step for the layer-break
        # channels of each qubit that 8 features leave without an encoding
        unencoded = [q for q, feats in enumerate(encode_layout(8, n)) if not feats]
        assert [i for i, _, _ in prefix if i is not None] == list(range(circuit.product_prefix_end))
        assert sorted(q for i, (q,), _ in prefix if i is None) == unencoded


def _angled(circuit):
    """The op indices of the prefix steps whose gate takes an angle."""
    return [i for i, _, _ in circuit.plan[0] if i is not None and circuit.ops[i].angle is not None]


class TestCompiledPrefix:
    @pytest.mark.parametrize("profile", [None, DEV_A], ids=["none", "devA"])
    def test_run_circuit_folds_only_the_angle_free_steps(self, profile):
        circuit, _ = _model_circuit("PQC19", 4, profile, 3)
        starts, steps = circuit.prefix.starts, circuit.prefix.steps
        assert [i for i, _, _ in steps] == _angled(circuit)
        assert starts.shape == (4, 2 if profile is None else 4)
        if profile is None:
            # every qubit opens with H, so its start state is H|0>, and its
            # second H rides on the first feature gate as a 2x2 `after`
            np.testing.assert_allclose(starts, np.full((4, 2), 2**-0.5), rtol=0, atol=1e-15)
            assert [after is None for _, _, after in steps] == [False, True] * 4 + [True] * 8

    @pytest.mark.parametrize("case", ["damping_on_crx_target", "reversed_two_qubit_channel", "standalone_steps"])
    def test_pinning_angles_folds_them_without_changing_the_prefix(self, case):
        circuit = _hand_built(case)
        angles = {i: 0.37 * (i + 1) for i in _angled(circuit)}
        pinned = compile_prefix(circuit, angles, pure=False)
        assert pinned.steps == ()  # every prefix step is fixed, so only the start states remain
        want = run_prefix(circuit, angles, compile_prefix(circuit, {}, pure=False), (1, 1))
        got = run_prefix(circuit, {}, pinned, (1, 1))
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
    @pytest.mark.parametrize("profile", [None, IDEAL, DEV_A, DEV_B], ids=["none", "ideal", "devA", "devB"])
    def test_pinned_parameters_leave_only_the_feature_gates(self, tid, profile):
        # the serving split: features per sample, every PQC angle pinned
        circuit, overrides = _model_circuit(tid, 4, profile, 5, seed=2)
        features = {i: a for i, a in overrides.items() if np.ndim(a) == 1}
        compiled = compile_prefix(circuit, {i: a for i, a in overrides.items() if np.ndim(a) == 0}, pure=False)
        assert [i for i, _, _ in compiled.steps] == sorted(features)
        want = run_prefix(circuit, overrides, compile_prefix(circuit, {}, pure=False), (1, 1))
        for g, w in zip(run_prefix(circuit, features, compiled, (1, 1)), want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)


def _demo_circuit():
    """The demo-01 shape: H and an RZ per qubit, a CRX(pi) chain, then a rotation."""
    ops = (GateOp("H", (0,)), GateOp("H", (1,)), GateOp("RZ", (0,), 0.4), GateOp("RZ", (1,), 1.1),
           GateOp("CRX", (0, 1), np.pi), GateOp("CRX", (1, 2), np.pi), GateOp("RX", (2,), 0.7))
    return CircuitIR(n_qubits=3, ops=ops, layer_breaks=(4, len(ops)))


class TestGrid:
    @pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
    def test_grid_equals_the_same_rows_laid_out_flat(self, tid):
        for n in range(2, 6):
            for profile in (None, IDEAL, DEV_A, DEV_B):
                for n_probes, b in ((1, 1), (1, 6), (5, 1), (4, 6), (3, 9)):
                    circuit, overrides = _model_circuit(tid, n, profile, b, n_probes, seed=10 * n + b)
                    got = run_circuit(circuit, overrides)
                    assert got.shape == (n_probes * b, n)
                    flat = run_circuit(circuit, _flat(overrides, n_probes, b))
                    np.testing.assert_allclose(got, flat, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("profile", [None, IDEAL, DEV_A, DEV_B], ids=["none", "ideal", "devA", "devB"])
    def test_scalar_only_suffix_is_one_group(self, profile):
        # per-sample encodings, every PQC angle shared: the whole grid is one group
        circuit, overrides = _model_circuit("PQC19", 4, profile, 9)
        assert all(np.ndim(v) == 0 for op, v in overrides.items() if op >= circuit.product_prefix_end)
        np.testing.assert_allclose(run_circuit(circuit, overrides), _unfused_reference(circuit, overrides),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("profile", [None, DEV_A], ids=["none", "devA"])
    def test_per_row_and_per_sample_suffix_angles(self, profile):
        # a suffix angle that varies by sample (or by row) makes every row its own group
        circuit, overrides = _model_circuit("PQC19", 3, profile, 4, n_probes=3, seed=7)
        rng = np.random.default_rng(8)
        last = max(overrides)
        for angle in (rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, 2 * np.pi, (3, 4))):
            overrides[last] = angle
            np.testing.assert_allclose(run_circuit(circuit, overrides), _unfused_reference(circuit, overrides),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
    def test_noise_free_prefix_path_matches_final_states(self, tid):
        for n in range(2, 6):
            circuit, overrides = _model_circuit(tid, n, None, 5, n_probes=3, seed=n)
            np.testing.assert_allclose(run_circuit(circuit, overrides), _unfused_reference(circuit, overrides),
                                       rtol=0, atol=1e-12)

    def test_empty_prefix_matches_final_states(self):
        # the first op is 2-qubit, so every op runs on the statevectors
        ops = (GateOp("CRX", (0, 1), 0.0), GateOp("H", (0,)), GateOp("CRX", (0, 1), np.pi), GateOp("RX", (1,), 0.2))
        circuit = CircuitIR(n_qubits=2, ops=ops)
        assert circuit.product_prefix_end == 0
        overrides = {0: np.linspace(0.1, 3.0, 4)[:, None], 3: np.linspace(-1.0, 2.0, 5)}
        got = run_circuit(circuit, overrides)
        assert got.shape == (20, 2)
        np.testing.assert_allclose(got, _unfused_reference(circuit, overrides), rtol=0, atol=1e-12)

    def test_demo_circuit_matches_final_states(self):
        circuit = _demo_circuit()
        assert circuit.product_prefix_end == 4
        for c in (circuit, weave_noise(circuit, DEV_A)):
            np.testing.assert_allclose(run_circuit(c), _unfused_reference(c, {}), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("profile", [None, IDEAL, DEV_A], ids=["none", "ideal", "devA"])
    def test_reruns_are_bitwise_identical(self, profile):
        circuit, overrides = _model_circuit("PQC6", 3, profile, 8, n_probes=4, seed=3)
        np.testing.assert_array_equal(run_circuit(circuit, overrides), run_circuit(circuit, overrides))

    def test_float64_overrides_are_taken_as_they_are(self):
        from qsteal.circuits import _Grid

        per_sample, per_probe = np.linspace(0.0, 1.0, 5)[None], np.linspace(0.0, 1.0, 3)[:, None]
        grid = _Grid.of({1: per_sample, 3: per_probe, 5: np.float64(0.2), 7: np.arange(5)})
        assert grid.angles[1] is per_sample and grid.angles[3] is per_probe
        assert grid.angles[7].shape == (1, 5) and grid.angles[7].dtype == np.float64
        assert (grid.p, grid.b) == (3, 5)

    def test_overrides_must_share_one_grid(self):
        circuit, overrides = _model_circuit("PQC19", 3, None, 4, n_probes=3)
        overrides[max(overrides)] = np.zeros(5)
        with pytest.raises(ValueError, match="one \\(probes, samples\\) grid"):
            run_circuit(circuit, overrides)
        overrides[max(overrides)] = np.zeros((3, 4, 1))
        with pytest.raises(ValueError, match="override for op"):
            run_circuit(circuit, overrides)

    @pytest.mark.parametrize("profile, n_probes, b", [(None, 16, 32), (None, 16, 16), (DEV_A, 16, 32), (DEV_A, 1, 1),
                                                      (DEV_A, 3, 4)],
                             ids=["pure-pulled-back", "pure-state", "mixed-pulled-back", "mixed-schroedinger",
                                  "final_states"])
    @pytest.mark.parametrize("bad, message", [({99: 0.3}, "override for op 99: the circuit has 28 ops"),
                                              ({0: 0.3}, "override for op 0: H takes no angle"),
                                              ({0: np.zeros(8)}, "override for op 0: H takes no angle")],
                             ids=["out-of-range", "angle-free", "angle-free-array"])
    def test_an_override_no_op_can_take_fails_before_any_work(self, monkeypatch, profile, n_probes, b, bad, message):
        circuit, overrides = _model_circuit("PQC19", 4, profile, b, n_probes=n_probes)
        assert len(circuit.ops) == 28 and circuit.ops[0].kind == "H"
        run = final_states if b == 4 else run_circuit
        run(circuit, overrides)
        built = _spy(monkeypatch, "_built")
        with pytest.raises(ValueError, match=message):
            run(circuit, {**overrides, **bad})
        assert not built



#: override shapes on a 3-probe x 5-sample grid; "mixed" cycles through them
#: and leaves every fourth angle at the op's own
_SHAPES = {"0-d": (), "(B,)": (5,), "(P, 1)": (3, 1), "(P, B)": (3, 5)}


def _angles(circuit, shape, seed=0):
    rng = np.random.default_rng(seed)
    angled = [i for i, op in enumerate(circuit.ops) if op.angle is not None]
    if shape != "mixed":
        return {i: rng.uniform(0, 2 * np.pi, _SHAPES[shape]) for i in angled}
    shapes = list(_SHAPES.values())
    return {i: rng.uniform(0, 2 * np.pi, shapes[k % 4]) for k, i in enumerate(angled) if k % 4 != 3}


def _bytes(mats):
    # bytes, not values: assert_array_equal takes -0.0 for 0.0
    return [(m.shape, m.tobytes()) for m in mats]


def _alone(circuit, steps, angles: dict, pure: bool = False) -> list:
    """helpers.per_step_matrices with the package's own builders: each
    step's gate from its own rotation_stack call (a gate without an angle
    from gate_matrix and unitary_superop), then its `after`.  Equal to
    circuits._built byte for byte, where the independent reference is equal
    to rounding."""
    out = []
    for i, _, after in steps:
        if i is None:
            out.append(after)
            continue
        op = circuit.ops[i]
        if op.angle is None:
            gate = gate_matrix(op) if pure else unitary_superop(gate_matrix(op))
        else:
            gate = rotation_stack(op.kind, angles.get(i, op.angle), pure)
        out.append(gate if after is None else after @ gate)
    return out


def _close(got, want):
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)


class TestBuilder:
    """circuits._built builds a call's gates one stacked batch per (kind,
    angle shape); each step's matrix equals the one built on its own by the
    same builders (_alone), byte for byte, and the independent reference
    (helpers.per_step_matrices) to rounding."""

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("profile", [IDEAL, DEV_A], ids=["ideal", "devA"])
    @pytest.mark.parametrize("shape", [*_SHAPES, "mixed"])
    def test_matches_the_per_step_reference(self, tid, profile, shape):
        from qsteal.circuits import _built

        t = PQCTemplate(tid, 3, 2)
        circuit = weave_noise(assemble_circuit(np.zeros(6), t, np.zeros(t.param_count)), profile)
        steps = circuit.plan[0] + circuit.plan[1]
        angles = _angles(circuit, shape)
        for pure in (True, False) if profile is IDEAL else (False,):
            assert _bytes(_built(circuit, steps, angles, pure)) == _bytes(_alone(circuit, steps, angles, pure))
            _close(_built(circuit, steps, angles, pure), per_step_matrices(circuit, steps, angles, pure))

    @pytest.mark.parametrize("profile", [IDEAL, DEV_A], ids=["ideal", "devA"])
    @pytest.mark.parametrize("shape", [*_SHAPES, "mixed"])
    def test_groups_mixing_steps_with_and_without_an_after(self, profile, shape):
        # every other angled step takes a random `after`, so each (kind, angle shape) group holds both
        from qsteal.circuits import _built

        t = PQCTemplate("PQC19", 3, 2)
        circuit = weave_noise(assemble_circuit(np.zeros(6), t, np.zeros(t.param_count)), profile)
        angles = _angles(circuit, shape)
        rng = np.random.default_rng(3)
        for pure in (True, False) if profile is IDEAL else (False,):
            steps, groups = [], {}
            for k, (i, qubits, after) in enumerate(circuit.plan[0] + circuit.plan[1]):
                op = None if i is None else circuit.ops[i]
                if op is not None and op.angle is not None:
                    dim = (2 if pure else 4) ** len(qubits)
                    after = rng.normal(size=(dim, dim)) if k % 2 else None  # PTMs are real
                    if pure and after is not None:
                        after = after + 1j * rng.normal(size=(dim, dim))
                    groups.setdefault((op.kind, np.shape(angles.get(i, op.angle))), set()).add(after is None)
                steps.append((i, qubits, after))
            assert any(len(kinds) == 2 for kinds in groups.values())
            assert _bytes(_built(circuit, steps, angles, pure)) == _bytes(_alone(circuit, steps, angles, pure))
            _close(_built(circuit, steps, angles, pure), per_step_matrices(circuit, steps, angles, pure))

    @pytest.mark.parametrize("profile", [IDEAL, DEV_A], ids=["ideal", "devA"])
    def test_one_weighted_basis_per_kind_and_angle_shape_and_no_gate_build(self, monkeypatch, profile):
        # once the bases are held, a call builds no gate: one rotation_stack per (kind, angle shape)
        import qsteal.circuits as circuits_mod
        import qsteal.density as density_mod

        circuit, _ = _model_circuit("PQC6", 3, profile, 1)
        angles = _angles(circuit, "mixed")
        pure = not circuit.has_noise
        circuits_mod._built(circuit, circuit.plan[0] + circuit.plan[1], angles, pure)
        rotations, stacks = _spy(monkeypatch, "rotation_batch"), _spy(monkeypatch, "rotation_stack")
        superops = []
        original = density_mod.unitary_superop
        monkeypatch.setattr(density_mod, "unitary_superop", lambda m: superops.append(m.shape) or original(m))
        circuits_mod._built(circuit, circuit.plan[0] + circuit.plan[1], angles, pure)
        kinds = {(circuit.ops[i].kind, np.shape(a)) for i, a in angles.items()}
        kinds |= {(op.kind, ()) for i, op in enumerate(circuit.ops) if op.angle is not None and i not in angles}
        assert {"CRX", "RX", "RZ"} <= {kind for kind, _ in kinds}
        assert sorted((kind, np.shape(a)[1:]) for kind, a, _ in stacks) == sorted(kinds)
        assert all(p == pure for _, _, p in stacks)
        assert rotations == [] and superops == []

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("profile", [None, IDEAL, DEV_A], ids=["none", "ideal", "devA"])
    def test_compiled_prefix_with_pinned_parameters_matches_the_reference(self, monkeypatch, tid, profile):
        import qsteal.circuits as circuits_mod

        circuit, overrides = _model_circuit(tid, 4, profile, 5, seed=4)
        pinned = {i: a for i, a in overrides.items() if np.ndim(a) == 0}
        pure = not circuit.has_noise
        compiled = compile_prefix(circuit, pinned, pure)
        starts, steps = compiled.starts, compiled.steps
        monkeypatch.setattr(circuits_mod, "_built", _alone)
        want = compile_prefix(circuit, pinned, pure)
        want_starts, want_steps = want.starts, want.steps
        assert starts.tobytes() == want_starts.tobytes()
        assert [s[:2] for s in steps] == [s[:2] for s in want_steps]
        assert _bytes(a for _, _, a in steps if a is not None) == _bytes(a for _, _, a in want_steps if a is not None)

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("profile", [None, DEV_A], ids=["none", "devA"])
    def test_every_picture_equals_its_run_on_the_per_step_reference(self, monkeypatch, tid, profile):
        # the pure and mixed pulled-back pictures, the state picture, Schroedinger, and final_states
        import qsteal.circuits as circuits_mod

        grids = [(16, 32), (16, 5), (1, 1), (3, 9)]
        runs = [_model_circuit(tid, 4, profile, b, n_probes, seed=b) for n_probes, b in grids]
        got = [run_circuit(*run) for run in runs] + [final_states(*runs[-1])]
        monkeypatch.setattr(circuits_mod, "_built", _alone)
        runs = [_model_circuit(tid, 4, profile, b, n_probes, seed=b) for n_probes, b in grids]
        assert _bytes(got) == _bytes([run_circuit(*run) for run in runs] + [final_states(*runs[-1])])
        # and each picture within rounding of its run on the independent reference
        monkeypatch.setattr(circuits_mod, "_built", per_step_matrices)
        runs = [_model_circuit(tid, 4, profile, b, n_probes, seed=b) for n_probes, b in grids]
        _close(got, [run_circuit(*run) for run in runs] + [final_states(*runs[-1])])


def _served(tid, n, profile, d, seed=0):
    """A woven model circuit for d features, its feature slots and its PQC
    angles, as the serving path prepares them."""
    t = PQCTemplate(tid, n)
    circuit = assemble_circuit(np.zeros(d), t, np.zeros(t.param_count))
    circuit = circuit if profile is None else weave_noise(circuit, profile)
    slots = [i for i, op in enumerate(circuit.ops) if op.angle is not None]
    thetas = np.random.default_rng(seed).uniform(0, 2 * np.pi, t.param_count)
    return circuit, slots[:d], dict(zip(slots[d:], thetas))


class _CountingNumpy:
    """numpy, with each np.matmul call counted."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args):
        self.matmuls += 1
        return np.matmul(*args)


def _row(states, r):
    """Row r of a prefix's states: a (rows, 2^n) statevector's row, or each qubit's Bloch vector, (n, rows, 4)."""
    return states[r] if states.ndim == 2 else states[:, r]


def _assert_prefix_run(run, args, got, want):
    """`got`, circuits.run_prefix on `args` run by `run`, is within 1e-14 of `want`, a rerun is bitwise `got`, and
    each row is bitwise the row run alone, each prefix angle at that row's entry of the grid."""
    circuit, angles, prefix, shape = args
    _close(_as_list(got), _as_list(want))
    assert run(*args).tobytes() == got.tobytes()
    grid = {i: np.asarray(a)[None] if np.ndim(a) == 1 else np.asarray(a) for i, a in angles.items() if i in prefix.ops}
    p, b = np.broadcast_shapes(shape, *(a.shape for a in grid.values()))
    for r in range(p * b):
        alone = {i: a if a.ndim == 0 else a[r // b if a.shape[0] > 1 else 0, r % b if a.shape[1] > 1 else 0]
                 for i, a in grid.items()}
        assert _row(run(circuit, alone, prefix, (1, 1)), 0).tobytes() == _row(got, r).tobytes()


class TestRotationBasis:
    """Each parameterized gate is its basis weighted by 1 and the cosines
    and sines of its angle (and half its angle), as a unitary and as a PTM,
    within 1e-15 of the gate the independent builder gives; a stack of
    gates is built entry for entry as each gate alone."""

    SHAPES = {"RX": (2, 2, 2), "RZ": (2, 2, 2), "CRX": (3, 4, 4)}
    PTM_SHAPES = {"RX": (3, 4, 4), "RZ": (3, 4, 4), "CRX": (5, 16, 16)}

    @pytest.mark.parametrize("kind", ["RX", "RZ", "CRX"])
    @pytest.mark.parametrize("pure", [True, False], ids=["unitary", "ptm"])
    def test_weighted_basis_is_the_built_gate(self, kind, pure):
        basis = rotation_basis(kind, pure)
        assert basis.shape == (self.SHAPES if pure else self.PTM_SHAPES)[kind]
        assert not basis.flags.writeable
        assert np.isin(basis, [0, 1, -1, 1j, -1j] if pure else [0, 0.5, -0.5, 1, -1]).all()
        thetas = np.array([0.0, 0.7, np.pi, 4.1, -2.3])
        controlled = GATE_KINDS[kind][0] == 2
        got = np.einsum("at,tij->aij", rotation_weights(thetas, pure, controlled), basis)
        gates = rotation_batch(kind, thetas)
        np.testing.assert_allclose(got, gates if pure else unitary_superop(gates), rtol=0, atol=1e-15)
        stack = rotation_stack(kind, thetas, pure)
        np.testing.assert_allclose(stack, got, rtol=0, atol=1e-15)
        assert stack.tobytes() == np.array([rotation_stack(kind, t, pure) for t in thetas]).tobytes()
        if pure:  # one product of exact trigonometric weights per entry: the unitary itself, to the last bit
            np.testing.assert_array_equal(stack, gates)


class TestDepthPrefix:
    """circuits.run_prefix runs a compiled prefix one depth at a time from its
    maps, building no gate; every row's state is within 1e-14 of the
    per-step loop of helpers.per_step_prefix on the package's builders
    (_alone), served or in a run_circuit head, and to rounding of the
    independent reference; a rerun is bitwise the same, and so is each row
    run alone."""

    WIDTHS = {tid: range(1 if tid == "PQC1" else 2, MAX_QUBITS + 1) for tid in TEMPLATE_IDS}
    BATCHES = (1, 2, 5, 50, 700)

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    def test_product_prefix_matches_the_per_step_loop(self, tid):
        # d = 8 leaves qubits unencoded at widths 5-7, d = 3 is fewer features than qubits from width 4;
        # pinned: the served prefix, only feature steps; unpinned: every angled step, theta shared
        rng = np.random.default_rng(1)
        k = 0
        for n in self.WIDTHS[tid]:
            for profile in (IDEAL, DEV_A, DEV_B):
                for d in (3, 8):
                    circuit, features, thetas = _served(tid, n, profile, d, seed=n + d)
                    pure = not circuit.has_noise
                    for pinned in (thetas, {}):
                        b = self.BATCHES[k % len(self.BATCHES)]
                        k += 1
                        prefix = compile_prefix(circuit, pinned, pure)
                        x = rng.uniform(0, 2 * np.pi, (b, d))
                        angles = {**dict(zip(features, x.T)), **({} if pinned else thetas)}
                        got = run_prefix(circuit, angles, prefix, (1, 1))
                        want = per_step_prefix(circuit, angles, prefix, (1, 1), _alone)
                        _assert_prefix_run(run_prefix, (circuit, angles, prefix, (1, 1)), got, want)
                        _close(_as_list(got), _as_list(per_step_prefix(circuit, angles, prefix, (1, 1))))
                        if pinned:  # the served form: the features' rows of x.T, in op order
                            assert run_prefix(circuit, x.T, prefix, (1, 1)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("profile", [IDEAL, DEV_A, DEV_B], ids=["ideal", "devA", "devB"])
    def test_run_circuit_heads_match_the_per_step_loop(self, monkeypatch, tid, profile):
        # the pulled-back picture's head and the state picture's whole prefix, over the probes x samples
        # grids; per-row or per-probe feature angles make a head that varies by probe, which a pure circuit
        # runs over the (P, B) rows in the state picture and a noisy one evolves in the Schroedinger picture
        import qsteal.circuits as circuits_mod

        heads = []
        original = circuits_mod.run_prefix
        monkeypatch.setattr(circuits_mod, "run_prefix", lambda *a: heads.append((a, original(*a))) or heads[-1][1])
        rng = np.random.default_rng(2)
        for n in (2, 3, 4 if tid == "PQC6" else 5):  # 5 qubits leave one unencoded at d = 8
            for n_probes, b in ((1, 1), (1, 5), (16, 3), (4, 9)):
                circuit, overrides = _model_circuit(tid, n, profile, b, n_probes, seed=n + b)
                runs = [overrides]
                if n_probes > 1:
                    first = min(overrides)
                    runs += [{**overrides, first: rng.uniform(0, 2 * np.pi, (n_probes, b))},
                             {**overrides, first: rng.uniform(0, 2 * np.pi, (n_probes, 1))}]
                for run in runs:
                    run_circuit(circuit, run)
        # Schroedinger runs no prefix; every pulled-back and state-picture call runs one
        assert len(heads) >= (12 if profile is IDEAL else 6)
        assert any(shape[0] > 1 for (_, _, _, shape), _ in heads) == (profile is IDEAL)
        for args, got in heads:
            _assert_prefix_run(original, args, got, per_step_prefix(*args, _alone))

    @pytest.mark.parametrize("case", ["damping_on_crx_target", "reversed_two_qubit_channel", "standalone_steps"])
    def test_qubits_with_more_steps_stand_first(self, case):
        # the angled prefix steps sit on later qubits, so the states run in a permuted qubit order
        from dataclasses import replace

        noisy = _hand_built(case)
        for circuit in (noisy, replace(noisy, noise_points=())):
            prefix = compile_prefix(circuit, {}, not circuit.has_noise)
            assert prefix.order is not None and prefix.depths == ((0, len(_angled(circuit))),)
            for b in (1, 5):
                angles = {i: np.linspace(-1.0, 2.5, b) + i for i in _angled(circuit)}
                want = per_step_prefix(circuit, angles, prefix, (1, 1), _alone)
                args = (circuit, angles, prefix, (1, 1))
                _assert_prefix_run(run_prefix, args, run_prefix(*args), want)

    @pytest.mark.parametrize("profile", [IDEAL, DEV_A], ids=["ideal", "devA"])
    @pytest.mark.parametrize("d", [4, 8, 16, 32])
    def test_no_gate_build_and_one_state_product_per_depth(self, monkeypatch, profile, d):
        # 4 qubits of d / 4 feature steps each: d / 4 depths served, d / 4 + 2 with theta's rotations
        import qsteal.circuits as circuits_mod
        import qsteal.density as density_mod

        rotations = _spy(monkeypatch, "rotation_batch")
        superops = []
        original = density_mod.unitary_superop
        monkeypatch.setattr(density_mod, "unitary_superop", lambda m: superops.append(m.shape) or original(m))
        counting = _CountingNumpy()
        circuit, features, thetas = _served("PQC19", 4, profile, d)
        x = np.random.default_rng(d).uniform(0, 2 * np.pi, (d, 5))
        for pinned, depths in ((thetas, d // 4), ({}, d // 4 + 2)):
            prefix = compile_prefix(circuit, pinned, not circuit.has_noise)
            assert [count for _, count in prefix.depths] == [4] * depths
            angles = {**dict(zip(features, x)), **({} if pinned else thetas)}
            rotations.clear()
            superops.clear()
            monkeypatch.setattr(circuits_mod, "np", counting)
            got = run_prefix(circuit, angles, prefix, (1, 1))
            monkeypatch.setattr(circuits_mod, "np", np)
            assert rotations == [] and superops == []
            assert counting.matmuls == depths
            counting.matmuls = 0
            want = per_step_prefix(circuit, angles, prefix, (1, 1), _alone)
            _assert_prefix_run(circuits_mod.run_prefix, (circuit, angles, prefix, (1, 1)), got, want)


def _as_list(states):
    return states if isinstance(states, list) else [states]


class TestSplitTable:
    """`CircuitIR.splits` holds one split per override pattern, None where
    a head angle varies by probe, however many batch sizes run and whichever
    picture each takes."""

    @staticmethod
    def _grids(tid, profile):
        # (16, 32), (16, 5), (16, 1), (1, 32), a per-row (P, B) feature, all-scalar angles
        for n_probes, b in ((16, 32), (16, 5), (16, 1), (1, 32)):
            yield _model_circuit(tid, 4, profile, b, n_probes, seed=b)
        circuit, overrides = _model_circuit(tid, 4, profile, 32, 16, seed=7)
        overrides[1] = np.random.default_rng(7).uniform(0, 2 * np.pi, (16, 32))
        yield circuit, overrides
        circuit, overrides = _model_circuit(tid, 4, profile, 1, seed=8)
        yield circuit, {i: float(np.ravel(a)[0]) for i, a in overrides.items()}

    @pytest.mark.parametrize("tid, profile", [("PQC19", IDEAL), ("PQC19", DEV_A), ("PQC6", DEV_A), ("PQC1", DEV_A)],
                             ids=["PQC19-ideal", "PQC19-devA", "PQC6-devA", "PQC1-devA"])
    def test_one_circuit_runs_every_grid_as_a_fresh_one(self, tid, profile):
        shared = next(self._grids(tid, profile))[0]
        for fresh, overrides in self._grids(tid, profile):
            assert run_circuit(shared, overrides).tobytes() == run_circuit(fresh, overrides).tobytes()
        # (16, 32) and (16, 5) share a pattern; only the per-row feature's head varies by probe
        keys = list(shared.splits)
        assert len(keys) == 5 and [entry is None for entry in shared.splits.values()] == [False] * 3 + [True, False]
        # more batch sizes of a known pattern add no entry
        for b in (7, 9, 31):
            run_circuit(shared, _model_circuit(tid, 4, profile, b, 16, seed=b)[1])
        assert list(shared.splits) == keys

    def test_a_known_pattern_keeps_its_entry_whichever_picture_runs(self, monkeypatch):
        # PQC1 at (16, 2): the pattern of (16, 32), but the lead would pull back 64 observables for 32 rows
        pulled = _spy(monkeypatch, "_pulled_back_picture")
        circuit, overrides = _model_circuit("PQC1", 4, DEV_A, 32, 16)
        run_circuit(circuit, overrides)
        entry = dict(circuit.splits)
        fresh, overrides = _model_circuit("PQC1", 4, DEV_A, 2, 16, seed=2)
        assert run_circuit(circuit, overrides).tobytes() == run_circuit(fresh, overrides).tobytes()
        assert len(pulled) == 1 and circuit.splits == entry and fresh.splits.keys() == entry.keys()
