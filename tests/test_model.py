"""Hybrid model forward passes, losses, and checkpoint round-trips."""

import numpy as np
import pytest

from qsteal import model as model_mod
from qsteal.circuits import CONTRACT_ROWS, MAX_QUBITS, TEMPLATE_IDS, PQCTemplate, assemble_circuit, encode_layout
from qsteal.devices import DEV_A, DEV_B, IDEAL, DeviceProfile
from qsteal.model import (
    HybridModel,
    expectations_batch,
    forward_batch,
    forward_probes,
    init_model,
    load_checkpoint,
    kl_terms,
    mean_nll,
    save_checkpoint,
    softmax,
)

from helpers import exp_z_batch, unfused_states


@pytest.fixture
def model():
    return init_model(PQCTemplate("PQC19", 4), k=4, seed=3)


def _inputs(b, d=8, seed=0):
    return np.random.default_rng(seed).uniform(0, 2 * np.pi, (b, d))


class TestForward:
    def test_zero_head_gives_uniform(self, model):
        from dataclasses import replace

        flat = replace(model, weights=np.zeros((4, 4)), bias=np.zeros(4))
        probs = forward_batch(flat, _inputs(1))
        np.testing.assert_allclose(probs, np.full((1, 4), 0.25), atol=1e-12)

    def test_analytic_forward_is_deterministic(self, model):
        x = _inputs(1)
        a = forward_batch(model, x, IDEAL)
        b = forward_batch(model, x, IDEAL)
        np.testing.assert_array_equal(a, b)

    def test_output_is_distribution_across_profiles(self, model):
        rng = np.random.default_rng(5)
        profiles = [None, IDEAL, DEV_A, DEV_B,
                    DeviceProfile(name="loud", p1=0.05, p2=0.2, gamma=0.1, p_phase=0.1, p_bit=0.1)]
        for i in range(100):
            x = rng.uniform(0, 2 * np.pi, 8)
            profile = profiles[i % len(profiles)]
            shots = None if i % 2 == 0 else 500
            p = forward_batch(model, x[None], profile, shots, np.random.default_rng(i))[0]
            assert p.shape == (4,)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0) and np.all(p < 1)

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_batch_rows_equal_single_calls(self, tid, n):
        # with one generator per row, row i of a batch is bitwise row i alone; a
        # noise-free row meets the held basis rows and the Z signs on its own, as a
        # real (B, 2^n) @ (2^n, m) sign product would not at 5-7 qubits
        m = init_model(PQCTemplate(tid, n), k=3, seed=n)
        x = _inputs(7, seed=n)
        for profile in (None, IDEAL, DEV_A, DEV_B) if n <= 4 else (None, IDEAL):
            for shots in (None, 100):
                batched = forward_batch(m, x, profile, shots, [np.random.default_rng(i) for i in range(7)])
                for i in range(7):
                    alone = forward_batch(m, x[i : i + 1], profile, shots, np.random.default_rng(i))
                    np.testing.assert_array_equal(batched[i], alone[0])
            np.testing.assert_array_equal(expectations_batch(m, x[2:5], profile), expectations_batch(m, x, profile)[2:5])

    def test_shots_track_analytic_within_sampling_noise(self, model):
        # 1000 shots puts ~1/sqrt(1000) noise on each expectation; through the
        # linear head + softmax that stays well under 0.1 per class
        x = _inputs(20, seed=9)
        exact = forward_batch(model, x, IDEAL)
        sampled = forward_batch(model, x, IDEAL, shots=1000, rng=np.random.default_rng(2))
        assert np.max(np.abs(exact - sampled)) < 0.1

    def test_shots_require_rng(self, model):
        with pytest.raises(ValueError, match="rng"):
            forward_batch(model, _inputs(1), IDEAL, shots=100)

    def test_per_row_rngs_must_cover_the_rows(self, model):
        with pytest.raises(ValueError, match="one per row"):
            forward_batch(model, _inputs(3), IDEAL, shots=100, rng=[np.random.default_rng(0)] * 2)

    def test_clone_width_reblocks_features(self):
        # 8 features on 2 qubits: blocks of 4; on 8 qubits: 1 each
        for n in (2, 8):
            m = init_model(PQCTemplate("PQC19", n), k=4, seed=0)
            p = forward_batch(m, _inputs(1))
            assert p.shape == (1, 4)


@pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
def test_prepared_slots_are_features_then_parameters(tid):
    # _prepared_circuit's slots are the angle-carrying ops; forward passes
    # zip them with the features, then the PQC parameters
    for n in range(1 if tid == "PQC1" else 2, 9):
        for layers in (1, 2):
            t = PQCTemplate(tid, n, layers)
            for d in (1, 2, 3, 5, 8, 13):
                _, slots = model_mod._prepared_circuit(t, d, None)
                angles = np.arange(1.0, d + t.param_count + 1)
                ops = assemble_circuit(angles[:d], t, angles[d:]).ops
                assert [ops[i].angle for i in slots] == angles.tolist()


class TestReadoutCache:
    @staticmethod
    def _evolved(m, x, profile):
        """<Z> per qubit from the density matrices of the whole circuit,
        evolved gate by gate and channel by channel."""
        circuit, slots = model_mod._prepared_circuit(m.template, x.shape[1], profile)
        overrides = dict(zip(slots, [*x.T, *m.theta], strict=True))
        states = unfused_states(circuit, overrides)
        return np.stack([exp_z_batch(states, q, m.n_qubits) for q in range(m.n_qubits)], axis=1)

    @pytest.mark.parametrize("tid", ["PQC1", "PQC6", "PQC17", "PQC19"])
    def test_cached_readout_matches_evolved_density_matrices(self, tid):
        for n in range(2, 6):
            m = init_model(PQCTemplate(tid, n), k=3, seed=n)
            x = _inputs(5, seed=n)
            for profile in (IDEAL, DEV_A):
                got = expectations_batch(m, x, profile)
                np.testing.assert_allclose(got, self._evolved(m, x, profile), rtol=0, atol=1e-12)

    def test_eight_qubit_readout_matches_and_an_entry_stays_under_8_mb(self):
        m = init_model(PQCTemplate("PQC19", 8), k=4, seed=2)
        x = _inputs(2, seed=3)
        got = expectations_batch(m, x, DEV_A)
        np.testing.assert_allclose(got, self._evolved(m, x, DEV_A), rtol=0, atol=1e-12)
        assert list(m._readouts) == [(8, DEV_A)]
        prefix, obs = m._readouts[(8, DEV_A)]
        starts, steps = prefix.starts, prefix.steps
        assert obs.shape == (8, 4**8)
        assert obs.nbytes <= 8 * 2**20
        # the compiled prefix adds one start state and one 4x4 `after` per feature gate
        assert starts.shape == (8, 4)
        assert [(i, after.shape) for i, _, after in steps] == [(2 * f + 1, (4, 4)) for f in range(8)]

    @staticmethod
    def _count_pull_backs(monkeypatch):
        """Record the PQC angles of every readout pull-back."""
        pulled = []
        original = model_mod.pulled_back
        monkeypatch.setattr(model_mod, "pulled_back",
                            lambda c, o: pulled.append(np.array(list(o.values()))) or original(c, o))
        return pulled

    def test_models_differing_only_in_theta_never_share_an_entry(self, model, monkeypatch):
        from dataclasses import replace

        pulled = self._count_pull_backs(monkeypatch)
        nudged = replace(model, theta=np.nextafter(model.theta, np.inf))
        x = _inputs(3)
        a = expectations_batch(model, x, DEV_A)
        b = expectations_batch(nudged, x, DEV_A)
        assert len(pulled) == 2
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(expectations_batch(model, x, DEV_A), a)
        assert len(pulled) == 2
        assert model._readouts[(8, DEV_A)] is not nudged._readouts[(8, DEV_A)]

    def test_models_differing_only_in_theta_never_share_a_compiled_prefix(self, model, monkeypatch):
        from dataclasses import replace

        pinned = []
        original = model_mod.compile_prefix
        monkeypatch.setattr(model_mod, "compile_prefix",
                            lambda c, p, pure: pinned.append(np.array(list(p.values()))) or original(c, p, pure))
        nudged = replace(model, theta=model.theta + 1e-3)
        x = _inputs(3)
        expectations_batch(model, x, DEV_A)
        expectations_batch(nudged, x, DEV_A)
        expectations_batch(model, x, DEV_A)
        assert len(pinned) == 2
        np.testing.assert_array_equal(pinned[0], model.theta)
        np.testing.assert_array_equal(pinned[1], nudged.theta)
        steps = model._readouts[(8, DEV_A)][0].steps
        nudged_steps = nudged._readouts[(8, DEV_A)][0].steps
        # the last feature gate on each qubit carries that qubit's folded theta rotations
        for a, b in zip(steps[1::2], nudged_steps[1::2], strict=True):
            assert a[0] == b[0] and a[2] is not b[2] and not np.array_equal(a[2], b[2])

    def test_readout_is_held_on_the_model_only(self, model):
        forward_batch(model, _inputs(1), DEV_A)
        forward_batch(model, _inputs(1), IDEAL)
        assert set(model._readouts) == {(8, DEV_A), (8, IDEAL)}
        assert "_readouts" not in repr(model)
        assert model.with_flat_params(model.flat_params())._readouts == {}
        with pytest.raises(ValueError, match="read-only"):
            model.theta[0] = 0.0
        theta = model.theta.copy()
        HybridModel(model.template, theta, model.weights, model.bias)
        theta[0] = 0.0  # the caller's array stays writable
        with pytest.raises(TypeError):
            HybridModel(model.template, model.theta, model.weights, model.bias, _readouts={})

    def test_training_between_two_serves_pulls_the_served_pair_back_once(self, model, monkeypatch):
        from qsteal.training import TrainConfig, train

        pulled = self._count_pull_backs(monkeypatch)
        served = lambda: [np.array_equal(p, model.theta) for p in pulled].count(True)  # noqa: E731
        x = _inputs(4, seed=6)
        first = forward_batch(model, x, DEV_A)
        trainee = init_model(PQCTemplate("PQC19", 4), k=4, seed=9)
        xs, labels = _inputs(8, seed=7), np.arange(8) % 4
        train(trainee, xs, labels, TrainConfig(epochs=20, batch_size=8, spsa_draws=1), DEV_A, 1, xs, labels)
        assert len(pulled) == 21  # the served pair, then one throwaway readout per epoch's evaluation
        np.testing.assert_array_equal(forward_batch(model, x, DEV_A), first)
        assert served() == 1
        assert len(pulled) == 21

    def test_noise_free_entry_is_a_pure_prefix_and_the_pulled_back_basis(self, model, monkeypatch):
        pulled = self._count_pull_backs(monkeypatch)
        x = _inputs(5, seed=2)
        for profile in (None, IDEAL):
            got = expectations_batch(model, x, profile)
            np.testing.assert_allclose(got, self._evolved(model, x, profile or IDEAL), rtol=0, atol=1e-12)
            expectations_batch(model, x, profile)
        assert len(pulled) == 2
        prefix, y = model._readouts[(8, IDEAL)]
        starts, steps = prefix.starts, prefix.steps
        # 2x2 unitaries in the prefix, and the rest's basis vectors pulled back, U^dag e_k: a unitary's rows
        assert starts.shape == (4, 2) and all(after is None or after.shape == (2, 2) for _, _, after in steps)
        assert y.shape == (16, 16)
        np.testing.assert_allclose(y @ y.conj().T, np.eye(16), rtol=0, atol=1e-14)

    def test_entries_are_read_only(self, model):
        for profile in (IDEAL, DEV_A):
            forward_batch(model, _inputs(1), profile)
            prefix, obs = model._readouts[(8, profile)]
            starts, steps = prefix.starts, prefix.steps
            assert isinstance(steps, tuple) and all(isinstance(step, tuple) for step in steps)
            for array in [obs, starts, prefix.maps] + [after for _, _, after in steps]:
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 0.0

    def test_rows_across_a_contraction_chunk_equal_single_rows(self, model):
        x = _inputs(CONTRACT_ROWS + 3, seed=4)
        for profile in (IDEAL, DEV_A):
            batched = forward_batch(model, x, profile)
            for i in (0, CONTRACT_ROWS - 1, CONTRACT_ROWS, CONTRACT_ROWS + 2):
                np.testing.assert_array_equal(batched[i], forward_batch(model, x[i : i + 1], profile)[0])


def _widths(tid):
    return range(1 if tid == "PQC1" else 2, MAX_QUBITS + 1)


class TestCompiledPrefix:
    """The serving path compiles each (model, d, profile) prefix with theta
    pinned; every served row must still match the unfused circuit."""

    FEATURES = (1, 3, 8, 13)
    PROFILES = (IDEAL, DEV_A, DEV_B)

    @classmethod
    def _cases(cls, n, layers):
        """Every (d, profile) pair up to 6 qubits.  Wider registers are slower
        to evolve: one profile per d at 7 qubits, and at 8 half the d values
        per layer count, so that each d and each profile still comes up."""
        if n <= 6:
            return [(d, profile) for d in cls.FEATURES for profile in cls.PROFILES]
        cases = [(d, cls.PROFILES[(j + n + layers) % 3]) for j, d in enumerate(cls.FEATURES)]
        return cases if n == 7 else cases[layers - 1 :: 2]

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("tid, n", [(tid, n) for tid in TEMPLATE_IDS for n in _widths(tid)])
    def test_served_rows_match_the_unfused_reference(self, tid, n, layers):
        m = init_model(PQCTemplate(tid, n, layers), k=3, seed=10 * n + layers)
        for d, profile in self._cases(n, layers):
            x = _inputs(2, d, seed=d)
            want = TestReadoutCache._evolved(m, x, profile)
            np.testing.assert_allclose(expectations_batch(m, x, profile), want, rtol=0, atol=1e-12)
            batched = forward_batch(m, x, profile)
            np.testing.assert_allclose(batched, softmax(want @ m.weights.T + m.bias), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(forward_batch(m, x[1:], profile)[0], batched[1])

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    def test_theta_and_the_angle_free_gates_fold_away(self, tid):
        # only the feature gates stay; a qubit that encodes nothing (widths 5-7
        # at d = 8) keeps no step at all, only its constant start state
        for n in _widths(tid):
            m = init_model(PQCTemplate(tid, n), k=2, seed=n)
            forward_batch(m, _inputs(1), DEV_A)
            circuit, slots = model_mod._prepared_circuit(m.template, 8, DEV_A)
            prefix = m._readouts[(8, DEV_A)][0]
            starts, steps = prefix.starts, prefix.steps
            assert [i for i, _, _ in steps] == list(slots[:8])
            encoded = [q for q, feats in enumerate(encode_layout(8, n)) if feats]
            assert sorted({q for _, (q,), _ in steps}) == encoded
            assert starts.shape == (n, 4)


class TestForwardProbes:
    def _probes(self, model, n_probes=6):
        rng = np.random.default_rng(11)
        return model.flat_params()[None] + 0.2 * rng.normal(size=(n_probes, model.n_params))

    @pytest.mark.parametrize("shots", [None, 64], ids=["analytic", "shots"])
    @pytest.mark.parametrize("profile", [None, IDEAL, DEV_A], ids=["none", "ideal", "devA"])
    def test_rows_equal_forward_batch_of_each_probe(self, model, profile, shots):
        # probes run through run_circuit, forward_batch through the held
        # pulled-back readout: the same expectations in another order of operations
        flats = self._probes(model)
        x = _inputs(7)
        got = forward_probes(model, flats, x, profile, shots, [np.random.default_rng(p) for p in range(6)])
        assert got.shape == (6, 7, 4)
        for p, flat in enumerate(flats):
            alone = forward_batch(model.with_flat_params(flat), x, profile, shots, np.random.default_rng(p))
            np.testing.assert_allclose(got[p], alone, rtol=0, atol=1e-12)

    def test_one_run_circuit_call_for_all_probes(self, model, monkeypatch):
        import qsteal.model as model_mod

        rows = []
        original = model_mod.run_circuit
        monkeypatch.setattr(model_mod, "run_circuit", lambda c, o, held: rows.append(o) or original(c, o, held))
        forward_probes(model, self._probes(model), _inputs(5), DEV_A)
        # one probes x samples grid: (1, 5) per-sample features, (6, 1) per-probe angles
        assert len(rows) == 1
        shapes = [np.shape(v) for v in rows[0].values()]
        assert set(shapes) == {(1, 5), (6, 1)}
        assert shapes.count((6, 1)) == model.template.param_count

    def test_probe_vectors_must_match_the_model(self, model):
        with pytest.raises(ValueError, match="parameter vectors"):
            forward_probes(model, np.zeros((2, model.n_params + 1)), _inputs(2))


def _z_of(states, n):
    return np.stack([exp_z_batch(states, q, n) for q in range(n)], axis=1)


class TestPauliBasis:
    """Every noisy route runs in the real Pauli basis: run_circuit in both
    the pulled-back and the Schroedinger picture, forward_batch's served
    rows, forward_probes on held heads, and final_states, each within 1e-12
    of helpers.unfused_states (density matrices and computational-basis
    superoperators), and each rerun bit for bit."""

    @pytest.mark.parametrize("tid", TEMPLATE_IDS)
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("profile", [DEV_A, DEV_B], ids=["devA", "devB"])
    def test_every_noisy_route_is_near_the_unfused_states(self, monkeypatch, tid, n, profile):
        import qsteal.circuits as circuits_mod
        from qsteal.circuits import final_states, run_circuit

        pulled, heads = [], []
        original, head = circuits_mod._pulled_back_picture, circuits_mod.run_prefix
        monkeypatch.setattr(circuits_mod, "_pulled_back_picture", lambda *a: pulled.append(1) or original(*a))
        monkeypatch.setattr(circuits_mod, "run_prefix", lambda *a: heads.append(1) or head(*a))
        template = PQCTemplate(tid, n)
        model = init_model(template, 4, seed=n)
        rng = np.random.default_rng(n)
        x = _inputs(12, seed=n)
        circuit, slots = model_mod._prepared_circuit(template, 8, profile)
        thetas = model.theta[None] + 0.3 * rng.normal(size=(2, template.param_count))
        # (2, 7): 2 * n pulled-back Z_q for 14 rows; (1, 1): every row evolved on its own
        for probes, rows in ((thetas, x[:7]), (thetas[:1], x[:1])):
            overrides = model_mod._probe_overrides(slots, probes, rows)
            pulled.clear()
            got = run_circuit(circuit, overrides)
            assert bool(pulled) == (len(rows) > 1)
            assert got.tobytes() == run_circuit(circuit, overrides).tobytes()
            want = unfused_states(circuit, overrides)
            np.testing.assert_allclose(got, _z_of(want, n), rtol=0, atol=1e-12)
            states = final_states(circuit, overrides)
            np.testing.assert_allclose(states, want, rtol=0, atol=1e-12)
            assert states.tobytes() == final_states(circuit, overrides).tobytes()
        # served rows: the compiled prefix meets the held pulled-back readout
        served = forward_batch(model, x, profile)
        assert served.tobytes() == forward_batch(model, x, profile).tobytes()
        want = _z_of(unfused_states(circuit, model_mod._probe_overrides(slots, model.theta[None], x)), n)
        np.testing.assert_allclose(expectations_batch(model, x, profile), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(served, softmax(want @ model.weights.T + model.bias), rtol=0, atol=1e-12)
        # training rows: the probes meet the held heads of the rows they take
        held = model_mod.hold_features(template, x, profile, probes=2, batch=7)
        assert held is not None and held.states.shape == (n, 12, 4) and held.states.dtype == np.float64
        idx = np.array([11, 0, 5, 3, 8, 2, 9])
        flats = np.concatenate([thetas, np.tile(model.flat_params()[template.param_count :], (2, 1))], axis=1)
        heads.clear()
        got = forward_probes(model, flats, x[idx], profile, held=(held, idx))
        assert not heads  # the rows' head states are the held ones
        assert got.tobytes() == forward_probes(model, flats, x[idx], profile, held=(held, idx)).tobytes()
        want = _z_of(unfused_states(circuit, model_mod._probe_overrides(slots, thetas, x[idx])), n)
        np.testing.assert_allclose(got.reshape(-1, 4), softmax(want @ model.weights.T + model.bias), rtol=0, atol=1e-12)
        exps, _ = model_mod._probe_expectations(template, thetas, x[idx], profile, (held, idx))
        np.testing.assert_allclose(exps.reshape(-1, n), want, rtol=0, atol=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(50, 6)) * 30
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)


def _nll(probs, label):
    return mean_nll(np.asarray(probs, dtype=np.float64)[None], np.array([label]))


def mean_kl(probs, targets):
    return float(np.mean(kl_terms(probs, targets)))


def _kl(probs, target):
    return mean_kl(np.asarray(probs, dtype=np.float64)[None], np.asarray(target, dtype=np.float64)[None])


class TestLosses:
    def test_nll_uniform(self):
        assert abs(_nll(np.full(4, 0.25), 2) - np.log(4)) < 1e-12

    def test_nll_confident(self):
        assert _nll(np.array([0.0, 1.0]), 1) == 0.0

    def test_nll_direct_value(self):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        assert abs(_nll(probs, 0) + np.log(0.7)) < 1e-12

    def test_nll_zero_probability_is_floored(self):
        val = _nll(np.array([0.0, 1.0]), 0)
        assert np.isfinite(val) and val > 20

    def test_kl_identical_is_zero(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert _kl(p, p) == 0.0

    def test_kl_point_mass(self):
        assert abs(_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])) - np.log(2)) < 1e-12

    def test_kl_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert _kl(p, q) >= 0.0

    def test_batch_means_match_loops(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(4), size=10)
        labels = rng.integers(0, 4, 10)
        targets = rng.dirichlet(np.ones(4), size=10)
        nll = [-np.log(p[l]) for p, l in zip(probs, labels)]
        kl = [np.sum(t * (np.log(t) - np.log(p))) for p, t in zip(probs, targets)]
        assert abs(mean_nll(probs, labels) - np.mean(nll)) < 1e-12
        assert abs(mean_kl(probs, targets) - np.mean(kl)) < 1e-12
        assert abs(mean_nll(probs, labels) - np.mean([_nll(p, l) for p, l in zip(probs, labels)])) < 1e-12
        assert abs(mean_kl(probs, targets) - np.mean([_kl(p, t) for p, t in zip(probs, targets)])) < 1e-12


class TestCheckpoints:
    def test_roundtrip_bitwise(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(model, path, seed=42)
        loaded, seed = load_checkpoint(path)
        assert seed == 42
        assert loaded.template == model.template
        np.testing.assert_array_equal(loaded.theta, model.theta)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_shape_validation(self):
        t = PQCTemplate("PQC1", 2)
        with pytest.raises(ValueError, match="entries"):
            HybridModel(t, np.zeros(3), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="does not match"):
            HybridModel(t, np.zeros(4), np.zeros((2, 3)), np.zeros(2))

    def test_flat_params_roundtrip(self, model):
        flat = model.flat_params()
        again = model.with_flat_params(flat)
        np.testing.assert_array_equal(again.theta, model.theta)
        np.testing.assert_array_equal(again.weights, model.weights)
        np.testing.assert_array_equal(again.bias, model.bias)
