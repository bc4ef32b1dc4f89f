"""SPSA estimator, Adam updates, and the training loop contract."""

import numpy as np
import pytest

from qsteal.circuits import PQCTemplate
from qsteal.devices import DEV_A, DEV_B, IDEAL
from qsteal.model import init_model
from qsteal.training import (
    AdamState,
    TrainConfig,
    adam_step,
    normalize_schedule,
    spsa_gradient,
    spsa_probes,
    spsa_signs,
    train,
)


def _signs(rng, n):
    """A +-1 sign vector of length n from Generator.integers: the draw
    spsa_signs reads from raw words."""
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def _spsa(f, theta, c, rng):
    """One SPSA estimate of f at theta: a sign vector from rng, then f at
    the two probes."""
    delta = _signs(rng, theta.shape[0])
    plus, minus = spsa_probes(theta, delta[None], c)
    return spsa_gradient(np.array([f(plus)]), np.array([f(minus)]), delta[None], c)


class TestSpsa:
    def test_quadratic_estimates_enumerate_sign_patterns(self):
        # f(t) = t1^2 + t2^2 at (1, 1): estimate for coordinate 1 is
        # 2 (1 + d1 d2) d1^2 = 2 (1 + d1 d2), i.e. 0 or 4, mean 2 = df/dt1
        f = lambda t: float(np.sum(t**2))
        theta = np.array([1.0, 1.0])
        values = []
        for d1 in (-1.0, 1.0):
            for d2 in (-1.0, 1.0):
                delta = np.array([d1, d2])
                c = 0.5  # 0.5 and 1.5 square exactly in binary
                est = (f(theta + c * delta) - f(theta - c * delta)) / (2 * c) * delta
                values.append(est[0])
                assert est[0] in (0.0, 4.0)
        assert np.mean(values) == 2.0

    def test_estimator_collects_both_values(self):
        f = lambda t: float(np.sum(t**2))
        theta = np.array([1.0, 1.0])
        seen = set()
        for seed in range(40):
            g, _ = _spsa(f, theta, 0.3, np.random.default_rng(seed))
            seen.add(round(float(g[0]), 9))
        assert seen == {0.0, 4.0}

    def test_unbiased_on_quadratic(self):
        rng = np.random.default_rng(123)
        coeffs = np.array([2.0, -1.0, 0.5])
        f = lambda t: float(np.sum(coeffs * t**2))
        theta = np.array([0.7, -0.2, 1.1])
        grads = np.stack([_spsa(f, theta, 0.1, rng)[0] for _ in range(10_000)])
        exact = 2 * coeffs * theta
        se = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
        assert np.all(np.abs(grads.mean(axis=0) - exact) < 3 * np.maximum(se, 1e-12))

    def test_constant_loss_gives_zero_gradient(self):
        g, mean = _spsa(lambda t: 5.0, np.ones(6), 0.1, np.random.default_rng(0))
        np.testing.assert_array_equal(g, np.zeros(6))
        assert mean == 5.0

    def test_two_evaluations_exactly(self):
        # two probes per sign vector, plus then minus, draw by draw
        deltas = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
        probes = spsa_probes(np.ones(3), deltas, 0.5)
        assert probes.shape == (4, 3)
        np.testing.assert_array_equal(probes, [[1.5, 0.5, 1.5], [0.5, 1.5, 0.5], [0.5, 0.5, 1.5], [1.5, 1.5, 0.5]])

    def test_probes_straddle_theta_and_mean_is_their_average(self):
        theta = np.array([0.5, -1.0, 2.0])
        delta = _signs(np.random.default_rng(2), 3)
        plus, minus = spsa_probes(theta, delta[None], 0.25)
        np.testing.assert_array_equal(np.abs(delta), np.ones(3))
        np.testing.assert_array_equal(plus, theta + 0.25 * delta)
        np.testing.assert_array_equal(minus, theta - 0.25 * delta)
        g, mean = spsa_gradient(np.array([plus.sum()]), np.array([minus.sum()]), delta[None], 0.25)
        assert mean == 0.5 * (plus.sum() + minus.sum())
        np.testing.assert_array_equal(g, (plus.sum() - minus.sum()) / 0.5 * delta)

    def test_positive_c_required(self):
        with pytest.raises(ValueError, match="positive"):
            spsa_gradient(np.zeros(1), np.zeros(1), np.ones((1, 2)), 0.0)


def _reference_signs(seed, epoch, batches, draws, n):
    """An epoch's (batches, draws, n) signs, each row from Generator.integers
    on its own stream."""
    return np.stack([
        np.stack([_signs(np.random.default_rng([seed, epoch, batch, 1, draw]), n) for draw in range(draws)])
        for batch in range(batches)
    ])


class TestSignDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5], ids=["0", "1", "2^32+5"])
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 1001])
    def test_signs_are_the_generator_integers_bits(self, seed, n):
        for epoch, batches, draws in [(0, 1, 1), (0, 2, 8), (2, 14, 3), (24, 22, 1), (40, 41, 12)]:
            got = spsa_signs(seed, epoch, batches, draws, n)
            assert got.dtype == np.float64 and got.shape == (batches, draws, n)
            want = _reference_signs(seed, epoch, batches, draws, n)
            for batch in range(batches):
                assert got[batch].tobytes() == want[batch].tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32 + 5], ids=["0", "2^32+5"])
    def test_a_batch_signs_do_not_depend_on_the_epoch_batch_count(self, seed):
        blocks = [spsa_signs(seed, 3, batches, 8, 33) for batches in (1, 13, 40)]
        for fewer, more in zip(blocks, blocks[1:]):
            assert fewer.tobytes() == more[: fewer.shape[0]].tobytes()

    @pytest.mark.parametrize("device", [IDEAL, DEV_A], ids=["ideal", "devA"])
    def test_training_equals_generator_signs(self, monkeypatch, device):
        # 3 batches of 16, 16 and a short 13 per epoch
        import qsteal.training as training_mod

        x, y = _tiny_task(n=45, d=8, k=4, seed=6)
        m = init_model(PQCTemplate("PQC19", 4), k=4, seed=3)
        cfg = TrainConfig(epochs=2, batch_size=16, spsa_draws=3)
        runs = []
        for signs in (spsa_signs, _reference_signs):
            monkeypatch.setattr(training_mod, "spsa_signs", signs)
            trained, hist = train(m, x, y, cfg, device, 11, x[:9], y[:9])
            stats = [[e.train_loss, e.test_accuracy, e.test_loss] for e in hist.epochs]
            runs.append((trained.flat_params(), np.array(stats)))
        (got, got_hist), (want, want_hist) = runs
        assert got.tobytes() == want.tobytes()
        assert got_hist.tobytes() == want_hist.tobytes()


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        out, state = adam_step(params, np.zeros(2), AdamState.zeros(2), lr=0.05)
        np.testing.assert_array_equal(out, params)
        assert state.t == 1

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~ -lr * sign(g)
        out, _ = adam_step(np.array([0.0]), np.array([1.0]), AdamState.zeros(1), lr=0.01)
        assert abs(out[0] + 0.01) < 1e-6

    def test_deterministic(self):
        params = np.array([0.3, 0.6])
        grads = np.array([0.1, -0.4])
        state = AdamState(np.array([0.01, 0.0]), np.array([0.001, 0.002]), 3)
        a = adam_step(params, grads, state, 0.01)
        b = adam_step(params, grads, state, 0.01)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1].t == b[1].t == 4

    def test_state_not_mutated(self):
        state = AdamState.zeros(2)
        adam_step(np.ones(2), np.ones(2), state, 0.01)
        assert state.t == 0
        np.testing.assert_array_equal(state.m, np.zeros(2))


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="mse")
        with pytest.raises(ValueError):
            TrainConfig(spsa_c=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(spsa_draws=0)

    def test_schedule_total_checked(self):
        with pytest.raises(ValueError, match="schedule covers"):
            normalize_schedule([(IDEAL, 3), (DEV_A, 3)], epochs=5)
        # a negative entry would otherwise make the total match a longer run
        with pytest.raises(ValueError, match="schedule entry 0 has a negative epoch count -1"):
            normalize_schedule([(IDEAL, -1), (DEV_A, 3)], epochs=2)

    def test_single_profile_expands(self):
        sched = normalize_schedule(IDEAL, epochs=7)
        assert sched == [(IDEAL, 7)]


def _tiny_task(n=12, d=4, k=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, (n, d))
    y = rng.integers(0, k, n)
    return x, y


class TestTrainLoop:
    def test_each_step_is_one_forward_probes_call(self, monkeypatch):
        import qsteal.model as model_mod
        import qsteal.training as training_mod

        calls = []
        original = model_mod.forward_probes

        def counting(model, flats, x, *args, **kwargs):
            calls.append((flats.shape[0], x.shape[0]))
            return original(model, flats, x, *args, **kwargs)

        def no_forward_batch(*args, **kwargs):
            raise AssertionError("training steps must not call forward_batch")

        monkeypatch.setattr(training_mod, "forward_probes", counting)
        monkeypatch.setattr(training_mod, "forward_batch", no_forward_batch)
        x, y = _tiny_task(n=10)
        m = init_model(PQCTemplate("PQC1", 2), k=2, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=4, loss="nll_top1", spsa_draws=3)
        train(m, x, y, cfg, DEV_A, seed=0)
        # epochs x batches calls, each with 2 x spsa_draws probes of one batch
        assert calls == [(6, 4), (6, 4), (6, 2)] * 2

    def test_each_step_is_one_spsa_gradient_call(self, monkeypatch):
        import qsteal.training as training_mod

        calls = []
        original = training_mod.spsa_gradient

        def counting(plus, minus, deltas, c):
            calls.append((plus.shape, minus.shape, deltas.shape, c))
            return original(plus, minus, deltas, c)

        monkeypatch.setattr(training_mod, "spsa_gradient", counting)
        x, y = _tiny_task(n=10)
        m = init_model(PQCTemplate("PQC1", 2), k=2, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=4, loss="nll_top1", spsa_draws=3, spsa_c=0.2)
        train(m, x, y, cfg, IDEAL, seed=0)
        # epochs x batches calls, each with every draw's two losses and sign vector
        assert calls == [((3,), (3,), (3, m.n_params), 0.2)] * (2 * 3)

    @pytest.mark.parametrize("loss", ["nll_top1", "kl_topk"])
    @pytest.mark.parametrize("shots", [None, 40], ids=["analytic", "shots"])
    def test_step_bookkeeping_is_bitwise_the_per_draw_loop(self, loss, shots):
        # each probe's mean loss from its own row, then one spsa_gradient
        # call per draw added up in draw order: the batched bookkeeping must
        # give the same bits for every draw count
        from qsteal.model import forward_probes, kl_terms, nll_terms
        from qsteal.training import _probe_losses

        rng = np.random.default_rng(4)
        x, y = _tiny_task(n=9, d=8, k=4, seed=2)
        targets = y if loss == "nll_top1" else rng.dirichlet(np.ones(4), 9)
        cfg = TrainConfig(loss=loss, shots=shots)
        m = init_model(PQCTemplate("PQC19", 3), k=4, seed=1)
        params = m.flat_params()
        for draws in range(1, 13):
            deltas = np.stack([_signs(rng, params.shape[0]) for _ in range(draws)])
            rngs = None if shots is None else [np.random.default_rng([draws, p]) for p in range(2 * draws)]
            probs = forward_probes(m, spsa_probes(params, deltas, 0.1), x, DEV_A, shots, rngs)
            terms = nll_terms(probs, targets) if loss == "nll_top1" else kl_terms(probs, targets)
            losses = [float(np.mean(row)) for row in terms]
            want_grad, want_mean = np.zeros_like(params), 0.0
            for draw, delta in enumerate(deltas):
                plus, minus = losses[2 * draw], losses[2 * draw + 1]
                want_grad += (plus - minus) / (2.0 * 0.1) * delta / draws
                want_mean += 0.5 * (plus + minus) / draws
            got_losses = _probe_losses(cfg, probs, targets)
            assert got_losses.tobytes() == np.array(losses).tobytes()
            grad, mean = spsa_gradient(got_losses[0::2], got_losses[1::2], deltas, 0.1)
            assert grad.tobytes() == want_grad.tobytes()
            assert np.float64(mean).tobytes() == np.float64(want_mean).tobytes()

    def test_history_length_and_finiteness(self):
        x, y = _tiny_task()
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=1)
        cfg = TrainConfig(epochs=3, batch_size=4, loss="nll_top1")
        trained, hist = train(m, x, y, cfg, IDEAL, seed=1, eval_features=x, eval_labels=y)
        assert len(hist.epochs) == 3
        for e in hist.epochs:
            assert np.isfinite(e.train_loss)
            assert np.isfinite(e.test_accuracy)
            assert np.isfinite(e.test_loss)

    def test_bitwise_reproducible(self):
        x, y = _tiny_task()
        cfg = TrainConfig(epochs=2, batch_size=4, loss="nll_top1")
        runs = []
        for _ in range(2):
            m = init_model(PQCTemplate("PQC19", 2), k=2, seed=5)
            trained, _ = train(m, x, y, cfg, IDEAL, seed=5)
            runs.append(trained.flat_params())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_soft_target_training(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2 * np.pi, (10, 4))
        targets = rng.dirichlet(np.ones(3), size=10)
        m = init_model(PQCTemplate("PQC19", 2), k=3, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=5, loss="kl_topk")
        trained, hist = train(m, x, targets, cfg, IDEAL, seed=2)
        assert len(hist.epochs) == 2
        assert not np.array_equal(trained.flat_params(), m.flat_params())

    def test_target_kind_mismatch_rejected(self):
        x, y = _tiny_task()
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        with pytest.raises(ValueError, match="probability targets"):
            train(m, x, y, TrainConfig(epochs=1, loss="kl_topk"), IDEAL, seed=0)

    def test_negative_label_rejected(self):
        x, y = _tiny_task()
        y = y.copy()
        y[0] = -1
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        with pytest.raises(ValueError, match="label -1"):
            train(m, x, y, TrainConfig(epochs=1, loss="nll_top1"), IDEAL, seed=0)

    def test_fractional_label_rejected(self):
        x, _ = _tiny_task(n=3)
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        with pytest.raises(ValueError, match="label 0.5 is not a whole number"):
            train(m, x, np.array([0.5, 1.7, 0.2]), TrainConfig(epochs=1), IDEAL, seed=0)

    @pytest.mark.parametrize(
        "targets, row",
        [([[2.0, -1.0], [0.5, 0.5]], 0), ([[0.5, 0.5], [0.0, 0.0]], 1)],
        ids=["negative", "unnormalised"],
    )
    def test_soft_target_rows_must_be_probability_vectors(self, targets, row):
        x, _ = _tiny_task(n=2)
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        with pytest.raises(ValueError, match=f"row {row} is not a probability vector"):
            train(m, x, np.array(targets), TrainConfig(epochs=1, loss="kl_topk"), IDEAL, seed=0)

    @pytest.mark.parametrize("given, missing", [("eval_features", "eval_labels"), ("eval_labels", "eval_features")])
    def test_half_an_eval_set_names_the_missing_argument(self, given, missing):
        # one without the other used to record NaN test fields silently
        x, y = _tiny_task()
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        half = {"eval_features": x, "eval_labels": y}
        with pytest.raises(ValueError, match=f"{missing} is missing"):
            train(m, x, y, TrainConfig(epochs=1), IDEAL, seed=0, **{given: half[given]})

    def test_empty_dataset_rejected(self):
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(m, np.zeros((0, 4)), np.zeros(0, dtype=int), TrainConfig(epochs=1), IDEAL, seed=0)

    def test_schedule_switches_profiles(self):
        x, y = _tiny_task()
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=4)
        cfg = TrainConfig(epochs=4, batch_size=6, loss="nll_top1")
        trained, hist = train(
            m, x, y, cfg, [(IDEAL, 3), (DEV_A, 1)], seed=4, eval_features=x, eval_labels=y
        )
        assert len(hist.epochs) == 4

    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_integer(self, monkeypatch, seed):
        import qsteal.training as training_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("a bad seed must not reach a draw")

        monkeypatch.setattr(training_mod, "spsa_signs", no_draw)
        monkeypatch.setattr(training_mod, "stream", no_draw)
        x, y = _tiny_task()
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        with pytest.raises(ValueError, match=f"training seed must be a nonnegative integer, got {seed!r}"):
            train(m, x, y, TrainConfig(epochs=1, batch_size=4), IDEAL, seed=seed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_before_any_step(self, monkeypatch, bad):
        import qsteal.training as training_mod

        def no_step(*args, **kwargs):
            raise AssertionError("a non-finite training set must not reach a step")

        monkeypatch.setattr(training_mod, "forward_probes", no_step)
        x, y = _tiny_task(n=40, d=8)
        x[17, 5] = bad
        x[30, 1] = np.nan
        m = init_model(PQCTemplate("PQC19", 4), k=2, seed=0)
        with pytest.raises(ValueError, match=f"feature row 17, column 5 is not finite: {bad}"):
            train(m, x, y, TrainConfig(epochs=1, batch_size=8), IDEAL, seed=0)


def _oracle_train(m, x, targets, cfg, schedule, seed, eval_x, eval_y):
    """train as a plain loop: each step's signs from Generator.integers on
    its own stream, and its probes through forward_probes on the batch's
    features, with no held rows."""
    from qsteal.model import forward_batch, forward_probes, mean_nll
    from qsteal.training import _probe_losses

    profiles = [p for p, count in normalize_schedule(schedule, cfg.epochs) for _ in range(count)]
    params, adam, history = m.flat_params(), AdamState.zeros(m.n_params), []
    for epoch, profile in enumerate(profiles):
        order = np.random.default_rng([seed, epoch, 0, 0]).permutation(x.shape[0])
        losses = []
        for b, start in enumerate(range(0, x.shape[0], cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            deltas = np.stack([
                _signs(np.random.default_rng([seed, epoch, b, 1, draw]), m.n_params) for draw in range(cfg.spsa_draws)
            ])
            rngs = None if cfg.shots is None else [
                np.random.default_rng([seed, epoch, b, side, draw]) for draw in range(cfg.spsa_draws) for side in (2, 3)
            ]
            probs = forward_probes(m, spsa_probes(params, deltas, cfg.spsa_c), x[idx], profile, cfg.shots, rngs)
            probe = _probe_losses(cfg, probs, targets[idx])
            grad, mean = spsa_gradient(probe[0::2], probe[1::2], deltas, cfg.spsa_c)
            params, adam = adam_step(params, grad, adam, cfg.learning_rate)
            losses.append(mean)
        probs = forward_batch(m.with_flat_params(params), eval_x, profile, cfg.shots,
                              np.random.default_rng([seed, epoch, 0, 4]))
        history.append([np.mean(losses), np.mean(probs.argmax(axis=1) == eval_y), mean_nll(probs, eval_y)])
    return params, np.array(history)


_SCHEDULES = {"ideal": IDEAL, "devA": DEV_A, "devA-devB": [(DEV_A, 1), (DEV_B, 1)]}


class TestHeldHeads:
    @pytest.mark.parametrize("schedule", list(_SCHEDULES))
    @pytest.mark.parametrize("width", [2, 4, 6])
    @pytest.mark.parametrize("template", ["PQC1", "PQC6", "PQC17", "PQC19"])
    def test_training_is_bitwise_the_unheld_loop(self, monkeypatch, template, width, schedule):
        # batches of 18 rows take the pulled-back picture except on 6 noise-free
        # qubits; the last batch, of 1 row or of width (<= m) rows, takes
        # another picture, so the steps of one call switch pictures.  The
        # head is held 12 samples at a time, the last chunk of 37 a single one
        import qsteal.circuits as circuits_mod

        monkeypatch.setattr(circuits_mod, "HOLD_ROWS", 12)
        m = init_model(PQCTemplate(template, width), k=3, seed=2)
        for n, draws, shots in [(37, 1, None), (36 + width, 2, 20)]:
            x, y = _tiny_task(n=n, d=8, k=3, seed=n)
            cfg = TrainConfig(epochs=2, batch_size=18, spsa_draws=draws, shots=shots)
            trained, hist = train(m, x, y, cfg, _SCHEDULES[schedule], 3, x[:5], y[:5])
            want, want_hist = _oracle_train(m, x, y, cfg, _SCHEDULES[schedule], 3, x[:5], y[:5])
            assert trained.flat_params().tobytes() == want.tobytes()
            got_hist = np.array([[e.train_loss, e.test_accuracy, e.test_loss] for e in hist.epochs])
            assert got_hist.tobytes() == want_hist.tobytes()

    @pytest.mark.parametrize(
        "template, width, schedule, n, held, step_heads, pulled_back",
        [
            # 4 steps meet the one held head; each epoch's 1-row step runs its own in the state picture
            ("PQC19", 4, "ideal", 37, 1, 2, 4),
            # one held head per device segment; the 4-row steps (<= m) evolve density matrices, with no head
            ("PQC19", 4, "devA-devB", 40, 2, 0, 4),
            # 18 rows on 6 noise-free qubits take the state picture: nothing is held, every step runs its head
            ("PQC19", 6, "ideal", 37, 0, 6, 0),
            # a segment of one step holds nothing: its step runs its own head
            ("PQC19", 4, "devA-devB", 18, 0, 2, 2),
        ],
    )
    def test_head_runs_once_per_segment_and_per_step_off_the_picture(
        self, monkeypatch, template, width, schedule, n, held, step_heads, pulled_back
    ):
        import qsteal.circuits as circuits_mod
        import qsteal.model as model_mod

        ran = {"held": 0, "step_heads": 0, "pulled_back": 0}
        holding = []
        hold_head, prefix, picture = model_mod.hold_head, circuits_mod.run_prefix, circuits_mod._pulled_back_picture

        def holding_head(*args):
            holding.append(True)
            out = hold_head(*args)
            holding.pop()
            ran["held"] += out is not None
            return out

        def step_head(*args):
            ran["step_heads"] += not holding
            return prefix(*args)

        def pulled(*args):
            ran["pulled_back"] += 1
            return picture(*args)

        monkeypatch.setattr(model_mod, "hold_head", holding_head)
        monkeypatch.setattr(circuits_mod, "run_prefix", step_head)
        monkeypatch.setattr(circuits_mod, "_pulled_back_picture", pulled)
        x, y = _tiny_task(n=n, d=8, k=3, seed=1)
        m = init_model(PQCTemplate(template, width), k=3, seed=2)
        train(m, x, y, TrainConfig(epochs=2, batch_size=18, spsa_draws=2), _SCHEDULES[schedule], 3)
        assert ran == {"held": held, "step_heads": step_heads, "pulled_back": pulled_back}
