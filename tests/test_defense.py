"""Defended victim services and obfuscation measurement."""

import numpy as np
import pytest

from qsteal.attack import AttackSpec
from qsteal.circuits import PQCTemplate
from qsteal.data import make_blobs, random_query_set, train_test_split
from qsteal.defense import (
    VictimService,
    baseline_of,
    draw_pairs,
    evaluate_defended_attack,
    havip,
    hvip,
    measure_obfuscation,
    no_defense,
    selection_probs,
)
from qsteal.devices import DEV_A, DEV_B, IDEAL
from qsteal.model import init_model
from qsteal.training import TrainConfig


@pytest.fixture(scope="module")
def model():
    return init_model(PQCTemplate("PQC19", 4), k=4, seed=7)


@pytest.fixture(scope="module")
def other_model():
    return init_model(PQCTemplate("PQC1", 4), k=4, seed=8)


class TestServiceConstruction:
    def test_hvip_needs_two_devices(self, model):
        with pytest.raises(ValueError, match="two devices"):
            hvip(model, [DEV_A])

    def test_hvip_devices_distinct(self, model):
        with pytest.raises(ValueError, match="distinct"):
            hvip(model, [DEV_A, DEV_A])

    def test_havip_needs_two_pairs(self, model):
        with pytest.raises(ValueError, match="two"):
            havip([(model, DEV_A)])

    def test_probs_must_sum_to_one(self, model):
        with pytest.raises(ValueError, match="sum"):
            hvip(model, [DEV_A, DEV_B], probs=[0.7, 0.7])

    def test_needs_a_pair(self):
        with pytest.raises(ValueError, match="at least one"):
            VictimService([])

    def test_negative_probability_rejected(self, model):
        with pytest.raises(ValueError, match="nonnegative"):
            hvip(model, [DEV_A, DEV_B], probs=[1.5, -0.5])

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.nan, np.nan], [0.5, np.inf]],
                             ids=["nan-first", "all-nan", "inf"])
    def test_non_finite_probability_rejected(self, model, probs):
        # a NaN entry passes both `p < 0` and `abs(sum - 1) > tol`; unchecked, every query drew pair 0
        with pytest.raises(ValueError, match="selection probabilities"):
            selection_probs(probs, 2)
        with pytest.raises(ValueError, match="selection probabilities"):
            hvip(model, [DEV_A, DEV_B], probs=probs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_must_be_a_nonnegative_integer(self, model, seed):
        with pytest.raises(ValueError, match="nonnegative integer"):
            no_defense(model, DEV_A, seed=seed)
        with pytest.raises(ValueError, match="nonnegative integer"):
            hvip(model, [DEV_A, DEV_B], seed=seed)
        with pytest.raises(ValueError, match="nonnegative integer"):
            hvip(model, [DEV_A, DEV_B]).reseeded(seed)

    def test_models_share_class_count(self, model):
        odd = init_model(PQCTemplate("PQC19", 4), k=3, seed=1)
        with pytest.raises(ValueError, match="class count"):
            havip([(model, DEV_A), (odd, DEV_B)])


class TestServing:
    def test_no_defense_analytic_is_deterministic(self, model):
        x = np.random.default_rng(0).uniform(0, 2 * np.pi, 8)
        svc = no_defense(model, IDEAL)
        np.testing.assert_array_equal(svc.reseeded(0).predict(x), svc.reseeded(1).predict(x))

    def test_selection_frequency_matches_policy(self):
        # selection statistics are independent of the pair contents, so two
        # renamed noiseless devices keep the 10^4 queries cheap
        from dataclasses import replace

        small = init_model(PQCTemplate("PQC1", 2), k=2, seed=0)
        twins = [replace(IDEAL, name="idealA"), replace(IDEAL, name="idealB")]
        svc = hvip(small, twins, probs=[0.5, 0.5], seed=11)
        x = np.zeros(4)
        for _ in range(10_000):
            svc.predict(x)
        freq = np.mean(np.array(svc.selection_log) == 0)
        assert abs(freq - 0.5) <= 0.02

    def test_zero_probability_pair_is_never_served(self):
        small = init_model(PQCTemplate("PQC1", 2), k=2, seed=0)
        svc = hvip(small, [IDEAL, DEV_A], probs=[1.0, 0.0], seed=3)
        for _ in range(50):
            svc.predict(np.zeros(4))
        assert svc.selection_log == [0] * 50

    def test_selection_is_not_leaked(self, model):
        svc = hvip(model, [DEV_A, DEV_B], seed=3)
        p = svc.predict(np.zeros(8))
        assert p.shape == (4,)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_reseeded_replays_identically(self, model):
        x = np.random.default_rng(1).uniform(0, 2 * np.pi, (20, 8))
        a = hvip(model, [DEV_A, DEV_B], seed=5)
        b = a.reseeded(5)
        pa = np.stack([a.predict(r) for r in x])
        pb = np.stack([b.predict(r) for r in x])
        np.testing.assert_array_equal(pa, pb)
        assert a.selection_log == b.selection_log


#: (probs, seed, first query, rows): the shipped 50/50 and 30/70 splits over
#: 20,000 rows, then uneven, zero-probability, multi-word-seed and offset cases over 5,000
DRAW_CASES = [
    ([0.5, 0.5], 11, 0, 20_000),
    ([0.3, 0.7], 12, 0, 20_000),
    ([0.9, 0.1], 13, 0, 5_000),
    ([0.123, 0.877], 14, 0, 5_000),
    ([0.2, 0.3, 0.5], 15, 0, 5_000),
    ([0.0, 1.0], 16, 0, 5_000),
    ([0.4, 0.0, 0.6], 17, 0, 5_000),
    ([0.3, 0.7], 2**40 + 5, 0, 5_000),
    ([0.5, 0.5], 18, 123_456, 5_000),
    ([0.5, 0.5], 0, 0, 2_000),
    ([0.3, 0.7], 2**32 - 1, 0, 2_000),
    ([0.3, 0.7], 2**32, 0, 2_000),
    ([0.2, 0.3, 0.5], 2**64 + 3, 0, 2_000),
    ([0.5, 0.5], 19, 2**32 - 3, 6),  # 1-word then 2-word indices in one call
    ([0.5, 0.5], 20, 0, 0),
]


class TestPairDraw:
    """The served pair is Generator.choice's draw on the stream [seed, i, 0],
    made without a Generator: a numpy that changed the stream would break it."""

    @pytest.mark.parametrize("probs, seed, first, rows", DRAW_CASES, ids=[str(c[:3]) for c in DRAW_CASES])
    def test_draw_equals_generator_choice(self, probs, seed, first, rows):
        probs = np.array(probs)
        want = [np.random.default_rng([seed, i, 0]).choice(len(probs), p=probs) for i in range(first, first + rows)]
        np.testing.assert_array_equal(draw_pairs(probs.cumsum() / probs.cumsum()[-1], seed, first, rows), want)

    @pytest.mark.parametrize("seed, first", [(-1, 0), (1, -1)])
    def test_negative_seed_or_query_index_is_refused(self, seed, first):
        with pytest.raises(ValueError, match="got -1"):
            draw_pairs(np.array([0.5, 1.0]), seed, first, 2)

    def test_service_log_follows_the_draw(self, model, other_model):
        svc = havip([(other_model, DEV_A), (model, DEV_B)], probs=[0.3, 0.7], seed=9)
        x = np.random.default_rng(5).uniform(0, 2 * np.pi, (40, 8))
        svc.predict(x[:7])
        svc.predict(x[7:])
        assert svc.selection_log == [np.random.default_rng([9, i, 0]).choice(2, p=[0.3, 0.7]) for i in range(40)]


def _services(model, other_model, shots, seed):
    return {
        "none": no_defense(model, DEV_A, shots, seed),
        "hvip": hvip(model, [DEV_A, DEV_B], shots=shots, seed=seed),
        "havip": havip([(other_model, DEV_A), (model, DEV_B)], shots=shots, seed=seed),
    }


class TestBatchedServing:
    @pytest.mark.parametrize("shots", [None, 100], ids=["analytic", "shots"])
    @pytest.mark.parametrize("policy", ["none", "hvip", "havip"])
    def test_batch_equals_the_per_query_loop(self, model, other_model, policy, shots):
        x = np.random.default_rng(2).uniform(0, 2 * np.pi, (23, 8))
        batched = _services(model, other_model, shots, 4)[policy]
        looped = _services(model, other_model, shots, 4)[policy]
        got = batched.predict(x)
        assert got.shape == (23, 4)
        np.testing.assert_array_equal(got, np.stack([looped.predict(r) for r in x]))
        assert batched.selection_log == looped.selection_log

    def test_consecutive_batches_equal_their_concatenation(self, model, other_model):
        x = np.random.default_rng(3).uniform(0, 2 * np.pi, (17, 8))
        split = _services(model, other_model, 100, 6)["havip"]
        whole = _services(model, other_model, 100, 6)["havip"]
        parts = np.concatenate([split.predict(x[:5]), split.predict(x[5:])])
        np.testing.assert_array_equal(parts, whole.predict(x))
        assert split.selection_log == whole.selection_log

    def test_calls_across_pick_blocks_equal_one_call(self, model, other_model):
        x = np.random.default_rng(6).uniform(0, 2 * np.pi, (300, 8))
        whole = _services(model, other_model, 100, 3)["havip"]
        want = whole.predict(x)
        split = _services(model, other_model, 100, 3)["havip"]
        bounds = np.cumsum([0, 1, 107, 64, 63, 65])  # two calls start inside a block and end past it
        got = np.concatenate([split.predict(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
        np.testing.assert_array_equal(got, want)
        assert split.selection_log == whole.selection_log
        again = split.reseeded(3)
        np.testing.assert_array_equal(again.predict(x[:70]), want[:70])
        assert again.selection_log == whole.selection_log[:70]

    def test_calls_of_fifty_rows_draw_every_other_call(self, model, other_model, monkeypatch):
        # a block of 2 * 50 queries covers two calls: 14 calls, the attack's 700 queries, make 7 draws
        import qsteal.defense as defense_mod

        x = np.random.default_rng(7).uniform(0, 2 * np.pi, (700, 8))
        whole = _services(model, other_model, None, 5)["havip"]
        want = whole.predict(x)
        draws = []
        original = defense_mod.draw_pairs
        monkeypatch.setattr(defense_mod, "draw_pairs", lambda *a: draws.append(a[2:]) or original(*a))
        split = _services(model, other_model, None, 5)["havip"]
        got = np.concatenate([split.predict(x[lo : lo + 50]) for lo in range(0, 700, 50)])
        assert draws == [(lo, 100) for lo in range(0, 700, 100)]
        np.testing.assert_array_equal(got, want)
        assert split.selection_log == whole.selection_log

    def test_failed_predict_leaves_the_log_unchanged(self, model, other_model, monkeypatch):
        import qsteal.model as model_mod

        x = np.random.default_rng(4).uniform(0, 2 * np.pi, (12, 8))
        svc = _services(model, other_model, None, 1)["havip"]
        svc.predict(x[:3])
        before = list(svc.selection_log)
        original = model_mod.forward_batch
        calls = []

        def fail_second_pair(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("device lost")
            return original(*args)

        monkeypatch.setattr(model_mod, "forward_batch", fail_second_pair)
        with pytest.raises(RuntimeError, match="device lost"):
            svc.predict(x[3:])
        monkeypatch.undo()
        assert svc.selection_log == before
        fresh = _services(model, other_model, None, 1)["havip"]
        fresh.predict(x[:3])
        np.testing.assert_array_equal(svc.predict(x[3:]), fresh.predict(x[3:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query_is_refused_before_any_draw(self, model, other_model, monkeypatch, bad):
        import qsteal.defense as defense_mod

        x = np.random.default_rng(5).uniform(0, 2 * np.pi, (6, 8))
        svc = _services(model, other_model, None, 2)["havip"]
        svc.predict(x[:2])
        before = list(svc.selection_log)
        poisoned = x[2:].copy()
        poisoned[2, 5] = bad

        def no_draw(*args):
            raise AssertionError("a refused query must not draw a pair")

        monkeypatch.setattr(defense_mod, "draw_pairs", no_draw)
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            svc.predict(poisoned)
        with pytest.raises(ValueError, match="query row 0 is not finite"):
            svc.predict(poisoned[2])
        monkeypatch.undo()
        assert svc.selection_log == before
        # the refused calls took no query number: the next answers are a fresh service's
        fresh = _services(model, other_model, None, 2)["havip"]
        fresh.predict(x[:2])
        np.testing.assert_array_equal(svc.predict(x[2:]), fresh.predict(x[2:]))
        assert svc.selection_log == fresh.selection_log

    def test_input_shape_checked(self, model):
        with pytest.raises(ValueError, match=r"\(B, d\)"):
            no_defense(model, IDEAL).predict(np.zeros((2, 3, 8)))


class TestObfuscation:
    def test_same_config_measures_zero(self, model):
        svc = no_defense(model, DEV_A, seed=1)
        qs = random_query_set(25, 8, seed=2)
        report = measure_obfuscation(svc, baseline_of(svc), qs, seeds=[1])
        assert report.mean_tvd == 0.0
        assert report.top1_mismatch_rate == 0.0

    def test_identically_configured_devices_look_undefended(self, model):
        dev_a_twin = DEV_A
        from dataclasses import replace

        twin = replace(DEV_A, name="devA2")
        svc = hvip(model, [dev_a_twin, twin], seed=4)
        qs = random_query_set(30, 8, seed=5)
        report = measure_obfuscation(svc, baseline_of(svc), qs, seeds=[0])
        assert report.mean_tvd < 0.01

    def test_distinct_devices_perturb(self, model):
        svc = hvip(model, [DEV_A, DEV_B], seed=6)
        qs = random_query_set(40, 8, seed=7)
        report = measure_obfuscation(svc, baseline_of(svc), qs, seeds=[0])
        assert report.mean_tvd > 0.0
        assert abs(report.mean_tvd - float(np.mean(report.per_query_tvd))) < 1e-15

    def test_mismatch_zero_when_tvd_zero(self, model):
        svc = no_defense(model, IDEAL, seed=1)
        qs = random_query_set(15, 8, seed=8)
        report = measure_obfuscation(svc, baseline_of(svc), qs, seeds=[2])
        assert report.mean_tvd == 0.0 and report.top1_mismatch_rate == 0.0


class TestDefendedAttack:
    def test_no_defense_vs_itself_zero_gap(self, model):
        task = make_blobs(4, 8, 30, 8.0, seed=1)
        train_ds, test_ds = train_test_split(task, seed=1, train_fraction=0.7)
        svc = no_defense(model, IDEAL, seed=2)
        spec = AttackSpec(mode="topk", da_size=24, clone_qubits=2, seed=3)
        result = evaluate_defended_attack(
            svc,
            spec,
            query_sources=[train_ds],
            d=8,
            train_cfg=TrainConfig(epochs=1, batch_size=8, spsa_draws=1),
            clone_profile=IDEAL,
            eval_data=test_ds,
            victim_accuracy=0.9,
        )
        assert result.accuracy_gap == 0.0
        assert result.defended == result.undefended
