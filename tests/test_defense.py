"""Defended victim services and obfuscation measurement."""

import numpy as np
import pytest

from qsteal.attack import AttackSpec
from qsteal.circuits import PQCTemplate
from qsteal.data import make_blobs, random_query_set, train_test_split
from qsteal.defense import (
    VictimService,
    baseline_of,
    evaluate_defended_attack,
    havip,
    hvip,
    measure_obfuscation,
    no_defense,
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
