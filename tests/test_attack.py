"""Victim querying, adversarial datasets, and clone training plumbing."""

import json
import os

import numpy as np
import pytest

from qsteal.attack import (
    AdversarialDataset,
    AttackReport,
    AttackSpec,
    QueryError,
    query_victim,
    run_attack_suite,
    save_reports,
    train_clone,
)
from qsteal.circuits import PQCTemplate
from qsteal.data import LabeledDataset, QuerySet, random_query_set
from qsteal.defense import no_defense
from qsteal.devices import IDEAL
from qsteal.model import init_model
from qsteal.training import TrainConfig


class UniformStub:
    """A black-box service exposing only predict; always uniform over 4."""

    def predict(self, x):
        return np.full((len(x), 4), 0.25)


class FlakyStub:
    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def predict(self, x):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("transient")
        return np.tile([0.7, 0.3], (len(x), 1))


class TestQueryVictim:
    def test_black_box_stub_suffices(self):
        # the attack touches nothing beyond .predict
        qs = random_query_set(10, 8, seed=1)
        da = query_victim(UniformStub(), qs, "topk")
        assert da.m == 10 and da.k == 4
        np.testing.assert_allclose(da.responses, 0.25)

    def test_victim_internals_are_not_read(self):
        class GuardedStub(UniformStub):
            @property
            def selection_log(self):
                raise RuntimeError("victim internals read")

        qs = random_query_set(3, 8, seed=1)
        da = query_victim(GuardedStub(), qs, "topk")
        assert da.m == 3

    def test_top1_tie_breaks_to_lowest_index(self):
        qs = random_query_set(5, 8, seed=2)
        da = query_victim(UniformStub(), qs, "top1")
        np.testing.assert_array_equal(da.responses, np.zeros(5, dtype=int))

    def test_size_preserved(self):
        qs = random_query_set(700, 4, seed=3)
        da = query_victim(UniformStub(), qs, "topk")
        assert da.m == 700

    def test_deterministic_with_real_service(self):
        m = init_model(PQCTemplate("PQC19", 2), k=3, seed=1)
        qs = random_query_set(8, 4, seed=4)
        a = query_victim(no_defense(m, IDEAL, seed=9), qs, "topk")
        b = query_victim(no_defense(m, IDEAL, seed=9), qs, "topk")
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_retries_then_succeeds(self):
        qs = random_query_set(1, 4, seed=5)
        da = query_victim(FlakyStub(fail_times=2), qs, "topk", retries=2)
        assert da.m == 1

    def test_whole_query_set_is_one_predict_call_retried_as_a_unit(self):
        stub = FlakyStub(fail_times=2)
        da = query_victim(stub, random_query_set(9, 4, seed=5), "top1", retries=2)
        assert stub.calls == 3
        np.testing.assert_array_equal(da.responses, np.zeros(9, dtype=int))

    def test_batched_responses_equal_one_query_at_a_time(self):
        m = init_model(PQCTemplate("PQC19", 2), k=3, seed=1)
        qs = random_query_set(8, 4, seed=4)
        da = query_victim(no_defense(m, IDEAL, seed=9), qs, "topk")
        svc = no_defense(m, IDEAL, seed=9)
        np.testing.assert_array_equal(da.responses, np.stack([svc.predict(x) for x in qs.features]))

    def test_misshapen_response_rejected(self):
        class OneRowStub:
            def predict(self, x):
                return np.full((1, 4), 0.25)

        with pytest.raises(ValueError, match="answered 3 queries"):
            query_victim(OneRowStub(), random_query_set(3, 4, seed=1), "topk")

    def test_persistent_failure_surfaces_with_count(self):
        qs = random_query_set(1, 4, seed=5)
        with pytest.raises(QueryError, match="after 2 retries"):
            query_victim(FlakyStub(fail_times=10), qs, "topk", retries=2)

    def test_empty_query_set_rejected_before_any_predict(self):
        stub = FlakyStub(fail_times=0)
        with pytest.raises(ValueError, match="query set is empty"):
            query_victim(stub, QuerySet(np.zeros((0, 4)), ()), "topk")
        assert stub.calls == 0

    def test_topk_rows_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AdversarialDataset(np.zeros((2, 4)), np.full((2, 3), 0.5), "topk", k=3)


class TestTrainClone:
    def test_mode_loss_mismatch_rejected(self):
        da = AdversarialDataset(
            np.random.default_rng(0).uniform(0, 2 * np.pi, (4, 4)),
            np.array([0, 1, 0, 1]),
            "top1",
            k=2,
        )
        cfg = TrainConfig(epochs=1, loss="kl_topk")
        with pytest.raises(ValueError, match="nll_top1"):
            train_clone(da, PQCTemplate("PQC19", 2), cfg, IDEAL, seed=0)

    def test_empty_dataset_rejected(self):
        da = AdversarialDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), "top1", k=2)
        with pytest.raises(ValueError, match="empty"):
            train_clone(da, PQCTemplate("PQC19", 2), TrainConfig(epochs=1), IDEAL, seed=0)

    def test_trains_on_soft_labels(self):
        rng = np.random.default_rng(1)
        responses = rng.dirichlet(np.ones(3), size=12)
        da = AdversarialDataset(rng.uniform(0, 2 * np.pi, (12, 4)), responses, "topk", k=3)
        cfg = TrainConfig(epochs=1, batch_size=6, loss="kl_topk", spsa_draws=1)
        clone, hist = train_clone(da, PQCTemplate("PQC19", 2), cfg, IDEAL, seed=3)
        assert clone.k == 3
        assert len(hist.epochs) == 1

    def test_clone_width_independent_of_victim(self):
        rng = np.random.default_rng(2)
        responses = rng.dirichlet(np.ones(4), size=10)
        da = AdversarialDataset(rng.uniform(0, 2 * np.pi, (10, 8)), responses, "topk", k=4)
        cfg = TrainConfig(epochs=1, batch_size=5, loss="kl_topk", spsa_draws=1)
        clone, _ = train_clone(da, PQCTemplate("PQC19", 8), cfg, IDEAL, seed=0)
        assert clone.n_qubits == 8

    @pytest.mark.parametrize("shots", [None, 64], ids=["analytic", "shots"])
    def test_no_profile_trains_as_the_ideal_device(self, shots):
        # forward_batch runs profile None as the noise-free circuit; training must too
        rng = np.random.default_rng(4)
        da = AdversarialDataset(rng.uniform(0, 2 * np.pi, (12, 4)), rng.dirichlet(np.ones(3), size=12), "topk", k=3)
        cfg = TrainConfig(epochs=2, batch_size=6, loss="kl_topk", spsa_draws=2, shots=shots)
        held_out = LabeledDataset(rng.uniform(0, 2 * np.pi, (6, 4)), np.arange(6) % 3, k=3)
        runs = [train_clone(da, PQCTemplate("PQC19", 2), cfg, profile, 5, held_out) for profile in (None, IDEAL)]
        (plain, plain_hist), (ideal, ideal_hist) = runs
        assert np.array_equal(plain.flat_params(), ideal.flat_params())
        assert plain_hist == ideal_hist


class TestSpec:
    @pytest.mark.parametrize(
        "field, value, match",
        [("mode", "bogus", "mode"), ("query_kind", "bogus", "query_kind"), ("da_size", 0, "da_size"),
         ("clone_template", "PQC99", "unknown template"), ("clone_qubits", 1, "at least 2"),
         ("clone_qubits", 9, "8-qubit cap"), ("clone_layers", 0, "layers")],
    )
    def test_invalid_field_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            AttackSpec(**{field: value})


class TestReports:
    def _report(self, seed=0):
        return AttackReport(
            victim_accuracy=0.9,
            clone_accuracy=0.81,
            ratio=0.81 / 0.9,
            mode="topk",
            da_size=700,
            query_kind="mixed",
            clone_template="PQC19",
            clone_qubits=4,
            seed=seed,
        )

    def test_ratio_recomputes_exactly(self):
        r = self._report()
        assert r.ratio == r.clone_accuracy / r.victim_accuracy

    def test_jsonl_roundtrip(self, tmp_path):
        reports = [self._report(s) for s in range(3)]
        path = tmp_path / "reports.jsonl"
        save_reports(reports, path)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"victim_accuracy": 0.9, "clone_accuracy": 0.81, "ratio": 0.81 / 0.9, "mode": "topk", "da_size": 700,
             "query_kind": "mixed", "clone_template": "PQC19", "clone_qubits": 4, "seed": s}
            for s in range(3)
        ]

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "reports.jsonl"
        save_reports([self._report(1)], path)
        before = path.read_bytes()
        real_fdopen = os.fdopen

        class HalfWritten:
            """A file that takes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWritten(real_fdopen(fd, mode)))
        with pytest.raises(OSError, match="No space"):
            save_reports([self._report(s) for s in range(3)], path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_suite_isolates_cell_failures(self):
        class ExplodingService:
            def predict(self, x):
                raise RuntimeError("down")

        specs = [AttackSpec(seed=1), AttackSpec(seed=2)]
        reports, errors = run_attack_suite(
            ExplodingService(),
            specs,
            query_sources=[],
            d=4,
            train_cfg=TrainConfig(epochs=1),
            clone_profile=IDEAL,
            eval_data=None,
            victim_accuracy=0.9,
        )
        assert reports == []
        assert len(errors) == 2 and all("down" in msg or "source" in msg for _, msg in errors)
