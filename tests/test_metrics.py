"""Metric primitives."""

from dataclasses import replace

import numpy as np
import pytest

from qsteal.circuits import PQCTemplate
from qsteal.data import LabeledDataset
from qsteal.devices import DEV_A, IDEAL
from qsteal.metrics import accuracy, clone_ratio, mismatch_rate, tvd
from qsteal.model import forward_batch, init_model


class TestTvd:
    def test_identical_is_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert tvd(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert tvd([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_value(self):
        assert abs(tvd([0.6, 0.4], [0.4, 0.6]) - 0.2) < 1e-12

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p, q, r = rng.dirichlet(np.ones(4), size=3)
            d_pq, d_qp = tvd(p, q), tvd(q, p)
            assert 0.0 <= d_pq <= 1.0
            assert abs(d_pq - d_qp) < 1e-12  # symmetry
            assert tvd(p, p) == 0.0  # identity
            assert tvd(p, r) <= d_pq + tvd(q, r) + 1e-12  # triangle

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="not a probability distribution"):
            tvd([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="not a probability distribution"):
            tvd([1.5, -0.5], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]])
    def test_rejects_nan_entries(self, bad):
        # NaN fails every comparison, so a check that a bad sum exceeds the tolerance lets it through
        with pytest.raises(ValueError, match="p is not a probability distribution"):
            tvd(bad, [0.5, 0.5])
        with pytest.raises(ValueError, match="q is not a probability distribution"):
            tvd([0.5, 0.5], bad)


class TestRowwiseTvd:
    """tvd on two (B, k) stacks: each row's distance, as its own call gives it."""

    @pytest.mark.parametrize("k", [2, 4, 7, 16])
    def test_rows_equal_the_single_calls_byte_for_byte(self, k):
        rng = np.random.default_rng(k)
        p, q = rng.dirichlet(np.ones(k), size=(2, 60))
        got = tvd(p, q)
        assert got.shape == (60,)
        assert got.tobytes() == np.array([tvd(a, b) for a, b in zip(p, q)]).tobytes()

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.5, -0.5], [0.5, 0.6]], ids=["nan", "negative", "unnormalised"])
    def test_a_bad_row_is_named(self, bad):
        good = np.full((4, 2), 0.5)
        stack = good.copy()
        stack[2] = bad
        with pytest.raises(ValueError, match="p row 2 is not a probability distribution"):
            tvd(stack, good)
        with pytest.raises(ValueError, match="q row 2 is not a probability distribution"):
            tvd(good, stack)

    @pytest.mark.parametrize("p, q", [
        ([0.5, 0.5], [[0.5, 0.5]]),
        ([[0.5, 0.5]] * 2, [[0.5, 0.5]] * 3),
        ([[0.5, 0.5]], [[0.25, 0.25, 0.5]]),
    ])
    def test_shape_mismatch_rejected(self, p, q):
        with pytest.raises(ValueError, match="differ in shape"):
            tvd(p, q)

    @pytest.mark.parametrize("shape", [(), (1, 2, 2)], ids=["0-d", "3-D"])
    def test_other_dimensions_rejected(self, shape):
        p = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=r"p must be a distribution \(k,\) or a stack"):
            tvd(p, p)


class TestMismatchRate:
    def test_identical(self):
        assert mismatch_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_fully_disjoint(self):
        assert mismatch_rate([0, 0, 0], [1, 1, 1]) == 1.0

    def test_counting(self):
        a = list(range(10))
        b = list(range(10))
        b[4] = 99
        assert mismatch_rate(a, b) == 0.1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal"):
            mismatch_rate([1, 2], [1, 2, 3])


class TestCloneRatio:
    def test_published_accuracy_ratios(self):
        assert round(clone_ratio(0.880, 0.896), 3) == 0.982
        assert round(clone_ratio(0.680, 0.796), 3) == 0.854

    def test_equal_accuracies(self):
        assert clone_ratio(0.5, 0.5) == 1.0

    def test_zero_victim_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            clone_ratio(0.5, 0.0)

    @pytest.mark.parametrize("victim", [np.nan, float("nan"), -0.25])
    def test_nan_or_negative_victim_rejected(self, victim):
        with pytest.raises(ValueError, match="positive"):
            clone_ratio(0.5, victim)


class TestAccuracy:
    def _dataset(self, seed=0):
        rng = np.random.default_rng(seed)
        return LabeledDataset(
            rng.uniform(0, 2 * np.pi, (30, 4)), rng.integers(0, 3, 30), k=3
        )

    def test_uniform_model_predicts_class_zero(self):
        ds = self._dataset()
        m = init_model(PQCTemplate("PQC19", 2), k=3, seed=1)
        flat = replace(m, weights=np.zeros((3, 2)), bias=np.zeros(3))
        # argmax of the uniform vector is class 0 by the lowest-index tie rule
        expected = float(np.mean(ds.labels == 0))
        assert accuracy(flat, ds) == expected

    def test_permutation_invariance(self):
        ds = self._dataset(3)
        m = init_model(PQCTemplate("PQC19", 2), k=3, seed=2)
        order = np.random.default_rng(5).permutation(ds.n)
        shuffled = LabeledDataset(ds.features[order], ds.labels[order], k=3)
        assert accuracy(m, ds) == accuracy(m, shuffled)

    def test_empty_rejected(self):
        m = init_model(PQCTemplate("PQC19", 2), k=2, seed=0)
        empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), k=2)
        with pytest.raises(ValueError, match="nonempty"):
            accuracy(m, empty)

    @pytest.mark.parametrize("profile", [IDEAL, DEV_A], ids=lambda p: p.name)
    @pytest.mark.parametrize("shots", [None, 64], ids=["analytic", "64-shots"])
    def test_equals_one_forward_batch_over_all_rows(self, profile, shots):
        # 700 rows, more than one evaluation chunk: the rows' shot draws must
        # follow one another in a single default_rng(seed) stream.  Labelled
        # with that call's predictions, any row predicted otherwise drops
        # the accuracy below 1.
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 2 * np.pi, (700, 4))
        # a head wide enough that every class wins somewhere
        m = replace(init_model(PQCTemplate("PQC19", 2), k=3, seed=4), weights=rng.normal(0, 3, (3, 2)))
        predicted = forward_batch(m, x, profile, shots, np.random.default_rng(6)).argmax(axis=1)
        assert len(set(predicted)) > 1
        assert accuracy(m, LabeledDataset(x, predicted, k=3), profile, shots, seed=6) == 1.0
