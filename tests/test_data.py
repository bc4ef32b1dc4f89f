"""Dataset loading, scaling, synthetic blobs, and query set construction."""

import numpy as np
import pytest

from qsteal.data import (
    DatasetError,
    LabeledDataset,
    load_csv,
    make_blobs,
    make_npd_sources,
    mixed_query_set,
    random_query_set,
    scale_features,
    train_test_split,
)

TWO_PI = 2 * np.pi


class TestCsv:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("0.5,1.25,7\n0.25,2.5,3\n0.1,0.2,7\n")
        ds = load_csv(path, d=2)
        assert ds.n == 3 and ds.d == 2
        # labels remapped densely in order of first appearance: 7 -> 0, 3 -> 1
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.k == 2

    def test_header_ignored(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f1,f2,label\n0.5,1.5,0\n1.0,2.0,1\n")
        assert load_csv(path, d=2).n == 2

    def test_header_after_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("\n  \nf1,f2,label\n0.5,1.5,0\n1.0,2.0,1\n")
        assert load_csv(path, d=2).n == 2

    def test_header_only_on_the_first_non_blank_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("0.5,1.5,0\nf1,f2,label\n")
        with pytest.raises(DatasetError, match=":2:"):
            load_csv(path, d=2)

    @pytest.mark.parametrize("label", ["1.5", "nan", "inf", "-inf"])
    def test_non_integer_label_reports_line(self, tmp_path, label):
        path = tmp_path / "ds.csv"
        path.write_text(f"f1,f2,label\n0.5,1.5,0\n\n1.0,2.0,{label}\n")
        with pytest.raises(DatasetError, match=f"ds.csv:4: label .* is not an integer"):
            load_csv(path, d=2)

    def test_integral_float_label_loads(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("0.5,1.5,2.0\n1.0,2.0,1e0\n")
        np.testing.assert_array_equal(load_csv(path, d=2).labels, [0, 1])

    def test_width_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DatasetError, match=":2:"):
            load_csv(path, d=2)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(path, d=2)

    def test_repr_text_loads_bitwise(self, tmp_path):
        # features written with repr load bitwise; labels remap in order of first appearance
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.uniform(0, TWO_PI, (20, 5)), rng.integers(0, 3, 20), k=3)
        path = tmp_path / "ds.csv"
        path.write_text("".join(
            ",".join(repr(x) for x in row) + f",{label}\n" for row, label in zip(ds.features.tolist(), ds.labels)
        ))
        loaded = load_csv(path, d=5)
        np.testing.assert_array_equal(loaded.features, ds.features)
        first_seen = list(dict.fromkeys(ds.labels.tolist()))
        np.testing.assert_array_equal(loaded.labels, [first_seen.index(label) for label in ds.labels])


class TestScaling:
    def test_bounds_hit_exactly(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.normal(size=(30, 4)) * 5, rng.integers(0, 2, 30), k=2)
        scaled = scale_features(ds)
        np.testing.assert_allclose(scaled.features.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.features.max(axis=0), TWO_PI, atol=1e-12)

    def test_constant_column_maps_to_pi(self):
        feats = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        ds = LabeledDataset(feats, np.zeros(3, dtype=int), k=1)
        scaled = scale_features(ds)
        np.testing.assert_array_equal(scaled.features[:, 1], [np.pi] * 3)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            feats = rng.normal(size=(25, 3)) * rng.uniform(0.1, 10)
            ds = LabeledDataset(feats, rng.integers(0, 2, 25), k=2)
            once = scale_features(ds)
            twice = scale_features(once)
            np.testing.assert_allclose(twice.features, once.features, atol=1e-12)

    def test_nan_features_rejected(self):
        feats = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(DatasetError, match="NaN"):
            LabeledDataset(feats, np.zeros(2, dtype=int), k=1)


class TestSplit:
    def test_fraction_split(self):
        ds = make_blobs(2, 4, 50, 4.0, seed=0)
        tr, te = train_test_split(ds, seed=1, train_fraction=0.7)
        assert tr.n == 70 and te.n == 30

    def test_explicit_size(self):
        ds = make_blobs(4, 8, 150, 8.0, seed=0)
        tr, te = train_test_split(ds, seed=1, train_size=400)
        assert tr.n == 400 and te.n == 200

    def test_disjoint_and_complete(self):
        ds = make_blobs(2, 4, 20, 4.0, seed=2)
        tr, te = train_test_split(ds, seed=3, train_fraction=0.5)
        combined = np.vstack([tr.features, te.features])
        assert combined.shape == ds.features.shape
        assert {tuple(r) for r in combined} == {tuple(r) for r in ds.features}


class TestBlobs:
    def test_deterministic(self):
        a = make_blobs(4, 8, 10, 8.0, seed=5)
        b = make_blobs(4, 8, 10, 8.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_scaled_output(self):
        ds = make_blobs(3, 6, 40, 6.0, seed=1)
        assert ds.features.min() >= 0.0 and ds.features.max() <= TWO_PI

    def test_zero_separation_indistinguishable(self):
        ds = make_blobs(4, 8, 100, 0.0, seed=9)
        # class-conditional means coincide up to sampling noise
        overall = ds.features.mean(axis=0)
        for c in range(4):
            cls = ds.features[ds.labels == c].mean(axis=0)
            assert np.max(np.abs(cls - overall)) < 0.5

    def test_class_counts_balanced(self):
        ds = make_blobs(4, 8, 25, 8.0, seed=3)
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [25] * 4)

    def test_npd_sources_are_distinct(self):
        sources = make_npd_sources(4, 8, 30, 8.0, base_seed=11)
        assert len(sources) == 3
        assert len({s.name for s in sources}) == 3
        assert not np.array_equal(sources[0].features, sources[1].features)


class TestQuerySets:
    def test_mixed_share_rule(self):
        sources = make_npd_sources(4, 8, 100, 8.0, base_seed=1)
        qs = mixed_query_set(sources, 700, seed=2)
        assert qs.m == 700
        # shares 234/233/233: earlier sources absorb the remainder
        base, extra = divmod(700, 3)
        assert base == 233 and extra == 1

    def test_single_source_subsample(self):
        src = make_blobs(2, 4, 50, 4.0, seed=4)
        qs = mixed_query_set([src], 30, seed=5)
        rows = {tuple(r) for r in src.features}
        assert all(tuple(r) in rows for r in qs.features)

    def test_dimension_mismatch_rejected(self):
        a = make_blobs(2, 4, 10, 4.0, seed=1)
        b = make_blobs(2, 6, 10, 4.0, seed=1)
        with pytest.raises(DatasetError, match="dimension"):
            mixed_query_set([a, b], 10, seed=0)

    def test_random_uniform_bounds(self):
        qs = random_query_set(500, 8, seed=6)
        assert qs.features.shape == (500, 8)
        assert qs.features.min() >= 0.0 and qs.features.max() <= TWO_PI
        assert np.all(np.isfinite(qs.features))

    def test_provenance_recorded(self):
        sources = make_npd_sources(2, 4, 20, 4.0, base_seed=8)
        assert mixed_query_set(sources, 10, seed=0).provenance[0] == "mixed"
        assert random_query_set(10, 4, seed=0).provenance == ("random",)

    def test_deterministic(self):
        a = random_query_set(20, 4, seed=42).features
        b = random_query_set(20, 4, seed=42).features
        np.testing.assert_array_equal(a, b)
