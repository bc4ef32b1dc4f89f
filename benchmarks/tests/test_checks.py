"""Failure accounting, response checks and the percentile sample-count rule."""

import numpy as np
import pytest

from checks import Tally, bad_responses, check_responses, latency_summary


def test_p99_only_with_a_thousand_samples():
    rng = np.random.default_rng(0)
    short = latency_summary(rng.uniform(size=999))
    assert short["n"] == 999 and "p50_ms" in short and "p99_ms" not in short
    full = latency_summary(np.arange(1, 1001) / 1e3)
    assert full["n"] == 1000
    assert full["p50_ms"] == pytest.approx(500.5)
    assert full["p99_ms"] == pytest.approx(np.percentile(np.arange(1, 1001), 99))


def test_a_failing_check_counts_in_failed_frac():
    tally = Tally()
    tally.ops(99)
    assert tally.check("good", True)
    assert not tally.check("deliberately wrong", 1 + 1 == 3, "arithmetic")
    assert (tally.attempted, tally.failed) == (101, 1)
    assert tally.failed_frac == pytest.approx(1 / 101)
    assert not tally.correct
    assert tally.errors == ["deliberately wrong: arithmetic"]


def test_each_invalid_response_is_one_failure():
    good = np.full((5, 4), 0.25)
    bad = good.copy()
    bad[1, 0] = -0.01
    bad[1, 1] += 0.01
    bad[2, 3] = np.nan
    bad[4, 0] += 2e-9
    assert bad_responses(good).tolist() == []
    assert bad_responses(bad).tolist() == [1, 2, 4]
    tally = Tally()
    check_responses(tally, "served", bad)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert not tally.correct


def test_a_disagreeing_oracle_is_a_failed_check(monkeypatch):
    import oracle
    import workloads
    from qsteal import init_model
    from qsteal.circuits import PQCTemplate

    m = init_model(PQCTemplate("PQC19", 4), 4, 0)
    xs = np.random.default_rng(1).uniform(0, 2 * np.pi, (2, 8))
    profiles = workloads.registry_profiles()
    tally = Tally()
    workloads.check_oracle(tally, "victim", m, xs, profiles)
    assert tally.correct and tally.attempted == 3

    real = oracle.expectations
    monkeypatch.setattr(oracle, "expectations", lambda *a: real(*a) + 1e-6)
    workloads.check_oracle(tally, "victim", m, xs, profiles[:1])
    assert (tally.attempted, tally.failed) == (4, 1)


def test_pass_seconds_weights_each_kinds_median_by_its_calls_per_pass():
    import run

    # two passes of 2 predicts and 1 query_victim each; one slow predict
    samples = {"predict": [0.003, 0.001, 0.002, 0.009], "query_victim": [0.5, 0.7]}
    per_pass = {"predict": 2, "query_victim": 1}
    assert run.pass_seconds(samples, per_pass) == pytest.approx(2 * 0.0025 + 0.6)
    assert np.isnan(run.pass_seconds({}, {}))


def test_calls_times_each_call_under_its_kind():
    from workloads import Calls

    calls = Calls()
    assert calls("add", lambda a, b: a + b, 1, 2) == 3
    calls("add", sum, [1])
    calls("other", len, "ab")
    assert {k: len(v) for k, v in calls.times.items()} == {"add": 2, "other": 1}
    assert all(t >= 0 for v in calls.times.values() for t in v)


def test_reference_runs_for_its_share_of_workload_time():
    from reference import SHARE, Reference

    ref = Reference()
    assert ref.kernel() == ref.kernel()
    ref.after_call(0.2)
    spent = sum(ref.times)
    assert spent >= SHARE * 0.2
    # it stops with the first call that reaches the share
    assert spent - ref.times[-1] < SHARE * 0.2
    n = len(ref.times)
    ref.after_call(0.0)
    assert len(ref.times) == n
