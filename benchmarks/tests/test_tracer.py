"""The tracer's patching, parent links, self-time arithmetic and absent hooks."""

import sys
import types

import numpy as np
import pytest

from tracer import PASS, SETUP, Hook, Tracer, has_ancestor, self_times


def test_self_time_subtracts_direct_children_only():
    # root(10) -> a(4) -> c(1); root -> b(3)
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([10.0, 4.0, 1.0, 3.0])
    assert self_times(parent, dur).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_self_times_of_a_flat_list_are_the_durations():
    dur = np.array([0.5, 0.25, 2.0])
    assert self_times(np.array([-1, -1, -1]), dur).tolist() == dur.tolist()


@pytest.fixture
def fakepkg():
    """fakepkg.core defines inner/outer and a class; fakepkg.user imported inner."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec(
        "def inner(n):\n    return list(range(n))\n"
        "def outer(n):\n    return inner(n) + inner(n)\n"
        "class Thing:\n    def method(self, n):\n        return outer(n)\n",
        core.__dict__,
    )
    user.inner = core.inner
    user.use = lambda n: user.inner(n)
    pkg.core, pkg.user = core, user
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    yield core, user
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name, None)


def test_wraps_every_binding_and_restores_them(fakepkg):
    core, user = fakepkg
    inner, outer, method = core.inner, core.outer, core.Thing.method
    tracer = Tracer([Hook("fakepkg.core", "inner", lambda a, k, r: len(r)),
                     Hook("fakepkg.core", "outer"),
                     Hook("fakepkg.core", "Thing.method")], "fakepkg")
    with tracer.active(PASS):
        assert core.Thing().method(3) == [0, 1, 2, 0, 1, 2]
        assert user.use(2) == [0, 1]
    assert core.inner is inner and user.inner is inner
    assert core.outer is outer and core.Thing.__dict__["method"] is method
    calls = tracer.site_calls()
    assert calls == {"fakepkg.core.inner": 2, "fakepkg.user.inner": 1,
                     "fakepkg.core.outer": 1, "fakepkg.core.Thing.method": 1}
    stats = tracer.stats(PASS)
    assert stats["fakepkg.core.inner"].calls == 3
    assert stats["fakepkg.core.inner"].rows == 3 + 3 + 2
    assert tracer.stats(SETUP)["fakepkg.core.inner"].calls == 0


def test_parent_links_and_self_time_match_the_call_tree(fakepkg):
    core, _ = fakepkg
    tracer = Tracer([Hook("fakepkg.core", "inner"), Hook("fakepkg.core", "outer")], "fakepkg")
    with tracer.active(PASS):
        core.outer(1000)
    a = tracer.arrays()
    # span 0 is outer, spans 1 and 2 its two inner calls
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["self"][0] == a["dur"][0] - a["dur"][1] - a["dur"][2]
    assert a["self"][1] == a["dur"][1]
    outer_id = [h.key for h in tracer.hooks].index("fakepkg.core.outer")
    assert has_ancestor(a["parent"], a["hook"], 2, outer_id)
    assert not has_ancestor(a["parent"], a["hook"], 0, outer_id)


def test_missing_names_are_reported_absent(fakepkg):
    tracer = Tracer([Hook("fakepkg.core", "gone"), Hook("fakepkg.core", "Thing.gone"),
                     Hook("fakepkg.nomodule", "f"), Hook("fakepkg.core", "inner")], "fakepkg")
    with tracer.active(PASS):
        pass
    assert set(tracer.absent) == {"fakepkg.core.gone", "fakepkg.core.Thing.gone", "fakepkg.nomodule.f"}
    assert [site for site, _ in tracer.sites] == ["fakepkg.core.inner", "fakepkg.user.inner"]


def test_required_binding_with_zero_calls_fails_a_check(fakepkg):
    import run
    from checks import Tally

    core, _ = fakepkg
    tracer = Tracer([Hook("fakepkg.core", "inner"), Hook("fakepkg.core", "gone")], "fakepkg")
    with tracer.active(PASS):
        core.inner(1)
    tally = Tally()
    run.required_checks(tracer, ("fakepkg.core.inner", "fakepkg.user.inner", "fakepkg.core.gone"), tally)
    assert [(name, ok) for name, ok, _ in tally.checks] == [
        ("traced binding fakepkg.core.inner records calls", True),
        ("traced binding fakepkg.user.inner records calls", False),
    ]
    assert tally.failed == 1 and not tally.correct


def test_reset_caches_empties_every_cache_in_the_package(fakepkg):
    import functools

    import run

    core, user = fakepkg
    core.square = functools.lru_cache(maxsize=None)(lambda n: n * n)
    user.square = core.square
    core.square(3)
    assert core.square.cache_info().currsize == 1
    assert run.reset_caches("fakepkg") == 1
    assert core.square.cache_info().currsize == 0
