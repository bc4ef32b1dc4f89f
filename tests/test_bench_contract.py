"""The benchmark's view of qsteal still matches the package.

`benchmarks/layers.py` names the functions its tracer hooks, and each
workload in `benchmarks/workloads.py` names the bindings it must see
calls through.  A renamed or deleted function would otherwise only show
up as "absent" in a traced benchmark run.  Both files are only imported.
"""

import importlib
import sys
from functools import reduce
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402


def _lookup(module: str, dotted: str):
    return reduce(getattr, dotted.split("."), importlib.import_module(module))


@pytest.mark.parametrize("hook", layers.HOOKS, ids=lambda hook: hook.key)
def test_hook_resolves_to_a_callable(hook):
    assert callable(_lookup(hook.module, hook.name))


REQUIRED = sorted({site for wl in workloads.WORKLOADS.values() for site in wl.required})


@pytest.mark.parametrize("site", REQUIRED)
def test_required_binding_is_the_hooked_function(site):
    # the same site -> hook match the benchmark's runner makes
    hook = next(h for h in layers.HOOKS if site.endswith("." + h.name))
    module = site[: -len(hook.name) - 1]
    assert _lookup(module, hook.name) is _lookup(hook.module, hook.name)
