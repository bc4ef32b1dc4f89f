"""Outside-in tracer: times calls into a package from outside its source.

A :class:`Hook` names one function by the module that defines it, or one
method as ``Class.method``.  Installing the tracer wraps that function in
the defining module and in every other module of the package that bound
the same object under some name (``from .model import forward_batch``), so
a call is seen whichever binding it goes through.  Removing the tracer
puts the original objects back.  No file of the package is changed.

Each call becomes a span: the binding it went through, the span that was
open when it started (its parent), start and end times, an optional row
count, and the phase of the run it started in.  Spans live in typed arrays
so that a few hundred thousand calls cost a few megabytes.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

SETUP, PASS = 0, 1


@dataclass(frozen=True)
class Hook:
    """A function to trace: ``module`` defines ``name`` (or ``Class.method``).

    ``rows`` maps (args, kwargs, result) to the number of rows the call
    worked on, for hooks whose work is a batch.
    """

    module: str
    name: str
    rows: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


class Tracer:
    def __init__(self, hooks: list[Hook], package: str):
        self.hooks = list(hooks)
        self.package = package
        self.phase = PASS
        #: hook key -> reason, for hooks whose function does not exist
        self.absent: dict[str, str] = {}
        #: binding site ("module.attr" or "module.Class.method") -> hook key
        self.sites: list[tuple[str, str]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._stack: list[int] = []
        self.site_of = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.rows = array("q")
        self.phase_of = array("b")

    # -- installing -------------------------------------------------------

    def _resolve(self, hook: Hook):
        """(owner, attr, original) of the defining binding, or None if absent."""
        try:
            module = importlib.import_module(hook.module)
        except ImportError as exc:
            self.absent[hook.key] = f"module not importable: {exc}"
            return None
        owner_name, _, attr = hook.name.rpartition(".")
        owner = module
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type):
                self.absent[hook.key] = f"no class {owner_name} in {hook.module}"
                return None
            if attr not in owner.__dict__:
                self.absent[hook.key] = f"no method {attr} on {owner_name}"
                return None
            return owner, attr, owner.__dict__[attr]
        if not callable(getattr(module, attr, None)):
            self.absent[hook.key] = f"no function {attr} in {hook.module}"
            return None
        return module, attr, getattr(module, attr)

    def _bindings(self, hook: Hook, owner, attr, original):
        """Every (owner, attr) in the package that holds `original`."""
        if isinstance(owner, type):
            return [(owner, attr, f"{hook.module}.{hook.name}")]
        found = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    found.append((module, binding, f"{name}.{binding}"))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.absent.clear()
        site_ids = {site: i for i, (site, _) in enumerate(self.sites)}
        for hook in self.hooks:
            resolved = self._resolve(hook)
            if resolved is None:
                continue
            for owner, attr, site in self._bindings(hook, *resolved):
                if site not in site_ids:
                    site_ids[site] = len(self.sites)
                    self.sites.append((site, hook.key))
                original = resolved[2]
                wrapper = self._wrap(original, site_ids[site], hook.rows)
                self._patches.append((owner, attr, original, wrapper))
                setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self, phase: int):
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _wrap(self, fn, site_id: int, rows_fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            i = len(tracer.t0)
            tracer.site_of.append(site_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.t1.append(math.nan)
            tracer.rows.append(0)
            tracer.phase_of.append(tracer.phase)
            stack.append(i)
            tracer.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[i] = perf_counter()
                stack.pop()
            if rows_fn is not None:
                tracer.rows[i] = int(rows_fn(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- reading ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns as numpy arrays, plus each span's hook index and self time."""
        site = np.array(self.site_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        t0 = np.array(self.t0, dtype=np.float64)
        t1 = np.array(self.t1, dtype=np.float64)
        dur = t1 - t0
        keys = [hook.key for hook in self.hooks]
        site_hook = np.array([keys.index(key) for _, key in self.sites] or [0], dtype=np.int64)
        return {
            "site": site,
            "hook": site_hook[site],
            "parent": parent,
            "t0": t0,
            "dur": dur,
            "self": self_times(parent, dur),
            "rows": np.array(self.rows, dtype=np.int64),
            "phase": np.array(self.phase_of, dtype=np.int8),
        }

    def stats(self, phase: int) -> dict[str, Stats]:
        """Per-hook totals over the spans that started in `phase`."""
        a = self.arrays()
        out = {}
        for i, hook in enumerate(self.hooks):
            sel = (a["phase"] == phase) & (a["hook"] == i)
            out[hook.key] = Stats(
                calls=int(sel.sum()),
                total_s=float(a["dur"][sel].sum()),
                self_s=float(a["self"][sel].sum()),
                rows=int(a["rows"][sel].sum()),
            )
        return out

    def site_calls(self) -> dict[str, int]:
        """Calls per binding site, over every phase."""
        counts = np.bincount(np.array(self.site_of, dtype=np.int64), minlength=len(self.sites))
        return {site: int(counts[i]) for i, (site, _) in enumerate(self.sites)}


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.shape[0])
    return dur - covered[: dur.shape[0]]


def has_ancestor(parent: np.ndarray, hook: np.ndarray, i: int, ancestor_hook: int) -> bool:
    p = parent[i]
    while p >= 0:
        if hook[p] == ancestor_hook:
            return True
        p = parent[p]
    return False
