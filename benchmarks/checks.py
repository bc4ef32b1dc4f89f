"""Failure accounting, served-response checks, and latency percentiles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RESPONSE_TOL = 1e-9
#: a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10


@dataclass
class Tally:
    """Operations and checks attempted, and those that failed.

    An operation is one unit of work the program was asked to do (a query,
    a predict call, a training run); a check is one correctness test of its
    output.  Both count toward ``attempted``; each failure counts once.
    """

    attempted: int = 0
    failed: int = 0
    #: (name, ok, detail) for every check, in order
    checks: list = field(default_factory=list)
    #: first few failure messages, for the manifest
    errors: list = field(default_factory=list)

    def ops(self, n: int, failed: int = 0, error: str | None = None) -> None:
        self.attempted += n
        self.failed += failed
        if error and len(self.errors) < 20:
            self.errors.append(error)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.checks.append((name, ok, detail))
        self.ops(1, 0 if ok else 1, None if ok else f"{name}: {detail}")
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0


def bad_responses(responses: np.ndarray, tol: float = RESPONSE_TOL) -> np.ndarray:
    """Row indices of served probability vectors that are not finite,
    have a negative entry, or do not sum to 1 within `tol`."""
    r = np.atleast_2d(np.asarray(responses, dtype=np.float64))
    finite = np.all(np.isfinite(r), axis=1)
    nonneg = np.all(r >= 0.0, axis=1)
    sums = np.abs(r.sum(axis=1) - 1.0) <= tol
    return np.flatnonzero(~(finite & nonneg & sums))


def check_responses(tally: Tally, name: str, responses: np.ndarray) -> None:
    """One check per served response."""
    r = np.atleast_2d(np.asarray(responses, dtype=np.float64))
    bad = bad_responses(r)
    first = f"{name}: response {int(bad[0])} = {r[bad[0]].tolist()}" if bad.size else None
    tally.ops(r.shape[0], bad.size, first)
    tally.checks.append((name, bad.size == 0, f"{bad.size} of {r.shape[0]} responses invalid"))


def latency_summary(samples_s) -> dict:
    """Median latency in milliseconds and the sample count, plus ``p99_ms``
    when at least TAIL_SAMPLES samples lie beyond the 99th percentile."""
    ms = np.asarray(samples_s, dtype=np.float64) * 1e3
    n = int(ms.size)
    out = {"n": n}
    if n == 0:
        return out
    out["p50_ms"] = float(np.percentile(ms, 50))
    if n >= 100 * TAIL_SAMPLES:
        out["p99_ms"] = float(np.percentile(ms, 99))
    return out
