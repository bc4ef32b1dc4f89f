"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_noisy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program under test is imported from
its ``src/`` directory, never from an installed copy.  A pass of a workload is a
fixed sequence of timed calls into qsteal; a pass's time adds up, over
the kinds of call, the median time of one call times the calls per pass.
Between set-ups and between those calls the run times a fixed reference
kernel (see reference.py).  ``setup_s`` and ``pass_s`` are the measured
times scaled by REFERENCE_S over the kernel's median time: seconds on a
machine as fast as one where the kernel takes REFERENCE_S, which a shared
host's changes of speed leave in place.  With ``--trace 0``
the last line of standard output is a JSON object carrying the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics instead, from a run that alternates untraced and traced passes.
The lines before it list every metric, traced or not, with its unit.  A
run manifest is written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

#: the process is one closed-loop caller: BLAS and OpenMP get one thread,
#: set before numpy is first imported so the libraries read it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1


def cap_threads(environ) -> dict:
    """Set every BLAS/OpenMP thread variable to THREADS (at most the CPU
    count) and return the values before and after."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    value = str(min(THREADS, nproc or 1))
    before = {v: environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        environ[v] = value
    return {"nproc": nproc, "before": before, "set": {v: value for v in THREAD_VARS},
            "numpy_loaded_before_cap": "numpy" in sys.modules}


THREAD_SETTINGS = cap_threads(os.environ)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from checks import Tally, latency_summary  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import PASS, SETUP, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: set-up is repeated at least SETUP_REPS times and until SETUP_BUDGET_S
#: is spent (at most SETUP_MAX_REPS times); setup_s is the median
SETUP_REPS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPS = 100
MAX_PASSES = 1000
#: seconds the reference kernel is taken to last: about its median on the
#: 2-vCPU Xeon virtual machine the bounds were measured on
REFERENCE_S = 0.005
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import qsteal from ROOT/src; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qsteal
        import qsteal.cli  # noqa: F401 - the tracer must find every module's bindings
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import qsteal from {src}: {exc}")
    if src.resolve() not in Path(qsteal.__file__).resolve().parents:
        sys.exit(f"benchmark: qsteal was imported from {qsteal.__file__}, not from {src}")
    return qsteal


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def reset_caches(package: str) -> int:
    """Clear every functools cache in the package's modules, so that each
    set-up starts as cold as in a fresh process.  Returns how many."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()
    return len(seen)


def required_checks(tracer: Tracer, required, tally: Tally) -> None:
    """Each binding the workload must use records calls, unless the hook
    it belongs to no longer exists (then it is reported as absent)."""
    calls = tracer.site_calls()
    for site in required:
        hook = next(h.key for h in tracer.hooks if site.endswith("." + h.name))
        if hook in tracer.absent:
            continue
        n = calls.get(site, 0)
        tally.check(f"traced binding {site} records calls", n > 0, f"{n} calls")


def pass_seconds(samples: dict, calls_per_pass: dict) -> float:
    """Time of a typical pass: for each kind of call, the median seconds
    of one call over the run's untraced passes, times the calls of that
    kind in one pass, summed over the kinds."""
    if not samples or not calls_per_pass:
        return float("nan")
    return sum(n * median(samples[kind]) for kind, n in calls_per_pass.items())


def call_summary(wl, state, samples) -> dict:
    """Median (and, with enough samples, p99) milliseconds of each kind of
    call, and the workload's throughput figures from those medians."""
    out = {}
    for kind, times in samples.items():
        lat = latency_summary(times)
        out[f"{kind}_p50_ms"] = lat["p50_ms"]
        out[f"{kind}_p99_ms"] = lat.get("p99_ms")
        out[f"{kind}_samples"] = lat["n"]
    for kind, (units, name) in wl.rates.items():
        if kind in samples:
            units = state[units] if isinstance(units, str) else units
            out[name] = units / median(samples[kind])
    return out


def run_fingerprint(results, check_print) -> str | None:
    """The passes' fingerprint, combined with that of the outputs the
    workload's check computed, if any."""
    if not results:
        return None
    if check_print is None:
        return results[0].fingerprint
    return hashlib.sha256(f"{results[0].fingerprint}:{check_print}".encode()).hexdigest()


def run(args) -> tuple[dict, Tally]:
    qsteal = import_program()
    from workloads import WORKLOADS, Calls

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    tracer = Tracer(layers.HOOKS, "qsteal") if args.trace else None

    reference = Reference()
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPS and (
        len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_BUDGET_S
    ):
        reset_caches("qsteal")
        t0 = perf_counter()
        # only the first set-up is traced; all start with the program's caches empty
        with tracer.active(SETUP) if tracer and not setup_times else nullcontext():
            state = wl.setup(args.seed, out)
        setup_times.append(perf_counter() - t0)
        reference.after_call(setup_times[-1])

    results, traced_walls, untraced_walls = [], [], []
    #: seconds of each untraced pass's wall spent in the reference kernel
    reference_walls = []
    #: kind -> seconds of every untraced call of that kind, over timed_passes passes
    samples, timed_passes = defaultdict(list), 0
    start = perf_counter()
    for i in range(MAX_PASSES):
        traced = tracer is not None and i % 2 == 1
        t0, reference_t0 = perf_counter(), sum(reference.times)
        try:
            with tracer.active(PASS) if traced else nullcontext():
                # the reference kernel runs between the untraced passes' calls
                result = wl.run_pass(state, tally, Calls() if traced else Calls(reference.after_call))
        except Exception as exc:  # noqa: BLE001 - a failing pass is counted, not fatal
            tally.ops(wl.units, wl.units, f"pass {i}: {exc!r}")
            result = None
        (traced_walls if traced else untraced_walls).append(perf_counter() - t0)
        if not traced:
            reference_walls.append(sum(reference.times) - reference_t0)
        if result is not None:
            results.append(result)
            # traced passes are slower and only feed the per-layer metrics
            if not traced:
                timed_passes += 1
                for kind, times in result.calls.items():
                    samples[kind].extend(times)
        elapsed = perf_counter() - start
        typical = median(traced_walls + untraced_walls)
        if i + 1 >= wl.min_passes and elapsed + typical > args.seconds:
            break

    check_print = None
    if results:
        check_print = wl.check(state, results, tally)
        prints = {r.fingerprint for r in results}
        tally.check("every pass gives the same fingerprint", len(prints) == 1, f"{len(prints)} distinct")
    if tracer is not None:
        required_checks(tracer, wl.required, tally)

    per_call = {kind: len(times) for kind, times in results[0].calls.items()} if results else {}
    summary = call_summary(wl, state, samples)
    summary["test_accuracy"] = state.get("check_accuracy", results[-1].accuracy if results else None)
    summary["failed_frac"] = tally.failed_frac
    summary["setup_raw_s"] = median(setup_times)
    summary["pass_raw_s"] = pass_seconds(samples, per_call)
    summary["reference_s"] = median(reference.times)
    scale = REFERENCE_S / summary["reference_s"]
    end_to_end = {
        "setup_s": summary["setup_raw_s"] * scale,
        "pass_s": summary["pass_raw_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if tracer is not None:
        overhead = median(traced_walls) - median(w - r for w, r in zip(untraced_walls, reference_walls))
        per_layer = layers.per_layer(tracer, len(traced_walls), overhead)
        out.mkdir(parents=True, exist_ok=True)
        np.savez(ROOT / ".bench_out" / f"spans-{wl.name}.npz", **tracer.arrays(),
                 sites=np.array([s for s, _ in tracer.sites]))

    manifest = {
        "workload": wl.name,
        "why": wl.why,
        "slices": wl.slices,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "qsteal_version": getattr(qsteal, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_version(),
        "threads": THREAD_SETTINGS,
        "fingerprint": run_fingerprint(results, check_print),
        "passes": len(traced_walls) + len(untraced_walls),
        "timed_passes": timed_passes,
        "untraced_pass_walls_s": untraced_walls,
        "untraced_pass_reference_s": reference_walls,
        "traced_pass_walls_s": traced_walls,
        "calls_per_pass": per_call,
        "call_samples_s": samples,
        "setup_times_s": setup_times,
        "reference_times_s": reference.times,
        "end_to_end": end_to_end,
        "workload_figures": summary,
        "per_layer": per_layer,
        "top_self_s_per_pass": layers.top_self(tracer, len(traced_walls)) if tracer else [],
        "absent_hooks": dict(tracer.absent) if tracer else {},
        "bindings": [s for s, _ in tracer.sites] if tracer else [],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in tally.checks],
        "errors": tally.errors,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, default=str))
    return manifest, tally


def figure_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_samples", "count"), ("_per_s", "1/s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "fraction"


def report(manifest: dict, tally, trace: int) -> str:
    """Human-readable metric lines, then the one-line JSON result."""
    lines = [f"# {manifest['workload']} seed={manifest['seed']} trace={trace} "
             f"passes={manifest['passes']} fingerprint={manifest['fingerprint']}"]
    for name, value in manifest["end_to_end"].items():
        lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in manifest["workload_figures"].items():
        if value is not None:
            lines.append(f"{name} = {value:.6g} {figure_unit(name)}")
    for name, value in manifest["per_layer"].items():
        lines.append(f"{name} = {value:.6g} {layers.UNITS[name]}")
    for key, why in manifest["absent_hooks"].items():
        lines.append(f"absent: {key} ({why})")
    for message in tally.errors:
        lines.append(f"FAILED: {message}")
    if trace:
        metrics = {n: {"value": v, "unit": layers.UNITS[n]} for n, v in manifest["per_layer"].items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in manifest["end_to_end"].items()}
    result = {"correct": tally.correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    lines.append(json.dumps(result))
    return "\n".join(lines)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest, tally = run(args)
    print(report(manifest, tally, args.trace), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
