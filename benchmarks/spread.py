"""Run a workload over several seeds and report how steady its metrics are.

    python3 benchmarks/spread.py --workload serve_defended --seeds 1 2 3 4 5 --seconds 30
    python3 benchmarks/spread.py --workload serve_defended --seeds 1 2 3 4 5 --seconds 30 \\
        --against .bench_out/spread-serve_defended.json

For each end-to-end metric it prints the ten (or however many) values,
their median, and the quartile spread (q3 - q1) / median with
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json.  With ``--against`` it also prints how far each median
moved from an earlier set and whether every seed's fingerprint repeated.
Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    manifest = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}" / "manifest.json").read_text()
    )
    result["fingerprint"] = manifest["fingerprint"]
    return result


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = {}
    for seed in args.seeds:
        runs[seed] = run_one(args.workload, seed, args.seconds, args.trace)
        r = runs[seed]
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {values}", flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "runs": {str(s): r for s, r in runs.items()}, "metrics": {}}
    previous = json.loads(args.against.read_text()) if args.against else None
    for name in next(iter(runs.values()))["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs.values()]
        med, spread = quartile_spread(values) if len(values) > 1 else (values[0], 0.0)
        summary["metrics"][name] = {"values": values, "median": med, "spread": spread}
        bound = bounds.get(name)
        line = f"{name}: median {med:.5g} spread {spread:.4f}"
        if bound is not None:
            line += f" (bound {bound}, a third {bound / 3:.4f}{'' if spread < bound / 3 else ' EXCEEDED'})"
        if previous and name in previous["metrics"]:
            before = previous["metrics"][name]["median"]
            line += f"; median moved {(med - before) / before:+.4f} from the earlier set"
        print(line)
    if previous:
        same = all(
            previous["runs"].get(str(s), {}).get("fingerprint") == r["fingerprint"] for s, r in runs.items()
        )
        print(f"fingerprints equal to the earlier set: {same}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
