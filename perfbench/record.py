"""Record a result set: repeated runs of every workload, with their spread.

    python3 perfbench/record.py --label seed

Runs `perfbench/run.py` as the benchmark command is run (fresh process per
run, run_seconds from BENCHMARK.json), once per seed 0 .. 9 and per
workload of BENCHMARK.json, round-robin over the workloads so that slow
drift of the machine spreads over all of them.  Then it makes one traced run per workload at the
default seed and one informational, ungated run of composite_sweep_2d with
OPENBLAS_NUM_THREADS=1 (the single-threaded baseline).

For each end-to-end metric it reports the median, the quartiles of
statistics.quantiles(n=4) and their distance as a share of the median, and
whether that spread is below a third of the metric's bound.  The result set
goes to perfbench/results/<label>.json with the environment of the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int, env=None) -> tuple[dict, dict]:
    """One benchmark run; returns its result object and its environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    environment = {}
    for line in lines:
        if line.startswith("environment: "):
            environment.update(json.loads(line[len("environment: "):]))
    return json.loads(lines[-1]), environment


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    started = time.time()
    runs = {name: [] for name in names}
    loadavg = {name: [] for name in names}
    environment = {}
    for seed in range(RUNS):
        for name in names:
            result, environment = run_once(name, seed, seconds, 0)
            runs[name].append(result)
            loadavg[name].append(environment["loadavg_start"][0])
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed={seed} correct={result['correct']} {values}", flush=True)

    workloads = {}
    for name in names:
        entry = {
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "loadavg_1min_at_start": loadavg[name],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in runs[name]])
            stats["within_third_of_bound"] = stats["spread"] < bound / 3
            entry["end_to_end"][metric] = stats
            print(f"{name:20s} {metric:12s} median={stats['median']:.4f} spread={stats['spread']:.4f} bound={bound}")
        traced, _ = run_once(name, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
        workloads[name] = entry

    result, single_env = run_once("composite_sweep_2d", 0, seconds, 0, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    single = {"threads_env": single_env.get("threads_env"), **{k: v["value"] for k, v in result["metrics"].items()}}
    print(f"composite_sweep_2d with OPENBLAS_NUM_THREADS=1: {single}")

    out = {
        "label": args.label,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "seeds": list(range(RUNS)),
        "run_seconds": seconds,
        "environment": environment,
        "workloads": workloads,
        "single_thread_blas_composite_sweep_2d": single,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
