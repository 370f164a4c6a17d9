"""zenosim benchmark: time to solution per scenario, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Load is a closed loop with one client: each sample is a fresh Python process
(perfbench/worker.py) that imports zenosim, resolves the workload's inputs
and makes the scenario call, and the next sample starts when it has ended.
Samples repeat until S seconds have passed (at least one; at S = 10 a
sample takes about S or longer, so a run is one sample, now and then two).
Every sample's outputs are checked (workloads.py); a sample that raises,
exits non-zero or misses its reference counts as failed.

--trace 0 reports the end-to-end metrics: medians over the samples of the
scenario call's wall time (run_s), its CPU time over all threads (cpu_s) and
the process's peak RSS, the set-up time from spawn to the call (setup_s,
median over five extra set-up-only processes and the samples), and the share of
samples that passed.  --trace 1 alternates untraced and traced samples and
reports the per-layer metrics of tracer.py, medians over the traced samples;
trace.overhead_s is the traced minus the untraced median run_s.

The last line of standard output is the JSON result; the lines before it
give the environment and every sample.  Exits 2 without a result when the
checkout has no program to measure, and 1 when no sample produced a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"

# set-up-only processes per untraced run, besides the set-up of its samples;
# a run is mostly one sample, so without them setup_s would mostly be one
# process's set-up (see README.md for the paired measurement)
SETUP_PROBES = 5
# wall-clock budget of one run; a run must end within 180 s
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


class Sampler:
    """Spawns worker processes for one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float, tamper=None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def spawn(self, mode: str) -> dict | None:
        """One worker process; returns its result, or None if it failed."""
        self._count += 1
        out = self.work / f"{self._count:03d}-{mode}"
        out.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload.name, str(self.seed), str(out), mode]
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, self.deadline - spawned_at)
            )
        except subprocess.TimeoutExpired:
            return self._fail(mode, "timed out")
        if proc.returncode != 0:
            return self._fail(mode, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads((out / "result.json").read_text())
        result["setup_s"] = result["call_at"] - spawned_at
        shutil.rmtree(out)
        return result

    def _fail(self, mode: str, why: str) -> None:
        print(f"sample {self._count} ({mode}) failed: {why}", file=sys.stderr)
        return None

    def sample(self, mode: str) -> dict | None:
        """A timed sample whose outputs are checked; counted in attempted/failed."""
        self.attempted += 1
        result = self.spawn(mode)
        if result is None:
            self.failed += 1
            return None
        outputs = self.tamper(result["outputs"]) if self.tamper else result["outputs"]
        problems = self.workload.check(outputs, self.seed)
        if problems:
            self.failed += 1
            self._fail(mode, "; ".join(problems))
        print(
            f"sample {self._count} ({mode}): run_s={result['run_s']:.4f} setup_s={result['setup_s']:.4f} "
            f"cpu_s={result['cpu_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f} passed={not problems}"
        )
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(workload: str, seed: int, seconds: float, trace: bool, tamper=None) -> dict | None:
    """Run the closed loop for one workload; returns the result object, or
    None when no sample produced a result."""
    start = time.monotonic()
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    sampler = Sampler(workload, seed, work, start + RUN_BUDGET_S, tamper)
    loadavg_start = os.getloadavg()
    try:
        plain, traced, setups = [], [], []
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = sampler.spawn("setup")
                if probe is not None:
                    setups.append(probe["setup_s"])
        modes = (("run", plain), ("trace", traced)) if trace else (("run", plain),)
        loop_start = time.monotonic()
        while True:
            t = time.monotonic()
            for mode, bucket in modes:
                result = sampler.sample(mode)
                if result is not None:
                    bucket.append(result)
            last = time.monotonic() - t
            elapsed = time.monotonic() - loop_start
            if elapsed >= seconds or sampler.time_left() < 1.5 * last:
                break
        environment = next((r["environment"] for r in plain + traced), None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    loadavg = {"loadavg_start": loadavg_start, "loadavg_end": os.getloadavg()}
    print("environment: " + json.dumps({**(environment or {}), **loadavg}))
    if not plain or (trace and not traced):
        return None
    print(f"samples: run={len(plain)} trace={len(traced)} setup_probes={len(setups)}")
    if trace:
        metrics = {k: statistics.median(r["per_layer"][k] for r in traced) for k in PER_LAYER_UNITS}
        metrics["trace.overhead_s"] = _median(traced, "run_s") - _median(plain, "run_s")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": _median(plain, "run_s"),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "cpu_s": _median(plain, "cpu_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "pass_frac": (sampler.attempted - sampler.failed) / sampler.attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": sampler.failed == 0,
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zenosim" / "__init__.py").is_file():
        print(f"no zenosim sources under {ROOT / 'src'}; run from the root of a zenosim checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("no sample produced a result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
