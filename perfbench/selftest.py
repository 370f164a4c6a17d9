"""Self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads run.py knows and the metrics
   it reports, with the same units.
2. Every workload's check accepts its committed reference outputs and
   refuses them once one value is moved just past its tolerance.
3. An untraced and a traced run of tomography_readout (the cheapest
   workload) print every end-to-end and per-layer metric by name and unit.
4. A run whose output is deliberately wrong counts every sample as failed:
   pass_frac 0, correct false.

Exits 1 if any step fails.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from tracer import PER_LAYER_UNITS
from workloads import REFERENCES, WORKLOADS

CHEAPEST = "tomography_readout"


def _nudged(outputs: dict, key: str, by: float, index: int | None = None) -> dict:
    out = copy.deepcopy(outputs)
    if index is None:
        out[key] += by
    else:
        out[key][index] += by
    return out


def _good_outputs(name: str) -> dict:
    ref = REFERENCES[name]
    if name == "fig3_lindblad":
        return {**ref, "fidelity_min": 0.0, "fidelity_max": ref["peak_fidelity"], "samples": 402}
    return copy.deepcopy(ref)


# one output per workload moved by twice its tolerance
WRONG = {
    "fig3_lindblad": lambda o: _nudged(o, "peak_fidelity", 2e-6),
    "three_ion_budget": lambda o: _nudged(o, "heating", 2e-6),
    "composite_sweep_2d": lambda o: _nudged(o, "fidelity", 2e-9, index=123),
    "tomography_readout": lambda o: _nudged(o, "fidelity", 2e-9),
}


def check_spec() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [(w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports: {set(listed) ^ set(units)}")
    return problems


def check_checks() -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        good = _good_outputs(name)
        if workload.check(good, 0):
            problems.append(f"{name}: reference outputs refused: {workload.check(good, 0)}")
        if not workload.check(WRONG[name](good), 0):
            problems.append(f"{name}: a wrong output value passed the check")
    return problems


def show(result: dict | None, units: dict) -> list[str]:
    if result is None:
        return ["no sample produced a result"]
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    if list(result["metrics"]) != list(units) or not result["correct"]:
        return ["metrics missing or run not correct"]
    return []


def main() -> int:
    problems = check_spec() + check_checks()
    print("end-to-end metrics, untraced:")
    problems += show(run.measure(CHEAPEST, 0, 1, trace=False), run.END_TO_END_UNITS)
    print("per-layer metrics, traced:")
    problems += show(run.measure(CHEAPEST, 0, 1, trace=True), PER_LAYER_UNITS)
    print("with a wrong output value:")
    tampered = run.measure(CHEAPEST, 0, 1, trace=False, tamper=WRONG[CHEAPEST])
    fail_frac = 1.0 - tampered["metrics"]["pass_frac"]["value"]
    print(f"  failed={tampered['failed']} attempted={tampered['attempted']} fail_frac={fail_frac}")
    if tampered["correct"] or fail_frac != 1.0:
        problems.append("a wrong output value was not counted as a failure")
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
