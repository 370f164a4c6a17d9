"""The benchmark's workloads: inputs from a seed, the timed call, output checks.

Each workload has four steps.  `prepare` resolves the preset or config (part
of set-up time), `call` is the timed scenario call, and `outputs` reads the
key numbers back after the timer stops; these three run in the worker
process and import zenosim.  `check` runs in the parent on those numbers.

The seed shifts the simulation workloads' drive Omega_d by at most 1%; their
work (integrator steps, samples, cells) is the same on every seed.  The
default seed runs the presets unshifted and is checked against committed
references (references.json); every seed is checked against the program's
own contracts (fidelities in [0, 1], the expected number of cells and
samples, and exit 0, which for tomography means a converged fit).

The tomography workload always uses the default data seed.  Its work is not
steady across data: over data seeds 0-5 the bootstrap's 40 fits took 25k to
38k R-rho-R iterations in total and the scenario 7.7 to 11.5 s, a spread no
allowed regression bound covers, and a 1% change of the detection model at a
fixed data seed moved it just as much.  So its inputs are the same on every
seed and it is checked against its reference on every run.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0
REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())

# slack for "in [0, 1]" on fidelities computed in floating point
UNIT_SLACK = 1e-12


def omega_d_factor(seed: int) -> float:
    """Relative change of Omega_d for a seed: 1 for the default seed, else within 1%."""
    if seed == DEFAULT_SEED:
        return 1.0
    return 1.0 + 0.01 * (2.0 * random.Random(seed).random() - 1.0)


def _read_report(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def _read_table(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split("\t"), [[float(v) for v in line.split("\t")] for line in lines[1:]]


def _in_unit_interval(value: float) -> bool:
    return -UNIT_SLACK <= value <= 1.0 + UNIT_SLACK


def _compare(outputs: dict, reference: dict, tolerances: dict[str, float]) -> list[str]:
    problems = []
    for key, tol in tolerances.items():
        got, want = outputs.get(key), reference[key]
        if isinstance(want, str):
            if got != want:
                problems.append(f"{key} = {got!r}, reference {want!r}")
        elif not isinstance(got, (int, float)) or not abs(got - want) <= tol:
            problems.append(f"{key} = {got!r}, reference {want!r} (tolerance {tol:g})")
    return problems


class _CliScenario:
    """The timed call is the CLI's run_scenario on the resolved config."""

    def call(self, config, out_dir: Path):
        from zenosim.cli import run_scenario

        return run_scenario(config, out_dir)


class Fig3Lindblad(_CliScenario):
    """The fig3 preset: a two-segment master-equation run at dim 144."""

    name = "fig3_lindblad"
    why = "fig3 preset: one dim-144 master-equation run, evolve_density does almost all the work"
    tolerances = {"peak_fidelity": 1e-6, "peak_time_s": 1e-12, "end_fidelity": 1e-6}
    samples = 402

    def prepare(self, seed: int):
        from zenosim.config import apply_override, load_preset

        config = load_preset("fig3")
        config = apply_override(config, f"drive.omega_d={config.drive['omega_d'] * omega_d_factor(seed)!r}")
        return apply_override(config, f"seed={seed}")

    def outputs(self, result) -> dict:
        report = _read_report(result["budget"])
        columns, rows = _read_table(result["trace"])
        fid = [row[columns.index("F_T")] for row in rows]
        return {
            "peak_fidelity": float(report["peak_fidelity"]),
            "peak_time_s": float(report["peak_time_s"]),
            "end_fidelity": float(report["end_fidelity"]),
            "fidelity_min": min(fid),
            "fidelity_max": max(fid),
            "samples": len(rows),
        }

    def check(self, outputs: dict, seed: int) -> list[str]:
        problems = []
        if outputs["samples"] != self.samples:
            problems.append(f"{outputs['samples']} trace samples, expected {self.samples}")
        for key in ("peak_fidelity", "end_fidelity", "fidelity_min", "fidelity_max"):
            if not _in_unit_interval(outputs[key]):
                problems.append(f"{key} = {outputs[key]!r} outside [0, 1]")
        if seed == DEFAULT_SEED:
            problems += _compare(outputs, REFERENCES[self.name], self.tolerances)
        return problems


class ThreeIonBudget:
    """error_budget at the three_ion preset's operating point (four simulations)."""

    name = "three_ion_budget"
    why = (
        "three-ion error_budget: dim-96 heating master equation plus three pure-state runs; "
        "module threeion is on no CLI path and gets no metric"
    )
    tolerances = {
        "leakage": 1e-6,
        "heating": 1e-6,
        "stark": 1e-6,
        "total_predicted": 1e-6,
        "spontaneous": 1e-9,
        "thermal": 1e-9,
    }

    def prepare(self, seed: int):
        from zenosim.config import load_preset
        from zenosim.protocol import plan_three_ion, three_ion_preset

        drive = load_preset("three_ion").drive
        plan = plan_three_ion(drive["omega_s"], drive["omega_d"] * omega_d_factor(seed))
        return plan, three_ion_preset(plan)

    def call(self, prepared, out_dir: Path):
        from zenosim.protocol import error_budget

        return error_budget(*prepared)

    def outputs(self, result) -> dict:
        return {**result.entries(), "total_predicted": result.total_predicted}

    def check(self, outputs: dict, seed: int) -> list[str]:
        problems = [f"{k} = {v!r} outside [0, 1]" for k, v in outputs.items() if not _in_unit_interval(v)]
        if seed == DEFAULT_SEED:
            problems += _compare(outputs, REFERENCES[self.name], self.tolerances)
        return problems


class CompositeSweep2D(_CliScenario):
    """The CLI sweep scenario: composite scheme, 20 x 20 grid of pure-state cells."""

    name = "composite_sweep_2d"
    why = "CLI 2-D composite sweep, 400 pure-state cells on the thread pool; no master equation"
    cells = 400

    def prepare(self, seed: int):
        from zenosim.config import parse_config_text

        factor = omega_d_factor(seed)  # omega_d = omega_s / ratio
        return parse_config_text(
            f"""
scenario = sweep
seed = {seed}
[drive]
omega_s = 17.3 kHz
[sweep]
scheme = composite
axis = omega_ratio
start = {5.0 / factor!r}
stop = {16.0 / factor!r}
points = 20
axis2 = t1
start2 = 0.05
stop2 = 0.95
points2 = 20
"""
        )

    def outputs(self, result) -> dict:
        columns, rows = _read_table(result["sweep"])
        return {"fidelity": [row[columns.index("fidelity")] for row in rows]}

    def check(self, outputs: dict, seed: int) -> list[str]:
        fids = outputs["fidelity"]
        problems = []
        if len(fids) != self.cells:
            problems.append(f"{len(fids)} sweep cells, expected {self.cells}")
        bad = [f for f in fids if not _in_unit_interval(f)]
        if bad:
            problems.append(f"{len(bad)} cell fidelities outside [0, 1], first {bad[0]!r}")
        if seed == DEFAULT_SEED and len(fids) == self.cells:
            ref = REFERENCES[self.name]["fidelity"]
            off = [i for i, (a, b) in enumerate(zip(fids, ref)) if not abs(a - b) <= 1e-9]
            if off:
                i = off[0]
                problems.append(f"{len(off)} cells differ from the reference by > 1e-9, first #{i}: {fids[i]!r}")
        return problems


class TomographyReadout(_CliScenario):
    """The CLI tomography_demo scenario: two ions, 5 systematic points, 40 resamples."""

    name = "tomography_readout"
    why = (
        "CLI tomography_demo: readout chain alone (fit_ml, rebin, bootstrap), dynamics idle; "
        "default data seed on every seed, as fit work moves ~20% with the data"
    )
    fields = (
        "fidelity",
        "ci_lower",
        "ci_upper",
        "epsilon_bootstrap",
        "epsilon_syst",
        "systematic_slope",
        "lr_percentile",
        "iterations",
        "P0",
        "P1",
        "P2",
    )

    def prepare(self, seed: int):
        from zenosim.config import parse_config_text

        return parse_config_text(
            f"""
scenario = tomography_demo
seed = {DEFAULT_SEED}
[tomography]
resamples = 40
epsilon_points = 5
"""
        )

    def outputs(self, result) -> dict:
        report = _read_report(result["estimate"])
        out = {key: float(report[key]) for key in self.fields}
        out["bin_boundaries"] = report["bin_boundaries"]
        return out

    def check(self, outputs: dict, seed: int) -> list[str]:
        problems = []
        for key in ("fidelity", "P0", "P1", "P2"):
            if not _in_unit_interval(outputs[key]):
                problems.append(f"{key} = {outputs[key]!r} outside [0, 1]")
        if not math.isfinite(outputs["epsilon_bootstrap"]) or outputs["epsilon_bootstrap"] < 0:
            problems.append(f"epsilon_bootstrap = {outputs['epsilon_bootstrap']!r}")
        tolerances = {key: 1e-9 for key in self.fields}
        tolerances["bin_boundaries"] = 0.0
        return problems + _compare(outputs, REFERENCES[self.name], tolerances)


WORKLOADS = {w.name: w for w in (Fig3Lindblad(), ThreeIonBudget(), CompositeSweep2D(), TomographyReadout())}
