"""Scenario runner: configs in, tab-separated tables and reports out.

Exit codes: 0 success, 2 configuration error, 3 numerical assertion
(truncation, positivity, Hermiticity, norm or trace drift), 4 fit
non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

from .config import PRESETS, SWEEP_AXES, ScenarioConfig, apply_override, load_preset, parse_config
from .dressed import scan_detuning
from .dynamics import _one_blas_thread, _read_populations
from .errors import ConfigError, ConvergenceError, NumericsError, ZenosimError
from .hilbert import SystemDims, named_state, spin_state
from .model import NoiseModel
from .protocol import (
    COMPOSITE_PULSE_SPONTANEOUS_DEFICIT,
    SINGLE_PULSE_SPONTANEOUS_DEFICIT,
    ProtocolPlan,
    _plan_fidelities,
    _plan_samples,
    default_dims,
    error_budget,
    experimental_override,
    fine_tune,
    leakage_estimate,
    plan_composite,
    plan_schedule,
    plan_single,
    plan_three_ion,
    spontaneous_preset,
    three_ion_preset,
)
from . import tomography as tom


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_table(path: Path, header_params: dict, columns: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key, value in header_params.items():
            fh.write(f"# {key} = {_fmt(value)}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _write_report(path: Path, entries: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _build_plan(config: ScenarioConfig) -> ProtocolPlan:
    drive = config.drive
    if "omega_s" not in drive:
        raise ConfigError("[drive] omega_s is required for this scenario")
    omega_s = drive["omega_s"]
    for key in ("t1", "t2", "duration"):
        if drive.get(key, 0.0) < 0:
            raise ConfigError(f"[drive] {key} must be >= 0")
    if config.scenario == "three_ion_w":
        if "omega_d" not in drive:
            raise ConfigError("[drive] omega_d is required for the three-ion scenario")
        plan = plan_three_ion(omega_s, drive["omega_d"])
    else:
        scheme = "composite" if config.scenario == "two_ion_composite" else "single"
        m = drive.get("m", 1 if scheme == "composite" else 2)
        try:
            plan = plan_composite(omega_s, m) if scheme == "composite" else plan_single(omega_s, m)
        except ValueError as exc:
            raise ConfigError(f"[drive] {exc}") from None
        plan = experimental_override(plan, **{k: drive[k] for k in ("omega_d", "delta", "t1", "t2") if k in drive})
    # omega_d <= 0 (or omega_s = 0, which sets it), or one that under- or
    # overflows t_pi, sets no usable pi time
    if not (plan.t_pi / 400 > 0 and plan.t_pi < np.inf):
        raise ConfigError(f"[drive] pi time {plan.t_pi:.3g} s is out of range; omega_d must be > 0")
    # error_budget's closed form, checked before anything is propagated
    try:
        if plan.n_ions == 2:
            leakage_estimate(plan)
    except ValueError as exc:
        raise ConfigError(f"[drive] {exc}; omega_s = {omega_s:.3g}, omega_d = {plan.omega_d:.3g} rad/s") from None
    return plan


def _build_noise(config: ScenarioConfig, plan: ProtocolPlan) -> NoiseModel:
    section = dict(config.noise)
    preset_name = section.pop("preset", "none")
    if preset_name == "none":
        base = NoiseModel()
    elif preset_name == "two_ion_single":
        base = spontaneous_preset(plan, SINGLE_PULSE_SPONTANEOUS_DEFICIT)
    elif preset_name == "two_ion_composite":
        base = spontaneous_preset(plan, COMPOSITE_PULSE_SPONTANEOUS_DEFICIT)
    elif preset_name == "three_ion":
        base = three_ion_preset(plan)
    else:
        raise ConfigError(f"unknown noise preset {preset_name!r}")
    if "stark" in section:
        section["stark_shifts"] = section.pop("stark")
    try:
        noise = dataclasses.replace(base, **section)
        noise.shifts_or_zero(plan.n_ions)
    except ValueError as exc:
        raise ConfigError(f"[noise] {exc}") from None
    return noise


def _plan_header(plan: ProtocolPlan, noise: NoiseModel, dims: SystemDims, seed: int, duration: float | None) -> dict:
    """The trace file's header: the plan, the noise, the space and, for a
    composite plan, the segment times of the schedule that ran."""
    header = {
        "scheme": plan.scheme,
        "n_ions": plan.n_ions,
        "omega_s_rad_s": plan.omega_s,
        "omega_d_rad_s": plan.omega_d,
        "delta_rad_s": plan.delta,
        "t_pi_s": plan.t_pi,
        "n_fock": dims.n_fock,
        "leak_level": dims.leak_level,
        "gamma_du_1_s": noise.gamma_du,
        "gamma_ud_1_s": noise.gamma_ud,
        "gamma_ou_1_s": noise.gamma_ou,
        "gamma_od_1_s": noise.gamma_od,
        "gamma_heat_1_s": noise.gamma_heat,
        "n_bar": noise.n_bar,
        "stark_rad_s": ",".join(_fmt(s) for s in noise.shifts_or_zero(plan.n_ions)),
        "seed": seed,
    }
    if plan.scheme == "composite":
        header["t1_s"], header["t2_s"] = (seg.duration for seg in plan_schedule(plan, duration).segments)
    return header


def _trace_scenario(config: ScenarioConfig, out_dir: Path) -> dict:
    plan = _build_plan(config)
    tomography = _tomography_settings(config, plan.n_ions) if config.tomography.get("enabled") else None
    if config.drive.get("fine_tune") and plan.scheme == "composite":
        plan, _, _ = fine_tune(plan, free_params=("t1", "t2"))
    noise = _build_noise(config, plan)
    dims = default_dims(plan, noise)
    if config.n_fock is not None:
        if config.n_fock < 1:
            raise ConfigError("n_fock must be >= 1")
        dims = SystemDims(plan.n_ions, config.n_fock, dims.leak_level)
    # before the trace run, so the budget runs' kernels are freed before the trace's is made
    budget = error_budget(plan, noise)
    if plan.n_ions == 2:
        targets = [named_state(dims, "T", 0), spin_state(dims, "S"), spin_state(dims, "dd"), spin_state(dims, "uu")]
        labels = ["F_T", "P_S", "P_dd", "P_uu"]
    else:
        targets = [
            named_state(dims, "W", 0),
            spin_state(dims, "Wbar"),
            spin_state(dims, "Wc"),
            spin_state(dims, "Wac"),
        ]
        labels = ["F_W", "P_Wbar", "P_Wc", "P_Wac"]
    # a density run is read a check chunk at a time as it is propagated, and
    # only the peak sample is kept, for the readout
    times, fold, chunks = _plan_samples(plan, noise, config.drive.get("duration"), dims)
    record, rho_spin = _read_populations(dims, times, fold, chunks, targets, labels, tomography is not None)

    columns = ["t_s"] + [f"P{k}" for k in range(plan.n_ions + 1)] + labels + ["leak"]
    rows = []
    for i, t in enumerate(record.times):
        row = [t] + list(record.p_up_counts[i])
        row += [record.aux_populations[lab][i] for lab in labels]
        row.append(record.leak_population[i])
        rows.append(row)
    header = _plan_header(plan, noise, dims, config.seed, config.drive.get("duration"))
    trace_path = out_dir / f"{config.scenario}_trace.tsv"
    _write_table(trace_path, header, columns, rows)

    peak_idx = int(np.argmax(record.target_fidelity))
    report = {
        "scenario": config.scenario,
        **{f"budget_{k}": v for k, v in budget.entries().items()},
        "budget_total_predicted": budget.total_predicted,
        "peak_fidelity": record.target_fidelity[peak_idx],
        "peak_time_s": record.times[peak_idx],
        "end_fidelity": record.target_fidelity[-1],
    }
    budget_path = out_dir / f"{config.scenario}_budget.txt"
    _write_report(budget_path, report)
    paths = {"trace": trace_path, "budget": budget_path}

    if tomography is not None:
        paths.update(_run_tomography(tomography, config.seed, out_dir, rho_spin, plan.n_ions))
    return paths


def _tomography_settings(config: ScenarioConfig, n_ions: int) -> dict:
    """The [tomography] values, defaults filled in for n_ions, checked.

    Raises ConfigError; trace scenarios call it before propagating.
    """
    section = config.tomography
    detection = {k: section[k] for k in ("bright_mean", "dark_mean", "pump_prob") if k in section}
    try:
        model = dataclasses.replace(tom.two_ion_detection() if n_ions == 2 else tom.three_ion_detection(), **detection)
    except ValueError as exc:
        raise ConfigError(f"[tomography] {exc}") from None
    # dark_mean is below bright_mean, so this bounds both
    if not model.bright_mean <= _MAX_MEAN:
        raise ConfigError(f"[tomography] bright_mean and dark_mean must be at most {_MAX_MEAN}")
    limits = {
        "shots_reference": (section.get("shots_reference", 6000), 1, _MAX_SHOTS),
        "shots_data": (section.get("shots_data", 30000 if n_ions == 2 else 20000), 1, _MAX_SHOTS),
        "shots_analysis": (section.get("shots_analysis", 1500 if n_ions == 2 else 1000), 1, _MAX_SHOTS),
        "n_bins": (section.get("n_bins", 5 if n_ions == 2 else 7), 2, _MAX_BINS),
        "resamples": (section.get("resamples", 500), 0, _MAX_RESAMPLES),
        "epsilon_points": (section.get("epsilon_points", 5), 2, _MAX_EPSILON_POINTS),
    }
    for key, (value, least, most) in limits.items():
        if not least <= value <= most:
            raise ConfigError(f"[tomography] {key} must be from {least} to {most}")
    settings = {key: value for key, (value, *_) in limits.items()}
    return settings | {"model": model, "write_histograms": section.get("write_histograms", True)}


def _run_tomography(settings: dict, seed: int, out_dir: Path, rho_spin: np.ndarray, n_ions: int) -> dict:
    design = tom.analysis_design(n_ions)
    model = settings["model"]
    raw = tom.reference_shot_counts(model, settings["shots_reference"], n_ions, seed)
    held, refs = tom.split_reference_shots(raw)
    boundaries = tom.choose_bins(held, settings["n_bins"], n_ions=n_ions)
    # a density run's trace may drift by 1e-8, and the counts take weights that sum to 1 within 1e-9
    weights = tom.design_weights(design, rho_spin / np.trace(rho_spin).real)
    children = np.random.SeedSequence(seed).spawn(len(design.analysis_rotations) + 1)
    data = [
        tom.simulate_histogram(
            weights[i],
            model,
            settings["shots_data"] if i == 0 else settings["shots_analysis"],
            np.random.default_rng(children[i + 1]),
            label=f"data_{i}",
        )
        for i in range(len(design.analysis_rotations))
    ]
    inputs = tom.FitInputs(tuple(refs), tuple(data), design, boundaries)
    # the estimate is the sweep's epsilon = 0 fit; the sweep raises ConvergenceError if it does not converge
    sweep = tom.systematic_sweep(inputs, n_points=settings["epsilon_points"])
    estimate = tom.bootstrap(inputs, sweep.estimate, resamples=settings["resamples"], seed=seed + 1)

    paths = {}
    if settings["write_histograms"]:
        hist_dir = out_dir / "histograms"
        hist_dir.mkdir(parents=True, exist_ok=True)
        for h in list(refs) + list(data):
            tom.write_histogram(hist_dir / f"{h.label}.txt", h)
        paths["histograms"] = hist_dir
    entries = {
        "target": design.target_name,
        "fidelity": estimate.fidelity,
        "ci_lower": estimate.ci_lower if estimate.ci_lower is not None else estimate.fidelity,
        "ci_upper": estimate.ci_upper if estimate.ci_upper is not None else estimate.fidelity,
        "epsilon_bootstrap": estimate.epsilon_boot if estimate.epsilon_boot is not None else 0.0,
        "epsilon_syst": estimate.epsilon_syst,
        "systematic_slope": sweep.slope,
        "lr_percentile": estimate.lr_percentile if estimate.lr_percentile is not None else -1.0,
        "iterations": estimate.n_iterations,
        "bin_boundaries": ",".join(str(b) for b in boundaries),
    }
    for k, p in enumerate(estimate.populations):
        entries[f"P{k}"] = p
    est_path = out_dir / "tomography_estimate.txt"
    _write_report(est_path, entries)
    paths["estimate"] = est_path
    return paths


def _dressed_scan_scenario(config: ScenarioConfig, out_dir: Path) -> dict:
    omega_s = config.drive.get("omega_s", 1.0)
    scan = config.scan
    lo = scan.get("start", -4.0)
    hi = scan.get("stop", 4.0)
    points = scan.get("points", 401)
    if not 2 <= points <= _MAX_POINTS:
        raise ConfigError(f"[scan] points must be from 2 to {_MAX_POINTS}")
    if omega_s == 0:
        raise ConfigError("[drive] omega_s must be nonzero")
    # every scanned eigenfrequency and the scan's span are at most 2 |delta| + 4 |omega_s|
    if not np.isfinite(2 * max(abs(lo), abs(hi)) * abs(omega_s) + 4 * abs(omega_s)):
        raise ConfigError("[scan] start and stop times omega_s overflow the float range")
    deltas, freqs = scan_detuning(omega_s, (lo * omega_s, hi * omega_s), points)
    rows = [
        [d / omega_s, f1 / omega_s, f2 / omega_s, f3 / omega_s]
        for d, (f1, f2, f3) in zip(deltas, freqs)
    ]
    path = out_dir / "dressed_scan.tsv"
    _write_table(
        path,
        {"omega_s_rad_s": omega_s, "points": points, "seed": config.seed},
        ["delta_over_omega_s", "freq1_over_omega_s", "freq2_over_omega_s", "freq3_over_omega_s"],
        rows,
    )
    return {"scan": path}


def _tomography_demo_scenario(config: ScenarioConfig, out_dir: Path) -> dict:
    """Readout chain on synthetic data from the ideal entangled target."""
    dims = SystemDims(2, 1)
    target = spin_state(dims, "T")
    rho = np.outer(target.amplitudes, target.amplitudes.conj())
    return _run_tomography(_tomography_settings(config, 2), config.seed, out_dir, rho, 2)


#: the most points of a dressed scan and cells of a sweep: 250x the fig_s4
#: scan and 60x the 40 x 40 composite grid, so only a value far out of
#: range reaches it
_MAX_POINTS = 100_000

#: the largest mean photon count per shot: the counts reach n_ions times it,
#: and each bin choose_bins adds scores every count value once, so three
#: ions at 1,000 (25x the default 39) take about 0.1 s to bin into 7, and
#: numpy's Poisson draw rejects means above about 1e19
_MAX_MEAN = 1000.0
#: the most shots of one histogram: 33x the default 30,000 data shots; a
#: draw holds a few int64 arrays of this length, 8 MB each
_MAX_SHOTS = 1_000_000
#: the most bins: 10x the two-ion default; choose_bins' work grows with
#: the bins times the count values, about 1 s for three ions at _MAX_MEAN
_MAX_BINS = 50
#: the most bootstrap resamples: 20x the default 500, about 6 minutes of
#: fits at the two-ion demo's 36 ms a resample
_MAX_RESAMPLES = 10_000
#: the most points of the systematic sweep, fitted as one stack: 200x the
#: default 5; 1e12 points would allocate terabytes
_MAX_EPSILON_POINTS = 1_000

#: per-axis edit of a sweep cell's (plan, noise) at one grid value; the t1
#: axis, always the inner one, is applied to a whole row in run_sweep
_SWEEP_EDITS = {
    # a Python division: a ratio that overflows omega_d gives inf, rejected as a pi time of 0, without a warning
    "omega_ratio": lambda plan, noise, r: (experimental_override(plan, omega_d=plan.omega_s / float(r)), noise),
    "n_bar": lambda plan, noise, v: (plan, NoiseModel(n_bar=v)),
    "gamma": lambda plan, noise, v: (plan, NoiseModel(gamma_du=v, gamma_ud=v, gamma_ou=v, gamma_od=v)),
}
#: the values each sweep axis accepts: a test and its wording
_SWEEP_DOMAINS = {
    "omega_ratio": (lambda v: v > 0, "> 0"),
    "t1": (lambda v: 0 <= v <= 1, "from 0 to 1"),
    "n_bar": (lambda v: v >= 0, ">= 0"),
    "gamma": (lambda v: v >= 0, ">= 0"),
}


def _sweep_axis(sweep: dict, suffix: str, default_range=(None, None)) -> tuple[str, float, float, int]:
    """Name, start, stop and points of sweep axis 'axis' + suffix, validated."""
    name = sweep.get("axis" + suffix)
    if name not in SWEEP_AXES:
        raise ConfigError(f"unsupported sweep axis{suffix} {name!r}; choose from {SWEEP_AXES}")
    start = sweep.get("start" + suffix, default_range[0])
    stop = sweep.get("stop" + suffix, default_range[1])
    if start is None or stop is None:
        raise ConfigError(f"[sweep] start{suffix} and stop{suffix} are required")
    accepts, wording = _SWEEP_DOMAINS[name]
    if not (accepts(start) and accepts(stop)):
        raise ConfigError(f"[sweep] {name} values must be {wording}")
    points = sweep.get("points" + suffix, 40)
    if points < 1 or (points == 1 and stop != start):
        raise ConfigError(f"[sweep] points{suffix} must be >= 1 (and > 1 for a nondegenerate range)")
    return name, start, stop, points


def run_sweep(config: ScenarioConfig, out_dir: Path) -> dict:
    """Fidelity over a one- or two-axis grid, written to sweep.tsv.

    Every cell edits one base plan: the two-ion plan of [sweep] scheme
    (single or composite) from [drive], with omega_s defaulting to
    2 pi 17.6 kHz.  omega_ratio sets Omega_d = Omega_s / ratio and
    recomputes the pulse times; t1 splits the composite pulse time as
    (t1, t_pi - t1) with t1 a fraction of t_pi, after any ratio edit; n_bar
    starts the run thermal; gamma sets all four scatter rates.  The only
    two-axis grid is omega_ratio (outer) by t1 (inner).

    A sweep over omega_ratio alone records the peak fidelity over 1.15 t_pi,
    sampled every t_pi / 300, mirroring how the protocol is calibrated (the
    actual maximum shifts a few percent from the first-order pulse time).
    Every other sweep records the end fidelity, since the pulse times are
    the calibrated quantity there.

    The t1 cells of one ratio, or of a whole 1-D t1 sweep, form a row: they
    share their pi time, checked once with the row's first cell named, and
    one protocol._plan_fidelities call; any other cell is a row of its own.
    """
    sweep = config.sweep
    axes = [_sweep_axis(sweep, "")]
    if sweep.get("axis2") is not None:
        axes.append(_sweep_axis(sweep, "2", (0.05, 0.95)))
    names = [name for name, *_ in axes]
    if len(names) == 2 and names != ["omega_ratio", "t1"]:
        raise ConfigError("two-axis sweeps support axis=omega_ratio with axis2=t1")
    if np.prod([points for *_, points in axes], dtype=float) > _MAX_POINTS:
        raise ConfigError(f"[sweep] the grid has more than {_MAX_POINTS} cells")
    scheme = sweep.get("scheme", "single")
    if scheme not in ("single", "composite"):
        raise ConfigError(f"[sweep] unknown scheme {scheme!r}; choose single or composite")
    if "t1" in names and scheme != "composite":
        raise ConfigError("[sweep] a t1 axis needs scheme = composite")
    # the base plan is the one the two-ion scenario of this scheme would run
    base = _build_plan(
        dataclasses.replace(
            config, scenario=f"two_ion_{scheme}", drive={"omega_s": 2 * np.pi * 17.6e3, **config.drive}
        )
    )
    peak = names == ["omega_ratio"]
    keys = ("axis", "start", "stop", "points")
    header = dict(zip(keys, axes[0])) | {"scheme": base.scheme, "seed": config.seed}
    if len(axes) == 2:
        header |= dict(zip((key + "2" for key in keys), axes[1]))
    grids = [np.linspace(start, stop, points) for _, start, stop, points in axes]
    inner = grids.pop() if names[-1] == "t1" else None
    table = []
    for outer in itertools.product(*grids):
        plan, noise = base, None
        for name, value in zip(names, outer):
            plan, noise = _SWEEP_EDITS[name](plan, noise, value)
        points = [outer] if inner is None else [(*outer, f) for f in inner]
        # omega_s <= 0, or a ratio that under- or overflows omega_d, sets no usable pi time
        if not (plan.t_pi / 300 > 0 and 1.15 * plan.t_pi < np.inf):
            at = ", ".join(f"{name} = {value:.6g}" for name, value in zip(names, points[0]))
            raise ConfigError(f"[sweep] pi time {plan.t_pi:.3g} s at {at} is out of range")
        t_pi = plan.t_pi
        plans = [plan] if inner is None else [dataclasses.replace(plan, t1=f * t_pi, t2=(1 - f) * t_pi) for f in inner]
        opts = {"duration": 1.15 * plan.t_pi, "at_end": False, "sample_dt": plan.t_pi / 300} if peak else {}
        fids = _plan_fidelities(plans, noise, **opts)
        table += [[*point, fid, 1.0 - fid] for point, fid in zip(points, fids)]
    path = Path(out_dir) / "sweep.tsv"
    _write_table(path, header, names + ["fidelity", "error"], table)
    return {"sweep": path}


@_one_blas_thread
def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one scenario, writing its outputs into out_dir.

    Returns a dict naming every file written.  Raises ConfigError,
    NumericsError, or ConvergenceError; the command-line wrapper translates
    these into exit codes 2, 3, and 4.  out_dir, with any missing parent,
    is made as the first output is written, after the config is validated,
    so a run that raises ConfigError leaves no directory behind.  OpenBLAS
    runs on one thread for the call (dynamics._one_blas_thread).
    """
    out = Path(out_dir if out_dir is not None else (config.out or "."))
    if config.scenario in ("two_ion_single", "two_ion_composite", "three_ion_w"):
        return _trace_scenario(config, out)
    if config.scenario == "dressed_scan":
        return _dressed_scan_scenario(config, out)
    if config.scenario == "tomography_demo":
        return _tomography_demo_scenario(config, out)
    if config.scenario == "sweep":
        return run_sweep(config, out)
    raise ConfigError(f"unknown scenario {config.scenario!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Simulator for restricted-subspace entanglement generation in trapped-ion chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a config file or preset")
    run_p.add_argument("config", nargs="?", help="configuration file")
    run_p.add_argument("--preset", help=f"built-in preset: {', '.join(sorted(PRESETS))}")
    run_p.add_argument("--out", default=None, help="output directory (default: config 'out' or cwd)")
    run_p.add_argument("--seed", type=int, default=None, help="override the random seed")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry, e.g. drive.omega_s='17.6 kHz' (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        if args.config and args.preset:
            raise ConfigError("give either a config file or --preset, not both")
        if args.config:
            config = parse_config(args.config)
        elif args.preset:
            config = load_preset(args.preset)
        else:
            raise ConfigError("a config file or --preset is required")
        for override in args.override:
            config = apply_override(config, override)
        if args.seed is not None:
            config.seed = args.seed
        paths = run_scenario(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical assertion: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 4
    except ZenosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
