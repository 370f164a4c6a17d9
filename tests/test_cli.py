import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenosim
from zenosim.cli import main, run_scenario
from zenosim.config import (
    _SCHEMA,
    PRESETS,
    ScenarioConfig,
    apply_override,
    load_preset,
    parse_config_text,
    parse_quantity,
)
from zenosim.errors import ConfigError
from zenosim.model import NoiseModel
from zenosim.protocol import experimental_override, plan_composite, plan_single, simulate_plan_fidelity

GOOD_CONFIG = """
scenario = two_ion_single
seed = 5

[drive]
omega_s = 17.6 kHz
omega_d = 1.52 kHz
delta = 27.1 kHz
duration = 130 us
"""


def test_quantity_units():
    assert parse_quantity("17.6 kHz") == pytest.approx(2 * np.pi * 17.6e3)
    assert parse_quantity("1 MHz") == pytest.approx(2 * np.pi * 1e6)
    assert parse_quantity("25.4 us") == pytest.approx(25.4e-6)
    assert parse_quantity("136 quanta/s") == 136.0
    assert parse_quantity("50 1/s") == 50.0
    assert parse_quantity("0.006") == 0.006
    with pytest.raises(ConfigError):
        parse_quantity("17.6 furlongs")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN kHz", "-inf us", "1e308 MHz"])
def test_quantity_rejects_non_finite_values(text):
    with pytest.raises(ConfigError, match="not finite"):
        parse_quantity(text)


def test_every_non_text_key_rejects_non_finite_values():
    """nan, inf and -inf on any key that is not free text raise ConfigError
    (exit 2) when the override is parsed, before any work."""
    config = load_preset("fig3")
    keys = [
        f"{section}.{key}" if section else key
        for section, parsers in _SCHEMA.items()
        for key, parse in parsers.items()
        if parse.__name__ != "_parse_str"
    ]
    assert {"seed", "drive.m", "noise.n_bar", "noise.stark", "tomography.enabled"} <= set(keys)
    for key in keys:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError):
                apply_override(config, f"{key}={value}")


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Only fine_tune and find_balanced_detunings need scipy.optimize, which
    takes about 0.4 s to import; a fresh `import zenosim.cli` must not load
    it.  Nor may a cut fig3 run, a density run in the cycle sectors, load
    it or scipy.sparse.linalg, which takes about 0.1 s, the whole run's time."""
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """
import sys, tempfile
import zenosim.cli
from zenosim.config import apply_override, load_preset

slow = ("scipy.optimize", "scipy.sparse.linalg")
print([m for m in slow if m in sys.modules])
with tempfile.TemporaryDirectory() as out:
    zenosim.cli.run_scenario(apply_override(load_preset("fig3"), "drive.duration=1e-5"), out)
print([m for m in slow if m in sys.modules])
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_parse_and_reject_unknown_keys():
    config = parse_config_text(GOOD_CONFIG)
    assert config.scenario == "two_ion_single"
    assert config.seed == 5
    assert config.drive["omega_s"] == pytest.approx(2 * np.pi * 17.6e3)
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD_CONFIG + "\nomega_q = 3 kHz\n")
    assert "line" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config_text("scenario = two_ion_single\n[lasers]\npower = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("scenario = warp_drive\n")
    with pytest.raises(ConfigError):
        parse_config_text("[drive]\nomega_s = 1 kHz\n")  # scenario missing


def test_error_reports_line_number():
    bad = "scenario = two_ion_single\n\n[drive]\nomega_s = banana\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert "line 4" in str(err.value)


def test_overrides():
    config = parse_config_text(GOOD_CONFIG)
    out = apply_override(config, "drive.omega_d=2.0 kHz")
    assert out.drive["omega_d"] == pytest.approx(2 * np.pi * 2e3)
    assert config.drive["omega_d"] == pytest.approx(2 * np.pi * 1.52e3)  # original untouched
    out = apply_override(config, "seed=9")
    assert out.seed == 9
    with pytest.raises(ConfigError):
        apply_override(config, "drive.warp=9")
    with pytest.raises(ConfigError):
        apply_override(config, "no_equals_sign")


def test_presets_exist():
    assert set(PRESETS) == {"fig2", "fig3", "fig_s4", "fig_s6a", "three_ion"}
    for name in PRESETS:
        cfg = load_preset(name)
        assert isinstance(cfg, ScenarioConfig)


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = two_ion_single\n[drive]\nomega_s = banana\n")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["run", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert main(["run", "--out", str(tmp_path)]) == 2
    good = tmp_path / "good.cfg"
    good.write_text(GOOD_CONFIG)
    # too small a Fock space trips the truncation assertion -> exit 3
    assert main(["run", str(good), "--out", str(tmp_path / "x"), "--override", "n_fock=3"]) == 3


@pytest.mark.parametrize(
    "preset, override",
    [pytest.param("fig3", o, id=o) for o in ("noise.stark=1,2,3", "noise.gamma_du=-1", "drive.m=-1")]
    + [pytest.param("fig3", o, id=o) for o in ("drive.t1=-1e-6", "drive.t2=-1e-6", "n_fock=0")]
    + [pytest.param("fig2", "drive.duration=-1e-6", id="drive.duration=-1e-6")]
    + [pytest.param("fig_s4", o, id=o) for o in ("scan.points=1", "scan.points=100001", "drive.omega_s=0")]
    # non-finite values, which reach the physics unless the parser rejects them
    + [pytest.param("fig_s4", o, id=o) for o in ("scan.start=nan", "scan.stop=inf")]
    # finite values whose scan overflows the float range inside the eigensolver
    + [pytest.param("fig_s4", o, id=o) for o in ("scan.start=1e308", "drive.omega_s=1e308")]
    + [pytest.param("fig3", o, id=o) for o in ("noise.n_bar=inf", "noise.gamma_du=nan")]
    # a composite leakage estimate (omega_d / omega_s)^4 that divides by zero or overflows
    + [pytest.param("fig3", o, id=o) for o in ("drive.omega_s=0.0", "drive.omega_s=1e-300", "drive.omega_d=1e200")],
)
def test_invalid_override_exits_with_config_error(tmp_path, capsys, preset, override):
    assert main(["run", "--preset", preset, "--out", str(tmp_path), "--override", override]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize(
    "override",
    [
        "tomography.dark_mean=50",
        "tomography.dark_mean=-1",
        "tomography.pump_prob=1.5",
        "tomography.n_bins=1",
        "tomography.resamples=-1",
        "tomography.epsilon_points=0",
        "tomography.epsilon_points=1",
        "tomography.shots_data=0",
        "tomography.shots_analysis=0",
        "tomography.shots_reference=-5",
        # values that would overflow numpy's Poisson draw, or run or allocate without bound
        "tomography.bright_mean=1e300",
        "tomography.bright_mean=1001",
        "tomography.shots_reference=1000001",
        "tomography.shots_data=1000000000000",
        "tomography.shots_analysis=1000000000000",
        "tomography.n_bins=51",
        "tomography.resamples=1000000000000",
        "tomography.epsilon_points=1000000000000",
    ],
)
def test_invalid_tomography_value_exits_with_config_error(tmp_path, capsys, override):
    cfg = tmp_path / "tomography.cfg"
    cfg.write_text("scenario = tomography_demo\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--override", override]) == 2
    assert capsys.readouterr().err.startswith("config error: [tomography]")


@pytest.mark.parametrize(
    "preset, override, error",
    [
        *(
            pytest.param(preset, f"drive.omega_d={omega_d}", "pi time", id=f"{omega_d}-{preset}")
            for omega_d in ("-1.0", "0.0", "1e308")
            for preset in ("fig2", "fig3", "three_ion")
        ),
        # the composite plan's own omega_d = |omega_s| / (3 sqrt 6 m) is 0
        # here, and the preset's omega_d then divides by omega_s
        pytest.param("fig3", "drive.omega_s=0.0", "the leakage estimate", id="omega_s=0.0-fig3"),
    ],
)
def test_a_drive_without_a_usable_pi_time_exits_with_config_error(tmp_path, capsys, preset, override, error):
    """omega_d <= 0, or one so large that the pi time underflows to 0, ends
    in exit 2 before anything is simulated, not in a traceback from the
    scatter preset whose rates the pi time sets, and without a numpy
    warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--preset", preset, "--out", str(tmp_path), "--override", override]) == 2
    assert capsys.readouterr().err.startswith(f"config error: [drive] {error}")
    assert list(tmp_path.iterdir()) == []


def test_invalid_tomography_value_exits_before_propagating(tmp_path, capsys, monkeypatch):
    def no_propagation(*args, **kwargs):
        raise AssertionError("the trace run was propagated")

    monkeypatch.setattr("zenosim.cli._plan_samples", no_propagation)
    monkeypatch.setattr("zenosim.cli.error_budget", no_propagation)
    overrides = ["--override", "tomography.enabled=true", "--override", "tomography.n_bins=1"]
    assert main(["run", "--preset", "fig3", "--out", str(tmp_path), *overrides]) == 2
    assert capsys.readouterr().err.startswith("config error: [tomography] n_bins")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", ["noise.gamma_ou=1e30", "drive.duration=1e3"])
def test_huge_finite_values_exit_3_within_seconds(tmp_path, override):
    """A rate or a duration far out of range would take the Taylor kernel
    about 1e22 matvecs at fig3; its planned work passes the run's budget
    before the first step, so it ends in exit code 3, not a hang.  Run in a
    child with a timeout, so a broken bound fails instead of hanging."""
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "zenosim.cli", "run", "--preset", "fig3", "--override", override]
    out = subprocess.run([*cmd, "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert "matvecs; a rate or a duration is out of range" in out.stderr
    assert "Traceback" not in out.stderr


def test_an_overflowing_hamiltonian_exits_3(tmp_path, capsys):
    """A drive so strong that the sideband Hamiltonian overflows ends in
    exit code 3, not in a traceback from the Hermiticity check, and prints
    no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--preset", "fig_s6a", "--out", str(tmp_path), "--override", "drive.omega_s=1e308"]) == 3
    assert "operator has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["noise.gamma_ou=1e308", "noise.gamma_heat=1e308"])
def test_an_overflowing_rate_exits_3_without_numpy_warnings(tmp_path, capsys, override):
    """A rate that overflows the Lindblad generator ends in exit code 3 from
    the kernel's norm check, and the generator's build, in scipy's sparse
    products and kron (the heating jumps' feed overflows there first),
    prints no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--preset", "fig3", "--out", str(tmp_path), "--override", override]) == 3
    err = capsys.readouterr().err
    assert "generator 1-norm nan" in err and "RuntimeWarning" not in err


def test_a_composite_drive_outside_the_zeno_regime_exits_with_config_error(tmp_path, capsys):
    """At omega_d >= |omega_s| the composite leakage estimate (omega_d /
    omega_s)^4 is not below 1, so the run ends in exit 2 before anything is
    propagated instead of writing a budget_leakage far above 1."""
    overrides = ["drive.omega_s=1e3", "drive.duration=3e-5", "n_fock=6"]
    args = [arg for o in overrides for arg in ("--override", o)]
    assert main(["run", "--preset", "fig3", "--out", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err.startswith("config error: [drive] the leakage estimate")
    assert list(tmp_path.iterdir()) == []


def test_cli_peak_spin_matrix_matches_dense_reference(tmp_path, monkeypatch):
    """The readout of a leak-level three-ion run starts from the peak
    state's spin matrix, traced from the leak-set blocks of the one sample
    the streamed trace keeps: it equals the motional partial trace of the
    dense peak state of simulate_plan's run of the same plan and dims."""
    import zenosim.cli as cli
    from zenosim.dynamics import state_fidelity
    from zenosim.hilbert import named_state, partial_trace_motion
    from zenosim.protocol import simulate_plan

    runs, readouts = [], []
    real_samples = cli._plan_samples
    monkeypatch.setattr(cli, "_plan_samples", lambda *a: runs.append(a) or real_samples(*a))
    monkeypatch.setattr(cli, "_run_tomography", lambda settings, seed, out, rho, dims: readouts.append(rho) or {})
    overrides = ["noise.gamma_heat=0", "noise.n_bar=0", "n_fock=8", "tomography.enabled=true"]
    args = [arg for o in overrides for arg in ("--override", o)]
    assert main(["run", "--preset", "three_ion", "--out", str(tmp_path), *args]) == 0
    (run,), (rho_spin,) = runs, readouts
    traj = simulate_plan(*run)
    assert traj.dims.leak_level and len(traj.groups) == 8
    target = named_state(traj.dims, "W", 0)
    states = traj.states
    peak = int(np.argmax([state_fidelity(traj.dims, s, target) for s in states]))
    np.testing.assert_allclose(rho_spin, partial_trace_motion(traj.dims, states[peak]), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "overrides",
    [
        ["sweep.scheme=composite", "sweep.axis2=t1", "sweep.points2=0"],
        ["sweep.scheme=composite", "sweep.axis2=t1", "sweep.points2=1"],
        ["sweep.scheme=banana"],
        ["sweep.axis=t1", "sweep.start=0.2", "sweep.stop=0.5"],
        ["sweep.axis2=t1"],
        ["sweep.start=0"],
        ["sweep.points=100001"],
        ["drive.omega_s=0"],
        ["drive.omega_s=-1e5"],
        ["sweep.scheme=composite", "sweep.axis=t1", "sweep.start=-0.1", "sweep.stop=0.5"],
        ["sweep.axis=n_bar", "sweep.start=-1", "sweep.stop=0"],
        ["sweep.axis=gamma", "sweep.start=0", "sweep.stop=-1"],
    ],
    ids=[
        "points2=0",
        "points2=1-range",
        "scheme=banana",
        "t1-single",
        "axis2=t1-single",
        "ratio=0",
        "cells>max",
        "omega_s=0",
        "omega_s<0",
        "t1<0",
        "n_bar<0",
        "gamma<0",
    ],
)
def test_invalid_sweep_exits_with_config_error(tmp_path, capsys, overrides):
    argv = ["run", "--preset", "fig_s6a", "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "sweep.tsv").exists()


def test_noiseless_trace_run(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(GOOD_CONFIG)
    assert main(["run", str(good), "--out", str(tmp_path / "run")]) == 0
    trace = (tmp_path / "run" / "two_ion_single_trace.tsv").read_text().splitlines()
    header = [l for l in trace if l.startswith("#")]
    assert any("omega_s_rad_s" in l for l in header)
    assert any(l.startswith("# seed = 5") for l in header)
    cols = next(l for l in trace if not l.startswith("#")).split("\t")
    assert cols[:5] == ["t_s", "P0", "P1", "P2", "F_T"]
    first = trace[trace.index("\t".join(cols)) + 1].split("\t")
    assert float(first[3]) == pytest.approx(1.0)  # starts with two ions up
    budget = dict(
        line.split(" = ") for line in (tmp_path / "run" / "two_ion_single_budget.txt").read_text().splitlines()
    )
    assert abs(float(budget["peak_time_s"]) - 116e-6) < 6e-6
    assert float(budget["peak_fidelity"]) > 0.985


def test_a_cut_composite_trace_names_the_schedule_that_ran(tmp_path):
    """A duration shorter than t1 cuts the composite run in its first
    segment, and the trace header gives that schedule's segment times."""
    out = tmp_path / "cut"
    overrides = ["--override", "drive.duration=1e-5", "--override", "n_fock=6"]
    assert main(["run", "--preset", "fig3", *overrides, "--out", str(out)]) == 0
    lines = (out / "two_ion_composite_trace.tsv").read_text().splitlines()
    header = dict(line[2:].split(" = ") for line in lines if line.startswith("# "))
    assert (float(header["t1_s"]), float(header["t2_s"])) == (1e-5, 0.0)
    assert float(lines[-1].split("\t")[0]) == 1e-5


def test_repeated_runs_are_bit_identical(tmp_path):
    for sub in ("a", "b"):
        assert main(["run", "--preset", "fig_s4", "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "dressed_scan.tsv").read_bytes()
    b = (tmp_path / "b" / "dressed_scan.tsv").read_bytes()
    assert a == b


def test_dressed_scan_spot_values(tmp_path):
    assert main(["run", "--preset", "fig_s4", "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "dressed_scan.tsv", skiprows=4)
    deltas = data[:, 0]
    freqs = data[:, 1:]
    k0 = int(np.argmin(np.abs(deltas)))
    assert np.min(np.abs(freqs[k0])) < 1e-9  # dark state at zero detuning
    k_opt = int(np.argmin(np.abs(deltas - np.sqrt(7.0 / 3.0))))
    row = np.sort(freqs[k_opt])
    assert abs(row[0] + row[1]) < 0.02  # balanced pair
    assert abs(abs(row[2]) / abs(row[0]) - 3.97) < 0.05


def test_degenerate_sweep_matches_scenario(tmp_path):
    """A one-point ratio sweep reproduces the scenario's peak fidelity."""
    ratio = 17.6 / 1.5968  # the synchronized m = 2 operating point
    sweep_cfg = ScenarioConfig(
        scenario="sweep",
        drive={"omega_s": 2 * np.pi * 17.6e3},
        sweep={"scheme": "single", "axis": "omega_ratio", "start": ratio, "stop": ratio, "points": 1},
    )
    run_scenario(sweep_cfg, tmp_path / "sweep")
    arr = np.loadtxt(tmp_path / "sweep" / "sweep.tsv", skiprows=7).reshape(-1)
    scen_cfg = ScenarioConfig(
        scenario="two_ion_single",
        drive={
            "omega_s": 2 * np.pi * 17.6e3,
            "omega_d": 2 * np.pi * 17.6e3 / ratio,
            "duration": 135e-6,
        },
    )
    run_scenario(scen_cfg, tmp_path / "scen")
    budget = dict(
        line.split(" = ")
        for line in (tmp_path / "scen" / "two_ion_single_budget.txt").read_text().splitlines()
    )
    assert abs(arr[1] - float(budget["peak_fidelity"])) < 2e-3


def test_sweep_validation(tmp_path):
    cfg = ScenarioConfig(scenario="sweep", sweep={"axis": "banana", "start": 1.0, "stop": 2.0})
    with pytest.raises(ConfigError):
        run_scenario(cfg, tmp_path)
    cfg = ScenarioConfig(scenario="sweep", sweep={"axis": "omega_ratio"})
    with pytest.raises(ConfigError):
        run_scenario(cfg, tmp_path)


def test_tomography_demo_scenario(tmp_path):
    cfg = ScenarioConfig(
        scenario="tomography_demo",
        seed=21,
        tomography={"resamples": 25, "shots_data": 8000, "shots_analysis": 600, "shots_reference": 2000},
    )
    paths = run_scenario(cfg, tmp_path)
    entries = dict(line.split(" = ") for line in paths["estimate"].read_text().splitlines())
    assert abs(float(entries["fidelity"]) - 1.0) < 0.01
    assert float(entries["ci_lower"]) <= float(entries["fidelity"]) <= float(entries["ci_upper"])
    hist_files = sorted(p.name for p in paths["histograms"].iterdir())
    assert "ref_0.txt" in hist_files and "data_0.txt" in hist_files
    # determinism of the whole chain
    paths2 = run_scenario(cfg, tmp_path / "again")
    assert paths["estimate"].read_bytes() == paths2["estimate"].read_bytes()


def test_tomography_demo_fits_each_problem_once(tmp_path, monkeypatch):
    """The readout fits the systematic sweep's points and the bootstrap's
    resamples, and takes its estimate from the sweep's epsilon = 0 point
    instead of fitting that problem a second time."""
    from zenosim import tomography

    fits = []
    fit_stack = tomography._fit_stack
    monkeypatch.setattr(tomography, "_fit_stack", lambda c, *args: fits.append(len(c)) or fit_stack(c, *args))
    settings = {"resamples": 6, "epsilon_points": 3, "shots_data": 8000, "shots_analysis": 600, "shots_reference": 2000}
    run_scenario(ScenarioConfig(scenario="tomography_demo", seed=21, tomography=settings), tmp_path)
    assert fits == [3, 6]


def test_an_unconverged_readout_estimate_exits_4(tmp_path, monkeypatch, capsys):
    """The readout's estimate is the sweep's epsilon = 0 fit, and a sweep
    fit that does not converge ends in exit code 4."""
    from zenosim import tomography

    monkeypatch.setattr(tomography, "_MAX_OUTER", 3)
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("scenario = tomography_demo\n[tomography]\nresamples = 2\nshots_reference = 2000\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "fit at epsilon = 0 did not converge" in capsys.readouterr().err


def test_three_ion_trace_noiseless(tmp_path):
    cfg = ScenarioConfig(
        scenario="three_ion_w",
        drive={"omega_s": 2 * np.pi * 19.0e3, "omega_d": 2 * np.pi * 1.24e3, "duration": 130e-6},
        n_fock=6,
    )
    run_scenario(cfg, tmp_path)
    trace = (tmp_path / "three_ion_w_trace.tsv").read_text().splitlines()
    cols = next(l for l in trace if not l.startswith("#")).split("\t")
    assert cols[:6] == ["t_s", "P0", "P1", "P2", "P3", "F_W"]
    budget = dict(
        line.split(" = ") for line in (tmp_path / "three_ion_w_budget.txt").read_text().splitlines()
    )
    assert float(budget["peak_fidelity"]) > 0.97
    assert abs(float(budget["peak_time_s"]) - np.pi / (2 * np.sqrt(3) * 2 * np.pi * 1.24e3)) < 4e-6


def test_fig2_preset_reproduces_headline_peak(tmp_path):
    """Full noise preset at the published two-ion operating point peaks
    near 0.98."""
    assert (
        main(
            [
                "run",
                "--preset",
                "fig2",
                "--out",
                str(tmp_path),
                "--override",
                "drive.duration=130 us",
            ]
        )
        == 0
    )
    budget = dict(
        line.split(" = ") for line in (tmp_path / "two_ion_single_budget.txt").read_text().splitlines()
    )
    assert 0.97 < float(budget["peak_fidelity"]) < 0.985
    assert abs(float(budget["peak_time_s"]) - 116e-6) < 8e-6


_KEYS = sorted({key for keys in _SCHEMA.values() for key in keys}) + ["bogus"]
_VALUES = st.one_of(
    st.sampled_from(["17.3 kHz", "25 us", "1e-3 1/s", "two_ion_single", "sweep", "true", "1,2,3", "nan", "-1", ""]),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.sampled_from(sorted(_SCHEMA) + ["bogus", "drive"]).map(lambda section: f"[{section}]"),
    st.builds(lambda key, value: f"{key} = {value}", st.sampled_from(_KEYS), _VALUES),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(_LINES, max_size=12).map("\n".join))
def test_parse_config_text_accepts_or_raises_config_error(text):
    try:
        config = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)


def test_fig3_preset_reproduces_headline_peak(tmp_path):
    assert main(["run", "--preset", "fig3", "--out", str(tmp_path)]) == 0
    budget = dict(
        line.split(" = ") for line in (tmp_path / "two_ion_composite_budget.txt").read_text().splitlines()
    )
    assert abs(float(budget["peak_fidelity"]) - 0.98912374221) < 1e-6
    assert abs(float(budget["peak_time_s"]) - 72.7e-6) < 1e-12


def test_fig3_leak_level_readout_is_pinned(tmp_path):
    """The fig3 peak state carries a leak level: its synthetic readout goes
    through the leak-aware bright-class weights before the qubit-only fit."""
    overrides = ["--override", "tomography.enabled=true", "--override", "tomography.resamples=20"]
    assert main(["run", "--preset", "fig3", "--out", str(tmp_path), *overrides]) == 0
    entries = dict(line.split(" = ") for line in (tmp_path / "tomography_estimate.txt").read_text().splitlines())
    assert entries["target"] == "T"
    assert entries["fidelity"] == "0.991599529453"
    assert entries["iterations"] == "2240"
    assert entries["bin_boundaries"] == "20,50,57,61"


@pytest.mark.parametrize(
    "sweep, expected",
    [
        (
            {"axis": "n_bar", "start": 0.0, "stop": 0.05, "points": 3},
            [0.990252871292332, 0.966100545833467, 0.943098655830589],
        ),
        (
            {"axis": "gamma", "start": 0.0, "stop": 200.0, "points": 3},
            [0.990252871292332, 0.950101338053339, 0.911669828027327],
        ),
        (
            {"scheme": "composite", "axis": "t1", "start": 0.2, "stop": 0.5, "points": 3},
            [0.968284777902768, 0.997252455083351, 0.910646117232528],
        ),
    ],
    ids=["n_bar", "gamma", "t1"],
)
def test_sweep_axis_values_are_pinned(tmp_path, sweep, expected):
    """End fidelities of the noise and intermediate-time axes at 17.6 kHz."""
    cfg = ScenarioConfig(scenario="sweep", drive={"omega_s": 2 * np.pi * 17.6e3}, sweep=sweep)
    paths = run_scenario(cfg, tmp_path)
    lines = [line for line in paths["sweep"].read_text().splitlines() if not line.startswith("#")]
    assert lines[0].split("\t") == [sweep["axis"], "fidelity", "error"]
    data = np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])
    np.testing.assert_allclose(data[:, 0], np.linspace(sweep["start"], sweep["stop"], 3), rtol=0, atol=1e-12)
    np.testing.assert_allclose(data[:, 1], expected, rtol=0, atol=1e-11)
    np.testing.assert_allclose(data[:, 2], 1.0 - data[:, 1], rtol=0, atol=1e-11)


def test_composite_noise_sweep_runs_the_composite_plan(tmp_path):
    omega_s = 2 * np.pi * 17.6e3
    cfg = ScenarioConfig(
        scenario="sweep",
        drive={"omega_s": omega_s},
        sweep={"scheme": "composite", "axis": "n_bar", "start": 0.02, "stop": 0.02, "points": 1},
    )
    lines = run_scenario(cfg, tmp_path)["sweep"].read_text().splitlines()
    assert "# scheme = composite" in lines
    fid = float(lines[-1].split("\t")[1])
    noise = NoiseModel(n_bar=0.02)
    assert abs(fid - simulate_plan_fidelity(plan_composite(omega_s, 1), noise)) < 1e-11
    assert abs(fid - simulate_plan_fidelity(plan_single(omega_s, 2), noise)) > 1e-3


def test_three_ion_preset_reproduces_headline_peak(tmp_path):
    assert main(["run", "--preset", "three_ion", "--out", str(tmp_path)]) == 0
    budget = dict(
        line.split(" = ") for line in (tmp_path / "three_ion_w_budget.txt").read_text().splitlines()
    )
    assert abs(float(budget["peak_fidelity"]) - 0.919987780996) < 1e-6
    assert abs(float(budget["peak_time_s"]) - 0.00011611026079) < 1e-12


def test_composite_ratio_by_t1_sweep_is_pinned(tmp_path):
    """End fidelities of every cell of a 3 x 3 omega_ratio x t1 composite grid at 17.6 kHz."""
    sweep = {
        "scheme": "composite",
        "axis": "omega_ratio",
        "start": 6.0,
        "stop": 8.0,
        "points": 3,
        "axis2": "t1",
        "start2": 0.2,
        "stop2": 0.5,
        "points2": 3,
    }
    expected = [
        [0.983121204656, 0.959960945821, 0.788614934129],
        [0.974674987927, 0.995667400328, 0.883669512091],
        [0.958498026809, 0.989647828457, 0.950822107445],
    ]
    cfg = ScenarioConfig(scenario="sweep", drive={"omega_s": 2 * np.pi * 17.6e3}, sweep=sweep)
    paths = run_scenario(cfg, tmp_path)
    lines = [line for line in paths["sweep"].read_text().splitlines() if not line.startswith("#")]
    assert lines[0].split("\t") == ["omega_ratio", "t1", "fidelity", "error"]
    data = np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])
    ratios, t1s = np.meshgrid([6.0, 7.0, 8.0], [0.2, 0.35, 0.5], indexing="ij")
    np.testing.assert_allclose(data[:, 0], ratios.ravel(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(data[:, 1], t1s.ravel(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(data[:, 2], np.ravel(expected), rtol=0, atol=1e-12)
    np.testing.assert_allclose(data[:, 3], 1.0 - data[:, 2], rtol=0, atol=1e-11)


def test_sweep_with_cold_and_warm_spectrum_memo_is_byte_identical(tmp_path):
    from zenosim.dynamics import _segment_spectrum

    sweep = {
        "scheme": "composite",
        "axis": "omega_ratio",
        "start": 6.0,
        "stop": 9.0,
        "points": 4,
        "axis2": "t1",
        "start2": 0.2,
        "stop2": 0.5,
        "points2": 4,
    }
    cfg = ScenarioConfig(scenario="sweep", drive={"omega_s": 2 * np.pi * 17.6e3}, sweep=sweep)
    _segment_spectrum.cache_clear()
    cold = run_scenario(cfg, tmp_path / "cold")["sweep"].read_bytes()
    misses = _segment_spectrum.cache_info().misses
    assert misses == 2 * 4
    warm = run_scenario(cfg, tmp_path / "warm")["sweep"].read_bytes()
    assert _segment_spectrum.cache_info().misses == misses
    assert warm == cold


#: the numeric keys each cheap preset reads, after the overrides that make
#: it cheap: fig2 and fig3 cut to a 30 us run at six Fock levels, about
#: 0.2 s each, and the tomography_demo scenario (run from a config file
#: that names it alone) cut to two bootstrap resamples, about 0.5 s
_CHEAP_PRESET_KEYS = {
    "fig_s4": ((), ("drive.omega_s", "scan.start", "scan.stop", "scan.points")),
    "fig_s6a": (
        (),
        (
            "drive.omega_s",
            "drive.omega_d",
            "drive.delta",
            "drive.m",
            "drive.t1",
            "drive.t2",
            "sweep.start",
            "sweep.stop",
            "sweep.points",
        ),
    ),
    "fig2": (
        ("drive.duration=3e-05", "n_fock=6"),
        (
            "drive.omega_s",
            "drive.omega_d",
            "drive.delta",
            "drive.m",
            "drive.duration",
            "noise.gamma_du",
            "noise.gamma_ud",
            "noise.gamma_ou",
            "noise.gamma_od",
            "noise.gamma_heat",
            "noise.n_bar",
            "noise.stark",
        ),
    ),
    "fig3": (
        ("drive.duration=3e-05", "n_fock=6"),
        (
            "drive.omega_s",
            "drive.duration",
            "noise.gamma_du",
            "noise.gamma_ud",
            "noise.gamma_ou",
            "noise.gamma_od",
            "noise.gamma_heat",
            "noise.n_bar",
            "noise.stark",
        ),
    ),
    "tomography_demo": (
        ("tomography.resamples=2",),
        tuple(
            f"tomography.{key}"
            for key, parser in _SCHEMA["tomography"].items()
            if parser.__name__ in ("_parse_int", "parse_quantity")
        ),
    ),
}


def _extreme_values(key: str):
    """Negative, zero and huge finite values of a key's type, as override
    text; a list of Stark shifts gets one for each of the two ions."""
    section, _, name = key.partition(".")
    parser = _SCHEMA[section][name].__name__
    if parser == "_parse_int":
        return (st.integers(-(10**18), 0) | st.integers(10**9, 10**18)).map(repr)
    huge = st.floats(1e15, 1e308)
    values = st.just(0.0) | st.floats(-1e308, -1e-300) | huge | huge.map(lambda v: -v)
    if parser == "_parse_list":
        return st.tuples(values, values).map(lambda pair: ",".join(map(repr, pair)))
    return values.map(repr)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [(preset, base, key) for preset, (base, keys) in _CHEAP_PRESET_KEYS.items() for key in keys]
    ).flatmap(lambda case: st.tuples(st.just(case), _extreme_values(case[2])))
)
# the composite leakage estimate (omega_d / omega_s)^4 at omega_s = 0, at a
# tiny omega_s and at an omega_s below omega_d, where it passes 1
@example(case=(("fig3", _CHEAP_PRESET_KEYS["fig3"][0], "drive.omega_s"), "0.0"))
@example(case=(("fig3", _CHEAP_PRESET_KEYS["fig3"][0], "drive.omega_s"), "1e-300"))
@example(case=(("fig3", _CHEAP_PRESET_KEYS["fig3"][0], "drive.omega_s"), "1000.0"))
def test_extreme_overrides_end_in_a_documented_exit_code(case):
    """One override of a cheap preset or scenario with a negative, zero or
    huge finite value ends in exit code 0, 2 (config), 3 (numerics) or 4 (convergence),
    prints no traceback, and an exit-0 run writes no nan and a budget
    leakage within [0, 1]."""
    import contextlib
    import io
    import tempfile

    (preset, base, key), value = case
    overrides = [arg for text in (*base, f"{key}={value}") for arg in ("--override", text)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        source = ["--preset", preset]
        if preset not in PRESETS:
            source = [str(Path(tmp, "scenario.cfg"))]
            Path(source[0]).write_text(f"scenario = {preset}\n")
        code = main(["run", *source, "--out", str(Path(tmp, "out")), *overrides])
        written = [path.read_text() for path in Path(tmp, "out").rglob("*") if path.is_file()]
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        assert not any("nan" in text.lower() for text in written)
        lines = [line for text in written for line in text.splitlines()]
        leakage = [float(line.split(" = ")[1]) for line in lines if line.startswith("budget_leakage = ")]
        assert all(0 <= value <= 1 for value in leakage), leakage


def test_a_t1_sweep_longer_than_a_walk_matches_each_cell_alone(tmp_path, monkeypatch):
    """A 1-D t1 sweep of _WALK_CELLS + 3 cells is two stacked walks, capped
    at _WALK_CELLS cells, and each printed fidelity is the cell's
    one-at-a-time value."""
    from zenosim import dynamics, protocol

    walks = []
    real_walk = protocol._pure_walk

    def counted(schedules, *args):
        walks.append(len(schedules))
        return real_walk(schedules, *args)

    monkeypatch.setattr(protocol, "_pure_walk", counted)
    points = dynamics._WALK_CELLS + 3
    sweep = {"scheme": "composite", "axis": "t1", "start": 0.0, "stop": 1.0, "points": points}
    cfg = ScenarioConfig(scenario="sweep", drive={"omega_s": 2 * np.pi * 17.6e3}, sweep=sweep)
    lines = run_scenario(cfg, tmp_path)["sweep"].read_text().splitlines()
    assert walks == [dynamics._WALK_CELLS, 3]
    rows = [line.split("\t") for line in lines if not line.startswith("#")]
    assert rows[0] == ["t1", "fidelity", "error"]
    printed = [float(row[1]) for row in rows[1:]]
    base = plan_composite(2 * np.pi * 17.6e3, 1)
    plans = [experimental_override(base, t1=f * base.t_pi, t2=(1 - f) * base.t_pi) for f in np.linspace(0, 1, points)]
    alone = [simulate_plan_fidelity(p) for p in plans]
    np.testing.assert_allclose(printed, alone, rtol=0, atol=1e-12)  # 12 printed digits


def test_a_sweep_row_out_of_range_names_its_first_cell(tmp_path):
    """A row is validated once, before it is walked, with the message the
    cell-by-cell loop gave at the row's first cell; nothing is written."""
    sweep = {
        "scheme": "composite",
        "axis": "omega_ratio",
        "start": 8.0,
        "stop": 1e-310,
        "points": 2,
        "axis2": "t1",
        "start2": 0.2,
        "stop2": 0.5,
        "points2": 3,
    }
    cfg = ScenarioConfig(scenario="sweep", drive={"omega_s": 2 * np.pi * 17.6e3}, sweep=sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        message = r"^\[sweep\] pi time 0 s at omega_ratio = 1e-310, t1 = 0\.2 is out of range$"
        with pytest.raises(ConfigError, match=message):
            run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--preset", "fig3", "--override=drive.omega_s=1e3", "--override=drive.duration=3e-5", "--override=n_fock=6"],
        ["--preset", "fig_s6a", "--override=sweep.scheme=bogus"],
    ],
    ids=["fig3-leakage", "fig_s6a-scheme"],
)
def test_a_run_that_exits_2_leaves_no_output_directory(tmp_path, args, capsys):
    out = tmp_path / "fresh" / "out"
    assert main(["run", *args, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        ["drive.omega_s=1e200"],
        ["sweep.scheme=composite", "sweep.start=1e-300"],
    ],
    ids=["omega_s-1e200", "composite-ratio-1e-300"],
)
def test_overflowing_sweeps_print_no_numpy_warning(tmp_path, overrides):
    """Phases and Hamiltonians far out of range raise no RuntimeWarning on
    the way to exit 0: the pure-state phase product runs under np.errstate
    (its norm check rejects non-finite amplitudes) and the Hermiticity
    check of hilbert.OperatorMatrix is scale-free."""
    args = [arg for text in overrides for arg in ("--override", text)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--preset", "fig_s6a", *args, "--out", str(tmp_path)]) == 0
