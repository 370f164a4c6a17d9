"""Pulse planning, analytic error budgets, and numerical fine tuning.

Planning rules for the two-ion schemes at the balanced detuning
delta = sqrt(7/3) Omega_s, where |Delta_1| = (2/sqrt(3)) Omega_s:

    single:    Omega_d = |Delta_1| / (sqrt(2) (4m + 1)),  m = 0, 1, 2, ...
    composite: Omega_d = Omega_s / (3 sqrt(6) m),         m = 1, 2, ...
               t1 = t_pi / 3, second segment with (-Omega_s, -delta)

both with t_pi = pi / (2 sqrt(2) Omega_d).  The drive ratios appear at
Omega_s/Omega_d = sqrt(3/2) (4m+1) ~ 6.1, 11.0 (single) and 3 sqrt(6) m
~ 7.35, 14.7 (composite).  For three ions the carrier is resonant,
delta' = 0, and t_pi = pi / (2 sqrt(3) Omega_d').
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import _WALK_CELLS, Trajectory, _density_run, _fidelities, _Fold, _one_blas_thread, _pure_walk, _stacked
from .dressed import balanced_detuning
from .hilbert import DensityOperator, PureState, SystemDims, named_state, spin_state, thermal_product_state
from .model import IonGeometry, NoiseModel, PulseSchedule, PulseSegment, carrier_pi_time, mean_decay_rate

#: differential qubit-frequency shift (outer ions vs center) used by the
#: three-ion noise preset.  A static sigma_z model reproduces the quoted
#: ~0.023 infidelity from unequal illumination at this magnitude; see the
#: error-budget docs.
THREE_ION_STARK_SHIFT = 2 * np.pi * 0.7e3

#: ambient heating of the in-phase mode, quanta per second
THREE_ION_HEATING_RATE = 136.0

#: residual thermal occupation after cooling the in-phase mode
THREE_ION_N_BAR = 0.02

SINGLE_PULSE_SPONTANEOUS_DEFICIT = 8e-3
COMPOSITE_PULSE_SPONTANEOUS_DEFICIT = 5e-3
THREE_ION_SPONTANEOUS_DEFICIT = 10e-3


@dataclass(frozen=True)
class ProtocolPlan:
    scheme: str  # "single" or "composite"
    m: int | None
    omega_s: float
    omega_d: float
    delta: float
    t1: float | None = None
    t2: float | None = None
    n_ions: int = 2

    @property
    def t_pi(self) -> float:
        """The carrier pi time of omega_d (model.carrier_pi_time)."""
        return carrier_pi_time(self.omega_d, self.n_ions)

    def total_duration(self) -> float:
        if self.scheme == "composite":
            return self.t1 + self.t2
        return self.t_pi


@dataclass(frozen=True)
class ErrorBudget:
    leakage: float
    spontaneous: float
    thermal: float
    heating: float
    stark: float
    total_predicted: float

    def entries(self) -> dict[str, float]:
        return {
            "leakage": self.leakage,
            "spontaneous": self.spontaneous,
            "thermal": self.thermal,
            "heating": self.heating,
            "stark": self.stark,
        }


def plan_single(omega_s: float, m: int) -> ProtocolPlan:
    """Single-pulse plan with the drive synchronized to the dressed shifts."""
    if m < 0:
        raise ValueError("m must be >= 0 for the single-pulse scheme")
    delta = balanced_detuning(omega_s)
    d1 = (2.0 / np.sqrt(3.0)) * abs(omega_s)
    omega_d = d1 / (np.sqrt(2.0) * (4 * m + 1))
    return ProtocolPlan("single", m, omega_s, omega_d, delta)


def plan_composite(omega_s: float, m: int) -> ProtocolPlan:
    """Two-segment plan with the sideband sign reversed at t1 = t_pi / 3.

    The sign flip of (Omega_s, delta) is what the hardware realizes as a
    pi step of the laser phase together with the detuning reversal.
    """
    if m < 1:
        raise ValueError("m must be >= 1 for the composite scheme")
    delta = balanced_detuning(omega_s)
    omega_d = abs(omega_s) / (3.0 * np.sqrt(6.0) * m)
    t_pi = carrier_pi_time(omega_d, 2)
    return ProtocolPlan("composite", m, omega_s, omega_d, delta, t1=t_pi / 3.0, t2=2.0 * t_pi / 3.0)


def plan_three_ion(omega_s: float, omega_d: float) -> ProtocolPlan:
    """Resonant three-ion plan; the carrier sets the pi time."""
    return ProtocolPlan("single", None, omega_s, omega_d, 0.0, n_ions=3)


def experimental_override(plan: ProtocolPlan, **fields) -> ProtocolPlan:
    """Replace plan fields with measured values.

    t_pi follows omega_d.  Overriding omega_d of a composite plan also resets
    t1 and t2 to their canonical fractions of the new t_pi, unless those are
    overridden explicitly.
    """
    updated = dataclasses.replace(plan, **fields)
    if "omega_d" in fields and plan.scheme == "composite":
        t_pi = updated.t_pi
        updated = dataclasses.replace(updated, t1=fields.get("t1", t_pi / 3.0), t2=fields.get("t2", 2.0 * t_pi / 3.0))
    return updated


def plan_schedule(plan: ProtocolPlan, duration: float | None = None) -> PulseSchedule:
    """Pulse schedule realizing the plan.

    The optional duration sets the length of the run (the trace scenarios
    plot past the pi time).  A composite plan keeps its two segments: the
    first ends at t1 or at duration, whichever comes first, and the second
    takes the rest, none if duration is at most t1.
    """
    if plan.scheme == "composite":
        t1 = plan.t1 if duration is None else min(plan.t1, duration)
        t2 = plan.t2 if duration is None else duration - t1
        return PulseSchedule(
            (
                PulseSegment(t1, plan.omega_s, plan.omega_d, plan.delta),
                PulseSegment(t2, -plan.omega_s, plan.omega_d, -plan.delta),
            )
        )
    return PulseSchedule(
        (PulseSegment(plan.t_pi if duration is None else duration, plan.omega_s, plan.omega_d, plan.delta),)
    )


def default_dims(plan: ProtocolPlan, noise: NoiseModel | None = None) -> SystemDims:
    """Fock truncation policy: 10 levels for unitary runs, more for thermal
    or heated runs, plus the leak level when scatter rates need it."""
    thermal = noise is not None and (noise.n_bar > 0 or noise.gamma_heat > 0)
    leak = noise is not None and noise.needs_leak_level
    if plan.n_ions == 3:
        n_fock = 12 if thermal else 8
    else:
        n_fock = 16 if thermal else 10
    return SystemDims(plan.n_ions, n_fock, leak)


def plan_geometry(plan: ProtocolPlan) -> IonGeometry:
    return IonGeometry.two_ion_stretch() if plan.n_ions == 2 else IonGeometry.three_ion_com()


def _start(plan: ProtocolPlan, noise: NoiseModel | None, dims: SystemDims) -> PureState | DensityOperator:
    """The start state of a run of the plan: |uu>, or |uuu> for three ions,
    in the motional ground state, or, for a noise model with Lindblad rates
    or a thermal start (n_bar > 0), the thermal product state of it."""
    start = "uuu" if plan.n_ions == 3 else "uu"
    if noise is not None and (noise.has_lindblad or noise.n_bar > 0):
        return thermal_product_state(dims, spin_state(dims, start), noise.n_bar)
    return named_state(dims, start, 0)


@_one_blas_thread
def simulate_plan(
    plan: ProtocolPlan,
    noise: NoiseModel | None = None,
    duration: float | None = None,
    dims: SystemDims | None = None,
    sample_dt: float | None = None,
) -> Trajectory:
    """Run the plan from all ions up and return the sampled trajectory: the
    run of _plan_samples, stacked (dynamics._stacked).

    dims defaults to default_dims(plan, noise), duration and sample_dt to
    those of plan_schedule and the propagators (total / 400).  OpenBLAS
    runs on one thread for the call (dynamics._one_blas_thread).
    """
    if dims is None:
        dims = default_dims(plan, noise)
    times, fold, chunks = _plan_samples(plan, noise, duration, dims, sample_dt)
    return _stacked(plan_schedule(plan, duration), dims, times, fold, chunks)


def _plan_samples(
    plan: ProtocolPlan,
    noise: NoiseModel | None,
    duration: float | None,
    dims: SystemDims,
    sample_dt: float | None = None,
) -> tuple[np.ndarray, _Fold | None, Iterable]:
    """(times, fold, chunks) of a plan's run from its start state (_start):
    the one place it starts, for simulate_plan and for callers that read a
    few series of it and keep no stack.

    A density start is propagated a check chunk at a time
    (dynamics._density_run).  A pure one is walked with the model's Stark
    shifts (dynamics._pure_walk), at most 0.4 MB, and handed on as one
    chunk (0, amps, None) with fold None.
    """
    state = _start(plan, noise, dims)
    schedule, geom = plan_schedule(plan, duration), plan_geometry(plan)
    if isinstance(state, DensityOperator):
        return _density_run(schedule, dims, geom, noise, state, sample_dt)
    shifts = noise.shifts_or_zero(plan.n_ions) if noise is not None else None
    times, amps, _ = _pure_walk([schedule], dims, geom, state.amplitudes, [sample_dt], shifts)
    return times, None, [(0, amps, None)]


def simulate_plan_fidelity(
    plan: ProtocolPlan,
    noise: NoiseModel | None = None,
    duration: float | None = None,
    dims: SystemDims | None = None,
    at_end: bool = True,
    sample_dt: float | None = None,
) -> float:
    """End (or peak) fidelity of simulate_plan against the entangled target.

    The target is |T> for two ions and |W> for three, in the motional
    ground state.  An end-fidelity run samples only the segment boundaries
    unless sample_dt is given; a peak run takes the maximum over the
    samples of simulate_plan.  This is the one-plan case of _plan_fidelities.
    OpenBLAS runs on one thread for the call (dynamics._one_blas_thread),
    also outside run_scenario.
    """
    return _plan_fidelities([plan], noise, duration, dims, at_end, sample_dt)[0]


@_one_blas_thread
def _plan_fidelities(
    plans: Sequence[ProtocolPlan],
    noise: NoiseModel | None = None,
    duration: float | None = None,
    dims: SystemDims | None = None,
    at_end: bool = True,
    sample_dt: float | None = None,
) -> list[float]:
    """simulate_plan_fidelity of each plan, in order, with the same options.

    Pure-state plans next to each other that differ only in t1 and t2 (a
    sweep's t1 row, a fine_tune grid) share one dynamics._pure_walk of at
    most _WALK_CELLS cells; any other pure plan walks alone, and a density
    run is read a check chunk at a time (_plan_samples).  A walk checks its
    cells before the next plan runs, so failing plans raise what
    simulate_plan_fidelity raises for the first of them.
    """
    fids: list[float] = []
    k = 0
    while k < len(plans):
        plan = plans[k]
        plan_dims = default_dims(plan, noise) if dims is None else dims
        target = named_state(plan_dims, "T" if plan.n_ions == 2 else "W", 0)
        state = _start(plan, noise, plan_dims)
        cells = 1  # the plans from k on that walk together
        while (
            isinstance(state, PureState)
            and k + cells < len(plans)
            and cells < _WALK_CELLS
            and _shares_spectra(plans[k + cells], plan)
        ):
            cells += 1
        walked = [plan_schedule(p, duration) for p in plans[k : k + cells]]
        # an end-fidelity run samples only the segment boundaries
        steps = [s.total_duration if sample_dt is None and at_end else sample_dt for s in walked]
        if isinstance(state, DensityOperator):
            _, fold, chunks = _plan_samples(plan, noise, duration, plan_dims, steps[0])
            series = np.concatenate([_fidelities(plan_dims, rows, fold, [target], b)[0] for _, rows, b in chunks])
            fids.append(float(series[-1] if at_end else series.max()))
        else:
            shifts = noise.shifts_or_zero(plan.n_ions) if noise is not None else None
            _, amps, starts = _pure_walk(walked, plan_dims, plan_geometry(plan), state.amplitudes, steps, shifts)
            series = _fidelities(plan_dims, amps, None, [target], None)[0]
            fids += (series[starts[1:] - 1] if at_end else np.maximum.reduceat(series, starts[:-1])).tolist()
        k += cells
    return fids


def _shares_spectra(plan: ProtocolPlan, other: ProtocolPlan) -> bool:
    """Whether the plans differ at most in t1 and t2, which plan_schedule
    makes segment durations alone, so that their runs share segment spectra."""
    return {**vars(plan), "t1": None, "t2": None} == {**vars(other), "t1": None, "t2": None}


def spontaneous_preset(plan: ProtocolPlan, deficit: float | None = None) -> NoiseModel:
    """Scatter rates whose mean decay reproduces a target fidelity deficit.

    The mean rate is inverted from deficit = 1 - exp(-rate * T) at the plan
    duration and split equally over the four channels, which makes the
    all-up and one-down decay rates exactly equal.
    """
    if deficit is None:
        if plan.n_ions == 3:
            deficit = THREE_ION_SPONTANEOUS_DEFICIT
        elif plan.scheme == "composite":
            deficit = COMPOSITE_PULSE_SPONTANEOUS_DEFICIT
        else:
            deficit = SINGLE_PULSE_SPONTANEOUS_DEFICIT
    rate = -np.log(1.0 - deficit) / plan.total_duration()
    n = plan.n_ions
    gamma = rate / (2.0 * n)  # mean_decay_rate = n * (g_du + g_ou) = 2 n gamma
    return NoiseModel(gamma_du=gamma, gamma_ud=gamma, gamma_ou=gamma, gamma_od=gamma)


def three_ion_preset(plan: ProtocolPlan) -> NoiseModel:
    """Full three-ion noise model: scatter, heating, thermal start, and the
    calibrated differential shift on the outer ions."""
    spont = spontaneous_preset(plan, THREE_ION_SPONTANEOUS_DEFICIT)
    return NoiseModel(
        gamma_du=spont.gamma_du,
        gamma_ud=spont.gamma_ud,
        gamma_ou=spont.gamma_ou,
        gamma_od=spont.gamma_od,
        gamma_heat=THREE_ION_HEATING_RATE,
        stark_shifts=(THREE_ION_STARK_SHIFT, 0.0, THREE_ION_STARK_SHIFT),
        n_bar=THREE_ION_N_BAR,
    )


def leakage_estimate(plan: ProtocolPlan) -> float:
    """Closed-form leakage of the two-ion schemes; three ions have none.

    The composite form (omega_d / omega_s)^4 holds deep in the Zeno regime,
    omega_d << |omega_s|; at omega_d >= |omega_s| it is not below 1, not a
    probability, and raises ValueError.
    """
    if plan.n_ions != 2:
        raise ValueError("leakage_estimate has closed forms for two ions only")
    if plan.scheme == "composite":
        if not plan.omega_d < abs(plan.omega_s):
            raise ValueError("the leakage estimate (omega_d / omega_s)^4 needs omega_d < |omega_s|")
        return (plan.omega_d / abs(plan.omega_s)) ** 4
    return 1.0 / (4.0 * (1 + 2 * plan.m) ** 2)


def error_budget(plan: ProtocolPlan, noise: NoiseModel) -> ErrorBudget:
    """Per-channel fidelity-loss estimates for a plan under a noise model.

    Leakage and spontaneous entries are analytic; heating and stark entries
    come from short differential simulations (channel on vs off) because no
    closed form is available.  The total combines entries as independent
    survival probabilities, so it never exceeds their plain sum.  Three-ion
    leakage has no closed form: it is one minus the peak fidelity of the
    noiseless run, which also serves as the differential baseline.
    """
    three = plan.n_ions == 3
    horizon = 1.25 * plan.t_pi if three else None
    at_end = not three
    differential = noise.gamma_heat > 0 or any(s != 0 for s in noise.stark_shifts)
    clean = simulate_plan_fidelity(plan, None, duration=horizon, at_end=at_end) if differential or three else None
    leakage = 1.0 - clean if three else leakage_estimate(plan)
    rate = mean_decay_rate(plan.n_ions, noise)
    spontaneous = 1.0 - np.exp(-rate * plan.total_duration())
    thermal = noise.n_bar
    heating = 0.0
    stark = 0.0
    if differential:
        if noise.gamma_heat > 0:
            heat_only = NoiseModel(gamma_heat=noise.gamma_heat)
            heating = max(0.0, clean - simulate_plan_fidelity(plan, heat_only, duration=horizon, at_end=at_end))
        if any(s != 0 for s in noise.stark_shifts):
            stark_only = NoiseModel(stark_shifts=noise.stark_shifts)
            stark = max(0.0, clean - simulate_plan_fidelity(plan, stark_only, duration=horizon, at_end=at_end))
    survival = (1 - leakage) * (1 - spontaneous) * (1 - thermal) * (1 - heating) * (1 - stark)
    return ErrorBudget(leakage, spontaneous, thermal, heating, stark, 1.0 - survival)


_TUNABLE = ("omega_d", "t1", "t2", "delta")


def fine_tune(plan: ProtocolPlan, free_params: tuple[str, ...] = ()) -> tuple[ProtocolPlan, float, bool]:
    """Derivative-free refinement of selected plan parameters.

    Runs coordinate sweeps over a +/-20% box around the starting values;
    each sweep scans a 25-point grid (one stacked walk for t1 or t2,
    _plan_fidelities) and polishes the best cell with bounded scalar
    minimization.  The objective is the noiseless simulated
    end-state fidelity.  A tuned omega_d moves t_pi with it; the segment
    times t1, t2 stay as tuned.  Returns the refined plan, its fidelity,
    and whether it improved on the input.
    """
    from scipy.optimize import minimize_scalar  # loaded here only: it costs ~0.4 s at import

    for p in free_params:
        if p not in _TUNABLE:
            raise ValueError(f"cannot tune {p!r}; choose from {_TUNABLE}")
        if p in ("t1", "t2") and plan.scheme != "composite":
            raise ValueError(f"{p} only exists for composite plans")

    start_fid = simulate_plan_fidelity(plan)
    best_plan, best_fid = plan, start_fid
    if not free_params:
        return plan, start_fid, False

    # the search box stays anchored to the input plan values
    bounds = {name: tuple(sorted((0.8 * getattr(plan, name), 1.2 * getattr(plan, name)))) for name in free_params}
    for _ in range(6):
        previous = best_fid
        for name in free_params:
            lo, hi = bounds[name]
            grid = np.linspace(lo, hi, 25)
            vals = _plan_fidelities([dataclasses.replace(best_plan, **{name: g}) for g in grid])
            k = int(np.argmax(vals))
            left, right = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
            res = minimize_scalar(
                lambda v: -simulate_plan_fidelity(dataclasses.replace(best_plan, **{name: v})),
                bounds=(left, right),
                method="bounded",
                options={"xatol": (hi - lo) * 1e-6},
            )
            candidates = [(vals[k], grid[k]), (-res.fun, float(res.x))]
            fid, value = max(candidates)
            if fid > best_fid:
                best_plan, best_fid = dataclasses.replace(best_plan, **{name: value}), fid
        if best_fid - previous < 1e-9:
            break
    return best_plan, best_fid, best_fid > start_fid + 1e-12
