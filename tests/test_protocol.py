import numpy as np
import pytest

from zenosim import protocol
from zenosim.errors import TruncationError
from zenosim.hilbert import DensityOperator, PureState, SystemDims, named_state
from zenosim.model import NoiseModel, carrier_pi_time, mean_decay_rate
from zenosim.protocol import (
    error_budget,
    experimental_override,
    fine_tune,
    plan_composite,
    plan_schedule,
    plan_single,
    plan_three_ion,
    simulate_plan_fidelity,
    spontaneous_preset,
    three_ion_preset,
)

from _runs import density_run, fidelity, plan_run

OMEGA_S = 2 * np.pi * 17.6e3


def test_single_plan_ratios():
    p2 = plan_single(OMEGA_S, 2)
    assert abs(p2.omega_s / p2.omega_d - 11.0227) < 1e-3  # 2 Omega_s / (9 sqrt(6)) inverted
    assert abs(p2.delta - np.sqrt(7.0 / 3.0) * OMEGA_S) < 1e-9
    p1 = plan_single(OMEGA_S, 1)
    assert abs(p1.omega_s / p1.omega_d - np.sqrt(1.5) * 5) < 1e-9
    with pytest.raises(ValueError):
        plan_single(OMEGA_S, -1)


def test_composite_plan_structure():
    p = plan_composite(2 * np.pi * 17.3e3, 1)
    assert abs(p.omega_s / p.omega_d - 3 * np.sqrt(6)) < 1e-12  # ~7.35
    assert abs(p.t1 / p.t_pi - 1.0 / 3.0) < 1e-12
    assert abs(p.t2 - 2 * p.t1) < 1e-15
    schedule = plan_schedule(p)
    assert schedule.segments[1].omega_s == -schedule.segments[0].omega_s
    assert schedule.segments[1].delta == -schedule.segments[0].delta
    with pytest.raises(ValueError):
        plan_composite(OMEGA_S, 0)


def test_experimental_override_recomputes_pi_time():
    p = experimental_override(plan_single(OMEGA_S, 2), omega_d=2 * np.pi * 1.52e3)
    assert abs(p.t_pi - 116e-6) < 0.05 * 116e-6
    pc = experimental_override(plan_composite(2 * np.pi * 17.3e3, 1), omega_d=2 * np.pi * 2.55e3)
    assert abs(pc.t1 - pc.t_pi / 3) < 1e-15  # canonical fractions track the new drive
    assert abs((pc.t1 + pc.t2) - pc.t_pi) < 1e-12
    assert abs(pc.t1 * 1e6 - 25.4) < 3.0  # same scale as the measured switch time


def test_plan_to_simulation_consistency():
    for m in (1, 2):
        p = plan_single(OMEGA_S, m)
        fid = simulate_plan_fidelity(p)
        leak = 1.0 / (4 * (1 + 2 * m) ** 2)
        assert fid >= 1 - 1.2 * leak


def test_error_budget_closed_forms():
    p1 = plan_single(OMEGA_S, 1)
    noise = spontaneous_preset(p1)
    budget = error_budget(p1, noise)
    assert abs(budget.leakage - 1.0 / 36.0) < 1e-12
    assert abs(budget.spontaneous - 8e-3) < 1e-6  # preset is inverted from this number
    for m, expected in ((0, 0.25), (1, 0.0278), (2, 0.01)):
        leak = error_budget(plan_single(OMEGA_S, m), NoiseModel()).leakage
        assert abs(leak - expected) < 2e-4
    pc = plan_composite(OMEGA_S, 1)
    bc = error_budget(pc, NoiseModel(n_bar=0.006))
    assert abs(bc.leakage - (1.0 / (3 * np.sqrt(6))) ** 4) < 1e-12
    assert abs(bc.leakage - 4e-4) < 1e-4
    assert bc.thermal == 0.006
    assert bc.total_predicted <= bc.leakage + bc.spontaneous + bc.thermal + bc.heating + bc.stark + 1e-12


def test_spontaneous_preset_balances_channels():
    p = plan_single(OMEGA_S, 2)
    noise = spontaneous_preset(p)
    from zenosim.model import decay_rate_all_up, decay_rate_one_down

    assert abs(decay_rate_all_up(2, noise) - decay_rate_one_down(2, noise)) < 1e-12
    rate = mean_decay_rate(2, noise)
    assert abs(1 - np.exp(-rate * p.t_pi) - 8e-3) < 1e-9


def test_three_ion_preset_values():
    p = plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3)
    noise = three_ion_preset(p)
    assert noise.gamma_heat == 136.0
    assert noise.n_bar == 0.02
    assert noise.stark_shifts[1] == 0.0
    assert noise.stark_shifts[0] == noise.stark_shifts[2] > 0
    assert abs(1 - np.exp(-mean_decay_rate(3, noise) * p.t_pi) - 0.010) < 1e-9
    assert abs(p.t_pi - np.pi / (2 * np.sqrt(3) * p.omega_d)) < 1e-15


def test_fine_tune_no_free_params_is_identity():
    p = plan_single(OMEGA_S, 2)
    tuned, fid, improved = fine_tune(p)
    assert tuned == p
    assert not improved


def test_fine_tune_rejects_bad_params():
    p = plan_single(OMEGA_S, 2)
    with pytest.raises(ValueError):
        fine_tune(p, free_params=("t1",))
    with pytest.raises(ValueError):
        fine_tune(p, free_params=("phase",))


def test_fine_tune_recovers_synchronized_drive():
    """Tuning omega_d from a detuned start lands on the dense-scan optimum,
    which sits within a few percent of the closed-form synchronized drive
    (second-order effects displace it by ~3% at m = 2)."""
    p_opt = plan_single(OMEGA_S, 2)
    start = experimental_override(p_opt, omega_d=1.1 * p_opt.omega_d)
    tuned, fid, improved = fine_tune(start, free_params=("omega_d",))
    assert improved
    # dense scan oracle over the same search box
    grid = np.linspace(0.8 * start.omega_d, 1.2 * start.omega_d, 321)
    fids = [simulate_plan_fidelity(experimental_override(p_opt, omega_d=w)) for w in grid]
    w_best = grid[int(np.argmax(fids))]
    assert abs(tuned.omega_d - w_best) < 0.005 * w_best
    assert fid >= max(fids) - 1e-5
    assert abs(tuned.omega_d - p_opt.omega_d) < 0.04 * p_opt.omega_d


def test_fine_tune_composite_times():
    p = experimental_override(
        plan_composite(2 * np.pi * 17.3e3, 1),
        omega_d=2 * np.pi * 2.55e3,
        delta=2 * np.pi * 26.8e3,
        t1=25.4e-6,
        t2=47.3e-6,
    )
    err_exp = 1 - simulate_plan_fidelity(p)
    assert 0.6e-3 < err_exp < 1.8e-3  # matches the quoted simulation of the measured settings
    tuned, fid, improved = fine_tune(p, free_params=("t1", "t2"))
    assert improved
    assert 1 - fid <= 6e-4
    assert abs(tuned.t1 - 24.18e-6) < 0.5e-6
    assert abs(tuned.t2 - 47.57e-6) < 0.5e-6
    # the values of grids run one cell at a time, within fine_tune's xatol
    # of each box (0.4 of the start value, times 1e-6)
    assert abs(tuned.t1 - 2.3819588851940157e-05) <= 0.4e-6 * p.t1
    assert abs(tuned.t2 - 4.789278188861608e-05) <= 0.4e-6 * p.t2
    assert abs(fid - 0.999624926834506) <= 1e-12


def test_fine_tune_of_omega_d_keeps_the_composite_pi_time():
    p = plan_composite(2 * np.pi * 17.3e3, 1)
    start = experimental_override(p, omega_d=1.05 * p.omega_d)
    tuned, _, improved = fine_tune(start, free_params=("omega_d",))
    assert improved
    assert tuned.omega_d != start.omega_d
    assert tuned.t_pi == carrier_pi_time(tuned.omega_d, 2)
    assert (tuned.t1, tuned.t2) == (start.t1, start.t2)


def test_three_ion_budget_decomposition(monkeypatch):
    """Differential simulations reproduce the advertised per-channel scale
    and the aggregate prediction is consistent with the full simulation.
    The noiseless run serves both the leakage entry and the differential
    baseline, so the budget takes three simulations, not four."""
    noises, real = [], protocol.simulate_plan_fidelity

    def counted(plan, noise, **kwargs):
        noises.append(noise)
        return real(plan, noise, **kwargs)

    monkeypatch.setattr(protocol, "simulate_plan_fidelity", counted)
    p = plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3)
    budget = error_budget(p, three_ion_preset(p))
    assert len(noises) == 3 and noises[0] is None
    assert 0.010 <= budget.leakage <= 0.020
    assert abs(budget.spontaneous - 0.010) < 1e-6
    assert budget.thermal == 0.02
    assert 0.010 <= budget.heating <= 0.021  # ~ gamma_heat * t_pi quanta lost
    assert 0.018 <= budget.stark <= 0.028
    assert 0.072 <= budget.total_predicted <= 0.092  # 1 - total ~ 0.92


def test_composite_beats_single_with_spontaneous_noise():
    ps = experimental_override(plan_single(OMEGA_S, 2), omega_d=2 * np.pi * 1.52e3, delta=2 * np.pi * 27.1e3)
    pc = experimental_override(plan_composite(2 * np.pi * 17.3e3, 1), omega_d=2 * np.pi * 2.55e3)
    f_single = simulate_plan_fidelity(ps, spontaneous_preset(ps))
    f_comp = simulate_plan_fidelity(pc, spontaneous_preset(pc))
    assert f_comp > f_single


def test_at_end_run_ignores_the_global_random_state():
    """An at_end run takes one step per pulse, far beyond one Taylor term's
    reach; the step's degree and scaling come from the exact 1-norm, so the
    run neither reads nor advances numpy's global generator."""
    plan = experimental_override(plan_single(OMEGA_S, 2), omega_d=2 * np.pi * 1.52e3, delta=2 * np.pi * 27.1e3)
    noise = spontaneous_preset(plan)
    saved = np.random.get_state()
    try:
        values = []
        for seed in (1, 20161):
            np.random.seed(seed)
            before = np.random.get_state()
            values.append(simulate_plan_fidelity(plan, noise, at_end=True))
            after = np.random.get_state()
            assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
    finally:
        np.random.set_state(saved)
    assert values[0] == values[1]


def test_simulate_plan_picks_the_state_kind():
    """A plan's run (protocol._plan_samples) is a pure propagation from
    |uu,0> unless the noise has rates or a thermal start; Stark shifts
    reach the pure path too."""
    plan = plan_single(OMEGA_S, 2)
    dims = SystemDims(2, 8)
    start = named_state(dims, "uu", 0).amplitudes
    clean = plan_run(plan, None, dims=dims)
    assert len(clean.times) == 401 and clean.times[-1] == plan.t_pi
    states = list(clean.states())
    assert all(isinstance(s, PureState) for s in states)
    np.testing.assert_allclose(states[0].amplitudes, start, rtol=0, atol=1e-12)
    shifted = plan_run(plan, NoiseModel(stark_shifts=(2e3, 0.0)), dims=dims)
    assert isinstance(shifted.final, PureState)
    assert np.linalg.norm(shifted.final.amplitudes - clean.final.amplitudes) > 1e-3
    for noise in (NoiseModel(n_bar=0.01), NoiseModel(gamma_du=50.0)):
        traj = plan_run(plan, noise, dims=dims, sample_dt=plan.t_pi / 4)
        assert len(traj.times) == 5
        states = list(traj.states())
        assert all(isinstance(s, DensityOperator) for s in states)
        assert states[0].matrix[0, 0].real == pytest.approx(1.0 / (1.0 + noise.n_bar))


@pytest.mark.parametrize("noise", [None, NoiseModel(gamma_du=50.0)], ids=["pure", "density"])
def test_simulate_plan_stacks_exactly_the_plans_run(noise):
    """_plan_samples hands on, bit for bit, the run of the plan's schedule
    from its start state: one chunk of amplitudes from a pure start, the
    walk of evolve_pure; the triangles of each check chunk from a density
    start, the stream of dynamics._density_run."""
    from zenosim.dynamics import evolve_pure

    plan = plan_composite(OMEGA_S, 1)
    dims = SystemDims(2, 6)
    sample_dt = plan.total_duration() / 50
    schedule, geom = plan_schedule(plan), protocol.plan_geometry(plan)
    state = protocol._start(plan, noise, dims)
    if noise is None:
        traj = evolve_pure(schedule, dims, geom, state, sample_dt)
    else:
        traj = density_run(schedule, dims, geom, noise, state, sample_dt)
    times, fold, chunks = protocol._plan_samples(plan, noise, None, dims, sample_dt)
    streamed = [(start, samples.copy()) for start, samples, _ in chunks]
    assert (fold is None) == (noise is None)
    assert traj.times.tobytes() == times.tobytes()
    assert [start for start, _ in streamed] == ([0] if noise is None else list(range(0, len(times), 8)))
    assert np.concatenate([samples for _, samples in streamed]).tobytes() == traj.samples.tobytes()


def test_a_composite_run_lasts_exactly_its_duration():
    """A duration cuts a composite plan's first segment too, so its run
    lasts the duration, shorter than t1 or not, as a single-pulse run does."""
    plan = plan_composite(2 * np.pi * 17.3e3, 1)
    cut = plan_schedule(plan, 0.5 * plan.t1)
    assert [(s.duration, s.omega_s) for s in cut.segments] == [(0.5 * plan.t1, plan.omega_s), (0.0, -plan.omega_s)]
    assert plan_run(plan, None, 0.5 * plan.t1, SystemDims(2, 6)).times[-1] == 0.5 * plan.t1
    for duration in (plan.t1, 1.5 * plan.t_pi):
        schedule = plan_schedule(plan, duration)
        assert schedule.segments[0].duration == plan.t1
        assert schedule.total_duration == pytest.approx(duration, rel=1e-15)


def test_duration_edits_share_segment_spectra():
    """Two composite plans that differ only in t1 and t2 diagonalize each
    of their two segments once between them."""
    from zenosim.dynamics import _segment_spectrum

    plan = plan_composite(OMEGA_S, 1)
    edited = experimental_override(plan, t1=0.4 * plan.t_pi, t2=0.6 * plan.t_pi)
    _segment_spectrum.cache_clear()
    simulate_plan_fidelity(plan)
    simulate_plan_fidelity(edited)
    info = _segment_spectrum.cache_info()
    assert info.misses == 2
    assert info.hits == 2


def test_fine_tune_of_durations_adds_no_spectrum_misses():
    from zenosim.dynamics import _segment_spectrum

    plan = experimental_override(plan_composite(2 * np.pi * 17.3e3, 1), t1=25.4e-6, t2=47.3e-6)
    _segment_spectrum.cache_clear()
    simulate_plan_fidelity(plan)  # the first evaluation of fine_tune
    assert _segment_spectrum.cache_info().misses == 2
    fine_tune(plan, free_params=("t1", "t2"))
    info = _segment_spectrum.cache_info()
    assert info.misses == 2
    assert info.hits > 100


_STREAMED_RUNS = {
    # a cut two-ion composite run with the leak level and scatter
    "composite-leak-scatter": lambda: (
        plan_composite(OMEGA_S, 1),
        spontaneous_preset(plan_composite(OMEGA_S, 1)),
        SystemDims(2, 6, leak_level=True),
    ),
    "three-ion-heating": lambda: (
        plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3),
        NoiseModel(gamma_heat=136.0),
        SystemDims(3, 12),
    ),
}


@pytest.mark.parametrize("run", sorted(_STREAMED_RUNS))
def test_streamed_fidelity_equals_the_stacked_trajectorys(run):
    """simulate_plan_fidelity reads a density run a check chunk at a time as
    it is propagated; its peak and end fidelities equal, bit for bit, the
    target series the CLI's readout (_read_populations) takes from the
    same run, and, to 1e-14, the dense fidelities of its rebuilt states."""
    plan, noise, dims = _STREAMED_RUNS[run]()
    duration = 1.25 * plan.t_pi if plan.n_ions == 3 else None
    target = named_state(dims, "T" if plan.n_ions == 2 else "W", 0)
    traj = plan_run(plan, noise, duration, dims)
    assert traj.fold is not None and len(traj.times) > 8 * 8
    series = traj.record([target])[0].target_fidelity
    peak = simulate_plan_fidelity(plan, noise, duration, dims, at_end=False)
    assert peak == series.max()
    assert abs(peak - max(fidelity(dims, s, target) for s in traj.states())) <= 1e-14
    ends = plan_run(plan, noise, duration, dims, plan_schedule(plan, duration).total_duration)
    assert simulate_plan_fidelity(plan, noise, duration, dims) == ends.record([target])[0].target_fidelity[-1]


def test_a_streamed_fidelity_keeps_no_stack():
    """Four times the samples of a density simulate_plan_fidelity raise its
    traced peak allocation by less than a tenth of what a stack of the extra
    samples would take."""
    import tracemalloc

    from zenosim.dynamics import _walk_samples

    plan, noise, dims = _STREAMED_RUNS["composite-leak-scatter"]()
    sample_dt = plan.total_duration() / 400
    n_half = plan_run(plan, noise, dims=dims, sample_dt=plan.total_duration()).samples.shape[1]
    simulate_plan_fidelity(plan, noise, dims=dims, at_end=False, sample_dt=sample_dt)  # fills the memos

    def peak_bytes(dt):
        tracemalloc.start()
        try:
            simulate_plan_fidelity(plan, noise, dims=dims, at_end=False, sample_dt=dt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    schedule = plan_schedule(plan)
    extra = len(_walk_samples([schedule], [sample_dt / 4])[0]) - len(_walk_samples([schedule], [sample_dt])[0])
    stack_bytes = extra * n_half * np.dtype(complex).itemsize
    assert extra > 1000
    assert peak_bytes(sample_dt / 4) - peak_bytes(sample_dt) < 0.1 * stack_bytes


def _counting_walks(monkeypatch) -> list[int]:
    """The number of cells of each stacked walk _plan_fidelities makes."""
    walks = []
    real_walk = protocol._pure_walk

    def counted(schedules, *args):
        walks.append(len(schedules))
        return real_walk(schedules, *args)

    monkeypatch.setattr(protocol, "_pure_walk", counted)
    return walks


@pytest.mark.parametrize("noise", [None, NoiseModel(stark_shifts=(2 * np.pi * 0.7e3, -2 * np.pi * 0.4e3))])
def test_a_t1_row_is_one_walk_with_each_cells_own_value(noise, monkeypatch):
    """A composite t1 row over [0, 1] is one stacked walk, and every cell,
    the two end cells with a zero-length segment and one sample fewer
    among them, gets its one-at-a-time fidelity within 1e-14."""
    plan = experimental_override(plan_composite(OMEGA_S, 1), omega_d=OMEGA_S / 9.0)
    plans = [experimental_override(plan, t1=f * plan.t_pi, t2=(1 - f) * plan.t_pi) for f in np.linspace(0, 1, 21)]
    assert [len(plan_run(p, noise, sample_dt=p.total_duration()).times) for p in plans[:2]] == [2, 3]
    assert len(plan_run(plans[-1], noise, sample_dt=plans[-1].total_duration()).times) == 2
    walks = _counting_walks(monkeypatch)
    row = protocol._plan_fidelities(plans, noise)
    alone = [simulate_plan_fidelity(p, noise) for p in plans]
    assert walks == [21] + [1] * 21
    np.testing.assert_allclose(row, alone, rtol=0, atol=1e-14)


def test_a_failing_row_raises_what_its_first_failing_cell_raises(monkeypatch):
    """At four Fock levels the first two cells of this row of stretched
    composite pulses pass and the third breaks the Fock limit: the stacked
    walk raises the exception, message included, of the one-at-a-time loop."""
    plan = plan_composite(OMEGA_S, 1)
    scales = np.linspace(0.1, 1, 10)
    plans = [experimental_override(plan, t1=g * plan.t_pi / 3, t2=2 * g * plan.t_pi / 3) for g in scales]
    dims = SystemDims(2, 4)
    for p in plans[:2]:
        simulate_plan_fidelity(p, dims=dims)
    with pytest.raises(TruncationError) as alone:
        for p in plans:
            simulate_plan_fidelity(p, dims=dims)
    walks = _counting_walks(monkeypatch)
    with pytest.raises(TruncationError) as row:
        protocol._plan_fidelities(plans, dims=dims)
    assert walks == [10]
    assert str(row.value) == str(alone.value)


def test_plans_walk_together_only_when_they_differ_in_durations(monkeypatch):
    """Neighbours that differ in t1 or t2 share a walk; a plan with another
    omega_d walks alone, and a density plan is propagated as before."""
    plan = plan_composite(OMEGA_S, 1)
    longer = experimental_override(plan, t2=1.1 * plan.t2)
    other = experimental_override(plan, omega_d=1.01 * plan.omega_d)
    walks = _counting_walks(monkeypatch)
    fids = protocol._plan_fidelities([plan, longer, other, plan])
    assert walks == [2, 1, 1]
    alone = [simulate_plan_fidelity(p) for p in (plan, longer, other, plan)]
    np.testing.assert_allclose(fids[:2], alone[:2], rtol=0, atol=1e-14)
    assert fids[2:] == alone[2:]  # a walk of one cell is simulate_plan_fidelity's own
    noise = spontaneous_preset(plan)
    walks.clear()
    assert protocol._plan_fidelities([plan, plan], noise) == [simulate_plan_fidelity(plan, noise)] * 2
    assert walks == []
