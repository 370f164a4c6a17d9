import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import dynamics
from zenosim.dynamics import Trajectory, evolve_density, evolve_pure, extract_populations, state_fidelity
from zenosim.errors import NumericsError, TruncationError
from zenosim.hilbert import (
    DOWN,
    LEAK,
    UP,
    DensityOperator,
    PureState,
    SystemDims,
    leak_mask,
    leak_sectors,
    named_state,
    partial_trace_motion,
    spin_state,
    thermal_product_state,
    up_count_projectors,
)
from zenosim.model import IonGeometry, NoiseModel, PulseSchedule, PulseSegment

GEOM2 = IonGeometry.two_ion_stretch()

OMEGA_S = 2 * np.pi * 17.6e3
OMEGA_D = 2 * np.pi * 1.52e3
DELTA = 2 * np.pi * 27.1e3
T_PI = np.pi / (2 * np.sqrt(2) * OMEGA_D)


def single_pulse(duration=T_PI, omega_s=OMEGA_S, omega_d=OMEGA_D, delta=DELTA):
    return PulseSchedule((PulseSegment(duration, omega_s, omega_d, delta),))


def test_zero_duration_schedule_is_identity():
    dims = SystemDims(2, 4)
    schedule = PulseSchedule((PulseSegment(0.0, OMEGA_S, OMEGA_D, DELTA),))
    initial = named_state(dims, "T", 1)
    traj = evolve_pure(schedule, dims, GEOM2, initial)
    assert len(traj.times) == 1
    assert np.allclose(traj.final.amplitudes, initial.amplitudes)


def test_pure_microwave_flop_matches_ladder_closed_form():
    """Omega_s = 0: diagonalizing the three-level ladder with coupling
    sqrt(2) Omega_d gives eigenvalues 0, +/- 2 Omega_d, so the triplet
    population is sin^2(2 Omega_d t) / 2 and never exceeds one half."""
    dims = SystemDims(2, 2)
    schedule = single_pulse(duration=2.2 * T_PI, omega_s=0.0, delta=0.0)
    traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), T_PI / 40)
    target = named_state(dims, "T", 0)
    for t, state in zip(traj.times, traj.states):
        expected = 0.5 * np.sin(2 * OMEGA_D * t) ** 2
        assert abs(state_fidelity(dims, state, target) - expected) < 1e-10
    peak = max(state_fidelity(dims, s, target) for s in traj.states)
    assert abs(peak - 0.5) < 1e-3


def test_peak_fidelity_near_effective_pi_time():
    dims = SystemDims(2, 10)
    schedule = single_pulse(duration=1.4 * T_PI)
    traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), T_PI / 300)
    target = named_state(dims, "T", 0)
    fid = np.array([state_fidelity(dims, s, target) for s in traj.states])
    t_peak = traj.times[np.argmax(fid)]
    assert abs(t_peak - 116e-6) < 0.05 * 116e-6
    assert fid.max() > 0.95


def test_norm_preserved_everywhere():
    dims = SystemDims(2, 10)
    traj = evolve_pure(single_pulse(), dims, GEOM2, named_state(dims, "uu", 0), T_PI / 100)
    for s in traj.states:
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-9


def test_propagator_composition():
    dims = SystemDims(2, 8)
    seg_a = PulseSegment(30e-6, OMEGA_S, OMEGA_D, DELTA)
    seg_b = PulseSegment(45e-6, -OMEGA_S, OMEGA_D, -DELTA, laser_phase=0.3)
    both = evolve_pure(PulseSchedule((seg_a, seg_b)), dims, GEOM2, named_state(dims, "uu", 0), 75e-6)
    first = evolve_pure(PulseSchedule((seg_a,)), dims, GEOM2, named_state(dims, "uu", 0), 30e-6)
    second = evolve_pure(PulseSchedule((seg_b,)), dims, GEOM2, first.final, 45e-6)
    assert np.allclose(both.final.amplitudes, second.final.amplitudes, atol=1e-11)


def test_two_ion_subspace_closure():
    """From |uu,0> with the canonical geometry the reachable set is the
    up/triplet/down multiplets at even n plus singlets at odd n."""
    dims = SystemDims(2, 10)
    traj = evolve_pure(single_pulse(), dims, GEOM2, named_state(dims, "uu", 0), T_PI / 60)
    allowed = np.zeros(dims.dim)
    for name in ("uu", "T", "dd"):
        for n in range(0, dims.n_fock, 2):
            allowed += np.abs(named_state(dims, name, n).amplitudes) ** 2 > 0
    for n in range(1, dims.n_fock, 2):
        allowed += np.abs(named_state(dims, "S", n).amplitudes) ** 2 > 0
    outside = allowed == 0
    for s in traj.states:
        assert np.sum(np.abs(s.amplitudes[outside]) ** 2) < 1e-6


def test_lindblad_without_noise_matches_pure():
    """The pure and the noise-free density run sample the same times and
    agree, on one pulse and on a schedule whose zero-length middle segment
    and sign flip put a grid sample a rounding error past the first
    boundary, which both walks give to the segment before it."""
    dims = SystemDims(2, 8)
    psi = named_state(dims, "uu", 0)
    target = named_state(dims, "T", 0)
    flipped = PulseSchedule(
        (
            PulseSegment(0.3 * T_PI, OMEGA_S, OMEGA_D, DELTA),
            PulseSegment(0.0, OMEGA_S, OMEGA_D, DELTA),
            PulseSegment(0.7 * T_PI, -OMEGA_S, OMEGA_D, -DELTA),
        )
    )
    first_boundary = flipped.boundaries()[1]
    for schedule, sample_dt in ((single_pulse(), T_PI / 20), (flipped, T_PI / 10)):
        pure = evolve_pure(schedule, dims, GEOM2, psi, sample_dt)
        dens = evolve_density(schedule, dims, GEOM2, NoiseModel(), psi.to_density(), sample_dt=sample_dt)
        np.testing.assert_array_equal(pure.times, dens.times)
        for sp, sd in zip(pure.states, dens.states):
            fp = state_fidelity(dims, sp, target)
            fd = state_fidelity(dims, sd, target)
            assert abs(fp - fd) < 1e-6
        assert abs(dens.final.trace - 1.0) < 1e-8
    past = pure.times[(pure.times > first_boundary) & (pure.times <= first_boundary + 1e-15)]
    assert len(past) == 1 and first_boundary in pure.times  # the pair: the boundary and the sample just past it


def test_uniform_decay_reproduces_mean_rate_deficit():
    """All four spin decay channels at gamma: fidelity deficit at t_pi is
    within 10% of 1 - exp(-mean_rate * t_pi)."""
    from zenosim.model import mean_decay_rate

    dims = SystemDims(2, 8, leak_level=True)
    gamma = 20.0
    noise = NoiseModel(gamma_du=gamma, gamma_ud=gamma, gamma_ou=gamma, gamma_od=gamma)
    schedule = single_pulse()
    target = named_state(dims, "T", 0)
    psi = named_state(dims, "uu", 0)
    clean = evolve_pure(schedule, dims, GEOM2, psi, T_PI)
    noisy = evolve_density(schedule, dims, GEOM2, noise, psi.to_density(), sample_dt=T_PI)
    deficit = state_fidelity(dims, clean.final, target) - state_fidelity(dims, noisy.final, target)
    expected = 1.0 - np.exp(-mean_decay_rate(2, noise) * T_PI)
    assert abs(deficit - expected) < 0.10 * expected


def test_thermal_initial_state_deficit_small():
    dims = SystemDims(2, 16)
    n_bar = 0.006
    schedule = single_pulse()
    target = named_state(dims, "T", 0)
    rho0 = thermal_product_state(dims, spin_state(dims, "uu"), n_bar)
    noisy = evolve_density(schedule, dims, GEOM2, NoiseModel(n_bar=n_bar), rho0, sample_dt=T_PI)
    clean = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), T_PI)
    deficit = state_fidelity(dims, clean.final, target) - state_fidelity(dims, noisy.final, target)
    assert 0.0 < deficit <= 6e-3


def test_population_record_basics():
    dims = SystemDims(2, 10)
    traj = evolve_pure(single_pulse(), dims, GEOM2, named_state(dims, "uu", 0), T_PI / 40)
    targets = [named_state(dims, "T", 0), spin_state(dims, "S"), spin_state(dims, "dd")]
    rec = extract_populations(traj, targets, ["F_T", "P_S", "P_dd"])
    assert np.allclose(rec.p_up_counts[0], [0.0, 0.0, 1.0], atol=1e-12)  # starts in uu
    total = rec.p_up_counts.sum(axis=1) + rec.leak_population
    assert np.max(np.abs(total - 1.0)) < 1e-8
    # mid-evolution: P1 - F_T is the singlet population, up to the tiny
    # triplet weight sitting at n > 0
    mid = len(traj.times) // 3
    p1 = rec.p_up_counts[mid, 1]
    assert abs(p1 - rec.target_fidelity[mid] - rec.aux_populations["P_S"][mid]) < 1e-4


def test_population_record_on_ideal_triplet():
    dims = SystemDims(2, 4)
    schedule = PulseSchedule((PulseSegment(0.0),))
    traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "T", 0))
    rec = extract_populations(traj, [named_state(dims, "T", 0)], ["F_T"])
    assert abs(rec.p_up_counts[0, 1] - 1.0) < 1e-12
    assert abs(rec.target_fidelity[0] - 1.0) < 1e-12


def test_sample_dt_validation():
    dims = SystemDims(2, 4)
    with pytest.raises(ValueError):
        evolve_pure(single_pulse(), dims, GEOM2, named_state(dims, "uu", 0), -1.0)


_DURATIONS = st.one_of(st.sampled_from([0.0, 1e-5, 2.5e-5, 1.16e-4]), st.floats(0.0, 2e-4))
_SAMPLE_DTS = st.one_of(st.none(), st.sampled_from([1e-6, 2.5e-6, 1e-3]), st.floats(1e-7, 1e-4))


def _per_cell_sample_times(schedule, sample_dt):
    """The sample times of one schedule, one cell at a time: the reference
    for dynamics._walk_samples."""
    total = schedule.total_duration
    if sample_dt is None:
        sample_dt = total / 400.0 if total > 0 else 1.0
    if sample_dt <= 0:
        raise ValueError("sample_dt must be > 0")
    points = {0.0, *schedule.boundaries()}
    if total > 0:
        points.update(k * sample_dt for k in range(1, math.floor(total / sample_dt + 1e-9) + 1))
    times = np.array(sorted(points))
    return times[times <= total + 1e-15]


def _per_cell_segment_ranges(times, boundaries):
    """The range of sample indices each segment reaches, a sample within
    1e-15 past a boundary within the segment before it: the reference for
    dynamics._walk_samples."""
    cuts = [bisect.bisect_right(times, b + 1e-15) for b in boundaries[1:-1]]
    return [range(a, b) for a, b in zip([0, *cuts], [*cuts, len(times)])]


@settings(max_examples=100, deadline=None)
@given(
    n_segments=st.integers(1, 3),
    cells=st.lists(st.tuples(st.lists(_DURATIONS, min_size=3, max_size=3), _SAMPLE_DTS), min_size=1, max_size=6),
)
def test_a_walks_sample_times_are_each_cells_bit_for_bit(n_segments, cells):
    """The sample times and segment ranges of a walk's cells, taken at once,
    are bit for bit those of each cell alone: its times from a set of its
    boundaries and step multiples, and its ranges by bisection.  A step
    that one cell rejects (a subnormal duration's default step is 0) fails
    the walk too."""
    schedules = [
        PulseSchedule(tuple(PulseSegment(d, OMEGA_S, OMEGA_D, DELTA) for d in durations[:n_segments]))
        for durations, _ in cells
    ]
    sample_dts = [dt for _, dt in cells]
    try:
        per_cell = [_per_cell_sample_times(schedule, dt) for schedule, dt in zip(schedules, sample_dts)]
    except ValueError:
        with pytest.raises(ValueError, match="sample_dt must be > 0"):
            dynamics._walk_samples(schedules, sample_dts)
        return
    times, starts, cuts = dynamics._walk_samples(schedules, sample_dts)
    assert starts[0] == 0 and starts[-1] == len(times) and cuts.shape == (len(cells), n_segments + 1)
    for b, (schedule, own) in enumerate(zip(schedules, per_cell)):
        assert times[starts[b] : starts[b + 1]].tobytes() == own.tobytes()
        ranges = _per_cell_segment_ranges(own, schedule.boundaries())
        assert [range(a, z) for a, z in zip(cuts[b, :-1] - starts[b], cuts[b, 1:] - starts[b])] == ranges


def _full_noise(gamma, gamma_heat, stark=(), n_bar=0.0):
    return NoiseModel(
        gamma_du=gamma[0],
        gamma_ud=gamma[1],
        gamma_ou=gamma[2],
        gamma_od=gamma[3],
        gamma_heat=gamma_heat,
        stark_shifts=stark,
        n_bar=n_bar,
    )


def _between_leak_sets(dims):
    """Mask of the entries (i, j) of rho whose basis states differ in which
    ions sit in the leak level."""
    leaked = np.repeat(np.array(dims.spin_configurations()) == LEAK, dims.n_fock, axis=0)
    return (leaked[:, None, :] != leaked[None, :, :]).any(axis=-1)


def test_three_ion_density_matches_full_generator_exponential(monkeypatch):
    """Every sample of a two-segment three-ion run with all four scatter
    channels, heating and Stark shifts against the exponential of the full
    vectorized Lindbladian, on all dim^2 entries of vec(rho), applied from
    sample to sample.  From |uuu> only the leak-sector blocks are
    propagated, and the entries between leak sets stay exactly zero; from a
    state with coherence between leak sets the whole space is.  A dense
    expm at vec dim 11,664 would not fit a unit test, so the reference is
    scipy's expm_multiply of the sparse generator.

    The generator each segment hands its kernel, built block by block, is
    the full one restricted to the kept pairs in the kernel's order, and
    its shift is Re(tr L) / dim^2 of the full one."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    from zenosim.model import lindblad_operators, segment_hamiltonian

    dims = SystemDims(3, 4, leak_level=True)
    geom = IonGeometry.three_ion_com()
    noise = _full_noise((2e3, 1.4e3, 1e3, 6e2), 50.0, stark=(2e3, -1e3, 3e3))
    omega_s, omega_d, delta = 2 * np.pi * 1e3, 2 * np.pi * 3e3, 2 * np.pi * 30e3
    seg_a = PulseSegment(8e-6, omega_s, omega_d, delta)
    seg_b = PulseSegment(12e-6, -omega_s, omega_d, -delta, laser_phase=0.3)
    schedule = PulseSchedule((seg_a, seg_b))

    eye = sp.identity(dims.dim, format="csr")
    collapse = [sp.csr_matrix(op.matrix) for op in lindblad_operators(dims, noise)]
    gens = []
    for seg in schedule.segments:
        h = sp.csr_matrix(segment_hamiltonian(dims, geom, seg, noise.stark_shifts).matrix)
        gen = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
        for l in collapse:
            m = l.conj().T @ l
            gen = gen + sp.kron(l, l.conj()) - 0.5 * (sp.kron(m, eye) + sp.kron(eye, m.T))
        gens.append(gen.tocsc())

    handed = []
    real_init = dynamics._TaylorExpm.__init__

    def capture(self, gen, mu, cols, strict):
        handed.append((gen, mu))
        real_init(self, gen, mu, cols, strict)

    monkeypatch.setattr(dynamics._TaylorExpm, "__init__", capture)

    uuu = named_state(dims, "uuu", 0).amplitudes
    ouu = np.zeros(dims.dim, dtype=complex)
    ouu[dims.basis_index((LEAK, UP, UP), 0)] = 1.0
    between = _between_leak_sets(dims)
    for psi, block_diagonal in ((uuu, True), ((uuu + ouu) / np.sqrt(2), False)):
        rho0 = PureState(dims, psi).to_density()
        handed.clear()
        traj = evolve_density(schedule, dims, geom, noise, rho0, sample_dt=2e-6)
        groups = leak_sectors(dims) if block_diagonal else [np.arange(dims.dim)]
        assert len(groups) == (8 if block_diagonal else 1)
        kept = dynamics._Fold(dims, groups).kept
        assert len(handed) == len(gens)
        for (gen, mu), full in zip(handed, gens):
            restricted = full.tocsr()[np.ix_(kept, kept)]
            assert gen.shape == restricted.shape == (len(kept), len(kept))
            assert abs(gen - restricted).max() <= 1e-12 * abs(restricted).max()
            full_mu = full.diagonal().sum().real / dims.dim**2
            assert abs(mu - full_mu) <= 1e-14 * abs(full_mu)
        vec, t_prev = rho0.matrix.reshape(-1), 0.0
        reference = [vec]
        for gen, start, stop in zip(gens, schedule.boundaries(), schedule.boundaries()[1:]):
            for t in (t for t in traj.times if start < t <= stop):
                vec, t_prev = expm_multiply((t - t_prev) * gen, vec), t
                reference.append(vec)
        assert len(reference) == len(traj.states) == 11
        for ref, state in zip(reference, traj.states):
            assert np.max(np.abs(state.matrix - ref.reshape(dims.dim, dims.dim))) < 1e-10
            assert np.all(state.matrix[between] == 0.0) == block_diagonal
        ooo = dims.basis_index((LEAK, LEAK, LEAK), 0)
        assert traj.final.matrix[ooo, ooo].real > 1e-6  # every ion can leak


def test_stored_samples_mirror_the_computed_triangle_exactly():
    """The kernel computes the upper triangle of each block and a sample
    stores it, so every off-diagonal entry of every rebuilt block is the
    exact conjugate of its mirror: over the leak-set blocks from |uu>, and
    over one group, the whole space, from a start with coherence between
    leak sets."""
    dims = SystemDims(2, 6, leak_level=True)
    noise = _full_noise((300.0, 200.0, 150.0, 100.0), 40.0, stark=(2e3, -1e3))
    uu = named_state(dims, "uu", 0).amplitudes
    ou = np.zeros(dims.dim, dtype=complex)
    ou[dims.basis_index((LEAK, UP), 0)] = 1.0
    for psi, n_groups in ((uu, len(leak_sectors(dims))), ((uu + ou) / np.sqrt(2), 1)):
        rho0 = PureState(dims, psi).to_density()
        traj = evolve_density(single_pulse(duration=0.5 * T_PI), dims, GEOM2, noise, rho0, T_PI / 20)
        assert len(traj.groups) == n_groups
        chunks = [blocks for _, _, blocks in traj.fold.chunks(traj.samples)]
        blocks = [np.concatenate(parts) for parts in zip(*chunks)]
        for block in blocks:
            off = ~np.eye(block.shape[-1], dtype=bool)
            assert np.array_equal(block[:, off], block.conj().swapaxes(1, 2)[:, off])
        widest = max(blocks, key=lambda b: b.shape[-1])
        assert np.count_nonzero(widest.imag) > widest.size // 4


def test_a_stored_stack_replays_its_runs_chunks_bit_for_bit():
    """A Trajectory reads its stack back in the shape its run handed it on:
    a density stack yields the starts, samples and whole blocks of
    _density_run's chunks, bit for bit, and a pure stack is one chunk with
    blocks None.  An empty selection reads as no samples."""
    dims = SystemDims(2, 6, leak_level=True)
    noise = _full_noise((300.0, 200.0, 150.0, 100.0), 40.0, stark=(2e3, -1e3))
    start = named_state(dims, "uu", 0)
    schedule = single_pulse(duration=0.5 * T_PI)
    _, _, run = dynamics._density_run(schedule, dims, GEOM2, noise, start.to_density(), T_PI / 50)
    streamed = [(first, samples.copy(), blocks) for first, samples, blocks in run]
    stored = evolve_density(schedule, dims, GEOM2, noise, start.to_density(), T_PI / 50)
    replayed = list(stored._chunks())
    assert len(streamed) == len(replayed) > 2
    for (s0, x0, b0), (s1, x1, b1) in zip(streamed, replayed):
        assert s0 == s1 and x0.tobytes() == x1.tobytes()
        assert len(b0) == len(b1) and all(a.tobytes() == b.tobytes() for a, b in zip(b0, b1))
    pure = evolve_pure(schedule, dims, GEOM2, start, T_PI / 50)
    ((first, samples, blocks),) = pure._chunks()
    assert first == 0 and samples.tobytes() == pure.samples.tobytes() and blocks is None
    for traj in (stored, pure):  # a selection of no samples reads as none
        assert traj.spin_matrices(slice(0, 0)).shape == (0, dims.spin_dim, dims.spin_dim)


def _whole_blocks(traj):
    """The (T, n, n) blocks of a density Trajectory, rebuilt here from its
    stored upper triangles: (a, b) with a <= b, row-major, block after
    block, each entry below the diagonal the conjugate of its mirror."""
    blocks, start = [], 0
    for idx in traj.groups:
        a, b = np.triu_indices(len(idx))
        upper = traj.samples[:, start : start + len(a)]
        block = np.zeros((len(upper), len(idx), len(idx)), dtype=complex)
        block[:, a, b] = upper
        off = a < b
        block[:, b[off], a[off]] = upper[:, off].conj()
        blocks.append(block)
        start += len(a)
    assert start == traj.samples.shape[1]
    return blocks


@settings(max_examples=10, deadline=None)
@given(
    n_ions=st.sampled_from([2, 3]),
    gamma=st.tuples(st.floats(0.0, 2e3), st.floats(0.0, 2e3), st.floats(1.0, 2e3), st.floats(0.0, 2e3)),
    gamma_heat=st.floats(0.0, 50.0),
    stark=st.tuples(*[st.floats(-2e4, 2e4)] * 3),
    n_bar=st.floats(0.0, 0.002),
)
def test_readers_of_the_stored_triangles_match_whole_blocks(n_ions, gamma, gamma_heat, stark, n_bar):
    """Every reader of a density stack gives, bit for bit, what its formula
    gives on the whole blocks rebuilt here from the stored triangles:
    populations, leak population, full-space and spin-only fidelities,
    spin_matrices and states[k].matrix.  The runs have more samples than
    one check chunk, so the readers' chunk boundaries are crossed.  The
    draws include equal Stark shifts, so the cycle-symmetry test is
    switched off: these are the leak-set readers."""
    from zenosim.protocol import plan_single, plan_three_ion, simulate_plan

    if n_ions == 2:
        plan, dims, names = plan_single(OMEGA_S, 2), SystemDims(2, 6, leak_level=True), ("T", "S", "dd")
    else:
        plan = plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3)
        dims, names = SystemDims(3, 7, leak_level=True), ("W", "Wbar", "Wc")
    noise = _full_noise(gamma, gamma_heat, stark[:n_ions], n_bar)
    duration = 0.25 * plan.t_pi
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_cycle_symmetry", lambda *args: None)
        traj = simulate_plan(plan, noise, duration, dims, duration / 11)
    assert len(traj.times) > dynamics._CHECK_CHUNK and len(traj.groups) == 2**n_ions
    targets = [named_state(dims, names[0], 0), spin_state(dims, names[1]), spin_state(dims, names[2])]
    rec = extract_populations(traj, targets)

    blocks = _whole_blocks(traj)
    diag = np.zeros((len(traj.times), dims.dim))
    rhos = np.zeros((len(traj.times), dims.dim, dims.dim), dtype=complex)
    spins = np.zeros((len(traj.times), dims.spin_dim, dims.spin_dim), dtype=complex)
    for idx, block in zip(traj.groups, blocks):
        diag[:, idx] = block.diagonal(axis1=1, axis2=2).real
        rhos[:, idx[:, None], idx] = block
        conf = idx[:: dims.n_fock] // dims.n_fock
        split = block.reshape(len(block), len(conf), dims.n_fock, len(conf), dims.n_fock)
        spins[:, conf[:, None], conf] = np.einsum("tanbn->tab", split)
    pops = np.vecdot(diag[:, None, :], np.array([*up_count_projectors(dims), leak_mask(dims)]))
    np.testing.assert_array_equal(rec.p_up_counts, pops[:, :-1])
    np.testing.assert_array_equal(rec.leak_population, pops[:, -1])
    v = targets[0].amplitudes
    full = sum(np.vecdot(v[idx], block @ v[idx]).real for idx, block in zip(traj.groups, blocks))
    np.testing.assert_array_equal(rec.aux_populations["target_0"], full)
    np.testing.assert_array_equal(traj.fidelities(targets[0]), full)
    np.testing.assert_array_equal(traj.spin_matrices(), spins)
    np.testing.assert_array_equal(traj.spin_matrices(slice(3, 4)), spins[3:4])
    for k, target in enumerate(targets[1:], start=1):
        u = target.amplitudes
        np.testing.assert_array_equal(rec.aux_populations[f"target_{k}"], np.vecdot(u, spins @ u).real)
    for state, rho in zip(traj.states, rhos):
        np.testing.assert_array_equal(state.matrix, rho)
    np.testing.assert_array_equal(traj.final.matrix, rhos[-1])


def _has_identity_basis(fold) -> bool:
    """Whether a density run's layout keeps its blocks in the computational basis."""
    import scipy.sparse as sp

    dim = fold.dims.dim
    return (fold.w != sp.identity(dim)).nnz == 0 and np.array_equal(fold.rep, np.arange(dim))


def _density_runs(schedule, dims, geom, noise, rho0, sample_dt):
    """The run of evolve_density, and the same run with the cycle-symmetry
    test switched off: the leak-set path."""
    traj = evolve_density(schedule, dims, geom, noise, rho0, sample_dt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_cycle_symmetry", lambda *args: None)
        plain = evolve_density(schedule, dims, geom, noise, rho0, sample_dt)
    return traj, plain


@settings(max_examples=10, deadline=None)
@given(
    n_ions=st.sampled_from([2, 3]),
    gamma=st.tuples(st.floats(0.0, 2e3), st.floats(0.0, 2e3)),
    gamma_heat=st.floats(0.0, 50.0),
    stark=st.floats(-2e4, 2e4),
    n_bar=st.floats(0.0, 0.002),
)
def test_a_run_in_the_cycle_sectors_matches_the_plain_run(n_ions, gamma, gamma_heat, stark, n_bar):
    """Without a leak level, with uniform rates, equal Stark shifts and a
    start of all ions up, a run has the ions' cycle symmetry and is
    propagated in its n_ions sectors; every sample matches the same run
    with the symmetry test switched off, one block over the whole space, to
    1e-12: rho, P_k, the leak population, full-space and spin-only
    fidelities, the top Fock population and spin_matrices.  The two-ion
    run crosses the composite sign flip at t1."""
    noise = NoiseModel(gamma_du=gamma[0], gamma_ud=gamma[1], gamma_heat=gamma_heat, stark_shifts=(stark,) * n_ions)
    traj, plain = _assert_sector_run_matches_plain_run(n_ions, False, noise, n_bar)
    assert len(traj.groups) == n_ions and len(plain.groups) == 1


@settings(max_examples=10, deadline=None)
@given(
    n_ions=st.sampled_from([2, 3]),
    gamma=st.tuples(st.floats(0.0, 2e3), st.floats(0.0, 2e3), st.floats(1.0, 2e3), st.floats(0.0, 2e3)),
    gamma_heat=st.floats(0.0, 50.0),
    stark=st.floats(-2e4, 2e4),
    n_bar=st.floats(0.0, 0.002),
)
def test_a_leak_level_run_in_the_cycle_sectors_matches_the_plain_run(n_ions, gamma, gamma_heat, stark, n_bar):
    """With a leak level, uniform rates into it and out of the qubit
    levels, equal Stark shifts and a start of all ions up, a run has the
    ions' cycle symmetry and is propagated in its sectors of each leak-set
    orbit (n_ions + 1 orbits of n_ions sectors); every sample matches the
    same run with the symmetry test switched off, over the leak sets, to
    1e-12, as without a leak level."""
    noise = _full_noise(gamma, gamma_heat, (stark,) * n_ions)
    traj, plain = _assert_sector_run_matches_plain_run(n_ions, True, noise, n_bar)
    assert len(traj.groups) == n_ions * (n_ions + 1) and len(plain.groups) == 2**n_ions


def _assert_sector_run_matches_plain_run(n_ions, leak_level, noise, n_bar):
    """The run of _density_runs from all ions up, in the cycle sectors,
    against the plain run on every sample, to 1e-12: rho, P_k, the leak
    population, full-space and spin-only fidelities, the top Fock
    population and spin_matrices.  Returns both trajectories."""
    from zenosim.protocol import plan_composite, plan_geometry, plan_schedule, plan_three_ion

    if n_ions == 2:
        plan, dims, names = plan_composite(OMEGA_S, 1), SystemDims(2, 8, leak_level), ("uu", "T", "S", "dd")
    else:
        plan = plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3)
        dims, names = SystemDims(3, 7, leak_level), ("uuu", "W", "Wbar", "Wc")
    duration = (0.5 if n_ions == 2 else 0.25) * plan.t_pi
    rho0 = thermal_product_state(dims, spin_state(dims, names[0]), n_bar)
    traj, plain = _density_runs(plan_schedule(plan, duration), dims, plan_geometry(plan), noise, rho0, duration / 11)
    assert not _has_identity_basis(traj.fold) and _has_identity_basis(plain.fold)
    for state, ref in zip(traj.states, plain.states, strict=True):
        np.testing.assert_allclose(state.matrix, ref.matrix, rtol=0, atol=1e-12)
    targets = [named_state(dims, names[1], 0), spin_state(dims, names[2]), spin_state(dims, names[3])]
    rec, ref = extract_populations(traj, targets), extract_populations(plain, targets)
    pairs = [(rec.p_up_counts, ref.p_up_counts), (rec.leak_population, ref.leak_population)]
    pairs += [(rec.aux_populations[k], ref.aux_populations[k]) for k in ref.aux_populations]
    pairs.append(tuple(t.samples[:, t.fold.tops].real.sum(axis=1) for t in (traj, plain)))  # the Fock limit's series
    for got, want in [*pairs, (traj.spin_matrices(), plain.spin_matrices())]:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    return traj, plain


def test_a_start_with_coherence_between_leak_sets_takes_the_whole_space():
    """A start fixed by U but with coherence between two leak sets, (|uu>
    + |oo>) / sqrt(2), is not block diagonal over them: the run with the
    ions' cycle symmetry falls back to one group, the whole space, bit for
    bit the run with the symmetry test switched off."""
    import scipy.sparse as sp

    from zenosim.protocol import plan_composite, plan_geometry, plan_schedule

    plan, dims = plan_composite(OMEGA_S, 1), SystemDims(2, 6, leak_level=True)
    psi = np.zeros(dims.dim, dtype=complex)
    psi[[dims.basis_index((UP, UP), 0), dims.basis_index((LEAK, LEAK), 0)]] = 1 / np.sqrt(2)
    noise = _full_noise((300.0, 200.0, 150.0, 100.0), 20.0, (1e3, 1e3))
    schedule = plan_schedule(plan, 0.25 * plan.t_pi)
    rho0 = PureState(dims, psi).to_density()
    assert dynamics._cycle_symmetry(dims, plan_geometry(plan), noise.stark_shifts, [], [], sp.csr_matrix(rho0.matrix))
    traj, plain = _density_runs(schedule, dims, plan_geometry(plan), noise, rho0, plan.t_pi / 40)
    assert _has_identity_basis(traj.fold) and len(traj.groups) == 1
    assert traj.samples.tobytes() == plain.samples.tobytes()


def test_rebuilt_states_are_exactly_zero_between_leak_sets_unless_the_start_is_not():
    """Every state rebuilt from a run in the cycle sectors, from |uu> with
    leak rates and equal shifts, is exactly 0 between different leak sets,
    which w R w^dag cancels only to rounding; a start with coherence
    between them, (|uu> + |oo>) / sqrt(2), runs over the whole space and
    keeps that coherence in every state."""
    from zenosim.protocol import plan_composite, plan_geometry, plan_schedule

    plan, dims = plan_composite(OMEGA_S, 1), SystemDims(2, 6, leak_level=True)
    schedule, geom = plan_schedule(plan, 0.25 * plan.t_pi), plan_geometry(plan)
    noise = _full_noise((300.0, 200.0, 150.0, 100.0), 20.0, (1e3, 1e3))
    between = _between_leak_sets(dims)
    uu = thermal_product_state(dims, spin_state(dims, "uu"), 0.005)
    traj = evolve_density(schedule, dims, geom, noise, uu, plan.t_pi / 40)
    assert not _has_identity_basis(traj.fold)
    assert all(np.all(state.matrix[between] == 0.0) for state in traj.states)
    psi = np.zeros(dims.dim, dtype=complex)
    psi[[dims.basis_index((UP, UP), 0), dims.basis_index((LEAK, LEAK), 0)]] = 1 / np.sqrt(2)
    traj = evolve_density(schedule, dims, geom, noise, PureState(dims, psi).to_density(), plan.t_pi / 40)
    assert len(traj.groups) == 1
    assert all(np.abs(state.matrix[between]).max() > 0.1 for state in traj.states)


def test_the_cycle_symmetry_test_on_hand_built_operators():
    """Three ions, whose couplings step by exp(-2 pi i / 3): U is the shift
    by one ion with step 1.  A symmetric Hamiltonian, the all-up ground
    state and the heating pair with one decay per ion pass: U multiplies a
    by exp(-2 pi i / 3) and a^dag by its conjugate (moves -1 and +1 mod
    3), and maps each ion's operator to the next ion's (move None).  A set
    missing one ion's operator, one ion's rate doubled, a start that U
    moves and a Hamiltonian U does not commute with each break it."""
    import scipy.sparse as sp

    from zenosim.hilbert import build_mode_op, build_spin_op

    dims, geom = SystemDims(3, 4), IonGeometry.three_ion_com()

    def csr(*ops, scale=1.0):
        return sp.csr_matrix(scale * sum(op.matrix for op in ops))

    z = [build_spin_op(dims, i, "z") for i in range(3)]
    ham = csr(*z, build_mode_op(dims, "number"))
    heat = [csr(build_mode_op(dims, kind), scale=np.sqrt(20.0)) for kind in ("annihilate", "create")]
    decay = [csr(build_spin_op(dims, i, "lower"), scale=np.sqrt(300.0)) for i in range(3)]
    uuu = csr(named_state(dims, "uuu", 0).to_density())
    uud = np.zeros(dims.dim, dtype=complex)
    uud[dims.basis_index((UP, UP, DOWN), 0)] = 1.0

    def symmetry(hams=(ham,), ops=(*heat, *decay), rho=uuu):
        return dynamics._cycle_symmetry(dims, geom, (0.0,) * 3, list(hams), list(ops), rho)

    assert symmetry() == (1, [2, 1, None, None, None])
    assert symmetry(ops=(*heat, *decay[:2])) is None
    assert symmetry(ops=(*heat, *decay[:2], decay[2] * np.sqrt(2.0))) is None
    assert symmetry(rho=csr(PureState(dims, uud).to_density())) is None
    assert symmetry(hams=(ham, csr(z[0]))) is None


def test_a_run_without_the_cycle_symmetry_keeps_the_leak_set_path():
    """Unequal Stark shifts, without and with a leak level, a |uud> start
    and a geometry whose couplings do not step by one ratio each break the
    symmetry: the run keeps the leak-set layout, bit for bit the run with
    the symmetry test switched off."""
    from zenosim.protocol import plan_schedule, plan_three_ion

    plan = plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3)
    schedule = plan_schedule(plan, 0.25 * plan.t_pi)
    dims, leaky = SystemDims(3, 7), SystemDims(3, 7, leak_level=True)
    geom = IonGeometry.three_ion_com()
    noise = NoiseModel(gamma_du=300.0, gamma_heat=20.0, n_bar=0.001)
    uud = np.zeros(dims.dim, dtype=complex)
    uud[dims.basis_index((UP, UP, DOWN), 0)] = 1.0
    uneven = IonGeometry(3, (2 * np.pi / 3, 0.0, 0.0), geom.mode_amplitudes)
    uuu = thermal_product_state(dims, spin_state(dims, "uuu"), noise.n_bar)
    leaky_uuu = thermal_product_state(leaky, spin_state(leaky, "uuu"), noise.n_bar)
    cases = [
        (dims, geom, NoiseModel(gamma_du=300.0, gamma_heat=20.0, stark_shifts=(2e3, 0.0, 2e3), n_bar=0.001), uuu),
        (leaky, geom, _full_noise((300.0, 0.0, 200.0, 100.0), 20.0, (2e3, 0.0, 2e3), 0.001), leaky_uuu),
        (dims, geom, noise, PureState(dims, uud).to_density()),
        (dims, uneven, noise, uuu),
    ]
    for case_dims, case_geom, case_noise, rho0 in cases:
        traj, plain = _density_runs(schedule, case_dims, case_geom, case_noise, rho0, plan.t_pi / 40)
        assert _has_identity_basis(traj.fold)
        assert [list(idx) for idx in traj.groups] == [list(idx) for idx in leak_sectors(case_dims)]
        assert traj.samples.tobytes() == plain.samples.tobytes()


def test_each_leak_block_is_checked():
    """Contract violations confined to a leaked block are caught at t = 0."""
    dims = SystemDims(2, 4, leak_level=True)
    uu = dims.basis_index((UP, UP), 0)
    a, b = dims.basis_index((LEAK, UP), 0), dims.basis_index((LEAK, DOWN), 0)
    rho = np.zeros((dims.dim, dims.dim), dtype=complex)
    rho[uu, uu] = 1.0
    rho[a, b] = rho[b, a] = 0.01  # eigenvalues +-0.01 within ion 1's leak block
    with pytest.raises(NumericsError, match=r"negative eigenvalue -1\.00e-02 at t = 0\.000e\+00 s"):
        evolve_density(single_pulse(), dims, GEOM2, NoiseModel(), DensityOperator(dims, rho))

    top = dims.basis_index((LEAK, LEAK), dims.n_fock - 1)
    rho = np.zeros((dims.dim, dims.dim), dtype=complex)
    rho[uu, uu], rho[top, top] = 1.0 - 1e-6, 1e-6
    with pytest.raises(TruncationError, match=r"at t = 0\.00 us"):
        evolve_density(single_pulse(), dims, GEOM2, NoiseModel(), DensityOperator(dims, rho))


def test_the_first_non_positive_block_of_the_first_failing_sample_is_reported():
    """Blocks of one width are factorized in one stacked call, yet the
    report is the per-block one: the first failing sample, with the
    eigenvalue of its first non-positive block in block order.  Of the two
    equal-width leak blocks, the second fails at sample 1 (-0.01) and the
    first only at sample 2; the narrower block after them fails at sample 1
    too (-0.02)."""
    dims = SystemDims(2, 4, leak_level=True)
    fold = dynamics._Fold(dims, leak_sectors(dims))
    assert [len(idx) for idx in fold.groups] == [16, 8, 8, 4]
    rhos = np.zeros((3, dims.dim, dims.dim), dtype=complex)
    rhos[:, dims.basis_index((UP, UP), 0), dims.basis_index((UP, UP), 0)] = 1.0
    for k, pair, x in [
        (1, [(UP, LEAK), (DOWN, LEAK)], 0.01),  # the second 8-wide block
        (1, [(LEAK, LEAK), (LEAK, LEAK)], 0.02),  # the 4-wide block, Fock levels 0 and 1
        (2, [(LEAK, UP), (LEAK, DOWN)], 0.03),  # the first 8-wide block
    ]:
        i, j = dims.basis_index(pair[0], 0), dims.basis_index(pair[1], int(pair[0] == pair[1]))
        rhos[k, i, j] = rhos[k, j, i] = x
    chunk = fold.pack(rhos)
    with pytest.raises(NumericsError, match=r"negative eigenvalue -1\.00e-02 at t = 1\.000e-06 s"):
        dynamics._check_density(fold, np.arange(3) * 1e-6, chunk, fold.blocks(chunk))


def test_density_contracts_fail_on_nan():
    """A NaN sample fails the first contract it reaches: the trace if its
    diagonal is NaN, the Hermiticity if only an off-diagonal entry is."""
    dims = SystemDims(2, 2, leak_level=True)
    times = np.arange(3) * 1e-6
    whole = dynamics._Fold(dims, [np.arange(dims.dim)])

    def check(fold, chunk):
        dynamics._check_density(fold, times, chunk, fold.blocks(chunk))

    with pytest.raises(NumericsError, match=r"trace drift nan at t = 0\.000e\+00 s"):
        check(whole, np.full((3, len(whole.half)), np.nan, dtype=complex))
    rhos = np.repeat(named_state(dims, "uu", 0).to_density().matrix[None], 3, axis=0)
    rhos[2, 0, 1] = np.nan
    with pytest.raises(NumericsError, match=r"Hermiticity defect nan at t = 2\.000e-06 s"):
        check(whole, whole.pack(rhos))
    for contract in ("trace", "Hermiticity"):  # the leak-sector path checks a NaN in one block
        fold = dynamics._Fold(dims, leak_sectors(dims))
        rhos = np.repeat(named_state(dims, "uu", 0).to_density().matrix[None], 3, axis=0)
        i, j = fold.groups[-1][0], fold.groups[-1][-1]
        rhos[1, i, i if contract == "trace" else j] = np.nan
        with pytest.raises(NumericsError, match=rf"{contract} .* nan at t = 1\.000e-06 s"):
            check(fold, fold.pack(rhos))


def test_a_run_stops_within_one_check_chunk_of_its_failure(monkeypatch):
    """Samples are checked as their chunk fills: a kernel whose rows are NaN
    from sample k on raises at sample k, and no kernel call reaches past
    sample k's check chunk, not to the end of the run.  The calls carry up
    to a whole chunk of samples, cut where the theta_55 cap falls."""
    dims = SystemDims(2, 6, leak_level=True)
    real_call = dynamics._TaylorExpm.__call__
    reached, sizes = [], []  # every sample a call returned; the samples of each call

    def nan_from_sample_k(self, offsets, v):
        out = real_call(self, offsets, v)
        out[max(k - len(reached), 0) :] = np.nan
        reached.extend(offsets)
        sizes.append(len(offsets))
        return out

    monkeypatch.setattr(dynamics._TaylorExpm, "__call__", nan_from_sample_k)
    rho0 = named_state(dims, "uu", 0).to_density()
    noise = NoiseModel(gamma_ou=1e3)
    chunk = dynamics._CHECK_CHUNK
    for k in (1, 5, 11):
        reached.clear()
        sample_dt = T_PI / 100  # 101 samples
        with pytest.raises(NumericsError, match=rf"trace drift nan at t = {k * sample_dt:.3e} s"):
            evolve_density(single_pulse(), dims, GEOM2, noise, rho0, sample_dt)
        assert k < len(reached) <= (k // chunk + 1) * chunk
    assert max(sizes) > 1
    assert min(sizes) < chunk  # a chunk's samples past the cap go to a second call


def test_pure_state_contracts_fail_on_nan(monkeypatch):
    """A NaN amplitude fails the norm contract of evolve_pure and the
    population sum of extract_populations, not only a finite drift."""
    dims = SystemDims(2, 10)
    psi0 = named_state(dims, "uu", 0)
    real_spectrum = dynamics._segment_spectrum

    def nan_spectrum(*args):
        evals, evecs = real_spectrum(*args)
        return np.full_like(evals, np.nan), evecs

    monkeypatch.setattr(dynamics, "_segment_spectrum", nan_spectrum)
    with pytest.raises(NumericsError, match=r"norm drift nan at t = 0\.000e\+00 s"):
        evolve_pure(single_pulse(), dims, GEOM2, psi0, sample_dt=T_PI / 4)
    monkeypatch.undo()
    traj = evolve_pure(single_pulse(), dims, GEOM2, psi0, sample_dt=T_PI / 4)
    samples = traj.samples.copy()
    samples[2, 0] = np.nan
    with pytest.raises(NumericsError, match="populations sum to nan"):
        extract_populations(Trajectory(traj.times, samples, dims, traj.schedule), [psi0])


def test_planned_kernel_work_is_bounded(monkeypatch):
    """Before a segment is propagated its planned Taylor work, sum m * s
    over its kernel calls, is added to the run's; past _MAX_MATVECS the run
    raises NumericsError before that segment's first call, and a step that
    alone needs more raises too.  Each sample step here passes theta_55, so
    each sample is a call of its own, sample 0 one with no step."""
    import math
    import re

    dims = SystemDims(2, 6, leak_level=True)
    rho0 = named_state(dims, "uu", 0).to_density()
    noise = NoiseModel(gamma_ou=1e3)
    schedule = PulseSchedule((PulseSegment(T_PI / 2, OMEGA_S, OMEGA_D, DELTA),) * 2)
    work = []
    real_call = dynamics._TaylorExpm.__call__

    def counted(self, offsets, v):
        work.append(math.prod(self.plan(offsets[-1])))
        return real_call(self, offsets, v)

    monkeypatch.setattr(dynamics._TaylorExpm, "__call__", counted)
    evolve_density(schedule, dims, GEOM2, noise, rho0, T_PI / 10)
    total = sum(work)
    assert len(work) == 11 and work[0] == 0 and 0 < sum(work[:6]) < total  # samples 0-5, then 6-10

    work.clear()
    monkeypatch.setattr(dynamics, "_MAX_MATVECS", total)
    evolve_density(schedule, dims, GEOM2, noise, rho0, T_PI / 10)
    assert len(work) == 11
    work.clear()
    monkeypatch.setattr(dynamics, "_MAX_MATVECS", total - 1)
    with pytest.raises(NumericsError, match=re.escape(f"plans {total:.3g} matvecs up to t = {T_PI:.3e} s")):
        evolve_density(schedule, dims, GEOM2, noise, rho0, T_PI / 10)
    assert len(work) == 6  # the first segment ran, the second never started
    monkeypatch.setattr(dynamics, "_MAX_MATVECS", 10)
    with pytest.raises(NumericsError, match=r"a step of .* needs more than 1e\+01 matvecs"):
        evolve_density(schedule, dims, GEOM2, noise, rho0, T_PI / 10)


def _dense_generator(dims, geom, seg, noise):
    """The vectorized Lindbladian of one segment as a dense matrix."""
    from zenosim.model import lindblad_operators, segment_hamiltonian

    h = segment_hamiltonian(dims, geom, seg, noise.stark_shifts).matrix
    eye = np.eye(dims.dim)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in (op.matrix for op in lindblad_operators(dims, noise)):
        m = l.conj().T @ l
        gen += np.kron(l, l.conj()) - 0.5 * (np.kron(m, eye) + np.kron(eye, m.T))
    return gen


def test_truncation_failure_names_the_first_failing_sample():
    """Off-resonant sideband with heating at n_fock = 4: the top Fock
    population first exceeds 1e-8 at sample 3 of 20, where a dense
    exponential of the generator puts it at 4.5e-8 after 4.3e-9 at sample
    2, and the error names that sample's time and population."""
    from scipy.linalg import expm

    dims = SystemDims(2, 4)
    noise = NoiseModel(gamma_heat=20.0)
    schedule = single_pulse()
    rho0 = named_state(dims, "uu", 0).to_density()
    sample_dt = T_PI / 20
    gen = _dense_generator(dims, GEOM2, schedule.segments[0], noise)
    step = expm(sample_dt * gen)
    times, vec, tops = np.arange(21) * sample_dt, rho0.matrix.reshape(-1), []
    for _ in times:
        tops.append(np.diag(vec.reshape(dims.dim, dims.dim)).real[dims.n_fock - 1 :: dims.n_fock].sum())
        vec = step @ vec
    k = int(np.argmax(np.array(tops) >= 1e-8))
    assert k == 3 and tops[k - 1] < 0.5e-8 and tops[k] > 2e-8
    with pytest.raises(TruncationError, match=rf"at t = {times[k] * 1e6:.2f} us") as info:
        evolve_density(schedule, dims, GEOM2, noise, rho0, sample_dt)
    reported = float(str(info.value).split("population ")[1].split()[0])
    assert reported == pytest.approx(tops[k], rel=1e-2)


def test_positivity_failure_names_the_first_failing_sample():
    """No drive, leak from up only, start |dd,0> with -0.8e-7 on |ou,0> and
    on |uo,0>, which passes the -1e-7 floor.  Both leak into |oo,0>, whose
    entry in the both-leaked block is -1.6e-7 (1 - exp(-gamma t)): it first
    falls below -1e-7 at gamma t = 1.2, sample 4 of 10."""
    dims = SystemDims(2, 2, leak_level=True)
    gamma, sample_dt = 1e4, 30e-6
    noise = NoiseModel(gamma_ou=gamma)
    rho = np.zeros((dims.dim, dims.dim), dtype=complex)
    rho[dims.basis_index((DOWN, DOWN), 0), dims.basis_index((DOWN, DOWN), 0)] = 1.0 + 1.6e-7
    for spins in ((LEAK, UP), (UP, LEAK)):
        rho[dims.basis_index(spins, 0), dims.basis_index(spins, 0)] = -0.8e-7
    schedule = PulseSchedule((PulseSegment(10 * sample_dt),))
    t = 4 * sample_dt
    eig = -1.6e-7 * (1.0 - np.exp(-gamma * t))
    assert -1.6e-7 * (1.0 - np.exp(-gamma * (t - sample_dt))) > -0.95e-7 and eig < -1.1e-7
    with pytest.raises(NumericsError, match=rf"negative eigenvalue {eig:.2e} at t = {t:.3e} s"):
        evolve_density(schedule, dims, GEOM2, noise, DensityOperator(dims, rho), sample_dt)


def test_an_in_loop_failure_reports_an_earlier_positivity_failure(monkeypatch):
    """Positivity is checked with the other contracts as each chunk fills.
    The run of the positivity test above at half the sample step fails
    positivity first at sample 7, and its kernel returns NaN rows from
    sample 12 on: the run stops with the chunk that sample 7 ends, before
    any NaN sample is made, and names sample 7's negative eigenvalue."""
    dims = SystemDims(2, 2, leak_level=True)
    gamma, sample_dt = 1e4, 15e-6
    rho = np.zeros((dims.dim, dims.dim), dtype=complex)
    rho[dims.basis_index((DOWN, DOWN), 0), dims.basis_index((DOWN, DOWN), 0)] = 1.0 + 1.6e-7
    for spins in ((LEAK, UP), (UP, LEAK)):
        rho[dims.basis_index(spins, 0), dims.basis_index(spins, 0)] = -0.8e-7
    schedule = PulseSchedule((PulseSegment(20 * sample_dt),))
    reached = []  # every sample a kernel call returned
    real_call = dynamics._TaylorExpm.__call__

    def nan_from_sample_12(self, offsets, v):
        out = real_call(self, offsets, v)
        out[max(12 - len(reached), 0) :] = np.nan
        reached.extend(offsets)
        return out

    monkeypatch.setattr(dynamics._TaylorExpm, "__call__", nan_from_sample_12)
    t = 7 * sample_dt
    eig = -1.6e-7 * (1.0 - np.exp(-gamma * t))
    assert -1.6e-7 * (1.0 - np.exp(-gamma * (t - sample_dt))) > -0.95e-7 and eig < -1.03e-7
    with pytest.raises(NumericsError, match=rf"negative eigenvalue {eig:.2e} at t = {t:.3e} s"):
        evolve_density(schedule, dims, GEOM2, NoiseModel(gamma_ou=gamma), DensityOperator(dims, rho), sample_dt)
    assert len(reached) == 8  # samples 0-7


def test_density_matches_matrix_form_ode_reference():
    """Every sample of a two-segment noisy run against solve_ivp on the
    matrix-form master equation, integrated segment by segment.  Scatter
    out of the protected subspace climbs the motional ladder, so n_fock = 8
    is the smallest space that keeps the top level below its limit."""
    from scipy.integrate import solve_ivp

    from zenosim.model import lindblad_operators, segment_hamiltonian

    dims = SystemDims(2, 8, leak_level=True)
    noise = _full_noise((300.0, 200.0, 150.0, 100.0), 40.0)
    seg_a = PulseSegment(0.4 * T_PI, OMEGA_S, OMEGA_D, DELTA)
    seg_b = PulseSegment(0.6 * T_PI, -OMEGA_S, OMEGA_D, -DELTA)
    schedule = PulseSchedule((seg_a, seg_b))
    rho0 = named_state(dims, "uu", 0).to_density()
    traj = evolve_density(schedule, dims, GEOM2, noise, rho0, sample_dt=T_PI / 25)

    collapse = [op.matrix for op in lindblad_operators(dims, noise)]
    m = sum(l.conj().T @ l for l in collapse)
    d = dims.dim

    def rhs_for(h):
        def rhs(_t, y):
            rho = y.reshape(d, d)
            out = -1j * (h @ rho - rho @ h) - 0.5 * (m @ rho + rho @ m)
            for l in collapse:
                out += l @ rho @ l.conj().T
            return out.reshape(-1)

        return rhs

    y = rho0.matrix.reshape(-1)
    start = 0.0
    reference = [y]
    for seg in schedule.segments:
        stop = start + seg.duration  # every boundary is a sample time
        t_eval = [t for t in traj.times if start < t <= stop]
        h = segment_hamiltonian(dims, GEOM2, seg).matrix
        sol = solve_ivp(rhs_for(h), (start, stop), y, method="DOP853", t_eval=t_eval, rtol=1e-12, atol=1e-14)
        assert sol.success
        reference += list(sol.y.T)
        y, start = sol.y[:, -1], stop
    assert len(reference) == len(traj.states)
    for ref, state in zip(reference, traj.states):
        assert np.max(np.abs(state.matrix - ref.reshape(d, d))) < 1e-9


def _folded_kernels():
    """The dense vectorized full-noise Lindbladian of a small leak-level
    space and its Taylor kernels, folded as evolve_density folds them: over
    the leak-set blocks (rho block diagonal over the leak sets) and over one
    group, the whole space (rho with coherence between leak sets).  Each
    kernel comes with the positions of its computed entries and of its
    whole vector in vec(rho), and a unit-trace Hermitian start there."""
    import scipy.sparse as sp

    from zenosim.dynamics import _TaylorExpm

    dims = SystemDims(2, 3, leak_level=True)
    noise = _full_noise((3e4, 2e4, 1.5e4, 1e4), 5e3, stark=(1e4, -5e3))
    gen = _dense_generator(dims, GEOM2, PulseSegment(T_PI, OMEGA_S, OMEGA_D, DELTA), noise)
    n = dims.dim**2
    mu = np.trace(gen).real / n

    rng = np.random.default_rng(7)
    x = rng.normal(size=(dims.dim, dims.dim)) + 1j * rng.normal(size=(dims.dim, dims.dim))
    rho = x @ x.conj().T
    between = _between_leak_sets(dims)
    assert np.all(rho[between] != 0.0)
    kernels = []
    for groups in (leak_sectors(dims), [np.arange(dims.dim)]):
        fold = dynamics._Fold(dims, groups)
        kept, half = fold.kept, fold.half
        pos = np.concatenate((half, fold.lower))
        kernel = _TaylorExpm(sp.csr_matrix(gen)[kept][:, kept], mu, pos, fold.strict)
        shifted = (gen - mu * np.eye(n))[np.ix_(kept, kept)]
        assert abs(kernel.norm_1 - np.abs(shifted).sum(axis=0).max()) < 1e-12 * kernel.norm_1
        start = np.where(between, 0.0, rho) if len(groups) > 1 else rho
        kernels.append((kernel, kept[half], kept[pos], (start / np.trace(start)).reshape(-1)))
    return gen, kernels


def test_taylor_kernel_matches_dense_expm():
    """A one-sample kernel call against a dense exponential of the
    vectorized full-noise Lindbladian on a Hermitian rho, from a step well
    inside one Taylor term's reach to one that needs many substeps, on both
    folds.  A zero step returns the input."""
    from scipy.linalg import expm

    gen, kernels = _folded_kernels()
    for reach in (0.1, 0.66, 5.0, 100.0):
        dt = reach / kernels[-1][0].norm_1  # the whole space's norm bounds the blocks'
        step = expm(dt * gen)
        for kernel, computed, whole_at, vec in kernels:
            whole = np.zeros(len(gen), dtype=complex)
            whole[whole_at] = kernel.unfold(kernel(np.array([dt]), vec[computed])[0])
            assert np.max(np.abs(whole - step @ vec)) < 1e-12
    for kernel, computed, _, vec in kernels:
        assert np.array_equal(kernel(np.zeros(1), vec[computed])[0], vec[computed])


def test_taylor_kernel_dense_output_matches_dense_expm():
    """One kernel call for several samples: each row against a dense
    exponential at its own offset, to 1e-12, at unequal offsets from 0 up
    to a last one at the theta_55 cap of the whole space, where its plan
    still keeps s = 1, on both folds; the offset 0 returns the input
    exactly, and the last row is, bit for bit, a one-sample call at that
    offset.  Offsets past the cap are only taken alone."""
    from scipy.linalg import expm

    gen, kernels = _folded_kernels()
    whole_space = kernels[-1][0]  # its norm bounds the blocks'
    cap = dynamics._THETA[55] / whole_space.norm_1
    while cap * whole_space.norm_1 > dynamics._THETA[55]:
        cap = np.nextafter(cap, 0.0)
    assert whole_space.plan(cap) == (55, 1)
    # exp(k cap / 8 gen) from powers of one exponential
    eighth = expm(cap / 8 * gen)
    powers = {1: eighth, 3: eighth @ eighth @ eighth}
    powers[4] = powers[3] @ eighth
    powers[8] = powers[4] @ powers[4]
    offsets = np.array([0.0, 0.013 * cap, cap / 8, 3 * cap / 8, cap / 2, cap])
    steps = [np.eye(len(gen)), expm(offsets[1] * gen), powers[1], powers[3], powers[4], powers[8]]
    for kernel, computed, whole_at, vec in kernels:
        assert kernel.plan(cap)[1] == 1
        rows = kernel(offsets, vec[computed])
        assert rows.shape == (len(offsets), len(computed))
        assert np.array_equal(rows[0], vec[computed])
        assert np.array_equal(rows[-1], kernel(offsets[-1:], vec[computed])[0])
        for step, row in zip(steps, rows):
            whole = np.zeros(len(gen), dtype=complex)
            whole[whole_at] = kernel.unfold(row)
            assert np.max(np.abs(whole - step @ vec)) < 1e-12
        with pytest.raises(ValueError, match="only a lone offset"):
            kernel(np.array([0.5, 1.01]) * cap, vec[computed])


def test_kernel_calls_stay_within_a_segment_and_a_check_chunk(monkeypatch):
    """In a two-segment run whose boundary falls inside a check chunk, each
    kernel call carries the samples after the last one's, all in one
    segment and one _CHECK_CHUNK, at their offsets from the time of the
    last, and its rows are those samples as stored."""
    dims = SystemDims(2, 8, leak_level=True)
    noise = _full_noise((300.0, 200.0, 150.0, 100.0), 40.0)
    schedule = PulseSchedule(
        (PulseSegment(0.37 * T_PI, OMEGA_S, OMEGA_D, DELTA), PulseSegment(0.63 * T_PI, -OMEGA_S, OMEGA_D, -DELTA))
    )
    calls = []
    real_call = dynamics._TaylorExpm.__call__

    def recorded(self, offsets, v):
        out = real_call(self, offsets, v)
        calls.append((np.array(offsets), out))
        return out

    monkeypatch.setattr(dynamics._TaylorExpm, "__call__", recorded)
    rho0 = named_state(dims, "uu", 0).to_density()
    traj = evolve_density(schedule, dims, GEOM2, noise, rho0, sample_dt=T_PI / 200)
    boundary = schedule.boundaries()[1]
    chunk = dynamics._CHECK_CHUNK
    first, t0 = 0, 0.0
    for offsets, rows in calls:
        ks = np.arange(first, first + len(offsets))
        assert len(set(ks // chunk)) == 1
        assert np.all(traj.times[ks] <= boundary) or np.all(traj.times[ks] > boundary)
        np.testing.assert_array_equal(offsets, traj.times[ks] - t0)
        np.testing.assert_array_equal(rows, traj.samples[ks])
        first, t0 = ks[-1] + 1, traj.times[ks[-1]]
    assert first == len(traj.times)
    sizes = [len(offsets) for offsets, _ in calls]
    assert max(sizes) == chunk and len(calls) < len(traj.times) // 2
    k = int(np.flatnonzero(traj.times == boundary)[0])
    assert k % chunk not in (0, chunk - 1)  # the boundary cuts a chunk into two calls


def _exact_max_taylor_call(kernel, dt, v):
    """The kernel's Taylor loop as it was before its stop test bounded
    max|f|: the exact max|f| after every term."""
    m, s = kernel.plan(dt)
    eta = np.exp(dt * kernel.mu / s)
    f = v.copy()
    for _ in range(s):
        term = f
        c1 = np.abs(term).max()
        for j in range(m):
            term = kernel.shifted @ kernel.unfold(term)
            term *= dt / (s * (j + 1))
            c2 = np.abs(term).max()
            f += term
            if c1 + c2 <= dynamics._UNIT_ROUNDOFF * np.abs(f).max():
                break
            c1 = c2
        f *= eta
    return f


@pytest.mark.parametrize("seed", range(4))
def test_taylor_stop_test_bound_keeps_every_decision(seed):
    """The kernel takes the exact max|f| only when its upper bound lets the
    stop test pass, so on a random sparse generator, from one term to many
    substeps, its output is bit for bit that of the exact-max loop.  The
    generator does not preserve Hermiticity, so the kernel computes the
    whole vector: the identity fold."""
    import scipy.sparse as sp

    from zenosim.dynamics import _TaylorExpm

    rng = np.random.default_rng(seed)
    n = 400
    gen = sp.random(n, n, density=0.02, random_state=rng, format="csr") * (1 - 2j)
    gen = (gen + sp.diags(-rng.uniform(0, 3, n) + 1j * rng.normal(size=n))).tocsr()
    kernel = _TaylorExpm(gen, gen.diagonal().sum() / n, np.arange(n), np.array([], dtype=int))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    for reach in (1e-6, 0.1, 0.9, 4.0, 30.0):
        dt = reach / kernel.norm_1
        assert np.array_equal(kernel(np.array([dt]), v)[0], _exact_max_taylor_call(kernel, dt, v))


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.tuples(*[st.floats(0.0, 300.0)] * 4),
    gamma_heat=st.floats(0.0, 50.0),
    stark=st.tuples(*[st.floats(-2e4, 2e4)] * 2),
    n_bar=st.floats(0.0, 0.01),
)
def test_density_samples_stay_physical(gamma, gamma_heat, stark, n_bar):
    """Rate ranges keep the n = 5 population below 3e-9 at every corner."""
    dims = SystemDims(2, 6, leak_level=True)
    noise = _full_noise(gamma, gamma_heat, stark, n_bar)
    rho0 = thermal_product_state(dims, spin_state(dims, "uu"), n_bar)
    traj = evolve_density(single_pulse(duration=0.5 * T_PI), dims, GEOM2, noise, rho0, sample_dt=T_PI / 20)
    between = _between_leak_sets(dims)
    for rho in (s.matrix for s in traj.states):
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10
        assert np.all(rho[between] == 0.0)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.tuples(*[st.floats(0.0, 300.0)] * 4),
    gamma_heat=st.floats(0.0, 50.0),
    stark=st.tuples(*[st.floats(-2e4, 2e4)] * 2),
    n_bar=st.floats(0.0, 0.01),
    lindblad=st.booleans(),
)
def test_stacked_readout_matches_per_sample_loop(gamma, gamma_heat, stark, n_bar, lindblad):
    """The stacked readout of two-ion runs against the loop over dense
    states.  Without rates or a thermal start the run is pure-state, with
    the Stark shifts; the density run is stored as its leak-set blocks, or,
    with equal shifts, as one block per cycle sector and leak-set orbit."""
    from zenosim.protocol import plan_single

    noise = _full_noise(gamma, gamma_heat, stark, n_bar) if lindblad else NoiseModel(stark_shifts=stark)
    plan = plan_single(OMEGA_S, 2)
    _assert_stacked_readout_matches_loop(plan, noise, SystemDims(2, 6, noise.needs_leak_level))


def test_three_ion_leak_blocks_readout_matches_per_sample_loop():
    """The stacked readout of a three-ion run with leak rates, stored as
    its eight leak-set blocks, against the loop over dense states."""
    from zenosim.protocol import plan_three_ion

    plan = plan_three_ion(2 * np.pi * 19.0e3, 2 * np.pi * 1.24e3)
    noise = _full_noise((2e3, 1.4e3, 1e3, 6e2), 0.0, stark=(2e3, 0.0, 2e3))
    _assert_stacked_readout_matches_loop(plan, noise, SystemDims(3, 8, leak_level=True))


def _assert_stacked_readout_matches_loop(plan, noise, dims):
    """extract_populations and simulate_plan_fidelity (peak and end) read
    the trajectory's stack; an explicit loop over traj.states, with
    state_fidelity and the diagonal of each sample, gives the same numbers
    for full-space and spin-only targets, and spin_matrices gives each
    state's motion-traced matrix.  A density run stores the upper
    triangles of the blocks of its index groups, the leak sets or the
    cycle sectors, side by side: (T, n_half) entries."""
    from zenosim.protocol import simulate_plan, simulate_plan_fidelity

    duration, sample_dt = 0.5 * plan.t_pi, plan.t_pi / 40
    traj = simulate_plan(plan, noise, duration, dims, sample_dt)
    pure = not (noise.has_lindblad or noise.n_bar > 0)
    if pure:
        assert traj.groups == () and traj.samples.shape == (len(traj.times), dims.dim)
    elif _has_identity_basis(traj.fold):
        assert [list(idx) for idx in traj.groups] == [list(idx) for idx in leak_sectors(dims)]
    else:  # equal Stark shifts: the sectors of the ions' cycle symmetry, per leak-set orbit with a leak level
        assert len(traj.groups) == dims.n_ions * (dims.n_ions + 1 if dims.leak_level else 1)
    if not pure:
        assert traj.samples.shape == (len(traj.times), sum(len(idx) * (len(idx) + 1) // 2 for idx in traj.groups))

    if plan.n_ions == 2:
        labels = ["F_T", "P_S", "P_dd", "F_uu1"]
        targets = [named_state(dims, "T", 0), spin_state(dims, "S"), spin_state(dims, "dd"), named_state(dims, "uu", 1)]
    else:
        labels = ["F_W", "P_Wbar", "P_Wc", "F_uuu1"]
        targets = [named_state(dims, "W", 0), spin_state(dims, "Wbar"), spin_state(dims, "Wc"), named_state(dims, "uuu", 1)]
    rec = extract_populations(traj, targets, labels)
    masks = up_count_projectors(dims)
    spins = traj.spin_matrices()
    for k, state in enumerate(traj.states):
        diag = np.abs(state.amplitudes) ** 2 if pure else np.real(np.diag(state.matrix))
        np.testing.assert_allclose(rec.p_up_counts[k], [diag @ m for m in masks], rtol=0, atol=1e-14)
        assert abs(rec.leak_population[k] - diag @ leak_mask(dims)) <= 1e-14
        for label, target in zip(labels, targets):
            assert abs(rec.aux_populations[label][k] - state_fidelity(dims, state, target)) <= 1e-14
        np.testing.assert_allclose(spins[k], partial_trace_motion(dims, state), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(rec.target_fidelity, rec.aux_populations[labels[0]])

    peak = simulate_plan_fidelity(plan, noise, duration, dims, at_end=False, sample_dt=sample_dt)
    assert abs(peak - max(state_fidelity(dims, s, targets[0]) for s in traj.states)) <= 1e-14
    end = simulate_plan_fidelity(plan, noise, duration, dims, at_end=True)
    final = simulate_plan(plan, noise, duration, dims, duration).final
    assert abs(end - state_fidelity(dims, final, targets[0])) <= 1e-14


def _blas_threads() -> list[int]:
    return [get() for get, _ in dynamics._openblas_controls()]


@pytest.fixture
def two_blas_threads():
    """Every controlled OpenBLAS on two threads during the test, each one's
    own count restored after it; skips where no OpenBLAS control is found."""
    controls = dynamics._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    before = _blas_threads()
    for _, put in controls:
        put(2)
    yield [2] * len(controls)
    for (_, put), count in zip(controls, before):
        put(count)


def test_scenarios_fidelities_and_density_runs_use_one_blas_thread(two_blas_threads, monkeypatch, tmp_path):
    """Inside each entry point that pins BLAS, reached from a spy one layer
    down, every controlled OpenBLAS reports one thread, and the count is
    back at two after the call.  The search for the controls is cached."""
    from zenosim import cli, protocol
    from zenosim.config import load_preset

    inside = {}

    def spy(name, fn):
        def recorded(*args, **kwargs):
            inside[name] = _blas_threads()
            return fn(*args, **kwargs)

        return recorded

    monkeypatch.setattr(dynamics._TaylorExpm, "__call__", spy("evolve_density", dynamics._TaylorExpm.__call__))
    monkeypatch.setattr(protocol, "_pure_walk", spy("simulate_plan_fidelity", protocol._pure_walk))
    monkeypatch.setattr(cli, "_dressed_scan_scenario", spy("run_scenario", cli._dressed_scan_scenario))
    dims = SystemDims(2, 6, leak_level=True)
    evolve_density(single_pulse(), dims, GEOM2, NoiseModel(gamma_ou=1e3), named_state(dims, "uu", 0).to_density())
    assert _blas_threads() == two_blas_threads
    protocol.simulate_plan_fidelity(protocol.plan_single(OMEGA_S, 2))
    assert _blas_threads() == two_blas_threads
    cli.run_scenario(load_preset("fig_s4"), tmp_path)
    assert _blas_threads() == two_blas_threads
    ones = [1] * len(two_blas_threads)
    assert inside == {"evolve_density": ones, "simulate_plan_fidelity": ones, "run_scenario": ones}
    assert dynamics._openblas_controls() is dynamics._openblas_controls()


def test_simulate_plan_uses_one_blas_thread_from_either_start(two_blas_threads, monkeypatch):
    """simulate_plan pins BLAS while it stacks its run, from a pure start
    as from a density one, and the count is back at two after the call."""
    from zenosim import protocol

    inside = []
    stacked = protocol._stacked
    monkeypatch.setattr(protocol, "_stacked", lambda *args: inside.append(_blas_threads()) or stacked(*args))
    plan = protocol.plan_single(OMEGA_S, 2)
    protocol.simulate_plan(plan, None, dims=SystemDims(2, 6))
    protocol.simulate_plan(plan, NoiseModel(gamma_du=50.0), dims=SystemDims(2, 6), sample_dt=plan.t_pi / 4)
    assert inside == [[1] * len(two_blas_threads)] * 2
    assert _blas_threads() == two_blas_threads


def test_one_blas_thread_restores_the_count_after_a_return_a_raise_and_a_nested_call(two_blas_threads):
    ones = [1] * len(two_blas_threads)
    inner = dynamics._one_blas_thread(_blas_threads)

    @dynamics._one_blas_thread
    def outer():
        return inner(), _blas_threads()

    assert outer() == (ones, ones)  # the nested call restores the outer call's one thread
    assert _blas_threads() == two_blas_threads

    @dynamics._one_blas_thread
    def fails():
        assert _blas_threads() == ones
        raise ValueError("inside")

    with pytest.raises(ValueError, match="inside"):
        fails()
    assert _blas_threads() == two_blas_threads


def test_one_blas_thread_is_a_no_op_without_an_openblas_control(monkeypatch):
    """Where the search finds no control (another BLAS, another OS), the
    decorated function runs as it is and no thread count changes."""
    real = dynamics._openblas_controls()
    before = [get() for get, _ in real]
    monkeypatch.setattr(dynamics, "_openblas_controls", lambda: ())

    @dynamics._one_blas_thread
    def add(x, *, y):
        """Adds."""
        assert [get() for get, _ in real] == before
        return x + y

    assert add(1, y=2) == 3
    assert (add.__name__, add.__doc__) == ("add", "Adds.")
    assert [get() for get, _ in real] == before
