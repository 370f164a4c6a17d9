import numpy as np
import pytest

from zenosim.errors import NumericsError
from zenosim.hilbert import SystemDims, named_state
from zenosim.model import (
    IonGeometry,
    NoiseModel,
    PulseSchedule,
    PulseSegment,
    decay_rate_all_up,
    decay_rate_one_down,
    lindblad_operators,
    microwave_hamiltonian,
    sideband_hamiltonian,
    stark_hamiltonian,
)

DIMS2 = SystemDims(2, 4)
DIMS3 = SystemDims(3, 4)
GEOM2 = IonGeometry.two_ion_stretch()
GEOM3 = IonGeometry.three_ion_com()


def ket(dims, name, n):
    return named_state(dims, name, n).amplitudes


def test_sideband_matrix_elements_two_ions():
    omega_s = 2 * np.pi * 17.6e3
    delta = 2 * np.pi * 27.1e3
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1e-4, omega_s, 0.0, delta)).matrix.toarray()
    s1 = ket(DIMS2, "S", 1)
    dd0 = ket(DIMS2, "dd", 0)
    uu2 = ket(DIMS2, "uu", 2)
    assert abs(np.vdot(s1, h @ dd0) - np.sqrt(2) * omega_s) < 1e-9 * omega_s
    assert abs(np.vdot(uu2, h @ s1) - (-2.0) * omega_s) < 1e-9 * omega_s


def test_sideband_zero_drive_is_zero():
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1e-4, 0.0, 0.0, 0.0)).matrix.toarray()
    assert np.linalg.norm(h) == 0.0


def test_three_ion_w_is_dark():
    omega_s = 2 * np.pi * 19.0e3
    h = sideband_hamiltonian(DIMS3, GEOM3, PulseSegment(1e-4, omega_s, 0.0, 0.0)).matrix.toarray()
    w0 = ket(DIMS3, "W", 0)
    assert np.linalg.norm(h @ w0) < 1e-12 * omega_s


def test_triplet_row_is_detuning_only():
    omega_s = 1.0
    delta = 0.7
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1.0, omega_s, 0.0, delta)).matrix.toarray()
    for n in range(DIMS2.n_fock):
        t_n = ket(DIMS2, "T", n)
        residual = h @ t_n - delta * n * t_n
        assert np.linalg.norm(residual) < 1e-12


def test_up_ground_state_annihilated_by_lowering_part():
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1.0, 1.0, 0.0, 0.0)).matrix.toarray()
    uu0 = ket(DIMS2, "uu", 0)
    assert np.linalg.norm(h @ uu0) < 1e-12


def test_microwave_elements():
    omega_d = 2 * np.pi * 1.52e3
    h2 = microwave_hamiltonian(DIMS2, omega_d).matrix.toarray()
    assert abs(np.vdot(ket(DIMS2, "T", 0), h2 @ ket(DIMS2, "uu", 0)) - np.sqrt(2) * omega_d) < 1e-9
    h3 = microwave_hamiltonian(DIMS3, omega_d).matrix.toarray()
    assert abs(np.vdot(ket(DIMS3, "W", 0), h3 @ ket(DIMS3, "uuu", 0)) - np.sqrt(3) * omega_d) < 1e-9
    assert abs(np.vdot(ket(DIMS3, "Wbar", 0), h3 @ ket(DIMS3, "W", 0)) - 2.0 * omega_d) < 1e-9
    got = np.vdot(ket(DIMS3, "Wbar_c", 0), h3 @ ket(DIMS3, "Wc", 0))
    assert abs(got - (-omega_d)) < 1e-9
    assert np.linalg.norm(microwave_hamiltonian(DIMS2, 0.0).matrix.toarray()) == 0.0


def test_stark_hamiltonian_basics():
    assert np.linalg.norm(stark_hamiltonian(DIMS3, [0.0, 0.0, 0.0]).matrix.toarray()) == 0.0
    with pytest.raises(ValueError):
        stark_hamiltonian(DIMS2, [1.0])
    s = 2 * np.pi * 5e3
    h = stark_hamiltonian(DIMS3, [s, 0.0, s]).matrix.toarray()
    uuu = ket(DIMS3, "uuu", 0)
    assert abs(np.vdot(uuu, h @ uuu) - s) < 1e-9


def test_uniform_stark_matches_restricted_ladder():
    """With the sideband off, uniform shifts tilt the three-level microwave
    ladder; the oracle is its direct 3x3 diagonalization."""
    from _runs import fidelity
    from zenosim.dynamics import evolve_pure

    dims = SystemDims(2, 2)
    omega_d = 2 * np.pi * 2e3
    shift = 2 * np.pi * 1.5e3
    t_pi = np.pi / (2 * np.sqrt(2) * omega_d)
    schedule = PulseSchedule((PulseSegment(t_pi, 0.0, omega_d, 0.0),))
    traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), t_pi / 60, stark_shifts=[shift, shift])
    target = named_state(dims, "T", 0)
    fid = np.array([fidelity(dims, s, target) for s in traj.states])

    # restricted ladder (uu, T, dd) with diagonal (shift, 0, -shift)
    h3 = np.array(
        [
            [shift, np.sqrt(2) * omega_d, 0],
            [np.sqrt(2) * omega_d, 0, np.sqrt(2) * omega_d],
            [0, np.sqrt(2) * omega_d, -shift],
        ],
        dtype=complex,
    )
    evals, evecs = np.linalg.eigh(h3)
    psi0 = np.array([1.0, 0, 0], dtype=complex)
    for t, f in zip(traj.times, fid):
        amp = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))
        assert abs(f - abs(amp[1]) ** 2) < 1e-9


def test_uniform_stark_detunes_the_protected_flop():
    """With the sideband on, a uniform shift detunes the effective two-level
    transition and lowers the peak triplet fidelity of the full protocol."""
    from _runs import fidelity
    from zenosim.dynamics import evolve_pure

    dims = SystemDims(2, 8)
    omega_s = 2 * np.pi * 17.6e3
    omega_d = omega_s / 11.0
    delta = np.sqrt(7.0 / 3.0) * omega_s
    t_pi = np.pi / (2 * np.sqrt(2) * omega_d)
    schedule = PulseSchedule((PulseSegment(t_pi, omega_s, omega_d, delta),))
    target = named_state(dims, "T", 0)

    def peak(shifts):
        traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), t_pi / 150, stark_shifts=shifts)
        return max(fidelity(dims, s, target) for s in traj.states)

    shift = 2 * np.pi * 1.5e3
    peak_shifted = peak([shift, shift])
    peak_plain = peak(None)
    assert peak_plain > 0.98
    assert peak_shifted < peak_plain - 0.03
    # two-level detuning estimate: peak ~ Omega0^2 / (Omega0^2 + (shift/2)^2)
    omega0 = np.sqrt(2) * omega_d
    estimate = omega0**2 / (omega0**2 + (shift / 2.0) ** 2)
    assert abs(peak_shifted - estimate * peak_plain) < 0.05


def test_lindblad_operator_census():
    assert lindblad_operators(DIMS2, NoiseModel()) == []
    dims = SystemDims(2, 4, leak_level=True)
    noise = NoiseModel(gamma_du=10.0, gamma_ud=10.0, gamma_ou=5.0, gamma_od=5.0, gamma_heat=3.0)
    ops = lindblad_operators(dims, noise)
    assert len(ops) == 2 * 4 + 2
    with pytest.raises(NumericsError):
        lindblad_operators(DIMS2, NoiseModel(gamma_ou=1.0))


@pytest.mark.parametrize("dims", [SystemDims(2, 3, leak_level=True), SystemDims(3, 2, leak_level=True)])
def test_scatter_collapse_operators_match_explicit_kron(dims):
    """Each scatter channel is sqrt(gamma) times its single-ion transition,
    kron'ed with identities in basis order, bit for bit."""
    from zenosim.hilbert import DOWN, LEAK, UP

    def embedded(ion, row, col):
        single = np.zeros((3, 3), dtype=complex)
        single[row, col] = 1.0
        op = np.array([[1.0 + 0j]])
        for i in range(dims.n_ions):
            op = np.kron(op, single if i == ion else np.eye(3))
        return np.kron(op, np.eye(dims.n_fock))

    noise = NoiseModel(gamma_du=11.0, gamma_ud=7.0, gamma_ou=3.0, gamma_od=2.0)
    expected = []
    for i in range(dims.n_ions):
        lower = embedded(i, DOWN, UP)
        expected += [
            np.sqrt(noise.gamma_du) * lower,
            np.sqrt(noise.gamma_ud) * lower.conj().T,
            np.sqrt(noise.gamma_ou) * embedded(i, LEAK, UP),
            np.sqrt(noise.gamma_od) * embedded(i, LEAK, DOWN),
        ]
    ops = lindblad_operators(dims, noise)
    assert len(ops) == len(expected)
    for op, want in zip(ops, expected):
        assert op.matrix.toarray().tobytes() == want.tobytes()


def test_decay_rates_match_closed_forms():
    noise = NoiseModel(gamma_du=11.0, gamma_ud=7.0, gamma_ou=3.0, gamma_od=2.0)
    dims = SystemDims(2, 2, leak_level=True)
    ops = [op.matrix.toarray() for op in lindblad_operators(dims, noise)]
    m = sum(op.conj().T @ op for op in ops)
    uu0 = ket(dims, "uu", 0)
    t0 = ket(dims, "T", 0)
    gamma_uu = np.real(np.vdot(uu0, m @ uu0))
    gamma_t = np.real(np.vdot(t0, m @ t0))
    assert abs(gamma_uu - decay_rate_all_up(2, noise)) < 1e-12
    assert abs(gamma_uu - 2 * (noise.gamma_du + noise.gamma_ou)) < 1e-12
    assert abs(gamma_t - decay_rate_one_down(2, noise)) < 1e-12
    assert abs(gamma_t - (noise.gamma_du + noise.gamma_ud + noise.gamma_ou + noise.gamma_od)) < 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        IonGeometry(2, (0.0,), (1.0, -1.0))
    with pytest.raises(ValueError):
        sideband_hamiltonian(DIMS3, GEOM2, PulseSegment(1.0, 1.0, 0.0, 0.0))


def test_frame_consistency_with_lab_frame_integration():
    """Per-segment rotated-frame propagation matches direct integration of the
    time-dependent lab-frame Hamiltonian, mapped with exp(i Phi(t) a^dag a)."""
    from scipy.integrate import solve_ivp

    from zenosim.dynamics import evolve_pure
    from zenosim.hilbert import build_mode_op, build_spin_op

    dims = SystemDims(2, 7)
    omega_s = 2 * np.pi * 8e3
    omega_d = 2 * np.pi * 1.5e3
    delta = 2 * np.pi * 11e3
    t_end = 40e-6
    seg = PulseSegment(t_end, omega_s, omega_d, delta)
    traj = evolve_pure(PulseSchedule((seg,)), dims, GEOM2, named_state(dims, "uu", 0), t_end / 4)

    a = build_mode_op(dims, "annihilate").matrix.toarray()
    coupling = (build_spin_op(dims, 0, "lower").matrix.toarray() - build_spin_op(dims, 1, "lower").matrix.toarray()) @ a
    h_mw = microwave_hamiltonian(dims, omega_d).matrix.toarray()

    def rhs(t, y):
        term = omega_s * np.exp(-1j * delta * t) * coupling
        h = term + term.conj().T + h_mw
        return (-1j * h @ y.reshape(-1)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        named_state(dims, "uu", 0).amplitudes,
        t_eval=traj.times,
        rtol=1e-10,
        atol=1e-12,
    )
    number_diag = np.diag(build_mode_op(dims, "number").matrix.toarray()).real
    for idx, t in enumerate(traj.times):
        psi_lab = sol.y[:, idx]
        psi_rot_expected = np.exp(-1j * delta * t * number_diag) * psi_lab
        overlap = abs(np.vdot(psi_rot_expected, traj.states[idx].amplitudes))
        assert abs(overlap - 1.0) < 1e-7


@pytest.mark.parametrize(
    "kwargs",
    [{"gamma_du": np.nan}, {"gamma_heat": np.inf}, {"n_bar": np.nan}, {"gamma_ou": -1.0}, {"stark_shifts": (0.0, np.nan)}],
    ids=["gamma_du=nan", "gamma_heat=inf", "n_bar=nan", "gamma_ou=-1", "stark=nan"],
)
def test_noise_model_rejects_non_finite_and_negative_values(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        NoiseModel(**kwargs)


def _dense_operators(dims, geom, seg, shifts, noise):
    """The segment Hamiltonian and the collapse operators as dense np.kron
    chains, summed term by term over the whole dim x dim matrix."""
    from zenosim.hilbert import DOWN, LEAK, UP

    levels, nf = dims.levels_per_ion, dims.n_fock

    def spin(ion, *entries):
        single = np.zeros((levels, levels), dtype=complex)
        for row, col, value in entries:
            single[row, col] = value
        op = np.array([[1.0 + 0j]])
        for i in range(dims.n_ions):
            op = np.kron(op, single if i == ion else np.eye(levels))
        return np.kron(op, np.eye(nf))

    ladder = np.zeros((nf, nf), dtype=complex)
    for k in range(1, nf):
        ladder[k - 1, k] = np.sqrt(k)
    a = np.kron(np.eye(dims.spin_dim), ladder)
    create = np.kron(np.eye(dims.spin_dim), ladder.conj().T)
    number = np.kron(np.eye(dims.spin_dim), np.diag(np.arange(nf, dtype=float)).astype(complex))
    lower = [spin(i, (DOWN, UP, 1.0)) for i in range(dims.n_ions)]

    coupling = np.zeros_like(a)
    for i in range(dims.n_ions):
        coupling += np.sign(geom.mode_amplitudes[i]) * np.exp(1j * geom.phase_per_ion[i]) * lower[i]
    term = seg.omega_s * np.exp(1j * seg.laser_phase) * (coupling @ a)
    h = seg.delta * number + term + term.conj().T
    if seg.omega_d != 0.0:
        carrier = np.zeros_like(h)
        for op in lower:
            term = seg.omega_d * op
            carrier += term + term.conj().T
        h = h + carrier
    if shifts is not None and any(s != 0.0 for s in shifts):
        stark = np.zeros_like(h)
        for i, s in enumerate(shifts):
            if s != 0.0:
                stark += 0.5 * s * spin(i, (UP, UP, 1.0), (DOWN, DOWN, -1.0))
        h = h + stark

    collapse = []
    for i in range(dims.n_ions):
        for rate, op in (
            (noise.gamma_du, lower[i]),
            (noise.gamma_ud, lower[i].conj().T),
            (noise.gamma_ou, spin(i, (LEAK, UP, 1.0)) if dims.leak_level else None),
            (noise.gamma_od, spin(i, (LEAK, DOWN, 1.0)) if dims.leak_level else None),
        ):
            if rate > 0:
                collapse.append(np.sqrt(rate) * op)
    if noise.gamma_heat > 0:
        collapse += [np.sqrt(noise.gamma_heat) * create, np.sqrt(noise.gamma_heat) * a]
    return h, collapse


def _assert_canonical_copy(got, dense):
    """got is canonical CSR (sorted, distinct, no stored zeros) and holds
    exactly the entries of dense, bit for bit."""
    import scipy.sparse as sp

    want = sp.csr_matrix(dense)
    rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    assert isinstance(got, sp.csr_matrix)
    assert np.all(np.diff(rows * got.shape[1] + got.indices) > 0)
    assert np.all(got.data != 0)
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize(
    "dims",
    [SystemDims(2, 16, leak_level=True), SystemDims(2, 16), SystemDims(3, 12, leak_level=True), SystemDims(3, 12)],
    ids=["fig2_fig3", "two_ions_no_leak", "three_ion", "three_ion_heat_only"],
)
def test_sparse_operators_match_dense_kron_reference(dims):
    """At the dims of the fig2, fig3 and three_ion runs, with and without the
    leak level, every segment Hamiltonian (both composite signs, with and
    without the carrier, a laser phase, Stark shifts or none) and every
    collapse operator (scatter and heating) is the canonical CSR of its
    dense np.kron sum, bit for bit, and a collapse operator stores at most
    dim entries."""
    from zenosim.model import segment_hamiltonian

    geom = GEOM2 if dims.n_ions == 2 else GEOM3
    w = 2 * np.pi
    segments = [
        PulseSegment(1e-5, w * 17.6e3, w * 1.52e3, w * 27.1e3),
        PulseSegment(1e-5, -w * 17.3e3, w * 2.55e3, -w * 26.8e3),
        PulseSegment(1e-5, w * 19.0e3, w * 1.24e3, 0.0),
        PulseSegment(1e-5, -w * 19.0e3, 0.0, -w * 7e3, 0.3),
    ]
    shift_sets = [None, (4398.0,) * dims.n_ions, (4398.0, 0.0, 4398.0), (1234.5678, -987.6543, 2e3 / 3)]
    shift_sets = [s if s is None else s[: dims.n_ions] for s in shift_sets]
    leak = 3.0 if dims.leak_level else 0.0
    noise = NoiseModel(gamma_du=11.0, gamma_ud=7.0, gamma_ou=leak, gamma_od=leak / 2, gamma_heat=0.7)
    for seg in segments:
        for shifts in shift_sets:
            h, collapse = _dense_operators(dims, geom, seg, shifts, noise)
            _assert_canonical_copy(segment_hamiltonian(dims, geom, seg, shifts).matrix, h)
    ops = lindblad_operators(dims, noise)
    assert len(ops) == len(collapse)
    for op, want in zip(ops, collapse):
        _assert_canonical_copy(op.matrix, want)
        assert op.matrix.nnz <= dims.dim


def test_hermiticity_check_reads_the_sparse_entries():
    """An entry whose mirror is not stored counts in full, and two mirrored
    entries are compared as conjugates."""
    import scipy.sparse as sp

    from zenosim.hilbert import OperatorMatrix

    dims = SystemDims(2, 1)
    one_sided = sp.csr_matrix(([1.0 + 0j], ([0], [1])), shape=(4, 4))
    with pytest.raises(ValueError, match="not Hermitian"):
        OperatorMatrix(dims, one_sided, True)
    OperatorMatrix(dims, one_sided * 1e-14 + sp.identity(4, format="csr"), True)  # below 1e-12 of the norm
    OperatorMatrix(dims, sp.csr_matrix(([2j, -2j], ([0, 3], [3, 0])), shape=(4, 4)), True)
    with pytest.raises(ValueError, match="not Hermitian"):
        OperatorMatrix(dims, sp.csr_matrix(([2j, 2j], ([0, 3], [3, 0])), shape=(4, 4)), True)
