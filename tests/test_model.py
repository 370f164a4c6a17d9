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
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1e-4, omega_s, 0.0, delta)).matrix
    s1 = ket(DIMS2, "S", 1)
    dd0 = ket(DIMS2, "dd", 0)
    uu2 = ket(DIMS2, "uu", 2)
    assert abs(np.vdot(s1, h @ dd0) - np.sqrt(2) * omega_s) < 1e-9 * omega_s
    assert abs(np.vdot(uu2, h @ s1) - (-2.0) * omega_s) < 1e-9 * omega_s


def test_sideband_zero_drive_is_zero():
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1e-4, 0.0, 0.0, 0.0)).matrix
    assert np.linalg.norm(h) == 0.0


def test_three_ion_w_is_dark():
    omega_s = 2 * np.pi * 19.0e3
    h = sideband_hamiltonian(DIMS3, GEOM3, PulseSegment(1e-4, omega_s, 0.0, 0.0)).matrix
    w0 = ket(DIMS3, "W", 0)
    assert np.linalg.norm(h @ w0) < 1e-12 * omega_s


def test_triplet_row_is_detuning_only():
    omega_s = 1.0
    delta = 0.7
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1.0, omega_s, 0.0, delta)).matrix
    for n in range(DIMS2.n_fock):
        t_n = ket(DIMS2, "T", n)
        residual = h @ t_n - delta * n * t_n
        assert np.linalg.norm(residual) < 1e-12


def test_up_ground_state_annihilated_by_lowering_part():
    h = sideband_hamiltonian(DIMS2, GEOM2, PulseSegment(1.0, 1.0, 0.0, 0.0)).matrix
    uu0 = ket(DIMS2, "uu", 0)
    assert np.linalg.norm(h @ uu0) < 1e-12


def test_microwave_elements():
    omega_d = 2 * np.pi * 1.52e3
    h2 = microwave_hamiltonian(DIMS2, omega_d).matrix
    assert abs(np.vdot(ket(DIMS2, "T", 0), h2 @ ket(DIMS2, "uu", 0)) - np.sqrt(2) * omega_d) < 1e-9
    h3 = microwave_hamiltonian(DIMS3, omega_d).matrix
    assert abs(np.vdot(ket(DIMS3, "W", 0), h3 @ ket(DIMS3, "uuu", 0)) - np.sqrt(3) * omega_d) < 1e-9
    assert abs(np.vdot(ket(DIMS3, "Wbar", 0), h3 @ ket(DIMS3, "W", 0)) - 2.0 * omega_d) < 1e-9
    got = np.vdot(ket(DIMS3, "Wbar_c", 0), h3 @ ket(DIMS3, "Wc", 0))
    assert abs(got - (-omega_d)) < 1e-9
    assert np.linalg.norm(microwave_hamiltonian(DIMS2, 0.0).matrix) == 0.0


def test_stark_hamiltonian_basics():
    assert np.linalg.norm(stark_hamiltonian(DIMS3, [0.0, 0.0, 0.0]).matrix) == 0.0
    with pytest.raises(ValueError):
        stark_hamiltonian(DIMS2, [1.0])
    s = 2 * np.pi * 5e3
    h = stark_hamiltonian(DIMS3, [s, 0.0, s]).matrix
    uuu = ket(DIMS3, "uuu", 0)
    assert abs(np.vdot(uuu, h @ uuu) - s) < 1e-9


def test_uniform_stark_matches_restricted_ladder():
    """With the sideband off, uniform shifts tilt the three-level microwave
    ladder; the oracle is its direct 3x3 diagonalization."""
    from zenosim.dynamics import evolve_pure, state_fidelity

    dims = SystemDims(2, 2)
    omega_d = 2 * np.pi * 2e3
    shift = 2 * np.pi * 1.5e3
    t_pi = np.pi / (2 * np.sqrt(2) * omega_d)
    schedule = PulseSchedule((PulseSegment(t_pi, 0.0, omega_d, 0.0),))
    traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), t_pi / 60, stark_shifts=[shift, shift])
    target = named_state(dims, "T", 0)
    fid = np.array([state_fidelity(dims, s, target) for s in traj.states])

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
    from zenosim.dynamics import evolve_pure, state_fidelity

    dims = SystemDims(2, 8)
    omega_s = 2 * np.pi * 17.6e3
    omega_d = omega_s / 11.0
    delta = np.sqrt(7.0 / 3.0) * omega_s
    t_pi = np.pi / (2 * np.sqrt(2) * omega_d)
    schedule = PulseSchedule((PulseSegment(t_pi, omega_s, omega_d, delta),))
    target = named_state(dims, "T", 0)

    def peak(shifts):
        traj = evolve_pure(schedule, dims, GEOM2, named_state(dims, "uu", 0), t_pi / 150, stark_shifts=shifts)
        return max(state_fidelity(dims, s, target) for s in traj.states)

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
        assert op.matrix.tobytes() == want.tobytes()


def test_decay_rates_match_closed_forms():
    noise = NoiseModel(gamma_du=11.0, gamma_ud=7.0, gamma_ou=3.0, gamma_od=2.0)
    dims = SystemDims(2, 2, leak_level=True)
    ops = [op.matrix for op in lindblad_operators(dims, noise)]
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

    a = build_mode_op(dims, "annihilate").matrix
    coupling = (build_spin_op(dims, 0, "lower").matrix - build_spin_op(dims, 1, "lower").matrix) @ a
    h_mw = microwave_hamiltonian(dims, omega_d).matrix

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
    number_diag = np.diag(build_mode_op(dims, "number").matrix).real
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
