import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from zenosim.dressed import (
    balanced_detuning,
    dressed_spectrum,
    find_balanced_detunings,
    perturbative_composite,
    perturbative_single,
    scan_detuning,
    undesired_hamiltonian,
)
from zenosim.errors import NumericsError

SQ73 = np.sqrt(7.0 / 3.0)


def test_resonant_eigenfrequencies_have_dark_state():
    evals = np.sort(np.linalg.eigvalsh(undesired_hamiltonian(1.0, 0.0)))
    assert np.allclose(evals, [-np.sqrt(6), 0.0, np.sqrt(6)], atol=1e-12)


def test_balanced_detuning_eigenfrequencies():
    evals = np.sort(np.linalg.eigvalsh(undesired_hamiltonian(1.0, SQ73)))
    expected = np.sort([-2 / np.sqrt(3), 2 / np.sqrt(3), np.sqrt(21)])
    assert np.allclose(evals, expected, atol=1e-12)


def test_zero_drive_is_diagonal():
    evals = np.sort(np.linalg.eigvalsh(undesired_hamiltonian(0.0, 0.9)))
    assert np.allclose(evals, [0.0, 0.9, 1.8], atol=1e-12)


def test_characteristic_polynomial_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega_s = rng.uniform(0.2, 3.0)
        delta = rng.uniform(-4.0, 4.0)
        got = np.sort(dressed_spectrum(omega_s, delta, 1.0).eigenfrequencies)
        # cubic oracle: lambda^3 - 3 d lambda^2 + (2 d^2 - 6 w^2) lambda + 4 d w^2
        coeffs = [1.0, -3 * delta, 2 * delta**2 - 6 * omega_s**2, 4 * delta * omega_s**2]
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(got, roots, atol=1e-9 * max(1.0, abs(omega_s), abs(delta)))


def test_branch_labels_and_third_eigenvector():
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), 0.1)
    d1, d2, d3 = spectrum.eigenfrequencies
    assert abs(d1 - 2 / np.sqrt(3)) < 1e-9
    assert abs(d2 + 2 / np.sqrt(3)) < 1e-9
    assert abs(d3 - np.sqrt(21)) < 1e-9
    psi3 = spectrum.eigenvectors[2]
    expected = np.array([-np.sqrt(2.0 / 59.0), -np.sqrt(21.0 / 59.0), 6.0 / np.sqrt(59.0)])
    assert np.allclose(psi3, expected, atol=1e-9)
    # sign pattern of the closed forms: |S,1> component positive for psi_1/2
    assert spectrum.eigenvectors[0][1] > 0 and spectrum.eigenvectors[1][1] > 0


def test_couplings_match_closed_forms():
    omega_d = 0.37
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), omega_d)
    om0, om1, om2, om3 = spectrum.couplings
    assert abs(om0 - np.sqrt(2) * omega_d) < 1e-12
    assert abs(om1 - np.sqrt(3 * (19 - np.sqrt(7)) / 59) * omega_d) < 1e-9
    assert abs(om2 + np.sqrt(3 * (19 + np.sqrt(7)) / 59) * omega_d) < 1e-9
    assert abs(om3 + 2 / np.sqrt(59) * omega_d) < 1e-9


def test_coupling_sum_rule():
    rng = np.random.default_rng(11)
    for _ in range(10):
        omega_d = rng.uniform(0.05, 1.0)
        spectrum = dressed_spectrum(rng.uniform(0.3, 2.0), rng.uniform(-3, 3), omega_d)
        total = np.sum(spectrum.couplings[1:] ** 2)
        assert abs(total - 2 * omega_d**2) < 1e-10


def test_sign_reversal_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(8):
        omega_s = rng.uniform(0.3, 2.0)
        delta = rng.uniform(-3, 3)
        a = dressed_spectrum(omega_s, delta, 0.2)
        b = dressed_spectrum(-omega_s, -delta, 0.2)
        assert np.allclose(b.eigenfrequencies, -a.eigenfrequencies, atol=1e-10)
        assert np.allclose(np.abs(b.eigenvectors), np.abs(a.eigenvectors), atol=1e-10)
        assert np.allclose(b.couplings, a.couplings, atol=1e-10)


def _nondegenerate(omega_s, delta):
    """Eigenfrequencies, and their magnitudes, apart by 1e-3 |Omega_s|, so
    that the branch labels are well defined."""
    evals = np.linalg.eigvalsh(undesired_hamiltonian(omega_s, delta))
    gap = 1e-3 * abs(omega_s)
    return np.min(np.diff(np.sort(evals))) > gap and np.min(np.diff(np.sort(np.abs(evals)))) > gap


_drive = st.tuples(
    st.floats(0.2, 3.0) | st.floats(-3.0, -0.2),
    st.floats(0.05, 4.0) | st.floats(-4.0, -0.05),
    st.floats(0.01, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(_drive)
def test_sign_reversal_symmetry_property(drive):
    omega_s, delta, omega_d = drive
    assume(_nondegenerate(omega_s, delta))
    a = dressed_spectrum(omega_s, delta, omega_d)
    b = dressed_spectrum(-omega_s, -delta, omega_d)
    assert np.allclose(b.eigenfrequencies, -a.eigenfrequencies, rtol=0, atol=1e-10 * abs(omega_s))
    assert np.allclose(b.eigenvectors, a.eigenvectors, rtol=0, atol=1e-9)
    assert np.allclose(b.couplings, a.couplings, rtol=0, atol=1e-9 * omega_d)


@settings(max_examples=200, deadline=None)
@given(_drive)
def test_coupling_sum_rule_property(drive):
    """|dd,0> has unit weight over the three dressed states, so the carrier
    couplings to them share the protected pair's 2 Omega_d^2."""
    omega_s, delta, omega_d = drive
    assume(_nondegenerate(omega_s, delta))
    couplings = dressed_spectrum(omega_s, delta, omega_d).couplings
    assert abs(np.sum(couplings[1:] ** 2) - 2 * omega_d**2) < 1e-12 * omega_d**2


def test_scan_tracks_branches_and_finds_crossings():
    deltas, freqs = scan_detuning(1.0, (-4.0, 4.0), 401)
    # continuity: no jumps larger than the grid step allows
    assert np.max(np.abs(np.diff(freqs, axis=0))) < 0.15
    # dark state at delta = 0
    k0 = np.argmin(np.abs(deltas))
    assert np.min(np.abs(freqs[k0])) < 1e-12
    neg, pos = find_balanced_detunings(1.0)
    assert abs(pos - SQ73) < 1e-9
    assert abs(neg + SQ73) < 1e-9
    # near-harmonic ratio at the balanced point
    spectrum = dressed_spectrum(1.0, pos, 0.1)
    ratio = abs(spectrum.eigenfrequencies[2]) / abs(spectrum.eigenfrequencies[0])
    assert abs(ratio - 3.97) < 0.01


def _ode_oracle(spectrum, t_grid, t1=None):
    """Independent integration of i c_n' = +/- Delta_n c_n + Omega_n c_T."""
    omega0 = spectrum.couplings[0]
    out = np.empty((3, len(t_grid)), dtype=complex)
    for n in range(3):
        dn = spectrum.eigenfrequencies[n]
        om = spectrum.couplings[n + 1]

        def rhs(t, y):
            sign = 1.0 if t1 is None or t < t1 else -1.0
            c_t = -1j * np.sin(omega0 * t)
            return [-1j * (sign * dn * y[0] + om * c_t)]

        sol = solve_ivp(rhs, (0.0, t_grid[-1]), [0.0 + 0.0j], t_eval=t_grid, rtol=1e-11, atol=1e-13)
        out[n] = sol.y[0]
    return out


def test_single_pulse_formula_against_ode_oracle():
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), 1.0 / 12.0)
    t_pi = np.pi / (2 * spectrum.couplings[0])
    t = np.linspace(0, t_pi, 60)
    trace = perturbative_single(spectrum, t)
    oracle = _ode_oracle(spectrum, t)
    assert np.max(np.abs(trace.c_n1 - oracle)) < 1e-8
    assert np.max(np.abs(trace.c_n1[:, 0])) == 0.0


def test_composite_formula_against_ode_oracle():
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), 1.0 / (3 * np.sqrt(6)))
    t_pi = np.pi / (2 * spectrum.couplings[0])
    t1 = t_pi / 3
    t = np.linspace(0, t_pi, 80)
    trace = perturbative_composite(spectrum, t1, t)
    oracle = _ode_oracle(spectrum, t, t1)
    assert np.max(np.abs(trace.c_n1 - oracle)) < 1e-7


def test_simplified_error_scales_second_order():
    """Absolute deviation between exact and simplified amplitudes is second
    order in the drive ratio: halving the drive shrinks it ~4x."""
    errs = []
    for ratio in (20.0, 40.0):
        spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), 1.0 / ratio)
        t_pi = np.pi / (2 * spectrum.couplings[0])
        t = np.linspace(0, t_pi, 160)
        exact = perturbative_single(spectrum, t).c_n1
        simple = perturbative_single(spectrum, t, simplified=True).c_n1
        errs.append(np.max(np.abs(exact - simple)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_composite_first_order_cancellation():
    m = 1
    omega_d = 1.0 / (3 * np.sqrt(6) * m)
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), omega_d)
    t_pi = np.pi / (2 * spectrum.couplings[0])
    t = np.linspace(0, t_pi, 3000)
    trace = perturbative_composite(spectrum, t_pi / 3, t, simplified=True)
    end = np.abs(trace.c_n1[:2, -1])
    assert np.all(end < 1e-3 * omega_d)
    # trajectories return to the origin at t_pi after the sign flip
    peak = np.max(np.abs(trace.c_n1[:2]), axis=1)
    assert np.all(end < 1e-6 * peak)


def test_composite_reduces_to_single_when_t1_hits_the_end():
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), 1.0 / 10.0)
    t_pi = np.pi / (2 * spectrum.couplings[0])
    t = np.linspace(0, t_pi, 50)
    single = perturbative_single(spectrum, t)
    composite = perturbative_composite(spectrum, t_pi * (1 - 1e-12), t)
    assert np.max(np.abs(single.c_n1[:, :-1] - composite.c_n1[:, :-1])) < 1e-9


def test_leakage_estimate_at_synchronized_drive():
    for m in (1, 2, 3):
        d1 = 2 / np.sqrt(3)
        omega_d = d1 / (np.sqrt(2) * (4 * m + 1))
        spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), omega_d)
        t_pi = np.pi / (2 * spectrum.couplings[0])
        trace = perturbative_single(spectrum, np.array([t_pi]))
        leak = float(np.sum(np.abs(trace.c_n1[:2, -1]) ** 2))
        assert abs(leak - 1 / (4 * (1 + 2 * m) ** 2)) < 0.05 / (4 * (1 + 2 * m) ** 2)


def test_resonance_guard():
    d1 = 2 / np.sqrt(3)
    spectrum = dressed_spectrum(1.0, balanced_detuning(1.0), d1 / np.sqrt(2))  # m = 0: Omega_0 = |Delta_1|
    with pytest.raises(NumericsError):
        perturbative_single(spectrum, np.linspace(0, 1, 5))
