"""Analysis of the off-resonant subspace that limits the two-ion protocol.

From the spin-up motional ground state, the carrier drive reaches the
protected pair {|uu,0>, |T,0>}; the only other states it can populate are
|dd,0>, |S,1>, |uu,2>, chained together by the sideband.  Restricted to that
triple (basis order as listed) the Hamiltonian is

    H_u = delta * diag(0, 1, 2) + sqrt(2) Omega_s |S,1><dd,0|
          - 2 Omega_s |uu,2><S,1| + h.c.

Its eigenvectors psi_1..3 are the dressed states; the carrier couples |T,0>
to psi_n with strength Omega_n = sqrt(2) Omega_d <psi_n|dd,0>, while the
protected pair flops at Omega_0 = sqrt(2) Omega_d.  First-order amplitudes
on the dressed states follow

    c_n(t) = i Omega_n / (Delta_n^2 - Omega_0^2)
             * [Delta_n sin(Omega_0 t) + i Omega_0 (cos(Omega_0 t) - e^{-i Delta_n t})]

for a single pulse, and for a sign-reversed second segment (t > t1)

    c_n(t) = -i Omega_n / (Delta_n^2 - Omega_0^2)
             * [Delta_n (sin(Omega_0 t) - 2 sin(Omega_0 t1) e^{i Delta_n (t - t1)})
                - i Omega_0 (cos(Omega_0 t) - e^{i Delta_n (t - 2 t1)})].

The simplified variants keep only the leading order in Omega_n / Delta_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

#: basis labels of the coupled subspace, in matrix order
UNDESIRED_BASIS = ("dd,0", "S,1", "uu,2")


@dataclass(frozen=True)
class DressedSpectrum:
    """Eigensystem of the coupled subspace plus the carrier couplings.

    eigenvectors[n] is psi_{n+1} over (|dd,0>, |S,1>, |uu,2>); couplings is
    (Omega_0, Omega_1, Omega_2, Omega_3).
    """

    omega_s: float
    delta: float
    omega_d: float
    eigenfrequencies: np.ndarray
    eigenvectors: np.ndarray
    couplings: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class PerturbativeTrace:
    times: np.ndarray
    c_T0: np.ndarray
    c_n1: np.ndarray  # shape (3, len(times))
    variant: str


def undesired_hamiltonian(omega_s: float, delta: float) -> np.ndarray:
    """3x3 Hamiltonian of the coupled subspace (hbar = 1)."""
    r2 = np.sqrt(2.0)
    return np.array(
        [
            [0.0, r2 * omega_s, 0.0],
            [r2 * omega_s, delta, -2.0 * omega_s],
            [0.0, -2.0 * omega_s, 2.0 * delta],
        ],
        dtype=complex,
    )


def balanced_detuning(omega_s: float) -> float:
    """Positive detuning at which two eigenfrequencies are equal and opposite."""
    return np.sqrt(7.0 / 3.0) * abs(omega_s)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Global phase such that the |uu,2> component is real positive.

    This pins the sign pattern of the analytic eigenvectors at the balanced
    detuning: the |S,1> component is positive for psi_1, psi_2 and negative
    for psi_3.  Falls back to the |S,1> then |dd,0> components when needed.
    """
    for comp in (vec[2], vec[1], vec[0]):
        if abs(comp) > 1e-12:
            return vec * (abs(comp) / comp)
    return vec


def dressed_spectrum(omega_s: float, delta: float, omega_d: float) -> DressedSpectrum:
    """Diagonalize the coupled subspace and resolve the carrier couplings.

    Branch assignment: psi_3 is the branch with the largest eigenfrequency
    magnitude; psi_1 is the remaining branch whose eigenfrequency shares the
    sign of delta (the sorted order for delta >= 0), so that the labels agree
    with the closed forms at the balanced detuning and respect the mapping
    (omega_s, delta) -> (-omega_s, -delta), which negates eigenfrequencies
    while keeping eigenvectors fixed.
    """
    if omega_s == 0:
        raise ValueError("dressed_spectrum needs omega_s != 0")
    h = undesired_hamiltonian(omega_s, delta)
    evals, evecs = np.linalg.eigh(h)
    order_by_mag = np.argsort(np.abs(evals))
    i3 = int(order_by_mag[2])
    rest = sorted((int(i) for i in order_by_mag[:2]), key=lambda i: evals[i], reverse=bool(delta >= 0))
    order = [rest[0], rest[1], i3]
    freqs = evals[order].real
    vecs = np.array([_fix_phase(evecs[:, i]) for i in order])
    degenerate = bool(np.min(np.abs(np.diff(np.sort(evals)))) < 1e-9 * abs(omega_s))
    if degenerate:
        # fall back to ordering the near-degenerate pair by |S,1> weight
        rest = sorted(order_by_mag[:2], key=lambda i: abs(evecs[1, i]))
        order = [rest[0], rest[1], i3]
        freqs = evals[order].real
        vecs = np.array([_fix_phase(evecs[:, i]) for i in order])
    if np.max(np.abs(vecs.imag)) > 1e-12:
        raise NumericsError("dressed eigenvectors should be real after phase fixing")
    vecs = vecs.real.astype(float)
    omega0 = np.sqrt(2.0) * omega_d
    couplings = np.concatenate(([omega0], np.sqrt(2.0) * omega_d * vecs[:, 0]))
    return DressedSpectrum(omega_s, delta, omega_d, freqs, vecs, couplings, degenerate)


def scan_detuning(omega_s: float, delta_range: tuple[float, float], n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenfrequency branches tracked continuously over a detuning range.

    delta_range is the (min, max) pair, sampled at n_points equally spaced
    detunings.  Branches are matched between neighbouring points by
    eigenvector overlap so they never swap at crossings.  Returns (deltas,
    freqs) with freqs of shape (n_points, 3).
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    deltas = np.linspace(*delta_range, n_points)
    freqs = np.empty((len(deltas), 3))
    prev_vecs = None
    for k, d in enumerate(deltas):
        evals, evecs = np.linalg.eigh(undesired_hamiltonian(omega_s, d))
        if prev_vecs is None:
            order = np.argsort(evals)
        else:
            overlap = np.abs(prev_vecs.conj().T @ evecs)  # (3 prev, 3 new)
            order = np.full(3, -1)
            for _ in range(3):
                i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
                order[i] = j
                overlap[i, :] = -1.0
                overlap[:, j] = -1.0
        freqs[k] = evals[order].real
        prev_vecs = evecs[:, order]
    return deltas, freqs


def find_balanced_detunings(omega_s: float) -> tuple[float, float]:
    """Locate the two detunings where a pair of eigenfrequencies is balanced.

    Uses the trace identity: the eigenfrequency sum is 3 delta, so a
    +/- pair exists exactly where 3 delta equals the largest-magnitude
    eigenfrequency.  Root-finds that condition between 0.3 and 3 |omega_s|
    on both sides of delta = 0.
    """
    from scipy.optimize import brentq  # loaded here only: it costs ~0.4 s at import

    def residual(d):
        evals = np.linalg.eigvalsh(undesired_hamiltonian(omega_s, d))
        biggest = evals[np.argmax(np.abs(evals))]
        return 3.0 * d - biggest

    span = 3.0 * abs(omega_s)
    pos = brentq(residual, 0.3 * abs(omega_s), span, xtol=1e-12 * abs(omega_s))
    neg = brentq(residual, -span, -0.3 * abs(omega_s), xtol=1e-12 * abs(omega_s))
    return neg, pos


def _check_resonance(spectrum: DressedSpectrum):
    omega0 = spectrum.couplings[0]
    for dn in spectrum.eigenfrequencies:
        if abs(abs(dn) - abs(omega0)) < 1e-6 * max(abs(omega0), abs(dn)):
            raise NumericsError(
                f"drive Omega_0 = {omega0:.6g} resonant with dressed frequency {dn:.6g}; "
                "perturbative formulas diverge"
            )


def perturbative_single(spectrum: DressedSpectrum, t_grid, simplified: bool = False) -> PerturbativeTrace:
    """First-order dressed-state amplitudes during a single pulse."""
    _check_resonance(spectrum)
    t = np.asarray(t_grid, dtype=float)
    omega0 = spectrum.couplings[0]
    c_t0 = -1j * np.sin(omega0 * t)
    c = np.empty((3, len(t)), dtype=complex)
    for n in range(3):
        dn = spectrum.eigenfrequencies[n]
        om = spectrum.couplings[n + 1]
        if simplified:
            c[n] = (1j * om / dn) * np.sin(omega0 * t)
        else:
            c[n] = (
                1j
                * om
                / (dn**2 - omega0**2)
                * (dn * np.sin(omega0 * t) + 1j * omega0 * (np.cos(omega0 * t) - np.exp(-1j * dn * t)))
            )
    variant = "single_simplified" if simplified else "single_exact"
    return PerturbativeTrace(t, c_t0, c, variant)


def perturbative_composite(
    spectrum: DressedSpectrum, t1: float, t_grid, simplified: bool = False
) -> PerturbativeTrace:
    """First-order amplitudes when the dressed frequencies flip sign at t1."""
    _check_resonance(spectrum)
    t = np.asarray(t_grid, dtype=float)
    if not 0 < t1 < t.max():
        raise ValueError("t1 must satisfy 0 < t1 < max(t_grid)")
    omega0 = spectrum.couplings[0]
    c_t0 = -1j * np.sin(omega0 * t)
    before = t < t1
    single = perturbative_single(spectrum, t, simplified)
    c = np.array(single.c_n1)
    for n in range(3):
        dn = spectrum.eigenfrequencies[n]
        om = spectrum.couplings[n + 1]
        tt = t[~before]
        if simplified:
            c[n, ~before] = (
                -1j
                * om
                / dn
                * (np.sin(omega0 * tt) - 2.0 * np.sin(omega0 * t1) * np.exp(1j * dn * (tt - t1)))
            )
        else:
            c[n, ~before] = (
                -1j
                * om
                / (dn**2 - omega0**2)
                * (
                    dn * (np.sin(omega0 * tt) - 2.0 * np.sin(omega0 * t1) * np.exp(1j * dn * (tt - t1)))
                    - 1j * omega0 * (np.cos(omega0 * tt) - np.exp(1j * dn * (tt - 2.0 * t1)))
                )
            )
    variant = "composite_simplified" if simplified else "composite_exact"
    return PerturbativeTrace(t, c_t0, c, variant)


def embedded_dressed_states(dims, spectrum: DressedSpectrum):
    """Dressed states as full-space vectors, for comparison with simulations."""
    from .hilbert import named_state

    basis = [
        named_state(dims, "dd", 0).amplitudes,
        named_state(dims, "S", 1).amplitudes,
        named_state(dims, "uu", 2).amplitudes,
    ]
    return [sum(spectrum.eigenvectors[n][k] * basis[k] for k in range(3)) for n in range(3)]
