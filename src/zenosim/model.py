"""Drive Hamiltonians and noise operators built from experiment-level knobs.

Everything is expressed in the frame rotating with the sideband detuning, so
within one pulse segment the Hamiltonian is constant:

    H = delta * a^dag a
        + Omega_s e^{i phi} (sum_i s_i e^{i theta_i} sigma_i^-) a + h.c.
        + Omega_d sum_i (sigma_i^- + h.c.)
        + sum_i (shift_i / 2) sigma_i^z

s_i is the sign of ion i's normal-mode amplitude and theta_i the optical
phase of the drive at its equilibrium position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .hilbert import OperatorMatrix, SystemDims, build_mode_op, build_spin_op


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant drive interval.

    omega_s and delta are signed; flipping both implements the composite
    pulse.  A zero duration segment is the identity and is allowed so that
    degenerate schedules stay well defined.
    """

    duration: float
    omega_s: float = 0.0
    omega_d: float = 0.0
    delta: float = 0.0
    laser_phase: float = 0.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("segment duration must be >= 0")


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[PulseSegment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule must contain at least one segment")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def boundaries(self) -> list[float]:
        t, out = 0.0, [0.0]
        for s in self.segments:
            t += s.duration
            out.append(t)
        return out


@dataclass(frozen=True)
class IonGeometry:
    """Optical phases and normal-mode amplitude pattern of the driven mode."""

    n_ions: int
    phase_per_ion: tuple[float, ...]
    mode_amplitudes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phase_per_ion", tuple(float(p) for p in self.phase_per_ion))
        object.__setattr__(self, "mode_amplitudes", tuple(float(a) for a in self.mode_amplitudes))
        if len(self.phase_per_ion) != self.n_ions or len(self.mode_amplitudes) != self.n_ions:
            raise ValueError("phase and amplitude lists must have one entry per ion")

    @classmethod
    def two_ion_stretch(cls) -> "IonGeometry":
        """Out-of-phase mode of two ions, equal optical phase (mod 2pi)."""
        r = 1.0 / np.sqrt(2.0)
        return cls(2, (0.0, 0.0), (r, -r))

    @classmethod
    def three_ion_com(cls) -> "IonGeometry":
        """In-phase mode of three ions with a 2pi/3 optical phase step."""
        r = 1.0 / np.sqrt(3.0)
        return cls(3, (2 * np.pi / 3, 0.0, -2 * np.pi / 3), (r, r, r))


@dataclass(frozen=True)
class NoiseModel:
    """Lindblad rates, static qubit-frequency shifts, and initial occupation.

    gamma_du is the up -> down decay rate, gamma_ud the reverse, gamma_ou and
    gamma_od feed the leak level.  Heating and cooling share gamma_heat.
    Rates are 1/s; stark shifts are rad/s per ion.  Rates and n_bar must be
    finite and >= 0, shifts finite; anything else, NaN included, raises
    ValueError.
    """

    gamma_du: float = 0.0
    gamma_ud: float = 0.0
    gamma_ou: float = 0.0
    gamma_od: float = 0.0
    gamma_heat: float = 0.0
    stark_shifts: tuple[float, ...] = ()
    n_bar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "stark_shifts", tuple(float(s) for s in self.stark_shifts))
        if not np.isfinite(self.stark_shifts).all():
            raise ValueError("stark_shifts must be finite")
        for name in ("gamma_du", "gamma_ud", "gamma_ou", "gamma_od", "gamma_heat", "n_bar"):
            value = float(getattr(self, name))
            if not (0 <= value < np.inf):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, value)

    @property
    def has_lindblad(self) -> bool:
        return any(g > 0 for g in (self.gamma_du, self.gamma_ud, self.gamma_ou, self.gamma_od, self.gamma_heat))

    @property
    def needs_leak_level(self) -> bool:
        return bool(self.gamma_ou > 0 or self.gamma_od > 0)

    def shifts_or_zero(self, n_ions: int) -> tuple[float, ...]:
        if not self.stark_shifts:
            return (0.0,) * n_ions
        if len(self.stark_shifts) != n_ions:
            raise ValueError(f"stark_shifts has {len(self.stark_shifts)} entries for {n_ions} ions")
        return self.stark_shifts


def sideband_hamiltonian(dims: SystemDims, geom: IonGeometry, seg: PulseSegment) -> OperatorMatrix:
    """Rotated-frame sideband Hamiltonian including the detuning term.

    H = delta a^dag a + Omega_s e^{i phi} (sum_i s_i e^{i theta_i}
    sigma_i^-) a + h.c., with s_i the sign of ion i's mode amplitude.  For
    the canonical two-ion geometry this is the (sigma_1^- - sigma_2^-) a
    pattern; for the three-ion geometry the 2pi/3 phases make the symmetric
    single-excitation state dark.
    """
    return OperatorMatrix(dims, _sideband(dims, geom, seg), True)


def _sideband(dims: SystemDims, geom: IonGeometry, seg: PulseSegment) -> np.ndarray:
    """The matrix of sideband_hamiltonian, unchecked."""
    if geom.n_ions != dims.n_ions:
        raise ValueError(f"geometry is for {geom.n_ions} ions, dims for {dims.n_ions}")
    a = build_mode_op(dims, "annihilate").matrix
    number = build_mode_op(dims, "number").matrix
    coupling = np.zeros_like(number)
    for i in range(dims.n_ions):
        s = np.sign(geom.mode_amplitudes[i])
        if s == 0:
            continue
        phase = np.exp(1j * geom.phase_per_ion[i])
        coupling += s * phase * build_spin_op(dims, i, "lower").matrix
    # a frequency near the float range overflows here; OperatorMatrix rejects
    # the non-finite entries with NumericsError
    with np.errstate(over="ignore", invalid="ignore"):
        term = seg.omega_s * np.exp(1j * seg.laser_phase) * (coupling @ a)
        return seg.delta * number + term + term.conj().T


def microwave_hamiltonian(dims: SystemDims, omega_d: float) -> OperatorMatrix:
    """Uniform carrier drive Omega_d sum_i (sigma_i^- + h.c.) = Omega_d sum_i
    sigma_i^x, which couples adjacent symmetric collective states with
    matrix elements sqrt(2) Omega_d (two ions) and sqrt(3), 2 Omega_d (three
    ions).
    """
    return OperatorMatrix(dims, _microwave(dims, omega_d), True)


def _microwave(dims: SystemDims, omega_d: float) -> np.ndarray:
    """The matrix of microwave_hamiltonian, unchecked."""
    h = np.zeros((dims.dim, dims.dim), dtype=complex)
    for i in range(dims.n_ions):
        term = omega_d * build_spin_op(dims, i, "lower").matrix
        h += term + term.conj().T
    return h


def carrier_pi_time(omega_d: float, n_ions: int) -> float:
    """Carrier pulse length pi / (2 sqrt(N) Omega_d) that maps the all-up
    state onto the symmetric single-flip state through their sqrt(N) Omega_d
    coupling (the triplet for two ions, W for three).  omega_d = 0, or one
    that overflows the product, gives inf or 0 without a warning: callers
    reject a pi time that is not positive and finite."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.pi / (2 * np.sqrt(float(n_ions)) * omega_d)


def stark_hamiltonian(dims: SystemDims, shifts: Sequence[float]) -> OperatorMatrix:
    """Static per-ion qubit-frequency shifts, sum_i (shift_i / 2) sigma_i^z."""
    return OperatorMatrix(dims, _stark(dims, shifts), True)


def _stark(dims: SystemDims, shifts: Sequence[float]) -> np.ndarray:
    """The matrix of stark_hamiltonian, unchecked."""
    if len(shifts) != dims.n_ions:
        raise ValueError(f"expected {dims.n_ions} shifts, got {len(shifts)}")
    h = np.zeros((dims.dim, dims.dim), dtype=complex)
    for i, s in enumerate(shifts):
        if s != 0.0:
            h += 0.5 * s * build_spin_op(dims, i, "z").matrix
    return h


def segment_hamiltonian(
    dims: SystemDims,
    geom: IonGeometry,
    seg: PulseSegment,
    stark_shifts: Sequence[float] | None = None,
) -> OperatorMatrix:
    """Full constant Hamiltonian of one segment (sideband + carrier +
    shifts), its Hermiticity and finiteness checked once, on the sum."""
    h = _sideband(dims, geom, seg)
    if seg.omega_d != 0.0:
        h = h + _microwave(dims, seg.omega_d)
    if stark_shifts is not None and any(s != 0.0 for s in stark_shifts):
        h = h + _stark(dims, stark_shifts)
    return OperatorMatrix(dims, h, True)


def lindblad_operators(dims: SystemDims, noise: NoiseModel) -> list[OperatorMatrix]:
    """Collapse operators for spontaneous decay and motional heating.

    Per ion: sqrt(gamma_du)|d><u|, sqrt(gamma_ud)|u><d|, sqrt(gamma_ou)
    |o><u|, sqrt(gamma_od)|o><d|.  For the mode: sqrt(gamma_heat) a^dag and
    sqrt(gamma_heat) a, i.e. cooling at the heating rate.
    """
    if noise.needs_leak_level and not dims.leak_level:
        raise NumericsError("leak rates require dims with leak_level=True")
    ops: list[OperatorMatrix] = []
    for i in range(dims.n_ions):
        lower = build_spin_op(dims, i, "lower").matrix
        if noise.gamma_du > 0:
            ops.append(OperatorMatrix(dims, np.sqrt(noise.gamma_du) * lower))
        if noise.gamma_ud > 0:
            ops.append(OperatorMatrix(dims, np.sqrt(noise.gamma_ud) * lower.conj().T))
        if noise.gamma_ou > 0:
            ops.append(OperatorMatrix(dims, np.sqrt(noise.gamma_ou) * build_spin_op(dims, i, "leak_from_up").matrix))
        if noise.gamma_od > 0:
            ops.append(OperatorMatrix(dims, np.sqrt(noise.gamma_od) * build_spin_op(dims, i, "leak_from_down").matrix))
    if noise.gamma_heat > 0:
        create = build_mode_op(dims, "create").matrix
        annihilate = build_mode_op(dims, "annihilate").matrix
        ops.append(OperatorMatrix(dims, np.sqrt(noise.gamma_heat) * create))
        ops.append(OperatorMatrix(dims, np.sqrt(noise.gamma_heat) * annihilate))
    return ops


def decay_rate_all_up(n_ions: int, noise: NoiseModel) -> float:
    """Total decay rate out of the all-spins-up state."""
    return n_ions * (noise.gamma_du + noise.gamma_ou)


def decay_rate_one_down(n_ions: int, noise: NoiseModel) -> float:
    """Total decay rate out of a state with one ion down (|T> or |W>)."""
    return (n_ions - 1) * (noise.gamma_du + noise.gamma_ou) + noise.gamma_ud + noise.gamma_od


def mean_decay_rate(n_ions: int, noise: NoiseModel) -> float:
    """Mean of the decay rates of the two states spanning the protected subspace."""
    return 0.5 * (decay_rate_all_up(n_ions, noise) + decay_rate_one_down(n_ions, noise))
