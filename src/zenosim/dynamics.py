"""Time evolution under a pulse schedule, with and without dissipation.

Unitary segments are propagated exactly through the eigendecomposition of
the constant segment Hamiltonian.  Dissipative evolution solves the
Lindblad master equation

    drho/dt = -i[H, rho] + sum_k L_k rho L_k^dag - {L_k^dag L_k, rho}/2

exactly as well: the vectorized generator of each constant segment is a
sparse matrix, and its exponential is applied to vec(rho) between sample
times with scipy's expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)), which picks its own Taylor degree and scaling for working
precision.  There is no step size or tolerance to choose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import NumericsError, TruncationError
from .hilbert import (
    DensityOperator,
    PureState,
    SystemDims,
    leak_mask,
    partial_trace_motion,
    up_count_projectors,
)
from .model import IonGeometry, NoiseModel, PulseSchedule, PulseSegment, lindblad_operators, segment_hamiltonian

TOP_FOCK_LIMIT = 1e-8
POSITIVITY_FLOOR = 1e-7


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple
    schedule: PulseSchedule

    @property
    def dims(self) -> SystemDims:
        return self.states[0].dims

    @property
    def final(self):
        return self.states[-1]


@dataclass(frozen=True)
class PopulationRecord:
    """Per-time populations sorted by number of ions in the up state.

    p_up_counts[t, k] is the probability of exactly k ions up (leak-level
    population excluded, reported separately), target_fidelity tracks the
    first requested target, and aux_populations holds every labelled series.
    """

    times: np.ndarray
    p_up_counts: np.ndarray
    target_fidelity: np.ndarray
    aux_populations: dict[str, np.ndarray]
    leak_population: np.ndarray


def _sample_times(schedule: PulseSchedule, sample_dt: float | None) -> np.ndarray:
    total = schedule.total_duration
    if sample_dt is None:
        sample_dt = total / 400.0 if total > 0 else 1.0
    if sample_dt <= 0:
        raise ValueError("sample_dt must be > 0")
    points = {0.0, *schedule.boundaries()}
    if total > 0:
        n = int(np.floor(total / sample_dt + 1e-9))
        points.update(k * sample_dt for k in range(1, n + 1))
    times = np.array(sorted(points))
    return times[times <= total + 1e-15]


def _top_fock_population(dims: SystemDims, state) -> float:
    idx = np.arange(dims.n_fock - 1, dims.dim, dims.n_fock)
    if isinstance(state, np.ndarray) and state.ndim == 1:
        return float(np.sum(np.abs(state[idx]) ** 2))
    mat = state if isinstance(state, np.ndarray) else state.matrix
    return float(np.sum(np.real(np.diag(mat)[idx])))


def _check_truncation(dims: SystemDims, state, t: float):
    pop = _top_fock_population(dims, state)
    if pop >= TOP_FOCK_LIMIT:
        raise TruncationError(
            f"top Fock level population {pop:.2e} at t = {t * 1e6:.2f} us exceeds {TOP_FOCK_LIMIT:.0e}; "
            "increase n_fock"
        )


def evolve_pure(
    schedule: PulseSchedule,
    dims: SystemDims,
    geom: IonGeometry,
    initial: PureState,
    sample_dt: float | None = None,
    stark_shifts: Sequence[float] | None = None,
) -> Trajectory:
    """Propagate a pure state exactly through each constant segment.

    States are sampled every sample_dt (default total/400) and at segment
    boundaries.  Raises TruncationError if the top Fock level is ever
    populated beyond 1e-8 and NumericsError if the norm drifts beyond 1e-9.
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    times = _sample_times(schedule, sample_dt)
    psi = initial.amplitudes.copy()
    states = []
    t_seg_start = 0.0
    seg_iter = iter(schedule.segments)
    seg = next(seg_iter)
    evals, evecs = np.linalg.eigh(segment_hamiltonian(dims, geom, seg, stark_shifts).matrix)
    psi_seg = evecs.conj().T @ psi  # coordinates of the segment-start state
    for t in times:
        # advance to the segment containing t
        while t > t_seg_start + seg.duration + 1e-15:
            psi = evecs @ (np.exp(-1j * evals * seg.duration) * psi_seg)
            t_seg_start += seg.duration
            seg = next(seg_iter)
            evals, evecs = np.linalg.eigh(segment_hamiltonian(dims, geom, seg, stark_shifts).matrix)
            psi_seg = evecs.conj().T @ psi
        phases = np.exp(-1j * evals * (t - t_seg_start))
        psi_t = evecs @ (phases * psi_seg)
        norm = np.linalg.norm(psi_t)
        if abs(norm - 1.0) > 1e-9:
            raise NumericsError(f"norm drift {abs(norm - 1.0):.2e} at t = {t:.3e} s")
        _check_truncation(dims, psi_t, t)
        states.append(PureState(dims, psi_t))
    return Trajectory(times, tuple(states), schedule)


def _check_density(dims: SystemDims, rho: np.ndarray, t: float):
    """Trace, Hermiticity, truncation and positivity contracts of one sample.

    Positivity is decided by a Cholesky factorization of rho + 1e-7 I, which
    succeeds exactly when the smallest eigenvalue is above -1e-7; the
    eigenvalue itself is only computed to report a failure.
    """
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise NumericsError(f"trace drift {abs(tr - 1.0):.2e} at t = {t:.3e} s")
    asym = np.linalg.norm(rho - rho.conj().T)
    if asym > 1e-10:
        raise NumericsError(f"Hermiticity defect {asym:.2e} at t = {t:.3e} s")
    _check_truncation(dims, rho, t)
    try:
        np.linalg.cholesky(rho + POSITIVITY_FLOOR * np.eye(dims.dim))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -POSITIVITY_FLOOR:
            raise NumericsError(f"negative eigenvalue {min_eig:.2e} at t = {t:.3e} s") from None


def evolve_density(
    schedule: PulseSchedule,
    dims: SystemDims,
    geom: IonGeometry,
    noise: NoiseModel,
    initial: DensityOperator,
    sample_dt: float | None = None,
) -> Trajectory:
    """Propagate a density operator exactly through each constant segment.

    Each segment's generator acts on the row-major vec(rho),

        -i (H x I - I x H^T) + sum_k L_k x L_k^* - (M x I + I x M^T) / 2,

    with M = sum_k L_k^dag L_k; the dissipative part is shared by all
    segments.  The state is carried from one sample time to the next by
    expm_multiply, which is accurate to working precision, splitting at
    segment boundaries.  States are sampled every sample_dt (default
    total/400) and at segment boundaries.

    Every sample is checked: trace to 1e-8, Hermiticity to 1e-10, top Fock
    population below 1e-8 and eigenvalues above -1e-7.  Violations raise
    NumericsError (TruncationError for the Fock limit) rather than being
    projected away.
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    shifts = noise.shifts_or_zero(dims.n_ions)
    eye = sp.identity(dims.dim, dtype=complex, format="csr")
    dissipator = sp.csr_matrix((dims.dim**2, dims.dim**2), dtype=complex)
    for op in lindblad_operators(dims, noise):
        l = sp.csr_matrix(op.matrix)
        m = l.conj().T @ l
        dissipator += sp.kron(l, l.conj()) - 0.5 * (sp.kron(m, eye) + sp.kron(eye, m.T))

    def generator(seg: PulseSegment) -> sp.csr_matrix:
        h = sp.csr_matrix(segment_hamiltonian(dims, geom, seg, shifts).matrix)
        return (-1j * (sp.kron(h, eye) - sp.kron(eye, h.T)) + dissipator).tocsr()

    times = _sample_times(schedule, sample_dt)
    boundaries = schedule.boundaries()
    seg_idx = 0
    gen = generator(schedule.segments[0])
    vec = initial.matrix.reshape(-1).copy()
    t_prev = 0.0
    states = []
    for t in times:
        while t > boundaries[seg_idx + 1] + 1e-15:
            if boundaries[seg_idx + 1] > t_prev:
                vec = expm_multiply((boundaries[seg_idx + 1] - t_prev) * gen, vec)
                t_prev = boundaries[seg_idx + 1]
            seg_idx += 1
            gen = generator(schedule.segments[seg_idx])
        if t > t_prev:
            vec = expm_multiply((t - t_prev) * gen, vec)
            t_prev = t
        rho = vec.reshape(dims.dim, dims.dim)
        _check_density(dims, rho, t)
        states.append(DensityOperator(dims, rho))
    return Trajectory(times, tuple(states), schedule)


def state_fidelity(dims: SystemDims, state, target: PureState) -> float:
    """Overlap with a target state.

    A target on the full space keeps its motional factor; a spin-only target
    (n_fock = 1) is compared against the motion-traced state.
    """
    if target.dims.n_fock == dims.n_fock and target.dims == dims:
        if isinstance(state, PureState):
            return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
        return float(np.real(np.vdot(target.amplitudes, state.matrix @ target.amplitudes)))
    if target.dims.n_fock == 1 and target.dims.n_ions == dims.n_ions and target.dims.leak_level == dims.leak_level:
        rho_spin = partial_trace_motion(dims, state)
        return float(np.real(np.vdot(target.amplitudes, rho_spin @ target.amplitudes)))
    raise ValueError("target dims are compatible with neither the full nor the spin-only space")


def extract_populations(
    traj: Trajectory,
    targets: Sequence[PureState],
    labels: Sequence[str] | None = None,
) -> PopulationRecord:
    """Population record of a trajectory.

    P_k sums the projectors onto all spin configurations with exactly k ions
    up, traced over motion.  The first target supplies the headline fidelity
    series; every target also appears in aux_populations under its label.
    """
    dims = traj.dims
    masks = up_count_projectors(dims)
    lmask = leak_mask(dims)
    if labels is None:
        labels = [f"target_{i}" for i in range(len(targets))]
    if len(labels) != len(targets):
        raise ValueError("labels must match targets")

    n_t = len(traj.times)
    p_up = np.zeros((n_t, dims.n_ions + 1))
    leak = np.zeros(n_t)
    fids = {lab: np.zeros(n_t) for lab in labels}
    for it, state in enumerate(traj.states):
        if isinstance(state, PureState):
            diag = np.abs(state.amplitudes) ** 2
        else:
            diag = np.real(np.diag(state.matrix))
        for k, mask in enumerate(masks):
            p_up[it, k] = float(diag @ mask)
        leak[it] = float(diag @ lmask)
        total = p_up[it].sum() + leak[it]
        if abs(total - 1.0) > 1e-8 and isinstance(state, PureState):
            raise NumericsError(f"populations sum to {total}, not 1")
        for lab, target in zip(labels, targets):
            fids[lab][it] = state_fidelity(dims, state, target)
    target_series = fids[labels[0]] if targets else np.zeros(n_t)
    return PopulationRecord(traj.times, p_up, target_series, fids, leak)
