"""Time evolution under a pulse schedule, with and without dissipation.

Unitary segments are propagated exactly through the eigendecomposition of
the constant segment Hamiltonian.  Dissipative evolution solves the
Lindblad master equation

    drho/dt = -i[H, rho] + sum_k L_k rho L_k^dag - {L_k^dag L_k, rho}/2

exactly as well: the vectorized generator of each constant segment is a
sparse matrix, and its exponential is applied to vec(rho) between sample
times by a truncated Taylor series with scaling and early stop (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 488 (2011), alg. 3.2), which picks its
degree and number of substeps from the exact 1-norm for working precision.
Each segment's shifted generator and its norm are set up once and reused by
every sample step.  There is no step size or tolerance to choose.

The generator never couples blocks of rho between different leak sets (the
sets of ions in the leak level, hilbert.leak_sectors) to the blocks within
one set: drives, Stark shifts and heating keep each ion's leak status, and a
leak jump maps the block (A, A) to (A+k, A+k).  A state that starts block
diagonal over the leak sets therefore stays so exactly, and only those
blocks are propagated and checked (Buca & Prosen, New J. Phys. 14, 073007
(2012)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import NumericsError, TruncationError
from .hilbert import (
    DensityOperator,
    PureState,
    SystemDims,
    leak_mask,
    leak_sectors,
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


def _check_truncation(pop: float, t: float):
    """Raise TruncationError if the top Fock level holds pop >= 1e-8."""
    if pop >= TOP_FOCK_LIMIT:
        raise TruncationError(
            f"top Fock level population {pop:.2e} at t = {t * 1e6:.2f} us exceeds {TOP_FOCK_LIMIT:.0e}; "
            "increase n_fock"
        )


# theta_m: the largest dt ||A||_1 for which m Taylor terms reach double
# precision; m <= 30 from Higham & Al-Mohy, Acta Numerica 19 (2010), table
# A.3, the rest from Al-Mohy & Higham (2011), table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


class _TaylorExpm:
    """v -> exp(dt L) v for one sparse generator L and any step dt.

    Al-Mohy & Higham (2011), alg. 3.2.  The shift A = L - mu I, with mu
    given (tr L / n is the usual choice), and the exact 1-norm of A are
    computed once; each step picks (m, s) minimizing
    m * ceil(dt ||A||_1 / theta_m), applies s substeps of the degree-m
    Taylor series of exp(dt A / s), stopped early once two successive terms
    fall below the unit roundoff relative to the partial sum, and restores
    the shift with the factor exp(dt mu / s).
    """

    def __init__(self, gen: sp.csr_matrix, mu: complex):
        n = gen.shape[0]
        self.mu = mu
        self.shifted = gen - self.mu * sp.identity(n, dtype=gen.dtype, format="csr")
        col_sums = np.bincount(self.shifted.indices, weights=np.abs(self.shifted.data), minlength=n)
        self.norm_1 = float(col_sums.max())

    def __call__(self, dt: float, v: np.ndarray) -> np.ndarray:
        scaled_norm = dt * self.norm_1
        if scaled_norm == 0:
            m, s = 0, 1
        else:
            m, s = min(
                ((deg, math.ceil(scaled_norm / theta)) for deg, theta in _THETA.items()),
                key=lambda ms: ms[0] * ms[1],
            )
        eta = np.exp(dt * self.mu / s)
        f = v.copy()
        for _ in range(s):
            term = f
            c1 = np.abs(term).max()
            for j in range(m):
                term = self.shifted @ term
                term *= dt / (s * (j + 1))
                c2 = np.abs(term).max()
                f += term
                if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(f).max():
                    break
                c1 = c2
            f *= eta
        return f


@functools.lru_cache(maxsize=32)
def _segment_spectrum(
    dims: SystemDims, geom: IonGeometry, seg: PulseSegment, stark_shifts: tuple[float, ...] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (evals, evecs) of eigh(segment_hamiltonian(...)).

    The memo of evolve_pure.  seg comes with its duration set to 0, which
    the Hamiltonian does not depend on, so schedules that differ only in
    their durations (a t1 or t2 edit) share their entries.  It holds at most
    32 spectra: a sweep or fine_tune over the durations of one plan needs
    its two segments, and an entry of the pure-state spaces takes 25 kB
    (dim 40, two ions) to 66 kB (dim 64, three ions).
    """
    evals, evecs = np.linalg.eigh(segment_hamiltonian(dims, geom, seg, stark_shifts).matrix)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def evolve_pure(
    schedule: PulseSchedule,
    dims: SystemDims,
    geom: IonGeometry,
    initial: PureState,
    sample_dt: float | None = None,
    stark_shifts: Sequence[float] | None = None,
) -> Trajectory:
    """Propagate a pure state exactly through each constant segment.

    Each segment's spectrum comes from a bounded memo (_segment_spectrum)
    keyed by (dims, geom, the segment without its duration, the Stark
    shifts), so a segment is diagonalized once for all schedules that
    differ only in durations.  States are sampled every sample_dt (default
    total/400) and at segment boundaries.  Raises TruncationError if the
    top Fock level is ever populated beyond 1e-8 and NumericsError if the
    norm drifts beyond 1e-9, checked at every sample.
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    shifts = None if stark_shifts is None else tuple(stark_shifts)

    def spectrum(seg: PulseSegment) -> tuple[np.ndarray, np.ndarray]:
        return _segment_spectrum(dims, geom, replace(seg, duration=0.0), shifts)

    times = _sample_times(schedule, sample_dt)
    psi = initial.amplitudes.copy()
    states = []
    t_seg_start = 0.0
    seg_iter = iter(schedule.segments)
    seg = next(seg_iter)
    evals, evecs = spectrum(seg)
    psi_seg = evecs.conj().T @ psi  # coordinates of the segment-start state
    for t in times:
        # advance to the segment containing t
        while t > t_seg_start + seg.duration + 1e-15:
            psi = evecs @ (np.exp(-1j * evals * seg.duration) * psi_seg)
            t_seg_start += seg.duration
            seg = next(seg_iter)
            evals, evecs = spectrum(seg)
            psi_seg = evecs.conj().T @ psi
        phases = np.exp(-1j * evals * (t - t_seg_start))
        psi_t = evecs @ (phases * psi_seg)
        norm = np.linalg.norm(psi_t)
        if abs(norm - 1.0) > 1e-9:
            raise NumericsError(f"norm drift {abs(norm - 1.0):.2e} at t = {t:.3e} s")
        _check_truncation(float(np.sum(np.abs(psi_t[dims.n_fock - 1 :: dims.n_fock]) ** 2)), t)
        states.append(PureState(dims, psi_t))
    return Trajectory(times, tuple(states), schedule)


def _check_density(dims: SystemDims, rho: np.ndarray, groups: list[np.ndarray], t: float):
    """Trace, Hermiticity, truncation and positivity contracts of one sample.

    rho vanishes outside the diagonal blocks of the index groups, so the
    trace, the Frobenius Hermiticity defect and the top Fock population are
    summed over blocks, and rho is positive exactly when each block is: a
    Cholesky factorization of block + 1e-7 I succeeds exactly when its
    smallest eigenvalue is above -1e-7, which is only computed to report a
    failure.
    """
    blocks = [rho[np.ix_(idx, idx)] for idx in groups]
    tr = sum(np.trace(b).real for b in blocks)
    if abs(tr - 1.0) > 1e-8:
        raise NumericsError(f"trace drift {abs(tr - 1.0):.2e} at t = {t:.3e} s")
    asym = math.hypot(*(np.linalg.norm(b - b.conj().T) for b in blocks))
    if asym > 1e-10:
        raise NumericsError(f"Hermiticity defect {asym:.2e} at t = {t:.3e} s")
    top = dims.n_fock - 1
    _check_truncation(sum(np.diag(b)[idx % dims.n_fock == top].real.sum() for b, idx in zip(blocks, groups)), t)
    for b in blocks:
        try:
            np.linalg.cholesky(b + POSITIVITY_FLOOR * np.eye(len(b)))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(b)[0])
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
    segments.  The state is carried from one sample time to the next by the
    segment's Taylor kernel (_TaylorExpm), accurate to working precision,
    splitting at segment boundaries; the kernel's shift and norm are set up
    once per segment.  States are sampled every sample_dt (default
    total/400) and at segment boundaries.

    Only the diagonal blocks of rho over the index groups are propagated,
    on the generator restricted to their pairs (i, j): the leak sets of
    hilbert.leak_sectors if the initial state has no entry between
    different sets (exact, as nothing feeds those entries), else one
    group, the whole space.  The kernel's shift is tr L / dim^2 of the
    full generator either way.

    Every sample is checked, block by block: trace to 1e-8, Hermiticity to
    1e-10, top Fock population below 1e-8 and eigenvalues above -1e-7.
    Violations raise NumericsError (TruncationError for the Fock limit)
    rather than being projected away.
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    groups = leak_sectors(dims)
    label = np.empty(dims.dim, dtype=int)
    for k, idx in enumerate(groups):
        label[idx] = k
    same = label[:, None] == label
    if initial.matrix[~same].any():
        groups, same = [np.arange(dims.dim)], np.full_like(same, True)
    # ascending, so each kept row of the generator keeps its order of terms
    kept = np.flatnonzero(same)

    shifts = noise.shifts_or_zero(dims.n_ions)
    eye = sp.identity(dims.dim, dtype=complex, format="csr")
    dissipator = sp.csr_matrix((dims.dim**2, dims.dim**2), dtype=complex)
    for op in lindblad_operators(dims, noise):
        l = sp.csr_matrix(op.matrix)
        m = l.conj().T @ l
        dissipator += sp.kron(l, l.conj()) - 0.5 * (sp.kron(m, eye) + sp.kron(eye, m.T))

    def propagator(seg: PulseSegment) -> _TaylorExpm:
        h = sp.csr_matrix(segment_hamiltonian(dims, geom, seg, shifts).matrix)
        gen = (-1j * (sp.kron(h, eye) - sp.kron(eye, h.T)) + dissipator).tocsr()
        return _TaylorExpm(gen[kept][:, kept], gen.diagonal().sum() / dims.dim**2)

    times = _sample_times(schedule, sample_dt)
    boundaries = schedule.boundaries()
    seg_idx = 0
    expm = propagator(schedule.segments[0])
    vec = initial.matrix.reshape(-1)[kept]
    t_prev = 0.0
    states = []
    for t in times:
        while t > boundaries[seg_idx + 1] + 1e-15:
            if boundaries[seg_idx + 1] > t_prev:
                vec = expm(boundaries[seg_idx + 1] - t_prev, vec)
                t_prev = boundaries[seg_idx + 1]
            seg_idx += 1
            expm = propagator(schedule.segments[seg_idx])
        if t > t_prev:
            vec = expm(t - t_prev, vec)
            t_prev = t
        rho = np.zeros(dims.dim**2, dtype=complex)
        rho[kept] = vec
        rho = rho.reshape(dims.dim, dims.dim)
        _check_density(dims, rho, groups, t)
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
