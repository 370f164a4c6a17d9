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
    """The sampled states of one run, stacked along a leading time axis.

    samples[k] is the state at times[k]: a (T, dim) array of amplitudes for
    a pure-state run, a (T, dim, dim) array of density matrices for a
    density run.  The propagator fills one preallocated stack in place,
    checks every sample once after its loop and makes the stack read-only.
    states and final build PureState or DensityOperator objects on demand,
    each validated again; the package itself reads only the stack.
    """

    times: np.ndarray
    samples: np.ndarray
    dims: SystemDims
    schedule: PulseSchedule

    def _state(self, sample: np.ndarray):
        if self.samples.ndim == 2:
            return PureState(self.dims, sample)
        return DensityOperator(self.dims, sample)

    @property
    def states(self) -> tuple:
        return tuple(self._state(s) for s in self.samples)

    @property
    def final(self):
        return self._state(self.samples[-1])

    def fidelities(self, target: PureState) -> np.ndarray:
        """<target|rho|target> at every sample time; see state_fidelity."""
        return _fidelities(self.dims, self.samples, target)


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
    """Raise TruncationError unless the top Fock level holds pop < 1e-8 (NaN fails)."""
    if not pop < TOP_FOCK_LIMIT:
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
    total/400) and at segment boundaries, into one (T, dim) stack of
    amplitudes.  After the loop every sample is checked at once: the first
    sample whose norm drifts beyond 1e-9 raises NumericsError, or whose top
    Fock level holds more than 1e-8 raises TruncationError, naming its time.
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    shifts = None if stark_shifts is None else tuple(stark_shifts)

    def spectrum(seg: PulseSegment) -> tuple[np.ndarray, np.ndarray]:
        return _segment_spectrum(dims, geom, replace(seg, duration=0.0), shifts)

    times = _sample_times(schedule, sample_dt)
    amps = np.empty((len(times), dims.dim), dtype=complex)
    psi = initial.amplitudes.copy()
    t_seg_start = 0.0
    seg_iter = iter(schedule.segments)
    seg = next(seg_iter)
    evals, evecs = spectrum(seg)
    psi_seg = evecs.conj().T @ psi  # coordinates of the segment-start state
    for k, t in enumerate(times):
        # advance to the segment containing t
        while t > t_seg_start + seg.duration + 1e-15:
            psi = evecs @ (np.exp(-1j * evals * seg.duration) * psi_seg)
            t_seg_start += seg.duration
            seg = next(seg_iter)
            evals, evecs = spectrum(seg)
            psi_seg = evecs.conj().T @ psi
        amps[k] = evecs @ (np.exp(-1j * evals * (t - t_seg_start)) * psi_seg)

    drift = np.abs(np.linalg.norm(amps, axis=1) - 1.0)
    top = np.sum(np.abs(amps[:, dims.n_fock - 1 :: dims.n_fock]) ** 2, axis=1)
    failed = np.flatnonzero(~(drift <= 1e-9) | ~(top < TOP_FOCK_LIMIT))
    if failed.size:
        k = failed[0]
        if not drift[k] <= 1e-9:
            raise NumericsError(f"norm drift {drift[k]:.2e} at t = {times[k]:.3e} s")
        _check_truncation(top[k], times[k])
    amps.setflags(write=False)
    return Trajectory(times, amps, dims, schedule)


def _factorizes(mats: np.ndarray) -> bool:
    """Whether np.linalg.cholesky succeeds on one matrix or on every matrix of a stack."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return True


# samples per step of the density checks: each temporary (a gathered block,
# a Hermiticity defect, a Cholesky input) covers 8 samples, at most 13 MB
# for one block of dim 324 and 0.5 MB for the fig3 preset's widest block
_CHECK_CHUNK = 8


def _check_density(dims: SystemDims, times: np.ndarray, rhos: np.ndarray, groups: list[np.ndarray]):
    """Trace, Hermiticity, truncation and positivity contracts of every sample.

    rhos is the (T, dim, dim) stack, zero outside the diagonal blocks of
    the index groups, so the trace, the Frobenius Hermiticity defect and
    the top Fock population are summed over blocks, and a sample is
    positive exactly when each block is: a Cholesky factorization of
    block + 1e-7 I succeeds exactly when its smallest eigenvalue is above
    -1e-7, which is only computed to report a failure.  The stack is
    checked _CHECK_CHUNK samples at a time, each group's blocks gathered
    from them (a view of them if the group is the whole space), and the
    first failing sample raises, with the first contract it fails in the
    order above.  Each test is written so that NaN fails it; positivity is
    only tested on samples that pass the others, whose entries are then
    finite.
    """
    tops = [np.flatnonzero(idx % dims.n_fock == dims.n_fock - 1) for idx in groups]
    for start in range(0, len(times), _CHECK_CHUNK):
        chunk = rhos[start : start + _CHECK_CHUNK]
        blocks = [chunk if len(idx) == dims.dim else chunk[:, idx[:, None], idx] for idx in groups]
        drift = np.abs(sum(np.trace(b, axis1=1, axis2=2).real for b in blocks) - 1.0)
        asym = np.sqrt(sum(np.linalg.norm(b - b.conj().swapaxes(1, 2), axis=(1, 2)) ** 2 for b in blocks))
        top = sum(b.diagonal(axis1=1, axis2=2)[:, pos].real.sum(axis=1) for b, pos in zip(blocks, tops))
        earlier = ~(drift <= 1e-8) | ~(asym <= 1e-10) | ~(top < TOP_FOCK_LIMIT)
        low = np.zeros(len(chunk))  # per sample, the failing eigenvalue of its first non-positive block
        for b in blocks:
            shifted = b + POSITIVITY_FLOOR * np.eye(b.shape[-1])
            if _factorizes(shifted):
                continue
            for j in np.flatnonzero((low == 0) & ~earlier):
                if not _factorizes(shifted[j]):
                    min_eig = float(np.linalg.eigvalsh(b[j])[0])
                    if min_eig < -POSITIVITY_FLOOR:
                        low[j] = min_eig
        failed = np.flatnonzero(earlier | (low < 0))
        if failed.size:
            j = failed[0]
            t = times[start + j]
            if not drift[j] <= 1e-8:
                raise NumericsError(f"trace drift {drift[j]:.2e} at t = {t:.3e} s")
            if not asym[j] <= 1e-10:
                raise NumericsError(f"Hermiticity defect {asym[j]:.2e} at t = {t:.3e} s")
            _check_truncation(top[j], t)
            raise NumericsError(f"negative eigenvalue {low[j]:.2e} at t = {t:.3e} s")


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
    total/400) and at segment boundaries, into one preallocated
    (T, dim, dim) stack.

    Only the diagonal blocks of rho over the index groups are propagated,
    on the generator restricted to their pairs (i, j): the leak sets of
    hilbert.leak_sectors if the initial state has no entry between
    different sets (exact, as nothing feeds those entries), else one
    group, the whole space.  The kernel's shift is tr L / dim^2 of the
    full generator either way.

    After the loop every sample is checked, block by block (_check_density):
    trace to 1e-8, Hermiticity to 1e-10, top Fock population below 1e-8 and
    eigenvalues above -1e-7.  The first violating sample raises
    NumericsError (TruncationError for the Fock limit) naming its time;
    nothing is projected away.
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
    rhos = np.zeros((len(times), dims.dim, dims.dim), dtype=complex)
    flat = rhos.reshape(len(times), -1)
    boundaries = schedule.boundaries()
    seg_idx = 0
    expm = propagator(schedule.segments[0])
    vec = initial.matrix.reshape(-1)[kept]
    t_prev = 0.0
    for k, t in enumerate(times):
        while t > boundaries[seg_idx + 1] + 1e-15:
            if boundaries[seg_idx + 1] > t_prev:
                vec = expm(boundaries[seg_idx + 1] - t_prev, vec)
                t_prev = boundaries[seg_idx + 1]
            seg_idx += 1
            expm = propagator(schedule.segments[seg_idx])
        if t > t_prev:
            vec = expm(t - t_prev, vec)
            t_prev = t
        flat[k, kept] = vec
    _check_density(dims, times, rhos, groups)
    rhos.setflags(write=False)
    return Trajectory(times, rhos, dims, schedule)


def _fidelities(dims: SystemDims, samples: np.ndarray, target: PureState) -> np.ndarray:
    """<target|rho|target> of each sample of a (T, dim) or (T, dim, dim) stack.

    A target on the full space keeps its motional factor; a spin-only
    target (n_fock = 1) is compared against the motion-traced samples.
    np.vecdot conjugates its first argument and takes one BLAS dot per
    sample, and np.hypot rounds as abs() of one complex scalar does, so
    each value is the one a single-sample evaluation gives.
    """
    v = target.amplitudes
    if target.dims == dims:
        if samples.ndim == 2:
            overlap = np.vecdot(v, samples)
            return np.hypot(overlap.real, overlap.imag) ** 2
        return np.vecdot(v, samples @ v).real
    if target.dims == SystemDims(dims.n_ions, 1, dims.leak_level):
        return np.vecdot(v, partial_trace_motion(dims, samples) @ v).real
    raise ValueError("target dims are compatible with neither the full nor the spin-only space")


def state_fidelity(dims: SystemDims, state, target: PureState) -> float:
    """Overlap with a target state.

    A target on the full space keeps its motional factor; a spin-only target
    (n_fock = 1) is compared against the motion-traced state.
    """
    sample = state.amplitudes if isinstance(state, PureState) else state.matrix
    return float(_fidelities(dims, sample[None], target)[0])


def extract_populations(
    traj: Trajectory,
    targets: Sequence[PureState],
    labels: Sequence[str] | None = None,
) -> PopulationRecord:
    """Population record of a trajectory, read from its stack of samples.

    P_k sums the projectors onto all spin configurations with exactly k ions
    up, traced over motion: one product of the samples' diagonals with the
    masks gives every P_k and the leak population at once.  The first
    target supplies the headline fidelity series; every target also appears
    in aux_populations under its label, each series one stacked fidelity
    evaluation.  A pure-state run whose populations do not sum to 1 within
    1e-8 raises NumericsError.
    """
    dims = traj.dims
    if labels is None:
        labels = [f"target_{i}" for i in range(len(targets))]
    if len(labels) != len(targets):
        raise ValueError("labels must match targets")

    samples = traj.samples
    pure = samples.ndim == 2
    diag = np.abs(samples) ** 2 if pure else samples.diagonal(axis1=1, axis2=2).real
    masks = np.array([*up_count_projectors(dims), leak_mask(dims)])
    pops = np.vecdot(diag[:, None, :], masks)
    p_up, leak = pops[:, :-1], pops[:, -1]
    if pure:
        total = p_up.sum(axis=1) + leak
        bad = np.flatnonzero(~(np.abs(total - 1.0) <= 1e-8))
        if bad.size:
            raise NumericsError(f"populations sum to {total[bad[0]]}, not 1")
    fids = {lab: traj.fidelities(target) for lab, target in zip(labels, targets)}
    target_series = fids[labels[0]] if targets else np.zeros(len(traj.times))
    return PopulationRecord(traj.times, p_up, target_series, fids, leak)
