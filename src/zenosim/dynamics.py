"""Time evolution under a pulse schedule, with and without dissipation.

Unitary segments are propagated exactly through the eigendecomposition of
the constant segment Hamiltonian.  Dissipative evolution solves the
Lindblad master equation

    drho/dt = -i[H, rho] + sum_k L_k rho L_k^dag - {L_k^dag L_k, rho}/2

exactly as well: the vectorized generator of each constant segment is a
sparse matrix, and its exponential is applied to vec(rho) by a truncated
Taylor series with scaling and early stop (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011), alg. 3.2), which picks its degree and number of
substeps from the exact 1-norm for working precision.  One series serves
all the samples of a check chunk within a segment, each read from the same
terms with real weights (their sec. 5).  Each segment's shifted generator
and its norm are set up once and reused by every call.  There is no step
size or tolerance to choose.

The generator never couples blocks of rho between different leak sets (the
sets of ions in the leak level, hilbert.leak_sectors) to the blocks within
one set: drives, Stark shifts and heating keep each ion's leak status, and a
leak jump maps the block (A, A) to (A+k, A+k).  A start block diagonal over
the leak sets stays so exactly; if every part of the run commutes with U,
the cyclic shift of the ions dressed with a Fock-level phase
(hilbert.cycle_shift), it stays block diagonal over U's eigen-sectors too,
and, as U only permutes the leak sets of one orbit, over the pairs
(leak-set orbit, sector) (Buca & Prosen, New J. Phys. 14, 073007 (2012)).
Every density run keeps only the blocks of its index groups, in its basis
(_Fold): these pairs in U's eigenbasis, else the leak sets, or for a start
with coherence between them the whole space, in the identity.  Its samples
are checked as they are made, so a run that breaks its trace, its
Hermiticity, the Fock limit or positivity stops within a few samples.

A Lindbladian maps Hermitian matrices to Hermitian matrices (Breuer &
Petruccione, The Theory of Open Quantum Systems, sec. 3.2), so only the
upper triangle of each block is computed (2,184 of 4,224 rows at the fig3
preset) and the lower one is its exact conjugate.  A density run is a
stream: it hands those triangles on a check chunk at a time, with the
chunk's whole blocks rebuilt once for the checks and the readers
(_read_populations, _fidelities), and keeps no stack of its samples.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import NumericsError, TruncationError
from .hilbert import (
    LEAK,
    DensityOperator,
    PureState,
    SystemDims,
    cycle_sectors,
    cycle_shift,
    leak_mask,
    leak_sectors,
    partial_trace_motion,
    up_count_projectors,
)
from .model import IonGeometry, NoiseModel, PulseSchedule, PulseSegment, lindblad_operators, segment_hamiltonian

TOP_FOCK_LIMIT = 1e-8
POSITIVITY_FLOOR = 1e-7


@functools.cache
def _openblas_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count pair of each OpenBLAS mapped into this
    process, searched on first use: scipy_openblas_{get,set}_num_threads64_
    in numpy's wheel, the same without 64_ in scipy's, and
    openblas_{get,set}_num_threads elsewhere.  Empty without /proc/self/maps
    or such a pair (another BLAS or OS); a library loaded later is missed."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1]):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get, put = (getattr(lib, f"{prefix}{op}_num_threads{suffix}", None) for op in ("get", "set"))
            if get and put:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                controls.append((get, put))
                break
    return tuple(controls)


def _one_blas_thread(fn):
    """Run fn with each OpenBLAS of _openblas_controls on one thread, and
    give each its previous count back when fn returns or raises, so calls
    nest.  OpenBLAS hands a Cholesky 64 or more wide, eigh at dim 40 and
    wide stacked products to a second thread, which then busy-waits through
    the single-threaded Python that follows.  The counts are process-wide,
    and a generator's body runs in the frame that consumes it, so a
    streamed density run (_density_run) is pinned by its consumer."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        controls = _openblas_controls()
        before = [get() for get, _ in controls]
        for _, put in controls:
            put(1)
        try:
            return fn(*args, **kwargs)
        finally:
            for (_, put), count in zip(controls, before):
                put(count)

    return pinned


@dataclass(frozen=True)
class Trajectory:
    """The sampled amplitudes of one pure-state run (evolve_pure).

    samples[k], a read-only row of a (T, dim) array, holds the state at
    times[k]; states and final build PureState objects, each validated
    again.
    """

    times: np.ndarray
    samples: np.ndarray
    dims: SystemDims
    schedule: PulseSchedule

    @property
    def states(self) -> tuple[PureState, ...]:
        return tuple(PureState(self.dims, amps) for amps in self.samples)

    @property
    def final(self) -> PureState:
        return PureState(self.dims, self.samples[-1])


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


def _walk_samples(
    schedules: Sequence[PulseSchedule], sample_dts: Sequence[float | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, starts, cuts) of the samples of schedules with one number
    of segments, each sampled every sample_dts[b]: the cells of a
    _pure_walk, or a density run's one schedule.

    Cell b's samples are times[starts[b]:starts[b + 1]]: 0, its segment
    boundaries and the multiples k dt of its step dt (default total/400, 1
    for a zero total) for k = 1 to floor(total / dt + 1e-9), ascending,
    each value once, up to total + 1e-15; a step <= 0 raises ValueError.
    Its segment i reaches rows cuts[b, i]:cuts[b, i + 1]; a sample within
    1e-15 past a boundary is reached within the segment before it, and as
    every boundary is a sample time, the last sample of a segment is at
    its end.  Each cell's boundaries and step multiples are merged by rank
    into a row of one padded array and cut there.
    """
    totals = [s.total_duration for s in schedules]
    steps = [(total / 400.0 if total > 0 else 1.0) if dt is None else dt for total, dt in zip(totals, sample_dts)]
    if any(dt <= 0 for dt in steps):
        raise ValueError("sample_dt must be > 0")
    counts = np.array([math.floor(total / dt + 1e-9) if total > 0 else 0 for total, dt in zip(totals, steps)])
    durations = np.array([[seg.duration for seg in s.segments] for s in schedules])
    bounds = np.cumsum(np.concatenate((np.zeros((len(schedules), 1)), durations), axis=1), axis=1)
    k = np.arange(1, counts.max(initial=0) + 1)
    grid = np.where(k <= counts[:, None], k * np.array(steps)[:, None], np.inf)
    # the two ascending rows merged: each point's rank, a boundary before an equal grid point
    rows = np.arange(len(schedules))[:, None]
    points = np.empty((len(schedules), bounds.shape[1] + len(k)))
    points[rows, np.arange(bounds.shape[1]) + (grid[:, None, :] < bounds[:, :, None]).sum(axis=2)] = bounds
    points[rows, np.arange(len(k)) + (bounds[:, :, None] <= grid[:, None, :]).sum(axis=1)] = grid
    kept = points <= np.array(totals)[:, None] + 1e-15
    kept[:, 1:] &= points[:, 1:] != points[:, :-1]
    reached = (kept[:, None, :] & (points[:, None, :] <= bounds[:, 1:-1, None] + 1e-15)).sum(axis=2)
    counts = kept.sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)))
    cuts = starts[:-1, None] + np.column_stack((np.zeros(len(schedules), dtype=int), reached, counts))
    return points[kept], starts, cuts


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
# the most matvecs (sum of m * s over its kernel calls) one density run
# may plan: 230x the three_ion preset's 4,283, so only a rate or a
# duration far out of range reaches it, and it ends in NumericsError
# instead of running for hours
_MAX_MATVECS = 1_000_000


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) of each item of consecutive runs of counts[k] items:
    run owner[i] holds item i at offset[i] in it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


class _Fold:
    """Where each number of the samples a density run hands on sits.

    The run keeps only the blocks of R = w^dag rho w within its index
    groups, which index the columns of its basis (w, rep): a sparse unitary
    w, the identity or the eigenbasis of hilbert.cycle_sectors, and rep[c],
    the basis index whose labels column c carries.  group[c] is column c's
    group.  In the row-major vec of R the groups' whole entries sit at
    kept, block after block: the vector the kernel's generator acts on, in
    which at(c, d) is the position of the entry (c, d) of a block.  Within
    that vector half holds the positions of each block's entries (a, b)
    with a <= b, block after block and row-major, the order of a sample
    (n_half entries); lower the positions of its entries a > b, and
    strict[k] the index into half of lower[k]'s mirror (b, a), so a
    Hermitian R has R[lower] == R[half][strict].conj().  diagonals holds
    each group's (a, a) as positions in a sample, diag all of them and tops
    those on the top Fock level.
    """

    def __init__(self, dims: SystemDims, groups: Sequence[np.ndarray], basis: tuple | None = None):
        self.dims = dims
        self.groups = tuple(groups)
        self.w, self.rep = basis or (sp.identity(dims.dim, dtype=complex, format="csr"), np.arange(dims.dim))
        self.kept = np.concatenate([(idx[:, None] * dims.dim + idx).ravel() for idx in self.groups])
        half, lower, strict, self.diagonals = [], [], [], []
        start = n_half = 0
        for idx in self.groups:
            n = len(idx)
            a, b = np.triu_indices(n)
            off = a < b
            half.append(start + a * n + b)
            lower.append(start + b[off] * n + a[off])
            strict.append(n_half + np.flatnonzero(off))
            self.diagonals.append(n_half + np.flatnonzero(~off))
            start += n * n
            n_half += len(a)
        self.half, self.lower, self.strict = (np.concatenate(x) for x in (half, lower, strict))
        self.diag = np.concatenate(self.diagonals)
        top = dims.n_fock - 1
        on_top = self.rep % dims.n_fock == top
        self.tops = np.concatenate([d[on_top[idx]] for d, idx in zip(self.diagonals, self.groups)])
        self._mirror = np.empty(start, dtype=np.intp)
        self._mirror[self.half] = np.arange(n_half)
        self._mirror[self.lower] = n_half + self.strict
        self._edges = np.cumsum([0] + [len(idx) ** 2 for idx in self.groups])
        self.group = np.empty(dims.dim, dtype=np.intp)
        self._pos, self._width = np.empty(dims.dim, dtype=np.intp), np.empty(dims.dim, dtype=np.intp)
        for g, idx in enumerate(self.groups):
            self.group[idx], self._pos[idx], self._width[idx] = g, np.arange(len(idx)), len(idx)
        self._members = np.concatenate(self.groups)
        self._first = np.cumsum([0] + [len(idx) for idx in self.groups])
        self._w_dag = self.w.conj().T.tocsr()

    def at(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The positions in kept of the entries (c, d), each pair within one group."""
        return self._edges[self.group[c]] + self._pos[c] * self._width[c] + self._pos[d]

    def partners(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, d): each column d of the group of column c[i], for each i."""
        i, offset = _runs(self._width[c])
        return i, self._members[self._first[self.group[c[i]]] + offset]

    def to_basis(self, a: sp.csr_matrix) -> sp.csr_matrix:
        """A sparse dim x dim matrix in the run's basis: w^dag a w."""
        return self._w_dag @ a @ self.w

    def coords(self, v: np.ndarray) -> np.ndarray:
        """A full-space vector in the run's basis: w^dag v."""
        return self._w_dag @ v

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """The sample of a dim x dim rho: the upper triangles of the
        blocks of w^dag rho w."""
        return (self._w_dag @ rho @ self.w).reshape(-1)[self.kept[self.half]]

    def blocks(self, h: np.ndarray) -> list[np.ndarray]:
        """The groups' whole (C, n, n) blocks of C samples h.

        One take from [h, conj(h)] rebuilds them in the layout of kept, each
        entry below a diagonal the conjugate of its mirror, so the blocks
        hold exactly the numbers of the Hermitian rho the kernel's vector
        describes.
        """
        whole = np.concatenate((h, h.conj()), axis=1).take(self._mirror, axis=1)
        edges = zip(self.groups, self._edges, self._edges[1:])
        return [whole[:, a:b].reshape(len(h), len(idx), len(idx)) for idx, a, b in edges]

    def spins(self, h: np.ndarray) -> np.ndarray:
        """The motion-traced (C, spin_dim, spin_dim) spin matrices of C
        samples h, C-contiguous: one sparse product (_spin_map)."""
        take, mirrored, weights = self._spin_map
        picked = h[:, take]
        np.conjugate(picked, out=picked, where=mirrored)
        sd = self.dims.spin_dim
        return np.ascontiguousarray((weights @ picked.T).T).reshape(len(h), sd, sd)

    @functools.cached_property
    def _spin_map(self) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """(take, mirrored, weights): the flattened spin matrix of a
        sample h is weights @ x, where x is h[take], conjugated where
        mirrored, the entries of R it reads, and weights is sparse
        (spin_dim^2, len(take)).

        Entry (c, d) of R adds w[i, c] conj(w[j, d]) of itself to the spin
        entry of the basis states i and j.  Each column of w lies on one
        Fock level, so only pairs (c, d) at one level contribute, taken in
        the order of their positions in [h, conj(h)].
        """
        nf, sd = self.dims.n_fock, self.dims.spin_dim
        w = self.w.tocsc()
        counts = np.diff(w.indptr)
        c, d = np.divmod(self.kept, len(self.rep))
        entry = np.flatnonzero(self.rep[c] % nf == self.rep[d] % nf)
        entry = entry[np.argsort(self._mirror[entry])]
        e, p = _runs(counts[c[entry]])  # each entry e with each nonzero p of its column c
        p += w.indptr[c[entry[e]]]
        k, q = _runs(counts[d[entry[e]]])  # each of those, k, with each nonzero q of column d
        e, p, q = e[k], p[k], q + w.indptr[d[entry[e[k]]]]
        spin = (w.indices[p] // nf) * sd + w.indices[q] // nf
        weights = sp.csr_matrix((w.data[p] * w.data[q].conj(), (spin, e)), shape=(sd * sd, len(entry)))
        sources = self._mirror[entry]
        return sources % len(self.half), sources >= len(self.half), weights


class _TaylorExpm:
    """(offsets, h) -> exp(t L) h at each time t of offsets, for one sparse
    generator L, on the computed entries h of a folded vector.

    Al-Mohy & Higham (2011), alg. 3.2, with the dense output of their sec.
    5.  The shift A = L - mu I, with mu given, and the exact 1-norm of A are
    computed once.  A call plans its last offset tau alone, (m, s)
    minimizing m * ceil(tau ||A||_1 / theta_m), and computes the terms T_j
    = (tau A / s)^j h / j! of the degree-m Taylor series once, into a buffer
    allocated with the kernel, stopped early once two successive terms fall
    below the unit roundoff relative to the partial sum f.  Row i is
    sum_j (t_i / tau)^j T_j exp(t_i mu): the weights are real, so every row
    is the upper triangle of a Hermitian rho as each T_j is, and an earlier
    time only shrinks the dropped tail.  The last row is f times exp(tau
    mu) itself, so a one-sample call is, bit for bit, the single-step
    kernel.  Up to tau ||A||_1 = theta_55 = 9.9 the plan keeps s = 1; past
    it only a lone offset may be asked for, reached in s substeps of exp(tau
    A / s), each restarting the series from f.

    The fold: after the norm is taken, cols orders the rows and columns of
    A as the whole vector [h, conj(h[strict])], and only h's rows are kept.
    Each matvec rebuilds the whole vector from h (unfold).  With h the upper
    triangle of a Hermitian rho and a real mu, every term is Hermitian, so
    this is the full computation; the stop test reads the whole vector's
    maxima from h, as abs(conj z) == abs(z).  The identity fold (cols =
    arange(n), strict empty) takes any generator.  Fancy indexing keeps
    each row's order of terms, so each computed entry is, bit for bit, the
    sum the unfolded matvec gives.
    """

    def __init__(self, gen: sp.csr_matrix, mu: complex, cols: np.ndarray, strict: np.ndarray):
        n = gen.shape[0]
        self.mu = mu
        shifted = gen - mu * sp.identity(n, dtype=gen.dtype, format="csr")
        col_sums = np.bincount(shifted.indices, weights=np.abs(shifted.data), minlength=n)
        self.norm_1 = float(col_sums.max())
        self.strict = strict
        self.shifted = shifted[cols[: n - len(strict)]][:, cols]
        self._whole = np.empty(n, dtype=gen.dtype)
        # pages are only touched as terms are written: about 20 rows a call
        self._terms = np.empty((max(_THETA) + 1, n - len(strict)), dtype=complex)
        self._plans: dict[float, tuple[int, int]] = {}

    def unfold(self, h: np.ndarray) -> np.ndarray:
        """The whole vector [h, conj(h[strict])] in cols order: a buffer
        that the next call overwrites."""
        whole = self._whole
        whole[: len(h)] = h
        mirrored = whole[len(h) :]
        np.take(h, self.strict, out=mirrored)
        np.conjugate(mirrored, out=mirrored)
        return whole

    def plan(self, dt: float) -> tuple[int, int]:
        """(m, s) of a step dt: s substeps of at most m matvecs each, kept
        per dt, so a call reuses the plan of _density_run's work budget."""
        if dt in self._plans:
            return self._plans[dt]
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail the budget test below
            scaled_norm = dt * self.norm_1
        if dt == 0 or scaled_norm == 0:  # 0 * inf is NaN, and exp(0 A) = I
            return 0, 1
        # m * s >= scaled_norm * m / theta_m > 5 * scaled_norm for every m,
        # so a larger step alone passes the run's budget (NaN fails too)
        if not scaled_norm <= _MAX_MATVECS:
            raise NumericsError(
                f"a step of {dt:.3e} s at generator 1-norm {self.norm_1:.3e} needs more than "
                f"{_MAX_MATVECS:.0e} matvecs; a rate or a duration is out of range"
            )
        self._plans[dt] = min(
            ((deg, math.ceil(scaled_norm / theta)) for deg, theta in _THETA.items()),
            key=lambda ms: ms[0] * ms[1],
        )
        return self._plans[dt]

    def __call__(self, offsets: np.ndarray, h: np.ndarray) -> np.ndarray:
        """(len(offsets), len(h)) rows exp(t A) h for the ascending times t
        of offsets, measured from h's."""
        tau = offsets[-1]
        m, s = self.plan(tau)
        if s > 1 and len(offsets) > 1:
            raise ValueError(f"offsets up to {tau:.3e} s pass theta_55; only a lone offset may take substeps")
        eta = np.exp(tau * self.mu / s)
        terms = self._terms
        out = np.empty((len(offsets), len(h)), dtype=complex)
        f = out[-1]
        f[:] = h
        used = 0  # the highest term of the last substep
        for _ in range(s):
            terms[0] = f
            c1 = np.abs(f).max()
            # f_max bounds the computed max|f| from above, so the exact max
            # is only taken when the stop test could pass, and every stop
            # decision is the one the exact max gives; 64u covers the
            # rounding of the sum, of this bound and of complex abs(), a
            # few ulp in numpy's SIMD loops
            f_max = c1
            for used in range(1, m + 1):
                term = np.multiply(self.shifted @ self.unfold(terms[used - 1]), tau / (s * used), out=terms[used])
                c2 = np.abs(term).max()
                f += term
                f_max = (f_max + c2) * (1 + 64 * _UNIT_ROUNDOFF)
                if c1 + c2 <= _UNIT_ROUNDOFF * f_max:
                    f_max = np.abs(f).max()
                    if c1 + c2 <= _UNIT_ROUNDOFF * f_max:
                        break
                c1 = c2
            f *= eta
        if len(offsets) > 1:
            early = offsets[:-1]
            # real weights on the (re, im) pairs of the terms (all offsets
            # are 0 when tau is)
            weights = (early / tau if tau > 0 else early)[:, None] ** np.arange(used + 1)
            rows = (weights @ terms[: used + 1].view(np.float64)).view(complex)
            np.multiply(rows, np.exp(early * self.mu)[:, None], out=out[:-1])
        return out


@functools.lru_cache(maxsize=32)
def _segment_spectrum(
    dims: SystemDims, geom: IonGeometry, seg: PulseSegment, stark_shifts: tuple[float, ...] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (evals, evecs) of eigh(segment_hamiltonian(...)).

    The memo of _pure_walk.  seg comes with its duration set to 0, which
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


#: the most cells of one _pure_walk: a segment's (cells, samples, dim)
#: temporaries of a composite t1 sweep (two samples, dim 40) are then 1.3 MB
#: each, not 128 MB at 100,000 cells
_WALK_CELLS = 1024


def _pure_walk(
    schedules: Sequence[PulseSchedule],
    dims: SystemDims,
    geom: IonGeometry,
    initial: np.ndarray,
    sample_dts: Sequence[float | None],
    stark_shifts: tuple[float, ...] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, amps, starts) of the runs of schedules that differ only in
    their segments' durations, from the amplitudes initial, walked together.

    Cell b samples its schedule every sample_dts[b] and owns rows
    starts[b]:starts[b + 1] of the stacked times and read-only amplitudes
    (_walk_samples).  Segment i has one spectrum (_segment_spectrum) and one
    product for all cells, (exp(-i outer(offsets, evals)) * coords) @
    evecs.T, over the (cells, n) offsets from each cell's segment start of
    the samples it reaches there, padded with 0; one more
    gives the states at the segment ends.  Every sample is then checked:
    the first, cell by cell, whose norm drifts beyond 1e-9 raises
    NumericsError, or whose top Fock level holds more than 1e-8
    TruncationError, naming its time.
    """
    times, starts, cuts = _walk_samples(schedules, sample_dts)
    durations = np.array([[seg.duration for seg in s.segments] for s in schedules])
    amps = np.empty((len(times), dims.dim), dtype=complex)
    psi, t0 = initial[None], np.zeros(len(schedules))  # each cell's state at the start t0 of each segment
    for i, seg in enumerate(schedules[0].segments):
        evals, evecs = _segment_spectrum(dims, geom, replace(seg, duration=0.0), stark_shifts)
        counts = cuts[:, i + 1] - cuts[:, i]
        held = np.arange(counts.max()) < counts[:, None]  # (cells, n)
        rows = (cuts[:, i, None] + np.arange(held.shape[1]))[held]
        offsets = np.zeros(held.shape)
        offsets[held] = times[rows] - np.repeat(t0, counts)
        # non-finite amplitudes (a frequency far out of range) fail the norm check below
        with np.errstate(over="ignore", invalid="ignore"):
            coords = psi @ evecs.conj()  # in the segment's eigenbasis
            states = np.exp(-1j * (offsets[..., None] * evals)) * coords[:, None]
            amps[rows] = (states.reshape(-1, dims.dim) @ evecs.T).reshape(states.shape)[held]
            if (cuts[:, i + 1] == starts[1:]).all():
                break  # any later segment has zero length and no sample
            psi = (np.exp(-1j * (durations[:, i, None] * evals)) * coords) @ evecs.T
        t0 += durations[:, i]

    drift = np.abs(np.linalg.norm(amps, axis=1) - 1.0)
    top = np.sum(np.abs(amps[:, dims.n_fock - 1 :: dims.n_fock]) ** 2, axis=1)
    failed = np.flatnonzero(~(drift <= 1e-9) | ~(top < TOP_FOCK_LIMIT))
    if failed.size:
        k = failed[0]
        if not drift[k] <= 1e-9:
            raise NumericsError(f"norm drift {drift[k]:.2e} at t = {times[k]:.3e} s")
        _check_truncation(top[k], times[k])
    amps.setflags(write=False)
    return times, amps, starts


def evolve_pure(
    schedule: PulseSchedule,
    dims: SystemDims,
    geom: IonGeometry,
    initial: PureState,
    sample_dt: float | None = None,
    stark_shifts: Sequence[float] | None = None,
) -> Trajectory:
    """Propagate a pure state exactly through each constant segment: the
    walk (_pure_walk) of one schedule.

    Each segment's spectrum comes from a bounded memo (_segment_spectrum)
    keyed by (dims, geom, the segment without its duration, the Stark
    shifts), so a segment is diagonalized once for all schedules that
    differ only in durations.  States are sampled every sample_dt (default
    total/400) and at segment boundaries, each segment's in one product,
    into the read-only (T, dim) amplitudes of the Trajectory.  A density
    run has no such call: it is read as a stream (protocol._plan_samples,
    _density_run).  The first sample whose
    norm drifts beyond 1e-9 raises NumericsError, or whose top Fock level
    holds more than 1e-8 TruncationError, naming its time.
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    shifts = None if stark_shifts is None else tuple(stark_shifts)
    times, amps, _ = _pure_walk([schedule], dims, geom, initial.amplitudes, [sample_dt], shifts)
    return Trajectory(times, amps, dims, schedule)


# samples per step of a density run: each run of 8 samples within a
# segment is one Taylor kernel call (two where the theta_55 cap falls inside
# it), checked and handed to its readers as soon as it is filled, and each
# temporary (the chunk buffer, its rebuilt blocks, a Cholesky input) covers
# 8 samples, whatever the length of the run
_CHECK_CHUNK = 8


def _check_density(fold: _Fold, times: np.ndarray, chunk: np.ndarray, blocks: list[np.ndarray]):
    """Trace, Hermiticity, truncation and positivity contracts of a chunk of samples.

    chunk is a (C, n_half) stack of the upper triangles of the blocks of rho
    within the fold's index groups, sampled at times, and blocks the fold's
    whole blocks of it (_Fold.blocks); rho is zero outside them.  The trace
    and the top Fock population are sums over the blocks' diagonals, read
    in place.  The off-diagonal entries are exact mirrors, so the Frobenius
    defect of rho - rho^dag is 2 |Im diag|, and it is NaN when any
    entry is not finite.  A sample is positive exactly when each block is:
    a Cholesky factorization of block + 1e-7 I succeeds exactly when its
    smallest eigenvalue is above -1e-7.  The blocks of one width are
    factorized in one stacked call; only where it fails are the smallest
    eigenvalues of that width's blocks taken, in one call, and a sample
    reports its first block, in block order, whose smallest eigenvalue is
    below -1e-7.  The first failing sample raises, with the first contract
    it fails in the order above.  Each test is written so that NaN fails it;
    positivity is only tested on samples that pass the others, whose
    entries are then finite.
    """
    d = chunk[:, fold.diag]
    drift = np.abs(d.real.sum(axis=1) - 1.0)
    asym = 2.0 * np.sqrt(np.square(d.imag).sum(axis=1))
    asym[~np.isfinite(chunk).all(axis=1)] = np.nan
    top = chunk[:, fold.tops].real.sum(axis=1)
    earlier = ~(drift <= 1e-8) | ~(asym <= 1e-10) | ~(top < TOP_FOCK_LIMIT)
    widths: dict[int, list[int]] = {}
    for k, b in enumerate(blocks):
        widths.setdefault(b.shape[-1], []).append(k)
    lowest = {}  # block k -> its smallest eigenvalue at each sample, 0 where earlier
    for n, same in widths.items():
        stack = np.concatenate([blocks[k] for k in same])
        stack[:, range(n), range(n)] += POSITIVITY_FLOOR
        try:
            np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            eigs = np.zeros((len(same), len(chunk)))
            eigs[:, ~earlier] = np.linalg.eigvalsh(np.stack([blocks[k][~earlier] for k in same]))[..., 0]
            lowest.update(zip(same, eigs))
    low = np.zeros(len(chunk))  # per sample, the smallest eigenvalue of its first non-positive block
    for k in sorted(lowest):
        first = (low == 0) & (lowest[k] < -POSITIVITY_FLOOR)
        low[first] = lowest[k][first]
    failed = np.flatnonzero(earlier | (low < 0))
    if failed.size:
        j = failed[0]
        if earlier[j]:
            if not drift[j] <= 1e-8:
                raise NumericsError(f"trace drift {drift[j]:.2e} at t = {times[j]:.3e} s")
            if not asym[j] <= 1e-10:
                raise NumericsError(f"Hermiticity defect {asym[j]:.2e} at t = {times[j]:.3e} s")
            _check_truncation(top[j], times[j])
        raise NumericsError(f"negative eigenvalue {low[j]:.2e} at t = {times[j]:.3e} s")


def _kernel_calls(times: np.ndarray, ks: range, norm_1: float) -> list[tuple[slice, np.ndarray]]:
    """The samples ks of one segment split into kernel calls (samples,
    offsets): each call carries the state from the sample before its first
    (sample 0 from itself) to its samples, at those offsets.  A call's
    samples lie in one _CHECK_CHUNK, and its last offset keeps tau ||A||_1
    <= theta_55, where the plan keeps s = 1, unless its sample is alone."""
    runs: list[list[int]] = []
    for k in ks:
        if runs and k // _CHECK_CHUNK == runs[-1][-1] // _CHECK_CHUNK:
            if (times[k] - times[max(runs[-1][0] - 1, 0)]) * norm_1 <= _THETA[55]:
                runs[-1].append(k)
                continue
        runs.append([k])
    return [(slice(r[0], r[-1] + 1), times[r[0] : r[-1] + 1] - times[max(r[0] - 1, 0)]) for r in runs]


def _cycle_symmetry(
    dims: SystemDims,
    geom: IonGeometry,
    shifts: tuple[float, ...],
    hams: Sequence[sp.csr_matrix],
    ops: Sequence[sp.csr_matrix],
    rho: sp.csr_matrix,
) -> tuple[int, list[int | None]] | None:
    """(step, moves) if U of hilbert.cycle_shift(dims, step) is a symmetry
    of the run, else None.

    First the cheap tests: equal Stark shifts, and couplings g_i = sign(a_i)
    exp(i theta_i) with one ratio g_{i+1} / g_i = exp(-2 pi i step / N)
    around the cycle.  Then, each to 1e-12 relative in the Frobenius norm,
    with U a CSR matrix and the CSR matrices hams, ops and rho: U fixes rho,
    commutes with each segment's Hamiltonian of hams and maps the collapse
    operators ops onto themselves up to unit phases.  moves[k] is s where U
    L_k U^dag = exp(2 pi i s / N) L_k, and None where U maps L_k onto
    another operator; the overlaps <L_j, U L_k U^dag> of all pairs are one
    sparse product.
    """
    n = dims.n_ions
    g = np.sign(geom.mode_amplitudes) * np.exp(1j * np.array(geom.phase_per_ion))
    if len(set(shifts)) > 1 or not g.all():
        return None
    ratios = np.roll(g, -1) / g
    step = round(-np.angle(ratios[0]) * n / (2 * np.pi)) % n
    if not np.all(np.abs(ratios - np.exp(-2j * np.pi * step / n)) <= 1e-12):
        return None
    image, phase = cycle_shift(dims, step)
    dim = dims.dim
    u = sp.csr_matrix((phase, (image, np.arange(dim))), shape=(dim, dim))
    u_dag = u.conj().T.tocsr()

    def close(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
        return bool(np.linalg.norm((a - b).data) <= 1e-12 * np.linalg.norm(b.data))

    if not close(u @ rho @ u_dag, rho) or not all(close(u @ h @ u_dag, h) for h in hams):
        return None
    if not ops:
        return step, []
    # compared at unit largest entry, which U keeps, so that no tiny rate underflows
    scales = [np.abs(l.data).max() for l in ops]
    units = sp.vstack([l / scale for l, scale in zip(ops, scales)], format="csr")  # the L_k on top of each other
    images = sp.kron(sp.identity(len(ops)), u) @ units @ u_dag  # and each U L_k U^dag
    units, images = (x.reshape(len(ops), dim * dim).tocsr() for x in (units, images))  # one row each
    norms = np.asarray(units.multiply(units.conj()).sum(axis=1)).real
    overlaps = (units.conj() @ images.T).toarray() / norms  # [j, k]: <L_j, U L_k U^dag> / |L_j|^2
    moves, free = [], list(range(len(ops)))
    for k in range(len(ops)):
        for j in free:
            c = overlaps[j, k]
            same_scale = abs(scales[k] - scales[j]) <= 1e-12 * scales[j]
            if same_scale and abs(abs(c) - 1) <= 1e-12 and close(images[k], c * units[j]):
                break
        else:
            return None
        free.remove(j)
        moves.append(round(np.angle(c) * n / (2 * np.pi)) % n if j == k else None)
    return step, moves


def _sector_fold(dims: SystemDims, step: int, moves: Sequence[int | None]) -> tuple[_Fold, dict[int, np.ndarray]]:
    """(fold, targets) of a run in the eigen-sectors of U (hilbert.cycle_sectors).

    The groups are the columns of w that share the orbit of rep's leak set
    under the cyclic shift, labelled by its smallest bit mask O, and a
    sector s, ordered by O N + s; without a leak level, the sectors.  U only
    permutes the leak sets within an orbit, so a rho block diagonal over the
    leak sets and fixed by U is block diagonal over these groups.
    targets[s][g], for each move s of moves, is the group (O, s_g + s) that
    an operator U multiplies by exp(2 pi i s / N) takes group g to, or -1.
    """
    n = dims.n_ions
    w, sector, rep = cycle_sectors(dims, step)
    leaked = (np.array(dims.spin_configurations()) == LEAK)[rep // dims.n_fock]
    orbit = np.min([np.roll(leaked, j, axis=1) @ (1 << np.arange(n)) for j in range(n)], axis=0)
    keys, label = np.unique(orbit * n + sector, return_inverse=True)
    fold = _Fold(dims, [np.flatnonzero(label == g) for g in range(len(keys))], (w, rep))
    index = {key: g for g, key in enumerate(keys)}
    targets = {s: np.array([index.get(key - key % n + (key + s) % n, -1) for key in keys]) for s in set(moves) - {None}}
    return fold, targets


def _feed(fold: _Fold, jumps: Sequence[sp.coo_matrix]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, values) of the feed sum_k L_k x L_k^* on the fold's
    blocks, at positions in its kept vector: one entry per pair (p, q) of
    entries of one L_k of jumps, in the fold's basis, in one block (B, A)."""
    n = len(fold.groups)
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0, dtype=complex),)]
    parts += [(np.full(l.nnz, k), l.row, l.col, l.data) for k, l in enumerate(jumps)]
    kind, rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    bucket = (kind * n + fold.group[rows]) * n + fold.group[cols]
    order = np.argsort(bucket, kind="stable")
    _, start, size = np.unique(bucket[order], return_index=True, return_counts=True)
    run = np.repeat(np.arange(len(size)), size)  # the bucket of each entry in sorted order
    i, offset = _runs(size[run])  # each sorted entry i, once per entry of its bucket
    p, q = order[i], order[start[run[i]] + offset]
    return fold.at(rows[p], rows[q]), fold.at(cols[p], cols[q]), vals[p] * vals[q].conj()


def _density_run(
    schedule: PulseSchedule,
    dims: SystemDims,
    geom: IonGeometry,
    noise: NoiseModel,
    initial: DensityOperator,
    sample_dt: float | None = None,
) -> tuple[np.ndarray, _Fold, Iterator[tuple[int, np.ndarray, list[np.ndarray]]]]:
    """(times, fold, chunks) of a density operator propagated exactly
    through each constant segment.

    Each segment's generator acts on the row-major vec(rho),

        K x I + I x K^* + sum_k L_k x L_k^*,  K = -i H - M / 2,

    with M = sum_k L_k^dag L_k; the dissipative parts are shared by all
    segments.  States are sampled at times: every sample_dt (default
    total/400) and at segment boundaries.  The segment's Taylor kernel
    (_TaylorExpm), accurate to working precision, carries the state from
    the last sample to all the samples of one _CHECK_CHUNK within the
    segment in one call (_kernel_calls): one series for the last of them,
    read at each earlier one with the real weights (t_i / tau)^j of its
    dense output.  A call is cut short where tau ||A||_1 would pass
    theta_55 = 9.9, up to which the plan keeps one substep, so a sample
    whose own step passes it is a call of its own.  The kernel's shift and
    norm are set up once per segment.

    Only the blocks of the run's layout, fold, are propagated: those of
    _sector_fold if the start has no entry between different leak sets
    (hilbert.leak_sectors) and the run has the ions' cycle symmetry
    (_cycle_symmetry), else the leak sets for such a start, else the whole
    space.  Each operator is taken into the fold's basis once.  The
    generator is built on those blocks alone, in the fold's kept order, as
    one list of entries turned into one sparse matrix per segment: K x I +
    I x K^* on each block, as K keeps each group, and the feed sum_k L_k x
    L_k^* over each pair of entries of one L_k in one block (B, A), listed
    once per run.  A jump operator that U multiplies by a phase keeps only
    its entries from each group to the group it moves it to, so no
    rounding of a block that vanishes reaches the generator.  The shift is
    Re(tr L) / dim^2 of the full generator, (sum_k |tr L_k|^2 - dim tr M) /
    dim^2; a complex shift would not keep rho Hermitian.  vec holds only
    the upper triangle of each block (the fold's half), from which the
    kernel computes those rows alone; the lower triangles are the exact
    conjugates of the upper ones.

    chunks is a generator.  For each _CHECK_CHUNK samples it yields (start,
    samples, blocks): the index of its first sample, a read-only (C, n_half)
    view of vec at each of them and the fold's whole blocks of those
    samples (_Fold.blocks), rebuilt once for the checks and the readers.
    The view is of one buffer that the next chunk overwrites, so a reader
    copies what it keeps.  Before a segment is propagated, the kernel's
    planned work for its calls, sum m * s of each call's last offset, is
    added to the run's; past _MAX_MATVECS, which only a rate or a duration
    far out of range reaches, NumericsError is raised.  Every chunk is
    checked before it is yielded (_check_density): trace to 1e-8,
    Hermiticity to 1e-10 (exact off the diagonal, so this guards the
    diagonal's imaginary part and NaN), top Fock population below 1e-8 and
    eigenvalues above -1e-7.  The first violating sample raises
    NumericsError (TruncationError for the Fock limit) naming its time;
    nothing is projected away, and no kernel call reaches past the chunk of
    a failing sample.  The generator runs in its consumer's frame, so BLAS
    stays on one thread only where the consumer is pinned (_one_blas_thread).
    """
    if initial.dims != dims:
        raise ValueError("initial state dims do not match")
    shifts = noise.shifts_or_zero(dims.n_ions)
    hams = [sp.csr_matrix(segment_hamiltonian(dims, geom, seg, shifts).matrix) for seg in schedule.segments]
    ops = [op.matrix for op in lindblad_operators(dims, noise)]
    sparse_ops = [sp.csr_matrix(l) for l in ops]
    fold = _Fold(dims, leak_sectors(dims))
    block_diagonal = not initial.matrix[fold.group[:, None] != fold.group].any()
    symmetry = None
    if block_diagonal:
        with np.errstate(over="ignore", invalid="ignore"):  # a rate or a drive far out of range fails later, in plan
            symmetry = _cycle_symmetry(dims, geom, shifts, hams, sparse_ops, sp.csr_matrix(initial.matrix))
    moves, targets = [None] * len(ops), {}
    if symmetry is not None:
        step, moves = symmetry
        fold, targets = _sector_fold(dims, step, moves)
    elif not block_diagonal:
        fold = _Fold(dims, [np.arange(dims.dim)])
    group = fold.group

    mu, m, jumps = 0.0, sp.csr_matrix((dims.dim, dims.dim), dtype=complex), []
    # here and in generator, an overflow leaves a NaN or inf norm, which _TaylorExpm.plan rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for l, sparse, move in zip(ops, sparse_ops, moves):
            mu += abs(np.trace(l)) ** 2 - dims.dim * np.vdot(l, l).real  # tr(L^dag L) = |L|_F^2
            l = fold.to_basis(sparse).tocoo()
            keep = l.data != 0
            if move is not None:  # an eigen-operator of U: from each group to its group at move alone
                keep &= group[l.row] == targets[move][group[l.col]]
            l = sp.csr_matrix((l.data[keep], (l.row[keep], l.col[keep])), shape=l.shape)
            m = m + l.conj().T @ l
            jumps.append(l.tocoo())
        feed = _feed(fold, jumps)
    n_kept, kernel_cols = len(fold.kept), np.concatenate((fold.half, fold.lower))

    def generator(h: sp.csr_matrix) -> sp.csr_matrix:
        k = (-1j * fold.to_basis(h) - 0.5 * m).tocoo()
        within = group[k.row] == group[k.col]
        e, other = fold.partners(k.row[within])  # each entry e of K within a group, with each column of it
        r, c, v = k.row[within][e], k.col[within][e], k.data[within][e]
        n_k = len(v)
        rows, cols = np.empty((2, 2 * n_k + len(feed[2])), dtype=np.int32)  # scipy's own index type here
        vals = np.empty(rows.shape, dtype=complex)
        rows[:n_k], cols[:n_k], vals[:n_k] = fold.at(r, other), fold.at(c, other), v  # K x I
        rows[n_k : 2 * n_k], cols[n_k : 2 * n_k] = fold.at(other, r), fold.at(other, c)  # I x K^*
        vals[n_k : 2 * n_k] = v.conj()
        rows[2 * n_k :], cols[2 * n_k :], vals[2 * n_k :] = feed
        return sp.coo_matrix((vals, (rows, cols)), shape=(n_kept, n_kept)).tocsr()

    times, _, (cuts,) = _walk_samples([schedule], [sample_dt])

    def chunks():
        buffer = np.empty((_CHECK_CHUNK, len(fold.half)), dtype=complex)
        vec = fold.pack(initial.matrix)
        boundaries = schedule.boundaries()
        work = 0
        for seg_idx, ks in enumerate(map(range, cuts[:-1], cuts[1:])):
            with np.errstate(over="ignore", invalid="ignore"):
                expm = _TaylorExpm(generator(hams[seg_idx]), mu / dims.dim**2, kernel_cols, fold.strict)
                calls = _kernel_calls(times, ks, expm.norm_1)
            work += sum(math.prod(expm.plan(offsets[-1])) for _, offsets in calls)
            if work > _MAX_MATVECS:
                raise NumericsError(
                    f"the run plans {work:.3g} matvecs up to t = {boundaries[seg_idx + 1]:.3e} s, more than "
                    f"{_MAX_MATVECS:.0e}; a rate or a duration is out of range"
                )
            for samples, offsets in calls:
                first = samples.start - samples.start % _CHECK_CHUNK
                rows = expm(offsets, vec)
                buffer[samples.start - first : samples.stop - first] = rows
                vec = rows[-1]  # the kernel's own output, which no later chunk overwrites
                k = samples.stop - 1
                if k % _CHECK_CHUNK == _CHECK_CHUNK - 1 or k == len(times) - 1:
                    chunk = buffer[: k + 1 - first].view()
                    chunk.setflags(write=False)
                    blocks = fold.blocks(chunk)
                    _check_density(fold, times[first : k + 1], chunk, blocks)
                    yield first, chunk, blocks

    return times, fold, chunks()


def _read(
    dims: SystemDims,
    samples: np.ndarray,
    fold: _Fold | None,
    full: Sequence[np.ndarray],
    trace: bool,
    blocks: list[np.ndarray] | None,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """<v|rho|v> for each full-space vector v of full, one (T,) series
    each, and, if trace, the motion-traced (T, spin_dim, spin_dim) matrices
    of the T samples of one chunk of a run: fold and blocks are None for
    amplitudes, else the run's layout and the chunk's whole blocks.  A
    density chunk's overlaps are read from its blocks, each v taken into
    the run's basis (_Fold.coords), and its trace from its samples
    through one sparse map (_Fold.spins).
    """
    if fold is None:
        series = [np.vecdot(v, samples) for v in full]
        spins = partial_trace_motion(dims, samples) if trace else None
        return [np.hypot(o.real, o.imag) ** 2 for o in series], spins
    full = [fold.coords(v) for v in full]
    series = [sum(np.vecdot(v[idx], block @ v[idx]).real for idx, block in zip(fold.groups, blocks)) for v in full]
    return series, fold.spins(samples) if trace else None


def _fidelities(
    dims: SystemDims,
    samples: np.ndarray,
    fold: _Fold | None,
    targets: Sequence[PureState],
    blocks: list[np.ndarray] | None,
) -> list[np.ndarray]:
    """<target|rho|target> of each sample of one chunk of a run, per target.

    Targets on the full space keep their motional factor; spin-only targets
    (n_fock = 1) are compared against the motion-traced samples.  Both come
    from one _read of the chunk's blocks.  np.vecdot conjugates its first
    argument and takes one BLAS dot per sample, and np.hypot rounds as abs()
    of one complex scalar does, so each value is the one a single-sample
    evaluation gives.
    """
    full = [t.amplitudes for t in targets if t.dims == dims]
    spin_dims = SystemDims(dims.n_ions, 1, dims.leak_level) if len(full) < len(targets) else dims
    if any(t.dims not in (dims, spin_dims) for t in targets):
        raise ValueError("target dims are compatible with neither the full nor the spin-only space")
    series, spins = _read(dims, samples, fold, full, spin_dims != dims, blocks)
    series = iter(series)
    return [next(series) if t.dims == dims else np.vecdot(t.amplitudes, spins @ t.amplitudes).real for t in targets]


def _read_populations(
    dims: SystemDims,
    times: np.ndarray,
    fold: _Fold | None,
    chunks: Iterable[tuple[int, np.ndarray, list[np.ndarray] | None]],
    targets: Sequence[PureState],
    labels: Sequence[str],
    peak_spin: bool = False,
) -> tuple[PopulationRecord, np.ndarray | None]:
    """The population record of a run read chunk by chunk, and, if
    peak_spin, the motion-traced spin matrix of its peak sample.

    chunks yields (start, samples, blocks) as protocol._plan_samples hands
    them on: a density run's chunks (_density_run), or a pure run's
    amplitudes as one chunk with blocks None.  P_k sums the projectors onto
    all spin configurations with exactly k ions up, traced over motion: one
    product of the samples' diagonals (of a density run, read in place from
    the triangles, each at its column's labels _Fold.rep) with the
    masks, built once per run, gives every P_k and the leak population at
    once.  The target series come from one _fidelities per chunk, on the
    chunk's blocks.  The peak is the first sample of the highest
    first-target fidelity, as np.argmax picks it; only its sample and a
    copy of its blocks are kept as the chunks pass, and only it is traced.
    """
    masks = np.array([*up_count_projectors(dims), leak_mask(dims)])
    pops, series = [], []
    peak, peak_fidelity = None, -np.inf
    for _, samples, blocks in chunks:
        if fold is None:
            diag = np.abs(samples) ** 2
        else:
            diag = np.zeros((len(samples), dims.dim))
            for idx, pos in zip(fold.groups, fold.diagonals):
                diag[:, fold.rep[idx]] = samples[:, pos].real
        pops.append(np.vecdot(diag[:, None, :], masks))
        series.append(_fidelities(dims, samples, fold, targets, blocks))
        if peak_spin:
            j = int(np.argmax(series[-1][0]))
            if series[-1][0][j] > peak_fidelity:  # a later equal maximum keeps the first, as np.argmax does
                peak = samples[j : j + 1].copy(), None if blocks is None else [b[j : j + 1].copy() for b in blocks]
                peak_fidelity = series[-1][0][j]
    pops = np.concatenate(pops)
    fids = {label: np.concatenate([chunk[i] for chunk in series]) for i, label in enumerate(labels)}
    target_series = fids[labels[0]] if targets else np.zeros(len(times))
    spin = _read(dims, peak[0], fold, (), True, peak[1])[1][0] if peak_spin else None
    return PopulationRecord(times, pops[:, :-1], target_series, fids, pops[:, -1]), spin
