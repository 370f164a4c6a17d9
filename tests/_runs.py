"""Runs read as the CLI reads them, for the tests.

A run starts where the program starts it, from protocol._plan_samples or
dynamics._density_run, and is kept as the (start, samples, blocks) chunks
its stream hands on, each copied, as the stream reuses its buffer.  Its
populations and target series come from dynamics._read_populations and its
spin matrices from _Fold.spins, the CLI's readers.  Whole density matrices
are rebuilt here, rho = W R W^dag with a dense W, and fidelities of state
objects are taken here from their dense formulas, so they are an oracle
independent of the program's readers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from zenosim.dynamics import PopulationRecord, _density_run, _Fold, _one_blas_thread, _read_populations
from zenosim.hilbert import DensityOperator, PureState, SystemDims, partial_trace_motion
from zenosim.protocol import _plan_samples, default_dims


@dataclass(frozen=True)
class Run:
    """A run's sample times, layout (None for amplitudes) and chunks."""

    dims: SystemDims
    times: np.ndarray
    fold: _Fold | None
    chunks: tuple[tuple[int, np.ndarray, list[np.ndarray] | None], ...]

    @property
    def groups(self) -> tuple[np.ndarray, ...]:
        return () if self.fold is None else self.fold.groups

    @property
    def samples(self) -> np.ndarray:
        """(T, n_half) triangles of a density run, (T, dim) amplitudes of a pure one."""
        return np.concatenate([samples for _, samples, _ in self.chunks])

    def record(self, targets, labels=None, peak_spin=False) -> tuple[PopulationRecord, np.ndarray | None]:
        """_read_populations of the run, labels target_0, target_1, ... by default."""
        labels = [f"target_{i}" for i in range(len(targets))] if labels is None else labels
        return _read_populations(self.dims, self.times, self.fold, self.chunks, targets, labels, peak_spin)

    def spin_matrices(self) -> np.ndarray:
        """(T, spin_dim, spin_dim) motion-traced spin matrices of every sample."""
        if self.fold is None:
            return partial_trace_motion(self.dims, self.samples)
        return np.concatenate([self.fold.spins(samples) for _, samples, _ in self.chunks])

    @functools.cached_property
    def _w(self) -> np.ndarray:
        return self.fold.w.toarray()

    def states(self):
        """Each sample as a PureState, or as a DensityOperator of rho = W R
        W^dag, R the chunk's blocks placed at their groups."""
        for chunk in self.chunks:
            yield from self._states(chunk)

    @property
    def final(self):
        return self._states(self.chunks[-1])[-1]

    def _states(self, chunk) -> list:
        _, samples, blocks = chunk
        if self.fold is None:
            return [PureState(self.dims, amps) for amps in samples]
        r = np.zeros((len(samples), self.dims.dim, self.dims.dim), dtype=complex)
        for idx, block in zip(self.groups, blocks):
            r[:, idx[:, None], idx] = block
        return [DensityOperator(self.dims, rho) for rho in self._w @ r @ self._w.conj().T]


@_one_blas_thread
def _kept(dims: SystemDims, times: np.ndarray, fold: _Fold | None, chunks) -> Run:
    """The Run of a stream, read with OpenBLAS on one thread, as its CLI readers read it."""
    copies = [(start, s.copy(), None if b is None else [x.copy() for x in b]) for start, s, b in chunks]
    return Run(dims, times, fold, tuple(copies))


def density_run(schedule, dims, geom, noise, initial, sample_dt=None) -> Run:
    """The density run of dynamics._density_run, read to its end."""
    return _kept(dims, *_density_run(schedule, dims, geom, noise, initial, sample_dt))


def plan_run(plan, noise=None, duration=None, dims=None, sample_dt=None) -> Run:
    """The run of a plan as protocol._plan_samples starts it, dims by default_dims."""
    dims = default_dims(plan, noise) if dims is None else dims
    return _kept(dims, *_plan_samples(plan, noise, duration, dims, sample_dt))


def pure_run(traj) -> Run:
    """A pure-state Trajectory as _plan_samples hands a pure run on: one chunk (0, amps, None)."""
    return Run(traj.dims, traj.times, None, ((0, traj.samples, None),))


def fidelity(dims: SystemDims, state, target: PureState) -> float:
    """|<t|psi>|^2 or <t|rho|t>; a spin-only target (n_fock = 1) against
    the motion-traced state."""
    t = target.amplitudes
    if target.dims != dims:
        return float(np.vdot(t, partial_trace_motion(dims, state) @ t).real)
    if isinstance(state, PureState):
        return float(abs(np.vdot(t, state.amplitudes)) ** 2)
    return float(np.vdot(t, state.matrix @ t).real)
