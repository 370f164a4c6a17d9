"""Composite Hilbert space for a small ion chain coupled to one motional mode.

The space is (qubit or qubit+leak level per ion) tensored with a truncated
harmonic oscillator.  Basis ordering is fixed here and nowhere else: ion 1 is
the slowest index, the Fock index is fastest, and within one ion the levels
are ordered up, down, leak.  Every other module goes through the constructors
in this module instead of assuming an ordering.

All energies and rates are angular frequencies in rad/s, durations are in
seconds, and hbar = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import NumericsError, TruncationError

UP, DOWN, LEAK = 0, 1, 2

# Spin patterns and amplitudes for the named states.  Tuples list the per-ion
# levels with ion 1 first; the phase w = exp(2i*pi/3) twists the
# single-excitation states so that exactly one of them is dark under the
# phase-matched sideband drive.
_W_PHASE = np.exp(2j * np.pi / 3)

_NAMED_SPINS = {
    "uu": [(1.0, (UP, UP))],
    "dd": [(1.0, (DOWN, DOWN))],
    "T": [(1.0, (UP, DOWN)), (1.0, (DOWN, UP))],
    "S": [(1.0, (UP, DOWN)), (-1.0, (DOWN, UP))],
    "uuu": [(1.0, (UP, UP, UP))],
    "ddd": [(1.0, (DOWN, DOWN, DOWN))],
    "W": [(1.0, (UP, UP, DOWN)), (1.0, (UP, DOWN, UP)), (1.0, (DOWN, UP, UP))],
    "Wbar": [(1.0, (UP, DOWN, DOWN)), (1.0, (DOWN, UP, DOWN)), (1.0, (DOWN, DOWN, UP))],
    "Wc": [(_W_PHASE, (UP, UP, DOWN)), (1.0, (UP, DOWN, UP)), (_W_PHASE.conj(), (DOWN, UP, UP))],
    "Wac": [(_W_PHASE.conj(), (UP, UP, DOWN)), (1.0, (UP, DOWN, UP)), (_W_PHASE, (DOWN, UP, UP))],
    "Wbar_c": [(_W_PHASE, (DOWN, DOWN, UP)), (1.0, (DOWN, UP, DOWN)), (_W_PHASE.conj(), (UP, DOWN, DOWN))],
    "Wbar_ac": [(_W_PHASE.conj(), (DOWN, DOWN, UP)), (1.0, (DOWN, UP, DOWN)), (_W_PHASE, (UP, DOWN, DOWN))],
}

NAMED_STATES = tuple(_NAMED_SPINS)


@dataclass(frozen=True)
class SystemDims:
    """Dimensions of the composite space.

    n_ions: 2 or 3 ions in the chain.
    n_fock: number of retained oscillator levels 0 .. n_fock-1.
    leak_level: give each ion a third level that collects population
        scattered out of the qubit manifold.
    """

    n_ions: int
    n_fock: int
    leak_level: bool = False

    def __post_init__(self):
        if self.n_ions not in (2, 3):
            raise ValueError(f"n_ions must be 2 or 3, got {self.n_ions}")
        if self.n_fock < 1:
            raise ValueError(f"n_fock must be >= 1, got {self.n_fock}")

    @property
    def levels_per_ion(self) -> int:
        return 3 if self.leak_level else 2

    @property
    def spin_dim(self) -> int:
        return self.levels_per_ion**self.n_ions

    @property
    def dim(self) -> int:
        return self.spin_dim * self.n_fock

    def spin_index(self, spins: Sequence[int]) -> int:
        if len(spins) != self.n_ions:
            raise ValueError(f"expected {self.n_ions} spin labels, got {len(spins)}")
        idx = 0
        for s in spins:
            if not 0 <= s < self.levels_per_ion:
                raise ValueError(f"spin level {s} outside 0..{self.levels_per_ion - 1}")
            idx = idx * self.levels_per_ion + s
        return idx

    def basis_index(self, spins: Sequence[int], fock_n: int) -> int:
        if not 0 <= fock_n < self.n_fock:
            raise ValueError(f"Fock index {fock_n} outside 0..{self.n_fock - 1}")
        return self.spin_index(spins) * self.n_fock + fock_n

    def spin_configurations(self):
        """All per-ion level tuples in basis order."""
        configs = [()]
        for _ in range(self.n_ions):
            configs = [c + (lvl,) for c in configs for lvl in range(self.levels_per_ion)]
        return configs


@dataclass(frozen=True)
class PureState:
    dims: SystemDims
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape[0] != self.dims.dim:
            raise ValueError(f"amplitude length {amp.shape[0]} != dimension {self.dims.dim}")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"state norm {norm} deviates from 1 beyond tolerance")

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    dims: SystemDims
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        d = self.dims.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.linalg.norm(mat - mat.conj().T) <= 1e-8 * max(1.0, np.linalg.norm(mat)):
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if not abs(tr - 1.0) <= 1e-6:
            raise ValueError(f"trace {tr} deviates from 1 beyond tolerance")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class OperatorMatrix:
    dims: SystemDims
    matrix: np.ndarray
    hermitian_flag: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        d = self.dims.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.isfinite(mat).all():
            raise NumericsError("operator has non-finite entries; a frequency or a rate is out of range")
        if self.hermitian_flag:
            # scaled by a power of two to entries below 1, so no norm
            # overflows and every rounding, and so the test, is the unscaled one
            scale = 2.0 ** -max(int(np.frexp(np.abs(np.ascontiguousarray(mat).view(float)).max())[1]), 0)
            mat = mat * scale
            if not np.linalg.norm(mat - mat.conj().T) < 1e-12 * max(scale, np.linalg.norm(mat)):
                raise ValueError("operator flagged Hermitian is not Hermitian")


def _single_ion_matrix(levels: int, kind: str) -> np.ndarray:
    m = np.zeros((levels, levels), dtype=complex)
    if kind == "lower":
        m[DOWN, UP] = 1.0
    elif kind == "raise":
        m[UP, DOWN] = 1.0
    elif kind == "x":
        m[UP, DOWN] = 1.0
        m[DOWN, UP] = 1.0
    elif kind == "z":
        m[UP, UP] = 1.0
        m[DOWN, DOWN] = -1.0
    elif kind == "project_o":
        m[LEAK, LEAK] = 1.0
    elif kind == "leak_from_up":
        m[LEAK, UP] = 1.0
    elif kind == "leak_from_down":
        m[LEAK, DOWN] = 1.0
    else:
        raise ValueError(f"unknown spin operator kind {kind!r}")
    return m


def build_spin_op(dims: SystemDims, ion: int, kind: str) -> OperatorMatrix:
    """Single-ion operator embedded in the full space.

    kind is one of "lower" (|down><up|), "raise", "x", "z", "project_o",
    "leak_from_up" (|o><up|) and "leak_from_down" (|o><down|); the last
    three need the leak level.  The ion index is 0-based.  Pauli-type
    operators act as zero on the leak level when it is present.

    Operators are memoized with build_mode_op's, see _embedded_operator:
    the result is shared between callers and its matrix is read-only.
    """
    if not 0 <= ion < dims.n_ions:
        raise ValueError(f"ion index {ion} outside 0..{dims.n_ions - 1}")
    if kind in ("project_o", "leak_from_up", "leak_from_down") and not dims.leak_level:
        raise ValueError(f"{kind} requires leak_level")
    return _embedded_operator(dims, ion, kind)


def build_mode_op(dims: SystemDims, kind: str) -> OperatorMatrix:
    """Truncated ladder operator on the motional mode.

    kind is one of "annihilate", "create" and "number".  "create" is the
    adjoint of "annihilate" on the truncated space, so the coupling out of
    the top level n_fock-1 is dropped.

    Operators are memoized with build_spin_op's, see _embedded_operator:
    the result is shared between callers and its matrix is read-only.
    """
    if dims.n_fock < 2:
        raise ValueError("mode operators need n_fock >= 2")
    return _embedded_operator(dims, None, kind)


@functools.lru_cache(maxsize=32)
def _embedded_operator(dims: SystemDims, ion: int | None, kind: str) -> OperatorMatrix:
    """The operator of build_spin_op on ion, or of build_mode_op if ion is None.

    The memo of both constructors, keyed by (dims, ion, kind), so each
    operator's kron chain and Hermiticity check run once per key.  It holds
    at most 32 operators, more than the 24 kinds of one SystemDims (seven
    per ion of three, three for the mode), so a run on one or two spaces
    builds each operator once; at dim 324 (three ions, leak level, 12 Fock
    states) an operator takes 1.7 MB.  The matrix is made read-only because
    every caller shares it.
    """
    if ion is None:
        n = dims.n_fock
        a = np.zeros((n, n), dtype=complex)
        for k in range(1, n):
            a[k - 1, k] = np.sqrt(k)
        if kind == "annihilate":
            mode = a
        elif kind == "create":
            mode = a.conj().T
        elif kind == "number":
            mode = np.diag(np.arange(n, dtype=float)).astype(complex)
        else:
            raise ValueError(f"unknown mode operator kind {kind!r}")
        op = np.kron(np.eye(dims.spin_dim), mode)
        hermitian = kind == "number"
    else:
        levels = dims.levels_per_ion
        op = np.array([[1.0 + 0j]])
        for i in range(dims.n_ions):
            factor = _single_ion_matrix(levels, kind) if i == ion else np.eye(levels)
            op = np.kron(op, factor)
        op = np.kron(op, np.eye(dims.n_fock))
        hermitian = kind in ("x", "z", "project_o")
    op.setflags(write=False)
    return OperatorMatrix(dims, op, hermitian)


def named_state(dims: SystemDims, name: str, fock_n: int = 0) -> PureState:
    """One of the named spin states, tensored with Fock level fock_n.

    Phase conventions for the twisted single-excitation states:

        |Wc>  = (e^{ i 2pi/3}|uud> + |udu> + e^{-i 2pi/3}|duu>) / sqrt(3)
        |Wac> = (e^{-i 2pi/3}|uud> + |udu> + e^{ i 2pi/3}|duu>) / sqrt(3)

    and the barred versions with ups and downs exchanged.

    States are memoized by (dims, name, fock_n), see _named_state: the
    result is shared between callers and its amplitudes are read-only.
    """
    if name not in _NAMED_SPINS:
        raise ValueError(f"unknown state name {name!r}; choose from {NAMED_STATES}")
    n_ions = len(_NAMED_SPINS[name][0][1])
    if n_ions != dims.n_ions:
        raise ValueError(f"state {name!r} requires {n_ions} ions, dims has {dims.n_ions}")
    return _named_state(dims, name, fock_n)


@functools.lru_cache(maxsize=32)
def _named_state(dims: SystemDims, name: str, fock_n: int) -> PureState:
    """The state of named_state, built and norm-checked once per key.

    The memo of named_state and spin_state.  A sweep cell asks for the
    same start and target state on the same dims, and a trace scenario for
    four targets, so 32 entries cover a run on a few spaces; an entry takes
    at most 5 kB (dim 324).
    """
    amp = np.zeros(dims.dim, dtype=complex)
    for coeff, spins in _NAMED_SPINS[name]:
        amp[dims.basis_index(spins, fock_n)] = coeff
    amp /= np.linalg.norm(amp)
    amp.setflags(write=False)
    return PureState(dims, amp)


def spin_state(dims: SystemDims, name: str) -> PureState:
    """Named spin state on a motion-less copy of dims (n_fock = 1), memoized with named_state."""
    spin_dims = SystemDims(dims.n_ions, 1, dims.leak_level)
    return named_state(spin_dims, name, 0)


def thermal_weights(n_bar: float, n_fock: int) -> np.ndarray:
    """Thermal occupation weights renormalized over the truncated levels."""
    if not (0 <= n_bar < np.inf):
        raise ValueError("n_bar must be finite and >= 0")
    if n_bar == 0:
        w = np.zeros(n_fock)
        w[0] = 1.0
        return w
    q = n_bar / (1.0 + n_bar)
    tail = q**n_fock
    if tail >= 1e-6:
        raise TruncationError(
            f"thermal tail weight {tail:.2e} beyond level {n_fock - 1} exceeds 1e-6; increase n_fock"
        )
    w = q ** np.arange(n_fock)
    return w / w.sum()


def thermal_product_state(dims: SystemDims, spin: PureState, n_bar: float) -> DensityOperator:
    """Pure spin state tensored with a thermal motional mode.

    The spin argument lives on a motion-less space (n_fock = 1) with the same
    ion content as dims.
    """
    if spin.dims.n_ions != dims.n_ions or spin.dims.leak_level != dims.leak_level:
        raise ValueError("spin state dims do not match the target dims")
    if spin.dims.n_fock != 1:
        raise ValueError("spin argument must be a spin-only state (n_fock = 1)")
    weights = thermal_weights(n_bar, dims.n_fock)
    rho_spin = np.outer(spin.amplitudes, spin.amplitudes.conj())
    rho = np.kron(rho_spin, np.diag(weights)).astype(complex)
    return DensityOperator(dims, rho)


def partial_trace_motion(dims: SystemDims, state) -> np.ndarray:
    """Spin-only density matrix with the motional mode traced out.

    state is a PureState or a DensityOperator, which gives one
    (spin_dim, spin_dim) matrix, or an array of samples stacked along a
    leading axis, (T, dim) amplitudes or (T, dim, dim) density matrices,
    which gives (T, spin_dim, spin_dim).
    """
    if isinstance(state, PureState):
        return partial_trace_motion(dims, state.amplitudes[None])[0]
    if isinstance(state, DensityOperator):
        return partial_trace_motion(dims, state.matrix[None])[0]
    if state.ndim == 2:
        psi = state.reshape(len(state), dims.spin_dim, dims.n_fock)
        return psi @ psi.conj().swapaxes(1, 2)
    rho = state.reshape(len(state), dims.spin_dim, dims.n_fock, dims.spin_dim, dims.n_fock)
    return np.einsum("tanbn->tab", rho)


def up_count_projectors(dims: SystemDims) -> list[np.ndarray]:
    """Diagonal masks selecting exactly k ions in the up state, k = 0..N.

    Configurations with any ion in the leak level belong to none of the
    masks; their total weight is the leakage population.
    """
    masks = [np.zeros(dims.dim) for _ in range(dims.n_ions + 1)]
    for config in dims.spin_configurations():
        if any(s == LEAK for s in config):
            continue
        k = sum(1 for s in config if s == UP)
        base = dims.spin_index(config) * dims.n_fock
        masks[k][base : base + dims.n_fock] = 1.0
    return masks


def leak_sectors(dims: SystemDims) -> list[np.ndarray]:
    """Basis indices grouped by which ions sit in the leak level.

    One ascending index array per leak set, the unleaked set first; without
    a leak level the one set is the whole space.  Drives, Stark shifts and
    heating act within a set, and a jump into the leak level only adds an
    ion to it, so a density matrix that is block diagonal over these sets
    stays so under the master equation.
    """
    leaked = np.array(dims.spin_configurations()) == LEAK
    key = np.repeat(leaked @ (1 << np.arange(dims.n_ions)), dims.n_fock)
    return [np.flatnonzero(key == k) for k in np.unique(key)]


def cycle_shift(dims: SystemDims, step: int) -> tuple[np.ndarray, np.ndarray]:
    """(image, phase) of U = (the cyclic ion shift) x exp(2 pi i step n /
    n_ions), which moves each ion's level to the next ion (the last to the
    first) and multiplies Fock level n by its phase: U|j> = phase[j]
    |image[j]> for each basis index j."""
    configs = np.array(dims.spin_configurations())
    spin_image = np.roll(configs, 1, axis=1) @ dims.levels_per_ion ** np.arange(dims.n_ions - 1, -1, -1)
    fock = np.arange(dims.n_fock)
    image = (spin_image[:, None] * dims.n_fock + fock).ravel()
    return image, np.tile(np.exp(2j * np.pi * (step * fock % dims.n_ions) / dims.n_ions), dims.spin_dim)


def cycle_sectors(dims: SystemDims, step: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """(w, sector, rep): an orthonormal eigenbasis of cycle_shift's U.

    Column c of the sparse unitary w is the Fourier vector exp(-2 pi i k j
    / r) / sqrt(r) over the r configurations U^j s of one orbit at one Fock
    level n, so U w_c = exp(2 pi i sector[c] / n_ions) w_c with sector[c] =
    (step n + k n_ions / r) mod n_ions.  rep[c], the basis index of (U^k s,
    n), lies on the column's support and carries its Fock level, up count
    and leak set; rep is a permutation.
    """
    n, nf = dims.n_ions, dims.n_fock
    spin_image = cycle_shift(dims, step)[0][::nf] // nf
    entries = []  # (rows, columns, values) of each column of one orbit and Fourier index k
    sector, rep = np.empty(dims.dim, dtype=int), np.empty(dims.dim, dtype=int)
    seen, col, fock = np.zeros(dims.spin_dim, dtype=bool), 0, np.arange(nf)
    for first in range(dims.spin_dim):
        if seen[first]:
            continue
        orbit = [first]
        while spin_image[orbit[-1]] != first:
            orbit.append(spin_image[orbit[-1]])
        seen[orbit] = True
        r, rows = len(orbit), np.array(orbit)[:, None] * nf + fock
        for k in range(r):
            cols = col + fock
            vals = np.exp(-2j * np.pi * k * np.arange(r) / r)[:, None] / np.sqrt(r)
            entries.append([np.broadcast_to(x, rows.shape).ravel() for x in (rows, cols, vals)])
            sector[cols], rep[cols] = (step * fock + k * n // r) % n, rows[k]
            col += nf
    rows, cols, vals = (np.concatenate(x) for x in zip(*entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dims.dim, dims.dim)), sector, rep


def leak_mask(dims: SystemDims) -> np.ndarray:
    """Diagonal mask of the basis states with at least one ion leaked."""
    mask = np.ones(dims.dim)
    mask[leak_sectors(dims)[0]] = 0.0
    return mask
