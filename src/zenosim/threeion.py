"""Three-ion restriction mechanism on the in-phase mode.

With the optical phase stepping by 2pi/3 across the chain, the symmetric
single-excitation state |W,0> is dark to the sideband (the three raising
paths interfere destructively), while |Wbar,0> is pushed out of resonance
through its coupling to |Wc,1>.  The carrier drive then only connects
|uuu,0> and |W,0>, an effective two-level system with pi time
pi / (2 sqrt(3) Omega_d').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import PureState, SystemDims, named_state
from .model import IonGeometry, PulseSegment, microwave_hamiltonian, sideband_hamiltonian

LADDER_STATES = ("uuu,0", "W,0", "Wbar,0", "Wc,1", "ddd,0")


@dataclass(frozen=True)
class ThreeIonLadder:
    """Sideband and carrier couplings restricted to the working states."""

    states: tuple[str, ...]
    sideband_couplings: np.ndarray
    microwave_couplings: np.ndarray
    omega_s: float
    omega_d: float


def _ladder_vectors(dims: SystemDims) -> list[PureState]:
    return [
        named_state(dims, "uuu", 0),
        named_state(dims, "W", 0),
        named_state(dims, "Wbar", 0),
        named_state(dims, "Wc", 1),
        named_state(dims, "ddd", 0),
    ]


def three_ion_ladder(omega_s_prime: float, omega_d_prime: float) -> ThreeIonLadder:
    """Restrict the full resonant Hamiltonians to the working states.

    Entries are computed from the full-space operators of the canonical 2pi/3
    phase geometry (IonGeometry.three_ion_com) on four Fock levels, not typed
    in, so this doubles as a check of the interference pattern: the column
    of the sideband matrix at |W,0> must vanish identically.
    """
    dims = SystemDims(3, 4)
    h_s = sideband_hamiltonian(dims, IonGeometry.three_ion_com(), PulseSegment(1.0, omega_s_prime)).matrix
    h_d = microwave_hamiltonian(dims, omega_d_prime).matrix
    vecs = _ladder_vectors(dims)
    n = len(vecs)
    hs = np.empty((n, n), dtype=complex)
    hd = np.empty((n, n), dtype=complex)
    for i, bra in enumerate(vecs):
        for j, ket in enumerate(vecs):
            hs[i, j] = np.vdot(bra.amplitudes, h_s @ ket.amplitudes)
            hd[i, j] = np.vdot(bra.amplitudes, h_d @ ket.amplitudes)
    return ThreeIonLadder(LADDER_STATES, hs, hd, omega_s_prime, omega_d_prime)
