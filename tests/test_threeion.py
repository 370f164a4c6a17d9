import numpy as np

from zenosim.dynamics import evolve_pure
from zenosim.hilbert import SystemDims, named_state
from zenosim.model import IonGeometry, PulseSchedule, PulseSegment, carrier_pi_time, sideband_hamiltonian
from zenosim.threeion import three_ion_ladder

from _runs import fidelity

OMEGA_S = 2 * np.pi * 19.0e3
OMEGA_D = 2 * np.pi * 1.24e3


def test_ladder_couplings():
    ladder = three_ion_ladder(OMEGA_S, OMEGA_D)
    hs, hd = ladder.sideband_couplings, ladder.microwave_couplings
    # W,0 column of the sideband vanishes; Wbar,0 couples only to Wc,1
    assert np.linalg.norm(hs[:, 1]) < 1e-12 * OMEGA_S
    assert abs(hs[3, 2]) > 0.5 * OMEGA_S
    # uuu,0 has no quanta to exchange
    assert np.linalg.norm(hs[:, 0]) < 1e-12 * OMEGA_S
    # carrier ladder elements sqrt(3), 2, sqrt(3)
    assert abs(hd[1, 0] - np.sqrt(3) * OMEGA_D) < 1e-9
    assert abs(hd[2, 1] - 2.0 * OMEGA_D) < 1e-9
    assert abs(hd[4, 2] - np.sqrt(3) * OMEGA_D) < 1e-9


def test_full_space_dark_state():
    dims = SystemDims(3, 4)
    geom = IonGeometry.three_ion_com()
    h = sideband_hamiltonian(dims, geom, PulseSegment(1.0, OMEGA_S, 0.0, 0.0)).matrix
    w0 = named_state(dims, "W", 0).amplitudes
    assert np.linalg.norm(h @ w0) < 1e-12 * OMEGA_S


def test_effective_two_level_dynamics():
    """At Omega_s'/Omega_d' ~ 15 the population stays in {uuu,0; W,0} and the
    flop peaks at pi / (2 sqrt(3) Omega_d') within 2%."""
    dims = SystemDims(3, 6)
    geom = IonGeometry.three_ion_com()
    t_pi = carrier_pi_time(OMEGA_D, 3)
    schedule = PulseSchedule((PulseSegment(1.25 * t_pi, OMEGA_S, OMEGA_D, 0.0),))
    traj = evolve_pure(schedule, dims, geom, named_state(dims, "uuu", 0), t_pi / 300)
    w_target = named_state(dims, "W", 0)
    uuu_target = named_state(dims, "uuu", 0)
    fid_w = np.array([fidelity(dims, s, w_target) for s in traj.states])
    fid_u = np.array([fidelity(dims, s, uuu_target) for s in traj.states])
    assert np.min(fid_w + fid_u) > 0.95
    t_peak = traj.times[np.argmax(fid_w)]
    assert abs(t_peak - t_pi) < 0.02 * t_pi
    assert fid_w.max() > 0.97
