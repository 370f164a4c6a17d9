"""Simulation and analysis toolkit for restricted-subspace entanglement
generation in small trapped-ion chains.

The package covers the full chain from drive Hamiltonians to readout
statistics: composite Hilbert space and operators (hilbert), sideband and
carrier Hamiltonians plus noise (model), exact and dissipative propagation
(dynamics), dressed-state analysis of the off-resonant subspace (dressed,
threeion), pulse planning and error budgets (protocol), and the
maximum-likelihood tomography and bootstrap readout chain (tomography).
The cli module runs named scenarios from configuration files.
"""

from .dressed import (
    DressedSpectrum,
    PerturbativeTrace,
    balanced_detuning,
    dressed_spectrum,
    find_balanced_detunings,
    perturbative_composite,
    perturbative_single,
    scan_detuning,
    undesired_hamiltonian,
)
from .dynamics import PopulationRecord, Trajectory, evolve_pure
from .errors import ConfigError, ConvergenceError, NumericsError, TruncationError, ZenosimError
from .hilbert import (
    DensityOperator,
    OperatorMatrix,
    PureState,
    SystemDims,
    build_mode_op,
    build_spin_op,
    named_state,
    spin_state,
    thermal_product_state,
)
from .model import (
    IonGeometry,
    NoiseModel,
    PulseSchedule,
    PulseSegment,
    lindblad_operators,
    microwave_hamiltonian,
    sideband_hamiltonian,
    stark_hamiltonian,
)
from .protocol import (
    ErrorBudget,
    ProtocolPlan,
    error_budget,
    experimental_override,
    fine_tune,
    plan_composite,
    plan_schedule,
    plan_single,
    plan_three_ion,
    simulate_plan_fidelity,
    spontaneous_preset,
    three_ion_preset,
)
from .threeion import ThreeIonLadder, three_ion_ladder
from .tomography import (
    CountHistogram,
    DetectionModel,
    FitInputs,
    MeasurementDesign,
    TomographyEstimate,
    analysis_design,
    bootstrap,
    choose_bins,
    fit_ml,
    read_histogram,
    simulate_histogram,
    systematic_sweep,
    write_histogram,
)

__version__ = "0.1.0"
