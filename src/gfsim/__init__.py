"""Photon transport and state transfer in a cavity array with square-root
couplings J_k = J*sqrt(k).

Layers: `model` (configs and Hamiltonians), `dynamics` (exact single-excitation
evolution), `analytics` (closed forms for the resonant walk), `protocol`
(degenerate-doublet transfer plans), `open_system` (uniform-loss master
equation), `cli` (figure-ready tables).
"""

__version__ = "0.1.0"

from .errors import (
    ClosedFormInapplicableError,
    ConfigError,
    DoubletNotResolvedError,
    GfsimError,
    NumericalInvariantError,
    RegimeError,
)
from .model import (
    ArrayConfig,
    HamiltonianMatrix,
    build_couplings,
    build_hamiltonian,
    config_from_dict,
    config_to_dict,
    switching_frequencies,
    wrap_phase,
)
from .dynamics import (
    ExcitationState,
    SpectralDecomposition,
    decompose,
    evolve,
    qubit_state,
    single_photon_state,
    transfer_amplitude,
    transfer_probability,
)
from .analytics import (
    TruncatedCoherentProfile,
    regularized_upper_tail,
    truncated_coherent_amplitudes,
)
from .protocol import (
    DoubletPurityWarning,
    TransferPlan,
    make_plan,
    plan_config,
    qubit_fidelity_curve,
)
from .open_system import (
    DensityMatrix,
    FidelityCurve,
    MasterRun,
    average_transfer_fidelity,
    integrate_master,
    reference_qubit_states,
    sample_qubit_states,
)

__all__ = [
    "__version__",
    "GfsimError", "ConfigError", "RegimeError", "ClosedFormInapplicableError",
    "DoubletNotResolvedError", "NumericalInvariantError",
    "ArrayConfig", "HamiltonianMatrix",
    "build_couplings", "build_hamiltonian",
    "switching_frequencies", "config_from_dict", "config_to_dict", "wrap_phase",
    "ExcitationState", "SpectralDecomposition", "decompose", "evolve",
    "single_photon_state", "qubit_state",
    "transfer_amplitude", "transfer_probability",
    "TruncatedCoherentProfile", "regularized_upper_tail",
    "truncated_coherent_amplitudes",
    "TransferPlan", "DoubletPurityWarning", "make_plan",
    "plan_config", "qubit_fidelity_curve",
    "DensityMatrix", "MasterRun", "FidelityCurve",
    "integrate_master", "sample_qubit_states",
    "reference_qubit_states", "average_transfer_fidelity",
]
