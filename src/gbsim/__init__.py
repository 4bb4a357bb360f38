"""gbsim: photon-counting statistics of linear-optical networks with
Gaussian input states.

The package provides three exact probability engines (general pairing sum,
thermal permanent, squeezed-vacuum pairing sum), an exact classical sampler
for classical Gaussian inputs with a per-shot weight estimator of any
pattern's probability, a sampling-based estimator for permanents of
positive-semidefinite Hermitian matrices, and a truncated-Fock-space oracle
used to validate all of the above.
"""

__version__ = "0.1.0"

from .engines import (
    enumerate_patterns,
    prob_general,
    prob_squeezed,
    prob_thermal,
)
from .errors import (
    ContractError,
    CostLimitError,
    CutoffError,
    GbsimError,
    NumericalIntegrityError,
    ValidationError,
)
from .interferometer import (
    Interferometer,
    haar_random,
    tmsv_network,
    validate_unitary,
)
from .matrix_functions import (
    HAFNIAN_LIMIT,
    PERMANENT_LIMIT,
    detected_modes,
    hafnian,
    permanent,
)
from .psd_permanent import (
    PermanentEstimate,
    ThermalEmbedding,
    embed,
    estimate_permanent,
    exact_permanent_psd,
)
from .qform import OutputQForm, build_qform
from .sampler import (
    PatternEstimate,
    SampleReport,
    estimate_probabilities,
    sample_patterns,
)
from .states import (
    GaussianModeState,
    QFunctionParams,
    derive_q_params,
    is_classical,
    mean_photon_number,
    squeezed,
    squeezed_thermal,
    state_from_descriptor,
    thermal,
    vacuum,
)

__all__ = [
    "__version__",
    "GaussianModeState", "QFunctionParams", "vacuum", "thermal", "squeezed",
    "squeezed_thermal", "derive_q_params", "is_classical", "mean_photon_number",
    "state_from_descriptor",
    "Interferometer", "validate_unitary", "haar_random", "tmsv_network",
    "OutputQForm", "build_qform",
    "permanent", "hafnian", "detected_modes",
    "PERMANENT_LIMIT", "HAFNIAN_LIMIT",
    "enumerate_patterns", "prob_general", "prob_thermal", "prob_squeezed",
    "SampleReport", "sample_patterns", "PatternEstimate", "estimate_probabilities",
    "ThermalEmbedding", "PermanentEstimate", "embed", "estimate_permanent",
    "exact_permanent_psd",
    "GbsimError", "ValidationError", "ContractError", "CutoffError",
    "CostLimitError", "NumericalIntegrityError",
]
