"""Boson-sampling outcome probabilities on lossy interferometers.

The package offers four mutually validating routes to the same number:

* a tensor-train engine that evolves either the squeezed input forward or the
  outcome projector backward through the circuit (:mod:`gbstn.tnet`),
* a dense Fock-space oracle for small systems (:mod:`gbstn.fockdense`),
* the exact Gaussian covariance/hafnian formula (:mod:`gbstn.gauss`),

plus the cutoff-selection and bond-dimension estimators of
:mod:`gbstn.analysis` and a command-line front end (:mod:`gbstn.cli`).
"""

from .circuit import (
    Circuit,
    Gate,
    GateParams,
    build_brickwork,
    circuit_to_mode_unitary,
    kraus_set,
    load_circuit,
    save_circuit,
    transfer_matrix,
    with_uniform_loss,
)
from .errors import NumericalFailureError, ResourceLimitError, UnsupportedConfigurationError
from .fockdense import (
    DenseDensity,
    DenseState,
    dense_evolve_density,
    dense_evolve_state,
    dense_probability,
    dense_squeezed_vacuum,
)
from .gauss import (
    GaussianState,
    gbs_probability,
    hafnian,
    photon_pair_distribution,
    propagate,
    propagate_circuit,
    squeezed_vacuum_cov,
    uniform_loss,
)
from .analysis import (
    CutoffPolicy,
    choose_cutoff,
    delta_gamma,
    dmax_bipartite,
    dmax_closed_form,
    dmax_fbs,
    dmax_gbs,
    mode_of_distribution,
    outcomes_with_total,
    pi_gamma,
    scaling_rows,
)
from .tnet import (
    EvolutionStats,
    TensorTrain,
    TruncationPolicy,
    fock_mps,
    fock_projector_mpo,
    heisenberg_probability_lossless,
    heisenberg_probability_lossy,
    mpo_expectation,
    mps_overlap,
    schrodinger_probability,
    squeezed_mps,
)

__version__ = "0.1.0"
