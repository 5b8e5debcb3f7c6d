"""Certified nonclassicality bounds for continuous-variable states on truncated Fock space."""

from .errors import (
    BoundConsistencyError,
    ConfigurationError,
    CvresError,
    DegenerateParameterError,
    InsufficientCutoffError,
    UsageError,
)
from .fock_core import (
    DensityOperator,
    coherent_vector,
    dephase,
    partial_trace,
    tensor_states,
    trace_distance,
)
from .states import (
    FockDiagonalState,
    GaussianDescriptor,
    StateSpec,
    exact_energy,
    gaussian_descriptor,
    make_state,
)
from .entropies import (
    OptimizerReport,
    QuadratureGrid,
    husimi_q,
    kl_divergence,
    measured_relative_entropy,
    relative_entropy,
    von_neumann_entropy,
    wehrl_entropy,
)
from .nonclassicality import (
    MonotoneBound,
    basel_divergence_bound,
    bound_sandwich,
    cat_gamma_lower_bound,
    cat_mixture_upper_bound,
    centred_dephased_ncm,
    classical_ansatz_upper_bound,
    coherent_sup_certified,
    energy_upper_bound,
    fock_closed_form,
    fock_diagonal_ncm,
    g_thermal,
    gamma_lower_bound,
    gaussian_bounds,
    husimi_lower_bound,
    husimi_sup,
    ideal_energy,
    noisy_fock_closed_form,
    quadrature_lower_bound,
    truncation_certificate,
    wehrl_upper_bound,
)
from .rates import (
    ProtocolOutcome,
    RateBound,
    cat_amplification,
    cat_dilution,
    closed_form_ps,
    fock_dilution,
    free_energy,
    protocol_figure_data,
    rate_upper_bound,
    thermo_rate_bound,
)

__version__ = "0.1.0"
