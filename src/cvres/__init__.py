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
)
from .states import (
    FockDiagonalState,
    StateSpec,
    exact_energy,
    make_state,
)
from .entropies import (
    OptimizerReport,
    measured_relative_entropy,
    von_neumann_entropy,
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
    ideal_energy,
    ideal_entropy,
    noisy_fock_closed_form,
    quadrature_lower_bound,
    truncation_certificate,
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
