"""momentflow: a numerical laboratory for the colored eigenvector moment flow.

Subpackages by concern:

- ensembles:    GOE, generalized Wigner, sparse graphs, heavy-tailed matrices,
                and the Gaussian perturbation H + sqrt(t) GOE
- spectral:     eigendecompositions, Stieltjes transforms, the free-convolution
                fixed point, classical locations, covariance forms
- flow:         the coupled eigenvalue/eigenvector SDEs and Monte Carlo moment
                estimation
- configspace:  even particle configurations, the reversible measure, move and
                exchange operators, kernel projections, conditional
                expectations, local projections
- relaxation:   propagators, Dirichlet forms, Poincare/Nash constants,
                ultracontractivity curves, finite speed of propagation
- ansatz:       Wick moments and the covariance-weighted ansatz observable
- harness:      experiment configs, verification suites, report emission, CLI
"""

from .ensembles import (
    EnsembleSpec,
    perturb_gaussian,
    sample_ensemble,
    sample_generalized_wigner,
    sample_goe,
    sample_levy,
    sample_sparse_graph,
)
from .spectral import (
    FreeConvolutionProfile,
    RegularityWindow,
    SpectralDecomposition,
    classical_locations,
    covariance_form,
    eig_sym,
    free_convolution_m,
    stieltjes,
    verify_assumptions,
)
from .configspace import (
    ConfigurationSpace,
    WeightedOperator,
    assemble_generator,
    chi_indicator,
    conditional_expectation,
    config_distance,
    enumerate_space,
    jump,
    kernel_projection,
    local_projection,
    matchings,
)
from .flow import (
    EigenPath,
    MomentRequest,
    estimate_moment,
    integrate_see,
)
from .relaxation import (
    CoefficientSchedule,
    dirichlet_form,
    fsp_profile,
    l1_growth,
    nash_ratio,
    poincare_constant,
    propagate,
    ultracontractivity_curve,
)
from .ansatz import ansatz_F, gaussian_wick_moment
from .harness import ExperimentConfig, emit_report, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
