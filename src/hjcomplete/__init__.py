"""Numerical construction and verification of isotropic complete
solutions of generalized Hamilton-Jacobi problems on R^{2s}."""

from .config import DEFAULT_TOLERANCES, Tolerances
from .construct import (
    AssumptionReport,
    CompleteSolution,
    ConstructionError,
    DomainBoxError,
    DualityError,
    FibrationError,
    FibrationPlan,
    FirstIntegralSubmersion,
    FrameExtensionError,
    FrameState,
    HypothesisError,
    TransversalityError,
    build_fibration,
    build_first_integrals,
    check_assumptions,
    extend_frame,
    init_frame,
    integrals_from_solution,
    solution_from_integrals,
)
from .expr import (
    EvaluationError,
    MapField,
    ParseError,
    ProceduralScalar,
    ScalarField,
    parse,
    serialize,
)
from .flows import (
    ChartError,
    FlowBoxChart,
    FlowError,
    IntegratorSettings,
    flow,
    flow_with_tangent,
)
from .newton import NewtonError, newton_solve
from .scenarios import REGISTRY, ConfigError, RunConfig, load_config, parse_config
from .standard import (
    CharacteristicFunction,
    QuadratureError,
    characteristic_family,
    characteristic_function,
    simple_hamiltonian,
    verify_characteristic,
)
from .symplectic import (
    Subspace,
    SubspaceClass,
    VectorField,
    classify,
    fd_jacobian,
    hamiltonian_vf,
    lie_bracket,
    nullspace,
    numerical_rank,
    omega,
    poisson,
    poisson_field,
    structure_matrix,
    symp_orth,
)
from .verify import (
    IntegrabilityReport,
    ResidualReport,
    SubmersionReport,
    first_integral_residual,
    hje_residual,
    integrability_report,
    isotropy_residual,
    sample_cube,
    submersion_checks,
)

__version__ = "0.1.0"
