"""Finite-state Markov-driven random dynamical systems.

Decides irreducibility and strict irreducibility of driving kernels,
ergodicity of the induced step skew products, synthesizes the two Id/swap
counterexample constructions, and computes the limits of random ergodic
averages both exactly and by reproducible Monte Carlo.
"""

from .dynamics import (
    FiniteMeasureSpace,
    TransformationFamily,
    conditional_expectation,
    family_invariant_partition,
    uniform_space,
)
from .ergodic import (
    birkhoff_average,
    cesaro_partial_averages,
    convergence_report,
    exact_birkhoff_limit,
    exact_cesaro_limit,
    expectation_operator,
    orbit_occupancy,
    sample_path,
    substream,
)
from .errors import (
    DimensionMismatch,
    GenerationFailed,
    InternalInconsistency,
    InvalidPairState,
    MultipleStationary,
    NotApplicable,
    NotInvariant,
    NotMeasurePreserving,
    ParseError,
    RowNotStochastic,
    StartOffSupport,
    TheoremViolation,
    TooLarge,
    ValidationError,
)
from .kernels import (
    MarkovSpec,
    ProbVector,
    StochasticMatrix,
    dual_sim_classes,
    is_irreducible,
    is_strictly_irreducible,
    reach_set,
    reverse_kernel,
    sim_classes,
    stationary_distribution,
    strict_irreducibility_routes,
    trivial_kernel,
    validate_spec,
)
from .oracles import (
    GeneratorConfig,
    brute_force_deterministic_sets,
    brute_force_invariant_sets,
    generate_family,
    generate_space,
    generate_spec,
    statistical_ergodicity_probe,
)
from .skew import (
    ErgodicityReport,
    SkewSystem,
    build_base_counterexample,
    build_counterexample_family,
    check_product_structure,
    counterexample_invariant_set,
    invariant_function_basis,
)

__version__ = "0.1.0"
