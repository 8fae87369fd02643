"""otslice: Wasserstein, sliced and max-sliced distances for discrete measures.

Exact W_p via a transportation solve (assignment fast path for equal-size
uniform instances), exact 1D transport through quantile functions, sliced
estimators with deterministic sphere quadrature or Monte Carlo, heuristic
and certified max-sliced optimization, and a reproducible experiment layer.
"""

from . import errors
from .errors import (
    ArgumentOutOfRange,
    DegenerateInstance,
    DimensionMismatch,
    EmptySupport,
    InvalidDimension,
    InvalidOrder,
    InvalidSpec,
    NegativeWeight,
    NonFiniteCoordinates,
    OTSliceError,
    ProblemTooLarge,
    SolverFailure,
    UnsupportedDimension,
    WeightSumOutOfRange,
)
from .measures import (
    DiscreteMeasure,
    GeneratorSpec,
    generate,
    load_measure,
    make_discrete,
    moment_p,
    rng_stream,
    save_measure,
)
from .ot1d import (
    Measure1D,
    MonotoneCoupling,
    measure1d_from_samples,
    monotone_coupling,
    quantile,
    to_measure1d,
    wasserstein_1d,
    wasserstein_pp_batch,
)
from .ot_exact import DualCertificate, TransportPlan, dual_potentials_w1, duality_gap, wasserstein_exact
from .sphere import QuadratureGrid, as_unit, project, quadrature_grid, sample_uniform, surface_area
from .sliced import Scheme, SlicedEstimate, default_scheme, sliced_wasserstein
from .maxsliced import (
    DirectionResult,
    direction_ascent,
    max_sliced,
    max_sliced_certified,
    projected_cost_gradient,
    projected_distance,
)
from . import experiments

__version__ = "0.1.0"

__all__ = [
    "ArgumentOutOfRange",
    "DegenerateInstance",
    "DimensionMismatch",
    "DiscreteMeasure",
    "DirectionResult",
    "DualCertificate",
    "EmptySupport",
    "GeneratorSpec",
    "InvalidDimension",
    "InvalidOrder",
    "InvalidSpec",
    "Measure1D",
    "MonotoneCoupling",
    "NegativeWeight",
    "NonFiniteCoordinates",
    "OTSliceError",
    "ProblemTooLarge",
    "QuadratureGrid",
    "Scheme",
    "SlicedEstimate",
    "SolverFailure",
    "TransportPlan",
    "UnsupportedDimension",
    "WeightSumOutOfRange",
    "as_unit",
    "default_scheme",
    "direction_ascent",
    "dual_potentials_w1",
    "duality_gap",
    "errors",
    "experiments",
    "generate",
    "load_measure",
    "make_discrete",
    "max_sliced",
    "max_sliced_certified",
    "measure1d_from_samples",
    "moment_p",
    "monotone_coupling",
    "project",
    "projected_cost_gradient",
    "projected_distance",
    "quadrature_grid",
    "quantile",
    "rng_stream",
    "sample_uniform",
    "save_measure",
    "sliced_wasserstein",
    "surface_area",
    "to_measure1d",
    "wasserstein_1d",
    "wasserstein_exact",
    "wasserstein_pp_batch",
]
