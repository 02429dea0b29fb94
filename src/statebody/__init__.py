"""Monte Carlo geometry of quantum state bodies.

The set of density matrices and its positive-partial-transpose section are
bodies of constant height: every generic boundary face is tangent to the
insphere around the maximally mixed state, the ratio r * A / V equals the body
dimension, and the interior-to-boundary PPT probability ratio equals two.
This package samples, certifies and cross-validates those facts numerically.
"""

__version__ = "0.6.0"

from .config import ConfigError, ExperimentConfig, config_from_dict, config_from_json
from .estimators import (
    AreaCrossCheck,
    CornerProbeResult,
    Estimate,
    InnerLaw,
    InsufficientSamplesError,
    OmegaReport,
    RadiusLaw,
    corner_probe,
    cross_validate_area,
    estimate_omega,
    estimate_p_boundary,
    estimate_p_interior,
    inner_law,
    mc_area,
    mc_gamma,
    mc_volume,
    radius_law,
    sphere_area,
)
from .experiments import run_experiment, summary_line
from .geometry import (
    BodySpec,
    NonGenericDirectionError,
    inscribed_radius,
    support_height,
    tangency_state,
)
from .hermitian import (
    BipartiteShape,
    DimensionMismatchError,
    maximally_mixed,
    partial_transpose,
)
from .polytopes import (
    TangentBody,
    UnboundedBodyError,
    cross_generators,
    cube_generators,
    intersect_bodies,
    random_unit_generators,
    simplex_generators,
)
from .records import ResultRecord, load_records, render_report, write_record
from .sampling import (
    RngStream,
    boundary_eigenvalues_laguerre,
    boundary_eigenvalues_wishart,
    sample_boundary_state_hs,
    sample_direction,
    sample_state_hs,
)
from .validation import sampler_validation, two_sample_chi2

__all__ = [name for name in dir() if not name.startswith("_")]
