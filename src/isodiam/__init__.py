"""Constant-curvature geometry, two-point symmetrization, and isodiametric checks."""

from .convexity import (
    HemisphereCertificate,
    ball_convexity_probe,
    hemisphere_center,
    hull_diameter_check,
    min_norm_point,
)
from .experiments import (
    CampaignConfig,
    CampaignReport,
    greedy_maximal,
    random_admissible_region,
    verify_isodiametric,
)
from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    Ball,
    Hyperplane,
    Space,
    ball_volume,
    bisector,
    distance,
    form,
    geodesic_point,
    normalize_to_space,
    project_gnomonic,
    reflect,
    side,
    tangent_toward,
)
from .regionio import load_region, region_digest, save_region
from .regions import (
    Difference,
    Intersection,
    PointCloud,
    Symmetrized,
    Union,
    VolumeEstimate,
    bounding_ball,
    contains,
    diameter,
    exact_area,
    hausdorff,
    sample,
    uniform_in_ball,
    volume_estimate,
)
from .symmetrize import (
    FarthestPairBisector,
    FlowReport,
    MetricsConfig,
    RandomThroughPole,
    choose_hyperplane,
    flow_step,
    run_flow,
    two_point_symmetrize,
)

__version__ = "0.1.0"
