"""Numerical calculus of eps-nets of smooth maps between chart atlases.

Nets of smooth maps are compared and classified by asymptotic verdicts:
c-boundedness, chart-wise moderateness, order-0 and full equivalence, point
evaluation, composition, tangent maps, vector-bundle homomorphisms, and
pointwise tensor insertion, all rendered as Pass/Fail/Inconclusive with
fitted log-log slopes and failure witnesses.
"""

from .asymptotics import (
    EpsGrid,
    OrderEstimate,
    Status,
    SupSeries,
    Verdict,
    Witness,
    fit_order,
    judge_moderate,
    judge_negligible,
    judge_vanishing,
)
from .config import DEFAULT_CONFIG, Config
from .gmap import (
    MapNet,
    angle_net,
    check_cbounded,
    check_equiv,
    check_equiv0,
    check_moderate,
    check_single_chart,
    compose,
    embed_smooth,
    scalar_net,
)
from .gpoints import GenNumber, GenPoint, eval_at, points_equal, separate_by_points
from .manifold import (
    Atlas,
    Box,
    BundleElement,
    Chart,
    CompactRegion,
    LocalMap,
    Point,
    RiemannianMetric,
    SmoothMap,
    VectorBundle,
    circle_atlas,
    disjoint_union,
    distance,
    euclidean_atlas,
    euclidean_multichart,
    fiber_norm,
    product_atlas,
    region_box,
    sphere_atlas,
    tangent_bundle,
    transition,
    trivial_bundle,
)
from .vbundle import (
    SectionNet,
    TensorSectionNet,
    VBHomNet,
    VBPoint,
    align_representative,
    check_section_moderate,
    check_vbhom_equiv,
    check_vbhom_moderate,
    fiber_combine,
    section_eval,
    section_zero_witness,
    tangent,
    tensor_insert,
    vbhom_eval,
    vbpoints_equal,
)

__version__ = "0.1.0"
