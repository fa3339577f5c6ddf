"""Numerical toolkit for rate regions of the cognitive Z-interference channel.

Computes exact closed-form Gaussian achievable regions and capacity outer
bounds, exact mutual-information evaluation of the finite-alphabet regions,
and convex-hull geometry in the rate plane, with a CLI that renders the
standard comparison figures.
"""

from .bounds import (
    bcdms_region,
    co1_pentagon,
    co1_region,
    co2_region,
)
from .dmc import (
    DmcChannel,
    FactoredDist,
    check_high_interference,
    conditional_mi,
    eval_outer_co2_dmc,
    eval_region_R,
    eval_region_R1,
    eval_region_R2,
    eval_region_R3,
    mutual_information,
    random_dist,
    random_search_region,
)
from .gaussian import (
    b_condition,
    b_star,
    capacity_pentagon,
    capacity_region,
    g1_region,
    g2_pentagon,
    g2_region,
    g3_pentagon,
    g3p_pentagon,
    g3p_region,
    g_region,
    ga_pentagon,
    gb_pentagon,
    lambda_opt,
)
from .geometry import (
    ConvexRegion,
    SubsetReport,
    directed_gap,
    hull_of_union,
    intersect,
    pentagon_support,
    quadrant_directions,
    subset_within,
)
from .model import ChannelParams, Pentagon, RatePair

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ConvexRegion",
    "DmcChannel",
    "FactoredDist",
    "Pentagon",
    "RatePair",
    "SubsetReport",
    "b_condition",
    "b_star",
    "bcdms_region",
    "capacity_pentagon",
    "capacity_region",
    "check_high_interference",
    "co1_pentagon",
    "co1_region",
    "co2_region",
    "conditional_mi",
    "directed_gap",
    "eval_outer_co2_dmc",
    "eval_region_R",
    "eval_region_R1",
    "eval_region_R2",
    "eval_region_R3",
    "g1_region",
    "g2_pentagon",
    "g2_region",
    "g3_pentagon",
    "g3p_pentagon",
    "g3p_region",
    "g_region",
    "ga_pentagon",
    "gb_pentagon",
    "hull_of_union",
    "intersect",
    "lambda_opt",
    "mutual_information",
    "pentagon_support",
    "quadrant_directions",
    "random_dist",
    "random_search_region",
    "subset_within",
]
