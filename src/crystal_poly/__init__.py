"""Polyhedral realizations of affine crystals.

Exact-integer tooling for four affine families: the word/coupling context,
the operator model on eventually-zero integer sequences, inequality
generation by rewriting closures, closed-form inequality families indexed by
shapes (extended Young diagrams, their revised two-sided variant, and Young
walls), and brute-force oracles for cross-checking.
"""

from .cartan import Context, weight_from_config
from .crystal import CrystalOps, ZVector
from .inequalities import (
    ClosureResult,
    LinearForm,
    boundary_closure_for_color,
    check_ample,
    check_positivity,
    check_strict_positivity,
    coupling_form,
    limit_inequalities,
    epsilon_star_forms,
    membership,
    membership_family,
    offset_closure_for_color,
    rewrite,
    rewrite_plain,
    seed_offset,
    sorted_forms,
    variable,
    weight_inequalities,
    weight_seed,
)
from .oracle import (
    crosscheck_membership,
    epsilon_star_oracle,
    generate_closure,
    random_reachable,
    reaches_origin,
    weight_graded_counts,
)
from .shapes import (
    ExtendedYoungDiagram,
    RevisedEYD,
    YoungWall,
    comb_infinity,
    comb_lambda,
    comb_lambda_case,
    enumerate_shapes,
    eyd_form,
    ground_shape,
    left_ladder,
    reyd_form,
    right_ladder,
    shape_form,
    shape_kind,
    wall_form,
    weight_family,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureResult",
    "Context",
    "CrystalOps",
    "ExtendedYoungDiagram",
    "LinearForm",
    "RevisedEYD",
    "YoungWall",
    "ZVector",
    "boundary_closure_for_color",
    "check_ample",
    "check_positivity",
    "check_strict_positivity",
    "comb_infinity",
    "comb_lambda",
    "comb_lambda_case",
    "coupling_form",
    "crosscheck_membership",
    "enumerate_shapes",
    "epsilon_star_forms",
    "epsilon_star_oracle",
    "eyd_form",
    "generate_closure",
    "ground_shape",
    "left_ladder",
    "limit_inequalities",
    "membership",
    "membership_family",
    "offset_closure_for_color",
    "random_reachable",
    "reaches_origin",
    "rewrite",
    "rewrite_plain",
    "reyd_form",
    "right_ladder",
    "seed_offset",
    "shape_form",
    "shape_kind",
    "sorted_forms",
    "variable",
    "wall_form",
    "weight_family",
    "weight_from_config",
    "weight_graded_counts",
    "weight_inequalities",
    "weight_seed",
]
