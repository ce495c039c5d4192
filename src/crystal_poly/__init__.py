"""Polyhedral realizations of affine crystals.

Exact-integer tooling for four affine families: the word/coupling context,
the operator model on eventually-zero integer sequences, inequality
generation by rewriting closures, closed-form inequality families indexed by
shapes (extended Young diagrams, their revised two-sided variant, and Young
walls), and brute-force oracles for cross-checking.

The root exports exactly the names the README documents; everything else is
reached through its module.
"""

from .cartan import Context
from .crystal import CrystalOps, ZVector
from .inequalities import LinearForm, limit_inequalities, membership, membership_family
from .oracle import crosscheck_membership, epsilon_star_oracle, generate_closure, reaches_origin
from .shapes import (
    ExtendedYoungDiagram,
    RevisedEYD,
    YoungWall,
    comb_lambda,
    enumerate_shapes,
    eyd_form,
    reyd_form,
    wall_form,
)

__version__ = "0.1.0"

__all__ = [
    "Context",
    "CrystalOps",
    "ZVector",
    "LinearForm",
    "comb_lambda",
    "limit_inequalities",
    "membership",
    "membership_family",
    "ExtendedYoungDiagram",
    "RevisedEYD",
    "YoungWall",
    "eyd_form",
    "reyd_form",
    "wall_form",
    "enumerate_shapes",
    "generate_closure",
    "reaches_origin",
    "epsilon_star_oracle",
    "crosscheck_membership",
]
