"""Polyhedral realizations of affine crystals.

Exact-integer tooling for four affine families: the word/coupling context,
the operator model on eventually-zero integer sequences, inequality
generation by rewriting closures, closed-form inequality families indexed by
shapes (extended Young diagrams, their revised two-sided variant, and Young
walls), and brute-force oracles for cross-checking.

The root exports exactly the names the README documents; everything else is
reached through its module.  Importing the package loads no submodule: each
root name imports its home module on first access (PEP 562), so a command
that never touches the shapes or the oracles never compiles them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each exported name -> the module that defines it
_HOME = {
    "Context": "cartan",
    "CrystalOps": "crystal",
    "ZVector": "crystal",
    "LinearForm": "inequalities",
    "limit_inequalities": "inequalities",
    "membership": "inequalities",
    "membership_family": "inequalities",
    "comb_lambda": "shapes",
    "ExtendedYoungDiagram": "shapes",
    "RevisedEYD": "shapes",
    "YoungWall": "shapes",
    "eyd_form": "shapes",
    "reyd_form": "shapes",
    "wall_form": "shapes",
    "enumerate_shapes": "shapes",
    "generate_closure": "oracle",
    "reaches_origin": "oracle",
    "epsilon_star_oracle": "oracle",
    "crosscheck_membership": "oracle",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        # not a root name: ``from crystal_poly import shapes`` then imports
        # the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
