"""Exact root multiplicities of symmetrizable Kac-Moody algebras.

The engine discovers every positive root up to a height cap: real roots by
closing Weyl orbits of the simple roots, imaginary roots by evaluating the
Peterson recurrence on the points of the fundamental chamber in ascending
height order.  All arithmetic is exact, and every bilinear-form evaluation
is counted so the measured cost can be compared against the closed-form
cost of the naive full-lattice algorithm.

A run of the engine loads only the engine.  The names it never calls
resolve on first access, each from the one module that defines it: the
naive oracle and its arbiter primitives from rootmult.oracle, the Hilbert
basis of the chamber from rootmult.hilbert.  So importing the package pays
for neither of them, nor for fractions.
"""

from .cartan import (
    CartanMatrix,
    NotGCM,
    NotSymmetrizable,
    automorphisms,
    build,
    rho_pair,
)
from .chamber import chamber_points
from .lattice import height, render
from .metrics import (
    KillingCounter,
    counter_snapshot,
    k_ascent_measured,
    k_naive_closed,
)
from .peterson import (
    HeightExceedsCap,
    NonIntegerMultiplicity,
    RootRecord,
    RootTable,
    ZeroDenominator,
    c_value,
    compute_all,
    mobius_mult,
    peterson_c,
    pingpong,
    query_mult,
)
from .presets import preset_matrix, tree_matrix

__version__ = "0.1.0"

# Each name loaded on first access, with the submodule that defines it.
_LAZY = {
    **dict.fromkeys(("OracleTable", "compare_tables", "naive_compute", "killing",
                     "reflect", "coord_gcd", "divisors", "subroots"), "oracle"),
    **dict.fromkeys(("CapExceeded", "extreme_rays", "hilbert_basis", "in_chamber"),
                    "hilbert"),
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CartanMatrix",
    "NotGCM",
    "NotSymmetrizable",
    "automorphisms",
    "build",
    "killing",
    "reflect",
    "rho_pair",
    "CapExceeded",
    "chamber_points",
    "extreme_rays",
    "hilbert_basis",
    "in_chamber",
    "coord_gcd",
    "divisors",
    "height",
    "render",
    "subroots",
    "KillingCounter",
    "counter_snapshot",
    "k_ascent_measured",
    "k_naive_closed",
    "OracleTable",
    "compare_tables",
    "naive_compute",
    "HeightExceedsCap",
    "NonIntegerMultiplicity",
    "RootRecord",
    "RootTable",
    "ZeroDenominator",
    "c_value",
    "compute_all",
    "mobius_mult",
    "peterson_c",
    "pingpong",
    "query_mult",
    "preset_matrix",
    "tree_matrix",
]
