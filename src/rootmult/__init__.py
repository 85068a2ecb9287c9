"""Exact root multiplicities of symmetrizable Kac-Moody algebras.

The engine discovers every positive root up to a height cap: real roots by
closing Weyl orbits of the simple roots, imaginary roots by evaluating the
Peterson recurrence on the points of the fundamental chamber in ascending
height order.  All arithmetic is exact, and every bilinear-form evaluation
is counted so the measured cost can be compared against the closed-form
cost of the naive full-lattice algorithm.

The naive oracle (OracleTable, compare_tables, naive_compute) is loaded on
first use, so importing the package does not pay for it or for fractions.
"""

from .cartan import (
    CartanMatrix,
    NotGCM,
    NotSymmetrizable,
    automorphisms,
    build,
    killing,
    reflect,
    rho_pair,
)
from .chamber import (
    CapExceeded,
    chamber_points,
    extreme_rays,
    hilbert_basis,
    in_chamber,
)
from .lattice import coord_gcd, divisors, height, render, subroots
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


def __getattr__(name):
    if name in ("OracleTable", "compare_tables", "naive_compute"):
        from . import oracle

        return getattr(oracle, name)
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
