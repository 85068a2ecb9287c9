"""Exact root multiplicities of symmetrizable Kac-Moody algebras.

The engine discovers every positive root up to a height cap: real roots by
closing Weyl orbits of the simple roots, imaginary roots by evaluating the
Peterson recurrence on the points of the fundamental chamber in ascending
height order.  All arithmetic is exact, and every bilinear-form evaluation
is counted so the measured cost can be compared against the closed-form
cost of the naive full-lattice algorithm.

Every public name is listed once, in _NAMES, with the submodule that
defines it, and resolves on first access.  A run of the engine loads only
the engine: the naive oracle and its arbiter primitives (rootmult.oracle)
and the Hilbert basis of the chamber (rootmult.hilbert) load when one of
their names is first read, so importing the package pays for neither of
them, nor for fractions.  The engine's own modules are imported here, up
front: see the comment on that line.
"""

# Imported here, not on first access, so that `import rootmult.cli`
# compiles the engine before the CLI imports argparse: without a bytecode
# cache, compiling peterson on the larger heap argparse leaves raised the
# peak RSS of a bare import by about 0.24 MiB.
from . import cartan, chamber, metrics, peterson, presets

__version__ = "0.1.0"

# Each public name, with the submodule that defines it.
_NAMES = {
    **dict.fromkeys(("CartanMatrix", "NotGCM", "NotSymmetrizable", "automorphisms",
                     "build", "render", "rho_pair"), "cartan"),
    **dict.fromkeys(("chamber_points",), "chamber"),
    **dict.fromkeys(("CapExceeded", "extreme_rays", "hilbert_basis", "in_chamber"),
                    "hilbert"),
    **dict.fromkeys(("KillingCounter", "counter_snapshot", "k_ascent_measured",
                     "k_naive_closed"), "metrics"),
    **dict.fromkeys(("OracleTable", "compare_tables", "naive_compute", "killing",
                     "reflect", "coord_gcd", "divisors", "subroots"), "oracle"),
    **dict.fromkeys(("HeightExceedsCap", "NonIntegerMultiplicity", "RootRecord",
                     "RootTable", "ZeroDenominator", "c_value", "compute_all",
                     "mobius_mult", "peterson_c", "pingpong", "query_mult"), "peterson"),
    **dict.fromkeys(("preset_matrix", "tree_matrix"), "presets"),
}

__all__ = list(_NAMES)


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_NAMES[name]}", __name__), name)
    return value
