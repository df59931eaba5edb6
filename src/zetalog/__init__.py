"""Exact zeta-monomial expansion of the log-integral family Lz(a,b).

expand_lz returns the exact weight-(a+b) rational combination of zeta
monomials, reduce_even folds even-argument zetas into pi powers,
express builds machine-verified certificates writing odd-zeta monomials
as combinations of Lz values, and the numerics layer cross-checks every
identity by series and quadrature at configurable precision.

Each layer module below is in sys.modules from ``import zetalog`` on,
but is compiled and run only on its first attribute read, so a process
pays only for the layers it calls; public names resolve through
``__getattr__``.
"""

import importlib.util
import sys

# (home module, public names), in __all__ order
_EXPORTS = (
    ("coefficients", ("c_tilde", "little_c")),
    ("exact", ("Rational", "bernoulli_number", "zeta_even_pi_coeff")),
    ("expansion", ("UNIT_MONOMIAL", "MonomialParseError", "PiReducedCombination",
                   "ZetaCombination", "ZetaMonomial", "expand_lz", "expand_weight",
                   "reduce_even")),
    ("numerics", ("PrecisionBudgetError", "build_s_table", "evaluate_reduced",
                  "lz_quadrature", "lz_series", "verify_expansion", "zeta_value")),
    ("partitions", ("PartitionElement", "PartitionFilter", "count_partitions",
                    "enumerate_partitions")),
    ("solver", ("Certificate", "ExpressOutcome", "LinearSystem", "SurveyReport",
                "build_system", "express", "survey", "verify_certificate")),
)


def _lazy(name):
    # the standard-library LazyLoader recipe: the module object exists now,
    # its code runs on the first attribute read
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((module, _lazy(module)) for module, _ in _EXPORTS)

__version__ = "0.1.0"

__all__ = [name for _, names in _EXPORTS for name in names] + ["__version__"]


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
