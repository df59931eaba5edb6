"""Exact zeta-monomial expansion of the log-integral family Lz(a,b).

expand_lz returns the exact weight-(a+b) rational combination of zeta
monomials, reduce_even folds even-argument zetas into pi powers,
express builds machine-verified certificates writing odd-zeta monomials
as combinations of Lz values, and the numerics layer cross-checks every
identity by series and quadrature at configurable precision.
"""

from .coefficients import c_tilde, little_c
from .exact import Rational, bernoulli_number, zeta_even_pi_coeff
from .expansion import (
    UNIT_MONOMIAL,
    MonomialParseError,
    PiReducedCombination,
    ZetaCombination,
    ZetaMonomial,
    expand_lz,
    expand_weight,
    reduce_even,
)
from .numerics import (
    PrecisionBudgetError,
    build_s_table,
    evaluate_reduced,
    lz_quadrature,
    lz_series,
    verify_expansion,
    zeta_value,
)
from .partitions import (
    PartitionElement,
    PartitionFilter,
    count_partitions,
    enumerate_partitions,
)
from .solver import (
    Certificate,
    ExpressOutcome,
    LinearSystem,
    SurveyReport,
    build_system,
    express,
    survey,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "c_tilde",
    "little_c",
    "Rational",
    "bernoulli_number",
    "zeta_even_pi_coeff",
    "UNIT_MONOMIAL",
    "MonomialParseError",
    "PiReducedCombination",
    "ZetaCombination",
    "ZetaMonomial",
    "expand_lz",
    "expand_weight",
    "reduce_even",
    "PrecisionBudgetError",
    "build_s_table",
    "evaluate_reduced",
    "lz_quadrature",
    "lz_series",
    "verify_expansion",
    "zeta_value",
    "PartitionElement",
    "PartitionFilter",
    "count_partitions",
    "enumerate_partitions",
    "Certificate",
    "ExpressOutcome",
    "LinearSystem",
    "SurveyReport",
    "build_system",
    "express",
    "survey",
    "verify_certificate",
    "__version__",
]
