"""whitice: exact six-vertex lattice models for spherical Whittaker coefficients.

Two families of Boltzmann weights (gamma and delta) on square-ice states in
bijection with strict Gelfand-Tsetlin patterns; partition functions by direct
enumeration or transfer contraction; Gauss-sum coefficient tables, symbolic
or numeric; and verification suites for the identities tying it all together
(weight matching, gamma=delta, two-row commutation, the n=1 crossing-vertex
equation, and the exchange functional equations).
"""

from __future__ import annotations

from .coeffs import Mode, NumericMode, SymbolicMode, SymCoeff
from .gauss import GaussTable, gauss_table
from .lattice import (
    Boundary,
    IceState,
    boundary_from_lambda,
    count_states,
    enumerate_states,
    lambda_of,
)
from .laurent import LaurentPoly
from .partition import (
    dirichlet_series_string,
    matching_check,
    numeric_mode,
    parse_dirichlet_series,
    partition_function,
    statement_a_check,
    whittaker_table,
)
from .patterns import (
    GTPattern,
    ShortPattern,
    enumerate_patterns,
    enumerate_short_patterns,
    pattern_from_state,
    state_from_pattern,
)
from .transfer import two_row_check, two_row_partition
from .weyl import decompose, functional_eq_check
from .ybe import rmatrix_n1, ybe_check

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "GTPattern",
    "GaussTable",
    "IceState",
    "LaurentPoly",
    "Mode",
    "NumericMode",
    "ShortPattern",
    "SymCoeff",
    "SymbolicMode",
    "boundary_from_lambda",
    "count_states",
    "decompose",
    "dirichlet_series_string",
    "enumerate_patterns",
    "enumerate_short_patterns",
    "enumerate_states",
    "functional_eq_check",
    "gauss_table",
    "lambda_of",
    "matching_check",
    "numeric_mode",
    "parse_dirichlet_series",
    "partition_function",
    "pattern_from_state",
    "state_from_pattern",
    "statement_a_check",
    "two_row_check",
    "two_row_partition",
    "whittaker_table",
    "ybe_check",
    "__version__",
]
