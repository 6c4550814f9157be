"""Yang-Baxter equation at n = 1, and the row-swap identities it implies.

The crossing vertex R acts on two horizontal lines.  Its table is keyed by
the four adjacent edge spins as (west_top, west_bot, east_top, east_bot) and
is nonzero on six spin-conserving configurations.  Entries are polynomials
in (z1, z2) = (z_i, z_{i+1}) with exact u = 1/q coefficients:

    (+,+,+,+) -> z_i - u*z_{i+1}        (pinned)
    (-,-,-,-) -> z_{i+1} - u*z_i        (pinned)
    four mixed configs -> a permutation of
        u*(z_{i+1} - z_i),  z_{i+1} - z_i,  (1-u)*z_{i+1},  (1-u)*z_i

The mixed assignment shipped in MIXED_ASSIGNMENT is the unique permutation
(for the wiring below) under which the equation holds for all 64 boundary
spin choices; the test suite re-derives that uniqueness by exhausting the
other 23.

Wiring of the checked equation, S and T one-vertex weight tables on the two
lines (S above T on the left side, roles interchanged on the right):

    sum over mu, nu, gamma of
        R(sigma, tau, mu, nu) * S(N=alpha, S=gamma, W=mu, E=beta)
                              * T(N=gamma, S=rho, W=nu, E=theta)
  = sum over phi, psi, delta of
        T(N=alpha, S=delta, W=sigma, E=phi) * S(N=delta, S=rho, W=tau, E=psi)
                              * R(phi, psi, beta, theta)

for all boundary spins (sigma, tau, alpha, beta, rho, theta).

Sliding R through two stacked rows of a full system turns this local
equation into the global endpoint identity

    (z_i - u*z_{i+1}) * Z(z)  =  (z_{i+1} - u*z_i) * Z(sigma_i z)

checked directly by :func:`commutation_check`.
"""

from __future__ import annotations

from itertools import product

from .coeffs import Mode, SymbolicMode
from .lattice import MINUS, PLUS, boundary_from_lambda, fill_weight, weight_table
from .laurent import LaurentPoly
from .partition import partition_function

RConfig = tuple[int, int, int, int]  # (west_top, west_bot, east_top, east_bot)

MIXED_CONFIGS: tuple[RConfig, ...] = (
    (PLUS, MINUS, PLUS, MINUS),
    (PLUS, MINUS, MINUS, PLUS),
    (MINUS, PLUS, PLUS, MINUS),
    (MINUS, PLUS, MINUS, PLUS),
)

MIXED_VALUES = ("u*(z2-z1)", "z2-z1", "(1-u)*z2", "(1-u)*z1")

#: mixed config -> value name; singled out by the 64-boundary suite.
MIXED_ASSIGNMENT: dict[RConfig, str] = {
    (PLUS, MINUS, PLUS, MINUS): "(1-u)*z2",
    (PLUS, MINUS, MINUS, PLUS): "z2-z1",
    (MINUS, PLUS, PLUS, MINUS): "u*(z2-z1)",
    (MINUS, PLUS, MINUS, PLUS): "(1-u)*z1",
}


def _mixed_value_polys(mode: Mode) -> dict[str, LaurentPoly]:
    z1 = LaurentPoly.var(2, mode, 0)
    z2 = LaurentPoly.var(2, mode, 1)
    return {
        "u*(z2-z1)": (z2 - z1).scale(mode.u),
        "z2-z1": z2 - z1,
        "(1-u)*z2": z2.scale(mode.one_minus_u),
        "(1-u)*z1": z1.scale(mode.one_minus_u),
    }


def rmatrix_n1(mode: Mode | None = None,
               assignment: dict[RConfig, str] | None = None) -> dict[RConfig, LaurentPoly]:
    """The n=1 crossing-vertex table in variables (z1, z2) = (z_i, z_{i+1})."""
    if mode is None:
        mode = SymbolicMode(1)
    if assignment is None:
        assignment = MIXED_ASSIGNMENT
    z1 = LaurentPoly.var(2, mode, 0)
    z2 = LaurentPoly.var(2, mode, 1)
    table = {
        (PLUS, PLUS, PLUS, PLUS): z1 - z2.scale(mode.u),
        (MINUS, MINUS, MINUS, MINUS): z2 - z1.scale(mode.u),
    }
    values = _mixed_value_polys(mode)
    for config in MIXED_CONFIGS:
        table[config] = values[assignment[config]]
    return table


def vertex_poly(family: str, config, charge: int, var_index: int,
                mode: Mode, nvars: int = 2) -> LaurentPoly:
    """One vertex weight as a polynomial (zero if inadmissible)."""
    entry = weight_table(family).get(config)
    if entry is None:
        return LaurentPoly.zero(nvars, mode)
    kind, zexp = entry
    exps = [0] * nvars
    exps[var_index] = zexp
    return LaurentPoly.monomial(nvars, mode, exps, fill_weight(((kind, charge),), mode))


SPINS = (PLUS, MINUS)


def ybe_sides(R: dict[RConfig, LaurentPoly], s_row: tuple[str, int],
              t_row: tuple[str, int], boundary_spins, mode: Mode):
    """(left, right) partition functions of the two wirings for one choice
    of the six boundary spins (sigma, tau, alpha, beta, rho, theta)."""
    sigma, tau, alpha, beta, rho, theta = boundary_spins
    s_fam, s_var = s_row
    t_fam, t_var = t_row
    zero = LaurentPoly.zero(2, mode)
    left = zero
    for mu in SPINS:
        for nu in SPINS:
            r_val = R.get((sigma, tau, mu, nu))
            if r_val is None:
                continue
            for gam in SPINS:
                term = (r_val
                        * vertex_poly(s_fam, (alpha, gam, mu, beta), 0, s_var, mode)
                        * vertex_poly(t_fam, (gam, rho, nu, theta), 0, t_var, mode))
                left = left + term
    right = zero
    for phi in SPINS:
        for psi in SPINS:
            r_val = R.get((phi, psi, beta, theta))
            if r_val is None:
                continue
            for dlt in SPINS:
                term = (vertex_poly(t_fam, (alpha, dlt, sigma, phi), 0, t_var, mode)
                        * vertex_poly(s_fam, (dlt, rho, tau, psi), 0, s_var, mode)
                        * r_val)
                right = right + term
    return left, right


def ybe_check(R: dict[RConfig, LaurentPoly] | None = None,
              s_row: tuple[str, int] = ("gamma", 1),
              t_row: tuple[str, int] = ("gamma", 0),
              mode: Mode | None = None):
    """Check the local equation on all 64 boundary assignments.

    Default rows: S and T both gamma, S carrying z2 = z_{i+1} and T carrying
    z1 = z_i.  Returns (ok, failures) with the offending boundary tuples.
    """
    if mode is None:
        mode = SymbolicMode(1)
    if R is None:
        R = rmatrix_n1(mode)
    failures = []
    for spins in product(SPINS, repeat=6):
        left, right = ybe_sides(R, s_row, t_row, spins, mode)
        if not left.equal(right, tol=1e-12):
            failures.append(spins)
    return not failures, failures


def perturbed(R: dict[RConfig, LaurentPoly], config: RConfig,
              mode: Mode) -> dict[RConfig, LaurentPoly]:
    """Copy of R with one entry shifted by +1 (negative-control input)."""
    out = dict(R)
    out[config] = out[config] + LaurentPoly.const(2, mode, mode.one)
    return out


def solve_mixed_assignment(s_row=("gamma", 1), t_row=("gamma", 0),
                           mode: Mode | None = None) -> list[dict[RConfig, str]]:
    """All permutations of the four mixed values that satisfy the equation
    (with the pinned pure entries), for the given rows."""
    from itertools import permutations
    if mode is None:
        mode = SymbolicMode(1)
    found = []
    for perm in permutations(MIXED_VALUES):
        assignment = dict(zip(MIXED_CONFIGS, perm))
        ok, _ = ybe_check(rmatrix_n1(mode, assignment), s_row, t_row, mode)
        if ok:
            found.append(assignment)
    return found


# ---------------------------------------------------------------------------
#  Global endpoint identities (n = 1)
# ---------------------------------------------------------------------------

def _swap_factors(i: int, nvars: int, mode: Mode) -> tuple[LaurentPoly, LaurentPoly]:
    """(z_i - u*z_{i+1}, z_{i+1} - u*z_i) as nvars-variable polynomials."""
    zi = LaurentPoly.var(nvars, mode, i - 1)
    zi1 = LaurentPoly.var(nvars, mode, i)
    return zi - zi1.scale(mode.u), zi1 - zi.scale(mode.u)


def commutation_check(lam, i: int, family: str = "gamma",
                      mode: Mode | None = None):
    """(z_i - u*z_{i+1}) * Z(z) = (z_{i+1} - u*z_i) * Z(sigma_i z), n = 1.

    Returns (ok, lhs, rhs)."""
    if mode is None:
        mode = SymbolicMode(1)
    boundary = boundary_from_lambda(lam)
    if not 1 <= i <= boundary.rank:
        raise ValueError(f"row pair index {i} out of range")
    z = partition_function(boundary, family, mode)
    plus_factor, minus_factor = _swap_factors(i, boundary.rank + 1, mode)
    lhs = plus_factor * z
    rhs = minus_factor * z.swap_vars(i - 1, i)
    return lhs.equal(rhs, tol=1e-10), lhs, rhs
