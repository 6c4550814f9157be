"""Yang-Baxter equation at n = 1, and the row-swap identities it implies.

The crossing vertex R acts on two horizontal lines.  Its table is keyed by
the four adjacent edge spins as (west_top, west_bot, east_top, east_bot) and
is nonzero on six spin-conserving configurations.  Entries are polynomials
in (z1, z2) = (z_i, z_{i+1}) over the exact ring of n = 1 (:data:`MODE`),
where u stands for 1/q at every q at once:

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

    (z_i - u*z_{i+1}) * Z(z)  =  (z_{i+1} - u*z_i) * Z(sigma_i z),

the n = 1 case of the functional equation of the weyl module, which
:func:`commutation_check` checks on a Z its caller computed.  Every check
here multiplies polynomials, so it runs in that exact ring and decides by
``==``; in complex arithmetic the two sides of some boundaries differ in
the last bits.
"""

from __future__ import annotations

from itertools import product

from .coeffs import SymbolicMode
from .lattice import MINUS, PLUS, fill_weight, weight_table
from .laurent import LaurentPoly
from .weyl import functional_eq_check

#: the exact ring of n = 1 every entry and check of this module lives in
MODE = SymbolicMode(1)

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


def rmatrix_n1(assignment: dict[RConfig, str] | None = None) -> dict[RConfig, LaurentPoly]:
    """The n=1 crossing-vertex table in variables (z1, z2) = (z_i, z_{i+1})."""
    if assignment is None:
        assignment = MIXED_ASSIGNMENT
    z1 = LaurentPoly.var(2, MODE, 0)
    z2 = LaurentPoly.var(2, MODE, 1)
    values = {
        "u*(z2-z1)": (z2 - z1).scale(MODE.u),
        "z2-z1": z2 - z1,
        "(1-u)*z2": z2.scale(MODE.one_minus_u),
        "(1-u)*z1": z1.scale(MODE.one_minus_u),
    }
    table = {
        (PLUS, PLUS, PLUS, PLUS): z1 - z2.scale(MODE.u),
        (MINUS, MINUS, MINUS, MINUS): z2 - z1.scale(MODE.u),
    }
    table.update((config, values[assignment[config]]) for config in MIXED_CONFIGS)
    return table


def vertex_poly(family: str, config, var_index: int) -> LaurentPoly:
    """One vertex weight as a polynomial in (z1, z2), zero if inadmissible;
    at n = 1 every charge is of class 0."""
    entry = weight_table(family).get(config)
    if entry is None:
        return LaurentPoly.zero(2, MODE)
    kind, zexp = entry
    exps = (0, zexp) if var_index else (zexp, 0)
    return LaurentPoly.monomial(2, MODE, exps, fill_weight(((kind, 0),), MODE))


SPINS = (PLUS, MINUS)


def ybe_sides(R: dict[RConfig, LaurentPoly], s_row: tuple[str, int],
              t_row: tuple[str, int], boundary_spins):
    """(left, right) partition functions of the two wirings for one choice
    of the six boundary spins (sigma, tau, alpha, beta, rho, theta)."""
    sigma, tau, alpha, beta, rho, theta = boundary_spins
    s_fam, s_var = s_row
    t_fam, t_var = t_row
    zero = LaurentPoly.zero(2, MODE)
    left = zero
    for mu in SPINS:
        for nu in SPINS:
            r_val = R.get((sigma, tau, mu, nu))
            if r_val is None:
                continue
            for gam in SPINS:
                term = (r_val
                        * vertex_poly(s_fam, (alpha, gam, mu, beta), s_var)
                        * vertex_poly(t_fam, (gam, rho, nu, theta), t_var))
                left = left + term
    right = zero
    for phi in SPINS:
        for psi in SPINS:
            r_val = R.get((phi, psi, beta, theta))
            if r_val is None:
                continue
            for dlt in SPINS:
                term = (vertex_poly(t_fam, (alpha, dlt, sigma, phi), t_var)
                        * vertex_poly(s_fam, (dlt, rho, tau, psi), s_var)
                        * r_val)
                right = right + term
    return left, right


def ybe_check(R: dict[RConfig, LaurentPoly] | None = None,
              s_row: tuple[str, int] = ("gamma", 1),
              t_row: tuple[str, int] = ("gamma", 0)):
    """Check the local equation on all 64 boundary assignments.

    Default rows: S and T both gamma, S carrying z2 = z_{i+1} and T carrying
    z1 = z_i.  Returns (ok, failures) with the offending boundary tuples.
    """
    if R is None:
        R = rmatrix_n1()
    failures = []
    for spins in product(SPINS, repeat=6):
        left, right = ybe_sides(R, s_row, t_row, spins)
        if left != right:
            failures.append(spins)
    return not failures, failures


def perturbed(R: dict[RConfig, LaurentPoly], config: RConfig) -> dict[RConfig, LaurentPoly]:
    """Copy of R with one entry shifted by +1 (negative-control input)."""
    out = dict(R)
    out[config] = out[config] + LaurentPoly.const(2, MODE, MODE.one)
    return out


def solve_mixed_assignment(s_row=("gamma", 1), t_row=("gamma", 0)) -> list[dict[RConfig, str]]:
    """All permutations of the four mixed values that satisfy the equation
    (with the pinned pure entries), for the given rows."""
    from itertools import permutations
    found = []
    for perm in permutations(MIXED_VALUES):
        assignment = dict(zip(MIXED_CONFIGS, perm))
        ok, _ = ybe_check(rmatrix_n1(assignment), s_row, t_row)
        if ok:
            found.append(assignment)
    return found


# ---------------------------------------------------------------------------
#  Global endpoint identities (n = 1)
# ---------------------------------------------------------------------------

def commutation_check(z: LaurentPoly, i: int):
    """(z_i - u*z_{i+1}) * Z(z) = (z_{i+1} - u*z_i) * Z(sigma_i z) on a
    polynomial z of the reduced ring of n = 1.

    This is the class-0 functional equation at n = 1, with its sides
    exchanged.  Returns (ok, lhs, rhs); ValueError on a z at another n or
    a numeric z."""
    if z.mode.n != 1:
        raise ValueError(f"the row-swap identity needs n = 1, not the mode's n = {z.mode.n}")
    ok, rhs, lhs = functional_eq_check(z, i, 0)
    return ok, lhs, rhs
