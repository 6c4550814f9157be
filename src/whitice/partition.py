"""State weights, partition functions, and Whittaker coefficient tables.

Every admissible state of a full system carries the product of its vertex
weights.  A vertex's weight is read off the family table (:mod:`.lattice`):
a kind (1, g, or h), a charge argument, and a z-exponent of 0 or 1 in the
row's variable.  gamma systems assign z_{r+1}..z_1 to the rows top to bottom,
delta systems z_1..z_{r+1}.

The integer part of a state's weight -- the list of (kind, raw charge)
factors plus the per-variable exponent vector -- is independent of n and of
the coefficient mode, so it is computed once per boundary ("profile") by a
depth-first walk over the row kernel and cached; evaluating Z under a new
(n, q) is then a cheap table walk.

The same weight factors as g/h statistics of the state's pattern times a
monomial in row-sum differences; ``matching_check`` verifies that
factorization state by state.  Whittaker tables convert each monomial of Z
into its integer spin vector k and accumulate coefficients; the table renders
as a Dirichlet series string whose grammar round-trips losslessly.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import Mode, NumericMode, SymCoeff, SymbolicMode
from .gauss import gauss_table
from .lattice import (Boundary, IceState, boundary_from_lambda, direct_fill,
                      enumerate_states, fill_weight, row_fills, row_variable,
                      row_vertices)
from .laurent import LaurentPoly
from .patterns import (delta_exponents, delta_weight, gamma_exponents,
                       gamma_weight, pattern_from_state)
from . import transfer

#: modulus large enough that desk-scale charges never wrap: symbolic weights
#: built at this n keep every raw charge as a distinct formal symbol.
RAW_N = 10 ** 9


def raw_symbolic_mode() -> SymbolicMode:
    return SymbolicMode(RAW_N)


def numeric_mode(n: int, q: int) -> NumericMode:
    return NumericMode(gauss_table(n, q))


Profile = tuple[tuple[tuple[str, int], ...], tuple[int, ...]]


def weight_grid(state: IceState, family: str, mode: Mode) -> list[list[LaurentPoly]]:
    """Per-vertex weights as (r+1)-variable polynomials, row-major.

    The vertices are counted directly (:func:`.lattice.row_vertices`), and
    each row must agree with the row kernel's fill."""
    columns = state.boundary.columns
    r = state.rank
    nvars = r + 1
    grid: list[list[LaurentPoly]] = []
    for row, top, bot in state.vertex_rows():
        vertices = row_vertices(top, bot, columns, family)
        if vertices is None:
            raise ValueError("state has no admissible horizontal completion")
        if direct_fill(vertices) != row_fills(top, columns, family).get(bot):
            raise RuntimeError("row kernel disagrees with the direct vertex count")
        var = row_variable(family, row, r)
        row_polys = []
        for kind, zexp, charge in vertices:
            exps = [0] * nvars
            exps[var] = zexp
            coeff = fill_weight(((kind, charge),), mode)
            row_polys.append(LaurentPoly.monomial(nvars, mode, exps, coeff))
        grid.append(row_polys)
    return grid


def state_weight(state: IceState, family: str, mode: Mode):
    """(coefficient, exponent vector) of the state's one-term weight."""
    factors, exponents = profile_of(state, family)
    return fill_weight(factors, mode), exponents


def profile_of(state: IceState, family: str) -> Profile:
    """((kind, raw charge) factors, per-variable exponents) of one state."""
    columns = state.boundary.columns
    r = state.rank
    factors: tuple[tuple[str, int], ...] = ()
    exponents = [0] * (r + 1)
    for row, top, bot in state.vertex_rows():
        fill = row_fills(top, columns, family).get(bot)
        if fill is None:
            raise ValueError("state has no admissible horizontal completion")
        factors += fill[0]
        exponents[row_variable(family, row, r)] += fill[1]
    return factors, tuple(exponents)


@lru_cache(maxsize=None)
def boundary_profiles(boundary: Boundary, family: str) -> tuple[Profile, ...]:
    """Profiles of every state of the boundary, in enumeration order.

    A depth-first walk over the row kernel, children in ascending layer
    order; the fills below a layer are computed once per call."""
    r = boundary.rank
    fills: dict[tuple[int, ...], list] = {}
    exponents = [0] * (r + 1)
    profiles: list[Profile] = []

    def walk(row: int, layer: tuple[int, ...], factors: tuple) -> None:
        if row == boundary.rows:
            profiles.append((factors, tuple(exponents)))
            return
        if layer not in fills:
            fills[layer] = sorted(row_fills(layer, boundary.columns, family).items())
        var = row_variable(family, row, r)
        for bot, (row_factors, zexp) in fills[layer]:
            exponents[var] += zexp
            walk(row + 1, bot, factors + row_factors)
            exponents[var] -= zexp

    walk(0, boundary.top_minus, ())
    return tuple(profiles)


def evaluate_profiles(profiles, mode: Mode, nvars: int) -> LaurentPoly:
    terms: dict[tuple[int, ...], object] = {}
    for factors, exponents in profiles:
        coeff = fill_weight(factors, mode)
        if mode.is_zero(coeff):
            continue
        if exponents in terms:
            terms[exponents] = terms[exponents] + coeff
        else:
            terms[exponents] = coeff
    return LaurentPoly(nvars, mode, terms)


def partition_function(boundary: Boundary, family: str, mode: Mode,
                       strategy: str = "enumerate") -> LaurentPoly:
    """Z of the full system, by state enumeration or layer contraction."""
    if strategy == "enumerate":
        return evaluate_profiles(boundary_profiles(boundary, family), mode,
                                 boundary.rank + 1)
    if strategy == "transfer":
        return transfer.contract_partition(boundary, family, mode)
    raise ValueError(f"unknown strategy {strategy!r}")


def pattern_side_weight(state: IceState, family: str, mode: Mode):
    """The same weight computed through the state's pattern: statistic
    product times the row-sum monomial."""
    t = pattern_from_state(state)
    if family == "gamma":
        return gamma_weight(t, mode), gamma_exponents(t)
    if family == "delta":
        return delta_weight(t, mode), delta_exponents(t)
    raise ValueError(f"unknown family {family!r}")


def matching_check(boundary: Boundary, family: str, mode: Mode | None = None):
    """Compare the lattice weight of every state, read from its profile in
    :func:`boundary_profiles`, against its pattern-side factorization.
    Returns a list of offending states (empty = pass).

    With the default raw-charge symbolic mode the comparison is exact formal
    identity, so it pins the charge arguments as integers, not just their
    residues.
    """
    if mode is None:
        mode = raw_symbolic_mode()
    bad = []
    for state, (factors, exponents) in zip(enumerate_states(boundary),
                                           boundary_profiles(boundary, family)):
        coeff, pattern_exponents = pattern_side_weight(state, family, mode)
        if exponents != pattern_exponents or not mode.close(fill_weight(factors, mode), coeff):
            bad.append(state)
    return bad


# ---------------------------------------------------------------------------
#  Whittaker tables
# ---------------------------------------------------------------------------

def spin_vector_of_exponents(exponents, boundary: Boundary, family: str) -> tuple[int, ...]:
    """Recover the integer vector k from a monomial's exponent vector.

    Row sums d_0..d_{r+1} are reconstructed from the per-variable exponents
    (gamma: z_m carries d_{r+1-m} - d_{r+2-m}; delta: d_{m-1} - d_m), then
    k_i = d_i - (l_{i+1} + .. + l_{r+1}) for gamma and
    k_i = (l_1 + .. + l_i) - d_{r+1-i} for delta, l the top row.
    """
    top = boundary.top_minus
    r = boundary.rank
    d = [0] * (r + 2)
    if family == "gamma":
        for m in range(1, r + 2):
            d[r + 1 - m] = d[r + 2 - m] + exponents[m - 1]
        if d[0] != sum(top):
            raise ValueError("exponent vector has the wrong total degree")
        return tuple(d[i] - sum(top[i:]) for i in range(1, r + 1))
    if family == "delta":
        d[0] = sum(top)
        for m in range(1, r + 2):
            d[m] = d[m - 1] - exponents[m - 1]
        if d[r + 1] != 0:
            raise ValueError("exponent vector has the wrong total degree")
        return tuple(sum(top[:i]) - d[r + 1 - i] for i in range(1, r + 1))
    raise ValueError(f"unknown family {family!r}")


ZERO_FLOOR = 1e-12


def whittaker_table(boundary: Boundary, family: str, mode: Mode,
                    strategy: str = "enumerate") -> dict[tuple[int, ...], object]:
    """Map from spin vectors k to accumulated coefficients H(k)."""
    z = partition_function(boundary, family, mode, strategy)
    table: dict[tuple[int, ...], object] = {}
    for exponents, coeff in z.terms.items():
        k = spin_vector_of_exponents(exponents, boundary, family)
        if k in table:
            table[k] = table[k] + coeff
        else:
            table[k] = coeff
    if mode.name == "numeric":
        return {k: c for k, c in table.items() if abs(c) > ZERO_FLOOR}
    return {k: c for k, c in table.items() if c}


def tables_equal(a: dict, b: dict, mode: Mode, tol: float = 1e-9) -> bool:
    for k in a.keys() | b.keys():
        if not mode.close(a.get(k, mode.zero), b.get(k, mode.zero), tol):
            return False
    return True


def statement_a_check(lam, mode: Mode, tol: float = 1e-9):
    """Whittaker tables from the gamma and delta systems must agree.

    Returns (equal, gamma table, delta table)."""
    boundary = boundary_from_lambda(lam)
    gt = whittaker_table(boundary, "gamma", mode)
    dt = whittaker_table(boundary, "delta", mode)
    return tables_equal(gt, dt, mode, tol), gt, dt


def statement_a_symbolic_report(lam, n: int,
                                levels=("none", "h", "hg")) -> dict[str, bool]:
    """Whether the gamma/delta table equality is a formal identity at each
    relation level, for one (lam, n).  Empirical: the answer is reported,
    not assumed."""
    mode = SymbolicMode(n)
    boundary = boundary_from_lambda(lam)
    gt = whittaker_table(boundary, "gamma", mode)
    dt = whittaker_table(boundary, "delta", mode)
    report = {}
    for level in levels:
        ok = True
        for k in gt.keys() | dt.keys():
            a = gt.get(k, mode.zero).reduce(n, level) if level != "none" else gt.get(k, mode.zero)
            b = dt.get(k, mode.zero).reduce(n, level) if level != "none" else dt.get(k, mode.zero)
            if a != b:
                ok = False
                break
        report[level] = ok
    return report


# ---------------------------------------------------------------------------
#  Dirichlet series rendering
# ---------------------------------------------------------------------------

def _coeff_str(coeff) -> str:
    if isinstance(coeff, SymCoeff):
        text = str(coeff)
        return f"({text})" if " " in text else text
    text = repr(coeff)
    return text if text.startswith("(") else f"({text})"


def dirichlet_series_string(table: dict[tuple[int, ...], object]) -> str:
    """Render a Whittaker table as a Dirichlet series in s_1, .., s_r.

    Each entry becomes ``coeff*q^(k1*(1-2*s1) + ...)`` with zero k_i dropped
    and the q-factor omitted entirely for k = 0.  The zero table renders as
    "0".  :func:`parse_dirichlet_series` inverts the format exactly.
    """
    if not table:
        return "0"
    entries = []
    for k in sorted(table):
        coeff = table[k]
        parts = [f"{ki}*(1-2*s{i + 1})" for i, ki in enumerate(k) if ki != 0]
        if parts:
            entries.append(f"{_coeff_str(coeff)}*q^({' + '.join(parts)})")
        else:
            entries.append(_coeff_str(coeff))
    return " + ".join(entries)


def _split_top_level(text: str, sep: str = " + ") -> list[str]:
    chunks = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            chunks.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    chunks.append(text[start:])
    return chunks


def parse_dirichlet_series(text: str, rank: int,
                           numeric: bool = False) -> dict[tuple[int, ...], object]:
    """Inverse of :func:`dirichlet_series_string` for a known rank."""
    text = text.strip()
    if text == "0":
        return {}
    table: dict[tuple[int, ...], object] = {}
    for entry in _split_top_level(text):
        entry = entry.strip()
        if "*q^(" in entry:
            # the q-factor is the suffix; the coefficient never contains 'q^'
            cut = entry.rindex("*q^(")
            coeff_text, exp_text = entry[:cut], entry[cut + 4:-1]
        else:
            coeff_text, exp_text = entry, ""
        k = [0] * rank
        if exp_text:
            for part in _split_top_level(exp_text):
                mult, _, rest = part.strip().partition("*(1-2*s")
                k[int(rest[:-1]) - 1] = int(mult)
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            inner = coeff_text[1:-1]
        else:
            inner = coeff_text
        coeff = complex(inner) if numeric else SymCoeff.parse(inner)
        table[tuple(k)] = coeff
    return table
