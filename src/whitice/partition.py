"""State weights, partition functions, and Whittaker coefficient tables.

Every admissible state of a full system carries the product of its vertex
weights.  A vertex's weight is read off the family table (:mod:`.lattice`):
a kind (1, g, or h), a charge argument, and a z-exponent of 0 or 1 in the
row's variable.  gamma systems assign z_{r+1}..z_1 to the rows top to bottom,
delta systems z_1..z_{r+1}.

The integer part of a state's weight -- the list of (kind, raw charge)
factors plus the per-variable exponent vector -- is independent of n and of
the coefficient mode, so it is computed once per boundary ("profile") by a
depth-first walk over the row kernel and cached.  Z under any mode is then
the profiles' packed sum (:func:`.coeffs.packed_sums`), unpacked once.
Statement A compares the two families' zero-free packed sums
(:func:`.coeffs.packed_sums`) themselves, by ``==``, and reads no digit.

The same factors are the g/h entries of the state's pattern under the one
pattern statistic (:mod:`.patterns`), and the exponents are row-sum
differences.  ``matching_check`` pairs the kernel's profiles one to one
with :func:`.patterns.pattern_profiles`, a walk over the patterns in the
same order, and compares them state by state; a state either walk lacks
fails the check.
Whittaker tables re-key each monomial of Z by its integer spin vector k,
read off the exponent vector by one rule for both families:
k_i = P_{r-i} - T_i, with P the prefix sums of the exponents and T_i the
tail sum l_{i+1} + .. + l_{r+1} of the top row.  The table renders as a
Dirichlet series string whose grammar round-trips losslessly.

:func:`whittaker_table` unpacks Z into coefficients, and
:func:`dirichlet_series_string` and ``jsonio.dumps_whittaker`` render that
table; they are the library's route and the reference.  An exact table can
also be written without a coefficient: :func:`packed_whittaker` leaves Z
packed, and :func:`packed_table_text` re-keys its packed sums, reads each
distinct packed int's u-digits once and writes the same text, byte for
byte.  The CLI writes every exact table that way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import sub

from .coeffs import (Mode, NumericMode, Packing, SymbolicMode, SymCoeff, packed_sums,
                     symbols_text, term_text, terms_text)
from .gauss import gauss_table
from .lattice import (FAMILIES, Boundary, IceState, boundary_from_lambda,
                      enumerate_states, fill_weight, row_variable, state_profiles)
from .laurent import LaurentPoly
from .patterns import pattern_exponents, pattern_factors, pattern_from_state, pattern_profiles
from . import jsonio, transfer

def numeric_mode(n: int, q: int) -> NumericMode:
    return NumericMode(gauss_table(n, q))


Profile = tuple[tuple[tuple[str, int], ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def boundary_profiles(boundary: Boundary, family: str) -> tuple[Profile, ...]:
    """Profiles of every state of the boundary, in enumeration order
    (:func:`.lattice.state_profiles`)."""
    rows = [(family, row_variable(family, row, boundary.rank)) for row in range(boundary.rows)]
    return state_profiles(boundary.top_minus, rows)


def _slots(boundary: Boundary) -> int:
    """Packed slots of a state's weight: one for each - spin below the top row."""
    return boundary.rank * boundary.rows // 2


def evaluate_profiles(profiles, mode: Mode, boundary: Boundary) -> LaurentPoly:
    """Z as the sum of the profiles' weights: :func:`.coeffs.packed_sums`, unpacked."""
    packing, sums = packed_sums(profiles, mode, _slots(boundary))
    return LaurentPoly(boundary.rank + 1, mode, packing.unpack(sums))


def partition_function(boundary: Boundary, family: str, mode: Mode,
                       strategy: str = "enumerate") -> LaurentPoly:
    """Z of the full system, by state enumeration or layer contraction."""
    if strategy == "enumerate":
        return evaluate_profiles(boundary_profiles(boundary, family), mode, boundary)
    if strategy == "transfer":
        return transfer.contract_partition(boundary, family, mode)
    raise ValueError(f"unknown strategy {strategy!r}")


def pattern_profile(state: IceState, family: str) -> Profile:
    """The state's profile read off its pattern: the statistic's (kind, box)
    factors and the row-sum exponents."""
    t = pattern_from_state(state)
    return pattern_factors(t.rows, (family,) * t.rank), pattern_exponents(t, family)


def pattern_side_weight(state: IceState, family: str, mode: Mode):
    """The same weight computed through the state's pattern in the exact
    ring of a :func:`.lattice.fill_weight` mode: statistic product times the
    row-sum monomial."""
    factors, exponents = pattern_profile(state, family)
    return fill_weight(factors, mode), exponents


def matching_check(boundary: Boundary, family: str):
    """Compare the profile of every state, from :func:`boundary_profiles`,
    with its pattern's, from :func:`.patterns.pattern_profiles`: the
    exponents must be equal and the (kind, charge) factors equal as
    multisets.  Both walks run in :func:`enumerate_states` order, so they
    pair one to one.  Returns a list of offending states (empty = pass).

    A position one walk reaches and the other does not is an offender too,
    so a kernel that loses states fails from the first position where the
    walks fall out of step.  Profiles past the last state name the last
    state if no other state fails.

    This is the same test as comparing the products in the free ring with
    every raw charge its own symbol: every charge is >= 0, g(0) = -u and
    h(0) = 1 - u, and every other charge is a distinct formal symbol, so two
    products agree exactly when their sorted factors do.  The check pins the
    charges as integers, not just their residues.
    """
    pairs = zip_longest(boundary_profiles(boundary, family),
                        pattern_profiles(boundary.top_minus, family))
    bad = [index for index, (ice, pattern) in enumerate(pairs)
           if ice != pattern and (ice is None or pattern is None or ice[1] != pattern[1]
                                  or sorted(ice[0]) != sorted(pattern[0]))]
    if not bad:
        return []
    states = enumerate_states(boundary)
    return [states[index] for index in bad if index < len(states)] or states[-1:]


# ---------------------------------------------------------------------------
#  Whittaker tables
# ---------------------------------------------------------------------------

def _spin_rule(boundary: Boundary, family: str):
    """:func:`spin_vector_of_exponents` for one boundary, as a function of
    the exponent vector alone; the tails of the top row are summed once."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    top = boundary.top_minus
    r = boundary.rank
    total = sum(top)
    # tails[j] = T_{r-j} = l_{r+1-j} + .. + l_{r+1}, for j = 0..r-1
    tails = list(accumulate(reversed(top)))[:r]

    def spin(exponents) -> tuple[int, ...]:
        if len(exponents) != r + 1:
            raise ValueError(f"exponent vector has {len(exponents)} entries, "
                             f"not the {r + 1} of rank {r}")
        prefix = list(accumulate(exponents))
        if prefix[r] != total:
            raise ValueError("exponent vector has the wrong total degree")
        # prefix[j] - tails[j] = k_{r-j}
        return tuple(map(sub, prefix, tails))[::-1]

    return spin


def spin_vector_of_exponents(exponents, boundary: Boundary, family: str) -> tuple[int, ...]:
    """Recover the integer vector k from a monomial's exponent vector.

    Both families obey one rule, k_i = P_{r-i} - T_i for i = 1..r, where
    P_j = e_0 + .. + e_j are the prefix sums of the exponent vector e and
    T_i = l_{i+1} + .. + l_{r+1} the tail sums of the top row l.  (The row
    sums d_0..d_{r+1} read off e are d_i = P_{r-i} for gamma and
    d_i = |l| - P_{i-1} for delta; k_i = d_i - T_i for gamma and
    k_i = (l_1 + .. + l_i) - d_{r+1-i} for delta both reduce to it.)
    The exponents must number r + 1 and sum to |l|.
    """
    return _spin_rule(boundary, family)(exponents)


def whittaker_table(boundary: Boundary, family: str, mode: Mode,
                    strategy: str = "enumerate") -> dict[tuple[int, ...], object]:
    """Map from spin vectors k to coefficients H(k): the terms of Z re-keyed
    (exponent vectors and spin vectors determine each other)."""
    z = partition_function(boundary, family, mode, strategy)
    spin = _spin_rule(boundary, family)
    return {spin(exponents): coeff for exponents, coeff in z.terms.items()}


def packed_whittaker(boundary: Boundary, family: str, mode: SymbolicMode,
                     strategy: str = "enumerate") -> tuple:
    """Z of an exact mode left packed, with the rule that reads each key's
    spin vector: (packing, {g-part: {key: int}}, spin).  A key is an
    exponent vector under "enumerate" (:func:`.coeffs.packed_sums`) and a
    packed z under "transfer" (:func:`.transfer.contract_packed`)."""
    if mode.name != "symbolic":
        raise ValueError("a packed table reads exact digits; numeric tables "
                         "take whittaker_table")
    spin = _spin_rule(boundary, family)
    if strategy == "enumerate":
        packing, parts = packed_sums(boundary_profiles(boundary, family), mode, _slots(boundary))
        return packing, parts, spin
    if strategy == "transfer":
        packing, parts = transfer.contract_packed(boundary, family, mode)
        exponents = transfer.exponent_reader(boundary)
        return packing, parts, lambda z: spin(exponents(z))
    raise ValueError(f"unknown strategy {strategy!r}")


def _dirichlet_terms(gpart, digits: list[int]) -> str:
    """The :func:`.coeffs.term_text` pieces of one g-part's u-polynomial."""
    symbols = symbols_text(gpart)
    return "".join([term_text(digit, upow, symbols) for upow, digit in enumerate(digits) if digit])


def packed_table_text(packing: Packing, parts: dict, spin, dirichlet: bool = False) -> str:
    """The exact Whittaker table of zero-free packed {g-part: {key: int}}
    sums (:func:`packed_whittaker`), written
    as ``jsonio.dumps_whittaker`` (or, with ``dirichlet``,
    :func:`dirichlet_series_string`) writes the table :func:`whittaker_table`
    unpacks from them, byte for byte, with no coefficient built.

    Each key is re-keyed to its spin vector by ``spin``; the digits of each
    distinct (g-part, int) pair are read once (:meth:`.coeffs.Packing.digits`)
    into the text of its terms, and each entry joins its parts' texts in
    sorted g-part order, the entries in sorted k order."""
    render = _dirichlet_terms if dirichlet else jsonio.exact_group_text
    digits = packing.digits
    entries: dict[object, list[str]] = {}  # key -> its parts' texts
    for part in sorted(parts):
        texts: dict[int, str] = {}  # int -> its text under this part
        for key, value in parts[part].items():
            text = texts.get(value)
            if text is None:
                text = texts[value] = render(part, digits(value))
            found = entries.get(key)
            if found is None:
                entries[key] = [text]
            else:
                found.append(text)
    rows = sorted([(spin(key), pieces) for key, pieces in entries.items()])
    if not dirichlet:
        return jsonio.exact_table_text(rows)
    if not rows:
        return "0"
    return " + ".join([_parenthesised(terms_text("".join(pieces))) + _q_power(k)
                       for k, pieces in rows])


def statement_a_check(lam, mode: Mode) -> bool:
    """Whether the Whittaker tables of the gamma and delta systems agree.

    Both tables re-key Z by one spin rule, and both families have the same
    states and slots and so share one packing: equal packed sums mean equal
    tables, read off no digit."""
    boundary = boundary_from_lambda(lam)
    gamma, delta = (packed_sums(boundary_profiles(boundary, family), mode, _slots(boundary))[1]
                    for family in FAMILIES)
    return gamma == delta


# ---------------------------------------------------------------------------
#  Dirichlet series rendering
# ---------------------------------------------------------------------------

def _parenthesised(text: str) -> str:
    """A coefficient's text as a factor: in parentheses when it is a sum."""
    return f"({text})" if " " in text else text


def _coeff_str(coeff) -> str:
    if isinstance(coeff, SymCoeff):
        return _parenthesised(str(coeff))
    text = repr(coeff)
    return text if text.startswith("(") else f"({text})"


def _q_power(k) -> str:
    """The q-factor of entry k, "" for k = 0 (:func:`dirichlet_series_string`)."""
    parts = [f"{ki}*(1-2*s{i + 1})" for i, ki in enumerate(k) if ki != 0]
    return f"*q^({' + '.join(parts)})" if parts else ""


def dirichlet_series_string(table: dict[tuple[int, ...], object]) -> str:
    """Render a Whittaker table as a Dirichlet series in s_1, .., s_r.

    Each entry becomes ``coeff*q^(k1*(1-2*s1) + ...)`` with zero k_i dropped
    and the q-factor omitted entirely for k = 0.  The zero table renders as
    "0".  :func:`parse_dirichlet_series` inverts the format exactly.
    """
    if not table:
        return "0"
    return " + ".join([_coeff_str(table[k]) + _q_power(k) for k in sorted(table)])


def _split_top_level(text: str, sep: str = " + ") -> list[str]:
    """`text` split at every `sep` outside parentheses."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if not depth and i >= start and text.startswith(sep, i):
            chunks.append(text[start:i])
            start = i + len(sep)
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
