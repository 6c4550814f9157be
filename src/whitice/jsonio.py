"""JSON views of the core objects.

Schemas (all deterministic: entries are sorted canonically):

    coefficient   symbolic: {"terms": [{"g": [..], "h": [..], "u": [[num, den], ..]}]}
                  numeric:  [re, im]
    polynomial    {"vars": n, "terms": [{"exponents": [..], "coeff": <coefficient>}]}
    state         {"columns": C, "layers": [[..], ..], "rowOrder": "gamma"|"delta"}
    whittaker     {"entries": [{"k": [..], "coeff": <coefficient>}]}
    report        {"check": .., "params": {..}, "pass": bool, "counterexample": ..?}

In a symbolic coefficient, "g" and "h" list Gauss-symbol indices with
multiplicity (g(1)^2 g(2) -> [1, 1, 2]) and "u" is the dense coefficient
list of the polynomial in u, as exact [numerator, denominator] pairs
starting at u^0.  The coefficient and Whittaker views each have an exact
inverse (:func:`coeff_from_json`, :func:`whittaker_from_json`).

:func:`dumps` renders every JSON value the CLI prints; its text equals
``json.dumps(obj, indent=2)`` byte for byte.  :func:`dumps_whittaker`
renders a ``{k: coeff}`` table as ``dumps(whittaker_to_json(table))``
would: a numeric table of finite plain complex values is one template per
entry with no JSON view built, and any other table falls back to that
reference route.  An exact table the CLI prints never becomes a
``{k: coeff}`` dict: :func:`.partition.packed_table_text` writes it from
packed sums through :func:`exact_group_text` and :func:`exact_table_text`,
the same layout filled from u-digits.
"""

from __future__ import annotations

import json
from cmath import isfinite as _cfinite
from fractions import Fraction
from itertools import chain as _chain
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite as _isfinite

from .coeffs import FREE, Ring, SymCoeff
from .gauss import GaussTable
from .lattice import IceState
from .laurent import LaurentPoly


# ---------------------------------------------------------------------------
#  Coefficients
# ---------------------------------------------------------------------------

def _flat_part(part) -> list[int]:
    out: list[int] = []
    for index, power in part:
        out.extend([index] * power)
    return out


def _part_from_flat(flat) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for index in flat:
        counts[index] = counts.get(index, 0) + 1
    return tuple(sorted(counts.items()))


def coeff_to_json(coeff):
    """Symbolic coefficient -> {"terms": [...]}; numeric -> [re, im]."""
    if isinstance(coeff, SymCoeff):
        groups: dict[tuple, dict[int, int | Fraction]] = {}
        for (gpart, hpart, upow), val in coeff.terms.items():
            groups.setdefault((gpart, hpart), {})[upow] = val
        out = []
        for (gpart, hpart), powers in sorted(groups.items()):
            top = max(powers)
            dense = [powers.get(k, 0) for k in range(top + 1)]
            out.append({
                "g": _flat_part(gpart),
                "h": _flat_part(hpart),
                "u": [[f.numerator, f.denominator] for f in dense],
            })
        return {"terms": out}
    value = complex(coeff)
    return [value.real, value.imag]


def coeff_from_json(obj, ring: Ring = FREE):
    """Inverse of coeff_to_json (shape decides symbolic vs numeric); a
    symbolic coefficient is read into `ring`."""
    if isinstance(obj, dict):
        terms: dict = {}
        for entry in obj["terms"]:
            gpart = _part_from_flat(entry["g"])
            hpart = _part_from_flat(entry["h"])
            for upow, (num, den) in enumerate(entry["u"]):
                if num:
                    terms[(gpart, hpart, upow)] = num if den == 1 else Fraction(num, den)
        return SymCoeff(terms, ring)
    re, im = obj
    return complex(re, im)


# ---------------------------------------------------------------------------
#  Polynomials
# ---------------------------------------------------------------------------

def poly_to_json(poly: LaurentPoly) -> dict:
    return {
        "vars": poly.nvars,
        "terms": [{"exponents": list(exps), "coeff": coeff_to_json(coeff)}
                  for exps, coeff in poly.sorted_terms()],
    }


# ---------------------------------------------------------------------------
#  States
# ---------------------------------------------------------------------------

def state_to_json(state: IceState, row_order: str = "gamma") -> dict:
    return {
        "columns": state.boundary.columns,
        "layers": [list(layer) for layer in state.layers],
        "rowOrder": row_order,
    }


# ---------------------------------------------------------------------------
#  Whittaker tables, Gauss tables, verification reports
# ---------------------------------------------------------------------------

def whittaker_to_json(table: dict) -> dict:
    return {"entries": [{"k": list(k), "coeff": coeff_to_json(c)}
                        for k, c in sorted(table.items())]}


def _k_template(rank: int) -> str:
    """``%``-template of an entry's "k" list, one ``%d`` per k_i."""
    return "[" + ",".join(["\n        %d"] * rank) + "\n      ]" if rank else "[]"


#: a Whittaker view's text around its entries' texts, joined by ",\n    ";
#: filled once, so the output is copied once
_TABLE = '{\n  "entries": [\n    %s\n  ]\n}'


def dumps_whittaker(table: dict) -> str:
    """``dumps(whittaker_to_json(table))``, byte for byte.

    When every key is a tuple of plain ints of one length and every
    coefficient a plain complex with finite parts, each entry is one
    ``%``-template (``%d`` per k_i, ``%r`` for re and im), built once for the
    table and filled in sorted key order.  Any other table (symbolic, NaN or
    infinite coefficients, bools or subclasses, the empty table) takes the
    reference route through :func:`whittaker_to_json`."""
    if not (table and set(map(type, table)) == {tuple}
            and len(set(map(len, table))) == 1
            and set(map(type, _chain.from_iterable(table))) <= {int}
            and set(map(type, table.values())) == {complex}
            and all(map(_cfinite, table.values()))):
        return dumps(whittaker_to_json(table))
    k = _k_template(len(next(iter(table))))
    entry = '{\n      "k": ' + k + ',\n      "coeff": [\n        %r,\n        %r\n      ]\n    }'
    return _TABLE % ",\n    ".join([entry % (*key, (c := table[key]).real, c.imag)
                                     for key in sorted(table)])


def exact_group_text(gpart, digits: list[int]) -> str:
    """The ``{"g", "h", "u"}`` group of one g-part of an exact coefficient,
    as :func:`dumps_whittaker` writes it in a table: ``digits`` are the
    part's u-coefficients, u^0 first, the last one nonzero."""
    flat = _flat_part(gpart)
    g = "[" + ",".join(["\n              %d"] * len(flat)) % tuple(flat) + "\n            ]" if flat else "[]"
    u = ",".join(["\n              [\n                %d,\n                1\n              ]"] * len(digits))
    return ('{\n            "g": ' + g + ',\n            "h": [],\n            "u": ['
            + u % tuple(digits) + "\n            ]\n          }")


def exact_table_text(rows) -> str:
    """:func:`dumps_whittaker` of an exact table from its rows: (k, the
    :func:`exact_group_text` of each g-part of H(k), in sorted g-part
    order), in sorted k order."""
    if not rows:
        return '{\n  "entries": []\n}'
    k = _k_template(len(rows[0][0]))
    entry = ('{\n      "k": ' + k + ',\n      "coeff": {\n        "terms": [\n          %s'
             '\n        ]\n      }\n    }')
    return _TABLE % ",\n    ".join([entry % (*key, ",\n          ".join(groups))
                                     for key, groups in rows])


def whittaker_from_json(obj: dict) -> dict:
    return {tuple(e["k"]): coeff_from_json(e["coeff"])
            for e in obj["entries"]}


def gauss_table_to_json(table: GaussTable) -> dict:
    return {
        "n": table.n,
        "q": table.q,
        "root": table.root,
        "g": [[v.real, v.imag] for v in table.gvals],
        "h": [[v.real, v.imag] for v in table.hvals],
    }


def report(check: str, params: dict, passed: bool,
           counterexample=None) -> dict:
    out = {"check": check, "params": params, "pass": bool(passed)}
    if counterexample is not None:
        out["counterexample"] = counterexample
    return out


# ---------------------------------------------------------------------------
#  Rendering
# ---------------------------------------------------------------------------

def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for any value it accepts.

    With ``indent`` set the standard library runs its pure-Python encoder;
    this renderer takes the shapes the CLI emits directly instead.  Plain
    ``str``, ``int`` and finite ``float`` scalars are written as json writes
    them (``int.__repr__``, ``float.__repr__``, json's ASCII string encoder),
    ``True``, ``False`` and ``None`` as ``true``, ``false`` and ``null``,
    and plain lists, and dicts whose keys are all plain ``str``, recurse
    item by item.  Anything else (NaN and infinities, tuples, subclasses,
    non-``str`` keys) is handed to ``json.dumps(x, indent=2)`` and its
    newlines re-indented to the current depth.  That is exact because json never
    writes a literal newline inside a string.
    """
    return _render(obj, "\n")


def _render(obj, newline: str) -> str:
    """``obj`` rendered with ``newline`` (a newline and the current depth's
    indent) starting each of its inner lines."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and _isfinite(obj):
        return float.__repr__(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if kind is list:
        if not obj:
            return "[]"
        inner = newline + "  "
        return ("[" + inner
                + ("," + inner).join([_render(item, inner) for item in obj])
                + newline + "]")
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        inner = newline + "  "
        return ("{" + inner
                + ("," + inner).join([_encode_str(key) + ": " + _render(value, inner)
                                      for key, value in obj.items()])
                + newline + "}")
    return json.dumps(obj, indent=2).replace("\n", newline)

