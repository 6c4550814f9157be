"""Reference outputs and the checks that hold each item's output to them.

References live in ``reference/<workload>.json.gz`` (written by
``make_reference.py``)::

    {"digests": {item name: {"rc": int, "sha256": hex}},
     "tables":  {table key: {"exact": whittaker JSON}
                          | {"numeric": whittaker JSON, "from_exact": bool}},
     "reports": {item key: parsed JSON output}}

Rules:

* Exact tables compare equal after ``SymCoeff.reduce(n, "hg")`` on both
  sides, so a change of the reduced-ring normal form passes and a wrong
  coefficient fails.
* Numeric tables compare within 1e-9 relative, the rule of
  ``LaurentPoly.equal``: every entry within tol * (1 + largest magnitude).
  Where the exact path finishes, the reference is the exact table evaluated
  at the Gauss table (``from_exact``), and its keys are the exact support;
  otherwise it is the numeric table the seed produced.
* Reports compare field by field, floats within the same relative rule.
* A changed output digest is counted, not failed.

Within one run the outputs are deterministic, so an output whose exit code
and digest equal those of an output that already passed needs no second
comparison (``Run.verify`` in ``run.py``).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOL = 1e-9

_SEED_FIELD = re.compile(r'"seed": -?\d+')


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def digest(item, text: str) -> str:
    """sha256 of an item's output, with the workload seed of a seeded item
    written as 0 so that every seed shares one recorded digest."""
    if "<seed>" in item.name:
        text = _SEED_FIELD.sub('"seed": 0', text)
    return hashlib.sha256(text.encode()).hexdigest()


class References:
    """One workload's references, decoded with the program's own
    ``jsonio`` and, for exact tables, brought to the current normal form
    with ``SymCoeff.reduce``."""

    def __init__(self, workload: str, items, program):
        with gzip.open(reference_path(workload), "rt") as fh:
            raw = json.load(fh)
        self.program = program
        self.digests = raw["digests"]
        self.reports = raw["reports"]
        self.numeric: dict[str, dict] = {}
        self.exact_support: dict[str, set] = {}
        self.exact: dict[str, dict] = {}
        for item in {item.key: item for item in items if item.kind != "report"}.values():
            entry = raw["tables"][item.key]
            table = program.jsonio.whittaker_from_json(entry.get("exact") or entry["numeric"])
            if item.kind == "exact-table":
                self.exact[item.key] = reduced(table, item.n)
            else:
                self.numeric[item.key] = table
                if entry["from_exact"]:
                    self.exact_support[item.key] = set(table)

    def check(self, item, rc: int, text: str, seed: int, reference=None) -> str | None:
        """None if the item's exit code and output pass, else what failed.
        ``reference`` replaces the recorded one (the negative control)."""
        expected = self.digests[item.name]["rc"]
        if rc != expected:
            return f"exit code {rc}, expected {expected}"
        try:
            return self.compare(item, text, seed, reference)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def changed(self, item, output_digest: str) -> bool:
        """Whether the output bytes differ from the recorded ones."""
        return output_digest != self.digests[item.name]["sha256"]

    def compare(self, item, text: str, seed: int, reference=None) -> str | None:
        """None if the output matches the reference, else what differs."""
        if item.kind == "numeric-table":
            ref = self.numeric[item.key] if reference is None else reference
            return numeric_mismatch(numeric_table(text), ref)
        if item.kind == "exact-table":
            ref = self.exact[item.key] if reference is None else reference
            got = reduced(self.program.partition.parse_dirichlet_series(
                text, len(item.lam) - 1), item.n)
            bad = [k for k in got.keys() | ref.keys() if got.get(k) != ref.get(k)]
            return f"{len(bad)} entries differ, e.g. k={min(bad)}" if bad else None
        ref = self.reports[item.key] if reference is None else reference
        if "<seed>" in item.name:
            ref = json.loads(json.dumps(ref).replace('"seed": 0', f'"seed": {seed}'))
        return json_mismatch(json.loads(text), ref, "$")

    def corrupted(self, item):
        """A deliberately wrong copy of the item's reference."""
        if item.kind == "numeric-table":
            ref = dict(self.numeric[item.key])
            k = max(ref, key=lambda key: abs(ref[key]))
            ref[k] = ref[k] * (1 + 1e-6)
            return ref
        if item.kind == "exact-table":
            ref = dict(self.exact[item.key])
            k = min(ref)
            ref[k] = ref[k] + 1
            return ref
        ref = json.loads(json.dumps(self.reports[item.key]))
        if "count" in ref:
            ref["count"] += 1
        else:
            ref["pass"] = not ref["pass"]
        return ref


def reduced(table: dict, n: int) -> dict:
    out = {}
    for k, coeff in table.items():
        coeff = coeff.reduce(n, "hg")
        if coeff:
            out[k] = coeff
    return out


def numeric_table(text: str) -> dict:
    return {tuple(e["k"]): complex(*e["coeff"]) for e in json.loads(text)["entries"]}


def numeric_mismatch(got: dict, ref: dict, tol: float = TOL) -> str | None:
    top = max((abs(c) for c in (*got.values(), *ref.values())), default=0.0)
    bound = tol * (1 + top)
    worst, where = 0.0, None
    for k in got.keys() | ref.keys():
        gap = abs(got.get(k, 0j) - ref.get(k, 0j))
        if gap > worst:
            worst, where = gap, k
    if worst > bound:
        return f"k={where} differs by {worst:.3g} > {bound:.3g}"
    return None


def json_mismatch(got, ref, path: str) -> str | None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if got.keys() != ref.keys():
            return f"{path}: keys {sorted(got)} != {sorted(ref)}"
        for key in ref:
            found = json_mismatch(got[key], ref[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (a, b) in enumerate(zip(got, ref)):
            found = json_mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and not isinstance(got, bool) \
                and abs(got - ref) <= TOL * (1 + abs(ref)):
            return None
        return f"{path}: {got!r} != {ref!r}"
    return None if got == ref and type(got) is type(ref) else f"{path}: {got!r} != {ref!r}"
