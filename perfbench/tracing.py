"""Spans and counts at whitice's layer boundaries, taken from outside.

The tracer swaps chosen module attributes for wrappers that record a span
(name, start, end, parent) around each call and hand the result to an
optional hook that takes counts.  Only boundary-level functions are wrapped,
never per-vertex or per-coefficient ones, and ``restore`` puts every
original back.  Spans stay in memory until the run writes them out.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time

#: (module, attribute, span name).  A function imported into several
#: modules is wrapped where its callers look it up; all share one span name.
WRAPS = (
    ("cli", "whittaker_table", "partition.whittaker_table"),
    ("cli", "statement_a_check", "partition.statement_a_check"),
    ("cli", "matching_check", "partition.matching_check"),
    ("cli", "count_states", "lattice.count_states"),
    ("cli", "enumerate_states", "lattice.enumerate_states"),
    ("cli", "gauss_table", "gauss.gauss_table"),
    ("cli", "dirichlet_series_string", "partition.dirichlet_series_string"),
    ("cli", "_emit", "cli.emit"),
    ("gauss", "gauss_table", "gauss.gauss_table"),
    ("jsonio", "whittaker_to_json", "jsonio.whittaker_to_json"),
    ("jsonio", "poly_to_json", "jsonio.poly_to_json"),
    ("jsonio", "report", "jsonio.report"),
    ("lattice", "enumerate_states", "lattice.enumerate_states"),
    ("partition", "enumerate_states", "lattice.enumerate_states"),
    ("partition", "gauss_table", "gauss.gauss_table"),
    ("partition", "whittaker_table", "partition.whittaker_table"),
    ("partition", "boundary_profiles", "partition.boundary_profiles"),
    ("partition", "evaluate_profiles", "partition.evaluate_profiles"),
    ("partition", "pattern_side_weight", "patterns.pattern_side_weight"),
    ("transfer", "contract_partition", "transfer.contract_partition"),
    ("transfer", "apply_row", "transfer.apply_row"),
    ("transfer", "two_row_check", "transfer.two_row_check"),
    ("transfer", "random_two_row_boundary", "transfer.random_two_row_boundary"),
    ("weyl", "functional_eq_check", "weyl.functional_eq_check"),
    ("weyl", "charge_duality_check", "weyl.charge_duality_check"),
    ("ybe", "ybe_check", "ybe.ybe_check"),
)

#: monomials below this magnitude in a numeric row support count as noise
NOISE_FLOOR = 1e-12

RENDER_SPANS = ("cli.emit", "jsonio.whittaker_to_json", "jsonio.poly_to_json",
                "jsonio.report", "partition.dirichlet_series_string")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, /, *args, after=None, **kwargs):
        """Run fn inside a span; ``after(args, result, seconds)`` runs once
        the span has ended, so the counts it takes are not timed."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if after is not None:
            after(args, result, span[2] - span[1])
        return result

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, after=after, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(module, attr) is original
                   for module, attr, original in self._saved)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_seconds"] += end - start - child
        return out


class Probe:
    """Counts taken at the wrapped boundaries: the per-row profile of every
    contraction, the final Z of each, and the states enumerated."""

    def __init__(self):
        self.item = None
        self.profiles: dict[str, list[dict]] = {}
        self.finals: dict[str, dict] = {}
        self.states = 0
        self.last_z = None

    def begin(self, item_name: str) -> None:
        self.item = item_name
        self.last_z = None

    def after_apply_row(self, args, result, seconds) -> None:
        mode = args[4]
        row = {"layers": len(result),
               "terms": sum(len(poly.terms) for poly in result.values()),
               "seconds": seconds}
        if mode.name == "numeric":
            row["noise_terms"] = sum(1 for poly in result.values()
                                     for c in poly.terms.values() if abs(c) < NOISE_FLOOR)
        else:
            row["sym_terms"] = sum(len(c.terms) for poly in result.values()
                                   for c in poly.terms.values())
        self.profiles.setdefault(self.item, []).append(row)

    def after_contract(self, args, result, seconds) -> None:
        boundary, family, mode = args[:3]
        final = {"terms": len(result.terms)}
        if mode.name == "symbolic":
            final["sym_terms"] = sum(len(c.terms) for c in result.terms.values())
        self.finals[self.item] = final
        self.last_z = (boundary, family, result)

    def after_enumerate(self, args, result, seconds) -> None:
        self.states += len(result)

    def hooks(self) -> dict:
        return {"transfer.apply_row": self.after_apply_row,
                "transfer.contract_partition": self.after_contract,
                "lattice.enumerate_states": self.after_enumerate}


def install(tracer: Tracer, program, probe: Probe) -> None:
    hooks = probe.hooks()
    for module, attr, name in WRAPS:
        tracer.wrap(getattr(program, module), attr, name, after=hooks.get(name))


def layer_metrics(totals: dict, probe: Probe, extra: dict) -> dict[str, float]:
    """Per-layer metric values from the span totals, the probe's counts and
    the counts the run took itself (``extra``)."""

    def seconds(*names, self_time=True):
        key = "self_seconds" if self_time else "seconds"
        return sum((totals[n][key] for n in names if n in totals), 0.0)

    rows = [row for profile in probe.profiles.values() for row in profile]
    carried = sum(row["terms"] for row in rows)
    final_terms = sum(f["terms"] for f in probe.finals.values())
    return {
        "transfer.apply_row_s": seconds("transfer.apply_row"),
        "transfer.apply_row_calls": totals.get("transfer.apply_row", {}).get("calls", 0),
        "transfer.layers_peak": max((r["layers"] for r in rows), default=0),
        "transfer.terms_peak": max((r["terms"] for r in rows), default=0),
        "transfer.terms_carried": carried,
        "transfer.useful_term_ratio": final_terms / carried if carried else 0.0,
        "transfer.two_row_s": seconds("transfer.two_row_check", self_time=False),
        "laurent.noise_terms_peak": max((r.get("noise_terms", 0) for r in rows), default=0),
        "laurent.support_missing": extra["support_missing"],
        "coeffs.sym_terms_peak": max((r.get("sym_terms", 0) for r in rows), default=0),
        "coeffs.sym_terms_final": sum(f.get("sym_terms", 0) for f in probe.finals.values()),
        "lattice.enumerate_s": seconds("lattice.enumerate_states"),
        "lattice.states": probe.states,
        "lattice.count_s": seconds("lattice.count_states"),
        "partition.profiles_s": seconds("partition.boundary_profiles"),
        "partition.evaluate_s": seconds("partition.evaluate_profiles"),
        "partition.matching_s": seconds("partition.matching_check"),
        "partition.profile_cache_hit_ratio": extra["profile_cache_hit_ratio"],
        "patterns.pattern_weight_s": seconds("patterns.pattern_side_weight"),
        "weyl.functional_eq_s": seconds("weyl.functional_eq_check"),
        "weyl.charges_s": seconds("weyl.charge_duality_check"),
        "ybe.check_s": seconds("ybe.ybe_check", self_time=False),
        "jsonio.render_s": seconds(*RENDER_SPANS),
        "jsonio.output_bytes": extra["output_bytes"],
        "jsonio.output_changed": extra["output_changed"],
        "gauss.table_s": seconds("gauss.gauss_table", self_time=False),
        "trace.overhead_ratio": extra["overhead_ratio"],
    }
