"""The whitice benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; whitice is imported from ``src/`` there.
Each workload is a single-threaded closed loop in this one process: every
item is one ``whitice.cli.main(argv)`` call with stdout captured and checked
against the references in ``reference/``, and the next item starts when the
previous one returns.  A pass runs every item of the workload once, with the
profile cache emptied first, so each pass does the same work.  Passes repeat
until S seconds have gone.  Timings are per item, the median over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then one traced pass that wraps each layer's boundary functions
(see ``tracing.py``), and prints the per-layer metrics; it writes the spans and
per-row contraction profiles to ``perfbench/out/``.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with every
metric named in ``BENCHMARK.json`` and its unit.  ``failed`` counts items
whose exit code or output check failed; it is the workload's failed-ops count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from program import ProgramMissing, call, load_program  # noqa: E402

SPEC = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"
#: set-ups per untraced run; set-up time is their median
SETUPS = 5


@dataclass
class Pass:
    durations: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    changed: int = 0
    output_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.durations)


class Run:
    """One workload, its references and the passes run over it."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.items = workloads.items(workload, seed)
        self.setup_times: list[float] = []
        self.program = None
        self.profiles_cache = None
        self.refs = None
        self.verified: dict[str, tuple[int, str]] = {}

    def setup(self) -> None:
        """Import whitice afresh and prepare the references."""
        self.program = self.refs = None
        gc.collect()
        start = time.perf_counter()
        self.program = load_program()
        self.profiles_cache = self.program.partition.boundary_profiles
        self.refs = checks.References(self.workload, self.items, self.program)
        self.setup_times.append(time.perf_counter() - start)

    def run_pass(self, controls: dict | None = None, probe=None, tracer=None,
                 missing: dict | None = None) -> Pass:
        """One closed-loop pass over the items.  With ``controls``, the first
        and last item are also checked against a corrupted reference and the
        verdicts stored there.  With a tracer, each item is a root span."""
        self.profiles_cache.cache_clear()
        gc.collect()
        result = Pass()
        cli = self.program.cli
        last = len(self.items) - 1
        for index, item in enumerate(self.items):
            if probe is not None:
                probe.begin(item.name)
            start = time.perf_counter()
            try:
                if tracer is not None:
                    rc, text = tracer.call("cli.main", call, cli, item.argv)
                else:
                    rc, text = call(cli, item.argv)
            except Exception:  # an item that crashes is a failed op; go on
                result.durations.append(time.perf_counter() - start)
                result.digests.append("")
                result.failures.append(f"{item.name}: {traceback.format_exc(limit=3)}")
                continue
            result.durations.append(time.perf_counter() - start)
            output_digest = checks.digest(item, text)
            failure = self.verify(item, rc, text, output_digest)
            result.digests.append(output_digest)
            result.changed += self.refs.changed(item, output_digest)
            result.output_bytes += len(text.encode())
            if failure:
                result.failures.append(f"{item.name}: {failure}")
            if controls is not None and index in (0, last):
                wrong = self.refs.check(item, rc, text, self.seed,
                                        self.refs.corrupted(item))
                controls[item.name] = wrong is not None
            if missing is not None and item.key in self.refs.exact_support:
                missing[item.name] = self._support_missing(item, probe)
        return result

    def verify(self, item, rc: int, text: str, output_digest: str) -> str | None:
        """Check one output against the references.  An output identical to
        one of the same item that already passed in this run passes without
        a second comparison."""
        if self.verified.get(item.name) == (rc, output_digest):
            return None
        failure = self.refs.check(item, rc, text, self.seed)
        if failure is None:
            self.verified[item.name] = (rc, output_digest)
        return failure

    def _support_missing(self, item, probe) -> tuple[int, int]:
        """(monomials nonzero in the exact result but absent from the numeric
        Z, monomials of the exact result)."""
        boundary, family, z = probe.last_z
        spin = self.program.partition.spin_vector_of_exponents
        found = {spin(exps, boundary, family) for exps in z.terms}
        exact = self.refs.exact_support[item.key]
        return len(exact - found), len(exact)

    def loop(self, budget: float, controls: dict, reserve: float = 0.0) -> list[Pass]:
        """Passes while fewer than ``budget`` seconds, less ``reserve`` times
        the last pass's time, have gone; the pass running at the deadline
        ends normally.  The first pass runs the negative controls."""
        start = time.perf_counter()
        passes = [self.run_pass(controls)]
        while time.perf_counter() - start + reserve * passes[-1].wall < budget:
            passes.append(self.run_pass())
        return passes


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[rank - 1]


def item_medians(passes: list[Pass]) -> list[float]:
    """Each item's median time over the passes.  A burst of load on the
    machine that slows one pass then moves no item's figure."""
    return [statistics.median(times) for times in zip(*(p.durations for p in passes))]


def end_to_end(run: Run, passes: list[Pass]) -> dict[str, float]:
    items = item_medians(passes)
    p90 = percentile(items, 0.9)
    print(f"pass wall times (s): {', '.join(f'{p.wall:.3f}' for p in passes)}")
    print(f"set-up times (s): {', '.join(f'{t:.4f}' for t in run.setup_times)}")
    print(f"item samples: {len(items)} items, each the median of {len(passes)} "
          f"passes; {sum(t > p90 for t in items)} beyond p90")
    return {
        "wall_s": sum(items),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item_p50_s": statistics.median(items),
        "item_p90_s": p90,
    }


def traced(run: Run, args, untraced: list[Pass]) -> tuple[Pass, dict[str, float], list[str]]:
    """One traced pass after the untraced ones; returns it, the per-layer
    metrics and the self-check failures."""
    program = run.program
    tracer, probe = tracing.Tracer(), tracing.Probe()
    tracing.install(tracer, program, probe)
    missing: dict[str, tuple[int, int]] = {}
    try:
        result = run.run_pass(probe=probe, tracer=tracer, missing=missing)
        cache = run.profiles_cache.cache_info()
    finally:
        tracer.restore()
    problems = []
    if not tracer.restored():
        problems.append("a wrapped module attribute was not restored")
    for item, got, want in zip(run.items, result.digests, untraced[0].digests):
        if got != want:
            problems.append(f"traced output differs from untraced: {item.name}")
    lookups = cache.hits + cache.misses
    extra = {
        "support_missing": sum(gone for gone, _ in missing.values()),
        "profile_cache_hit_ratio": cache.hits / lookups if lookups else 0.0,
        "output_bytes": result.output_bytes,
        "output_changed": result.changed,
        "overhead_ratio": result.wall / sum(item_medians(untraced)),
    }
    totals = tracer.totals()
    metrics = tracing.layer_metrics(totals, probe, extra)
    print(f"traced pass: {result.wall:.3f} s; profile cache {cache.hits} hits "
          f"of {lookups} lookups; {len(result.failures)} failed")
    report_profiles(probe, missing)
    write_trace(run, args, tracer.spans, totals, probe, missing, metrics)
    return result, metrics, problems


def report_profiles(probe, missing: dict) -> None:
    """Print the per-row profile of every contraction item."""
    for name, rows in probe.profiles.items():
        extra = "noise_terms" if "noise_terms" in rows[0] else "sym_terms"
        print(f"profile: {name}")
        print(f"  {'row':>3} {'layers':>7} {'terms':>8} {extra:>11} {'seconds':>9}")
        for i, row in enumerate(rows, 1):
            print(f"  {i:>3} {row['layers']:>7} {row['terms']:>8} "
                  f"{row[extra]:>11} {row['seconds']:>9.4f}")
        if name in missing:
            gone, exact = missing[name]
            print(f"  support_missing: {gone} of {exact} exact monomials")


def write_trace(run: Run, args, spans, totals, probe, missing, metrics) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": run.workload, "seed": args.seed,
                   "spans": [{"name": n, "start": s, "end": e, "parent": p}
                             for n, s, e, p in spans],
                   "totals": totals, "profiles": probe.profiles,
                   "finals": probe.finals,
                   "support_missing": {name: {"missing": gone, "exact": exact}
                                       for name, (gone, exact) in missing.items()},
                   "metrics": metrics}, fh)
    print(f"trace written to {path.relative_to(HERE.parent)}")


def measure(args) -> dict:
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run = Run(args.workload, args.seed)
    for _ in range(1 if args.trace else SETUPS):
        run.setup()
    gc.collect()
    gc.freeze()  # keep set-up data out of the collections during the loop
    controls: dict[str, bool] = {}
    problems = []
    if args.trace:
        # room for one more untraced pass and the traced one (about 1.3 passes)
        passes = run.loop(args.seconds, controls, reserve=2.3)
        result, metrics, problems = traced(run, args, passes)
        passes.append(result)  # its items count as attempted and checked
    else:
        passes = run.loop(args.seconds, controls)
        metrics = end_to_end(run, passes)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.durations) for p in passes)
    print(f"{args.workload} seed {args.seed}: {attempted} items, "
          f"{len(failures)} failed, {sum(p.changed for p in passes)} output digests changed")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    caught = sum(controls.values())
    print(f"negative control: {caught} of {len(controls)} checks against a "
          f"corrupted reference reported failure (all expected)")
    if caught != len(controls):
        problems.append("a corrupted reference was not detected")
    for problem in problems:
        print(f"  SELF-CHECK {problem}")
    out_of_step = {m["name"] for m in wanted} ^ set(metrics)
    if out_of_step:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(out_of_step)}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="whitice benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
