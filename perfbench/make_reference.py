"""Regenerate the reference outputs under ``reference/``.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every item of each workload once (seeded items with seed 0) and records
its exit code, output digest and checked content.  Before a table is
recorded, the gamma and delta outputs must agree with each other.  A numeric
table is recorded as the exact table evaluated at the Gauss table where the
exact contraction finishes here, and the numeric outputs must agree with it.
Only run this when an output is meant to change; the benchmark's checks are
only as good as the references.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from program import call, load_program  # noqa: E402

#: numeric ladder entries whose exact contraction is too large to run (rank 5
#: at n = 3 had not finished after two minutes and 1.9 GB); their reference
#: is the numeric table of the code the references were made from
NO_EXACT = {workloads.table_key((6, 5, 4, 2, 1, 0), 3, 7)}


def table_reference(program, key: str, outputs) -> dict:
    """Reference of one table from the gamma and delta outputs of its items."""
    item = outputs[0][0]
    jsonio = program.jsonio
    if item.kind == "exact-table":
        tables = [checks.reduced(program.partition.parse_dirichlet_series(
            text, len(item.lam) - 1), item.n) for _, text in outputs]
        if any(t != tables[0] for t in tables):
            raise SystemExit(f"{key}: gamma and delta exact tables differ")
        return {"exact": jsonio.whittaker_to_json(tables[0])}
    numeric = [checks.numeric_table(text) for _, text in outputs]
    if key in NO_EXACT:
        reference = numeric[0]
    else:
        boundary = program.lattice.boundary_from_lambda(item.lam)
        mode = program.coeffs.SymbolicMode(item.n)
        exact = [checks.reduced(program.partition.whittaker_table(
            boundary, family, mode, strategy="transfer"), item.n)
            for family in workloads.FAMILIES]
        if exact[0] != exact[1]:
            raise SystemExit(f"{key}: gamma and delta exact tables differ")
        gauss = program.gauss.gauss_table(item.n, item.q)
        reference = {k: c.evaluate(gauss) for k, c in exact[0].items()}
    entry = {"from_exact": key not in NO_EXACT,
             "numeric": jsonio.whittaker_to_json(reference)}
    for got in numeric:
        mismatch = checks.numeric_mismatch(got, reference)
        if mismatch:
            raise SystemExit(f"{key}: numeric output disagrees: {mismatch}")
    return entry


def build(program, workload: str) -> dict:
    digests, reports, grouped = {}, {}, {}
    for item in workloads.items(workload, seed=0):
        rc, text = call(program.cli, item.argv)
        if rc != 0:
            raise SystemExit(f"{item.name}: exit code {rc}")
        digests[item.name] = {"rc": rc, "sha256": checks.digest(item, text)}
        if item.kind == "report":
            reports[item.key] = json.loads(text)
        else:
            grouped.setdefault(item.key, []).append((item, text))
    tables = {key: table_reference(program, key, outputs)
              for key, outputs in grouped.items()}
    return {"digests": digests, "tables": tables, "reports": reports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*",
                        help=f"any of {', '.join(workloads.WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.workload) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    program = load_program()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        reference = build(program, workload)
        # mtime=0 keeps the file bytes a function of the content alone
        with open(checks.reference_path(workload), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(reference, separators=(",", ":"),
                                sort_keys=True).encode())
        print(f"{workload}: {len(reference['digests'])} items, "
              f"{checks.reference_path(workload).stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
