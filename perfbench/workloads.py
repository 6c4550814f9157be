"""The benchmark's workloads: fixed lists of whitice CLI calls.

Every item is one ``whitice.cli.main(argv)`` call.  An item's ``kind`` says
how its output is checked (see ``checks.py``), its ``key`` names its
reference entry and its ``name`` its recorded output digest.  Neither
contains the workload seed.

The seed drives only the random two-row boundaries of ``verify-sweep``; the
contraction ladders are fixed inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

WORKLOADS = ("contract-numeric", "contract-exact", "verify-sweep")

#: (lambda, n, q) ladder of the numeric contraction workload
NUMERIC_LADDER = (((6, 5, 4, 2, 1, 0), 3, 7),
                  ((8, 6, 4, 2, 0), 2, 5),
                  ((2, 2, 2, 2, 2, 0), 1, 61))

#: rank-4 weight of the exact contraction workload, run at every n below
EXACT_LAMBDA = (3, 3, 2, 1, 0)
EXACT_NS = (1, 2, 3)

#: every (n, q) with q in {5, 7, 13} prime and 2n | q - 1 (acceptance grid)
ACCEPTANCE_NQ = ((1, 5), (1, 7), (1, 13), (2, 5), (2, 13), (3, 7), (3, 13))

#: numeric (n, q) per modulus for the two-row and functional-equation checks
NUMERIC_Q = {2: 5, 3: 7}

FAMILIES = ("gamma", "delta")


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    kind: str  # "numeric-table" | "exact-table" | "report"
    key: str
    name: str
    lam: tuple[int, ...] = ()
    n: int = 1
    q: int | None = None


def lambda_grid(max_rank: int, max_part: int):
    """Every dominant weight of rank <= max_rank with parts <= max_part,
    in the order of the acceptance suite."""
    yield (0,)
    for rank in range(1, max_rank + 1):
        for parts in itertools.combinations_with_replacement(
                range(max_part, -1, -1), rank):
            yield tuple(parts) + (0,)


def text(parts) -> str:
    return ",".join(str(p) for p in parts)


def table_key(lam, n: int, q: int | None) -> str:
    """Reference key of a Whittaker table; both families share it, since
    their tables agree (statement A)."""
    return f"{text(lam)} n={n}" + ("" if q is None else f" q={q}")


def _table(argv: tuple[str, ...], kind: str, lam, n: int,
           q: int | None = None) -> Item:
    return Item(argv, kind, table_key(lam, n, q), " ".join(argv), lam, n, q)


def _report(argv: list[str]) -> Item:
    name = " ".join(argv).replace("{seed}", "<seed>")
    return Item(tuple(argv), "report", name, name)


def items(workload: str, seed: int) -> list[Item]:
    if workload == "contract-numeric":
        return [_table(("whittaker", "--lambda", text(lam), "--ice", family,
                        "--strategy", "transfer", "--coeff", "numeric",
                        "--n", str(n), "--q", str(q)),
                       "numeric-table", lam, n, q)
                for lam, n, q in NUMERIC_LADDER for family in FAMILIES]
    if workload == "contract-exact":
        return [_table(("whittaker", "--lambda", text(EXACT_LAMBDA), "--ice", family,
                        "--strategy", "transfer", "--dirichlet", "--n", str(n)),
                       "exact-table", EXACT_LAMBDA, n)
                for n in EXACT_NS for family in FAMILIES]
    if workload == "verify-sweep":
        return [_seeded(item, seed) for item in _sweep()]
    raise ValueError(f"unknown workload {workload!r}")


def _seeded(item: Item, seed: int) -> Item:
    return replace(item, argv=tuple(a.replace("{seed}", str(seed)) for a in item.argv))


def _sweep() -> list[Item]:
    """The traffic of the acceptance criteria.  The exact statement-a pass
    fills the profile cache cold and the numeric passes reuse it warm."""
    grid = [text(lam) for lam in lambda_grid(3, 3)]
    out = [_report(["verify", "prop-matching", "--lambda", lam]) for lam in grid]
    out += [_report(["verify", "statement-a", "--lambda", lam, "--n", "1"])
            for lam in grid]
    for n, q in ACCEPTANCE_NQ:
        out += [_report(["verify", "statement-a", "--lambda", lam,
                         "--coeff", "numeric", "--n", str(n), "--q", str(q)])
                for lam in grid]
    modes = [["--n", "1"]] + [["--coeff", "numeric", "--n", str(n), "--q", str(q)]
                              for n, q in NUMERIC_Q.items()]
    out += [_report(["verify", "two-row", "--random", "50", "--seed", "{seed}"] + m)
            for m in modes]
    fe_grid = [text(lam) for lam in lambda_grid(2, 3) if len(lam) >= 2]
    for mode in modes:
        out += [_report(["verify", "functional-eq", "--lambda", lam] + mode)
                for lam in fe_grid]
    out += [_report(["verify", "ybe-n1", "--perturb"]),
            _report(["verify", "charges", "--lambda", "6,4,2,0"]),
            _report(["enumerate", "--count-only", "--lambda", "8,6,4,2,0"])]
    return out
