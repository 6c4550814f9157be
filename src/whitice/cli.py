"""Command-line interface.

Commands:

    whitice enumerate  --lambda L             list lattice states
    whitice partition  --lambda L [...]       partition function
    whitice whittaker  --lambda L [...]       coefficient table
    whitice gauss      --n N --q Q            dump a Gauss-sum table
    whitice bench      --lambda L [...]       contraction benchmark
    whitice verify     CHECK [...]            run one verification

Verification checks: statement-a, prop-matching, ybe-n1, two-row,
statement-b, functional-eq (at --n 1, the row swap), charges.  Every
command prints JSON (or a rendered polynomial where noted) and is
deterministic for a fixed --seed.  Exit codes: 0 success/pass, 1
verification failure, 2 bad usage or configuration: any ValueError a
command raises (an invalid weight or mathematical parameter, or an input
past a size bound) is printed as {"error": "config", "detail": ...}.

--lambda is the weight itself, comma-separated and including the trailing
zero part, e.g. --lambda 3,2,0; the strictly decreasing boundary row is
derived internally by adding (r, r-1, ..., 0), r = the number of parts - 1.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from random import Random

from . import jsonio, transfer, weyl, ybe
from .coeffs import Mode, SymbolicMode
from .gauss import gauss_table
from .lattice import (FAMILIES, boundary_from_lambda, count_rows, count_states,
                      enumerate_states)
from .laurent import LaurentPoly
from .partition import (
    dirichlet_series_string,
    matching_check,
    numeric_mode,
    packed_table_text,
    packed_whittaker,
    partition_function,
    statement_a_check,
    whittaker_table,
)


#: largest state count `enumerate` lists; larger boundaries take --count-only
MAX_LISTED_STATES = 100_000

#: widest lattice a command builds.  Wider lattices compute correctly, but a
#: row walk visits every column of every live partial walk, so time grows
#: faster than the width: a rank-1 contraction at 1,202 columns takes about
#: 20 times as long as at 256, and one at 2,402 columns about 90 times
MAX_COLUMNS = 256

#: most random boundaries `verify two-row --random` draws in one run
MAX_RANDOM_BOUNDARIES = 1000

#: most classes `verify functional-eq` checks without --j; its report lists each
MAX_CLASSES = 100_000

#: most states a command walks one by one (the enumerate strategy,
#: statement-a, prop-matching, functional-eq).  The enumerate strategy keeps
#: every state's profile in a process-wide cache: 873,392 states at rank 6
#: took 266 MB, so this many stay near 150 MB a family.
MAX_ENUMERATED_STATES = 500_000

#: most distinct rows `verify charges` checks.  The rank-6 staircase has
#: 130,601 and passes in a few seconds; the rank-7 staircase has more, and
#: its count stops one past this bound in under a second
MAX_CHECKED_ROWS = 500_000

#: the ``tol`` of verify reports' params, the field they always carried;
#: every check decides by equality and none reads it
REPORTED_TOL = 1e-9
#: the same field of the functional-eq report
REPORTED_FE_TOL = 1e-8


def _parse_parts(text: str, flag: str) -> tuple[int, ...]:
    try:  # an empty text is the empty row
        return tuple(int(p) for p in text.split(",")) if text else ()
    except ValueError as exc:
        raise ValueError(f"{flag} must be comma-separated integers: {exc}")


def _check_columns(columns: int, flag: str) -> None:
    if columns > MAX_COLUMNS:
        raise ValueError(f"{flag} asks for {columns} columns, more than the "
                         f"{MAX_COLUMNS} a lattice may have")


def _lambda_arg(args) -> tuple[int, ...]:
    lam = _parse_parts(args.lam, "--lambda")
    if not lam:
        raise ValueError("--lambda needs at least one part")
    _check_columns(max(lam) + len(lam), "--lambda")
    return lam


def _rows_arg(args, rank: int) -> list[int]:
    """The row pairs --i selects: 1..rank, all of them by default.  A rank-0
    --lambda has no row pair, so a check on it would pass with nothing
    checked."""
    if rank == 0:
        raise ValueError("--lambda has rank 0: there is no row pair to check")
    if args.i is None:
        return list(range(1, rank + 1))
    if not 1 <= args.i <= rank:
        raise ValueError(f"--i {args.i} is not a row pair in 1..{rank}")
    return [args.i]


def _boundary(args):
    """(--lambda parts, their boundary)."""
    lam = _lambda_arg(args)
    return lam, boundary_from_lambda(lam)


def _check_enumerable(boundary, remedy: str = "") -> None:
    """Refuse, before any state or profile is built, a boundary with more
    states than a command walks one by one.  `remedy` names what the
    refused command can do instead, if it takes an option that avoids the
    walk."""
    if count_states(boundary, MAX_ENUMERATED_STATES) > MAX_ENUMERATED_STATES:
        raise ValueError(f"the boundary has more than the {MAX_ENUMERATED_STATES} "
                         f"states a command walks one by one" + remedy)


#: the `remedy` of a command that contracts the boundary under --strategy transfer
TRANSFER_REMEDY = "; --strategy transfer contracts it instead"


def _mode(args) -> Mode:
    """Coefficient policy from --coeff/--n/--q flags; --q alone selects
    numeric coefficients."""
    coeff = getattr(args, "coeff", None)
    n = getattr(args, "n", 1)
    q = getattr(args, "q", None)
    if coeff == "symbolic" and q is not None:
        raise ValueError("--coeff symbolic takes no --q; --q selects numeric coefficients")
    if coeff == "numeric" or q is not None:
        if q is None:
            raise ValueError("numeric mode requires --q")
        return numeric_mode(n, q)
    return SymbolicMode(n)


def _emit(obj, render=None) -> None:
    """Print a string as it is and anything else as indent-2 JSON, rendered
    by `render` (:func:`jsonio.dumps` by default).  A numeric Whittaker
    table is passed as the ``{k: coeff}`` dict with
    :func:`jsonio.dumps_whittaker`, which writes it one template per entry;
    an exact table arrives as the text :func:`.partition.packed_table_text`
    wrote."""
    if isinstance(obj, str):
        print(obj)
    else:
        print((render or jsonio.dumps)(obj))


# ---------------------------------------------------------------------------
#  Plain commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    _, boundary = _boundary(args)
    if args.count_only:
        _emit({"columns": boundary.columns, "count": count_states(boundary)})
        return 0
    if count_states(boundary, MAX_LISTED_STATES) > MAX_LISTED_STATES:
        raise ValueError(f"the boundary has more than the {MAX_LISTED_STATES} "
                         f"states enumerate lists; use --count-only")
    states = list(enumerate_states(boundary))
    _emit({
        "columns": boundary.columns,
        "count": len(states),
        "states": [jsonio.state_to_json(s, args.ice) for s in states],
    })
    return 0


def cmd_partition(args) -> int:
    _, boundary = _boundary(args)
    mode = _mode(args)
    if args.strategy == "enumerate":
        _check_enumerable(boundary, TRANSFER_REMEDY)
    poly = partition_function(boundary, args.ice, mode, strategy=args.strategy)
    if args.json:
        _emit(jsonio.poly_to_json(poly))
    else:
        _emit(str(poly))
    return 0


def cmd_whittaker(args) -> int:
    _, boundary = _boundary(args)
    mode = _mode(args)
    if args.strategy == "enumerate":
        _check_enumerable(boundary, TRANSFER_REMEDY)
    if mode.name == "symbolic":
        _emit(packed_table_text(*packed_whittaker(boundary, args.ice, mode, args.strategy),
                                dirichlet=args.dirichlet))
        return 0
    table = whittaker_table(boundary, args.ice, mode, strategy=args.strategy)
    if args.dirichlet:
        _emit(dirichlet_series_string(table))
    else:
        _emit(table, jsonio.dumps_whittaker)
    return 0


def cmd_gauss(args) -> int:
    table = gauss_table(args.n, args.q)
    _emit(jsonio.gauss_table_to_json(table))
    return 0


def cmd_bench(args) -> int:
    _, boundary = _boundary(args)
    mode = _mode(args)
    if args.compare:
        _check_enumerable(boundary, "; without --compare, bench times the contraction alone")
    states = count_states(boundary)  # refuses a boundary too wide to count
    t0 = time.perf_counter()
    packed = transfer.contract_packed(boundary, args.ice, mode)
    t1 = time.perf_counter()
    report = {
        "columns": boundary.columns,
        "rank": boundary.rank,
        "states": states,
        "transfer_seconds": round(t1 - t0, 6),
    }
    if args.compare:
        t2 = time.perf_counter()
        direct = partition_function(boundary, args.ice, mode, strategy="enumerate")
        t3 = time.perf_counter()
        report["enumerate_seconds"] = round(t3 - t2, 6)
        report["agree"] = transfer.unpack_partition(boundary, packed) == direct
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
#  Verification checks
# ---------------------------------------------------------------------------

def _finish(report: dict) -> int:
    _emit(report)
    return 0 if report["pass"] else 1


def verify_statement_a(args) -> int:
    lam, boundary = _boundary(args)
    mode = _mode(args)
    _check_enumerable(boundary)
    equal = statement_a_check(lam, mode)
    # the tables are built only to show how they differ
    counter = None if equal else {
        family: jsonio.whittaker_to_json(whittaker_table(boundary, family, mode))
        for family in FAMILIES}
    params = {"lambda": list(lam), "n": mode.n,
              "mode": mode.name, "tol": REPORTED_TOL}
    if mode.name == "numeric":
        params["q"] = mode.q
    return _finish(jsonio.report("statement-a", params, equal, counter))


def verify_prop_matching(args) -> int:
    lam, boundary = _boundary(args)
    _check_enumerable(boundary)
    families = ("gamma", "delta") if args.ice == "both" else (args.ice,)
    counter = None
    for family in families:
        offenders = matching_check(boundary, family)
        if offenders:
            counter = {"family": family,
                       "layers": [list(l) for l in offenders[0].layers]}
            break
    params = {"lambda": list(lam), "families": list(families)}
    return _finish(jsonio.report("prop-matching", params, counter is None, counter))


def verify_ybe_n1(args) -> int:
    ok, failures = ybe.ybe_check()
    counter = {"boundary_spins": [list(f) for f in failures[:5]]} if failures else None
    report = jsonio.report("ybe-n1", {"boundaries": 64}, ok, counter)
    if args.perturb:
        config = ybe.MIXED_CONFIGS[0]
        bad_ok, bad_failures = ybe.ybe_check(ybe.perturbed(ybe.rmatrix_n1(), config))
        report["perturbation_control"] = {
            "entry": list(config),
            "pass": bad_ok,
            "failing_boundaries": len(bad_failures),
        }
        if bad_ok:
            report["pass"] = False  # the control is supposed to fail
    return _finish(report)


def verify_two_row(args) -> int:
    mode = _mode(args)
    slabs = []
    if args.l is not None or args.m is not None:
        if args.l is None or args.m is None:
            raise ValueError("two-row needs both --l and --m")
        top = _parse_parts(args.l, "--l")
        bottom = _parse_parts(args.m, "--m")
        _check_columns(transfer.check_two_row_boundary(top, bottom), "--l/--m")
        slabs.append((top, bottom))
    if args.random < 0:
        raise ValueError(f"--random {args.random} is negative")
    if args.random:
        if args.random > MAX_RANDOM_BOUNDARIES:
            raise ValueError(f"--random {args.random} is more than the "
                             f"{MAX_RANDOM_BOUNDARIES} boundaries one run checks")
        _check_columns(args.max_width, "--max-width")
        if args.max_width < 3:
            raise ValueError(f"--max-width {args.max_width} is less than the "
                             f"3 columns a random two-row boundary needs")
        rng = Random(args.seed)
        for _ in range(args.random):
            slabs.append(transfer.random_two_row_boundary(rng, args.max_width))
    if not slabs:
        raise ValueError("two-row needs --l/--m or --random N")
    counter = None
    for top, bottom in slabs:  # a slab with no state is refused
        if not transfer.two_row_check(top, bottom, mode):
            # both Z are unpacked only to show how they differ
            counter = {"l": list(top), "m": list(bottom),
                       **{order: str(transfer.two_row_partition(top, bottom, order, mode))
                          for order in transfer.TWO_ROW_ORDERS}}
            break
    params = {"pairs": len(slabs), "n": mode.n, "mode": mode.name,
              "tol": REPORTED_TOL, "seed": args.seed}
    return _finish(jsonio.report("two-row", params, counter is None, counter))


def verify_statement_b(args) -> int:
    top = _parse_parts(args.l, "--l")
    bot = _parse_parts(args.m, "--m")
    mode = _mode(args)
    _check_columns(transfer.check_two_row_boundary(top, bot), "--l/--m")
    feasible, sums_gd, sums_dg = transfer.slab_sums(top, bot, mode)
    ks = [k for k in feasible if args.k in (None, k)]
    if not ks:
        raise ValueError(transfer.NO_STATE + ("" if args.k is None else
                                              f" with middle row sum {args.k}"))
    counter = None
    results = []
    for k in ks:
        exponents = (sum(top) - k, k - sum(bot))
        ok = (transfer.graded_entries(sums_gd, exponents)
              == transfer.graded_entries(sums_dg, exponents))
        results.append({"k": k, "pass": ok})
        if not ok and counter is None:
            # the coefficients are unpacked only to show how they differ
            left, right = (transfer.two_row_partition(top, bot, order, mode).coeff(exponents)
                           for order in transfer.TWO_ROW_ORDERS)
            counter = {"k": k, "left": jsonio.coeff_to_json(left),
                       "right": jsonio.coeff_to_json(right)}
    # "route" names the one route there is; reports keep the field they carried
    params = {"l": list(top), "m": list(bot), "route": "coefficient",
              "n": mode.n, "mode": mode.name, "tol": REPORTED_TOL}
    report = jsonio.report("statement-b", params, counter is None, counter)
    report["results"] = results
    return _finish(report)


def verify_functional_eq(args) -> int:
    lam, boundary = _boundary(args)
    rows = _rows_arg(args, boundary.rank)
    mode = _mode(args)
    n = mode.n
    if args.j is not None and not 0 <= args.j < n:
        raise ValueError(f"--j {args.j} is not a class in 0..{n - 1}")
    if args.j is None and n > MAX_CLASSES:
        raise ValueError(f"--n {n} has more than the {MAX_CLASSES} classes one run "
                         f"checks; --j picks one")
    classes = [args.j] if args.j is not None else list(range(n))
    _check_enumerable(boundary)
    # checked on the exact Z at n; a numeric mode shows the sides rounded once
    z = partition_function(boundary, args.ice, SymbolicMode(n))
    counter = None
    sides = None
    for i in rows:
        for j in classes:
            ok, lhs, rhs = weyl.functional_eq_check(z, i, j)
            if sides is None or not ok:  # the only sides a report shows
                lhs, rhs = _shown(lhs, mode), _shown(rhs, mode)
            if sides is None:
                sides = {"i": i, "j": j, "lhs": jsonio.poly_to_json(lhs),
                         "rhs": jsonio.poly_to_json(rhs)}
            if not ok:
                counter = {"i": i, "j": j, "lhs": str(lhs), "rhs": str(rhs)}
                break
        if counter:
            break
    params = {"lambda": list(lam), "rows": rows, "classes": classes,
              "n": n, "mode": mode.name, "ice": args.ice, "tol": REPORTED_FE_TOL}
    report = jsonio.report("functional-eq", params, counter is None, counter)
    report["first_instance"] = sides
    return _finish(report)


def _shown(poly: LaurentPoly, mode: Mode) -> LaurentPoly:
    """An exact polynomial as `mode` reports it: in numeric mode each
    coefficient rounded once (:meth:`.coeffs.SymCoeff.evaluate`)."""
    if mode.name == "symbolic":
        return poly
    return LaurentPoly(poly.nvars, mode, {e: c.evaluate(mode.table) for e, c in poly.terms.items()})


def verify_charges(args) -> int:
    lam, boundary = _boundary(args)
    if count_rows(boundary, MAX_CHECKED_ROWS) > MAX_CHECKED_ROWS:
        raise ValueError(f"the boundary has more than the {MAX_CHECKED_ROWS} "
                         f"distinct rows charges checks one by one")
    ok, failures = weyl.charge_duality_check(boundary)
    counter = None
    if failures:
        layers, row, reason = failures[0]
        counter = {"layers": [list(l) for l in layers], "row": row,
                   "reason": reason}
    params = {"lambda": list(lam)}
    return _finish(jsonio.report("charges", params, ok, counter))


VERIFY_COMMANDS = {
    "statement-a": verify_statement_a,
    "prop-matching": verify_prop_matching,
    "ybe-n1": verify_ybe_n1,
    "two-row": verify_two_row,
    "statement-b": verify_statement_b,
    "functional-eq": verify_functional_eq,
    "charges": verify_charges,
}


# ---------------------------------------------------------------------------
#  Parser
# ---------------------------------------------------------------------------

def _add_lambda_flag(p) -> None:
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated weight parts incl. trailing 0, e.g. 3,2,0")


def _add_mode_flags(p, default_n: int = 1) -> None:
    p.add_argument("--coeff", choices=("symbolic", "numeric"), default=None,
                   help="default: numeric with --q, symbolic without")
    p.add_argument("--n", type=int, default=default_n,
                   help="order of the character group (charges live mod n)")
    p.add_argument("--q", type=int, default=None,
                   help="prime with 2n | q-1; selects numeric coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitice",
        description="Six-vertex lattice models computing spherical Whittaker "
                    "coefficients: exact partition functions and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the admissible states of a boundary")
    _add_lambda_flag(p)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma",
                   help="row order recorded in the JSON dump")
    p.add_argument("--count-only", action="store_true",
                   help=f"print only the count (required above {MAX_LISTED_STATES} states)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("partition", help="partition function of a boundary")
    _add_lambda_flag(p)
    _add_mode_flags(p)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--strategy", choices=("enumerate", "transfer"),
                   default="enumerate")
    p.add_argument("--json", action="store_true",
                   help="emit the polynomial as JSON instead of rendered text")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("whittaker", help="Whittaker coefficient table")
    _add_lambda_flag(p)
    _add_mode_flags(p)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--strategy", choices=("enumerate", "transfer"),
                   default="enumerate")
    p.add_argument("--dirichlet", action="store_true",
                   help="render as a Dirichlet series string")
    p.set_defaults(func=cmd_whittaker)

    p = sub.add_parser("gauss", help="dump a Gauss-sum table as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("bench", help="time the transfer contraction")
    _add_lambda_flag(p)
    _add_mode_flags(p, default_n=3)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--compare", action="store_true",
                   help="also run full enumeration and compare")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run one verification check")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("statement-a", help="gamma and delta tables agree")
    _add_lambda_flag(v)
    _add_mode_flags(v)
    v.set_defaults(func=verify_statement_a)

    v = vsub.add_parser("prop-matching",
                        help="state weights match pattern weights exactly")
    _add_lambda_flag(v)
    v.add_argument("--ice", choices=("gamma", "delta", "both"), default="both")
    v.set_defaults(func=verify_prop_matching)

    v = vsub.add_parser("ybe-n1",
                        help="crossing-vertex equation on all 64 boundaries")
    v.add_argument("--perturb", action="store_true",
                   help="also run the shifted-entry negative control")
    v.set_defaults(func=verify_ybe_n1)

    v = vsub.add_parser("two-row", help="mixed-row partition functions agree")
    _add_mode_flags(v)
    v.add_argument("--l", default=None, help="top boundary row, comma-separated")
    v.add_argument("--m", default=None, help="bottom boundary row, comma-separated")
    v.add_argument("--random", type=int, default=0, metavar="N",
                   help="also check N random boundaries")
    v.add_argument("--max-width", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=verify_two_row)

    v = vsub.add_parser("statement-b",
                        help="middle-row exchange identity at fixed sum")
    _add_mode_flags(v)
    v.add_argument("--l", required=True, help="top row, comma-separated")
    v.add_argument("--m", required=True, help="bottom row, comma-separated")
    v.add_argument("--k", type=int, default=None,
                   help="middle row sum (default: every feasible sum)")
    v.set_defaults(func=verify_statement_b)

    v = vsub.add_parser("functional-eq",
                        help="exchange functional equation, cleared form; --n 1 is the row swap")
    _add_lambda_flag(v)
    _add_mode_flags(v)
    v.add_argument("--i", type=int, default=None, help="row pair (default all)")
    v.add_argument("--j", type=int, default=None, help="class mod n (default all)")
    v.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    v.set_defaults(func=verify_functional_eq)

    v = vsub.add_parser("charges", help="charge labels match z-exponent duality")
    _add_lambda_flag(v)
    v.set_defaults(func=verify_charges)

    return parser


@functools.cache
def parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call rather than at
    import; argparse keeps no state between ``parse_args`` calls."""
    return build_parser()


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _emit({"error": "config", "detail": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
