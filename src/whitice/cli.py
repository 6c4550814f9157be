"""Command-line interface.

Commands:

    whitice enumerate  --rank R --lambda L            list lattice states
    whitice partition  --rank R --lambda L [...]      partition function
    whitice whittaker  --rank R --lambda L [...]      coefficient table
    whitice gauss      --n N --q Q                    dump a Gauss-sum table
    whitice bench      --rank R --lambda L [...]      contraction benchmark
    whitice verify     CHECK [...]                    run one verification

Verification checks: statement-a, prop-matching, ybe-n1, commute-rows,
two-row, statement-b, functional-eq, charges.  Every command prints JSON
(or a rendered polynomial where noted) and is deterministic for a fixed
--seed.  Exit codes: 0 success/pass, 1 verification failure, 2 bad usage
or configuration (including invalid mathematical parameters).

--lambda is the weight itself, comma-separated and including the trailing
zero part, e.g. --lambda 3,2,0; the strictly decreasing boundary row is
derived internally by adding (r, r-1, ..., 0).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from random import Random

from . import jsonio, patterns, transfer, weyl, ybe
from .coeffs import Mode, SymbolicMode
from .gauss import gauss_table
from .lattice import boundary_from_lambda, count_states, enumerate_states
from .partition import (
    dirichlet_series_string,
    matching_check,
    numeric_mode,
    partition_function,
    statement_a_check,
    whittaker_table,
)


class ConfigError(Exception):
    """Bad flag combination or invalid mathematical configuration."""


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--lambda must be comma-separated integers: {exc}")
    return parts


def _parse_parts(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated integers: {exc}")


def _lambda_arg(args) -> tuple[int, ...]:
    lam = _parse_lambda(args.lam)
    if getattr(args, "rank", None) is not None and args.rank != len(lam) - 1:
        raise ConfigError(
            f"--rank {args.rank} inconsistent with --lambda of {len(lam)} parts")
    return lam


def _boundary(args):
    try:
        return boundary_from_lambda(_lambda_arg(args))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _mode(args) -> Mode:
    """Coefficient policy from --coeff/--n/--q flags."""
    coeff = getattr(args, "coeff", "symbolic")
    n = getattr(args, "n", 1)
    q = getattr(args, "q", None)
    if coeff == "numeric" or q is not None:
        if q is None:
            raise ConfigError("numeric mode requires --q")
        try:
            return numeric_mode(n, q)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return SymbolicMode(n)


def _emit(obj) -> None:
    if isinstance(obj, str):
        print(obj)
    else:
        print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
#  Plain commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    boundary = _boundary(args)
    if args.count_only:
        _emit({"columns": boundary.columns, "count": count_states(boundary)})
        return 0
    states = list(enumerate_states(boundary))
    _emit({
        "columns": boundary.columns,
        "count": len(states),
        "states": [jsonio.state_to_json(s, args.ice) for s in states],
    })
    return 0


def cmd_partition(args) -> int:
    boundary = _boundary(args)
    mode = _mode(args)
    poly = partition_function(boundary, args.ice, mode, strategy=args.strategy)
    if args.json:
        _emit(jsonio.poly_to_json(poly))
    else:
        _emit(str(poly))
    return 0


def cmd_whittaker(args) -> int:
    boundary = _boundary(args)
    mode = _mode(args)
    table = whittaker_table(boundary, args.ice, mode, strategy=args.strategy)
    if args.dirichlet:
        _emit(dirichlet_series_string(table))
    else:
        _emit(jsonio.whittaker_to_json(table))
    return 0


def cmd_gauss(args) -> int:
    try:
        table = gauss_table(args.n, args.q)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _emit(jsonio.gauss_table_to_json(table))
    return 0


def cmd_bench(args) -> int:
    boundary = _boundary(args)
    mode = _mode(args)
    t0 = time.perf_counter()
    via_transfer = partition_function(boundary, args.ice, mode, strategy="transfer")
    t1 = time.perf_counter()
    report = {
        "columns": boundary.columns,
        "rank": boundary.rank,
        "states": count_states(boundary),
        "transfer_seconds": round(t1 - t0, 6),
    }
    if args.compare:
        t2 = time.perf_counter()
        direct = partition_function(boundary, args.ice, mode, strategy="enumerate")
        t3 = time.perf_counter()
        report["enumerate_seconds"] = round(t3 - t2, 6)
        report["agree"] = via_transfer.equal(direct, tol=1e-9)
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
#  Verification checks
# ---------------------------------------------------------------------------

def _finish(report: dict) -> int:
    _emit(report)
    return 0 if report["pass"] else 1


def verify_statement_a(args) -> int:
    lam = _lambda_arg(args)
    mode = _mode(args)
    equal, gamma_table, delta_table = statement_a_check(lam, mode, tol=args.tol)
    counter = None
    if not equal:
        counter = {
            "gamma": jsonio.whittaker_to_json(gamma_table),
            "delta": jsonio.whittaker_to_json(delta_table),
        }
    params = {"lambda": list(lam), "n": mode.n,
              "mode": mode.name, "tol": args.tol}
    if mode.name == "numeric":
        params["q"] = mode.q
    return _finish(jsonio.report("statement-a", params, equal, counter))


def verify_prop_matching(args) -> int:
    boundary = _boundary(args)
    families = ("gamma", "delta") if args.ice == "both" else (args.ice,)
    counter = None
    for family in families:
        offenders = matching_check(boundary, family)
        if offenders:
            counter = {"family": family,
                       "layers": [list(l) for l in offenders[0].layers]}
            break
    params = {"lambda": list(_lambda_arg(args)), "families": list(families)}
    return _finish(jsonio.report("prop-matching", params, counter is None, counter))


def verify_ybe_n1(args) -> int:
    mode = SymbolicMode(1)
    ok, failures = ybe.ybe_check(mode=mode)
    counter = {"boundary_spins": [list(f) for f in failures[:5]]} if failures else None
    report = jsonio.report("ybe-n1", {"boundaries": 64}, ok, counter)
    if args.perturb:
        config = ybe.MIXED_CONFIGS[0]
        bad_ok, bad_failures = ybe.ybe_check(
            ybe.perturbed(ybe.rmatrix_n1(mode), config, mode), mode=mode)
        report["perturbation_control"] = {
            "entry": list(config),
            "pass": bad_ok,
            "failing_boundaries": len(bad_failures),
        }
        if bad_ok:
            report["pass"] = False  # the control is supposed to fail
    return _finish(report)


def verify_commute_rows(args) -> int:
    lam = _lambda_arg(args)
    rank = len(lam) - 1
    rows = [args.i] if args.i is not None else list(range(1, rank + 1))
    counter = None
    for i in rows:
        ok, lhs, rhs = ybe.commutation_check(lam, i)
        if not ok:
            counter = {"i": i, "lhs": str(lhs), "rhs": str(rhs)}
            break
    params = {"lambda": list(lam), "rows": rows}
    return _finish(jsonio.report("commute-rows", params, counter is None, counter))


def verify_two_row(args) -> int:
    mode = _mode(args)
    triples = []
    if args.l is not None or args.m is not None:
        if args.l is None or args.m is None:
            raise ConfigError("two-row needs both --l and --m")
        triples.append((_parse_parts(args.l, "--l"),
                        _parse_parts(args.m, "--m"), args.columns))
    if args.random:
        rng = Random(args.seed)
        for _ in range(args.random):
            triples.append(transfer.random_two_row_boundary(rng, args.max_width))
    if not triples:
        raise ConfigError("two-row needs --l/--m or --random N")
    counter = None
    for top, bottom, columns in triples:
        try:
            equal, z_gd, z_dg = transfer.two_row_check(top, bottom, mode,
                                                       tol=args.tol,
                                                       columns=columns)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not equal:
            counter = {"l": list(top), "m": list(bottom),
                       "columns": columns,
                       "gamma-delta": str(z_gd), "delta-gamma": str(z_dg)}
            break
    params = {"pairs": len(triples), "n": mode.n, "mode": mode.name,
              "tol": args.tol, "seed": args.seed}
    return _finish(jsonio.report("two-row", params, counter is None, counter))


def _feasible_mid_sums(top, bot) -> list[int]:
    return sorted({sum(sp.mid) for sp in patterns.enumerate_short_patterns(top, bot)})


def verify_statement_b(args) -> int:
    top = _parse_parts(args.l, "--l")
    bot = _parse_parts(args.m, "--m")
    mode = _mode(args)
    try:
        transfer.check_two_row_boundary(top, bot, None)
    except ValueError as exc:
        raise ConfigError(str(exc))
    ks = [args.k] if args.k is not None else _feasible_mid_sums(top, bot)
    counter = None
    results = []
    for k in ks:
        if args.route == "coefficient":
            left, right = transfer.coefficient_pair(top, bot, k, mode)
        else:
            left, right = patterns.statement_b_sums(top, bot, k, mode,
                                                    convention=args.convention)
        ok = mode.close(left, right, args.tol)
        results.append({"k": k, "pass": ok})
        if not ok and counter is None:
            counter = {"k": k, "left": jsonio.coeff_to_json(left),
                       "right": jsonio.coeff_to_json(right)}
    params = {"l": list(top), "m": list(bot), "route": args.route,
              "n": mode.n, "mode": mode.name, "tol": args.tol}
    if args.route == "qr":
        params["convention"] = args.convention
    report = jsonio.report("statement-b", params, counter is None, counter)
    report["results"] = results
    return _finish(report)


def verify_functional_eq(args) -> int:
    lam = _lambda_arg(args)
    rank = len(lam) - 1
    mode = _mode(args)
    n = mode.n
    rows = [args.i] if args.i is not None else list(range(1, rank + 1))
    classes = [args.j] if args.j is not None else list(range(n))
    counter = None
    sides = None
    for i in rows:
        for j in classes:
            ok, lhs, rhs = weyl.functional_eq_check(lam, i, j, n, mode,
                                                    family=args.ice,
                                                    tol=args.tol)
            if sides is None:
                sides = {"i": i, "j": j, "lhs": jsonio.poly_to_json(lhs),
                         "rhs": jsonio.poly_to_json(rhs)}
            if not ok:
                counter = {"i": i, "j": j, "lhs": str(lhs), "rhs": str(rhs)}
                break
        if counter:
            break
    params = {"lambda": list(lam), "rows": rows, "classes": classes,
              "n": n, "mode": mode.name, "ice": args.ice, "tol": args.tol}
    report = jsonio.report("functional-eq", params, counter is None, counter)
    report["first_instance"] = sides
    return _finish(report)


def verify_charges(args) -> int:
    boundary = _boundary(args)
    ok, failures = weyl.charge_duality_check(boundary)
    counter = None
    if failures:
        layers, row, reason = failures[0]
        counter = {"layers": [list(l) for l in layers], "row": row,
                   "reason": reason}
    params = {"lambda": list(_lambda_arg(args))}
    return _finish(jsonio.report("charges", params, ok, counter))


VERIFY_COMMANDS = {
    "statement-a": verify_statement_a,
    "prop-matching": verify_prop_matching,
    "ybe-n1": verify_ybe_n1,
    "commute-rows": verify_commute_rows,
    "two-row": verify_two_row,
    "statement-b": verify_statement_b,
    "functional-eq": verify_functional_eq,
    "charges": verify_charges,
}


# ---------------------------------------------------------------------------
#  Parser
# ---------------------------------------------------------------------------

def _add_lambda_flags(p, required: bool = True) -> None:
    p.add_argument("--lambda", dest="lam", required=required,
                   help="comma-separated weight parts incl. trailing 0, e.g. 3,2,0")
    p.add_argument("--rank", type=int, default=None,
                   help="optional consistency check: number of parts - 1")


def _add_mode_flags(p, default_n: int = 1) -> None:
    p.add_argument("--coeff", choices=("symbolic", "numeric"), default="symbolic")
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
    _add_lambda_flags(p)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma",
                   help="row order recorded in the JSON dump")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("partition", help="partition function of a boundary")
    _add_lambda_flags(p)
    _add_mode_flags(p)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--strategy", choices=("enumerate", "transfer"),
                   default="enumerate")
    p.add_argument("--json", action="store_true",
                   help="emit the polynomial as JSON instead of rendered text")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("whittaker", help="Whittaker coefficient table")
    _add_lambda_flags(p)
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
    _add_lambda_flags(p)
    _add_mode_flags(p, default_n=3)
    p.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    p.add_argument("--compare", action="store_true",
                   help="also run full enumeration and compare")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run one verification check")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("statement-a", help="gamma and delta tables agree")
    _add_lambda_flags(v)
    _add_mode_flags(v)
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=verify_statement_a)

    v = vsub.add_parser("prop-matching",
                        help="state weights match pattern weights exactly")
    _add_lambda_flags(v)
    v.add_argument("--ice", choices=("gamma", "delta", "both"), default="both")
    v.set_defaults(func=verify_prop_matching)

    v = vsub.add_parser("ybe-n1",
                        help="crossing-vertex equation on all 64 boundaries")
    v.add_argument("--perturb", action="store_true",
                   help="also run the shifted-entry negative control")
    v.set_defaults(func=verify_ybe_n1)

    v = vsub.add_parser("commute-rows",
                        help="row-swap endpoint identity (n=1, symbolic)")
    _add_lambda_flags(v)
    v.add_argument("--i", type=int, default=None, help="row pair index (default all)")
    v.set_defaults(func=verify_commute_rows)

    v = vsub.add_parser("two-row", help="mixed-row partition functions agree")
    _add_mode_flags(v)
    v.add_argument("--l", default=None, help="top boundary row, comma-separated")
    v.add_argument("--m", default=None, help="bottom boundary row, comma-separated")
    v.add_argument("--columns", type=int, default=None,
                   help="lattice width (default: largest l position + 1)")
    v.add_argument("--random", type=int, default=0, metavar="N",
                   help="also check N random boundaries")
    v.add_argument("--max-width", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=verify_two_row)

    v = vsub.add_parser("statement-b",
                        help="middle-row exchange identity at fixed sum")
    _add_mode_flags(v)
    v.add_argument("--l", required=True, help="top row, comma-separated")
    v.add_argument("--m", required=True, help="bottom row, comma-separated")
    v.add_argument("--k", type=int, default=None,
                   help="middle row sum (default: every feasible sum)")
    v.add_argument("--route", choices=("coefficient", "qr"), default="coefficient",
                   help="coefficient: compare the two-row partition functions; "
                        "qr: sum weights through the middle-row reflection")
    v.add_argument("--convention", choices=("outer", "interval"), default="outer",
                   help="reflection convention for the qr route")
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=verify_statement_b)

    v = vsub.add_parser("functional-eq",
                        help="exchange functional equation, cleared form")
    _add_lambda_flags(v)
    _add_mode_flags(v)
    v.add_argument("--i", type=int, default=None, help="row pair (default all)")
    v.add_argument("--j", type=int, default=None, help="class mod n (default all)")
    v.add_argument("--ice", choices=("gamma", "delta"), default="gamma")
    v.add_argument("--tol", type=float, default=1e-8)
    v.set_defaults(func=verify_functional_eq)

    v = vsub.add_parser("charges", help="charge labels match z-exponent duality")
    _add_lambda_flags(v)
    v.set_defaults(func=verify_charges)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit({"error": "config", "detail": str(exc)})
        return 2
    except ValueError as exc:
        _emit({"error": "invalid-value", "detail": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
