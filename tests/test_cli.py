"""Command-line interface: output shapes, exit codes, error reporting."""
from __future__ import annotations

import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from whitice import cli, gauss, jsonio, lattice, partition, transfer, weyl
from whitice.cli import main
from whitice.coeffs import SymbolicMode
from whitice.lattice import boundary_from_lambda, enumerate_states, row_fills
from whitice.partition import (dirichlet_series_string, numeric_mode, partition_function,
                               whittaker_table)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_enumerate_count(capsys):
    code, obj = run_json(capsys, "enumerate", "--rank", "2", "--lambda", "3,2,0",
                         "--count-only")
    assert code == 0
    assert obj == {"columns": 6, "count": 41}


def test_enumerate_refuses_a_large_listing(capsys, monkeypatch):
    # the count decides before any state is built
    def no_states(boundary):
        raise AssertionError("states were materialised")

    monkeypatch.setattr(cli, "enumerate_states", no_states)
    code, obj = run_json(capsys, "enumerate", "--lambda", "8,6,4,2,0")
    assert code == 2
    assert obj["error"] == "config"
    # the capped count stops past the cap, so the refusal names the cap
    assert str(cli.MAX_LISTED_STATES) in obj["detail"]
    assert 941663 > cli.MAX_LISTED_STATES


def test_enumerate_states_listing(capsys):
    code, obj = run_json(capsys, "enumerate", "--lambda", "1,0")
    assert code == 0
    assert obj["count"] == 3
    assert len(obj["states"]) == 3
    assert all(state["columns"] == 3 for state in obj["states"])


def test_partition_rendered(capsys):
    code, out = run(capsys, "partition", "--rank", "1", "--lambda", "0,0",
                    "--ice", "gamma", "--n", "1")
    assert code == 0
    assert out.strip() == "-u*z1 + z2"


def test_partition_json(capsys):
    code, obj = run_json(capsys, "partition", "--lambda", "0,0", "--n", "1", "--json")
    assert code == 0
    assert obj["vars"] == 2
    assert len(obj["terms"]) == 2


def test_partition_numeric(capsys):
    code, out = run(capsys, "partition", "--lambda", "0,0", "--coeff", "numeric",
                    "--n", "2", "--q", "5")
    assert code == 0
    assert "z2" in out


def test_whittaker_dirichlet(capsys):
    # at n=1 the class-1 symbol collapses to -u
    code, out = run(capsys, "whittaker", "--lambda", "0,0", "--n", "1", "--dirichlet")
    assert code == 0
    assert out.strip() == "1 + -u*q^(1*(1-2*s1))"


def test_whittaker_json(capsys):
    code, obj = run_json(capsys, "whittaker", "--lambda", "3,2,0", "--n", "1")
    assert code == 0
    assert len(obj["entries"]) == 27


def test_gauss_dump(capsys):
    code, obj = run_json(capsys, "gauss", "--n", "2", "--q", "5")
    assert code == 0
    assert obj["n"] == 2 and obj["q"] == 5 and obj["root"] == 2
    assert len(obj["g"]) == 2


def test_bench_compare(capsys):
    code, obj = run_json(capsys, "bench", "--lambda", "3,2,0", "--coeff", "numeric",
                         "--n", "3", "--q", "7", "--compare")
    assert code == 0
    assert obj["states"] == 41
    assert obj["agree"] is True
    assert obj["transfer_seconds"] >= 0


def test_verify_statement_a(capsys):
    code, obj = run_json(capsys, "verify", "statement-a", "--rank", "2",
                         "--lambda", "3,2,0", "--coeff", "numeric", "--n", "2", "--q", "5")
    assert code == 0
    assert obj["check"] == "statement-a"
    assert obj["pass"] is True


def test_verify_report_leaves_no_cyclic_garbage(capsys):
    # bools and None are written directly, so no stdlib encoder (whose
    # closures refer to each other) is built for the report's "pass"
    argv = ("verify", "statement-a", "--lambda", "3,2,1,0", "--n", "1")
    main(list(argv))
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        assert main(list(argv)) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert json.loads(capsys.readouterr().out)["pass"] is True


def _listing(lam):
    boundary = boundary_from_lambda(lam)
    states = [jsonio.state_to_json(s) for s in enumerate_states(boundary)]
    return {"columns": boundary.columns, "count": len(states), "states": states}


@pytest.mark.parametrize("argv, library_object", [
    # a list of dicts
    ("enumerate --lambda 3,2,0", lambda: _listing((3, 2, 0))),
    # lists of number lists
    ("partition --lambda 3,2,0 --n 2 --json", lambda: jsonio.poly_to_json(
        partition_function(boundary_from_lambda((3, 2, 0)), "gamma", SymbolicMode(2)))),
    ("partition --lambda 3,2,0 --n 2 --q 5 --json", lambda: jsonio.poly_to_json(
        partition_function(boundary_from_lambda((3, 2, 0)), "gamma", numeric_mode(2, 5)))),
    # nested dicts of lists
    ("whittaker --lambda 2,1,0 --n 2", lambda: jsonio.whittaker_to_json(
        whittaker_table(boundary_from_lambda((2, 1, 0)), "gamma", SymbolicMode(2)))),
])
def test_list_heavy_output_is_exact_and_leaves_no_cyclic_garbage(capsys, argv,
                                                                  library_object):
    # every list is rendered item by item; the text is the stdlib's
    main(argv.split())
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        assert main(argv.split()) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == json.dumps(library_object(), indent=2) + "\n"


def test_verify_prop_matching(capsys):
    code, obj = run_json(capsys, "verify", "prop-matching", "--lambda", "3,2,0")
    assert code == 0 and obj["pass"] is True


def test_verify_prop_matching_fails_a_kernel_that_loses_states(capsys, monkeypatch):
    # dropping the greatest fill below the top layer loses 3 of the 41
    # states; the report fails and names the first lost state
    def dropping(top, family, bottom=None):  # every fill; callers look bottom up
        fills = row_fills(top, family)
        if top == (5, 3, 0):
            del fills[max(fills)]
        return fills

    partition.boundary_profiles.cache_clear()
    monkeypatch.setattr(lattice, "row_fills", dropping)
    try:
        code, obj = run_json(capsys, "verify", "prop-matching", "--lambda", "3,2,0")
        assert code == 1 and obj["pass"] is False
        assert obj["counterexample"] == {"family": "gamma",
                                         "layers": [[5, 3, 0], [5, 3], [3], []]}
    finally:
        partition.boundary_profiles.cache_clear()


def test_verify_charges(capsys):
    code, obj = run_json(capsys, "verify", "charges", "--lambda", "2,1,0")
    assert code == 0 and obj["pass"] is True


def test_verify_charges_fails_a_kernel_that_drops_a_fill(capsys, monkeypatch):
    # the greatest fill below the top layer is lost; its row is the first
    # the walk checks, and the counterexample names that row's two layers
    def dropping(top, family):
        fills = row_fills(top, family)
        if top == (5, 3, 0):
            del fills[max(fills)]
        return fills

    monkeypatch.setattr(weyl, "row_fills", dropping)
    code, obj = run_json(capsys, "verify", "charges", "--lambda", "3,2,0")
    assert code == 1 and obj["pass"] is False
    assert obj["counterexample"] == {"layers": [[5, 3, 0], [5, 3]], "row": 0,
                                     "reason": "gamma kernel/direct count mismatch"}


def test_a_value_error_inside_a_command_is_a_config_error(capsys, monkeypatch):
    def failing(boundary):
        raise ValueError("no such row")

    monkeypatch.setattr(weyl, "charge_duality_check", failing)
    code, obj = run_json(capsys, "verify", "charges", "--lambda", "2,1,0")
    assert code == 2
    assert obj == {"error": "config", "detail": "no such row"}


def test_verify_commute_rows(capsys):
    code, obj = run_json(capsys, "verify", "commute-rows", "--lambda", "2,1,0")
    assert code == 0 and obj["pass"] is True


def test_verify_ybe(capsys):
    code, obj = run_json(capsys, "verify", "ybe-n1")
    assert code == 0 and obj["pass"] is True
    code, obj = run_json(capsys, "verify", "ybe-n1", "--perturb")
    assert code == 0 and obj["pass"] is True
    control = obj["perturbation_control"]
    assert control["pass"] is False
    assert 4 <= control["failing_boundaries"] <= 8


def test_verify_two_row(capsys):
    code, obj = run_json(capsys, "verify", "two-row", "--l", "6,4,1,0", "--m", "4,3",
                         "--n", "1")
    assert code == 0 and obj["pass"] is True
    code, obj = run_json(capsys, "verify", "two-row", "--random", "5", "--seed", "3",
                         "--coeff", "numeric", "--n", "2", "--q", "13")
    assert code == 0 and obj["pass"] is True


def test_two_row_rejects_negative_positions(capsys):
    # a - spin left of column 0 lies outside the lattice; it must not pass
    # vacuously with both sides zero
    code, obj = run_json(capsys, "verify", "two-row", "--l", "3,1,-1", "--m", "1")
    assert code == 2
    assert obj["error"] == "config"
    code, obj = run_json(capsys, "verify", "statement-b", "--l", "3,1,-1", "--m", "1")
    assert code == 2
    assert obj["error"] == "config"


def test_two_row_rejects_boundaries_without_states(capsys):
    # no middle row interleaves 5,4,3 above 0, so there is nothing to compare
    for check in ("two-row", "statement-b"):
        code, obj = run_json(capsys, "verify", check, "--l", "5,4,3", "--m", "0",
                             "--n", "1")
        assert code == 2
        assert obj["error"] == "config"
    code, obj = run_json(capsys, "verify", "statement-b", "--l", "5,3,0", "--m", "4",
                         "--n", "1", "--k", "99")
    assert code == 2
    assert obj["error"] == "config"


def test_verify_functional_eq(capsys):
    code, obj = run_json(capsys, "verify", "functional-eq", "--lambda", "0,0",
                         "--coeff", "numeric", "--n", "2", "--q", "5")
    assert code == 0 and obj["pass"] is True


def test_numeric_functional_eq_shows_the_exact_sides_rounded_once(capsys):
    # the check runs on the exact Z at n; the report shows its sides at the
    # Gauss table, each coefficient rounded once
    code, obj = run_json(capsys, "verify", "functional-eq", "--lambda", "3,1,0",
                         "--coeff", "numeric", "--n", "3", "--q", "7", "--i", "2", "--j", "1")
    assert code == 0 and obj["pass"] is True
    z = partition_function(boundary_from_lambda((3, 1, 0)), "gamma", SymbolicMode(3))
    ok, lhs, rhs = weyl.functional_eq_check(z, 2, 1)
    table = numeric_mode(3, 7).table
    for side, poly in (("lhs", lhs), ("rhs", rhs)):
        shown = {tuple(t["exponents"]): complex(*t["coeff"])
                 for t in obj["first_instance"][side]["terms"]}
        assert shown == {e: c.evaluate(table) for e, c in poly.terms.items()}
        assert shown and all(shown.values())


def shifted_kernel(top, family, bottom=None):  # every fill; callers look bottom up
    """The row kernel with the first charge of every fill one too large."""
    out = {}
    for bot, (factors, zexp) in row_fills(top, family).items():
        if factors:
            (kind, charge), *rest = factors
            factors = ((kind, charge + 1), *rest)
        out[bot] = (factors, zexp)
    return out


def test_shifted_kernel_charge_fails_statement_a_with_both_tables(capsys, monkeypatch):
    # negative control: a kernel that miscounts one charge by one makes the
    # gamma and delta tables differ at n = 3; the report shows both
    partition.boundary_profiles.cache_clear()
    monkeypatch.setattr(lattice, "row_fills", shifted_kernel)
    try:
        for mode in (["--n", "3"], ["--coeff", "numeric", "--n", "3", "--q", "7"]):
            code, obj = run_json(capsys, "verify", "statement-a", "--lambda", "3,2,0", *mode)
            assert code == 1 and obj["pass"] is False
            counter = obj["counterexample"]
            assert list(counter) == ["gamma", "delta"]
            assert counter["gamma"]["entries"] and counter["delta"]["entries"]
            assert counter["gamma"] != counter["delta"]
    finally:
        partition.boundary_profiles.cache_clear()


@pytest.mark.parametrize("mode, flags", [
    (SymbolicMode(3), ["--n", "3"]),
    (numeric_mode(3, 7), ["--coeff", "numeric", "--n", "3", "--q", "7"]),
], ids=["symbolic", "numeric"])
def test_shifted_kernel_charge_fails_the_two_row_checks_with_both_sides(capsys, monkeypatch,
                                                                        mode, flags):
    # the same control makes the two row orders differ: two-row and
    # statement-b decide on packed sums, and their reports show both
    # orders' Z, or both coefficients, unpacked as the library unpacks them
    monkeypatch.setattr(lattice, "row_fills", shifted_kernel)
    top, bottom = (6, 4, 1, 0), (4, 3)
    z_gd, z_dg = (transfer.two_row_partition(top, bottom, order, mode)
                  for order in transfer.TWO_ROW_ORDERS)
    assert z_gd != z_dg

    code, obj = run_json(capsys, "verify", "two-row", "--l", "6,4,1,0", "--m", "4,3", *flags)
    assert code == 1 and obj["pass"] is False
    assert obj["counterexample"] == {"l": list(top), "m": list(bottom),
                                     "gamma-delta": str(z_gd), "delta-gamma": str(z_dg)}

    code, obj = run_json(capsys, "verify", "statement-b", "--l", "6,4,1,0", "--m", "4,3",
                         *flags)
    assert code == 1 and obj["pass"] is False
    failing = [r["k"] for r in obj["results"] if not r["pass"]]
    assert failing and obj["counterexample"]["k"] == failing[0]
    exponents = (sum(top) - failing[0], failing[0] - sum(bottom))
    assert obj["counterexample"] == {
        "k": failing[0], "left": jsonio.coeff_to_json(z_gd.coeff(exponents)),
        "right": jsonio.coeff_to_json(z_dg.coeff(exponents))}
    for result in obj["results"]:
        exponents = (sum(top) - result["k"], result["k"] - sum(bottom))
        assert result["pass"] == (z_gd.coeff(exponents) == z_dg.coeff(exponents))


@pytest.mark.parametrize("argv", [
    "statement-a --lambda 2,1,0 --n 2",
    "functional-eq --lambda 2,1,0 --n 2",
    "functional-eq --lambda 3,1,0 --n 3",
    "two-row --random 20 --n 3",
    "statement-b --l 5,3,0 --m 4 --n 3",
    "statement-b --l 6,5,4 --m 6 --n 1",
    "statement-b --l 6,5,4 --m 5 --n 1",
    "statement-b --l 7,5,3,1,0 --m 5,3,1 --n 3",
])
def test_exact_verifies_hold_at_higher_n(capsys, argv):
    # true identities of the paper hold exactly in the reduced ring
    code, obj = run_json(capsys, "verify", *argv.split())
    assert code == 0 and obj["pass"] is True


def test_verify_statement_b_coefficient_route(capsys):
    code, obj = run_json(capsys, "verify", "statement-b", "--l", "5,3,0", "--m", "4",
                         "--n", "1")
    assert code == 0 and obj["pass"] is True


@pytest.mark.parametrize("argv", [
    "two-row --random 100 --coeff numeric --n 3 --q 7",
    "two-row --random 100 --coeff numeric --n 2 --q 13",
    "statement-b --l 6,4,1,0 --m 4,3 --coeff numeric --n 3 --q 7",
    "statement-b --l 6,4,1,0 --m 4,3 --coeff numeric --n 2 --q 5",
    "statement-a --lambda 3,2,1,0 --coeff numeric --n 3 --q 7",
    "functional-eq --lambda 3,2,0 --coeff numeric --n 3 --q 7",
    "functional-eq --lambda 3,2,0 --coeff numeric --n 2 --q 5",
])
def test_numeric_checks_hold_by_equality(capsys, argv):
    # sums of weights are one exact value rounded once on both sides, and
    # the functional equation is checked on the exact Z at n
    code, obj = run_json(capsys, "verify", *argv.split())
    assert code == 0 and obj["pass"] is True


@pytest.mark.parametrize("argv, tol", [
    ("statement-a --lambda 3,2,0 --coeff numeric --n 3 --q 7", 1e-9),
    ("two-row --random 5 --coeff numeric --n 2 --q 5", 1e-9),
    ("statement-b --l 5,3,0 --m 4 --coeff numeric --n 3 --q 7", 1e-9),
    ("functional-eq --lambda 2,1,0 --coeff numeric --n 2 --q 5", 1e-8),
])
def test_reports_keep_their_tolerance_field(capsys, argv, tol):
    # no verdict reads a tolerance; params keep the field reports carried
    code, obj = run_json(capsys, "verify", *argv.split())
    assert code == 0 and obj["params"]["tol"] == tol


def test_seeded_commands_are_byte_identical(capsys):
    argv = ["verify", "two-row", "--random", "4", "--seed", "9", "--n", "1"]
    code_a, out_a = run(capsys, *argv)
    code_b, out_b = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_error_bad_lambda(capsys):
    code, obj = run_json(capsys, "partition", "--lambda", "2,3,0", "--n", "1")
    assert code == 2
    assert obj["error"] == "config"


def test_error_rank_mismatch(capsys):
    code, obj = run_json(capsys, "verify", "statement-a", "--rank", "1",
                         "--lambda", "3,2,0", "--n", "1")
    assert code == 2
    assert obj["error"] == "config"
    assert "rank" in obj["detail"]


def test_error_numeric_without_q(capsys):
    code, obj = run_json(capsys, "partition", "--lambda", "0,0", "--coeff", "numeric",
                         "--n", "2")
    assert code == 2
    assert obj["error"] == "config"


def test_error_incompatible_modulus(capsys):
    code, obj = run_json(capsys, "gauss", "--n", "2", "--q", "7")
    assert code == 2
    assert obj["error"] == "config"


LAMBDA_COMMANDS = ["enumerate", "partition", "whittaker", "bench", "verify statement-a",
                   "verify prop-matching", "verify commute-rows", "verify functional-eq",
                   "verify charges"]


@pytest.mark.parametrize("lam", ["3,1", "1,3,0"])
@pytest.mark.parametrize("command", LAMBDA_COMMANDS)
def test_every_lambda_command_reports_a_bad_weight_as_config(capsys, command, lam):
    # a weight without its trailing 0, or not weakly decreasing, is one
    # error kind whichever command reads it
    code, obj = run_json(capsys, *command.split(), "--lambda", lam)
    assert code == 2
    assert obj["error"] == "config"
    assert obj["detail"].startswith("lam must")


#: a command that, unrefused, asks for gigabytes (a Gauss table of about
#: 8 GB, every state of a rank-12 boundary), run only under this cap
CAPPED_RUN = """
import resource, sys, time
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from whitice.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"elapsed={time.perf_counter() - start}", file=sys.stderr)
sys.exit(code)
"""


def capped_refusal(argv: str) -> tuple[dict, float]:
    """Run `argv` under CAPPED_RUN; it must exit 2 with the JSON config
    error.  Returns (the error object, seconds inside ``main``)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", CAPPED_RUN, *argv.split()], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    obj = json.loads(out.stdout)
    assert obj["error"] == "config"
    # the timing is the tagged last line, so a stray warning above it is harmless
    tag, _, elapsed = out.stderr.splitlines()[-1].partition("=")
    assert tag == "elapsed"
    return obj, float(elapsed)


@pytest.mark.parametrize("argv", ["gauss --n 1 --q 1000000007",
                                  "whittaker --lambda 1,0 --q 1000000007"])
def test_oversized_gauss_table_is_refused_before_allocating(argv):
    # the bound is checked before any list is built: exit 2 with the JSON
    # error, well inside a 1 GB address-space cap and under a second
    obj, elapsed = capped_refusal(argv)
    assert str(gauss.MAX_GAUSS_TERMS) in obj["detail"]
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, bound", [
    # rank 12: counting every state died with a MemoryError under the cap
    ("verify statement-a --lambda 24,22,20,18,16,14,12,10,8,6,4,2,0", "MAX_ENUMERATED_STATES"),
    # a class list of 10^9 entries
    ("verify functional-eq --lambda 2,0 --n 1000000000", "MAX_CLASSES"),
])
def test_oversized_checks_are_refused_within_a_memory_cap(argv, bound):
    obj, elapsed = capped_refusal(argv)
    assert str(getattr(cli, bound)) in obj["detail"]
    assert elapsed < 2.0


@pytest.mark.parametrize("argv", [
    "enumerate --count-only --lambda 24,22,20,18,16,14,12,10,8,6,4,2,0",
    "bench --lambda 24,22,20,18,16,14,12,10,8,6,4,2,0 --n 1",
])
def test_a_count_past_the_layer_cap_is_refused_within_a_memory_cap(argv):
    # the top row of this rank-12 weight alone has 7,865,521 layers; bench
    # counts before it contracts, so it meets the same refusal first
    obj, elapsed = capped_refusal(argv)
    assert str(lattice.MAX_COUNTED_LAYERS) in obj["detail"]
    assert elapsed < 3.0


def test_one_class_of_a_large_n_is_checked(capsys):
    code, obj = run_json(capsys, "verify", "functional-eq", "--lambda", "2,0",
                         "--n", str(10 ** 9), "--j", "3")
    assert code == 0 and obj["pass"] is True
    assert obj["params"]["classes"] == [3]


@pytest.mark.parametrize("argv", [
    "whittaker --lambda 1200,0",
    "verify statement-a --lambda 1200,0",
    "verify two-row --l 1200,1199,0 --m 5",
    "verify statement-b --l 1200,1199,0 --m 5",
    "verify two-row --random 3 --max-width 2000",
])
def test_oversized_lattices_are_refused(capsys, argv):
    # the row walk recurses once per column; a width past the bound must be
    # a configuration error, not a RecursionError
    code, obj = run_json(capsys, *argv.split())
    assert code == 2
    assert obj["error"] == "config"
    assert str(cli.MAX_COLUMNS) in obj["detail"]


def test_widest_lattice_is_accepted(capsys):
    c = cli.MAX_COLUMNS
    code, obj = run_json(capsys, "verify", "statement-b", "--l", f"{c - 1},{c - 2},{c - 3}",
                         "--m", str(c - 2), "--n", "1")
    assert code == 0 and obj["pass"] is True


def test_huge_random_count_is_refused_before_drawing(capsys, monkeypatch):
    def no_boundary(rng, max_width):
        raise AssertionError("a boundary was drawn")

    monkeypatch.setattr(cli.transfer, "random_two_row_boundary", no_boundary)
    code, obj = run_json(capsys, "verify", "two-row", "--random", str(10 ** 9))
    assert code == 2
    assert obj["error"] == "config"
    assert 10 ** 9 > cli.MAX_RANDOM_BOUNDARIES


@pytest.mark.parametrize("max_width", ["2", "0", "-5"])
def test_narrow_random_width_is_refused_before_drawing(capsys, monkeypatch, max_width):
    def no_boundary(rng, max_width):
        raise AssertionError("a boundary was drawn")

    monkeypatch.setattr(cli.transfer, "random_two_row_boundary", no_boundary)
    code, obj = run_json(capsys, "verify", "two-row", "--random", "3",
                         "--max-width", max_width)
    assert code == 2
    assert obj["error"] == "config"
    assert "--max-width" in obj["detail"]


def test_narrowest_random_width_is_accepted(capsys):
    code, obj = run_json(capsys, "verify", "two-row", "--random", "3", "--max-width", "3")
    assert code == 0 and obj["pass"] is True


def test_explicit_symbolic_with_q_is_refused(capsys):
    code, obj = run_json(capsys, "whittaker", "--lambda", "1,0", "--coeff", "symbolic",
                         "--q", "5", "--n", "2")
    assert code == 2
    assert obj["error"] == "config"
    assert "--q" in obj["detail"]


def test_q_alone_selects_numeric(capsys):
    code, obj = run_json(capsys, "verify", "statement-a", "--lambda", "1,0",
                         "--q", "5", "--n", "2")
    assert code == 0
    assert obj["params"]["mode"] == "numeric" and obj["params"]["q"] == 5
    code, obj = run_json(capsys, "verify", "statement-a", "--lambda", "1,0",
                         "--coeff", "symbolic", "--n", "2")
    assert code == 0 and obj["params"]["mode"] == "symbolic"


@pytest.mark.parametrize("j", ["-1", "2", "5"])
def test_functional_eq_class_out_of_range_is_refused(capsys, j):
    # class j mod n would be checked but reported as the raw j
    code, obj = run_json(capsys, "verify", "functional-eq", "--lambda", "2,0",
                         "--n", "2", "--j", j)
    assert code == 2
    assert obj["error"] == "config"
    assert f"--j {j}" in obj["detail"]


@pytest.mark.parametrize("argv, i", [
    (("functional-eq", "--lambda", "2,0", "--n", "2", "--q", "5"), "0"),
    (("functional-eq", "--lambda", "2,0", "--n", "2", "--q", "5"), "2"),
    (("functional-eq", "--lambda", "3,1,0", "--n", "2", "--q", "5"), "3"),
    (("commute-rows", "--lambda", "2,1,0"), "0"),
    (("commute-rows", "--lambda", "2,1,0"), "3"),
    (("commute-rows", "--lambda", "2,1,0"), "7"),
])
def test_row_pair_out_of_range_is_refused(capsys, monkeypatch, argv, i):
    # --i must name a row pair 1..rank; it is checked before Z or any check
    # is computed
    def reached(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "partition_function", reached)
    monkeypatch.setattr(weyl, "functional_eq_check", reached)
    monkeypatch.setattr(cli.ybe, "commutation_check", reached)
    code, obj = run_json(capsys, "verify", *argv, "--i", i)
    assert code == 2
    assert obj["error"] == "config"
    assert f"--i {i}" in obj["detail"]


@pytest.mark.parametrize("check", ["functional-eq", "commute-rows"])
def test_rank_zero_lambda_is_refused(capsys, monkeypatch, check):
    # a rank-0 lambda has no row pair, so the check would pass having
    # checked nothing
    def reached(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "partition_function", reached)
    monkeypatch.setattr(weyl, "functional_eq_check", reached)
    monkeypatch.setattr(cli.ybe, "commutation_check", reached)
    code, obj = run_json(capsys, "verify", check, "--lambda", "0")
    assert code == 2
    assert obj["error"] == "config"
    assert "rank 0" in obj["detail"]


@pytest.mark.parametrize("argv", [
    ("functional-eq", "--lambda", "3,1,0", "--n", "2", "--q", "5"),
    ("commute-rows", "--lambda", "2,1,0"),
])
def test_row_pair_in_range_is_reported(capsys, argv):
    for i in (1, 2):
        code, obj = run_json(capsys, "verify", *argv, "--i", str(i))
        assert code == 0
        assert obj["params"]["rows"] == [i]


def test_functional_eq_class_in_range_is_reported(capsys):
    code, obj = run_json(capsys, "verify", "functional-eq", "--lambda", "2,0",
                         "--n", "2", "--j", "1")
    assert code == 0
    assert obj["params"]["classes"] == [1]


def test_statement_b_coefficient_route_contracts_once(capsys, monkeypatch):
    # every middle sum k is read from one walk per row order, and an
    # explicit two-row slab takes one walk per order too; the report is
    # byte-identical to the one built with a contraction per k
    calls = []
    original = transfer.state_profiles

    def counted(top, rows, bottom=()):
        calls.append(rows)
        return original(top, rows, bottom)

    monkeypatch.setattr(transfer, "state_profiles", counted)
    orders = [transfer.two_row_rows(order) for order in transfer.TWO_ROW_ORDERS]
    code, _ = run(capsys, "verify", "two-row", "--l", "6,4,1,0", "--m", "4,3")
    assert code == 0 and calls == orders
    calls.clear()
    code, out = run(capsys, "verify", "statement-b", "--l", "5,3,0", "--m", "4", "--n", "1")
    assert code == 0
    assert calls == orders
    expected = {
        "check": "statement-b",
        "params": {"l": [5, 3, 0], "m": [4], "route": "coefficient", "n": 1,
                   "mode": "symbolic", "tol": 1e-09},
        "pass": True,
        "results": [{"k": k, "pass": True} for k in range(4, 9)],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("argv, checks", [
    ("functional-eq --lambda 3,2,0 --n 3", 6),
    ("functional-eq --lambda 3,2,0 --coeff numeric --n 3 --q 7", 6),
    ("commute-rows --lambda 3,1,0", 2),
])
def test_exchange_checks_compute_z_once(capsys, monkeypatch, argv, checks):
    # every (i, j) is checked against one Z, computed after the config checks
    calls, checked = [], []
    original, check = cli.partition_function, cli.weyl.functional_eq_check

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def counted_check(z, *args, **kwargs):
        checked.append(z)
        return check(z, *args, **kwargs)

    monkeypatch.setattr(cli, "partition_function", counted)
    monkeypatch.setattr(cli.weyl, "functional_eq_check", counted_check)
    monkeypatch.setattr(cli.ybe, "functional_eq_check", counted_check)
    code, obj = run_json(capsys, "verify", *argv.split())
    assert code == 0 and obj["pass"] is True
    assert len(calls) == 1
    assert len(checked) == checks and all(z is checked[0] for z in checked)


@pytest.mark.parametrize("argv", [
    "two-row --l 2,1 --m",
    "statement-b --l 3,0 --m",
])
def test_empty_bottom_row_is_accepted(capsys, argv):
    # --m '' names the empty bottom row; the slab has states to compare
    code, obj = run_json(capsys, "verify", *argv.split(), "")
    assert code == 0 and obj["pass"] is True


@pytest.mark.parametrize("check", ["functional-eq", "commute-rows", "statement-a"])
def test_empty_lambda_is_a_config_error(capsys, check):
    code, obj = run_json(capsys, "verify", check, "--lambda", "")
    assert code == 2
    assert obj["error"] == "config"
    assert "--lambda" in obj["detail"]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    argvs = [["partition", "--lambda", "2,1,0", "--n", "2"],
             ["verify", "statement-a", "--lambda", "2,1,0", "--n", "1"]]
    fresh = []
    for argv in argvs:
        cli.parser.cache_clear()
        fresh.append(run(capsys, *argv))
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli.parser.cache_clear()
    try:
        shared = [run(capsys, *argv) for argv in argvs]
    finally:
        cli.parser.cache_clear()
    assert len(built) == 1
    assert shared == fresh


@pytest.mark.parametrize("argv", [
    "partition --lambda 6,5,4,2,1,0 --n 1",
    "whittaker --lambda 6,5,4,2,1,0 --n 1",
    "bench --lambda 6,5,4,2,1,0 --n 1 --compare",
    "verify statement-a --lambda 6,5,4,2,1,0 --n 1",
    "verify prop-matching --lambda 6,5,4,2,1,0",
    "verify charges --lambda 6,5,4,2,1,0",
    "verify functional-eq --lambda 6,5,4,2,1,0 --n 1",
    "verify commute-rows --lambda 6,5,4,2,1,0",
])
def test_state_by_state_commands_refuse_huge_boundaries(capsys, monkeypatch, argv):
    # 31,406,156 states: the count decides before any state or profile is built
    def refused(*args):
        raise AssertionError("states were walked")

    for module, attr in ((partition, "boundary_profiles"), (partition, "enumerate_states"),
                         (weyl, "row_fills"), (cli.transfer, "contract_partition"),
                         (cli.transfer, "contract_packed")):
        monkeypatch.setattr(module, attr, refused)
    code, obj = run_json(capsys, *argv.split())
    assert code == 2
    assert obj["error"] == "config"
    assert str(cli.MAX_ENUMERATED_STATES) in obj["detail"]
    assert 31406156 > cli.MAX_ENUMERATED_STATES
    # the refusal names only options the refused command takes
    assert ("--strategy" in obj["detail"]) == (argv.split()[0] in ("partition", "whittaker"))
    assert ("--compare" in obj["detail"]) == (argv.split()[0] == "bench")


def test_largest_enumerated_boundary_of_the_tests_is_accepted(capsys):
    code, obj = run_json(capsys, "bench", "--lambda", "6,4,2,0", "--n", "1", "--compare")
    assert code == 0
    assert obj["states"] == 3892 <= cli.MAX_ENUMERATED_STATES
    assert obj["agree"] is True


@pytest.mark.parametrize("argv", [
    "verify statement-a --lambda 1,0 --q 5 --n 2",
    "verify two-row --random 3 --q 5 --n 2",
    "verify statement-b --l 3,1,0 --m 2 --q 5 --n 2",
    "verify functional-eq --lambda 2,0 --q 5 --n 2",
])
def test_tolerance_option_is_refused(capsys, argv):
    # no check reads a tolerance, so --tol is a usage error, not a no-op
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv.split(), "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--route qr", "--convention outer"])
def test_reflection_route_options_are_refused(capsys, flag):
    # statement-b has one route, the exact coefficient comparison
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "statement-b", "--l", "5,3,0", "--m", "4", *flag.split()])
    assert exc.value.code == 2
    assert flag.split()[0] in capsys.readouterr().err


def test_columns_option_is_refused(capsys):
    # a slab's width is its top row's leftmost - plus one; wider adds no state
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "two-row", "--l", "5,3,0", "--m", "4", "--columns", "6"])
    assert exc.value.code == 2
    assert "--columns" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-1", "-3"])
def test_negative_random_count_is_refused(capsys, count):
    # a negative count is refused, not read as 0 beside the explicit slab
    code, obj = run_json(capsys, "verify", "two-row", "--l", "5,3,0", "--m", "4",
                         "--random", count)
    assert code == 2
    assert obj == {"error": "config", "detail": f"--random {count} is negative"}


@pytest.mark.parametrize("check", ["two-row", "statement-b"])
def test_bottom_minus_west_of_the_top_admits_no_state(capsys, check):
    code, obj = run_json(capsys, "verify", check, "--l", "3,2,0", "--m", "5")
    assert code == 2
    assert obj == {"error": "config", "detail": transfer.NO_STATE}


@pytest.mark.parametrize("argv", [
    "whittaker --lambda 1,0 --n 0",
    "whittaker --lambda 1,0 --n 0 --q 5",
    "partition --lambda 1,0 --n -1",
    "gauss --n 0 --q 5",
])
def test_nonpositive_n_is_a_config_error_on_every_path(capsys, argv):
    # the symbolic path reported "invalid-value", the numeric one "config"
    code, obj = run_json(capsys, *argv.split())
    assert code == 2
    assert obj["error"] == "config"


NUMERIC_TABLE = "whittaker --lambda 2,1,0 --n 2 --q 5 --strategy transfer"
EXACT_TABLE = "whittaker --lambda 2,1,0 --n 2"


@pytest.mark.parametrize("argv", [
    EXACT_TABLE,
    NUMERIC_TABLE,
    "partition --lambda 2,0 --n 3 --json",
    "partition --lambda 2,0 --n 2 --q 5 --json",
    "enumerate --lambda 1,1,0",
    "gauss --n 3 --q 7",
    "verify statement-a --lambda 1,0 --n 2 --q 5",
])
def test_output_is_the_stdlib_rendering(capsys, monkeypatch, argv):
    emitted = []
    render = cli.jsonio.dumps

    def recording(obj):
        emitted.append(obj)
        return render(obj)

    monkeypatch.setattr(cli.jsonio, "dumps", recording)
    code, out = run(capsys, *argv.split())
    assert code == 0
    if argv in (NUMERIC_TABLE, EXACT_TABLE):
        # a table is written by template, without dumps: a numeric one entry
        # by entry, an exact one straight from its packed sums
        numeric = argv == NUMERIC_TABLE
        table = whittaker_table(boundary_from_lambda((2, 1, 0)), "gamma",
                                numeric_mode(2, 5) if numeric else SymbolicMode(2),
                                strategy="transfer" if numeric else "enumerate")
        assert not emitted
        assert out == json.dumps(jsonio.whittaker_to_json(table), indent=2) + "\n"
    else:
        assert len(emitted) == 1
        assert out == json.dumps(emitted[0], indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    "whittaker --lambda 2,1,0 --n 2 --strategy transfer",
    "whittaker --lambda 2,1,0 --n 2 --q 5 --strategy transfer",
])
def test_whittaker_table_runs_through_one_contraction(capsys, monkeypatch, argv):
    # the table path calls one contraction (boundary, family, mode) once,
    # positionally: a numeric table contract_partition, so that a wrapper on
    # it sees every numeric Z, and an exact table contract_packed
    calls = []
    name = "contract_partition" if "--q" in argv else "contract_packed"
    contract = getattr(cli.transfer, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return contract(*args, **kwargs)

    monkeypatch.setattr(cli.transfer, name, counting)
    code, out = run(capsys, *argv.split())
    assert code == 0 and json.loads(out)["entries"]
    assert len(calls) == 1
    (boundary, family, mode), kwargs = calls[0]
    assert kwargs == {}
    assert boundary == boundary_from_lambda((2, 1, 0)) and family == "gamma"
    assert mode.n == 2 and mode.name == ("numeric" if "--q" in argv else "symbolic")


def exact_grid():
    """Every dominant weight of rank <= 3 with parts <= 3, (0,) first."""
    yield (0,)
    for rank in (1, 2, 3):
        for parts in itertools.combinations_with_replacement(range(3, -1, -1), rank):
            yield tuple(parts) + (0,)


def reference_output(lam, family, n, strategy, dirichlet) -> str:
    """What `whittaker` prints, by the reference routes through unpacked
    coefficients."""
    table = whittaker_table(boundary_from_lambda(lam), family, SymbolicMode(n), strategy)
    text = (dirichlet_series_string(table) if dirichlet
            else jsonio.dumps(jsonio.whittaker_to_json(table)))
    return text + "\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_tables_are_the_reference_output(capsys, n):
    # the packed read-off prints what the unpacked table renders to, byte
    # for byte, in both families, strategies and formats; n = 4 pairs g2
    # with itself, and lambda = (0,) has rank 0 and "k": []
    for lam in exact_grid():
        for family in ("gamma", "delta"):
            for strategy in ("enumerate", "transfer"):
                for dirichlet in (False, True):
                    argv = ["whittaker", "--lambda", ",".join(map(str, lam)), "--n", str(n),
                            "--ice", family, "--strategy", strategy]
                    code, out = run(capsys, *argv, *(["--dirichlet"] if dirichlet else []))
                    assert code == 0
                    assert out == reference_output(lam, family, n, strategy, dirichlet), argv
    assert '"k": []' in reference_output((0,), "gamma", n, "transfer", False)


@pytest.mark.parametrize("strategy", ["enumerate", "transfer"])
@pytest.mark.parametrize("dirichlet", [False, True])
def test_exact_tables_build_no_coefficient(capsys, monkeypatch, strategy, dirichlet):
    # an exact table is written from its packed sums: no coefficient is
    # unpacked, and none rendered
    flags = ["--dirichlet"] if dirichlet else []
    argv = ["whittaker", "--lambda", "3,3,2,1,0", "--n", "3", "--strategy", strategy, *flags]
    want = reference_output((3, 3, 2, 1, 0), "gamma", 3, strategy, dirichlet)

    def reference_route(*args):
        raise AssertionError("an exact table left the packed read-off")

    monkeypatch.setattr("whitice.coeffs.Packing.unpack", reference_route)
    monkeypatch.setattr("whitice.coeffs.SymCoeff.__str__", reference_route)
    assert run(capsys, *argv) == (0, want)
