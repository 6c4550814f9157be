"""Command-line interface: output shapes, exit codes, error reporting."""
from __future__ import annotations

import json

import pytest

from whitice.cli import main


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


def test_verify_prop_matching(capsys):
    code, obj = run_json(capsys, "verify", "prop-matching", "--lambda", "3,2,0")
    assert code == 0 and obj["pass"] is True


def test_verify_charges(capsys):
    code, obj = run_json(capsys, "verify", "charges", "--lambda", "2,1,0")
    assert code == 0 and obj["pass"] is True


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


def test_verify_functional_eq(capsys):
    code, obj = run_json(capsys, "verify", "functional-eq", "--lambda", "0,0",
                         "--coeff", "numeric", "--n", "2", "--q", "5")
    assert code == 0 and obj["pass"] is True


def test_verify_statement_b_coefficient_route(capsys):
    code, obj = run_json(capsys, "verify", "statement-b", "--l", "5,3,0", "--m", "4",
                         "--n", "1")
    assert code == 0 and obj["pass"] is True


def test_verify_statement_b_reflection_route_reports_failure(capsys):
    # the per-summand reflection route is falsified on this boundary and the
    # command must say so rather than exit clean
    code, obj = run_json(capsys, "verify", "statement-b", "--l", "6,5,4", "--m", "6",
                         "--n", "1", "--route", "qr", "--convention", "outer")
    assert code == 1
    assert obj["pass"] is False
    assert "counterexample" in obj


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
