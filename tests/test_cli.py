import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jacograph import (
    IncidencePolynomial, SimpleGraph, build, builder, chroma, cli, invariants, mu_min_two_block,
    verify,
)
from jacograph.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
X2 = IncidencePolynomial(1, 0, 0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_single_row(capsys):
    code, out, _ = run(capsys, "table1", "--f", "x^2", "--n", "1")
    assert code == 0
    assert out == "1\t0\t1\t1\t0\t0\n"


def test_table1_reference_rows(capsys):
    code, out, _ = run(capsys, "table1", "--f", "x^2", "--n", "35")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 35
    assert lines[6] == "7\t4\t45\t3,4,5\t5\t3"
    assert lines[27] == "28\t22\t762\t5,6,7,8,9,10,11\t25\t6"
    assert lines[34] == "35\t29\t1196\t6,7,8,9,10,11\t32\t6"


def test_table1_zero_polynomial(capsys):
    code, out, _ = run(capsys, "table1", "--f", "0", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\t0\t0\t1\t0\t0"
    assert lines[1] == "2\t0\t0\t1,2\t0\t-"
    assert lines[2] == "3\t0\t0\t1,2,3\t0\t-"


def test_table1_errata_column(capsys):
    code, out, _ = run(capsys, "table1", "--f", "x^2", "--n", "35", "--show-paper-errata")
    assert code == 0
    lines = out.splitlines()
    flagged = {line.split("\t")[0]: line.split("\t")[-1] for line in lines}
    assert flagged["9"] == "out_degree_root=73"
    assert flagged["31"] == "out_degree_root=939"
    assert all(flagged[str(i)] == "-" for i in range(1, 36) if i not in (9, 31))


def test_table3_reference_rows(capsys):
    code, out, _ = run(capsys, "table3", "--f", "x^2", "--n", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\t1\t1\t1\t1\t0\t0"
    assert lines[8] == "9\t31\t41\t31/9\t41/9\t344/81\t344/81"


def test_table3_weights_columns(capsys):
    code, out, _ = run(capsys, "table3", "--f", "x^2", "--n", "9", "--weights")
    assert code == 0
    row9 = out.splitlines()[8].split("\t")
    assert row9[-2] == "2,2,1,1,1,1,1"
    assert row9[-1] == "1,1,1,1,1,2,2"


def test_table3_errata_column(capsys):
    code, out, _ = run(capsys, "table3", "--f", "x^2", "--n", "20", "--show-paper-errata")
    assert code == 0
    flagged = {line.split("\t")[0]: line.split("\t")[-1] for line in out.splitlines()}
    assert flagged["17"] == "chi_minus=104"
    assert flagged["18"] == "chi_minus=119;var_minus=7852/324;var_plus=7852/324"
    assert flagged["19"] == "chi_minus=122"
    assert flagged["20"] == "chi_minus=138;var_minus=9771/20;var_plus=9771/20"
    assert flagged["10"] == "var_minus=469/100;var_plus=469/100"
    assert flagged["9"] == "-"
    assert flagged["8"] == "-"  # 24/8 and 192/64 match as rationals


def test_table3_deterministic(capsys):
    _, first, _ = run(capsys, "table3", "--f", "x^2", "--n", "12", "--weights")
    _, second, _ = run(capsys, "table3", "--f", "x^2", "--n", "12", "--weights")
    assert first == second


def test_braided_worked_example(capsys):
    code, out, _ = run(capsys, "braided", "--orders", "7,5", "--overlaps", "3")
    assert code == 0
    assert out == "9\t7\t31\t41\t31/9\t41/9\t344/81\n"


def test_braided_erratum_flags(capsys):
    code, out, _ = run(
        capsys, "braided", "--orders", "7,5", "--overlaps", "3",
        "--erratum", "--show-paper-errata",
    )
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[-2] == "46/9"
    assert fields[-1] == "var_plus=614/81"


def test_braided_zero_overlap_warns(capsys):
    code, out, err = run(capsys, "braided", "--orders", "3,3", "--overlaps", "0")
    assert code == 0
    assert "disjoint" in err
    assert out.startswith("6\t3\t")


def test_braided_invalid(capsys):
    code, _, err = run(capsys, "braided", "--orders", "3,5", "--overlaps", "4")
    assert code == 1
    assert "overlap" in err


@pytest.mark.parametrize("argv", [
    ["--orders", "99999999999999999999,5", "--overlaps", "3"],
    ["--orders", "99999999999999999999", "--format", "dot"],
])
def test_braided_block_past_the_64_bit_range_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, "braided", *argv)
    assert (code, out) == (1, "")
    assert err == "error: block 1 size 99999999999999999999 exceeds the 64-bit range\n"


def test_braided_dot(capsys):
    code, out, _ = run(capsys, "braided", "--orders", "2,2", "--overlaps", "1",
                       "--format", "dot")
    assert code == 0
    assert out == "graph {\n  v1 -- v2;\n  v2 -- v3;\n}\n"


def test_braided_dot_lists_isolated_block(capsys):
    code, out, _ = run(capsys, "braided", "--orders", "3,1,3", "--overlaps", "0,0",
                       "--format", "dot")
    assert code == 0
    assert out == (
        "graph {\n  v4;\n  v1 -- v2;\n  v1 -- v3;\n  v2 -- v3;\n"
        "  v5 -- v6;\n  v5 -- v7;\n  v6 -- v7;\n}\n"
    )


def test_export_dot_lists_isolated_vertices(capsys):
    cases = [
        ("0", "4", "dot-directed", "digraph {\n  v1;\n  v2;\n  v3;\n  v4;\n}\n"),
        ("0", "4", "dot-underlying", "graph {\n  v1;\n  v2;\n  v3;\n  v4;\n}\n"),
        ("1", "7", "dot-directed",
         "digraph {\n  v7;\n  v1 -> v2;\n  v3 -> v4;\n  v5 -> v6;\n}\n"),
        ("1", "7", "dot-underlying",
         "graph {\n  v7;\n  v1 -- v2;\n  v3 -- v4;\n  v5 -- v6;\n}\n"),
    ]
    for f, n, fmt, expected in cases:
        code, out, _ = run(capsys, "export", "--f", f, "--n", n, "--format", fmt)
        assert code == 0
        assert out == expected


def test_export_dot_directed(capsys):
    code, out, _ = run(capsys, "export", "--f", "x^2", "--n", "3",
                       "--format", "dot-directed")
    assert code == 0
    assert out == "digraph {\n  v1 -> v2;\n  v2 -> v3;\n}\n"


def test_export_dot_single_vertex(capsys):
    code, out, _ = run(capsys, "export", "--f", "x^2", "--n", "1",
                       "--format", "dot-directed")
    assert code == 0
    assert out == "digraph {\n  v1;\n}\n"


def test_export_dot_underlying(capsys):
    code, out, _ = run(capsys, "export", "--f", "x^2", "--n", "3",
                       "--format", "dot-underlying")
    assert code == 0
    assert out == "graph {\n  v1 -- v2;\n  v2 -- v3;\n}\n"


def test_export_json_schema(capsys):
    code, out, _ = run(capsys, "export", "--f", "x^2", "--n", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["incidence", "n", "vertices"]
    assert obj["incidence"] == {"a": 1, "b": 0, "c": 0}
    assert [v["in_degree"] for v in obj["vertices"]] == [0, 1, 1, 2, 3, 3]
    assert list(obj["vertices"][0]) == ["i", "in_degree", "reach"]


def test_export_json_with_arcs(capsys):
    code, out, _ = run(capsys, "export", "--f", "x^2", "--n", "3",
                       "--format", "json", "--arcs")
    obj = json.loads(out)
    assert code == 0
    assert obj["arcs"] == [[1, 2], [2, 3]]


def test_export_arc_budget_exit_code(capsys):
    code, _, err = run(capsys, "export", "--f", "x^2", "--n", "100",
                       "--format", "json", "--arcs", "--arc-budget", "5")
    assert code == 3
    assert "budget" in err


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "export", "--f", "x^2", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "table1", "--f", "x^3", "--n", "2")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "table1", "--f", "x^2")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["table1", "--f=--", "--n=1"],
    ["table3", "--f=x^2", "--n=--"],
    ["export", "--f=x", "--n=3", "--format=--"],
    ["braided", "--orders=--"],
    ["verify", "--prop=parse-roundtrip", "--f=--"],
    ["table1", "--f=x^2", "--n=1", "--out=--"],
])
def test_double_dash_as_an_option_value_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --") and "'--' is not a value" in err


def test_invalid_order_exit_code(capsys):
    code, _, err = run(capsys, "table1", "--f", "x^2", "--n", "0")
    assert code == 1


def test_verify_single_property(capsys):
    code, out, _ = run(capsys, "verify", "--prop", "parse-roundtrip")
    assert code == 0
    assert "ok   parse-roundtrip" in out
    assert "all 1 properties passed" in out


def test_verify_unknown_property(capsys):
    code, _, err = run(capsys, "verify", "--prop", "nope")
    assert code == 1
    assert "unknown property" in err


def test_verify_restricted_polynomial(capsys):
    code, out, _ = run(capsys, "verify", "--f", "x^2+1", "--n", "40",
                       "--colouring-n", "8")
    assert code == 0
    assert "properties passed" in out
    # exactly the laws stated for x^2 alone are skipped, each with a note
    skipped = [line.split(":")[0].split()[1] for line in out.splitlines()
               if line.endswith(": defined for x^2 only; skipped for this polynomial selection")]
    assert skipped == ["jaconian-plateau", "greedy-agreement", "weight-evolution",
                       "variance-symmetry"]


_QUADRATIC_ONLY = ["indegree-steps", "outdegree-distinct", "milestone-prime", "degree-jump-bound",
                   "hope-complete", "smallest-max-degree-locator"]


def test_verify_skips_the_quadratic_laws_with_a_note_without_a_quadratic(capsys):
    note = ": defined for quadratic incidence only; skipped for this polynomial selection"
    code, out, _ = run(capsys, "verify", "--f", "5", "--n", "10", "--colouring-n", "4")
    assert code == 0
    assert [line.split(":")[0].split()[1] for line in out.splitlines()
            if line.endswith(note)] == _QUADRATIC_ONLY
    for res in verify.run(verify.VerifyConfig(polynomials=(IncidencePolynomial(0, 1, 0),), n_max=10,
                                              colouring_n_max=4), tuple(_QUADRATIC_ONLY)):
        assert (res.checks, res.notes) == (0, [note[2:]])


def test_verify_runs_a_repeated_property_once(capsys):
    code, out, _ = run(capsys, "verify", "--prop", "parse-roundtrip", "--prop", "parse-roundtrip",
                       "--n", "5")
    assert code == 0
    assert out == "ok   parse-roundtrip              checks=33\nall 1 properties passed (33 checks)\n"


def test_verify_checks_a_repeated_polynomial_once(capsys):
    repeated = run(capsys, "verify", "--f", "x^2", "--f", "1*x^2", "--n", "5")
    assert repeated == run(capsys, "verify", "--f", "x^2", "--n", "5")
    assert "forward-difference           checks=8\n" in repeated[1]


def test_verify_constant_incidence(capsys):
    code, out, _ = run(capsys, "verify", "--f", "0", "--n", "10",
                       "--colouring-n", "6")
    assert code == 0
    assert "ok   component-structure" in out
    assert "properties passed" in out


def test_verify_single_vertex(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1")
    assert code == 0
    assert "all 25 properties passed" in out


def test_verify_reports_a_failing_property(capsys, monkeypatch):
    # a threshold of 0 claims that even the one-vertex graph is not complete
    monkeypatch.setattr(verify, "completeness_threshold", lambda p: 0)
    code, out, _ = run(capsys, "verify", "--prop", "completeness-threshold",
                       "--f", "x^2", "--n", "5")
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("FAIL completeness-threshold ")
    assert "FAIL completeness-threshold: x^2: order 1 > f(1)+1 is still complete" in lines
    assert lines[-1] == "1 of 1 properties failed"


def test_truncation_coherence_counts_the_definitional_arcs(monkeypatch):
    # every reach past v_1 one too low in each graph the law builds; its
    # truncations agree with each other, so only the arcs can tell
    built = verify.build

    def lowered(p, n):
        g = built(p, n)
        lower = g.reaches[:1] + tuple(r - 1 for r in g.reaches[1:])
        return builder.JacoGraph(p, n, g.in_degrees, lower)

    monkeypatch.setattr(verify, "build", lowered)
    [res] = verify.run(verify.VerifyConfig(polynomials=(X2,), n_max=40), ("truncation-coherence",))
    assert res.checks == 10
    assert sorted(res.failures) == [
        f"x^2: finite out-degree differs from the definitional arcs at n={m}" for m in (13, 20, 40)
    ]


def test_hope_complete_checks_the_range_above_the_literal_prime(monkeypatch):
    # the vertex just above the prime dropped; nothing raises, so a law that
    # only calls hope_subgraph would pass this mutant
    hope = verify.hope_subgraph
    monkeypatch.setattr(verify, "hope_subgraph", lambda g: range(hope(g).start + 1, g.n + 1))
    [res] = verify.run(verify.VerifyConfig(polynomials=(X2,), n_max=40), ("hope-complete",))
    assert res.checks == 1
    assert res.failures == [
        "x^2: Hope subgraph is not the complete range above the prime at order 2"
    ]


def test_component_structure_checks_every_constant_block_is_complete(monkeypatch):
    # v_1 of constant 3 stops one short of v_4: the blocks and the scan of
    # the reaches are unchanged, but the first block is no longer K_4
    built = verify.build
    three = IncidencePolynomial(0, 0, 3)

    def shortened(p, n):
        g = built(p, n)
        if p != three:
            return g
        return builder.JacoGraph(p, n, g.in_degrees, (g.reaches[0] - 1,) + g.reaches[1:])

    monkeypatch.setattr(verify, "build", shortened)
    [res] = verify.run(only=("component-structure",))
    assert res.checks == 29
    assert res.failures == ["3: constant components are not consecutive K_4 blocks"]


def test_reversal_identity_compares_the_literally_reversed_sum(monkeypatch):
    # the last class one too big: the report's chi_plus is read off the same
    # wrong weights, so chi_minus + chi_plus = (chi + 1) n still holds
    first_fit = chroma.min_sum_colouring

    def heavier(graph):
        s = first_fit(graph)
        return chroma.ProperColouring(s.assignment, s.weights[:-1] + (s.weights[-1] + 1,))

    monkeypatch.setattr(chroma, "min_sum_colouring", heavier)
    [res] = verify.run(only=("reversal-identity",))
    assert res.checks == 144
    assert res.failures == [
        "x^2, n=1: reversal identity broken",
        "x^2, n=1: reversed-colouring statistics relation broken",
        "x^2, n=2: reversal identity broken",
        "x^2, n=2: reversed-colouring statistics relation broken",
        "x^2, n=3: reversal identity broken",
    ]


def test_outdegree_distinct_withholds_its_note_after_a_dip(monkeypatch):
    # v_3 reaches only as far as v_2: the root out-degrees 1, 3, 2, 14, ...
    # dip once but stay distinct, so the law passes without its note
    built = verify.build

    def dipped(p, n):
        g = built(p, n)
        return builder.JacoGraph(p, n, g.in_degrees, g.reaches[:2] + g.reaches[1:2] + g.reaches[3:])

    monkeypatch.setattr(verify, "build", dipped)
    [res] = verify.run(verify.VerifyConfig(polynomials=(X2,), n_max=40), ("outdegree-distinct",))
    assert (res.ok, res.checks, res.notes) == (True, 1, [])


def test_weight_evolution_rejects_a_dropped_class(monkeypatch):
    # the order-6 colouring loses its last class: the count falls by one,
    # and then rises by two to order 7
    first_fit = chroma.min_sum_colouring

    def dropped(graph):
        s = first_fit(graph)
        if len(graph.interval_caps) != 6:
            return s
        return chroma.ProperColouring(s.assignment, s.weights[:-1])

    monkeypatch.setattr(chroma, "min_sum_colouring", dropped)
    [res] = verify.run(only=("weight-evolution",))
    assert res.checks == 19
    assert res.failures == [
        "x^2: weights changed irregularly from order 5 to 6: (2, 1, 1, 1) -> (2, 2, 1)",
        "x^2: weights changed irregularly from order 6 to 7: (2, 2, 1) -> (2, 2, 1, 1, 1)",
    ]


def test_verify_results_follow_the_property_order():
    cfg = verify.VerifyConfig(
        polynomials=(IncidencePolynomial(1, 0, 0),), n_max=5, colouring_n_max=3
    )
    assert [r.name for r in verify.run(cfg)] == list(verify.PROPERTIES)


def test_verify_sweeps_each_prefix_once_per_run(monkeypatch):
    # the eight laws over every prefix's degrees share one literal sweep
    # per polynomial, and a run leaves nothing behind for the next
    swept = []
    literal = verify.underlying_degrees
    monkeypatch.setattr(verify, "underlying_degrees", lambda g: swept.append(g.n) or literal(g))
    laws = ("delta-monotone", "min-degree-bound", "prime-full-degree-prefix", "milestone-prime",
            "degree-jump-bound", "jaconian-plateau", "hope-complete", "jaconian-contiguity")
    cfg = verify.VerifyConfig(n_max=30)
    for only in (laws[:1], laws, laws):
        swept.clear()
        assert all(r.ok for r in verify.run(cfg, only))
        assert sorted(swept) == sorted(list(range(1, 31)) * len(cfg.structural_polys()))
        assert verify._degree_sweep.cache_info().currsize == 0


_PREFIX_LAWS = ("delta-monotone", "min-degree-bound", "prime-full-degree-prefix", "milestone-prime",
                "degree-jump-bound", "jaconian-plateau", "jaconian-contiguity")


@pytest.mark.parametrize("order, corrupt, failing, digest", [
    # vertex 1 above the maximum
    (30, lambda d: (max(d) + 1,) + d[1:],
     {"delta-monotone", "min-degree-bound", "milestone-prime", "degree-jump-bound"},
     "854588a4cc6449cf641ebfe73d7e78b5d5ff6661a585b743695f749541478c7a"),
    # a negative degree, and the maximum split off onto the last vertex
    (40, lambda d: (-1,) + d[1:-1] + (max(d),),
     {"min-degree-bound", "prime-full-degree-prefix", "degree-jump-bound", "jaconian-plateau",
      "jaconian-contiguity"},
     "39b6e921e4e4f7fd35fa6a7eb36437c080d63c99586257b5fc6161177f2feba1"),
    # every degree capped at 2
    (25, lambda d: tuple(min(x, 2) for x in d),
     {"delta-monotone", "milestone-prime"},
     "8464e00132a41c33dd9057d6da5dfcd1f94ea2b25f393d402e18e16f5599e5cc"),
    # vertex 1 below f(1) while the prime keeps its full degree
    (50, lambda d: (d[0] - 1,) + d[1:],
     {"prime-full-degree-prefix", "degree-jump-bound"},
     "a94673e49c234747d2d2e219af68ce546e175c410c5764f567e29a4a302fb478"),
])
def test_verify_reports_a_corrupted_prefix(capsys, monkeypatch, order, corrupt, failing, digest):
    # one prefix's degrees are corrupted; every law over the prefixes reads
    # them, and the report (failures, notes and check counts) is pinned
    literal = verify.underlying_degrees
    monkeypatch.setattr(verify, "underlying_degrees",
                        lambda g: corrupt(literal(g)) if g.n == order else literal(g))
    code, out, err = run(capsys, "verify", "--n", "60",
                         *[arg for law in _PREFIX_LAWS for arg in ("--prop", law)])
    assert (code, err) == (2, "")
    assert {line.split()[1] for line in out.splitlines()
            if line.startswith("FAIL ") and " checks=" in line} == failing
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deep_braid_gets_its_closed_form(capsys):
    code, out, err = run(capsys, "braided", "--orders", "600,600", "--overlaps", "1")
    assert code == 0
    assert err == ""
    assert Fraction(out.split("\t")[4]) == mu_min_two_block(600, 600, 1)


def test_verify_rejects_colouring_order_below_one(capsys):
    code, out, err = run(capsys, "verify", "--colouring-n", "0")
    assert code == 1
    assert out == ""
    assert err == "error: --colouring-n must be >= 1, got 0\n"


@pytest.mark.parametrize("argv", [
    (),
    ("--prop", "oracle-colouring"),
    ("--prop", "parse-roundtrip", "--prop", "oracle-colouring"),
])
def test_verify_refuses_a_colouring_order_past_the_oracle_cap_before_any_work(
    capsys, monkeypatch, argv
):
    def refuse(*args, **kwargs):
        raise AssertionError("a property ran before the colouring order was refused")

    monkeypatch.setattr(verify, "PropertyResult", refuse)
    code, out, err = run(capsys, "verify", *argv, "--colouring-n", "13")
    assert (code, out, err) == (1, "", "error: exhaustive oracle capped at order 12\n")


def test_verify_refuses_an_order_past_the_definitional_cap_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a property ran before the order was refused")

    monkeypatch.setattr(verify, "PropertyResult", refuse)
    for argv in ((), ("--prop", "parse-roundtrip", "--prop", "truncation-coherence")):
        code, out, err = run(capsys, "verify", *argv, "--n", "10001")
        assert (code, out, err) == (1, "", "error: definitional oracle capped at 10000\n")


def test_verify_refuses_a_prefix_sweep_past_the_cap_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a property ran before the order was refused")

    sweeps = ("delta-monotone", "min-degree-bound", "prime-full-degree-prefix", "milestone-prime",
              "completeness-threshold", "degree-jump-bound", "jaconian-plateau", "hope-complete",
              "jaconian-contiguity")
    monkeypatch.setattr(verify, "PropertyResult", refuse)
    for prop in sweeps:
        code, out, err = run(capsys, "verify", "--prop", "parse-roundtrip", "--prop", prop,
                             "--n", "10001")
        assert (code, out, err) == (1, "", "error: prefix sweep capped at 10000\n")
    # the definitional refusal keeps its bytes when both apply
    code, out, err = run(capsys, "verify", "--prop", "delta-monotone", "--prop",
                         "truncation-coherence", "--n", "10001")
    assert (code, out, err) == (1, "", "error: definitional oracle capped at 10000\n")
    monkeypatch.undo()
    # a law that sweeps no prefixes is not refused
    code, out, err = run(capsys, "verify", "--prop", "parse-roundtrip", "--n", "10001")
    assert (code, err) == (0, "")


def test_verify_takes_a_colouring_order_past_the_oracle_cap_without_the_oracle(capsys):
    code, out, err = run(capsys, "verify", "--prop", "reversal-identity", "--colouring-n", "13")
    assert (code, err) == (0, "")
    assert out.endswith("all 1 properties passed (156 checks)\n")


def test_verify_refuses_an_unreachable_locator_target(capsys):
    # 100*x^2 has maximum degree 10^6 first at an order past the sweep's 20,000
    code, out, err = run(capsys, "verify", "--f", "100*x^2", "--prop",
                         "smallest-max-degree-locator")
    assert (code, out, err) == (3, "", "error: target degree 1000000 not reached by order 20000\n")


@pytest.mark.parametrize("f, target", [
    # the sweep stops at order 20,000 though the locator answers k = 27,000,001
    ("300*x^2", 27_000_000),
    # and k = 10^9 + 1
    ("1000*x^2", 1_000_000_000),
    # the locator itself would refuse k = 2^63 with exit 1
    ("17*x^2+715827836*x+31", 2**63 - 1),
])
def test_verify_refuses_an_unreachable_locator_target_before_the_locator_builds(
    capsys, monkeypatch, f, target
):
    def refuse(p):
        raise AssertionError("the locator ran before the sweep refused its target")

    monkeypatch.setattr(verify, "smallest_with_max_degree", refuse)
    code, out, err = run(capsys, "verify", "--f", f, "--prop", "smallest-max-degree-locator")
    assert (code, out, err) == (3, "", f"error: target degree {target} not reached by order 20000\n")


def test_oracle_laws_colour_the_defined_graph_not_the_certificate(monkeypatch):
    # reach(1) one too low lowers cap(1) wherever v_1 does not reach v_n,
    # which drops the edge (1, cap(1)); both oracles colour the masks of the
    # definitional arcs, so both laws see the wrong graph
    literal = chroma.underlying_graph
    monkeypatch.setattr(chroma, "underlying_graph", lambda g: literal(
        dataclasses.replace(g, reaches=(g.reaches[0] - 1,) + g.reaches[1:])))
    results = verify.run(only=("oracle-colouring", "greedy-agreement"))
    assert [res.failures[0] for res in results] == [
        "x^2, n=6: solver gives 12 (3, 1, 1, 1), oracle 13 (2, 2, 1, 1)",
        "x^2, n=6: greedy gives (3, 1, 1, 1), exact optimum (2, 2, 1, 1)",
    ]


@pytest.mark.parametrize("argv", [
    ("--n", "0"),
    ("--n", "0", "--prop", "forward-difference"),
    ("--prop", "parse-roundtrip", "--n", "0"),
    ("--prop", "smallest-max-degree-locator", "--n", "-2"),
    ("--prop", "delta-monotone", "--n", "0"),
])
def test_verify_rejects_order_below_one_before_any_work(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: --n must be >= 1, got {argv[argv.index('--n') + 1]}\n"


ZERO_OVERLAP_WARNING = (
    "warning: overlap 0 joins blocks disjointly; the result is a disjoint"
    " union rather than a braided string\n"
)


# sha256 of standard output, pinned so that a refactor keeps the bytes
PINNED = [
    ("table1 --f x^2 --n 35 --show-paper-errata",
     "c84401c3ce43d653849d1b34872285057005f193293b62294e40063ffd0e6fc8"),
    ("table1 --f x^2 --n 1000",
     "45d134e35ccac744bfdf89afb3aa599f3cd3b472b768de50979f26e03a7d839f"),
    ("table1 --f 3 --n 300",
     "b62aaebc8a19e13b71545e2d904c47ca6d05b583385adfe3acc527680dab6ee9"),
    ("table1 --f 0 --n 7",
     "52f4f4eaf9e925a0dd21c9e213aa42ac3bee2aa47c0cd32cb18296d4a73561cf"),
    ("table1 --f 2*x --n 300",
     "6213e07fb1f51468c416125018eb316d390194a371cd20f4164f5c08bf5ed7cc"),
    ("table1 --f 1 --n 300",
     "155a57d95bfb24412df8e16dcbc611a83e7e508a33f8e572bcba72d316f6b3a6"),
    ("table1 --f x+2 --n 500",
     "c302e4b95aec6a727724a65c0b6162fdeba56542b516b677b989567e9e60f3dd"),
    ("table1 --f 3*x^2 --n 700",
     "ee69e013a1d7dae961110b42292443858ade89bc2d51d565f0a1ecd6cfd7976d"),
    ("table1 --f x --n 2000",
     "229e6ea5a68ebfba48407a7a9b5306de7cf36f0284a76b45c6929ce0c94eb721"),
    ("table1 --f 2*x+1 --n 999",
     "0987ac87125b8ee9458981475e858674c18b41307c8ea3c869db72587bc91acc"),
    ("export --f 3 --n 11 --format dot-underlying",
     "8f8fd1ecb9cdf9afd20559b97a513b1a0e2465b92fb605357bf7d3adad43214d"),
    ("export --f 0 --n 5 --format dot-directed",
     "02e09edc67c383780dcd2e314db5b154b19318c00a757ca0ae538484c99dab06"),
    ("export --f x^2 --n 1000 --format dot-directed",
     "286549de721c43ed8f99c906c02244eafea2d212600e6f10b10991c8b72ec3f3"),
    ("export --f x^2 --n 800 --format json --arcs",
     "179fe7b791779e700fb770a75d667d1a811eb0b63de7cc7ca0e8036a95f74cd9"),
    ("export --f 0 --n 5 --format json --arcs",
     "ebd0fcf7db4be14c1ff12774c7aa0dfca385542edac7a07e08488f0c0a1ef999"),
    ("export --f x^2 --n 1 --format json --arcs",
     "2e318b0e14f96bb23ec177ffd7a139c5b443cd26038506a307297a4f48125630"),
    ("export --f 3*x^2+2*x+2 --n 700 --format json",
     "7c9469894cc6c7e9621ed5e5c2ca4254205bea533963ef8ee8066d1d1896e530"),
    ("export --f 3 --n 50 --format json",
     "1ac6671b3dfeb7c1ae16cd8b8ae1dba66f0e9b42098e0d6ae5965f7550b2b1a3"),
    ("export --f 1 --n 1 --format json",
     "bfe930e13d5eb32c1b71b047a414e0d87ea0ffa6e45e53c60272894f813eab81"),
    ("braided --orders 7,5 --overlaps 3 --format dot",
     "3be68ee5ef7b49f13149d6b6f5952ff4e3e2f34070aba6e86ab70fc998276998"),
    ("braided --orders 3,1,3 --overlaps 0,0 --format dot",
     "9fb27d092f48032a0ce101da5d228c0aeaebbf34b364a1aabc099511be34743a"),
    ("table3 --f x^2 --n 20 --weights --show-paper-errata",
     "5e6c91d98f7fe0b5f973e30192c18c01f77a8f487c2e1f71e4257f4c499e155b"),
    ("table3 --f 3*x^2+2*x+2 --n 300 --weights",
     "a1a0a0eaf5fae8dcba7fbb2ebb00a103d19df9dbca8c9e8053dc18a04295aa10"),
    ("table3 --f 3 --n 200",
     "c9a7834f352c5ebed98f0b98047568c903444e2e19cee455232ab16365ee8577"),
    ("table3 --f 2*x+1 --n 150 --weights",
     "e2271292ef92db3c1fa288bc10782d8a7a255c733c044811b82dee0bc0491caf"),
    ("table3 --f x^2 --n 800 --weights",
     "67e5f19d5bd5040308ee153428fedd9ac8ccce536afc5fb14d5788f2143b1dd5"),
    ("table3 --f 2 --n 2000 --weights",
     "b4113efede848f9890bc56094cbbd3a1748a492ec017d7eb929de63686f2dc72"),
    ("table3 --f x+2 --n 1000",
     "c65867b3fe604d4f0952494501f23dc8cef73be7235f3d4ac261b216e77b0f24"),
    ("braided --orders 7,5 --overlaps 3 --erratum --show-paper-errata",
     "0873e662324963b4cd66e5a494155e49ae64292e3e29cd2ea88b9d49b024c8b0"),
    ("verify --prop greedy-agreement",
     "f62ac20e41ef05d4f44e194ea5298827dc7a018a6f15acc181b827dc77ac7f0a"),
    ("verify",
     "0baaea8c23ad2cc38bc97806061cccb0fa98ca5c6c4943dc37ecde2fd315c796"),
]


def _assert_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, ZERO_OVERLAP_WARNING if "--overlaps 0" in argv else "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", PINNED)
def test_output_bytes_are_pinned(capsys, argv, digest):
    _assert_pinned(capsys, argv, digest)


@pytest.mark.parametrize(
    "argv, digest", [(a, d) for a, d in PINNED if a.startswith("export") or "dot" in a]
)
def test_exports_materialize_no_arc_or_edge_list(capsys, monkeypatch, argv, digest):
    def refuse(*args, **kwargs):
        raise AssertionError("the export materialized a list of arcs, edges or degrees")

    for module in (builder, invariants, cli):  # wherever cli could take them from
        for name in ("arcs", "underlying_degrees"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(SimpleGraph, "edges", refuse)
    _assert_pinned(capsys, argv, digest)


@pytest.mark.parametrize("existing", [None, "earlier contents\n"])
@pytest.mark.parametrize("fmt", [["json", "--arcs"], ["dot-directed"], ["dot-underlying"]])
def test_arc_budget_is_checked_before_the_output_is_opened(tmp_path, capsys, fmt, existing):
    target = tmp_path / "graph.out"
    if existing is not None:
        target.write_text(existing)
    code, out, err = run(capsys, "export", "--f", "x^2", "--n", "100", "--format", *fmt,
                         "--arc-budget", "5", "--out", str(target))
    assert (code, out) == (3, "")
    assert err == f"error: {build(X2, 100).arc_count()} arcs exceed the budget of 5\n"
    if existing is None:
        assert not target.exists()
    else:
        assert target.read_text() == existing


@pytest.mark.parametrize("fmt", [["json"], ["json", "--arcs"], ["dot-directed"],
                                 ["dot-underlying"]])
def test_negative_arc_budget_is_an_input_error(tmp_path, capsys, fmt):
    target = tmp_path / "graph.out"
    code, out, err = run(capsys, "export", "--f", "x^2", "--n", "1", "--format", *fmt,
                         "--arc-budget=-5", "--out", str(target))
    assert (code, out, err) == (1, "", "error: --arc-budget must be >= 0, got -5\n")
    assert not target.exists()


def _assert_one_output_error(code, err):
    assert code == 1
    assert err.startswith("error: cannot write the output: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_out_into_a_missing_directory_is_an_output_error(tmp_path, capsys):
    target = tmp_path / "missing" / "graph.dot"
    code, out, err = run(capsys, "export", "--f", "x^2", "--n", "3",
                         "--format", "dot-directed", "--out", str(target))
    _assert_one_output_error(code, err)
    assert out == ""
    assert not target.parent.exists()


def test_out_naming_a_directory_is_an_output_error(tmp_path, capsys):
    code, out, err = run(capsys, "table1", "--f", "x^2", "--n", "3", "--out", str(tmp_path))
    _assert_one_output_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [["verify"], ["table1", "--f", "x^2", "--n", "3"]])
@pytest.mark.parametrize("where", ["missing", "directory", "under-a-file"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, where):
    def refuse(*args, **kwargs):
        raise AssertionError("the command computed before it checked --out")

    monkeypatch.setattr(cli, "run_verify", refuse)
    monkeypatch.setattr(cli, "construction_table", refuse)
    blocker = tmp_path / "FILE"
    blocker.write_text("kept\n")
    target, refusal = {"missing": (tmp_path / "missing" / "out.txt", errno.ENOENT),
                       "directory": (tmp_path, errno.EISDIR),
                       "under-a-file": (blocker / "out.txt", errno.ENOTDIR)}[where]
    code, out, err = run(capsys, *argv, "--out", str(target))
    _assert_one_output_error(code, err)
    assert f"[Errno {refusal}] {os.strerror(refusal)}: {str(target)!r}" in err
    assert out == ""
    assert blocker.read_text() == "kept\n"


_OPTIONS = {
    "table1": "-h --f --n --show-paper-errata --out",
    "table3": "-h --f --n --weights --show-paper-errata --out",
    "braided": "-h --orders --overlaps --format --erratum --show-paper-errata --out",
    "verify": "-h --f --prop --n --colouring-n --out",
    "export": "-h --f --n --format --arcs --arc-budget --out",
}


@pytest.mark.parametrize("command", _OPTIONS)
def test_each_subcommand_lists_its_options_in_order(capsys, command):
    # the shared options are added in loops after each subcommand's own;
    # names only, as argparse wraps the help text differently by version
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = re.findall(r"(?m)^  (--?[\w-]+)", capsys.readouterr().out)
    assert listed == _OPTIONS[command].split()


def _python(args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          timeout=120, **kwargs)


@pytest.mark.parametrize("argv", [
    "table1 --f x^2 --n 3",  # small: fails at the flush
    "export --f x^2 --n 300 --format dot-directed",  # fails while streaming
])
def test_closed_pipe_is_an_output_error(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        proc = _python(["-m", "jacograph", *argv.split()], stdout=write,
                       stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    _assert_one_output_error(proc.returncode, proc.stderr)


def _jaco_limited(argv, address_space):
    """Run ``jaco argv`` in a fresh interpreter whose address space is
    limited to ``address_space`` bytes; the limit is set in the child only."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return _python(["-m", "jacograph", *argv], preexec_fn=limit, capture_output=True, text=True)


def _past_64_bits(command):
    """Run ``jaco command --f x^2 --n 4000000000`` in a fresh interpreter.
    The order is refused by the build before anything of size n is made;
    the address-space limit keeps a regression from taking the machine, and
    the timeout from holding it."""
    proc = _jaco_limited([command, "--f", "x^2", "--n", "4000000000"], 2**30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: f(4000000000) = 16000000000000000000 exceeds the 64-bit range;"
                           " reduce the order\n")


def test_table1_refuses_f_1_plus_1_past_the_64_bit_range(capsys):
    # f(1) = 2^63 - 1 fits, so the build's own guard on f(n) + n refuses
    code, out, err = run(capsys, "table1", "--f", "9223372036854775807", "--n", "1")
    assert (code, out, err) == (1, "", "error: f(1) + 1 exceeds the 64-bit range\n")


def test_table1_past_the_64_bit_range_is_an_input_error():
    _past_64_bits("table1")


def test_table3_past_the_64_bit_range_is_an_input_error():
    # a table built order by order would run here for hours, one row at a time
    _past_64_bits("table3")


def test_running_out_of_memory_is_a_budget_error():
    # realizing 200,000,005 caps needs gigabytes; 768 MB fails within a second
    proc = _jaco_limited(["braided", "--orders", "200000000,5", "--overlaps", "3"], 768 * 2**20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: out of memory; try a smaller input\n"


def _peak_rss_mb(argv):
    """Peak resident set of a fresh interpreter that runs ``jaco argv``.

    Read from VmHWM, the peak of the interpreter's own address space:
    ru_maxrss would also carry the peak of this test process, which a child
    inherits across fork and exec."""
    probe = ("import sys; from jacograph.cli import main; code = main(sys.argv[1:]);"
             " print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM:')]);"
             " sys.exit(code)")
    proc = _python(["-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    kib, unit = proc.stdout.split()[-2:]
    assert unit == "kB"
    return int(kib) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
def test_export_holds_no_more_than_a_vertex_at_a_time(tmp_path):
    # 479,039 arcs in 7.6 MB of DOT; held whole, they cost about 94 MB more
    export = _peak_rss_mb(["export", "--f", "x^2", "--n", "1000", "--format", "dot-directed",
                           "--out", str(tmp_path / "graph.dot")])
    baseline = _peak_rss_mb(["table1", "--f", "x^2", "--n", "3"])
    assert export - baseline <= 25, (export, baseline)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
def test_export_json_holds_no_more_than_a_vertex_at_a_time(tmp_path):
    # 200,000 vertex records in 11 MB of JSON; encoded as one string of n
    # dicts, they cost about 87 MB more
    export = _peak_rss_mb(["export", "--f", "x^2", "--n", "200000", "--format", "json",
                           "--out", str(tmp_path / "graph.json")])
    baseline = _peak_rss_mb(["table1", "--f", "x^2", "--n", "3"])
    assert export - baseline <= 30, (export, baseline)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
def test_table1_holds_no_more_than_a_row_at_a_time(tmp_path):
    # every constant Jaconian set covers almost its whole prefix: 3000 rows
    # make 20 MB of output, which joined whole cost about 60 MB more
    table = _peak_rss_mb(["table1", "--f", "3", "--n", "3000", "--out", str(tmp_path / "t1.tsv")])
    baseline = _peak_rss_mb(["table1", "--f", "x^2", "--n", "3"])
    assert table - baseline <= 15, (table, baseline)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
def test_verify_holds_a_record_per_order_not_every_degree_tuple():
    # every prefix's degree tuple of 29 polynomials at n = 400, held for the
    # run, costs about 50 MB more
    checked = _peak_rss_mb(["verify", "--n", "400", "--prop", "min-degree-bound"])
    baseline = _peak_rss_mb(["table1", "--f", "x^2", "--n", "3"])
    assert checked - baseline <= 10, (checked, baseline)


_TOO_LONG = "9" * 5000


@pytest.mark.parametrize("argv, err", [
    (["braided", f"--orders={_TOO_LONG},5", "--overlaps=3"],
     "error: integer too long: 5000 digits\n"),
    (["table1", "--f=x^2", f"--n={_TOO_LONG}"],
     "error: argument --n: integer too long: 5000 digits\n"),
    (["verify", f"--colouring-n=-{_TOO_LONG}"],
     "error: argument --colouring-n: integer too long: 5000 digits\n"),
    (["export", "--f=x", "--n=3", f"--arc-budget=1_{_TOO_LONG}"],
     "error: argument --arc-budget: integer too long: 5001 digits\n"),
    # malformed values keep their messages
    (["table1", "--f=x^2", "--n=1__0"], "error: argument --n: invalid int value: '1__0'\n"),
    (["table1", "--f=x^2", "--n=+-5"], "error: argument --n: invalid int value: '+-5'\n"),
    (["braided", "--orders=7,x"], "error: expected comma-separated integers, got '7,x'\n"),
])
def test_a_too_long_integer_is_named_by_its_digit_count(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


# --- the argv grammar: every drawn command line ends in a documented code ----

_MISSING_DIR_OUT = str(SRC / "no-such-directory" / "out.txt")
_VALID = ["x^2", "0", "1", "3", "x", "x+2", "2*x^2+x+2", "x^2+1"]
_MALFORMED = ["x^^2", "x^3", "", "2*", "y", "-x", "x^2+", "99999999999999999999*x^2",
              "9" * 5000]
_POLYNOMIALS = st.one_of(
    st.sampled_from(_VALID), st.sampled_from(_VALID + _MALFORMED), st.text(max_size=5)
)
_ORDERS = st.one_of(
    st.integers(1, 60), st.integers(-2, 60), st.sampled_from(["", "x", "1.5"])
).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["table1", "table3", "braided", "export", "verify"]))
    out = draw(st.sampled_from([None, None, None, _MISSING_DIR_OUT]))
    if command == "table1":
        opts = {"--f": draw(_POLYNOMIALS), "--n": draw(_ORDERS),
                "--show-paper-errata": draw(st.booleans())}
    elif command == "table3":
        opts = {"--f": draw(_POLYNOMIALS), "--n": draw(st.integers(-2, 12).map(str)),
                "--weights": draw(st.booleans()), "--show-paper-errata": draw(st.booleans())}
    elif command == "braided":
        orders = draw(st.lists(st.integers(-1, 40), min_size=1, max_size=4)
                      .filter(lambda o: sum(o) <= 40))
        fitting = st.lists(st.integers(-1, 8), min_size=len(orders) - 1, max_size=len(orders) - 1)
        overlaps = draw(fitting | fitting | st.lists(st.integers(-1, 8), max_size=4))
        text = ",".join(map(str, orders))
        opts = {
            "--orders": draw(st.sampled_from([text, text, "7,x", ",", "", f"{2**64},5"])),
            "--overlaps": ",".join(map(str, overlaps)) if overlaps else None,
            "--format": draw(st.sampled_from(["tsv", "dot"])),
            "--erratum": draw(st.booleans()), "--show-paper-errata": draw(st.booleans()),
        }
    elif command == "export":
        opts = {"--f": draw(_POLYNOMIALS), "--n": draw(_ORDERS),
                "--format": draw(st.sampled_from(["json", "dot-directed", "dot-underlying"])),
                "--arcs": draw(st.booleans()),
                "--arc-budget": draw(st.sampled_from([None, None, "-1", "0", "5", "50", "100000"]))}
    else:
        opts = {"--prop": draw(st.sampled_from(tuple(verify.PROPERTIES))),
                "--n": draw(st.integers(-1, 5).map(str)),
                "--colouring-n": draw(st.integers(-1, 4).map(str))}
    # "=" keeps a value that starts with "-" from reading as an option
    return [command, *(f"{flag}={value}" if isinstance(value, str) else flag
                       for flag, value in {**opts, "--out": out}.items()
                       if value is not None and value is not False)]


@given(_argv())
@example(["table1", "--f=" + "9" * 5000, "--n=2"])
@example(["braided", f"--orders={2**64},5", "--overlaps=3"])
@example(["braided", f"--orders={_TOO_LONG},5", "--overlaps=3"])
@example(["table1", "--f=x^2", f"--n={_TOO_LONG}"])
@settings(max_examples=300, deadline=None)
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (1, 3):
        assert err.getvalue().splitlines()[-1].startswith("error: ")
    if _MISSING_DIR_OUT in argv[-1]:
        assert code != 0
