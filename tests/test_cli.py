import json

from jacograph.cli import main


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


def test_verify_constant_incidence(capsys):
    code, out, _ = run(capsys, "verify", "--f", "0", "--n", "10",
                       "--colouring-n", "6")
    assert code == 0
    assert "ok   component-structure" in out
    assert "properties passed" in out
