"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values are frozen from the published tables after verifying each
cell's internal consistency (the construction rules, the colour-weight
vectors, and the mean/variance identities corroborate one another).  Three
published cells are provably inconsistent with their own rows and are
frozen at the corroborated value instead; the command-line
``--show-paper-errata`` output documents every such cell:

* construction table, rows 9 and 31, root out-degree column: printed 73
  and 939, but f(i) - indeg(i) with the rows' own in-degrees gives 75 and
  936;
* chromatic table, rows 17-20, chi-minus column: printed 104/119/122/138,
  but the printed means give 109/124/127/143;
* chromatic table, row 10 variance: printed 469/100, but the row's own
  weight vector gives 569/100 (the printed value drops the two doubled
  colours from the second moment);
* chromatic table, row 18 variance numerator (7852 -> 7052) and row 20
  variance denominator (20 -> 400).
"""

import time
from fractions import Fraction

import conftest
from jacograph import (
    IncidencePolynomial,
    build,
    chroma_report,
    evaluate,
    min_sum_colouring,
    root_stream,
    smallest_with_max_degree,
    underlying_graph,
)
from jacograph.braided import (
    BraidedString,
    mu_max_two_block,
    mu_min_two_block,
    realize,
)
from jacograph.builder import arcs
from jacograph.chroma import SimpleGraph, colour_sum
from jacograph.cli import main
from jacograph.oracle import (
    arcs_by_definition,
    exhaustive_min_sum,
    from_edges,
    sweep_smallest_max_degree,
)
from jacograph.verify import ORACLE_POLYS, QUADRATIC_GRID, VerifyConfig, run as run_verify

X2 = IncidencePolynomial(1, 0, 0)

# (i, in_degree, out_degree_root, jaconian set, max_degree, v1 distance)
TABLE1 = (
    (1, 0, 1, "1", 0, 0),
    (2, 1, 3, "1,2", 1, 1),
    (3, 1, 8, "2", 2, 2),
    (4, 2, 14, "2", 3, 2),
    (5, 3, 22, "2", 4, 2),
    (6, 3, 33, "2,3,4,5", 4, 3),
    (7, 4, 45, "3,4,5", 5, 3),
    (8, 5, 59, "3,4,5", 6, 3),
    (9, 6, 75, "3,4,5", 7, 3),
    (10, 7, 93, "3,4,5", 8, 3),
    (11, 8, 113, "3,4,5", 9, 3),
    (12, 8, 136, "4,5", 10, 4),
    (13, 9, 160, "4,5", 11, 4),
    (14, 10, 186, "4,5", 12, 4),
    (15, 11, 214, "4,5", 13, 4),
    (16, 12, 244, "4,5", 14, 4),
    (17, 13, 276, "4,5", 15, 4),
    (18, 14, 310, "4,5", 16, 4),
    (19, 14, 347, "5", 17, 5),
    (20, 15, 385, "5", 18, 5),
    (21, 16, 425, "5", 19, 5),
    (22, 17, 467, "5", 20, 5),
    (23, 18, 511, "5", 21, 5),
    (24, 19, 557, "5", 22, 5),
    (25, 20, 605, "5", 23, 5),
    (26, 21, 655, "5", 24, 5),
    (27, 22, 707, "5", 25, 5),
    (28, 22, 762, "5,6,7,8,9,10,11", 25, 6),
    (29, 23, 818, "6,7,8,9,10,11", 26, 6),
    (30, 24, 876, "6,7,8,9,10,11", 27, 6),
    (31, 25, 936, "6,7,8,9,10,11", 28, 6),
    (32, 26, 998, "6,7,8,9,10,11", 29, 6),
    (33, 27, 1062, "6,7,8,9,10,11", 30, 6),
    (34, 28, 1128, "6,7,8,9,10,11", 31, 6),
    (35, 29, 1196, "6,7,8,9,10,11", 32, 6),
)

# canonical minimum-sum colour weights per order; maximum side is the reverse
TABLE2_MIN_WEIGHTS = {
    1: (1,),
    2: (1, 1),
    3: (2, 1),
    4: (2, 1, 1),
    5: (2, 1, 1, 1),
    6: (2, 2, 1, 1),
    7: (2, 2, 1, 1, 1),
    8: (2, 2, 1, 1, 1, 1),
    9: (2, 2, 1, 1, 1, 1, 1),
    10: (2, 2) + (1,) * 6,
    11: (2, 2) + (1,) * 7,
    12: (3, 2) + (1,) * 7,
    13: (3, 2) + (1,) * 8,
    14: (3, 2) + (1,) * 9,
    15: (3, 2) + (1,) * 10,
    16: (3, 2) + (1,) * 11,
    17: (3, 2) + (1,) * 12,
    18: (3, 2) + (1,) * 13,
    19: (3, 2, 2) + (1,) * 12,
    20: (3, 2, 2) + (1,) * 13,
}

# (chi_minus, chi_plus, mu-, mu+, var-, var+)
TABLE3 = {
    1: (1, 1, "1", "1", "0", "0"),
    2: (3, 3, "3/2", "3/2", "1/4", "1/4"),
    3: (4, 5, "4/3", "5/3", "2/9", "2/9"),
    4: (7, 9, "7/4", "9/4", "11/16", "11/16"),
    5: (11, 14, "11/5", "14/5", "34/25", "34/25"),
    6: (13, 17, "13/6", "17/6", "41/36", "41/36"),
    7: (18, 24, "18/7", "24/7", "96/49", "96/49"),
    8: (24, 32, "3", "4", "3", "3"),
    9: (31, 41, "31/9", "41/9", "344/81", "344/81"),
    10: (39, 51, "39/10", "51/10", "569/100", "569/100"),
    11: (48, 62, "48/11", "62/11", "886/121", "886/121"),
    12: (49, 71, "49/12", "71/12", "1091/144", "1091/144"),
    13: (59, 84, "59/13", "84/13", "1602/169", "1602/169"),
    14: (70, 98, "5", "7", "81/7", "81/7"),
    15: (82, 113, "82/15", "113/15", "3116/225", "3116/225"),
    16: (95, 129, "95/16", "129/16", "4175/256", "4175/256"),
    17: (109, 146, "109/17", "146/17", "5476/289", "5476/289"),
    18: (124, 164, "62/9", "82/9", "7052/324", "7052/324"),
    19: (127, 177, "127/19", "177/19", "7716/361", "7716/361"),
    20: (143, 197, "143/20", "197/20", "9771/400", "9771/400"),
}


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number} {name}: {status}{suffix}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_1_table1_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table1", "--f", "x^2", "--n", "35"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    expected = "".join(
        f"{i}\t{ind}\t{outdeg}\t{jac}\t{delta}\t{dist}\n"
        for i, ind, outdeg, jac, delta, dist in TABLE1
    )
    report(
        1,
        "table1-reproduction",
        code == 0 and out == expected and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_table2_weights():
    start = time.perf_counter()
    ok = True
    for i in range(1, 21):
        rep = chroma_report(underlying_graph(build(X2, i)))
        expected = TABLE2_MIN_WEIGHTS[i]
        if rep.weights_min != expected or rep.weights_max != tuple(reversed(expected)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(2, "table2-weight-vectors", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_3_table3_reproduction():
    ok = True
    detail = ""
    for i in range(1, 21):
        rep = chroma_report(underlying_graph(build(X2, i)))
        chi_minus, chi_plus, mu_m, mu_p, var_m, var_p = TABLE3[i]
        row_ok = (
            rep.chi_minus == chi_minus
            and rep.chi_plus == chi_plus
            and rep.mu_minus == Fraction(mu_m)
            and rep.mu_plus == Fraction(mu_p)
            and rep.var_minus == Fraction(var_m)
            and rep.var_plus == Fraction(var_p)
            and rep.chi_minus + rep.chi_plus == (rep.chi + 1) * i
        )
        if not row_ok:
            ok = False
            detail = f"row {i}"
            break
    # the corrected row-10 variance is corroborated by the independent
    # exhaustive oracle: its weights pin the second moment
    _, oracle_weights = exhaustive_min_sum(from_edges(10, arcs_by_definition(X2, 10)))
    mean = Fraction(sum(i * w for i, w in enumerate(oracle_weights, start=1)), 10)
    second = Fraction(sum(i * i * w for i, w in enumerate(oracle_weights, start=1)), 10)
    if second - mean * mean != Fraction(569, 100):
        ok = False
        detail = "row 10 oracle corroboration"
    report(3, "table3-reproduction", ok, detail)


def test_criterion_4_complete_graphs():
    ok = True
    for n in range(1, 51):
        rep = chroma_report(SimpleGraph.complete(n))
        total = n * (n + 1) // 2
        if not (
            rep.chi_minus == total
            and rep.chi_plus == total
            and rep.mu_minus == rep.mu_plus == Fraction(n + 1, 2)
            and rep.var_minus == rep.var_plus == Fraction(n * n - 1, 12)
        ):
            ok = False
            break
    report(4, "complete-graph-sums", ok)


def test_criterion_5_braided_example():
    rep = chroma_report(realize(BraidedString((7, 5), (3,))))
    ok = (
        rep.mu_minus == Fraction(31, 9)
        and rep.mu_plus == Fraction(41, 9)
        and rep.var_minus == rep.var_plus == Fraction(344, 81)
    )
    for n in range(1, 12):
        for m in range(1, n + 1):
            for l in range(0, m + 1):
                if n + m - l > 12:
                    continue
                engine = chroma_report(realize(BraidedString((n, m), (l,))))
                if (
                    engine.mu_minus != mu_min_two_block(n, m, l)
                    or engine.mu_plus != mu_max_two_block(n, m, l)
                ):
                    ok = False
    report(5, "braided-example-and-closed-forms", ok)


def test_criterion_6_oracle_equivalence():
    mismatches = 0
    for p in ORACLE_POLYS:
        for n in range(1, 13):
            g = build(p, n)
            literal = arcs_by_definition(p, n)
            if arcs(g) != literal:
                mismatches += 1
            colouring = min_sum_colouring(underlying_graph(g))
            oracle_sum, oracle_weights = exhaustive_min_sum(from_edges(n, literal))
            if colour_sum(colouring) != oracle_sum or colouring.weights != oracle_weights:
                mismatches += 1
    report(6, "oracle-equivalence", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_7_property_suites():
    start = time.perf_counter()
    results = run_verify(VerifyConfig())
    elapsed = time.perf_counter() - start
    failures = [res.name for res in results if not res.ok]
    exit_code = main(["verify", "--out", "/dev/null"])
    report(
        7,
        "property-suites",
        not failures and elapsed < 120.0 and exit_code == 0,
        f"{elapsed:.1f}s, failures={failures}",
    )


def test_criterion_8_locator():
    ok = True
    superseded_always_differs = True
    for p in QUADRATIC_GRID:
        k, prime, delta = smallest_with_max_degree(p)
        f1 = evaluate(p, 1)
        if prime != f1 or k != evaluate(p, f1) + 1:
            ok = False
        if sweep_smallest_max_degree(p, delta) != k:
            ok = False
        if evaluate(p, f1) - f1 + 1 == k:  # the superseded printed form
            superseded_always_differs = False
    report(
        8,
        "smallest-max-degree-locator",
        ok and superseded_always_differs,
        "corrected k = f(f(1))+1; superseded form differs on the whole grid",
    )


def test_criterion_9_performance():
    start = time.perf_counter()
    g = build(X2, 100_000)
    build_elapsed = time.perf_counter() - start
    interval_ok = (
        len(g.reaches) == g.n == 100_000 and g.arc_count() > 10**9
    )  # billions of arcs described in O(n) storage
    del g  # a live build would let the stream read its records off it

    best_rate = 0.0
    for _ in range(2):
        stream = root_stream(X2)
        count = 1_000_000
        start = time.perf_counter()
        for _record in stream:
            count -= 1
            if not count:
                break
        elapsed = time.perf_counter() - start
        best_rate = max(best_rate, 1_000_000 / elapsed)
    report(
        9,
        "performance",
        build_elapsed < 1.0 and interval_ok and best_rate >= 1_000_000,
        f"build {build_elapsed:.3f}s, stream {best_rate / 1e6:.2f}M vertices/s",
    )
