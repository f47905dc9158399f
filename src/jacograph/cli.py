"""Command-line front end.

Subcommands:

* ``table1`` regenerates the reference construction table (in-degrees,
  root out-degrees, Jaconian sets, maximum degrees, stepwise distances).
* ``table3`` regenerates the chromatic-sum table (chi-minus/plus, means,
  variances), optionally with the colour-weight vectors.
* ``braided`` analyses a string of braided complete graphs.
* ``verify`` runs the property suites over the coefficient grid.
* ``export`` writes a graph as JSON or DOT.

Computed (corrected) values are printed by default.  The
``--show-paper-errata`` flag appends a column carrying the originally
published value wherever it differs from the computed one, so regenerated
tables document the known misprints instead of hiding them.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Iterable

from . import __version__
from .braided import (
    BraidedString,
    mu_max_two_block_superseded,
    realize,
)
from .builder import DEFAULT_ARC_BUDGET, arcs, build
from .chroma import chroma_report, underlying_graph
from .errors import (
    ArcBudgetExceededError,
    ArithmeticOverflowError,
    InvalidBraidError,
    InvalidOrderError,
    OrderTooLargeError,
    PolynomialParseError,
    SearchBudgetExceededError,
)
from .incidence import parse
from .invariants import construction_table
from .verify import VerifyConfig, available_properties, run as run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_weights(weights: tuple[int, ...]) -> str:
    return ",".join(str(w) for w in weights)


def _write(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Originally published table values, kept verbatim so the errata column can
# be derived mechanically: any cell that differs from the computed value is
# appended under --show-paper-errata.

_PUBLISHED_TABLE1_X2 = {
    1: ("0", "1", "1", "0", "0"),
    2: ("1", "3", "1,2", "1", "1"),
    3: ("1", "8", "2", "2", "2"),
    4: ("2", "14", "2", "3", "2"),
    5: ("3", "22", "2", "4", "2"),
    6: ("3", "33", "2,3,4,5", "4", "3"),
    7: ("4", "45", "3,4,5", "5", "3"),
    8: ("5", "59", "3,4,5", "6", "3"),
    9: ("6", "73", "3,4,5", "7", "3"),
    10: ("7", "93", "3,4,5", "8", "3"),
    11: ("8", "113", "3,4,5", "9", "3"),
    12: ("8", "136", "4,5", "10", "4"),
    13: ("9", "160", "4,5", "11", "4"),
    14: ("10", "186", "4,5", "12", "4"),
    15: ("11", "214", "4,5", "13", "4"),
    16: ("12", "244", "4,5", "14", "4"),
    17: ("13", "276", "4,5", "15", "4"),
    18: ("14", "310", "4,5", "16", "4"),
    19: ("14", "347", "5", "17", "5"),
    20: ("15", "385", "5", "18", "5"),
    21: ("16", "425", "5", "19", "5"),
    22: ("17", "467", "5", "20", "5"),
    23: ("18", "511", "5", "21", "5"),
    24: ("19", "557", "5", "22", "5"),
    25: ("20", "605", "5", "23", "5"),
    26: ("21", "655", "5", "24", "5"),
    27: ("22", "707", "5", "25", "5"),
    28: ("22", "762", "5,6,7,8,9,10,11", "25", "6"),
    29: ("23", "818", "6,7,8,9,10,11", "26", "6"),
    30: ("24", "876", "6,7,8,9,10,11", "27", "6"),
    31: ("25", "939", "6,7,8,9,10,11", "28", "6"),
    32: ("26", "998", "6,7,8,9,10,11", "29", "6"),
    33: ("27", "1062", "6,7,8,9,10,11", "30", "6"),
    34: ("28", "1128", "6,7,8,9,10,11", "31", "6"),
    35: ("29", "1196", "6,7,8,9,10,11", "32", "6"),
}

_TABLE1_COLUMNS = ("in_degree", "out_degree_root", "jaconian_set", "max_degree", "dist_v1")

_PUBLISHED_TABLE3_X2 = {
    1: ("1", "1", "1", "1", "0", "0"),
    2: ("3", "3", "3/2", "3/2", "1/4", "1/4"),
    3: ("4", "5", "4/3", "5/3", "2/9", "2/9"),
    4: ("7", "9", "7/4", "9/4", "11/16", "11/16"),
    5: ("11", "14", "11/5", "14/5", "34/25", "34/25"),
    6: ("13", "17", "13/6", "17/6", "41/36", "41/36"),
    7: ("18", "24", "18/7", "24/7", "96/49", "96/49"),
    8: ("24", "32", "24/8", "32/8", "192/64", "192/64"),
    9: ("31", "41", "31/9", "41/9", "344/81", "344/81"),
    10: ("39", "51", "39/10", "51/10", "469/100", "469/100"),
    11: ("48", "62", "48/11", "62/11", "886/121", "886/121"),
    12: ("49", "71", "49/12", "71/12", "1091/144", "1091/144"),
    13: ("59", "84", "59/13", "84/13", "1602/169", "1602/169"),
    14: ("70", "98", "70/14", "98/14", "2268/196", "2268/196"),
    15: ("82", "113", "82/15", "113/15", "3116/225", "3116/225"),
    16: ("95", "129", "95/16", "129/16", "4175/256", "4175/256"),
    17: ("104", "146", "109/17", "146/17", "5476/289", "5476/289"),
    18: ("119", "164", "124/18", "164/18", "7852/324", "7852/324"),
    19: ("122", "177", "127/19", "177/19", "7716/361", "7716/361"),
    20: ("138", "197", "143/20", "197/20", "9771/20", "9771/20"),
}

_TABLE3_COLUMNS = ("chi_minus", "chi_plus", "mu_minus", "mu_plus", "var_minus", "var_plus")

# the worked two-block example (blocks 7 and 5, overlap 3) publishes a
# maximum-side variance inconsistent with its own weights
_PUBLISHED_BRAIDED = {(7, 5, 3): ("614/81",)}

_BRAIDED_COLUMNS = ("var_plus",)


def _errata_cell(published: tuple[str, ...] | None, columns, computed: tuple[str, ...]) -> str:
    if published is None:
        return "-"
    diffs = []
    for name, pub, got in zip(columns, published, computed):
        if "/" in pub or "/" in got:
            same = Fraction(pub) == Fraction(got)
        else:
            same = pub == got
        if not same:
            diffs.append(f"{name}={pub}")
    return ";".join(diffs) if diffs else "-"


def _is_x_squared(p) -> bool:
    return (p.a, p.b, p.c) == (1, 0, 0)


def cmd_table1(args) -> int:
    p = parse(args.f)
    if args.n < 1:
        raise InvalidOrderError(f"--n must be >= 1, got {args.n}")
    lines = []
    for row in construction_table(p, args.n):
        dist = "-" if row.v1_distance is None else str(row.v1_distance)
        cells = (
            str(row.in_degree),
            str(row.out_degree_root),
            _fmt_weights(row.jaconian_set),
            str(row.max_degree),
            dist,
        )
        fields = [str(row.index), *cells]
        if args.show_paper_errata:
            published = _PUBLISHED_TABLE1_X2.get(row.index) if _is_x_squared(p) else None
            fields.append(_errata_cell(published, _TABLE1_COLUMNS, cells))
        lines.append("\t".join(fields))
    _write(args, lines)
    return EXIT_OK


def cmd_table3(args) -> int:
    p = parse(args.f)
    if args.n < 1:
        raise InvalidOrderError(f"--n must be >= 1, got {args.n}")
    lines = []
    for i in range(1, args.n + 1):
        report = chroma_report(underlying_graph(build(p, i)))
        cells = (
            str(report.chi_minus),
            str(report.chi_plus),
            _fmt_fraction(report.mu_minus),
            _fmt_fraction(report.mu_plus),
            _fmt_fraction(report.var_minus),
            _fmt_fraction(report.var_plus),
        )
        fields = [str(i), *cells]
        if args.weights:
            fields.append(_fmt_weights(report.weights_min))
            fields.append(_fmt_weights(report.weights_max))
        if args.show_paper_errata:
            published = _PUBLISHED_TABLE3_X2.get(i) if _is_x_squared(p) else None
            fields.append(_errata_cell(published, _TABLE3_COLUMNS, cells))
        lines.append("\t".join(fields))
    _write(args, lines)
    return EXIT_OK


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from exc


def cmd_braided(args) -> int:
    orders = _parse_int_list(args.orders)
    overlaps = _parse_int_list(args.overlaps) if args.overlaps is not None else ()
    s = BraidedString(orders, overlaps)
    if any(l == 0 for l in overlaps):
        print(
            "warning: overlap 0 joins blocks disjointly; the result is a disjoint"
            " union rather than a braided string",
            file=sys.stderr,
        )
    graph = realize(s)
    if args.format == "dot":
        isolated = [v for v, mask in enumerate(graph.adjacency, start=1) if not mask]
        _write(args, _dot_lines(isolated, graph.edges(), directed=False))
        return EXIT_OK
    report = chroma_report(graph)
    if report.var_minus != report.var_plus:
        raise AssertionError("variance symmetry broken; this is a bug")
    cells = [
        str(graph.order),
        str(report.chi),
        str(report.chi_minus),
        str(report.chi_plus),
        _fmt_fraction(report.mu_minus),
        _fmt_fraction(report.mu_plus),
        _fmt_fraction(report.var_minus),
    ]
    if args.erratum:
        if len(orders) == 2:
            cells.append(_fmt_fraction(mu_max_two_block_superseded(orders[0], orders[1], overlaps[0])))
        else:
            cells.append("-")
    if args.show_paper_errata:
        key = (max(orders), min(orders), overlaps[0]) if len(orders) == 2 else None
        computed = (_fmt_fraction(report.var_plus),)
        cells.append(_errata_cell(_PUBLISHED_BRAIDED.get(key), _BRAIDED_COLUMNS, computed))
    _write(args, ["\t".join(cells)])
    return EXIT_OK


def cmd_verify(args) -> int:
    polys = tuple(parse(text) for text in args.f) if args.f else None
    cfg = VerifyConfig(
        polynomials=polys,
        n_max=args.n,
        colouring_n_max=args.colouring_n,
    )
    only = tuple(args.prop) if args.prop else None
    try:
        results = run_verify(cfg, only)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    lines = []
    failed = 0
    total_checks = 0
    for res in results:
        status = "ok" if res.ok else "FAIL"
        lines.append(f"{status:<4} {res.name:<28} checks={res.checks}")
        for note in res.notes:
            lines.append(f"note {res.name}: {note}")
        for failure in res.failures:
            lines.append(f"FAIL {res.name}: {failure}")
        failed += 0 if res.ok else 1
        total_checks += res.checks
    if failed:
        lines.append(f"{failed} of {len(results)} properties failed")
    else:
        lines.append(f"all {len(results)} properties passed ({total_checks} checks)")
    _write(args, lines)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _dot_lines(
    isolated: Iterable[int], arc_list: Iterable[tuple[int, int]], directed: bool
) -> list[str]:
    keyword, joiner = ("digraph", "->") if directed else ("graph", "--")
    return [
        f"{keyword} {{",
        *(f"  v{v};" for v in isolated),
        *(f"  v{u} {joiner} v{v};" for u, v in arc_list),
        "}",
    ]


def cmd_export(args) -> int:
    p = parse(args.f)
    if args.n < 1:
        raise InvalidOrderError(f"--n must be >= 1, got {args.n}")
    g = build(p, args.n)
    if args.format == "json":
        obj = {
            "incidence": {"a": p.a, "b": p.b, "c": p.c},
            "n": g.n,
            "vertices": [
                {"i": i, "in_degree": g.in_degrees[i - 1], "reach": g.reaches[i - 1]}
                for i in range(1, g.n + 1)
            ],
        }
        if args.arcs:
            obj["arcs"] = arcs(g, args.arc_budget)
        _write(args, [json.dumps(obj)])
        return EXIT_OK
    arc_list = arcs(g, args.arc_budget)
    # a vertex is isolated when nothing reaches it and it reaches nothing
    isolated = [
        i for i, (d, r) in enumerate(zip(g.in_degrees, g.reaches), start=1)
        if d == 0 and min(r, g.n) == i
    ]
    _write(args, _dot_lines(isolated, arc_list, directed=args.format == "dot-directed"))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="jaco", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="construction table: degrees, Jaconian sets, distances")
    t1.add_argument("--f", required=True, help="incidence polynomial, e.g. x^2 or 2*x^2+3*x+1")
    t1.add_argument("--n", type=int, required=True, help="largest order to tabulate")
    t1.add_argument("--show-paper-errata", action="store_true",
                    help="append originally published values where they differ")
    t1.add_argument("--out", help="output path (default: standard output)")
    t1.set_defaults(func=cmd_table1)

    t3 = sub.add_parser("table3", help="chromatic-sum table: sums, means, variances")
    t3.add_argument("--f", required=True, help="incidence polynomial")
    t3.add_argument("--n", type=int, required=True, help="largest order to tabulate")
    t3.add_argument("--weights", action="store_true",
                    help="also emit the canonical minimum/maximum colour-weight vectors")
    t3.add_argument("--show-paper-errata", action="store_true",
                    help="append originally published values where they differ")
    t3.add_argument("--out", help="output path (default: standard output)")
    t3.set_defaults(func=cmd_table3)

    br = sub.add_parser("braided", help="analyse a string of braided complete graphs")
    br.add_argument("--orders", required=True, help="block sizes, e.g. 7,5")
    br.add_argument("--overlaps", help="consecutive overlap sizes, e.g. 3")
    br.add_argument("--format", choices=("tsv", "dot"), default="tsv")
    br.add_argument("--erratum", action="store_true",
                    help="append the superseded two-block closed-form value")
    br.add_argument("--show-paper-errata", action="store_true",
                    help="append originally published values where they differ")
    br.add_argument("--out", help="output path (default: standard output)")
    br.set_defaults(func=cmd_braided)

    ve = sub.add_parser("verify", help="run the property suites over the coefficient grid")
    ve.add_argument("--f", action="append",
                    help="restrict to this polynomial (repeatable)")
    ve.add_argument("--prop", action="append", metavar="NAME",
                    help=f"run only this property (repeatable); known: {', '.join(available_properties())}")
    ve.add_argument("--n", type=int, default=200, help="structural grid order bound (default 200)")
    ve.add_argument("--colouring-n", type=int, default=12,
                    help="colouring-oracle order bound (default 12)")
    ve.add_argument("--out", help="output path (default: standard output)")
    ve.set_defaults(func=cmd_verify)

    ex = sub.add_parser("export", help="export a graph as JSON or DOT")
    ex.add_argument("--f", required=True, help="incidence polynomial")
    ex.add_argument("--n", type=int, required=True, help="graph order")
    ex.add_argument("--format", choices=("json", "dot-directed", "dot-underlying"),
                    default="json")
    ex.add_argument("--arcs", action="store_true", help="include the arc list in JSON output")
    ex.add_argument("--arc-budget", type=int, default=DEFAULT_ARC_BUDGET,
                    help="largest arc count to materialize")
    ex.add_argument("--out", help="output path (default: standard output)")
    ex.set_defaults(func=cmd_export)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        PolynomialParseError,
        InvalidOrderError,
        InvalidBraidError,
        ArithmeticOverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArcBudgetExceededError, SearchBudgetExceededError, OrderTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
