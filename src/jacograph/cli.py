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

Output goes to standard output, or to ``--out``.  An ``--out`` whose
directory is missing, or that names a directory, is refused before any
work.  ``export`` writes it one vertex at a time straight from the reaches:
each JSON vertex record, like each vertex's arcs and DOT lines, is written
as it is made, and arcs only after the arc budget is checked, so neither
the records nor the arcs are ever held in memory all at once.  Every
command writes each line as it is made; ``table3`` reads its rows off one
build.

Exit codes: 0 success, 1 usage or input error, or output that cannot be
written, 2 verification failure, 3 budget exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import __version__
from .braided import (
    BraidedString,
    mu_max_two_block_superseded,
    realize,
)
from .builder import DEFAULT_ARC_BUDGET, JacoGraph, build, check_arc_budget
from .chroma import _closed_forms, _prefix_reports, chroma_report, underlying_graph
from .errors import (
    ArcBudgetExceededError,
    InvalidOrderError,
    JacoError,
    OrderTooLargeError,
    SearchBudgetExceededError,
)
from .incidence import parse
from .invariants import construction_table
from .verify import X_SQUARED, VerifyConfig, available_properties, run as run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse drops a "--" given as an option's value (--f=--) and
        # leaves an empty list in its place
        for name, value in vars(parsed).items():
            if isinstance(value, list) and (not value or [] in value):
                self.error(f"argument --{name.replace('_', '-')}: '--' is not a value")
        return parsed


def _fmt_weights(weights: Iterable[int]) -> str:
    return ",".join(map(str, weights))


def _write(args, pieces: Iterable[str]) -> None:
    """Write text pieces to ``--out`` or standard output as they are made."""
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and not args.out:
            # what the closed pipe refused stays buffered; send it nowhere,
            # or the interpreter's final flush fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _UsageError(f"cannot write the output: {exc}") from exc


def _check_out(path: str) -> None:
    """Refuse, before any work, an ``--out`` whose directory is missing or
    that names a directory, with the error that opening it would give.
    Nothing is created, so a later budget error leaves the path as it was."""
    parent = os.path.dirname(path.rstrip(os.sep)) or "."
    try:
        if not os.path.isdir(parent):
            os.stat(parent)  # raises for a missing parent
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        refused = OSError(exc.errno, exc.strerror, path)
        raise _UsageError(f"cannot write the output: {refused}") from exc


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


def cmd_table1(args) -> int:
    p = parse(args.f)
    if args.n < 1:
        raise InvalidOrderError(f"--n must be >= 1, got {args.n}")
    rows = construction_table(p, args.n)
    first = next(rows)  # builds the graph, which refuses an order past 64 bits
    names = list(map(str, range(args.n + 1)))

    def lines() -> Iterator[str]:
        for k, in_degree, out_degree_root, jaconian_set, max_degree, dist in chain((first,), rows):
            cells = (
                str(in_degree),
                str(out_degree_root),
                # one contiguous run, written by slicing the names
                ",".join(names[jaconian_set[0]:jaconian_set[-1] + 1]),
                str(max_degree),
                "-" if dist is None else str(dist),
            )
            fields = [names[k], *cells]
            if args.show_paper_errata:
                published = _PUBLISHED_TABLE1_X2.get(k) if p == X_SQUARED else None
                fields.append(_errata_cell(published, _TABLE1_COLUMNS, cells))
            yield "\t".join(fields) + "\n"

    _write(args, lines())
    return EXIT_OK


def cmd_table3(args) -> int:
    p = parse(args.f)
    if args.n < 1:
        raise InvalidOrderError(f"--n must be >= 1, got {args.n}")

    def lines(rows: Iterator[tuple[int, list[int], int, int]]) -> Iterator[str]:
        for i, weights, s1, s2 in rows:
            chi_plus, mu_minus, mu_plus, var = map(str, _closed_forms(i, len(weights), s1, s2))
            cells = (str(s1), chi_plus, mu_minus, mu_plus, var, var)
            fields = [str(i), *cells]
            if args.weights:  # the only columns that cost O(chi) a row
                fields.append(_fmt_weights(weights))
                fields.append(_fmt_weights(reversed(weights)))
            if args.show_paper_errata:
                published = _PUBLISHED_TABLE3_X2.get(i) if p == X_SQUARED else None
                fields.append(_errata_cell(published, _TABLE3_COLUMNS, cells))
            yield "\t".join(fields) + "\n"

    # built before the output is opened, which refuses an order past 64 bits
    _write(args, lines(_prefix_reports(underlying_graph(build(p, args.n)))))
    return EXIT_OK


def _int(text: str) -> int:
    """``int(text)``, but an integer of more digits than ``int()`` converts is
    refused by its digit count instead of echoed back."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # malformed, not too long
            raise
        digits = sum(ch.isdecimal() for ch in text)
        raise argparse.ArgumentTypeError(f"integer too long: {digits} digits") from None


_int.__name__ = "int"  # argparse names the type in "invalid int value"


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(_int(part) for part in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(str(exc)) from None
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
        _write(args, _dot(graph.interval_caps, directed=False))
        return EXIT_OK
    report = chroma_report(graph)
    cells = [
        str(graph.order),
        str(report.chi),
        str(report.chi_minus),
        str(report.chi_plus),
        str(report.mu_minus),
        str(report.mu_plus),
        str(report.var_minus),
    ]
    if args.erratum:
        if len(orders) == 2:
            cells.append(str(mu_max_two_block_superseded(orders[0], orders[1], overlaps[0])))
        else:
            cells.append("-")
    if args.show_paper_errata:
        key = (max(orders), min(orders), overlaps[0]) if len(orders) == 2 else None
        computed = (str(report.var_plus),)
        cells.append(_errata_cell(_PUBLISHED_BRAIDED.get(key), _BRAIDED_COLUMNS, computed))
    _write(args, ("\t".join(cells), "\n"))
    return EXIT_OK


def cmd_verify(args) -> int:
    for option, order in (("--colouring-n", args.colouring_n), ("--n", args.n)):
        if order < 1:
            raise InvalidOrderError(f"{option} must be >= 1, got {order}")
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
    failed = sum(not res.ok for res in results)

    def lines() -> Iterator[str]:
        for res in results:
            status = "ok" if res.ok else "FAIL"
            yield f"{status:<4} {res.name:<28} checks={res.checks}\n"
            for note in res.notes:
                yield f"note {res.name}: {note}\n"
            for failure in res.failures:
                yield f"FAIL {res.name}: {failure}\n"
        if failed:
            yield f"{failed} of {len(results)} properties failed\n"
        else:
            total_checks = sum(res.checks for res in results)
            yield f"all {len(results)} properties passed ({total_checks} checks)\n"

    _write(args, lines())
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _dot(caps: Sequence[int], directed: bool) -> Iterator[str]:
    """DOT text of the graph with arcs u -> v for u < v <= caps[u - 1], the
    caps non-decreasing: the isolated vertices, then one piece per vertex
    holding all of its arcs."""
    keyword, joiner = ("digraph", "->") if directed else ("graph", "--")
    names = [f"v{j};\n" for j in range(len(caps) + 1)]
    yield f"{keyword} {{\n"
    prev = 0
    for u, cap in enumerate(caps, start=1):
        if cap == u and prev < u:  # u reaches no one, and no earlier vertex reaches u
            yield "  " + names[u]
        prev = cap
    for u, cap in enumerate(caps, start=1):
        if cap > u:
            head = f"  v{u} {joiner} "
            yield head + head.join(names[u + 1:cap + 1])
    yield "}\n"


def _json(g: JacoGraph, caps: Sequence[int] | None) -> Iterator[str]:
    """The JSON document of ``g``, laid out as ``json.dumps`` lays it out:
    one piece per vertex record, then, given ``caps``, the ``arcs`` array of
    [u, v] for u < v <= caps[u - 1], one piece per vertex."""
    p = g.incidence
    yield f'{{"incidence": {{"a": {p.a}, "b": {p.b}, "c": {p.c}}}, "n": {g.n}, "vertices": ['
    sep = ""
    for i, (d, r) in enumerate(zip(g.in_degrees, g.reaches), start=1):
        yield f'{sep}{{"i": {i}, "in_degree": {d}, "reach": {r}}}'
        sep = ", "
    if caps is not None:
        yield '], "arcs": ['
        names = [str(j) for j in range(len(caps) + 1)]
        sep = ""
        for u, cap in enumerate(caps, start=1):
            if cap > u:
                head = f"], [{u}, "
                yield f"{sep}[{u}, {head.join(names[u + 1:cap + 1])}]"
                sep = ", "
    yield "]}\n"


def cmd_export(args) -> int:
    p = parse(args.f)
    if args.n < 1:
        raise InvalidOrderError(f"--n must be >= 1, got {args.n}")
    if args.arc_budget < 0:
        raise _UsageError(f"--arc-budget must be >= 0, got {args.arc_budget}")
    g = build(p, args.n)
    caps = None
    if args.format != "json" or args.arcs:
        check_arc_budget(g, args.arc_budget)
        caps = underlying_graph(g).interval_caps
    directed = args.format == "dot-directed"
    _write(args, _json(g, caps) if args.format == "json" else _dot(caps, directed))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="jaco", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="construction table: degrees, Jaconian sets, distances")
    t1.add_argument("--f", required=True, help="incidence polynomial, e.g. x^2 or 2*x^2+3*x+1")
    t1.add_argument("--n", type=_int, required=True, help="largest order to tabulate")
    t1.add_argument("--show-paper-errata", action="store_true",
                    help="append originally published values where they differ")
    t1.add_argument("--out", help="output path (default: standard output)")
    t1.set_defaults(func=cmd_table1)

    t3 = sub.add_parser("table3", help="chromatic-sum table: sums, means, variances")
    t3.add_argument("--f", required=True, help="incidence polynomial")
    t3.add_argument("--n", type=_int, required=True, help="largest order to tabulate")
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
    ve.add_argument("--n", type=_int, default=200, help="structural grid order bound (default 200)")
    ve.add_argument("--colouring-n", type=_int, default=12,
                    help="colouring-oracle order bound (default 12)")
    ve.add_argument("--out", help="output path (default: standard output)")
    ve.set_defaults(func=cmd_verify)

    ex = sub.add_parser("export", help="export a graph as JSON or DOT")
    ex.add_argument("--f", required=True, help="incidence polynomial")
    ex.add_argument("--n", type=_int, required=True, help="graph order")
    ex.add_argument("--format", choices=("json", "dot-directed", "dot-underlying"),
                    default="json")
    ex.add_argument("--arcs", action="store_true", help="include the arc list in JSON output")
    ex.add_argument("--arc-budget", type=_int, default=DEFAULT_ARC_BUDGET,
                    help="largest arc count to materialize")
    ex.add_argument("--out", help="output path (default: standard output)")
    ex.set_defaults(func=cmd_export)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (ArcBudgetExceededError, SearchBudgetExceededError, OrderTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_UsageError, JacoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return EXIT_BUDGET


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
