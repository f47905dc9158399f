"""Operation lists of the three workloads and the code that runs them.

An operation is a tuple ``(kind, *params)``.  ``generate`` turns a seed
into the fixed list one pass runs; ``run`` executes one operation and
times every call it makes into the package; ``fingerprint`` reduces its
output to a small comparable value, so that every timed output can be
matched against the one output per operation that ``checks`` verifies
in full.

The package is reached only through module attributes looked up at call
time (``jg.build``, ``cli.main``), so the tracer can swap in wrappers.
"""

from __future__ import annotations

import contextlib
import io
import random
from itertools import islice
from time import perf_counter

import jacograph as jg
from jacograph import cli

WORKLOADS = ("structure", "chroma", "cli")


def poly_text(a: int, b: int, c: int) -> str:
    terms = []
    if a:
        terms.append("x^2" if a == 1 else f"{a}*x^2")
    if b:
        terms.append("x" if b == 1 else f"{b}*x")
    if c or not terms:
        terms.append(str(c))
    return "+".join(terms)


QUADRATIC = tuple(poly_text(a, b, c) for a in (1, 2, 3) for b in (0, 1, 2) for c in (0, 1, 2))
LINEAR = ("x", "2*x+1", "x+2")
CONSTANT = ("1", "2", "3")
FAMILIES = {"Q": QUADRATIC, "L": LINEAR, "C": CONSTANT}


def _strata(rng: random.Random, lo: float, hi: float, count: int, power: float) -> list[int]:
    """``count`` orders from ``lo`` to ``hi``: stratum k sits at
    lo * (hi/lo) ** ((k/(count-1)) ** power), each but the last moved by
    at most 2% at random.  Fixed strata keep the cost of a pass nearly
    the same for every seed; the fixed largest order fixes peak memory."""
    out = []
    for k in range(count):
        n = lo * (hi / lo) ** ((k / (count - 1)) ** power)
        if k < count - 1:
            n *= 1 + rng.uniform(-0.02, 0.02)
        out.append(round(n))
    return out


# --- structure ---------------------------------------------------------------

# family of each order stratum, repeated: 8 quadratic, 1 linear, 1 constant
_STRUCTURE_PATTERN = "QQQLQQQCQQ"
# queries on one graph, after the build; hope and smallest need a >= 1
STRUCTURE_QUERIES = ("jaconian", "components", "stream", "hope", "smallest")


def _structure_ops(rng: random.Random, tiny: bool) -> list[tuple]:
    """Graphs in a seeded order; each is built, then queried.  The queries
    of a graph follow its build, which they use."""
    count = 10 if tiny else 25
    orders = _strata(rng, 200 if tiny else 10_000, 2_000 if tiny else 300_000, count, 3.0)
    graphs = [(rng.choice(FAMILIES[_STRUCTURE_PATTERN[k % 10]]), n)
              for k, n in enumerate(orders)]
    rng.shuffle(graphs)
    ops = []
    for text, n in graphs:
        ops.append(("build", text, n))
        for query in STRUCTURE_QUERIES:
            if text in QUADRATIC or query not in ("hope", "smallest"):
                ops.append((query, text, n))
    return ops


class State:
    """The graph the last ``build`` operation made, for the queries on it."""

    def __init__(self):
        self.key = None
        self.poly = None
        self.graph = None


def _run_build(state: State, text: str, n: int):
    state.key = state.graph = None
    t0 = perf_counter()
    p = jg.parse(text)
    g = jg.build(p, n)
    elapsed = perf_counter() - t0
    state.key, state.poly, state.graph = (text, n), p, g
    return elapsed, g


def _query(fn):
    def run(state: State, text: str, n: int):
        if state.key != (text, n):
            raise RuntimeError(f"query on {text} at {n} without its build")
        t0 = perf_counter()
        out = fn(state.poly, state.graph)
        return perf_counter() - t0, out

    return run


_STRUCTURE_RUNNERS = {
    "build": _run_build,
    "jaconian": _query(lambda p, g: jg.jaconian(g)),
    "components": _query(lambda p, g: jg.component_decomposition(g)),
    "stream": _query(lambda p, g: tuple(islice(jg.root_stream(p), g.n))),
    "hope": _query(lambda p, g: jg.hope_subgraph(g)),
    "smallest": _query(lambda p, g: jg.smallest_with_max_degree(p)),
}


def _fingerprint_structure(kind: str, out):
    if kind == "build":
        return out.n, hash(out.in_degrees), hash(out.reaches)
    if kind == "jaconian":
        return (out.max_degree, out.min_degree, hash(out.jaconian_set), out.prime_jaconian,
                out.hope_range, out.v1_distance)
    if kind == "components":
        # hash() of a one-element range depends on the address of None
        return len(out), hash(tuple((r.start, r.stop) for r in out))
    if kind == "stream":
        return len(out), hash(tuple(out))
    return out  # a range or a triple


# --- chroma ------------------------------------------------------------------

# Largest order per polynomial at which the exact min-sum search of
# chroma_report still takes well under a second (about 0.3 s on a 2-core
# x86 machine); the search time grows by factors of 2 to 20 per two extra
# vertices, so these are fixed, not drawn from the seed.
_REPORT_CAP = {
    "x^2": 22, "x^2+1": 22, "x^2+2": 22, "x^2+x": 24, "x^2+x+1": 26,
    "x^2+x+2": 26, "x^2+2*x": 26, "x^2+2*x+1": 28, "x^2+2*x+2": 28,
    "x": 16, "2*x+1": 16, "x+2": 16, "1": 26, "2": 18, "3": 16,
}
_REPORT_LADDER = (8, 11, 14, 17, 20, 23, 26)

# exact reports on braided strings: two-block (closed forms), longer
# strings and single cliques
_BRAIDS = (
    ((7, 5), (3,)), ((9, 9), (4,)), ((10, 8), (4,)), ((12, 9), (5,)),
    ((13, 11), (6,)), ((14, 12), (7,)), ((11, 6), (2,)),
    ((5, 5, 5), (2, 2)), ((6, 6, 6), (3, 3)), ((7, 6, 5), (3, 2)),
    ((4, 4, 4, 4), (1, 1, 1)), ((5, 4, 5, 4), (2, 2, 2)),
    ((10,), ()), ((20,), ()), ((40,), ()),
)

# chromatic number and edge count at large orders: (family, order)
_LARGE_SLOTS = (("Q", 500), ("Q", 800), ("Q", 1100), ("L", 1400), ("L", 1700),
                ("L", 2000), ("C", 2000))


def _report_orders(text: str) -> list[int]:
    cap = _REPORT_CAP.get(text, 26)
    return sorted({n for n in _REPORT_LADDER if n < cap} | {cap})


def _chroma_ops(rng: random.Random, tiny: bool) -> list[tuple]:
    ops: list[tuple] = []
    for text in QUADRATIC + LINEAR + CONSTANT:
        orders = _report_orders(text)
        ops.extend(("report", text, n) for n in (orders[:2] if tiny else orders))
    ops.extend(("braid_report", o, l) for o, l in (_BRAIDS[:3] if tiny else _BRAIDS))
    scale = 0.2 if tiny else 1.0
    for family, n in _LARGE_SLOTS:
        n = round(n * scale * (1 + rng.uniform(-0.02, 0.02)))
        ops.append(("colour_large", rng.choice(FAMILIES[family]), n))
    for base in ((300, 200), (250, 300, 200), (120,) * 6):
        orders = tuple(round(b * scale * (1 + rng.uniform(-0.05, 0.05))) for b in base)
        overlaps = tuple(min(x, y) // 3 for x, y in zip(orders, orders[1:]))
        ops.append(("braid_large", orders, overlaps))
    return ops


def _run_report(state, text: str, n: int):
    t0 = perf_counter()
    graph = jg.underlying_graph(jg.build(jg.parse(text), n))
    report = jg.chroma_report(graph)
    return perf_counter() - t0, report


def _run_braid_report(state, orders, overlaps):
    t0 = perf_counter()
    report = jg.chroma_report(jg.realize(jg.BraidedString(orders, overlaps)))
    return perf_counter() - t0, report


def _run_colour_large(state, text: str, n: int):
    t0 = perf_counter()
    graph = jg.underlying_graph(jg.build(jg.parse(text), n))
    out = (graph.order, jg.chromatic_number(graph), graph.edge_count())
    return perf_counter() - t0, out


def _run_braid_large(state, orders, overlaps):
    t0 = perf_counter()
    graph = jg.realize(jg.BraidedString(orders, overlaps))
    out = (graph.order, jg.chromatic_number(graph), graph.edge_count())
    return perf_counter() - t0, out


# --- cli ---------------------------------------------------------------------

_TABLE3 = (
    ("x^2", 18, ("--weights", "--show-paper-errata")), ("x^2+x+1", 18, ("--weights",)),
    ("2*x^2", 18, ()), ("3*x^2+2*x+2", 18, ("--weights",)), ("x", 15, ()),
    ("2", 15, ("--weights",)), ("1", 18, ()),
)
_CLI_BRAIDS = (
    ("7,5", "3", ("--erratum", "--show-paper-errata")), ("10,8", "4", ()),
    ("12,9", "5", ("--erratum",)), ("9,9", "4", ()), ("6,6,6", "2,2", ()),
    ("14,10", "6", ()), ("8,6", "3", ()), ("9,7", "2", ("--erratum",)), ("10,10", "5", ()),
    ("11,9", "4", ()), ("8,8", "1", ()), ("12,7", "3", ()), ("5,5,5", "2,2", ()),
)


def _cli_ops(rng: random.Random, tiny: bool) -> list[tuple]:
    """Five large requests (table1 to n = 1000, exports of megabytes), 20
    exports of about 40 ms around the 90th percentile, mid-sized tables
    and braids, and many small requests.  Orders sit on fixed strata, so
    the seed changes which polynomial gets which order, not the cost of a
    pass."""
    scale = 0.1 if tiny else 1.0

    def orders(lo: int, hi: int, count: int) -> list[str]:
        return [str(round(scale * (lo + (hi - lo) * (k + rng.uniform(0.4, 0.6)) / count)))
                for k in range(count)]

    def table1(text, n, *flags):
        return ("cli", ("table1", "--f", text, "--n", n, *flags))

    def export(text, n, fmt):
        return ("cli", ("export", "--f", text, "--n", n, "--format", fmt)
                + (("--arcs",) if fmt == "json" else ()))

    ops = [table1("x^2", "35", "--show-paper-errata"), table1("x^2", str(round(1000 * scale))),
           table1(rng.choice(QUADRATIC), str(round(700 * scale))),
           export("x^2", str(round(800 * scale)), "json"),
           export(rng.choice(QUADRATIC), str(round(700 * scale)), "json"),
           export("x^2", str(round(1000 * scale)), "dot-directed")]
    for family, n in (("L", 500), ("C", 300)):
        ops.append(table1(rng.choice(FAMILIES[family]), str(round(n * scale))))
    # json costs about 1.4 times dot at the same order
    for fmt, lo, hi in (("json", 360, 400), ("dot-directed", 420, 470)):
        for text, n in zip(rng.sample(QUADRATIC, 10), orders(lo, hi, 10)):
            ops.append(export(text, n, fmt))
    polys = list(QUADRATIC + LINEAR + CONSTANT)
    for text, n in zip(rng.sample(polys, len(polys)), orders(40, 160, len(polys))):
        ops.append(table1(text, n))
    for k, (text, n) in enumerate(zip(rng.sample(QUADRATIC, 27), orders(30, 120, 27))):
        ops.append(export(text, n, ("json", "dot-directed")[k % 2]))
    for text, n, flags in _TABLE3:
        ops.append(("cli", ("table3", "--f", text, "--n", str(min(n, 8) if tiny else n), *flags)))
    for text in QUADRATIC[:9] + LINEAR + CONSTANT:
        ops.append(("cli", ("table3", "--f", text, "--n", "10")))
    for orders_, overlaps, flags in _CLI_BRAIDS:
        ops.append(("cli", ("braided", "--orders", orders_, "--overlaps", overlaps, *flags)))
    return ops


def _run_cli(state, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        code = cli.main(list(argv))
        elapsed = perf_counter() - t0
    return elapsed, (code, buf.getvalue())


# --- dispatch ----------------------------------------------------------------

_GENERATORS = {"structure": _structure_ops, "chroma": _chroma_ops, "cli": _cli_ops}

_RUNNERS = {
    **_STRUCTURE_RUNNERS,
    "report": _run_report,
    "braid_report": _run_braid_report,
    "colour_large": _run_colour_large,
    "braid_large": _run_braid_large,
    "cli": _run_cli,
}

# warm-up operations, run once before timing: every kind and code path of
# the workload, at small sizes, independent of the seed
_WARMUP = {
    "structure": [(kind, t, 20_000) for t in ("x^2", "x^2+x+1", "2*x+1", "2")
                  for kind in ("build",) + STRUCTURE_QUERIES
                  if t in QUADRATIC or kind not in ("hope", "smallest")],
    "chroma": [("report", "x^2", 18), ("report", "3", 12), ("braid_report", (7, 5), (3,)),
               ("braid_report", (5, 5, 5), (2, 2)), ("colour_large", "x^2", 600),
               ("braid_large", (300, 200), (66,))],
    "cli": [("cli", ("table1", "--f", "x^2", "--n", "400", "--show-paper-errata")),
            ("cli", ("table3", "--f", "x^2", "--n", "16", "--weights", "--show-paper-errata")),
            ("cli", ("braided", "--orders", "7,5", "--overlaps", "3", "--erratum")),
            ("cli", ("export", "--f", "x^2", "--n", "400", "--format", "json", "--arcs")),
            ("cli", ("export", "--f", "x^2", "--n", "400", "--format", "dot-directed"))],
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[tuple]:
    """The fixed operation list of one pass."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng, tiny)
    if workload != "structure":  # structure orders its graphs itself
        rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[tuple]:
    return _WARMUP[workload]


def run(op: tuple, state: State):
    """Run one operation; return (seconds spent in package calls, output)."""
    return _RUNNERS[op[0]](state, *op[1:])


def fingerprint(op: tuple, out) -> str:
    """A short text that two equal outputs share, comparable across
    processes when they run with the same ``PYTHONHASHSEED``."""
    if op[0] in _STRUCTURE_RUNNERS:
        return repr(_fingerprint_structure(op[0], out))
    if op[0] == "cli":
        code, text = out
        return repr((code, len(text), hash(text)))
    return repr(out)  # reports and (order, chi, edges) are small


def repeat_share(ops: list[tuple]) -> float:
    """Share of structure graphs whose polynomial appeared earlier in the
    list (at another order): work a per-polynomial cache could share."""
    seen = set()
    repeats = builds = 0
    for op in ops:
        if op[0] == "build":
            builds += 1
            repeats += op[1] in seen
            seen.add(op[1])
    return repeats / builds if builds else 0.0
