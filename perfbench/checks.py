"""Output checks, made apart from the package.

Reaches and in-degrees are recomputed here by counting, for each v_j, the
earlier vertices whose reach covers j (a heap of live reaches), and every
invariant is derived from those with NumPy.  Minimum chromatic sums come
from a 0/1 integer program solved by ``scipy.optimize.milp``, or from the
closed forms for cliques and two-block braids.  Nothing is compared with
stored program output.

``check(op, out, ref)`` raises :class:`CheckError` when ``out`` is wrong.
"""

from __future__ import annotations

import heapq
import json
import re
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def coefficients(text: str) -> tuple[int, int, int]:
    """(a, b, c) of the benchmark's own polynomial texts such as 2*x^2+x+1."""
    coeffs = {"a": 0, "b": 0, "c": 0}
    for term in text.split("+"):
        m = re.fullmatch(r"(?:(\d+)\*)?x(\^2)?|(\d+)", term)
        if m.group(3) is not None:
            coeffs["c"] = int(m.group(3))
        else:
            coeffs["a" if m.group(2) else "b"] = int(m.group(1) or 1)
    return coeffs["a"], coeffs["b"], coeffs["c"]


class Reference:
    """Root-graph in-degrees and reaches per polynomial, grown on demand,
    plus a cache of exact minimum chromatic sums."""

    def __init__(self):
        self._state: dict[str, tuple[list[int], list[int], list[int]]] = {}
        self._arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._min_sums: dict[tuple, int] = {}

    def root(self, text: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        """In-degrees and reaches of v_1..v_n, as int64 arrays."""
        if text not in self._state:
            self._state[text] = ([], [], [])
        indeg, reach, live = self._state[text]  # live: earlier reaches, smallest first
        if len(indeg) < n:
            a, b, c = coefficients(text)
            for j in range(len(indeg) + 1, n + 1):
                while live and live[0] < j:
                    heapq.heappop(live)
                d = len(live)
                r = j + a * j * j + b * j + c - d
                indeg.append(d)
                reach.append(r)
                if r > j:
                    heapq.heappush(live, r)
            self._arrays[text] = (np.array(indeg, dtype=np.int64),
                                  np.array(reach, dtype=np.int64))
        arrays = self._arrays[text]
        return arrays[0][:n], arrays[1][:n]

    def caps(self, text: str, n: int) -> np.ndarray:
        """Last neighbour index of each vertex of the order-n graph."""
        return np.minimum(self.root(text, n)[1], n)

    def jaco_min_sum(self, text: str, n: int) -> int:
        key = (text, n)
        if key not in self._min_sums:
            caps = self.caps(text, n)
            if caps.min() == n:  # complete graph
                self._min_sums[key] = n * (n + 1) // 2
            else:
                self._min_sums[key] = milp_min_sum(n, point_cliques(caps))
        return self._min_sums[key]


def coverage(caps: np.ndarray) -> np.ndarray:
    """Number of ranges [i, caps[i-1]] covering each point 1..n."""
    n = len(caps)
    diff = np.zeros(n + 2, dtype=np.int64)
    np.add.at(diff, np.arange(1, n + 1), 1)
    np.add.at(diff, caps + 1, -1)
    return np.cumsum(diff)[1 : n + 1]


def point_cliques(caps: np.ndarray) -> list[list[int]]:
    """The vertex sets covering each point of an interval graph, 0-based,
    consecutive repeats dropped: cliques that together cover every edge."""
    out: list[list[int]] = []
    for j in range(1, len(caps) + 1):
        members = [i for i in range(j) if caps[i] >= j]
        if not out or members != out[-1]:
            out.append(members)
    return out


def milp_min_sum(n: int, cliques: list[list[int]]) -> int:
    """Minimum of sum(colour(v)) over proper colourings with max-clique
    many colours: x[v, c] = 1 when v takes colour c+1, one colour per
    vertex, at most one vertex of each clique per colour."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    k = max(len(q) for q in cliques)
    rows, cols = [], []
    for v in range(n):
        rows.extend([v] * k)
        cols.extend(range(v * k, v * k + k))
    r = n
    for q in cliques:
        for c in range(k):
            rows.extend([r] * len(q))
            cols.extend(v * k + c for v in q)
            r += 1
    matrix = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(r, n * k)).tocsr()
    lower = np.concatenate([np.ones(n), np.zeros(r - n)])
    cost = np.tile(np.arange(1, k + 1, dtype=float), n)
    res = milp(cost, constraints=LinearConstraint(matrix, lower, np.ones(r)),
               integrality=np.ones(n * k), bounds=Bounds(0, 1))
    expect(res.success, f"reference integer program failed: {res.message}")
    return int(round(res.fun))


# --- structure ---------------------------------------------------------------

def check_structure(op, out, ref: Reference) -> None:
    kind, text, n = op
    a, b, c = coefficients(text)
    indeg, reach = ref.root(text, n)
    index = np.arange(1, n + 1)
    degrees = indeg + np.minimum(reach, n) - index
    top = int(degrees.max())
    jac = tuple((np.flatnonzero(degrees == top) + 1).tolist())
    prime = jac[0]
    connected = a >= 1 or b >= 1 or n <= c + 1
    if kind == "build":
        expect(out.n == n, "order")
        expect(list(out.in_degrees) == indeg.tolist(), "in-degrees differ from the recount")
        expect(list(out.reaches) == reach.tolist(), "reaches differ from the recount")
    elif kind == "jaconian":
        expect(out.max_degree == top, "max degree")
        expect(out.min_degree == int(degrees.min()), "min degree")
        expect(out.jaconian_set == jac, "Jaconian set is not the set of max-degree vertices")
        expect(out.prime_jaconian == prime, "prime Jaconian vertex")
        expect(out.hope_range == range(prime + 1, n + 1), "Hope range")
        dist = (0 if n == 1 else n - int(indeg[n - 1])) if connected else None
        expect(out.v1_distance == dist, "v1 distance is not n - indeg(n)")
    elif kind == "components":
        if connected:
            expect(out == [range(1, n + 1)], "one component expected")
        else:
            blocks = [range(s, min(s + c + 1, n + 1)) for s in range(1, n + 1, c + 1)]
            expect(out == blocks, f"constant incidence: blocks of {c + 1} expected")
    elif kind == "stream":
        expect(out == tuple(zip(index.tolist(), indeg.tolist(), reach.tolist())),
               "root_stream prefix differs from the built records")
    elif kind == "hope":
        expect(bool(np.all(reach[prime : n - 1] >= n)), "a vertex above the prime misses v_n")
        expect(out == range(prime + 1, n + 1), "Hope subgraph")
    else:
        f1 = a + b + c
        ff1 = a * f1 * f1 + b * f1 + c
        expect(out == (ff1 + 1, f1, ff1), "smallest_with_max_degree")


# --- chroma ------------------------------------------------------------------

def check_weights_and_sums(n: int, chi: int, chi_minus: int, chi_plus: int,
                           mu_minus, mu_plus, var_minus, var_plus,
                           weights_min=None, weights_max=None) -> None:
    expect(chi_minus + chi_plus == (chi + 1) * n, "chi_minus + chi_plus != (chi+1)n")
    expect(mu_minus == Fraction(chi_minus, n), "mu_minus")
    expect(mu_plus == Fraction(chi_plus, n), "mu_plus")
    expect(var_minus == var_plus, "var_minus != var_plus")
    if weights_min is not None:
        w = list(weights_min)
        expect(len(w) == chi, "weight vector length is not chi")
        expect(sum(w) == n, "weights do not sum to n")
        expect(all(x >= y for x, y in zip(w, w[1:])), "weights increase")
        expect(sum(i * x for i, x in enumerate(w, 1)) == chi_minus, "chi_minus != sum i*w_i")
        second = Fraction(sum(i * i * x for i, x in enumerate(w, 1)), n)
        expect(var_minus == second - mu_minus * mu_minus, "variance from weights")
        if weights_max is not None:
            expect(list(weights_max) == w[::-1], "max-side weights are not reversed")


def _check_report(report, n: int, chi: int, optimum: int) -> None:
    expect(report.chi == chi, f"chi {report.chi} != {chi}")
    expect(report.chi_minus == optimum, f"chi_minus {report.chi_minus} != optimum {optimum}")
    check_weights_and_sums(n, chi, report.chi_minus, report.chi_plus, report.mu_minus,
                           report.mu_plus, report.var_minus, report.var_plus,
                           report.weights_min, report.weights_max)


def braid_facts(orders, overlaps) -> tuple[int, int, int]:
    """(vertex count, chi, edge count) of a braided string."""
    order = sum(orders) - sum(overlaps)
    edges = sum(x * (x - 1) // 2 for x in orders) - sum(l * (l - 1) // 2 for l in overlaps)
    return order, max(orders), edges


def two_block_min_sum(n: int, m: int, l: int) -> tuple[int, tuple[int, ...]]:
    """Minimum sum and weights of K_n braided with K_m on K_l: the m - l
    vertices outside the overlap pair up with colours 1..m-l."""
    n, m = max(n, m), min(n, m)
    weights = (2,) * (m - l) + (1,) * (n - m + l)
    return sum(i * w for i, w in enumerate(weights, 1)), weights


def braid_min_sum(orders, overlaps) -> int:
    if len(orders) == 1:
        return orders[0] * (orders[0] + 1) // 2
    if len(orders) == 2:
        return two_block_min_sum(orders[0], orders[1], overlaps[0])[0]
    starts = [0]
    for x, l in zip(orders, overlaps):
        starts.append(starts[-1] + x - l)
    blocks = [list(range(s, s + x)) for s, x in zip(starts, orders)]
    return milp_min_sum(starts[-1] + orders[-1], blocks)


def check_chroma(op, out, ref: Reference) -> None:
    kind = op[0]
    if kind == "report":
        _, text, n = op
        chi = int(coverage(ref.caps(text, n)).max())
        _check_report(out, n, chi, ref.jaco_min_sum(text, n))
    elif kind == "braid_report":
        order, chi, _ = braid_facts(*op[1:])
        _check_report(out, order, chi, braid_min_sum(*op[1:]))
    elif kind == "colour_large":
        _, text, n = op
        caps = ref.caps(text, n)
        edges = int((caps - np.arange(1, n + 1)).sum())
        expect(out == (n, int(coverage(caps).max()), edges), "order, chi or edge count")
    else:
        expect(out == braid_facts(*op[1:]), "order, chi or edge count of the braid")


# --- cli ---------------------------------------------------------------------

def _flag(argv, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _rows(text: str) -> list[list[str]]:
    expect(text.endswith("\n"), "output must end with a newline")
    return [line.split("\t") for line in text[:-1].split("\n")]


def _errata_cell(cell: str) -> None:
    expect(cell == "-" or all("=" in part for part in cell.split(";")), "errata cell")


def _check_table1(argv, text: str, ref: Reference) -> None:
    f, n = _flag(argv, "--f"), int(_flag(argv, "--n"))
    a, b, c = coefficients(f)
    indeg, reach = ref.root(f, n)
    rows = _rows(text)
    expect(len(rows) == n, "one row per order")
    errata = "--show-paper-errata" in argv
    for i, row in enumerate(rows, 1):
        expect(len(row) == 6 + errata, f"row {i}: column count")
        degrees = indeg[:i] + np.minimum(reach[:i], i) - np.arange(1, i + 1)
        top = int(degrees.max())
        jac = ",".join(str(v) for v in (np.flatnonzero(degrees == top) + 1).tolist())
        if a >= 1 or b >= 1 or i <= c + 1:
            dist = "0" if i == 1 else str(i - int(indeg[i - 1]))
        else:
            dist = "-"
        want = [str(i), str(int(indeg[i - 1])), str(int(reach[i - 1]) - i), jac, str(top), dist]
        expect(row[:6] == want, f"table1 row {i}: {row[:6]} != {want}")
        if errata:
            _errata_cell(row[6])


def _check_table3(argv, text: str, ref: Reference) -> None:
    f, n = _flag(argv, "--f"), int(_flag(argv, "--n"))
    weights = "--weights" in argv
    errata = "--show-paper-errata" in argv
    rows = _rows(text)
    expect(len(rows) == n, "one row per order")
    for i, row in enumerate(rows, 1):
        expect(len(row) == 7 + 2 * weights + errata, f"row {i}: column count")
        expect(row[0] == str(i), f"row {i}: index")
        chi_minus, chi_plus = int(row[1]), int(row[2])
        mu_minus, mu_plus, var_minus, var_plus = (Fraction(x) for x in row[3:7])
        chi = int(coverage(ref.caps(f, i)).max())
        w_min = w_max = None
        if weights:
            w_min = tuple(int(x) for x in row[7].split(","))
            w_max = tuple(int(x) for x in row[8].split(","))
        check_weights_and_sums(i, chi, chi_minus, chi_plus, mu_minus, mu_plus,
                               var_minus, var_plus, w_min, w_max)
        expect(chi_minus == ref.jaco_min_sum(f, i), f"row {i}: chi_minus is not the optimum")
        if errata:
            _errata_cell(row[-1])


def _check_braided(argv, text: str) -> None:
    orders = tuple(int(x) for x in _flag(argv, "--orders").split(","))
    overlaps = tuple(int(x) for x in _flag(argv, "--overlaps").split(","))
    order, chi, _ = braid_facts(orders, overlaps)
    rows = _rows(text)
    extra = ("--erratum" in argv) + ("--show-paper-errata" in argv)
    expect(len(rows) == 1 and len(rows[0]) == 7 + extra, "one row of 7 + flag columns")
    row = rows[0]
    expect([int(x) for x in row[:2]] == [order, chi], "order or chi")
    chi_minus, chi_plus = int(row[2]), int(row[3])
    mu_minus, mu_plus, var = (Fraction(x) for x in row[4:7])
    expect(chi_minus == braid_min_sum(orders, overlaps), "chi_minus is not the optimum")
    check_weights_and_sums(order, chi, chi_minus, chi_plus, mu_minus, mu_plus, var, var)
    if len(orders) == 2:
        n, m, l = max(orders), min(orders), overlaps[0]
        _, w = two_block_min_sum(n, m, l)
        second = Fraction(sum(i * i * x for i, x in enumerate(w, 1)), order)
        expect(var == second - mu_minus * mu_minus, "variance of the two-block colouring")
        expect(mu_plus == Fraction(n * (n + 1) + (m - l) * (2 * n - m + l + 1), 2 * order),
               "two-block maximum mean")
        if "--erratum" in argv:
            superseded = Fraction((n - l) * (n - l + 1) + 4 * l * (n - l) + 2 * l * (l + 1),
                                  2 * order)
            expect(Fraction(row[7]) == superseded, "superseded closed form")
    if "--show-paper-errata" in argv:
        _errata_cell(row[-1])


def _check_arc_array(arc_array: np.ndarray, reach: np.ndarray, n: int) -> None:
    """Every arc (i, j) has i < j <= min(reach(i), n), arcs are strictly
    increasing (so distinct) and as many as the recount: the exact arc set."""
    caps = np.minimum(reach, n)
    total = int((caps - np.arange(1, n + 1)).sum())
    expect(len(arc_array) == total, f"{len(arc_array)} arcs, recount gives {total}")
    if total == 0:
        return
    i, j = arc_array[:, 0], arc_array[:, 1]
    expect(bool(np.all((i >= 1) & (i < j) & (j <= caps[i - 1]))), "arc outside i < j <= reach(i)")
    key = i * (n + 1) + j
    expect(bool(np.all(key[1:] > key[:-1])), "arcs not strictly increasing")


def _check_export(argv, text: str, ref: Reference) -> None:
    f, n = _flag(argv, "--f"), int(_flag(argv, "--n"))
    a, b, c = coefficients(f)
    indeg, reach = ref.root(f, n)
    if _flag(argv, "--format") == "json":
        obj = json.loads(text)
        expect(obj["incidence"] == {"a": a, "b": b, "c": c} and obj["n"] == n, "header")
        want = [{"i": i, "in_degree": d, "reach": r}
                for i, d, r in zip(range(1, n + 1), indeg.tolist(), reach.tolist())]
        expect(obj["vertices"] == want, "vertices differ from the recount")
        arc_array = np.array(obj["arcs"], dtype=np.int64).reshape(-1, 2)
    else:
        lines = _rows(text)
        expect(lines[0] == ["digraph {"] and lines[-1] == ["}"], "digraph frame")
        edges = re.findall(r"^  v(\d+) -> v(\d+);$", text, flags=re.M)
        plain = sum(1 for line in lines[1:-1] if "->" not in line[0])
        expect(len(edges) + plain == len(lines) - 2, "unparsed DOT line")
        arc_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    _check_arc_array(arc_array, reach, n)


def check_cli(op, out, ref: Reference) -> None:
    argv = op[1]
    code, text = out
    expect(code == 0, f"exit code {code}")
    command = argv[0]
    if command == "table1":
        _check_table1(argv, text, ref)
    elif command == "table3":
        _check_table3(argv, text, ref)
    elif command == "braided":
        _check_braided(argv, text)
    else:
        _check_export(argv, text, ref)


STRUCTURE_KINDS = ("build", "jaconian", "components", "stream", "hope", "smallest")


def check(op, out, ref: Reference) -> None:
    if op[0] in STRUCTURE_KINDS:
        check_structure(op, out, ref)
    elif op[0] == "cli":
        check_cli(op, out, ref)
    else:
        check_chroma(op, out, ref)
