"""Structural invariants of built Jaco graphs.

Everything here works on the interval-compressed form: the underlying
(undirected) degree of v_i is indeg(i) + min(reach(i), n) - i.  Reaches
never decrease, so v_h..v_{n-1} reach v_n for h = n - indeg(n).  Below h
the degree is f(i), which never decreases; from h on it is n - i + indeg(i),
which never increases, as in-degrees grow by at most 1 per vertex.  So the
maximum sits at h - 1 or h in one run, and the minimum at v_1 or v_n.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import le
from typing import Iterator, NamedTuple, Sequence

from .builder import JacoGraph, build
from .errors import HopeNotCompleteError, JacoError, UnreachableVertexError
from .incidence import IncidencePolynomial, evaluate


@dataclass(frozen=True)
class InvariantReport:
    """Summary invariants of one graph.

    ``jaconian_set`` lists, in ascending order, the vertices of maximum
    underlying degree; ``prime_jaconian`` is its smallest member.
    ``hope_range`` covers the vertices above the prime Jaconian vertex
    (empty when the prime is v_n).  ``v1_distance`` is None when v_n is
    not reachable from v1.
    """

    max_degree: int
    min_degree: int
    jaconian_set: tuple[int, ...]
    prime_jaconian: int
    hope_range: range
    v1_distance: int | None


def underlying_degrees(g: JacoGraph) -> tuple[int, ...]:
    """Degrees in the underlying undirected graph, indexed by vertex - 1."""
    # reach(i) >= i for every vertex, so no out-degree term is negative
    n = g.n
    return tuple(
        d + min(r, n) - i
        for i, (d, r) in enumerate(zip(g.in_degrees, g.reaches), start=1)
    )


def _chain_break(reaches: Sequence[int], stop: int) -> int:
    """The first t < stop with reach(t) <= t, where the stepwise chain
    v1 -> v2 -> ... breaks, or stop when there is none."""
    return next(compress(range(1, stop), map(le, reaches, range(1, stop))), stop)


def _distance(n: int, h: int, chain_break: int) -> int | None:
    """The v1-distance: h (0 if n = 1), or None when the chain breaks below h."""
    return None if chain_break < h else (h if n > 1 else 0)


def _read_off(
    n: int, indeg: Sequence[int], reaches: Sequence[int], chain_break: int
) -> InvariantReport:
    """The report of the order-n graph whose vertex data start ``indeg`` and
    ``reaches`` (they may run on past n; only the first n entries are read).
    ``chain_break`` is the first chain break, or any value >= h when there is
    none below h."""

    def degree(i: int) -> int:
        return indeg[i - 1] + min(reaches[i - 1], n) - i

    h = n - indeg[n - 1]
    top = max(degree(h - 1), degree(h)) if h > 1 else degree(h)
    lo = 1 + bisect_left(range(1, h), top, key=degree)
    hi = h - 1 + bisect_right(range(h, n + 1), -top, key=lambda i: -degree(i))
    return InvariantReport(
        max_degree=top,
        min_degree=min(degree(1), degree(n)),
        jaconian_set=tuple(range(lo, hi + 1)),
        prime_jaconian=lo,
        hope_range=range(lo + 1, n + 1),
        v1_distance=_distance(n, h, chain_break),
    )


def jaconian(g: JacoGraph) -> InvariantReport:
    """Read the invariant report of ``g`` off h = n - indeg(n): the maximum
    degree is that of v_{h-1} or v_h, whichever is larger, and its run ends
    where two bisections find it, one in the non-decreasing degrees below h
    and one in the non-increasing degrees from h."""
    h = g.n - g.in_degrees[-1]  # the chain only matters below h
    return _read_off(g.n, g.in_degrees, g.reaches, _chain_break(g.reaches, h))


def hope_subgraph(g: JacoGraph) -> range:
    """Vertex range of the Hope subgraph: everything above the prime
    Jaconian vertex.

    The induced underlying subgraph on this range must be complete, which
    for quadratic incidence is a theorem (a vertex above the prime with a
    clipped reach would tie or beat the prime's degree).  The completeness
    is asserted here and :class:`HopeNotCompleteError` raised if it fails,
    e.g. for constant incidence once the graph splits into components.
    """
    rep = jaconian(g)
    lo = rep.prime_jaconian + 1
    # reaches never decrease, so vertex lo has the shortest reach in lo..n-1
    if lo < g.n and g.reaches[lo - 1] < g.n:
        raise HopeNotCompleteError(
            f"vertex {lo} reaches only {g.reaches[lo - 1]} < n = {g.n};"
            f" the range {lo}..{g.n} is not complete"
        )
    return range(lo, g.n + 1)


def v1_distance(g: JacoGraph) -> int:
    """Hop count of the stepwise chain v1 -> v2 -> ... -> v_h -> v_n, where
    h is the smallest index whose reach covers v_n.

    This is the distance convention of the reference construction table
    (read off h = n - indeg(n) for n >= 2); a shortest directed path may
    skip chain vertices and be strictly shorter.  Raises
    :class:`UnreachableVertexError` when the chain breaks before covering
    v_n, which happens exactly when v_n lies in a later component.
    """
    h = g.n - g.in_degrees[-1]
    dist = _distance(g.n, h, _chain_break(g.reaches, h))
    if dist is None:
        raise UnreachableVertexError(f"no directed path from v1 to v{g.n}")
    return dist


def completeness_threshold(p: IncidencePolynomial) -> int:
    """Largest order whose underlying graph is complete: f(1) + 1.

    Contract: the underlying graph of the order-n graph is the complete
    graph K_n exactly when n <= f(1) + 1.
    """
    return evaluate(p, 1) + 1


def smallest_with_max_degree(p: IncidencePolynomial) -> tuple[int, int, int]:
    """Locate the smallest order k whose maximum degree reaches f(f(1)).

    Returns ``(k, prime_index, max_degree)`` with k = f(f(1)) + 1 and the
    prime Jaconian vertex at index f(1).  The vertex v_{f(1)} enters the
    construction with in-degree f(1) - 1, so its reach is f(f(1)) + 1 and
    its degree saturates at f(f(1)) exactly when the graph reaches that
    order.  Both the hit at k and the miss at k - 1 are verified on built
    graphs, which together with degree monotonicity makes k the smallest.
    Requires quadratic incidence (a >= 1).
    """
    if p.a < 1:
        raise ValueError("quadratic incidence required (a >= 1)")
    f1 = evaluate(p, 1)
    target = evaluate(p, f1)
    k = target + 1
    rep = jaconian(build(p, k))
    if rep.max_degree != target or rep.prime_jaconian != f1:
        raise JacoError(
            f"locator self-check failed at order {k}: max degree {rep.max_degree},"
            f" prime {rep.prime_jaconian}, expected {target} at v{f1}"
        )
    if k > 1 and jaconian(build(p, k - 1)).max_degree >= target:
        raise JacoError(f"locator self-check failed: order {k - 1} already attains {target}")
    return k, f1, target


def component_decomposition(g: JacoGraph) -> list[range]:
    """Connected components of the underlying graph, as contiguous ranges.

    Neighbourhoods are index intervals, so components are too.  Reaches
    never decrease, so a component starts at every i whose predecessor
    does not reach it.  Constant incidence c >= 1 gives consecutive blocks
    of size c + 1 (the last may be smaller); any a >= 1 or b >= 1 gives a
    single component; the zero polynomial gives n singletons.
    """
    n = g.n
    starts = [1] + [i for i, r in zip(range(2, n + 1), g.reaches) if r < i]
    return [range(s, e) for s, e in zip(starts, starts[1:] + [n + 1])]


class ConstructionRow(NamedTuple):
    """One row of the reference construction table."""

    index: int
    in_degree: int
    out_degree_root: int
    jaconian_set: tuple[int, ...]
    max_degree: int
    v1_distance: int | None


def _prefixes(p: IncidencePolynomial, n: int) -> Iterator[JacoGraph]:
    """Yield the order-k graph for k = 1..n, sliced from one build.

    In-degrees and reaches do not depend on the order, so the order-k
    graph is the first k of each.
    """
    full = build(p, n)
    for k in range(1, n + 1):
        yield JacoGraph(p, k, full.in_degrees[:k], full.reaches[:k])


def construction_table(p: IncidencePolynomial, n: int) -> Iterator[ConstructionRow]:
    """Yield the construction-table rows for orders 1..n.

    Each row reports data of the order-k graph: the in-degree and root
    out-degree of v_k, the Jaconian set and maximum degree of that graph,
    and the stepwise v1-distance (None when unreachable).  Every row is
    read off the one order-n build by index, with the first chain break
    found once: row k's chain breaks before its h exactly when that break
    lies below h.
    """
    full = build(p, n)
    indeg, reaches = full.in_degrees, full.reaches
    chain_break = _chain_break(reaches, n + 1)
    for k in range(1, n + 1):
        rep = _read_off(k, indeg, reaches, chain_break)
        yield ConstructionRow(
            index=k,
            in_degree=indeg[k - 1],
            out_degree_root=reaches[k - 1] - k,
            jaconian_set=rep.jaconian_set,
            max_degree=rep.max_degree,
            v1_distance=rep.v1_distance,
        )
