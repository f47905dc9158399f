"""Structural invariants of built Jaco graphs.

Everything here works on the interval-compressed form: the underlying
(undirected) degree of v_i is indeg(i) + min(reach(i), n) - i, and all
invariants derive from those degrees and the reach sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
    n = g.n
    return tuple(
        d + max(0, min(r, n) - i)
        for i, (d, r) in enumerate(zip(g.in_degrees, g.reaches), start=1)
    )


def jaconian(g: JacoGraph) -> InvariantReport:
    """Compute the full invariant report of ``g``."""
    degrees = underlying_degrees(g)
    max_degree = max(degrees)
    jac = tuple(i for i, d in enumerate(degrees, start=1) if d == max_degree)
    prime = jac[0]
    try:
        dist = v1_distance(g)
    except UnreachableVertexError:
        dist = None
    return InvariantReport(
        max_degree=max_degree,
        min_degree=min(degrees),
        jaconian_set=jac,
        prime_jaconian=prime,
        hope_range=range(prime + 1, g.n + 1),
        v1_distance=dist,
    )


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
    for i in range(lo, g.n):
        if g.reach(i) < g.n:
            raise HopeNotCompleteError(
                f"vertex {i} reaches only {g.reach(i)} < n = {g.n};"
                f" the range {lo}..{g.n} is not complete"
            )
    return range(lo, g.n + 1)


def v1_distance(g: JacoGraph) -> int:
    """Hop count of the stepwise chain v1 -> v2 -> ... -> v_h -> v_n, where
    h is the smallest index whose reach covers v_n.

    This is the distance convention of the reference construction table
    (for n >= 2 it equals n - indeg(n)); a shortest directed path may skip
    chain vertices and be strictly shorter.  Raises
    :class:`UnreachableVertexError` when the chain breaks before covering
    v_n, which happens exactly when v_n lies in a later component.
    """
    n = g.n
    if n == 1:
        return 0
    t = 1
    while True:
        r = g.reach(t)
        if r >= n:
            return t
        if r <= t:
            raise UnreachableVertexError(f"no directed path from v1 to v{n}")
        t += 1


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


def construction_table(p: IncidencePolynomial, n: int) -> Iterator[ConstructionRow]:
    """Yield the construction-table rows for orders 1..n.

    Each row reports data of the order-i graph: the in-degree and root
    out-degree of v_i, the Jaconian set and maximum degree of that graph,
    and the stepwise v1-distance (None when unreachable).  O(n^2) overall,
    meant for table-sized n.
    """
    full = build(p, n)
    for i in range(1, n + 1):
        prefix = JacoGraph(p, i, full.in_degrees[:i], full.reaches[:i])
        rep = jaconian(prefix)
        yield ConstructionRow(
            index=i,
            in_degree=full.in_degrees[i - 1],
            out_degree_root=full.reaches[i - 1] - i,
            jaconian_set=rep.jaconian_set,
            max_degree=rep.max_degree,
            v1_distance=rep.v1_distance,
        )
