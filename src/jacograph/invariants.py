"""Structural invariants of Jaco graphs, read off a build, or off f alone
for the smallest-order locator.

Everything here works on the interval-compressed form: the underlying
(undirected) degree of v_i is indeg(i) + min(reach(i), n) - i.  Reaches
never decrease, so the vertices below i that reach v_i form the run ending
at v_{i-1}, and i - indeg(i) is the first vertex whose reach covers v_i.
Hence, for every m >= 1,

    i - indeg(i) <= m   exactly when   reach(m) >= i.

So v_h..v_{n-1} reach v_n for h = n - indeg(n), and the vertices below h
do not.  Below h the degree is f(i), which never decreases; from h on it
is n - (i - indeg(i)), which never increases.  So the maximum degree Delta
sits at h - 1 or h, and the Jaconian set is one run lo..hi around them:

* lo needs no search: if a + b >= 1, f strictly increases, as
  f(i+1) - f(i) = a(2i + 1) + b >= 1, so among the vertices below h only
  v_{h-1} can reach Delta; under constant incidence every f(i) is c, so
  all of v_1..v_{h-1} do or none does.  Hence lo = h unless h > 1 and
  f(h-1) >= deg(h), and then lo = h - 1 (a + b >= 1) or lo = 1 (constant);
* hi needs no search either: hi = min(n, reach(n - Delta)).  From h on,
  deg(i) >= Delta exactly when i - indeg(i) <= n - Delta, that is when
  reach(n - Delta) >= i (Delta <= n - 1, so n - Delta >= 1).  The run never
  ends below h - 1: v_{h-1} does not reach v_n, so
  f(h-1) < n - (h - 1 - indeg(h-1)), and deg(h) <= n - (h - 1 - indeg(h-1))
  as i - indeg(i) never decreases; so Delta <= n - (h - 1 - indeg(h-1)) and
  reach(n - Delta) >= h - 1.

The minimum degree sits at v_1 or v_n.

The stepwise chain v1 -> v2 -> ... breaks at the first t with
reach(t) <= t, that is f(t) <= indeg(t).  If a + b >= 1, then
f(t) >= t > indeg(t), so it never breaks.  Under constant incidence c, each
v_t with t <= c + 1 has in-degree t - 1, as v_1..v_{t-1} all reach
c + 1; so f(t) = c > indeg(t) below c + 1, indeg(c + 1) = c = f(c + 1), and
the first break is at v_{c+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .builder import JacoGraph, build
from .errors import ArithmeticOverflowError, HopeNotCompleteError
from .incidence import INT64_MAX, IncidencePolynomial, evaluate


@dataclass(frozen=True)
class InvariantReport:
    """Summary invariants of one graph.

    ``jaconian_set`` lists, in ascending order, the vertices of maximum
    underlying degree; ``prime_jaconian`` is its smallest member.
    ``hope_range`` covers the vertices above the prime Jaconian vertex
    (empty when the prime is v_n).

    ``v1_distance`` is the hop count of the stepwise chain v1 -> v2 -> ...
    -> v_h -> v_n, where h = n - indeg(n) is the smallest index whose reach
    covers v_n (0 when n = 1).  This is the distance convention of the
    reference construction table; a shortest directed path may skip chain
    vertices and be strictly shorter.  It is None when the chain breaks
    before covering v_n, which happens exactly when v_n lies in a later
    component.
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


def _chain_break(p: IncidencePolynomial) -> int | None:
    """The first t with reach(t) <= t, where the stepwise chain
    v1 -> v2 -> ... breaks, or None when it never does."""
    return p.c + 1 if p.a == p.b == 0 else None


def _distance(n: int, h: int, chain_break: int | None) -> int | None:
    """The v1-distance: h (0 if n = 1), or None when the chain breaks below h."""
    if chain_break is not None and chain_break < h:
        return None
    return h if n > 1 else 0


def _read_off(
    n: int, indeg: Sequence[int], reaches: Sequence[int], p: IncidencePolynomial
) -> tuple[int, int, int, int]:
    """(h, Delta, lo, hi) of the order-n graph of incidence ``p`` whose vertex
    data start ``indeg`` and ``reaches`` (they may run on past n):
    h = n - indeg(n), the maximum degree Delta and the Jaconian run lo..hi,
    each read off in O(1) as the module docstring proves."""
    h = n - indeg[n - 1]
    top, lo = indeg[h - 1] + n - h, h  # v_h reaches v_n
    if h > 1:
        below = indeg[h - 2] + reaches[h - 2] - h + 1  # f(h - 1)
        if below >= top:
            top, lo = below, (h - 1 if p.a or p.b else 1)
    hi = min(n, reaches[n - top - 1])
    return h, top, lo, hi


def jaconian(g: JacoGraph) -> InvariantReport:
    """Read the invariant report of ``g`` off h = n - indeg(n): the maximum
    degree is that of v_{h-1} or v_h, whichever is larger; its run starts at
    h, h - 1 or v_1 and ends at min(n, reach(n - Delta)), all with no search.
    Only the ``jaconian_set`` tuple costs time in its length."""
    n, indeg, reaches = g.n, g.in_degrees, g.reaches
    h, top, lo, hi = _read_off(n, indeg, reaches, g.incidence)
    return InvariantReport(
        max_degree=top,
        min_degree=min(indeg[0] + min(reaches[0], n) - 1, indeg[n - 1]),
        jaconian_set=tuple(range(lo, hi + 1)),
        prime_jaconian=lo,
        hope_range=range(lo + 1, n + 1),
        v1_distance=_distance(n, h, _chain_break(g.incidence)),
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
    _, _, prime, _ = _read_off(g.n, g.in_degrees, g.reaches, g.incidence)
    lo = prime + 1
    # reaches never decrease, so vertex lo has the shortest reach in lo..n-1
    if lo < g.n and g.reaches[lo - 1] < g.n:
        raise HopeNotCompleteError(
            f"vertex {lo} reaches only {g.reaches[lo - 1]} < n = {g.n};"
            f" the range {lo}..{g.n} is not complete"
        )
    return range(lo, g.n + 1)


def completeness_threshold(p: IncidencePolynomial) -> int:
    """Largest order whose underlying graph is complete: f(1) + 1.

    Contract: the underlying graph of the order-n graph is the complete
    graph K_n exactly when n <= f(1) + 1.
    """
    return evaluate(p, 1) + 1


def smallest_with_max_degree(p: IncidencePolynomial) -> tuple[int, int, int]:
    """Locate the smallest order k whose maximum degree reaches f(f(1)).

    Returns ``(k, prime_index, max_degree)`` with k = f(f(1)) + 1 and the
    prime Jaconian vertex at index m = f(1), read off f with no build.  By
    the identities above and :func:`completeness_threshold`, orders up to
    m + 1 are complete, so indeg(m) = m - 1 and reach(m) = f(m) + 1 = k,
    while (if m > 1) reach(m - 1) = f(m - 1) + 1 < k, as f strictly
    increases; so h = m in the order-k graph.  There deg(v_m) = k - 1 = f(m)
    and deg(v_{m-1}) = f(m - 1) < f(m), so Delta = f(m) and the Jaconian
    run starts at lo = m.  Every order n < k has Delta <= n - 1 < f(m), so
    k is the smallest.
    Requires quadratic incidence (a >= 1); raises
    :class:`ArithmeticOverflowError` when k leaves the 64-bit range.
    """
    if p.a < 1:
        raise ValueError("quadratic incidence required (a >= 1)")
    f1 = evaluate(p, 1)
    target = evaluate(p, f1)
    k = target + 1
    if k > INT64_MAX:
        raise ArithmeticOverflowError(f"order f(f(1)) + 1 = {k} exceeds the 64-bit range")
    return k, f1, target


def component_decomposition(g: JacoGraph) -> list[range]:
    """Connected components of the underlying graph, as contiguous ranges.

    Neighbourhoods are index intervals, so components are too, and a
    component starts at every i whose predecessor does not reach it.  Read
    off the chain break: any a >= 1 or b >= 1 gives a single component;
    constant incidence c gives consecutive blocks of c + 1 (the last may
    be smaller), so the zero polynomial gives n singletons.
    """
    n, t = g.n, _chain_break(g.incidence)
    if t is None:
        return [range(1, n + 1)]
    return [range(s, min(s + t, n + 1)) for s in range(1, n + 1, t)]


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

    Each row reports data of the order-k graph: the in-degree and root
    out-degree of v_k, the Jaconian set and maximum degree of that graph,
    and the stepwise v1-distance (None when unreachable).  Every row is
    read off the one order-n build by index in O(1), with nothing listed,
    besides its Jaconian set.
    """
    full = build(p, n)
    indeg, reaches = full.in_degrees, full.reaches
    chain_break = _chain_break(p)
    for k in range(1, n + 1):
        h, top, lo, hi = _read_off(k, indeg, reaches, p)
        yield ConstructionRow(
            k, indeg[k - 1], reaches[k - 1] - k, tuple(range(lo, hi + 1)), top,
            _distance(k, h, chain_break),
        )
