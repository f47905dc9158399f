"""Construction of finite Jaco graphs and the infinite-root vertex stream.

A Jaco graph for the incidence function f carries the arc (v_i, v_j),
i < j, exactly when ``i + f(i) - indeg(i) >= j``, where ``indeg(i)`` is the
in-degree of v_i.  The rule looks circular because in-degrees depend on
arcs, but every in-arc of v_i comes from a lower-indexed vertex, so
processing vertices in ascending order fixes each in-degree before the
vertex's own out-arcs are decided.  The quantity

    reach(i) = i + f(i) - indeg(i)

is the largest index v_i sends an arc to.  Arcs are interval-compressed:
a built graph stores only in-degrees and reaches, and the arc set
``{(i, j) : i < j <= min(reach(i), n)}`` is materialized on demand.

Vertices are computed a block at a time from one recurrence.  Call i
marked when i = reach(j) for some vertex j.  For a + b >= 1 every vertex
reaches past itself, as indeg(i) <= i - 1 < i <= f(i).  So the in-arcs of
v_{i+1} are those of v_i, less the ones from vertices whose reach is
exactly i, plus the arc from v_i:

    indeg(i+1) = indeg(i) + 1 - #{j : reach(j) = i},
    reach(i+1) - reach(i) = f(i+1) - f(i) + #{j : reach(j) = i}
                         >= a*(2i + 1) + b >= 1.

The reaches strictly increase, so at most one vertex reaches exactly i and
the count is mark(i), 0 or 1.  Hence once v_1..v_lo are known, every reach
up to reach(lo) belongs to one of them, so mark(i) is known for every
i <= reach(lo), and with it the in-degrees of v_{lo+1}..v_{reach(lo)+1}.
A block lists its marks in a ``bytearray``, turns them into the steps
1 - mark(i) with ``bytes.translate``, and sums them with one
``accumulate``; i + f(i) is another ``accumulate`` over its forward
differences a*(2i + 1) + b + 1, and each reach is i + f(i) - indeg(i).
The first vertices are stepped one at a time, where blocks would be short.

Constant incidence (a = b = 0) needs no recurrence.  Each v_t with
t <= c + 1 has in-degree t - 1, as v_1..v_{t-1} all reach c + 1, so
reach(t) = c + 1: nothing reaches v_{c+2}, which starts afresh as v_1 did.
The graph repeats blocks of c + 1 with indeg(i) = (i - 1) mod (c + 1) and
reach(i) = i - indeg(i) + c.

J_n(f) is the prefix v_1..v_n of the infinite root graph, so a built graph
already holds the root graph's first n records.  For each polynomial,
:func:`build` records by weak reference the longest graph it has returned
that has more than 64 vertices and is still alive.  :func:`root_stream`
yields v_1..v_n from that graph's tuples, then resumes the recurrence at
v_{n+1} from indeg(n), reach(n) and the graph's reaches, which it keeps
only while they can still mark a vertex.  Builds of at most 64 vertices
are not recorded and take no extra step.  Only :func:`build` records a
graph, so a graph made by hand is never read.  Records are exact tuples
``(index, in_degree, reach)``, not a ``NamedTuple``: CPython's collector
untracks a tuple of ints but never a tuple subclass, so every held record
of a subclass would be traversed again by each later full collection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, cycle, islice, takewhile
from operator import sub
from typing import Iterator, Sequence
from weakref import WeakValueDictionary

from .errors import ArcBudgetExceededError, ArithmeticOverflowError, InvalidOrderError
from .incidence import INT64_MAX, IncidencePolynomial, evaluate

DEFAULT_ARC_BUDGET = 10_000_000

# Vertices below this are stepped one at a time: there the blocks are
# short, and a block's fixed cost exceeds the per-vertex step.
_STEPPED = 64
# The stream's longest block, so it computes at most this many records
# beyond what its consumer takes.
_STREAM_BLOCK = 4096
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # mark(i) -> 1 - mark(i)
# The longest live graph that build returned for each polynomial, among
# those of order above _STEPPED.  Weak, so it keeps no graph alive.  Every
# graph in it is exact, so two threads racing in build can at worst leave
# the shorter of their graphs recorded.
_LIVE: WeakValueDictionary[IncidencePolynomial, JacoGraph] = WeakValueDictionary()


@dataclass(frozen=True)
class JacoGraph:
    """A finite Jaco graph in interval-compressed form.

    ``in_degrees[i - 1]`` and ``reaches[i - 1]`` hold the data of vertex i,
    so its root-stream record is ``(i, in_degrees[i - 1], reaches[i - 1])``
    and ``zip(count(1), in_degrees, reaches)`` lists them all.  Its
    out-degree is ``reach - i`` in the root graph and ``min(reach, n) - i``
    here.  In-degrees are independent of the order n (in-neighbours always
    have a smaller index), so truncating or extending a graph never changes
    them; only out-arcs are clipped at n.
    """

    incidence: IncidencePolynomial
    n: int
    in_degrees: tuple[int, ...] = field(repr=False)
    reaches: tuple[int, ...] = field(repr=False)

    def arc_count(self) -> int:
        return sum(self.in_degrees)  # each arc once, at its head


def _blocks(
    p: IncidencePolynomial, stop: int, cap: int, start: JacoGraph | None = None
) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """Yield the in-degrees and reaches of v_1..v_{stop-1}, in consecutive
    blocks of at most ``cap`` vertices.  The first block may be longer: the
    stepped vertices, or, given a built graph ``start`` of order m < stop,
    its own tuples of v_1..v_m.

    Between blocks only the reach sequences that can still mark a vertex
    are kept: one is dropped once all its reaches fall below the block.
    A block's marks are read off the kept sequences in order, up to the
    first whose reaches all lie past the block."""
    a, b, c = p.a, p.b, p.c
    lo = 1
    if start is not None:
        d, reaches = start.in_degrees, start.reaches
        del start  # hold no graph; past v_m, only known may keep its reaches
        yield d, reaches
        lo = len(d) + 1
    if a == b == 0:
        s = (lo - 1) % (c + 1)  # indeg(lo); the in-degrees cycle from there
        indegs = cycle(chain(range(s, c + 1), range(s)))
        tops = count(lo + c)
        for lo in range(lo, stop, cap):
            d = list(islice(indegs, min(cap, stop - lo)))
            reaches = list(map(sub, islice(tops, len(d)), d))  # drops a graph's tuple
            yield d, reaches
        return
    if lo == 1:
        if stop < 2:
            return
        d, reaches = [0], [1 + a + b + c]
        k = 0  # the vertices j < i with reach(j) < i are v_1..v_k
        for i in range(2, min(stop, _STEPPED + 1)):
            if reaches[k] < i:  # at most one reach is i - 1, and it is reach(k + 1)
                k += 1
            d.append(i - 1 - k)
            reaches.append(i + (a * i + b) * i + c - d[-1])
        yield d, reaches
        lo = len(d) + 1
    known = [reaches]
    while lo < stop:
        hi = min(stop, lo + cap, reaches[-1] + 2)  # reaches[-1] = reach(lo - 1)
        base = lo - 1
        while known[0][-1] < base:
            del known[0]
        marks = bytearray(hi - lo)  # mark(i) at i - base, for i in base..hi-2
        # reaches rise, so no sequence from the first that starts at hi - 1
        # on holds a mark; each is sliced, as islice would step through it
        for r in takewhile(lambda r: r[0] < hi - 1, known):
            for x in r[bisect_left(r, base):bisect_left(r, hi - 1)]:
                marks[x - base] = 1
        d = list(accumulate(marks.translate(_FLIP), initial=d[-1]))
        del d[0]
        tops = accumulate(  # i + f(i) for i in lo..hi-1
            islice(count(a * (2 * lo + 1) + b + 1, 2 * a), hi - lo - 1),
            initial=lo + a * lo * lo + b * lo + c,
        )
        # by subtraction, so each kept reach is allocated at its exact size
        reaches = list(map(sub, tops, d))
        yield d, reaches
        known.append(reaches)
        lo = hi


def build(p: IncidencePolynomial, n: int) -> JacoGraph:
    """Construct the finite Jaco graph on n vertices for incidence p.

    The in-degrees and reaches are read off the reach marks a block of
    vertices at a time (see the module docstring); constant incidence
    repeats its closed form.  O(n) time and memory.
    """
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    if evaluate(p, n) > INT64_MAX - n:
        raise ArithmeticOverflowError(f"f({n}) + {n} exceeds the 64-bit range")
    in_degrees: list[int] = []
    reaches: list[int] = []
    for d, r in _blocks(p, n + 1, n):
        in_degrees += d
        reaches += r
    del d, r  # the last block would otherwise outlive the copies below
    g = JacoGraph(p, n, tuple(in_degrees), tuple(reaches))
    if n > _STEPPED:
        live = _LIVE.get(p)
        if live is None or live.n < n:
            _LIVE[p] = g
    return g


def root_stream(p: IncidencePolynomial) -> Iterator[tuple[int, int, int]]:
    """Yield the vertex records ``(index, in_degree, reach)`` of the
    infinite root graph for i = 1, 2, ...

    When the stream starts (at its first record), it looks for the longest
    live graph that :func:`build` returned for ``p`` with more than 64
    vertices.  If there is one, of order m, the stream yields v_1..v_m from
    its tuples, and the records share the graph's ints; it goes on from
    v_{m+1}, holding the graph's reaches only while they can still mark a
    vertex, and neither the graph nor its in-degrees.  Otherwise it starts
    at v_1.  Past v_m, records are made a block of at most 4,096 vertices
    at a time, by the recurrence of :func:`build`, so at most one block is
    computed beyond what the consumer takes.  Memory is that block plus the
    reaches that can still mark a later vertex, about the next in-degree in
    number: the reaches are kept in their blocks, and a block of them is
    dropped once all of them fall below the block being made.  Each new
    block reads its marks off the kept blocks up to the first whose reaches
    all lie past it, so it slices only the few blocks it overlaps.  The stream
    raises :class:`ArithmeticOverflowError` at the first i where f(i) + i
    leaves the 64-bit range, after yielding every earlier record.
    """
    a, b, c = p.a, p.b, p.c
    # i + f(i) increases with i: the last index it keeps inside 64 bits
    last = bisect_right(
        range(1, INT64_MAX + 1), INT64_MAX, key=lambda i: i + a * i * i + b * i + c
    )
    lo = 1
    # a built graph has f(n) + n inside 64 bits, so its order is at most last
    for d, r in _blocks(p, last + 1, _STREAM_BLOCK, _LIVE.get(p)):
        yield from zip(count(lo), d, r)
        lo += len(d)
    raise ArithmeticOverflowError(f"f({lo}) + {lo} exceeds the 64-bit range")


def check_arc_budget(g: JacoGraph, budget: int) -> None:
    """Raise :class:`ArcBudgetExceededError` when ``g`` has more than
    ``budget`` arcs; counted off the in-degrees, so nothing is materialized."""
    total = g.arc_count()
    if total > budget:
        raise ArcBudgetExceededError(f"{total} arcs exceed the budget of {budget}")


def arcs(g: JacoGraph, budget: int = DEFAULT_ARC_BUDGET) -> list[tuple[int, int]]:
    """Materialize the arc set as a lexicographically sorted list.

    The interval-compressed form can describe far more arcs than fit in
    memory, so the caller-declared ``budget`` caps the count and an
    :class:`ArcBudgetExceededError` is raised beyond it.
    """
    check_arc_budget(g, budget)
    n = g.n
    return [(i, j) for i, r in enumerate(g.reaches, start=1) for j in range(i + 1, min(r, n) + 1)]
