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

In-degree accounting uses a difference array over reach endpoints: vertex
i contributes +1 to the in-degrees of i+1 .. reach(i), entered as a +1 at
i+1 and a -1 past the endpoint, so the whole build is O(n) regardless of
how many arcs the graph has.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import (
    ArcBudgetExceededError,
    ArithmeticOverflowError,
    InvalidOrderError,
    VertexIndexError,
)
from .incidence import INT64_MAX, IncidencePolynomial, evaluate

DEFAULT_ARC_BUDGET = 10_000_000


class VertexRecord(NamedTuple):
    """Per-vertex data: 1-based index, in-degree, and reach."""

    index: int
    in_degree: int
    reach: int

    @property
    def out_degree(self) -> int:
        """Out-degree in the infinite root graph: f(i) - indeg(i)."""
        return self.reach - self.index


@dataclass(frozen=True)
class JacoGraph:
    """A finite Jaco graph in interval-compressed form.

    ``in_degrees[i - 1]`` and ``reaches[i - 1]`` hold the data of vertex i.
    In-degrees are independent of the order n (in-neighbours always have a
    smaller index), so truncating or extending a graph never changes them;
    only out-arcs are clipped at n.
    """

    incidence: IncidencePolynomial
    n: int
    in_degrees: tuple[int, ...] = field(repr=False)
    reaches: tuple[int, ...] = field(repr=False)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise VertexIndexError(f"vertex index {i} outside 1..{self.n}")

    def in_degree(self, i: int) -> int:
        self._check_index(i)
        return self.in_degrees[i - 1]

    def reach(self, i: int) -> int:
        """Largest index v_i sends an arc to in the infinite root graph."""
        self._check_index(i)
        return self.reaches[i - 1]

    def capped_reach(self, i: int) -> int:
        """Largest out-neighbour index within this finite graph."""
        self._check_index(i)
        return min(self.reaches[i - 1], self.n)

    def out_degree(self, i: int) -> int:
        """Out-degree within this finite graph: min(reach(i), n) - i."""
        return self.capped_reach(i) - i

    def record(self, i: int) -> VertexRecord:
        self._check_index(i)
        return VertexRecord(i, self.in_degrees[i - 1], self.reaches[i - 1])

    @cached_property
    def records(self) -> tuple[VertexRecord, ...]:
        return tuple(
            VertexRecord(i + 1, d, r)
            for i, (d, r) in enumerate(zip(self.in_degrees, self.reaches))
        )

    def arc_count(self) -> int:
        return sum(min(r, self.n) - i for i, r in enumerate(self.reaches, start=1))


def build(p: IncidencePolynomial, n: int) -> JacoGraph:
    """Construct the finite Jaco graph on n vertices for incidence p.

    Vertices are processed in ascending order: the running difference-array
    sum gives each vertex's final in-degree, after which its reach (and
    hence its out-arcs) is fixed.  O(n) time and memory.
    """
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    if evaluate(p, n) > INT64_MAX - n:
        raise ArithmeticOverflowError(f"f({n}) + {n} exceeds the 64-bit range")
    a, b, c = p.a, p.b, p.c
    in_degrees = [0] * n
    reaches = [0] * n
    diff = [0] * (n + 2)
    running = 0
    for i in range(1, n + 1):
        running += diff[i]
        r = i + a * i * i + b * i + c - running
        in_degrees[i - 1] = running
        reaches[i - 1] = r
        if r > i:
            diff[i + 1] += 1
            if r < n:
                diff[r + 1] -= 1
    return JacoGraph(p, n, tuple(in_degrees), tuple(reaches))


def root_stream(p: IncidencePolynomial) -> Iterator[VertexRecord]:
    """Yield the vertex records of the infinite root graph for i = 1, 2, ...

    Memory stays proportional to the active reach window: a reach is kept
    only while it still covers the next vertex, so the window's length is
    the next in-degree.  Reaches never decrease, so expired reaches always
    leave from the front.  The stream raises
    :class:`ArithmeticOverflowError` when f(i) + i leaves the 64-bit range.
    """
    a, b, c = p.a, p.b, p.c
    new = tuple.__new__  # skips the NamedTuple constructor's argument handling
    record = VertexRecord
    window: deque[int] = deque()
    push, expire = window.append, window.popleft
    limit = INT64_MAX
    fi = a + b + c          # f(i), advanced by exact forward differences
    dfi = 3 * a + b         # f(i+1) - f(i) at i = 1
    ddf = 2 * a
    i = 1
    while True:
        while window and window[0] < i:
            expire()
        indeg = len(window)
        if fi > limit - i:
            raise ArithmeticOverflowError(f"f({i}) + {i} exceeds the 64-bit range")
        r = i + fi - indeg
        yield new(record, (i, indeg, r))
        push(r)
        fi += dfi
        dfi += ddf
        i += 1


def out_degree_root(g: JacoGraph, i: int) -> int:
    """Out-degree of v_i in the infinite root graph: f(i) - indeg(i).

    Equals reach(i) - i; unlike the finite out-degree it is not clipped
    at n.
    """
    return g.reach(i) - i


def arcs(g: JacoGraph, budget: int = DEFAULT_ARC_BUDGET) -> list[tuple[int, int]]:
    """Materialize the arc set as a lexicographically sorted list.

    The interval-compressed form can describe far more arcs than fit in
    memory, so the caller-declared ``budget`` caps the count and an
    :class:`ArcBudgetExceededError` is raised beyond it.
    """
    total = g.arc_count()
    if total > budget:
        raise ArcBudgetExceededError(f"{total} arcs exceed the budget of {budget}")
    n = g.n
    return [(i, j) for i, r in enumerate(g.reaches, start=1) for j in range(i + 1, min(r, n) + 1)]
