"""Exact chromatic-sum analysis of certified proper interval graphs.

The colour sum of a proper colouring S with colour weights theta(c_1),
..., theta(c_k) is sum_i i*theta(c_i).  The minimum chromatic sum
(chi-minus) and maximum chromatic sum (chi-plus) range over proper
colourings that use exactly chi(G) colours, never more.  Reversing the
colour indices (c_i -> c_{k-i+1}) is a bijection on those colourings that
maps a sum s to (chi+1)*|V| - s, so

    chi_minus + chi_plus = (chi(G) + 1) * |V(G)|

and chi-plus is read off chi-minus with no second colouring.

Within a fixed partition into colour classes the optimal labelling is
forced: larger classes take smaller colour indices, so an optimal weight
vector is always non-increasing.  Among optimal colourings the canonical
one has the lexicographically greatest weight vector, and among those the
lexicographically smallest vertex-to-colour assignment.

Graphs built from Jaco reaches carry a proper-interval certificate: caps
cap(1) <= cap(2) <= ... with u ~ v (u < v) exactly when v <= cap(u).
Because the caps never decrease, every closed neighbourhood is an index
range and every window [u, cap(u)] is a clique, so the chromatic number is
the largest window, max(cap(u) - u) + 1, read off in O(n).

Certified graphs are coloured by first-fit in index order, with no
search: each vertex takes the least colour no earlier neighbour holds.  On
intervals sorted by left end this uses exactly chi colours, and it is the
lexicographically smallest proper assignment of all.  It is also optimal.
Caps never decrease, so the earlier neighbours of v (the earlier vertices
whose caps reach v) form a clique with distinct colours, and v gets a
colour <= j exactly when fewer than j of them hold one.  The greedy by
right end for alpha_j, the most intervals [u, cap(u)] covering no point
more than j times (Yannakakis and Gavril 1987; Carlisle and Lloyd 1995),
takes v exactly when fewer than j chosen intervals cover v.  By induction
on v, first-fit's colours 1..j are the greedy's set, so W_j = alpha_j for
every j.  A chi-colouring whose first j classes hold W_j <= alpha_j
vertices has sum chi*n - sum_{j<chi} W_j, so first-fit is optimal, its
weight vector is the only optimal one, and it is the canonical colouring
above.  Min-sum colouring is NP-hard on interval graphs in general (Marx
2005), not on proper ones.

Every graph here is certified: a :class:`SimpleGraph` is its caps, checked
when it is made, and :func:`chromatic_number`, :func:`min_sum_colouring`
and :func:`chroma_report` read them.  No graph holds a second copy of
itself.  The exact search for any other graph is
``oracle.partition_min_sum``, which is practical up to roughly 25 vertices
and takes neighbour masks that ``oracle.from_edges`` makes from an edge
list, never from the caps.

First-fit colours every prefix of a certified graph as it colours the
whole.  The prefix 1..k has caps min(cap(u), k), and for v <= k,
min(cap(u), k) >= v exactly when cap(u) >= v, so each v <= k sees the same
earlier neighbours in both and takes the same colour.  The order-k
report is therefore read off the running class sizes, sum of colours and
sum of squared colours of one first-fit over the whole graph; for an
underlying Jaco graph the prefix is the underlying order-k graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from operator import ge, le, mul, sub
from typing import Iterable, Iterator

from .builder import JacoGraph


@dataclass(frozen=True)
class SimpleGraph:
    """Proper interval graph on vertices 1..order, held as its caps.

    ``interval_caps`` is the graph's one representation: the caps are
    non-decreasing, ``interval_caps[u - 1]`` lies in u..order, and u ~ v
    for u < v exactly when v <= interval_caps[u - 1].  The constructor
    checks both conditions, so every graph carries its certificate.
    """

    interval_caps: tuple[int, ...]

    def __post_init__(self) -> None:
        caps = self.interval_caps
        order = len(caps)
        if order < 1:
            raise ValueError("at least one vertex required")
        in_range = all(map(ge, caps, range(1, order + 1))) and caps[-1] <= order
        if not (in_range and all(map(le, caps, caps[1:]))):
            for v, cap in enumerate(caps, start=1):
                if not v <= cap <= order:
                    raise ValueError(f"cap of vertex {v} must lie in {v}..{order}, got {cap}")
                if v > 1 and cap < caps[v - 2]:
                    raise ValueError(f"caps must be non-decreasing, got {caps[v - 2]} then {cap}")

    @property
    def order(self) -> int:
        return len(self.interval_caps)

    @classmethod
    def from_intervals(cls, caps: Iterable[int]) -> "SimpleGraph":
        """Build the proper interval graph where u ~ v (u < v) iff v <= caps[u-1]."""
        return cls(tuple(caps))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        return cls.from_intervals([n] * n)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, cap in enumerate(self.interval_caps, start=1):
            for v in range(u + 1, cap + 1):
                yield (u, v)

    def edge_count(self) -> int:
        """The sum of cap(u) - u."""
        return sum(self.interval_caps) - self.order * (self.order + 1) // 2


def underlying_graph(g: JacoGraph) -> SimpleGraph:
    """Underlying undirected graph of a Jaco graph, with its interval
    certificate (vertex i covers indices i .. min(reach(i), n)).  The first
    vertex whose reach covers v_n is h = n - indeg(n), so the caps are the
    reaches below h and n from h on."""
    n, reaches = g.n, g.reaches
    h = n - g.in_degrees[-1]
    return SimpleGraph.from_intervals(reaches[:h - 1] + (n,) * (n - h + 1))


@dataclass(frozen=True)
class ProperColouring:
    """A proper colouring: ``assignment[v - 1]`` is the colour of v in
    1..k, ``weights[j - 1]`` the size of colour class j (all positive)."""

    assignment: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def k(self) -> int:
        """The number of colours."""
        return len(self.weights)


def colour_sum(s: ProperColouring) -> int:
    """The colour sum: sum of i * theta(c_i), the sum of the colours."""
    return sum(s.assignment)


def reverse_colouring(s: ProperColouring) -> ProperColouring:
    """Recolour by c_i -> c_{k-i+1}; properness is preserved and the
    weight vector reverses."""
    k = s.k
    return ProperColouring(
        assignment=tuple(k - c + 1 for c in s.assignment),
        weights=tuple(reversed(s.weights)),
    )


def chromatic_stats(s: ProperColouring) -> tuple[Fraction, Fraction]:
    """Mean and variance of the colour index under the colouring's pmf
    theta(c_i)/|V|, both exact rationals."""
    n = len(s.assignment)
    mean = Fraction(sum(s.assignment), n)
    second = Fraction(sum(c * c for c in s.assignment), n)
    return mean, second - mean * mean


@dataclass(frozen=True)
class ChromaticReport:
    """Chromatic number, both chromatic sums, canonical weight vectors and
    exact mean/variance statistics of one graph."""

    chi: int
    chi_minus: int
    chi_plus: int
    weights_min: tuple[int, ...]
    weights_max: tuple[int, ...]
    mu_minus: Fraction
    mu_plus: Fraction
    var_minus: Fraction
    var_plus: Fraction


def chromatic_number(graph: SimpleGraph) -> int:
    """Chromatic number of a certified graph.  It is perfect, so chi equals
    the maximum clique, the largest window [u, cap(u)]."""
    return max(map(sub, graph.interval_caps, range(1, graph.order + 1))) + 1


def min_sum_colouring(graph: SimpleGraph) -> ProperColouring:
    """Exact minimum-sum proper colouring of a certified graph, with exactly
    chi(G) colours: its first-fit colouring, which is optimal and canonical
    there (see the module docstring).  The weight vector is non-increasing.

    First-fit colours v = 1..n with the least colour no earlier neighbour
    holds.  The earlier neighbours of v are lo..v-1, where lo, the first
    vertex whose cap reaches v, only grows as the caps never decrease; each
    vertex the window start passes frees its colour onto a heap.
    """
    caps = graph.interval_caps
    free: list[int] = []
    assignment = []
    weights = []
    lo = 1
    for v in range(1, len(caps) + 1):
        while caps[lo - 1] < v:
            heappush(free, assignment[lo - 1])
            lo += 1
        if free:
            colour = heappop(free)
            weights[colour - 1] += 1
        else:
            weights.append(1)
            colour = len(weights)
        assignment.append(colour)
    return ProperColouring(tuple(assignment), tuple(weights))


def _closed_forms(
    order: int, chi: int, s1: int, s2: int
) -> tuple[int, Fraction, Fraction, Fraction]:
    """chi_plus, mu_minus, mu_plus and the variance of both sides, for a
    minimum-sum colouring of ``order`` vertices with ``chi`` colours, colour
    sum ``s1`` and squared-colour sum ``s2``.

    The maximum side is read off the minimum by the colour reversal c ->
    chi + 1 - c: the weights reverse, the mean reflects about (chi + 1) / 2
    and the variance stays.  Each rational is built once from the integer
    sums, with no Fraction arithmetic:

        mu_minus = s1 / n
        mu_plus  = ((chi + 1) * n - s1) / n
        var      = (n * s2 - s1^2) / n^2   (both sides)
    """
    chi_plus = (chi + 1) * order - s1
    return (chi_plus, Fraction(s1, order), Fraction(chi_plus, order),
            Fraction(order * s2 - s1 * s1, order * order))


def chroma_report(graph: SimpleGraph) -> ChromaticReport:
    """Full chromatic-sum report of the minimum-sum colouring of a certified
    graph: the colour sum s1 and squared-colour sum s2 of its class sizes,
    and the rest from :func:`_closed_forms`."""
    weights = min_sum_colouring(graph).weights
    colour_sums = tuple(map(mul, weights, count(1)))  # j * theta(c_j)
    s1 = sum(colour_sums)
    chi_plus, mu_minus, mu_plus, var = _closed_forms(
        graph.order, len(weights), s1, sum(map(mul, colour_sums, count(1))))
    return ChromaticReport(
        chi=len(weights),
        chi_minus=s1,
        chi_plus=chi_plus,
        weights_min=weights,
        weights_max=weights[::-1],
        mu_minus=mu_minus,
        mu_plus=mu_plus,
        var_minus=var,
        var_plus=var,
    )


def _prefix_reports(graph: SimpleGraph) -> Iterator[tuple[int, list[int], int, int]]:
    """For k = 1..order, what :func:`_closed_forms` reads the
    ``chroma_report`` of the prefix 1..k of a certified graph from, all read
    off one :func:`min_sum_colouring` of the whole graph, as first-fit
    colours each prefix as it colours the whole (see the module docstring):
    k, the class sizes (chi is their count), the colour sum and the
    squared-colour sum.  The class sizes are one running list, valid until
    the next row, so a row costs O(1) unless its caller copies them."""
    weights, s1, s2 = [], 0, 0
    for k, colour in enumerate(min_sum_colouring(graph).assignment, start=1):
        if colour > len(weights):
            weights.append(0)
        weights[colour - 1] += 1
        s1 += colour
        s2 += colour * colour
        yield k, weights, s1, s2
