"""Exact chromatic-sum analysis on undirected simple graphs.

The colour sum of a proper colouring S with colour weights theta(c_1),
..., theta(c_k) is sum_i i*theta(c_i).  The minimum chromatic sum
(chi-minus) and maximum chromatic sum (chi-plus) range over proper
colourings that use exactly chi(G) colours, never more.  Reversing the
colour indices (c_i -> c_{k-i+1}) is a bijection on those colourings that
maps a sum s to (chi+1)*|V| - s, so

    chi_minus + chi_plus = (chi(G) + 1) * |V(G)|

and chi-plus never needs a second search.

The exact solver enumerates colour-class partitions (no colour-label
symmetry) with branch-and-bound pruning.  Within a fixed partition, the
optimal labelling is forced: larger classes take smaller colour indices,
so an optimal weight vector is always non-increasing.  Among optimal
colourings the result is canonicalized: lexicographically greatest weight
vector first, then lexicographically smallest vertex-to-colour assignment.

Graphs built from Jaco reaches carry a proper-interval certificate: caps
cap(1) <= cap(2) <= ... with u ~ v (u < v) exactly when v <= cap(u).
Because the caps never decrease, every closed neighbourhood is an index
range and every window [u, cap(u)] is a clique, so the chromatic number is
the largest window, max(cap(u) - u) + 1, read off in O(n).  Graphs without
the certificate go through an exact search that is practical up to roughly
25 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .builder import JacoGraph
from .errors import JacoError, SearchBudgetExceededError

DEFAULT_SEARCH_BUDGET = 5_000_000


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 1..order.

    ``adjacency[v - 1]`` is a bitmask with bit (u - 1) set when u ~ v.
    ``interval_caps``, when present, certifies proper interval structure:
    the caps are non-decreasing and u ~ v for u < v exactly when
    v <= interval_caps[u - 1].
    """

    order: int
    adjacency: tuple[int, ...]
    interval_caps: tuple[int, ...] | None = None

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        masks = [0] * order
        for u, v in edges:
            if not (1 <= u <= order and 1 <= v <= order):
                raise ValueError(f"edge ({u}, {v}) outside 1..{order}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return cls(order, tuple(masks))

    @classmethod
    def from_intervals(cls, caps: Iterable[int]) -> "SimpleGraph":
        """Build the proper interval graph where u ~ v (u < v) iff v <= caps[u-1].

        The caps must be non-decreasing, with caps[u-1] in u..order.  The
        closed neighbourhood of v is then the range lo..caps[v-1], where lo
        is the first vertex whose cap reaches v and only moves forward.
        """
        caps = tuple(caps)
        order = len(caps)
        if order < 1:
            raise ValueError("at least one vertex required")
        masks = []
        lo = 1
        for v, cap in enumerate(caps, start=1):
            if not v <= cap <= order:
                raise ValueError(f"cap of vertex {v} must lie in {v}..{order}, got {cap}")
            if v > 1 and cap < caps[v - 2]:
                raise ValueError(f"caps must be non-decreasing, got {caps[v - 2]} then {cap}")
            while caps[lo - 1] < v:
                lo += 1
            masks.append((1 << cap) - (1 << (lo - 1)) - (1 << (v - 1)))
        return cls(order, tuple(masks), caps)

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        return cls.from_intervals([n] * n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u - 1] >> (v - 1) & 1)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(b + 1 for b in _bits(self.adjacency[v - 1]))

    def degree(self, v: int) -> int:
        return self.adjacency[v - 1].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(1, self.order + 1):
            rest = self.adjacency[u - 1] >> u  # neighbours above u
            for b in _bits(rest):
                yield (u, u + 1 + b)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adjacency) // 2


def underlying_graph(g: JacoGraph) -> SimpleGraph:
    """Underlying undirected graph of a Jaco graph, with its interval
    certificate (vertex i covers indices i .. min(reach(i), n))."""
    n = g.n
    return SimpleGraph.from_intervals(min(r, n) for r in g.reaches)


@dataclass(frozen=True)
class ProperColouring:
    """A proper colouring: ``assignment[v - 1]`` is the colour of v in
    1..k, ``weights[j - 1]`` the size of colour class j (all positive)."""

    assignment: tuple[int, ...]
    k: int
    weights: tuple[int, ...]

    @classmethod
    def from_assignment(cls, graph: SimpleGraph, assignment: Iterable[int]) -> "ProperColouring":
        assignment = tuple(assignment)
        if len(assignment) != graph.order:
            raise ValueError("assignment length differs from graph order")
        k = max(assignment)
        if min(assignment) < 1:
            raise ValueError("colours must be positive integers")
        weights = [0] * k
        for colour in assignment:
            weights[colour - 1] += 1
        if 0 in weights:
            raise ValueError("every colour in 1..k must be used")
        for u, v in graph.edges():
            if assignment[u - 1] == assignment[v - 1]:
                raise ValueError(f"adjacent vertices {u} and {v} share colour {assignment[u - 1]}")
        return cls(assignment, k, tuple(weights))


def colour_sum(s: ProperColouring) -> int:
    """The colour sum: sum of i * theta(c_i)."""
    return sum(i * w for i, w in enumerate(s.weights, start=1))


def reverse_colouring(s: ProperColouring) -> ProperColouring:
    """Recolour by c_i -> c_{k-i+1}; properness is preserved and the
    weight vector reverses."""
    k = s.k
    return ProperColouring(
        assignment=tuple(k - c + 1 for c in s.assignment),
        k=k,
        weights=tuple(reversed(s.weights)),
    )


def chromatic_stats(s: ProperColouring) -> tuple[Fraction, Fraction]:
    """Mean and variance of the colour index under the colouring's pmf
    theta(c_i)/|V|, both exact rationals."""
    n = sum(s.weights)
    mean = Fraction(sum(i * w for i, w in enumerate(s.weights, start=1)), n)
    second = Fraction(sum(i * i * w for i, w in enumerate(s.weights, start=1)), n)
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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise SearchBudgetExceededError("exact search exceeded its node budget")


def _greedy_clique(adj: tuple[int, ...], n: int) -> int:
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best = 0
    for start in order[: min(4, n)]:
        clique = 1
        cand = adj[start]
        while cand:
            v = max(_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            clique += 1
            cand &= adj[v]
        best = max(best, clique)
    return best


def _first_fit(adj: tuple[int, ...], order: list[int]) -> list[int]:
    colours = [0] * len(adj)
    for v in order:
        used = {colours[u] for u in _bits(adj[v]) if colours[u]}
        c = 1
        while c in used:
            c += 1
        colours[v] = c
    return colours


def _k_colourable(adj: tuple[int, ...], order: list[int], k: int, budget: _Budget) -> bool:
    n = len(order)
    colours = [0] * len(adj)

    def rec(pos: int, max_used: int) -> bool:
        budget.spend()
        if pos == n:
            return True
        v = order[pos]
        forbidden = 0
        for u in _bits(adj[v]):
            if colours[u]:
                forbidden |= 1 << colours[u]
        for c in range(1, min(k, max_used + 1) + 1):
            if not (forbidden >> c) & 1:
                colours[v] = c
                if rec(pos + 1, max(max_used, c)):
                    return True
        colours[v] = 0
        return False

    return rec(0, 0)


def chromatic_number(graph: SimpleGraph, node_budget: int = DEFAULT_SEARCH_BUDGET) -> int:
    """Exact chromatic number.

    Interval-certified graphs are perfect, so chi equals the maximum
    clique, the largest window [u, cap(u)].  Other graphs go through an
    exact colourability search from a greedy clique lower bound up to a
    first-fit upper bound; raises :class:`SearchBudgetExceededError` when
    the instance is too hard for the budget.
    """
    if graph.interval_caps is not None:
        return max(cap - u for u, cap in enumerate(graph.interval_caps, start=1)) + 1
    adj = graph.adjacency
    n = graph.order
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    upper = max(_first_fit(adj, order))
    budget = _Budget(node_budget)
    for k in range(_greedy_clique(adj, n), upper):
        if _k_colourable(adj, order, k, budget):
            return k
    return upper


class _PartitionSearch:
    """Exact minimum-sum search over colour-class partitions.

    Vertices are placed one at a time (most-constrained first) into an
    existing compatible class or a fresh one, so colour labels never
    appear during the search and no label symmetry is explored.  A branch
    is cut when even the optimistic completion (every remaining vertex
    joining the largest class for +1) cannot beat the incumbent; equal
    bounds are kept alive because ties are broken canonically at leaves.
    """

    def __init__(self, graph: SimpleGraph, k: int, budget: _Budget):
        self.adj = graph.adjacency
        self.n = graph.order
        self.k = k
        self.budget = budget
        self.order = sorted(range(self.n), key=lambda v: (-self.adj[v].bit_count(), v))
        self.conflicts: list[int] = []
        self.members: list[list[int]] = []
        self.sizes: list[int] = []
        self.best_sum: int | None = None
        self.best_key: tuple | None = None
        self.best_weights: tuple[int, ...] | None = None
        self.best_assignment: tuple[int, ...] | None = None

    def run(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        self._place(0)
        if self.best_sum is None:
            # impossible when k = chi(G); guards an inconsistent caller
            raise JacoError(f"no partition into {self.k} independent classes exists")
        return self.best_sum, self.best_weights, self.best_assignment

    def _leaf(self) -> None:
        sizes = self.sizes
        ranked = sorted(range(len(sizes)), key=lambda t: (-sizes[t], min(self.members[t])))
        weights = tuple(sizes[t] for t in ranked)
        total = sum(i * w for i, w in enumerate(weights, start=1))
        assignment = [0] * self.n
        for colour, t in enumerate(ranked, start=1):
            for v in self.members[t]:
                assignment[v] = colour
        assignment = tuple(assignment)
        key = (total, tuple(-w for w in weights), assignment)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_sum = total
            self.best_weights = weights
            self.best_assignment = assignment

    def _place(self, pos: int) -> None:
        self.budget.spend()
        remaining = self.n - pos
        m = len(self.sizes)
        if m + remaining < self.k:
            return
        if pos == self.n:
            if m == self.k:
                self._leaf()
            return
        if self.best_sum is not None:
            bound = (
                sum(i * w for i, w in enumerate(sorted(self.sizes, reverse=True), start=1))
                + remaining
            )
            if bound > self.best_sum:
                return
        v = self.order[pos]
        bit = 1 << v
        neigh = self.adj[v]
        for t in range(m):
            if not self.conflicts[t] & bit:
                saved = self.conflicts[t]
                self.conflicts[t] = saved | neigh
                self.members[t].append(v)
                self.sizes[t] += 1
                self._place(pos + 1)
                self.sizes[t] -= 1
                self.members[t].pop()
                self.conflicts[t] = saved
        if m < self.k:
            self.conflicts.append(neigh)
            self.members.append([v])
            self.sizes.append(1)
            self._place(pos + 1)
            self.sizes.pop()
            self.members.pop()
            self.conflicts.pop()


def min_sum_colouring(
    graph: SimpleGraph, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> ProperColouring:
    """Exact minimum-sum proper colouring with exactly chi(G) colours.

    Among all optima the returned colouring has the lexicographically
    greatest weight vector, and among those the lexicographically smallest
    vertex-to-colour assignment.  The weight vector is non-increasing
    (larger classes on smaller colour indices is forced by optimality).
    """
    k = chromatic_number(graph, node_budget)
    budget = _Budget(node_budget)
    total, weights, assignment = _PartitionSearch(graph, k, budget).run()
    return ProperColouring(assignment=assignment, k=k, weights=weights)


def _mis_size(avail: int, adj: tuple[int, ...], budget: _Budget) -> int:
    best = 0

    def rec(mask: int, size: int) -> None:
        nonlocal best
        budget.spend()
        if not mask:
            if size > best:
                best = size
            return
        if size + mask.bit_count() <= best:
            return
        v = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        rec(mask & ~(adj[v] | (1 << v)), size + 1)
        if adj[v] & mask:
            rec(mask & ~(1 << v), size)

    rec(avail, 0)
    return best


def _lexmin_mis(avail: int, adj: tuple[int, ...], budget: _Budget) -> int:
    """Lexicographically smallest maximum independent set within ``avail``,
    as a bitmask (vertex sets compared as ascending index sequences)."""
    need = _mis_size(avail, adj, budget)
    chosen = 0
    rest = avail
    while need:
        for v in _bits(rest):
            higher = rest & ~((1 << (v + 1)) - 1) & ~adj[v]
            if _mis_size(higher, adj, budget) >= need - 1:
                chosen |= 1 << v
                rest = higher
                need -= 1
                break
    return chosen


def greedy_min_sum(
    graph: SimpleGraph, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> ProperColouring:
    """Iterated maximum-independent-set colouring.

    Colour 1 takes a maximum independent set of the graph, colour 2 a
    maximum independent set of what remains, and so on; ties between
    maximum independent sets are broken towards the lexicographically
    smallest vertex set.  Not guaranteed to minimize the colour sum on
    every graph; the exact solver is the reference.
    """
    adj = graph.adjacency
    budget = _Budget(node_budget)
    remaining = (1 << graph.order) - 1
    assignment = [0] * graph.order
    weights = []
    colour = 0
    while remaining:
        colour += 1
        cls = _lexmin_mis(remaining, adj, budget)
        for v in _bits(cls):
            assignment[v] = colour
        weights.append(cls.bit_count())
        remaining &= ~cls
    return ProperColouring(assignment=tuple(assignment), k=colour, weights=tuple(weights))


def chroma_report(
    graph: SimpleGraph, node_budget: int = DEFAULT_SEARCH_BUDGET
) -> ChromaticReport:
    """Full chromatic-sum report.

    chi-plus and the maximum-side weights come from the colour-reversal
    bijection ((chi+1)*n - chi_minus and the reversed weight vector), which
    matches a direct maximum search by the reversal argument.
    """
    minimum = min_sum_colouring(graph, node_budget)
    maximum = reverse_colouring(minimum)
    n = graph.order
    chi = minimum.k
    chi_minus = colour_sum(minimum)
    mu_minus, var_minus = chromatic_stats(minimum)
    mu_plus, var_plus = chromatic_stats(maximum)
    return ChromaticReport(
        chi=chi,
        chi_minus=chi_minus,
        chi_plus=(chi + 1) * n - chi_minus,
        weights_min=minimum.weights,
        weights_max=maximum.weights,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
        var_minus=var_minus,
        var_plus=var_plus,
    )
