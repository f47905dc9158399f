"""Brute-force reference implementations, deliberately literal and slow.

Nothing here shares algorithmic code with the fast paths: arc sets are
rebuilt pair by pair from the defining inequality, and colouring optima
come from unpruned enumeration.  Tests and the verify command compare the
two sides; any disagreement indicts the fast path.
"""

from __future__ import annotations

from .builder import build
from .chroma import SimpleGraph
from .errors import OrderTooLargeError, SearchBudgetExceededError
from .incidence import IncidencePolynomial
from .invariants import underlying_degrees

MAX_DEFINITIONAL_ORDER = 10_000
MAX_EXHAUSTIVE_ORDER = 12


def arcs_by_definition(p: IncidencePolynomial, n: int) -> list[tuple[int, int]]:
    """Recompute the arc set straight from the defining inequality.

    Forward simulation: scanning i = 1..n, the arc (i, j) is present iff
    a*i^2 + (b+1)*i + c - indeg(i) >= j, and each arc found bumps the
    in-degree of its head.  Afterwards every ordered pair is re-validated
    against the predicate on the final in-degrees.  O(n^2); the fast
    builder never touches pairs at all.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_DEFINITIONAL_ORDER:
        raise OrderTooLargeError(f"definitional oracle capped at {MAX_DEFINITIONAL_ORDER}")
    a, b, c = p.a, p.b, p.c
    indeg = [0] * (n + 1)
    arc_set: set[tuple[int, int]] = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if a * i * i + (b + 1) * i + c - indeg[i] >= j:
                arc_set.add((i, j))
                indeg[j] += 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            holds = a * i * i + (b + 1) * i + c - indeg[i] >= j
            if holds != ((i, j) in arc_set):
                raise AssertionError(f"definitional replay unstable at pair ({i}, {j})")
    return sorted(arc_set)


def _independent(graph: SimpleGraph, members: list[int], v: int) -> bool:
    return all(not graph.has_edge(u, v) for u in members)


def _partitions(graph: SimpleGraph, k: int):
    """Yield every partition of the vertices into at most k independent
    classes (classes identified by their smallest vertex, so no colour
    permutations are generated)."""
    n = graph.order
    classes: list[list[int]] = []

    def rec(v: int):
        if v > n:
            yield [list(c) for c in classes]
            return
        for c in classes:
            if _independent(graph, c, v):
                c.append(v)
                yield from rec(v + 1)
                c.pop()
        if len(classes) < k:
            classes.append([v])
            yield from rec(v + 1)
            classes.pop()

    yield from rec(1)


def _chi_by_enumeration(graph: SimpleGraph) -> int:
    for k in range(1, graph.order + 1):
        for _ in _partitions(graph, k):
            return k
    raise AssertionError("unreachable: n colours always suffice")


def exhaustive_min_sum(graph: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum chromatic sum and its canonical weight vector.

    The chromatic number is found by enumeration from k = 1 upward, then
    every partition into exactly chi classes is enumerated without any
    pruning.  Per partition, the cheapest labelling puts larger classes on
    smaller colour indices, so the candidate weight vector is the class
    sizes in non-increasing order; the reported vector is the
    lexicographically greatest one among the minimum-sum partitions.
    """
    if graph.order > MAX_EXHAUSTIVE_ORDER:
        raise OrderTooLargeError(f"exhaustive oracle capped at order {MAX_EXHAUSTIVE_ORDER}")
    chi = _chi_by_enumeration(graph)
    best_sum: int | None = None
    best_weights: tuple[int, ...] | None = None
    for classes in _partitions(graph, chi):
        if len(classes) != chi:
            continue
        weights = tuple(sorted((len(c) for c in classes), reverse=True))
        total = sum(i * w for i, w in enumerate(weights, start=1))
        if best_sum is None or total < best_sum or (total == best_sum and weights > best_weights):
            best_sum = total
            best_weights = weights
    return best_sum, best_weights


def sweep_smallest_max_degree(
    p: IncidencePolynomial, target: int, max_order: int = 20_000
) -> int:
    """Smallest order whose maximum underlying degree equals ``target``,
    found by building every order from 1 upward.  Raises
    :class:`SearchBudgetExceededError` past ``max_order`` or if the target
    is skipped over."""
    if target < max_order:  # an order-n graph has maximum degree at most n - 1
        for n in range(1, max_order + 1):
            delta = max(underlying_degrees(build(p, n)))
            if delta == target:
                return n
            if delta > target:
                raise SearchBudgetExceededError(
                    f"maximum degree jumped past {target} (reached {delta} at order {n})"
                )
    raise SearchBudgetExceededError(f"target degree {target} not reached by order {max_order}")
