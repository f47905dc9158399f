"""Brute-force reference implementations, deliberately literal and slow.

The arc sets and colourings here share no algorithmic code with the fast
paths: arc sets are rebuilt pair by pair from the defining inequality,
and colouring optima come from two searches that take a graph as a plain
tuple of neighbour masks (bit u - 1 of ``adj[v - 1]`` is set when u ~ v),
so they never see the interval structure that first-fit relies on.
:func:`from_edges` is the one maker of those masks.  An underlying Jaco
graph is searched as ``from_edges(n, arcs_by_definition(p, n))``, the
graph the definition gives rather than the certificate the fast path
reads; a certified graph ``g`` as
``oracle.from_edges(g.order, g.edges())``.

- Unpruned enumeration (:func:`exhaustive_min_sum`) takes any graph up to
  order 12; it checks the first-fit colourings of underlying Jaco graphs.
- The pruned partition search (:func:`partition_min_sum`) reaches orders
  near 25 and colours any graph; it checks first-fit on underlying x^2
  graphs up to order 20 in ``verify``.

:func:`sweep_smallest_max_degree` does share code with the fast paths: it
builds each order with ``builder.build`` and reads
``invariants.underlying_degrees``.  It still checks
``invariants.smallest_with_max_degree`` independently, as the sweep tries
every order while the locator reads its answer off f.

Tests and the verify command compare the two sides; any disagreement
indicts the fast path.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .builder import build
from .chroma import ProperColouring
from .errors import OrderTooLargeError, SearchBudgetExceededError
from .incidence import IncidencePolynomial
from .invariants import underlying_degrees

MAX_DEFINITIONAL_ORDER = 10_000
MAX_EXHAUSTIVE_ORDER = 12
DEFAULT_SEARCH_BUDGET = 5_000_000


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
    found: list[tuple[int, int]] = []  # the scan meets the pairs in sorted order
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if a * i * i + (b + 1) * i + c - indeg[i] >= j:
                found.append((i, j))
                indeg[j] += 1
    arc_set = set(found)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            holds = a * i * i + (b + 1) * i + c - indeg[i] >= j
            if holds != ((i, j) in arc_set):
                raise AssertionError(f"definitional replay unstable at pair ({i}, {j})")
    return found


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The neighbour masks of a graph on 1..order given by its edges:
    bit (u - 1) of ``masks[v - 1]`` is set when u ~ v."""
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
    return tuple(masks)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _independent(adj: tuple[int, ...], members: list[int], v: int) -> bool:
    return all(not adj[u - 1] >> (v - 1) & 1 for u in members)


def _partitions(adj: tuple[int, ...], k: int):
    """Yield every partition of the vertices into at most k independent
    classes (classes identified by their smallest vertex, so no colour
    permutations are generated)."""
    n = len(adj)
    classes: list[list[int]] = []

    def rec(v: int):
        if v > n:
            yield [list(c) for c in classes]
            return
        for c in classes:
            if _independent(adj, c, v):
                c.append(v)
                yield from rec(v + 1)
                c.pop()
        if len(classes) < k:
            classes.append([v])
            yield from rec(v + 1)
            classes.pop()

    yield from rec(1)


def _colour_sum(sizes: Iterable[int]) -> int:
    """The colour sum of classes of these sizes coloured 1, 2, ... in order."""
    return sum(i * w for i, w in enumerate(sizes, start=1))


def _chi_by_enumeration(adj: tuple[int, ...]) -> int:
    for k in range(1, len(adj) + 1):
        for _ in _partitions(adj, k):
            return k
    raise AssertionError("unreachable: n colours always suffice")


def exhaustive_min_sum(adj: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum chromatic sum and its canonical weight vector of
    the graph with neighbour masks ``adj``.

    The chromatic number is found by enumeration from k = 1 upward, then
    every partition into exactly chi classes is enumerated without any
    pruning.  Per partition, the cheapest labelling puts larger classes on
    smaller colour indices, so the candidate weight vector is the class
    sizes in non-increasing order; the reported vector is the
    lexicographically greatest one among the minimum-sum partitions.
    """
    if not adj:
        raise ValueError("order must be >= 1, got 0")
    if len(adj) > MAX_EXHAUSTIVE_ORDER:
        raise OrderTooLargeError(f"exhaustive oracle capped at order {MAX_EXHAUSTIVE_ORDER}")
    chi = _chi_by_enumeration(adj)
    best_sum: int | None = None
    best_weights: tuple[int, ...] | None = None
    for classes in _partitions(adj, chi):
        if len(classes) != chi:
            continue
        weights = tuple(sorted((len(c) for c in classes), reverse=True))
        total = _colour_sum(weights)
        if best_sum is None or total < best_sum or (total == best_sum and weights > best_weights):
            best_sum = total
            best_weights = weights
    return best_sum, best_weights


def _greedy_clique(adj: tuple[int, ...]) -> int:
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    best = 0
    for start in order[:4]:
        clique = 1
        cand = adj[start]
        while cand:
            v = max(_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            clique += 1
            cand &= adj[v]
        best = max(best, clique)
    return best


def _partition_search(
    adj: tuple[int, ...], k: int, spend: Callable[[], None]
) -> ProperColouring | None:
    """Exact minimum-sum search over colour-class partitions.

    Vertices are placed one at a time (most-constrained first) into an
    existing compatible class or a fresh one, so colour labels never
    appear during the search and no label symmetry is explored.  A branch
    is cut when even the optimistic completion (every remaining vertex
    joining the largest class for +1) cannot beat the incumbent; equal
    bounds are kept alive because ties are broken canonically at leaves.

    Each node visited calls ``spend``.  Returns the canonical minimum-sum
    colouring with exactly k classes, or None when there is none.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    conflicts: list[int] = []  # per class, the vertices it may not take
    members: list[list[int]] = []
    best = None  # (sum, negated weights, assignment) of the incumbent

    def place(pos: int) -> None:
        nonlocal best
        spend()
        remaining = n - pos
        m = len(members)
        if m + remaining < k:
            return
        if pos == n:  # m == k here, as fewer classes were cut above
            ranked = sorted(members, key=lambda c: (-len(c), min(c)))
            assignment = [0] * n
            for colour, c in enumerate(ranked, start=1):
                for v in c:
                    assignment[v] = colour
            key = (_colour_sum(map(len, ranked)), tuple(-len(c) for c in ranked),
                   tuple(assignment))
            if best is None or key < best:
                best = key
            return
        if best is not None:
            if _colour_sum(sorted(map(len, members), reverse=True)) + remaining > best[0]:
                return
        v = order[pos]
        bit = 1 << v
        neigh = adj[v]
        for t in range(m):
            saved = conflicts[t]
            if not saved & bit:
                conflicts[t] = saved | neigh
                members[t].append(v)
                place(pos + 1)
                members[t].pop()
                conflicts[t] = saved
        if m < k:
            conflicts.append(neigh)
            members.append([v])
            place(pos + 1)
            members.pop()
            conflicts.pop()

    try:
        place(0)
    except RecursionError:
        raise SearchBudgetExceededError(
            f"partition search on {n} vertices exceeds the recursion limit"
        ) from None
    return None if best is None else ProperColouring(best[2], tuple(-w for w in best[1]))


def partition_min_sum(
    adj: tuple[int, ...], node_budget: int = DEFAULT_SEARCH_BUDGET
) -> ProperColouring:
    """Exact minimum-sum proper colouring with exactly chi(G) colours, by the
    partition search over the neighbour masks ``adj``, for any graph.

    k counts up from a greedy clique bound (n singleton classes always
    fit), and the first k whose search finds a colouring is chi: below chi
    no search reaches a leaf.  All k share one node budget, and
    :class:`SearchBudgetExceededError` is raised when the instance is too
    hard for it.  The result is canonical, as ``chroma`` defines it: the
    lexicographically greatest weight vector, then the lexicographically
    smallest assignment.
    """
    if not adj:
        raise ValueError("order must be >= 1, got 0")
    left = node_budget
    k = _greedy_clique(adj)

    def spend() -> None:
        nonlocal left
        left -= 1
        if left < 0:
            raise SearchBudgetExceededError(
                f"exact search on {len(adj)} vertices with k = {k}"
                f" spent its node budget of {node_budget}"
            )

    while (colouring := _partition_search(adj, k, spend)) is None:
        k += 1
    return colouring


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
