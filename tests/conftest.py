"""Shared strategies, literal reference helpers, and the acceptance summary."""

from itertools import combinations, product

from hypothesis import strategies as st

from jacograph import IncidencePolynomial
from jacograph.oracle import from_edges


@st.composite
def polynomials(draw, max_a=3, max_b=3, max_c=3):
    return IncidencePolynomial(
        draw(st.integers(0, max_a)),
        draw(st.integers(0, max_b)),
        draw(st.integers(0, max_c)),
    )


@st.composite
def quadratic_polynomials(draw, max_a=3, max_b=3, max_c=3):
    return IncidencePolynomial(
        draw(st.integers(1, max_a)),
        draw(st.integers(0, max_b)),
        draw(st.integers(0, max_c)),
    )


@st.composite
def small_graphs(draw, max_order=8):
    """The adjacency masks of an arbitrary graph."""
    order = draw(st.integers(1, max_order))
    pairs = list(combinations(range(1, order + 1), 2))
    edges = [pair for pair in pairs if draw(st.booleans())]
    return from_edges(order, edges)


def grotzsch_graph():
    """The adjacency masks of a triangle-free graph (clique bound 2) with
    chi = 4."""
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(i + 5, (i - 2) % 5 + 1) for i in range(1, 6)]
    edges += [(i + 5, i % 5 + 1) for i in range(1, 6)]
    edges += [(i + 5, 11) for i in range(1, 6)]
    return from_edges(11, edges)


def graph_masks(g):
    """The adjacency masks of a ``SimpleGraph``, made by the oracle's one
    mask maker from its edge list."""
    return from_edges(g.order, g.edges())


def mask_edges(adj):
    """Every edge (u, v), u < v, of the graph with adjacency masks ``adj``,
    read pair by pair."""
    n = len(adj)
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if adj[u - 1] >> (v - 1) & 1]


def is_proper(adj, colouring):
    """Whether ``colouring`` properly colours the graph with adjacency masks
    ``adj``, using each of its colours 1..k as often as its weights say."""
    a = colouring.assignment
    weights = tuple(a.count(c) for c in range(1, colouring.k + 1))
    return (len(a) == len(adj) and weights == colouring.weights and 0 not in weights
            and all(a[u - 1] != a[v - 1] for u, v in mask_edges(adj)))


@st.composite
def non_decreasing_caps(draw, max_order=40):
    """Caps of a proper interval graph: caps[v-1] in v..order, never decreasing."""
    order = draw(st.integers(1, max_order))
    caps = []
    for v in range(1, order + 1):
        caps.append(draw(st.integers(max(v, caps[-1] if caps else 1), order)))
    return caps


def product_sum_range(adj):
    """Fully literal reference: enumerate every colour assignment tuple of
    the graph with adjacency masks ``adj``.

    Finds chi by trying k = 1 upward, then walks all k^n assignments,
    keeping the proper ones that use every colour.  Returns
    (chi, min_sum, max_sum, lex-greatest minimum weight vector).
    Only sane for very small graphs.
    """
    n = len(adj)
    edges = mask_edges(adj)

    def proper(assign):
        return all(assign[u - 1] != assign[v - 1] for u, v in edges)

    chi = None
    for k in range(1, n + 1):
        if any(proper(assign) for assign in product(range(1, k + 1), repeat=n)):
            chi = k
            break
    best_min = None
    best_max = None
    best_weights = None
    for assign in product(range(1, chi + 1), repeat=n):
        if not proper(assign):
            continue
        weights = [0] * chi
        for colour in assign:
            weights[colour - 1] += 1
        if 0 in weights:
            continue
        total = sum(i * w for i, w in enumerate(weights, start=1))
        if best_min is None or total < best_min:
            best_min = total
            best_weights = tuple(weights)
        elif total == best_min and tuple(weights) > best_weights:
            best_weights = tuple(weights)
        if best_max is None or total > best_max:
            best_max = total
    return chi, best_min, best_max, best_weights


ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
