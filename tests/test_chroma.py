import tracemalloc
from collections import deque
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jacograph import (
    BraidedString,
    ChromaticReport,
    IncidencePolynomial,
    ProperColouring,
    SearchBudgetExceededError,
    SimpleGraph,
    build,
    chroma_report,
    chromatic_number,
    chromatic_stats,
    colour_sum,
    min_sum_colouring,
    mu_min_two_block,
    parse,
    realize,
    reverse_colouring,
    underlying_graph,
)
from jacograph.chroma import _closed_forms, _prefix_reports
from jacograph.oracle import arcs_by_definition, exhaustive_min_sum, from_edges, partition_min_sum
from conftest import (
    graph_masks,
    grotzsch_graph,
    is_proper,
    mask_edges,
    non_decreasing_caps,
    polynomials,
    product_sum_range,
    small_graphs,
)

X2 = IncidencePolynomial(1, 0, 0)


def jaco_underlying(n, p=X2):
    return underlying_graph(build(p, n))


def definitional_masks(n, p=X2):
    """The oracle's masks of the order-n Jaco graph, made from its
    definitional arcs, so they read neither the builder nor the caps."""
    return from_edges(n, arcs_by_definition(p, n))


def test_chromatic_number_examples():
    assert chromatic_number(SimpleGraph.complete(5)) == 5
    assert chromatic_number(jaco_underlying(9)) == 7
    assert chromatic_number(SimpleGraph.from_intervals(range(1, 7))) == 1


@given(non_decreasing_caps(max_order=10))
@settings(max_examples=100, deadline=None)
def test_chromatic_number_matches_exhaustive_partitions(caps):
    g = SimpleGraph.from_intervals(caps)
    assert chromatic_number(g) == len(exhaustive_min_sum(graph_masks(g))[1])


def test_certificate_agrees_with_generic_search():
    for n in range(1, 16):
        assert chromatic_number(jaco_underlying(n)) == partition_min_sum(definitional_masks(n)).k


def test_min_sum_examples():
    nine = min_sum_colouring(jaco_underlying(9))
    assert nine.weights == (2, 2, 1, 1, 1, 1, 1)
    assert colour_sum(nine) == 31

    k4 = min_sum_colouring(SimpleGraph.complete(4))
    assert k4.weights == (1, 1, 1, 1)
    assert colour_sum(k4) == 10

    twelve = min_sum_colouring(jaco_underlying(12))
    assert twelve.weights == (3, 2, 1, 1, 1, 1, 1, 1, 1)
    assert colour_sum(twelve) == 49


def test_min_sum_canonical_assignment():
    colouring = min_sum_colouring(jaco_underlying(6))
    classes = {}
    for v, c in enumerate(colouring.assignment, start=1):
        classes.setdefault(c, []).append(v)
    assert classes == {1: [1, 3], 2: [2, 6], 3: [4], 4: [5]}


def test_greedy_matches_exact_on_reference_family():
    for n in range(1, 21):
        # first-fit on the caps, the search on the definitional arcs
        exact = partition_min_sum(definitional_masks(n))
        greedy = min_sum_colouring(jaco_underlying(n))
        assert greedy.weights == exact.weights
        assert colour_sum(greedy) == colour_sum(exact)


def test_reverse_examples():
    nine = min_sum_colouring(jaco_underlying(9))
    assert reverse_colouring(nine).weights == (1, 1, 1, 1, 1, 2, 2)

    single = ProperColouring(assignment=(1, 1), weights=(2,))
    assert reverse_colouring(single) == single

    twelve = reverse_colouring(min_sum_colouring(jaco_underlying(12)))
    assert twelve.weights == (1, 1, 1, 1, 1, 1, 1, 2, 3)
    assert colour_sum(twelve) == 71


def test_colour_sum_examples():
    assert colour_sum(ProperColouring((1, 2, 3, 4), (1, 1, 1, 1))) == 10
    assert colour_sum(ProperColouring((1,) * 5, (5,))) == 5


def test_chromatic_stats_examples():
    k5 = min_sum_colouring(SimpleGraph.complete(5))
    assert chromatic_stats(k5) == (Fraction(3), Fraction(2))

    six = min_sum_colouring(jaco_underlying(6))
    assert chromatic_stats(six) == (Fraction(13, 6), Fraction(41, 36))

    single = min_sum_colouring(SimpleGraph.from_intervals([1]))
    assert chromatic_stats(single) == (Fraction(1), Fraction(0))


def test_chroma_report_examples():
    nine = chroma_report(jaco_underlying(9))
    assert (nine.chi_minus, nine.chi_plus) == (31, 41)
    assert (nine.mu_minus, nine.mu_plus) == (Fraction(31, 9), Fraction(41, 9))
    assert nine.var_minus == nine.var_plus == Fraction(344, 81)

    k7 = chroma_report(SimpleGraph.complete(7))
    assert k7.chi_minus == k7.chi_plus == 28
    assert k7.mu_minus == k7.mu_plus == Fraction(4)
    assert k7.var_minus == k7.var_plus == Fraction(4)

    three = chroma_report(jaco_underlying(3))
    assert (three.chi_minus, three.chi_plus) == (4, 5)


def closed_form_report(order, weights, s1, s2):
    """The report of a minimum-sum colouring with class sizes ``weights``,
    colour sum ``s1`` and squared-colour sum ``s2``, by ``_closed_forms``."""
    chi_plus, mu_minus, mu_plus, var = _closed_forms(order, len(weights), s1, s2)
    return ChromaticReport(len(weights), s1, chi_plus, weights, weights[::-1],
                           mu_minus, mu_plus, var, var)


def prefix_reports(graph):
    """Every prefix's report, from a copy of the running class sizes."""
    return [closed_form_report(k, tuple(weights), s1, s2)
            for k, weights, s1, s2 in _prefix_reports(graph)]


@pytest.mark.parametrize("p", [
    IncidencePolynomial(a, b, c) for a in range(3) for b in range(3) for c in range(5)
])
def test_prefix_reports_match_each_literal_order(p):
    n = 120
    reports = prefix_reports(jaco_underlying(n, p))
    assert reports == [chroma_report(jaco_underlying(k, p)) for k in range(1, n + 1)]


@pytest.mark.parametrize("orders, overlaps", [((7, 5), (3,)), ((6, 6, 6), (3, 3)), ((40,), ())])
def test_prefix_reports_match_each_literal_braid_prefix(orders, overlaps):
    graph = realize(BraidedString(orders, overlaps))
    caps = graph.interval_caps
    reports = prefix_reports(graph)
    assert reports == [
        chroma_report(SimpleGraph.from_intervals(min(c, k) for c in caps[:k]))
        for k in range(1, len(caps) + 1)
    ]


@given(st.lists(st.integers(1, 60), min_size=1, max_size=40).map(lambda w: sorted(w, reverse=True)))
@example([1])  # chi = 1 = n
@example([9])  # chi = 1
@example([1] * 17)  # chi = n
@example([5, 3, 3, 1])
def test_report_closed_forms_match_fraction_arithmetic(weights):
    weights = tuple(weights)
    minimum = ProperColouring(
        tuple(c for c, w in enumerate(weights, start=1) for _ in range(w)), weights
    )
    maximum = reverse_colouring(minimum)
    s1 = sum(c * w for c, w in enumerate(weights, start=1))
    s2 = sum(c * c * w for c, w in enumerate(weights, start=1))
    n = len(minimum.assignment)
    chi_plus, mu_minus, mu_plus, var = _closed_forms(n, len(weights), s1, s2)
    assert (s1, chi_plus) == (colour_sum(minimum), colour_sum(maximum))
    assert (mu_minus, var) == chromatic_stats(minimum)
    assert (mu_plus, var) == chromatic_stats(maximum)


@pytest.mark.parametrize("make, least", [
    pytest.param(lambda: from_edges(9, [(i, i % 9 + 1) for i in range(1, 10)]),
                 177, id="9-cycle"),
    pytest.param(lambda: definitional_masks(16), 669, id="stripped-x2-16"),
    pytest.param(lambda: definitional_masks(20), 3364, id="stripped-x2-20"),
    pytest.param(grotzsch_graph, 828, id="groetzsch"),
])
def test_least_search_budgets_are_pinned(make, least):
    # the fewest nodes with which oracle.partition_min_sum succeeds; a
    # change to the search order, the pruning or the budget policy moves it
    graph = make()
    partition_min_sum(graph, node_budget=least)
    with pytest.raises(SearchBudgetExceededError):
        partition_min_sum(graph, node_budget=least - 1)


@given(st.one_of(polynomials(), polynomials(10, 10, 10)), st.integers(1, 300))
@example(parse("0"), 300)
@example(parse("3"), 300)
@example(parse("0"), 1)
@example(parse("3"), 1)
@example(X2, 1)
@settings(max_examples=200)
def test_caps_are_the_clipped_reaches_cut_where_v_n_is_first_reached(p, n):
    g = build(p, n)
    assert underlying_graph(g).interval_caps == tuple(min(r, n) for r in g.reaches)
    first = next(m for m in range(1, n + 1) if g.reaches[m - 1] >= n)
    assert n - g.in_degrees[-1] == first


@given(non_decreasing_caps(max_order=14))
@settings(max_examples=200, deadline=None)
def test_certified_colourings_match_the_searches(caps):
    g = SimpleGraph.from_intervals(caps)
    assert min_sum_colouring(g) == partition_min_sum(graph_masks(g))


def alpha_greedy(caps, j):
    """The vertices of the largest subgraph j colours can colour, by the
    greedy by right end: u joins when fewer than j chosen intervals still
    cover u (their caps reach u)."""
    taken = []
    covering = deque()  # caps of the chosen intervals, ascending
    for u, cap in enumerate(caps, start=1):
        while covering and covering[0] < u:
            covering.popleft()
        if len(covering) < j:
            covering.append(cap)
            taken.append(u)
    return taken


@given(non_decreasing_caps())
@example(list(jaco_underlying(150).interval_caps))
@example(list(realize(BraidedString((600, 600), (1,))).interval_caps))
@settings(max_examples=200, deadline=None)
def test_first_fit_classes_are_the_greedy_alpha_sets(caps):
    # the optimality lemma of the certified path: the first j classes
    # are the alpha_j greedy's set, so W_j = alpha_j for every j
    g = SimpleGraph.from_intervals(caps)
    colouring = min_sum_colouring(g)
    assert colouring.k == chromatic_number(g)
    for j in range(1, colouring.k + 1):
        low = [v for v, c in enumerate(colouring.assignment, start=1) if c <= j]
        assert low == alpha_greedy(caps, j)


def test_certified_graphs_past_the_search_spend_no_nodes():
    # each of these exhausts the partition search's default budget; the
    # certified path colours them with no search at all
    x2 = jaco_underlying(60)
    colouring = min_sum_colouring(x2)
    assert is_proper(graph_masks(x2), colouring)
    assert colour_sum(colouring) == 1449
    assert chroma_report(jaco_underlying(24, parse("3"))).chi_minus == 60
    braid = realize(BraidedString((20, 15), (7,)))
    assert chroma_report(braid).mu_minus == Fraction(123, 14)
    assert mu_min_two_block(20, 15, 7) == Fraction(123, 14)


@given(non_decreasing_caps(max_order=10).map(SimpleGraph.from_intervals))
@settings(max_examples=120, deadline=None)
def test_solver_matches_partition_oracle(g):
    colouring = min_sum_colouring(g)
    expected_sum, expected_weights = exhaustive_min_sum(graph_masks(g))
    assert colour_sum(colouring) == expected_sum
    assert colouring.weights == expected_weights


@given(non_decreasing_caps(max_order=6).map(SimpleGraph.from_intervals))
@settings(max_examples=60, deadline=None)
def test_solver_matches_literal_product_enumeration(g):
    chi, min_sum, max_sum, weights = product_sum_range(graph_masks(g))
    report = chroma_report(g)
    assert report.chi == chi
    assert report.chi_minus == min_sum
    assert report.chi_plus == max_sum
    assert report.weights_min == weights


@given(non_decreasing_caps().map(SimpleGraph.from_intervals))
@settings(max_examples=200, deadline=None)
def test_reversal_identity_and_stats(g):
    report = chroma_report(g)
    n = g.order
    assert report.chi_minus + report.chi_plus == (report.chi + 1) * n
    assert report.var_minus == report.var_plus
    assert report.mu_minus == Fraction(report.chi_minus, n)
    assert report.mu_plus == Fraction(report.chi_plus, n)
    assert report.weights_max == tuple(reversed(report.weights_min))
    # the report reads the maximum side off the minimum; compare it with
    # the statistics of the literally reversed colouring
    maximum = reverse_colouring(min_sum_colouring(g))
    assert (report.mu_plus, report.var_plus) == chromatic_stats(maximum)
    assert report.weights_max == maximum.weights
    assert report.chi_plus == colour_sum(maximum)


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_reversed_colouring_stats_relation(g):
    s = partition_min_sum(g)
    mean, var = chromatic_stats(s)
    rmean, rvar = chromatic_stats(reverse_colouring(s))
    assert rmean == (s.k + 1) - mean
    assert rvar == var


@given(non_decreasing_caps().map(SimpleGraph.from_intervals))
@settings(max_examples=80, deadline=None)
def test_min_weights_are_non_increasing(g):
    weights = min_sum_colouring(g).weights
    assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))
    assert sum(weights) == g.order
    assert all(w >= 1 for w in weights)


@given(non_decreasing_caps())
@settings(max_examples=150)
def test_from_intervals_matches_per_edge_reference(caps):
    order = len(caps)
    masks = [0] * order
    for u, cap in enumerate(caps, start=1):
        for v in range(u + 1, cap + 1):
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
    g = SimpleGraph.from_intervals(caps)
    assert g.interval_caps == tuple(caps)
    edges = mask_edges(masks)
    assert list(g.edges()) == edges
    assert g.edge_count() == len(edges) == sum(m.bit_count() for m in masks) // 2
    assert from_edges(order, edges) == tuple(masks)


def test_queries_build_no_masks():
    # edges() reads the caps; the adjacency masks of x^2 at n = 20,000, as
    # oracle.from_edges makes them, would hold about 54 MB
    g = jaco_underlying(20_000)
    tracemalloc.start()
    try:
        assert next(iter(g.edges())) == (1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certified_report_builds_no_masks():
    # first-fit reads the caps; the adjacency masks of x^2 at n = 20,000
    # alone would hold about 54 MB
    tracemalloc.start()
    try:
        chroma_report(jaco_underlying(20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_repr_reads_no_masks():
    # repr prints the one field, the caps; the adjacency masks of x^2 at
    # n = 20,000 would hold about 54 MB
    certified = jaco_underlying(20_000)
    tracemalloc.start()
    try:
        text = repr(certified)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert text.startswith("SimpleGraph(interval_caps=(2, 5, 11, ")


def test_certified_equality_builds_no_masks():
    first, second = jaco_underlying(20_000), jaco_underlying(20_000)
    tracemalloc.start()
    try:
        assert first == second
        assert hash(first) == hash(second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    small = jaco_underlying(30)
    assert small == jaco_underlying(30)
    assert small != jaco_underlying(30, IncidencePolynomial(1, 0, 1))


@pytest.mark.parametrize(
    "caps, message",
    [
        ([], "at least one vertex required"),
        ([1, 3, 4], "cap of vertex 3 must lie in 3..3, got 4"),
        ([1, 1], "cap of vertex 2 must lie in 2..2, got 1"),
        ([3, 2, 3], "caps must be non-decreasing, got 3 then 2"),
        # both faults in one input: the first vertex at fault is named
        ([3, 2, 4], "caps must be non-decreasing, got 3 then 2"),
        ([2, 4, 3], "cap of vertex 2 must lie in 2..3, got 4"),
    ],
)
def test_from_intervals_error_messages(caps, message):
    # the constructor itself checks the caps, so neither entry point
    # makes a graph that contradicts its certificate
    for make in (SimpleGraph.from_intervals, lambda caps: SimpleGraph(tuple(caps))):
        with pytest.raises(ValueError) as info:
            make(caps)
        assert str(info.value) == message


def test_a_graph_is_its_caps():
    g = SimpleGraph((2, 3, 3))
    assert [f.name for f in fields(g)] == ["interval_caps"]
    assert g.order == 3
    assert g == SimpleGraph.from_intervals([2, 3, 3])


@given(non_decreasing_caps())
@settings(max_examples=150)
def test_interval_chi_is_max_point_coverage(caps):
    order = len(caps)
    coverage = max(
        sum(1 for u, cap in enumerate(caps, start=1) if u <= point <= cap)
        for point in range(1, order + 1)
    )
    assert chromatic_number(SimpleGraph.from_intervals(caps)) == coverage


@given(non_decreasing_caps(), st.data())
@settings(max_examples=100)
def test_from_intervals_rejects_decreasing_caps(caps, data):
    # lowering cap(v) to v stays in range but drops below cap(v - 1)
    dips = [v for v in range(2, len(caps) + 1) if caps[v - 2] > v]
    assume(dips)
    v = data.draw(st.sampled_from(dips))
    caps[v - 1] = v
    with pytest.raises(ValueError, match="non-decreasing"):
        SimpleGraph.from_intervals(caps)
