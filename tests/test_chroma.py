from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from jacograph import (
    IncidencePolynomial,
    ProperColouring,
    SearchBudgetExceededError,
    SimpleGraph,
    build,
    chroma_report,
    chromatic_number,
    chromatic_stats,
    colour_sum,
    greedy_min_sum,
    min_sum_colouring,
    reverse_colouring,
    underlying_graph,
)
from jacograph.oracle import exhaustive_min_sum
from conftest import non_decreasing_caps, product_sum_range, small_graphs

X2 = IncidencePolynomial(1, 0, 0)


def jaco_underlying(n, p=X2):
    return underlying_graph(build(p, n))


def test_chromatic_number_examples():
    assert chromatic_number(SimpleGraph.complete(5)) == 5
    assert chromatic_number(jaco_underlying(9)) == 7
    assert chromatic_number(SimpleGraph.from_edges(6, [])) == 1


def test_chromatic_number_generic_path():
    cycle5 = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert cycle5.interval_caps is None
    assert chromatic_number(cycle5) == 3
    cycle6 = SimpleGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    assert chromatic_number(cycle6) == 2


def test_certificate_agrees_with_generic_search():
    for n in range(1, 16):
        g = jaco_underlying(n)
        stripped = SimpleGraph(g.order, g.adjacency, None)
        assert chromatic_number(g) == chromatic_number(stripped)


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


def test_greedy_examples():
    greedy6 = greedy_min_sum(jaco_underlying(6))
    assert greedy6.weights == (2, 2, 1, 1)
    assert colour_sum(greedy6) == 13
    assert greedy6.assignment == (1, 2, 1, 3, 4, 2)

    assert greedy_min_sum(SimpleGraph.complete(3)).weights == (1, 1, 1)
    assert colour_sum(greedy_min_sum(SimpleGraph.complete(3))) == 6

    edgeless = greedy_min_sum(SimpleGraph.from_edges(5, []))
    assert edgeless.weights == (5,)
    assert colour_sum(edgeless) == 5


def test_greedy_matches_exact_on_reference_family():
    for n in range(1, 21):
        g = jaco_underlying(n)
        exact = min_sum_colouring(g)
        greedy = greedy_min_sum(g)
        assert greedy.weights == exact.weights
        assert colour_sum(greedy) == colour_sum(exact)


def test_reverse_examples():
    nine = min_sum_colouring(jaco_underlying(9))
    assert reverse_colouring(nine).weights == (1, 1, 1, 1, 1, 2, 2)

    single = ProperColouring(assignment=(1, 1), k=1, weights=(2,))
    assert reverse_colouring(single) == single

    twelve = reverse_colouring(min_sum_colouring(jaco_underlying(12)))
    assert twelve.weights == (1, 1, 1, 1, 1, 1, 1, 2, 3)
    assert colour_sum(twelve) == 71


def test_colour_sum_examples():
    assert colour_sum(ProperColouring((1, 2, 3, 4), 4, (1, 1, 1, 1))) == 10
    assert colour_sum(ProperColouring((1,) * 5, 1, (5,))) == 5


def test_chromatic_stats_examples():
    k5 = min_sum_colouring(SimpleGraph.complete(5))
    assert chromatic_stats(k5) == (Fraction(3), Fraction(2))

    six = min_sum_colouring(jaco_underlying(6))
    assert chromatic_stats(six) == (Fraction(13, 6), Fraction(41, 36))

    single = min_sum_colouring(SimpleGraph.from_edges(1, []))
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


def test_proper_colouring_validation():
    path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
    ok = ProperColouring.from_assignment(path, (1, 2, 1))
    assert ok.weights == (2, 1)
    with pytest.raises(ValueError):
        ProperColouring.from_assignment(path, (1, 1, 2))
    with pytest.raises(ValueError):
        ProperColouring.from_assignment(path, (1, 3, 1))  # colour 2 unused
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])


def test_search_budget_raises():
    # odd cycle: greedy clique (2) and first-fit (3) leave a gap, so the
    # colourability search must actually run and hit the budget
    cycle9 = SimpleGraph.from_edges(9, [(i, i % 9 + 1) for i in range(1, 10)])
    with pytest.raises(SearchBudgetExceededError):
        chromatic_number(cycle9, node_budget=2)
    with pytest.raises(SearchBudgetExceededError):
        min_sum_colouring(jaco_underlying(15), node_budget=3)
    with pytest.raises(SearchBudgetExceededError):
        greedy_min_sum(jaco_underlying(15), node_budget=3)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_solver_matches_partition_oracle(g):
    colouring = min_sum_colouring(g)
    expected_sum, expected_weights = exhaustive_min_sum(g)
    assert colour_sum(colouring) == expected_sum
    assert colouring.weights == expected_weights


@given(small_graphs(max_order=6))
@settings(max_examples=60, deadline=None)
def test_solver_matches_literal_product_enumeration(g):
    chi, min_sum, max_sum, weights = product_sum_range(g)
    report = chroma_report(g)
    assert report.chi == chi
    assert report.chi_minus == min_sum
    assert report.chi_plus == max_sum
    assert report.weights_min == weights


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_reversal_identity_and_stats(g):
    report = chroma_report(g)
    n = g.order
    assert report.chi_minus + report.chi_plus == (report.chi + 1) * n
    assert report.var_minus == report.var_plus
    assert report.mu_minus == Fraction(report.chi_minus, n)
    assert report.mu_plus == Fraction(report.chi_plus, n)
    assert report.weights_max == tuple(reversed(report.weights_min))


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_reversed_colouring_stats_relation(g):
    s = min_sum_colouring(g)
    mean, var = chromatic_stats(s)
    rmean, rvar = chromatic_stats(reverse_colouring(s))
    assert rmean == (s.k + 1) - mean
    assert rvar == var


@given(small_graphs())
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
    assert g.adjacency == tuple(masks)
    assert g.interval_caps == tuple(caps)


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
