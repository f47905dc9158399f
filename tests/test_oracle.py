import pytest
from hypothesis import given, settings, strategies as st

from jacograph import (
    BraidedString,
    IncidencePolynomial,
    OrderTooLargeError,
    SearchBudgetExceededError,
    SimpleGraph,
    arcs,
    build,
    colour_sum,
    min_sum_colouring,
    realize,
)
from jacograph import oracle
from jacograph.oracle import (
    arcs_by_definition,
    exhaustive_min_sum,
    from_edges,
    partition_min_sum,
    sweep_smallest_max_degree,
)
from conftest import graph_masks, grotzsch_graph, is_proper, product_sum_range, small_graphs

X2 = IncidencePolynomial(1, 0, 0)


def test_arcs_by_definition_matches_builder():
    assert arcs_by_definition(X2, 6) == arcs(build(X2, 6))


def test_oracle_shares_only_the_colouring_type_with_chroma():
    # the searches check first-fit, so they may not share its arithmetic
    shared = [name for name, obj in vars(oracle).items()
              if getattr(obj, "__module__", None) == "jacograph.chroma"]
    assert shared == ["ProperColouring"]


def test_arcs_by_definition_trivial():
    assert arcs_by_definition(X2, 1) == []


def test_arcs_by_definition_constant_blocks():
    got = arcs_by_definition(IncidencePolynomial(0, 0, 3), 8)
    blocks = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
    blocks += [(i, j) for i in range(5, 8) for j in range(i + 1, 9)]
    assert got == sorted(blocks)


def test_arcs_by_definition_order_cap():
    with pytest.raises(OrderTooLargeError):
        arcs_by_definition(X2, 10_001)


def test_from_edges_masks_and_refusals():
    assert from_edges(3, [(1, 2), (2, 3)]) == (0b010, 0b101, 0b010)
    assert from_edges(1, []) == (0,)
    for order, edges, message in (
        (3, [(1, 1)], "loop at vertex 1 not allowed"),
        (3, [(1, 4)], "edge (1, 4) outside 1..3"),
        (3, [(0, 2)], "edge (0, 2) outside 1..3"),
        (0, [], "order must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError) as info:
            from_edges(order, edges)
        assert str(info.value) == message


@pytest.mark.parametrize("search", [exhaustive_min_sum, partition_min_sum])
def test_searches_refuse_an_empty_graph_as_from_edges_does(search):
    with pytest.raises(ValueError) as info:
        search(())
    assert str(info.value) == "order must be >= 1, got 0"


def test_exhaustive_min_sum_path():
    path = from_edges(3, [(1, 2), (2, 3)])
    assert exhaustive_min_sum(path) == (4, (2, 1))


def test_exhaustive_min_sum_complete():
    assert exhaustive_min_sum(graph_masks(SimpleGraph.complete(4)))[0] == 10


def test_exhaustive_min_sum_reference_graph():
    assert exhaustive_min_sum(from_edges(6, arcs_by_definition(X2, 6))) == (13, (2, 2, 1, 1))


def test_exhaustive_min_sum_order_cap():
    with pytest.raises(OrderTooLargeError):
        exhaustive_min_sum(from_edges(13, []))


@given(small_graphs(max_order=6))
@settings(max_examples=60, deadline=None)
def test_partition_oracle_matches_literal_product_enumeration(g):
    """The partition-level oracle must agree with the rawest possible
    reference: enumerating every colour tuple."""
    chi, min_sum, _max_sum, weights = product_sum_range(g)
    got_sum, got_weights = exhaustive_min_sum(g)
    assert got_sum == min_sum
    assert got_weights == weights


def test_partition_min_sum_generic_path():
    cycle5 = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert partition_min_sum(cycle5).k == 3
    cycle6 = from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    assert partition_min_sum(cycle6).k == 2


def test_grotzsch_graph_needs_four_colours():
    # triangle-free (clique bound 2) with chi = 4, so the search must
    # reject k = 2 and k = 3 before it finds a partition
    grotzsch = grotzsch_graph()
    assert sum(mask.bit_count() for mask in grotzsch) == 2 * 20
    colouring = partition_min_sum(grotzsch)
    assert colouring.k == 4
    assert is_proper(grotzsch, colouring)
    assert (colour_sum(colouring), colouring.weights) == exhaustive_min_sum(grotzsch)


@given(small_graphs(max_order=10))
@settings(max_examples=120, deadline=None)
def test_partition_min_sum_matches_exhaustive_partitions(g):
    colouring = partition_min_sum(g)
    assert is_proper(g, colouring)
    assert (colour_sum(colouring), colouring.weights) == exhaustive_min_sum(g)


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_partition_min_sum_weights_are_non_increasing(g):
    weights = partition_min_sum(g).weights
    assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))
    assert sum(weights) == len(g)
    assert all(w >= 1 for w in weights)


def test_search_budget_raises():
    # odd cycle: a clique bound (2) below chi (3), so the search at k = 2
    # must actually run and hit the budget
    cycle9 = from_edges(9, [(i, i % 9 + 1) for i in range(1, 10)])
    with pytest.raises(SearchBudgetExceededError) as info:
        partition_min_sum(cycle9, node_budget=2)
    assert str(info.value) == "exact search on 9 vertices with k = 2 spent its node budget of 2"
    fifteen = from_edges(15, arcs_by_definition(X2, 15))
    with pytest.raises(SearchBudgetExceededError) as info:
        partition_min_sum(fifteen, node_budget=3)
    assert str(info.value) == "exact search on 15 vertices with k = 12 spent its node budget of 3"


def test_deep_braid_search_ends_in_budget_error():
    # the search recurses once per vertex; past the recursion limit it
    # must stop with a budget error, not a RecursionError
    braid = realize(BraidedString((600, 600), (1,)))
    with pytest.raises(SearchBudgetExceededError,
                       match="^partition search on 1199 vertices exceeds the recursion limit$"):
        partition_min_sum(graph_masks(braid))
    assert min_sum_colouring(braid).k == 600
    # edgeless: one class takes every vertex at k = 1 and no bound cuts
    with pytest.raises(SearchBudgetExceededError,
                       match="^partition search on 3000 vertices exceeds the recursion limit$"):
        partition_min_sum(from_edges(3000, []))


def test_sweep_examples():
    assert sweep_smallest_max_degree(IncidencePolynomial(1, 0, 1), 5) == 6
    assert sweep_smallest_max_degree(X2, 1) == 2
    assert sweep_smallest_max_degree(X2, 0) == 1


def test_sweep_budget():
    with pytest.raises(SearchBudgetExceededError):
        sweep_smallest_max_degree(X2, 10**6, max_order=50)
    with pytest.raises(SearchBudgetExceededError):
        # constant incidence saturates at degree c, so c + 1 is never reached
        sweep_smallest_max_degree(IncidencePolynomial(0, 0, 3), 4, max_order=100)


def test_sweep_refuses_an_unreachable_target_before_any_build(monkeypatch):
    built = []

    def counting_build(p, n):
        built.append(n)
        return build(p, n)

    monkeypatch.setattr(oracle, "build", counting_build)
    # an order-n graph has maximum degree at most n - 1
    for p, target, max_order in ((IncidencePolynomial(100, 0, 0), 10**6, 20_000), (X2, 50, 50)):
        with pytest.raises(SearchBudgetExceededError) as info:
            sweep_smallest_max_degree(p, target, max_order)
        assert str(info.value) == f"target degree {target} not reached by order {max_order}"
    assert built == []
    assert sweep_smallest_max_degree(X2, 1, max_order=2) == 2
    assert built == [1, 2]
