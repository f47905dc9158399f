import pytest
from hypothesis import given, settings, strategies as st

from jacograph import (
    IncidencePolynomial,
    OrderTooLargeError,
    SearchBudgetExceededError,
    SimpleGraph,
    arcs,
    build,
)
from jacograph import oracle
from jacograph.oracle import (
    arcs_by_definition,
    exhaustive_min_sum,
    sweep_smallest_max_degree,
)
from conftest import product_sum_range, small_graphs

X2 = IncidencePolynomial(1, 0, 0)


def test_arcs_by_definition_matches_builder():
    assert arcs_by_definition(X2, 6) == arcs(build(X2, 6))


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


def test_exhaustive_min_sum_path():
    path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
    assert exhaustive_min_sum(path) == (4, (2, 1))


def test_exhaustive_min_sum_complete():
    assert exhaustive_min_sum(SimpleGraph.complete(4))[0] == 10


def test_exhaustive_min_sum_reference_graph():
    from jacograph import underlying_graph

    assert exhaustive_min_sum(underlying_graph(build(X2, 6))) == (13, (2, 2, 1, 1))


def test_exhaustive_min_sum_order_cap():
    with pytest.raises(OrderTooLargeError):
        exhaustive_min_sum(SimpleGraph.from_edges(13, []))


@given(small_graphs(max_order=6))
@settings(max_examples=60, deadline=None)
def test_partition_oracle_matches_literal_product_enumeration(g):
    """The partition-level oracle must agree with the rawest possible
    reference: enumerating every colour tuple."""
    chi, min_sum, _max_sum, weights = product_sum_range(g)
    got_sum, got_weights = exhaustive_min_sum(g)
    assert got_sum == min_sum
    assert got_weights == weights


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
