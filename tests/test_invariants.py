import inspect
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from jacograph import (
    ArithmeticOverflowError,
    ConstructionRow,
    HopeNotCompleteError,
    IncidencePolynomial,
    InvariantReport,
    JacoGraph,
    arcs,
    build,
    completeness_threshold,
    component_decomposition,
    invariants,
    construction_table,
    hope_subgraph,
    jaconian,
    parse,
    smallest_with_max_degree,
    underlying_degrees,
)
from jacograph.oracle import sweep_smallest_max_degree
from conftest import polynomials, quadratic_polynomials

X2 = IncidencePolynomial(1, 0, 0)


def test_underlying_degrees_examples():
    assert underlying_degrees(build(X2, 6)) == (1, 4, 4, 4, 4, 3)
    assert underlying_degrees(build(X2, 1)) == (0,)
    assert underlying_degrees(build(X2, 2)) == (1, 1)


@given(polynomials(), st.integers(1, 200))
@example(IncidencePolynomial(0, 0, 0), 10)
@example(IncidencePolynomial(0, 0, 3), 9)
@settings(max_examples=150)
def test_reach_covers_vertex_so_degrees_need_no_clamp(p, n):
    g = build(p, n)
    assert all(r >= i for i, r in enumerate(g.reaches, start=1))
    clamped = tuple(
        d + max(0, min(r, n) - i)
        for i, (d, r) in enumerate(zip(g.in_degrees, g.reaches), start=1)
    )
    assert underlying_degrees(g) == clamped


def test_jaconian_examples():
    rep = jaconian(build(X2, 7))
    assert rep.jaconian_set == (3, 4, 5)
    assert rep.max_degree == 5
    assert rep.prime_jaconian == 3

    rep28 = jaconian(build(X2, 28))
    assert rep28.jaconian_set == (5, 6, 7, 8, 9, 10, 11)
    assert rep28.max_degree == 25

    rep1 = jaconian(build(X2, 1))
    assert rep1.jaconian_set == (1,)
    assert rep1.max_degree == 0
    assert rep1.v1_distance == 0


def _walked_distance(g):
    """The stepwise chain v1 -> v2 -> ..., one reach at a time: the hop
    count at the first vertex whose reach covers v_n, None at a break."""
    if g.n == 1:
        return 0
    t = 1
    while True:
        r = g.reaches[t - 1]
        if r >= g.n:
            return t
        if r <= t:
            return None
        t += 1


def _scanned_report(g):
    """The invariant report scanned literally from every degree."""
    degrees = underlying_degrees(g)
    top = max(degrees)
    jac = tuple(i for i, d in enumerate(degrees, start=1) if d == top)
    return InvariantReport(
        max_degree=top,
        min_degree=min(degrees),
        jaconian_set=jac,
        prime_jaconian=jac[0],
        hope_range=range(jac[0] + 1, g.n + 1),
        v1_distance=_walked_distance(g),
    )


def _assert_read_off_matches_scan(g):
    assert jaconian(g) == _scanned_report(g)


@given(st.one_of(polynomials(), polynomials(10, 10, 10)), st.integers(1, 300))
@settings(max_examples=300)
def test_read_off_matches_literal_scan(p, n):
    _assert_read_off_matches_scan(build(p, n))


@pytest.mark.parametrize("n", [5, 8, 9])
@pytest.mark.parametrize("text", ["0", "1", "3"])
def test_read_off_where_the_run_reaches_into_the_prefix(text, n):
    # the Jaconian run starts at v1, and v_n lies beyond the first component
    g = build(parse(text), n)
    _assert_read_off_matches_scan(g)
    assert jaconian(g).prime_jaconian == 1
    assert jaconian(g).v1_distance is None


@given(st.one_of(polynomials(), polynomials(10, 10, 10)), st.integers(1, 60))
@settings(max_examples=150)
def test_arc_count_counts_the_materialized_arcs(p, n):
    g = build(p, n)
    assert g.arc_count() == len(arcs(g))


def test_hope_subgraph_examples():
    assert hope_subgraph(build(X2, 6)) == range(3, 7)
    assert hope_subgraph(build(X2, 1)) == range(2, 2)
    assert hope_subgraph(build(X2, 12)) == range(5, 13)


def test_hope_fails_over_disconnected_constant_graph():
    with pytest.raises(HopeNotCompleteError):
        hope_subgraph(build(IncidencePolynomial(0, 0, 3), 8))


def test_hope_subgraph_lists_no_jaconian_set():
    # under constant incidence the Jaconian set covers nearly every vertex,
    # and the Hope check needs only its first member
    n = 200_089
    g = build(parse("3"), n)
    message = rf"^vertex 2 reaches only 4 < n = {n}; the range 2\.\.{n} is not complete$"
    with pytest.raises(HopeNotCompleteError, match=message):
        tracemalloc.start()
        try:
            hope_subgraph(g)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak < sys.getsizeof(tuple(range(n))) // 100, peak


@given(polynomials(), st.integers(1, 80))
@example(IncidencePolynomial(0, 0, 3), 8)
@example(IncidencePolynomial(0, 0, 1), 80)
@settings(max_examples=150)
def test_hope_subgraph_matches_literal_scan(p, n):
    g = build(p, n)
    lo = jaconian(g).prime_jaconian + 1
    short = None
    for i in range(lo, n):
        if g.reaches[i - 1] < n:
            short = i
            break
    if short is None:
        assert hope_subgraph(g) == range(lo, n + 1)
    else:
        message = rf"^vertex {short} reaches only {g.reaches[short - 1]} < n = {n};"
        with pytest.raises(HopeNotCompleteError, match=message):
            hope_subgraph(g)


def test_v1_distance_examples():
    assert jaconian(build(X2, 6)).v1_distance == 3
    assert jaconian(build(X2, 35)).v1_distance == 6
    assert jaconian(build(X2, 1)).v1_distance == 0


def test_v1_distance_unreachable():
    assert jaconian(build(IncidencePolynomial(0, 0, 0), 2)).v1_distance is None
    assert jaconian(build(IncidencePolynomial(0, 0, 3), 8)).v1_distance is None


@given(quadratic_polynomials(), st.integers(2, 150))
@settings(max_examples=60)
def test_v1_distance_equals_smallest_covering_index(p, n):
    g = build(p, n)
    assert jaconian(g).v1_distance == n - g.in_degrees[n - 1]
    assert jaconian(g).v1_distance == min(i for i in range(1, n) if g.reaches[i - 1] >= n)


@given(quadratic_polynomials(), st.integers(2, 100))
@settings(max_examples=40)
def test_v1_distance_upper_bounds_shortest_path(p, n):
    """The stepwise chain distance is a real path length, so breadth-first
    search can only do better (and does, once reaches start jumping)."""
    g = build(p, n)
    dist = {1: 0}
    frontier = [1]
    while frontier and n not in dist:
        nxt = []
        for u in frontier:
            for v in range(u + 1, min(g.reaches[u - 1], n) + 1):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    assert n in dist
    assert dist[n] <= jaconian(g).v1_distance


def test_completeness_threshold_examples():
    assert completeness_threshold(X2) == 2
    assert completeness_threshold(IncidencePolynomial(0, 0, 4)) == 5
    assert completeness_threshold(IncidencePolynomial(2, 3, 1)) == 7


@given(polynomials(max_a=2, max_b=2, max_c=2), st.integers(1, 30))
@settings(max_examples=80)
def test_completeness_threshold_contract(p, n):
    complete = all(d == n - 1 for d in underlying_degrees(build(p, n)))
    assert complete == (n <= completeness_threshold(p))


def test_smallest_with_max_degree_examples():
    assert smallest_with_max_degree(X2) == (2, 1, 1)
    assert smallest_with_max_degree(IncidencePolynomial(1, 0, 1)) == (6, 2, 5)
    assert smallest_with_max_degree(IncidencePolynomial(1, 1, 0)) == (7, 2, 6)
    with pytest.raises(ValueError):
        smallest_with_max_degree(IncidencePolynomial(0, 1, 0))


@given(quadratic_polynomials(max_a=2, max_b=2, max_c=2))
@settings(max_examples=30, deadline=None)
def test_locator_agrees_with_sweep(p):
    k, prime, delta = smallest_with_max_degree(p)
    assert sweep_smallest_max_degree(p, delta) == k


@given(quadratic_polynomials())
@settings(max_examples=40, deadline=None)
def test_locator_matches_literal_degrees(p):
    # the slow check of all three fields: the literal degrees at orders k and k - 1
    k, prime, delta = smallest_with_max_degree(p)
    d = underlying_degrees(build(p, k))
    assert max(d) == delta
    assert d.index(delta) + 1 == prime
    assert max(underlying_degrees(build(p, k - 1))) < delta


def test_locator_reads_off_f_with_no_build(monkeypatch):
    # f(f(1)) = 2^63 - 1, so k = 2^63 is past the 64-bit range
    with pytest.raises(ArithmeticOverflowError, match="9223372036854775808.* exceeds the 64-bit range"):
        smallest_with_max_degree(IncidencePolynomial(17, 715827836, 31))

    def refuse(p, n):
        raise AssertionError(f"the locator built {n} vertices")

    monkeypatch.setattr(invariants, "build", refuse)
    assert smallest_with_max_degree(parse("300*x^2")) == (27_000_001, 300, 27_000_000)
    assert smallest_with_max_degree(parse("1000*x^2")) == (1_000_000_001, 1000, 1_000_000_000)


def test_component_decomposition_examples():
    assert component_decomposition(build(IncidencePolynomial(0, 0, 3), 8)) == [
        range(1, 5),
        range(5, 9),
    ]
    assert component_decomposition(build(X2, 35)) == [range(1, 36)]
    assert component_decomposition(build(IncidencePolynomial(0, 0, 0), 4)) == [
        range(1, 2),
        range(2, 3),
        range(3, 4),
        range(4, 5),
    ]


@given(polynomials(), st.integers(1, 60))
@settings(max_examples=80)
def test_components_partition_the_vertices(p, n):
    comps = component_decomposition(build(p, n))
    flattened = [v for comp in comps for v in comp]
    assert flattened == list(range(1, n + 1))


@given(polynomials(), st.integers(1, 80))
@example(IncidencePolynomial(0, 0, 0), 80)
@example(IncidencePolynomial(0, 0, 1), 80)
@example(IncidencePolynomial(0, 0, 3), 79)
@settings(max_examples=80)
def test_components_match_union_find_over_arcs(p, n):
    g = build(p, n)
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in arcs(g):
        parent[find(u)] = find(v)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    expected = sorted(groups.values())
    assert [list(comp) for comp in component_decomposition(g)] == expected


def test_construction_table_matches_reference_rows():
    rows = list(construction_table(X2, 12))
    assert rows[5][:3] == (6, 3, 33)
    assert rows[5].jaconian_set == (2, 3, 4, 5)
    assert rows[5].max_degree == 4
    assert rows[5].v1_distance == 3
    assert rows[11].jaconian_set == (4, 5)
    assert rows[11].max_degree == 10
    assert rows[11].v1_distance == 4


@given(polynomials(), st.integers(1, 300))
@example(IncidencePolynomial(0, 0, 2), 10)
@example(IncidencePolynomial(2, 1, 2), 300)  # quadratic
@example(IncidencePolynomial(0, 1, 2), 500)  # linear
@example(IncidencePolynomial(0, 0, 3), 300)  # constant
@example(IncidencePolynomial(0, 0, 0), 300)  # zero
@settings(max_examples=100, deadline=None)
def test_construction_table_rows_match_each_literal_prefix(p, n):
    # timed per resumption by the benchmark tracer, which wraps only generators
    assert inspect.isgeneratorfunction(construction_table)
    full = build(p, n)
    rows = construction_table(p, n)
    for k in range(1, n + 1):
        g = JacoGraph(p, k, full.in_degrees[:k], full.reaches[:k])
        rep = _scanned_report(g)
        assert next(rows) == ConstructionRow(
            k, g.in_degrees[k - 1], g.reaches[k - 1] - k, rep.jaconian_set, rep.max_degree,
            rep.v1_distance,
        )
    assert next(rows, None) is None


@given(st.one_of(polynomials(), polynomials(10, 10, 10)), st.integers(1, 300))
@example(IncidencePolynomial(0, 0, 0), 5)
@example(IncidencePolynomial(0, 0, 10), 30)
@example(IncidencePolynomial(0, 0, 10), 10)
@settings(max_examples=150)
def test_chain_break_closed_form_matches_the_literal_walk(p, n):
    g = build(p, n)
    first = None
    for t in range(1, n + 1):
        if g.reaches[t - 1] <= t:
            first = t
            break
    closed = invariants._chain_break(p)
    assert first == (closed if closed is not None and closed <= n else None)


@given(quadratic_polynomials(), st.integers(1, 60))
@settings(max_examples=40)
def test_jaconian_set_is_exactly_the_max_degree_vertices(p, n):
    g = build(p, n)
    rep = jaconian(g)
    degrees = underlying_degrees(g)
    assert rep.prime_jaconian == min(rep.jaconian_set)
    for i, d in enumerate(degrees, start=1):
        assert (d == rep.max_degree) == (i in rep.jaconian_set)
    assert 0 <= rep.min_degree <= p.a + p.b + p.c
