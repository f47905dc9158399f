import gc
import weakref
from collections import deque
from itertools import count, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from jacograph import (
    ArcBudgetExceededError,
    ArithmeticOverflowError,
    IncidencePolynomial,
    InvalidOrderError,
    arcs,
    build,
    evaluate,
    root_stream,
)
from jacograph import builder
from jacograph.incidence import INT64_MAX
from jacograph.oracle import arcs_by_definition
from conftest import polynomials

X2 = IncidencePolynomial(1, 0, 0)


def difference_array_build(p, n):
    """Reference: one vertex at a time, in-degrees from a running sum over a
    difference array of reach endpoints (+1 at i+1, -1 past reach(i))."""
    a, b, c = p.a, p.b, p.c
    in_degrees = [0] * n
    reaches = [0] * n
    diff = [0] * (n + 2)
    running = 0
    for i in range(1, n + 1):
        running += diff[i]
        r = i + a * i * i + b * i + c - running
        in_degrees[i - 1] = running
        reaches[i - 1] = r
        if r > i:
            diff[i + 1] += 1
            if r < n:
                diff[r + 1] -= 1
    return tuple(in_degrees), tuple(reaches)


def deque_stream(p):
    """Reference: one vertex at a time, the in-degree being the length of a
    deque of the reaches that still cover the vertex."""
    a, b, c = p.a, p.b, p.c
    window = deque()
    fi = a + b + c
    dfi = 3 * a + b
    ddf = 2 * a
    i = 1
    while True:
        while window and window[0] < i:
            window.popleft()
        indeg = len(window)
        if fi > INT64_MAX - i:
            raise ArithmeticOverflowError(f"f({i}) + {i} exceeds the 64-bit range")
        r = i + fi - indeg
        yield i, indeg, r
        window.append(r)
        fi += dfi
        dfi += ddf
        i += 1


def test_table_in_degrees_first_six():
    g = build(X2, 6)
    assert g.in_degrees == (0, 1, 1, 2, 3, 3)


def test_single_vertex_has_no_arcs():
    g = build(X2, 1)
    assert g.n == 1
    assert arcs(g) == []


def test_constant_incidence_gives_complete_blocks():
    g = build(IncidencePolynomial(0, 0, 3), 8)
    expected = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
    expected += [(i, j) for i in range(5, 8) for j in range(i + 1, 9)]
    assert arcs(g) == sorted(expected)


def test_root_stream_first_records():
    indices, in_degrees, reaches = zip(*islice(root_stream(X2), 5))
    assert in_degrees == (0, 1, 1, 2, 3)
    assert reaches[0] == 2
    assert indices == (1, 2, 3, 4, 5)


def test_root_stream_reach_with_offset():
    records = list(islice(root_stream(IncidencePolynomial(1, 0, 1)), 2))
    assert records[1][2] == 6


def test_out_degree_root_examples():
    # the root out-degree of v_i is reach(i) - i, unclipped by n
    g = build(X2, 6)
    assert g.reaches[3 - 1] - 3 == 8
    assert g.reaches[1 - 1] - 1 == 1
    assert g.reaches[6 - 1] - 6 == 33


def test_arcs_examples():
    assert arcs(build(X2, 3)) == [(1, 2), (2, 3)]
    assert arcs(build(X2, 1)) == []
    assert len(arcs(build(X2, 6))) == 10


def test_arc_budget_enforced():
    g = build(X2, 100)
    with pytest.raises(ArcBudgetExceededError):
        arcs(g, budget=10)


def test_invalid_order():
    with pytest.raises(InvalidOrderError):
        build(X2, 0)


def test_build_overflow():
    with pytest.raises(ArithmeticOverflowError):
        build(X2, 4_000_000_000)


def test_build_refuses_f_n_plus_n_past_64_bits():
    # f(n) itself fits, so only build's own guard on f(n) + n refuses
    top = IncidencePolynomial(0, 0, INT64_MAX)
    for refuse in (lambda: build(top, 1), lambda: next(root_stream(top))):
        with pytest.raises(ArithmeticOverflowError, match=r"^f\(1\) \+ 1 exceeds the 64-bit range$"):
            refuse()
    below = IncidencePolynomial(0, 0, INT64_MAX - 1)
    assert build(below, 1).reaches == (INT64_MAX,)
    with pytest.raises(ArithmeticOverflowError, match=r"^f\(2\) \+ 2 exceeds the 64-bit range$"):
        build(below, 2)


def test_stream_overflow_raises():
    stream = root_stream(IncidencePolynomial(3037000500**2, 0, 0))
    with pytest.raises(ArithmeticOverflowError):
        next(stream)


def _records_until_overflow(stream):
    records = []
    with pytest.raises(ArithmeticOverflowError) as raised:
        records.extend(stream)
    return records, str(raised.value)


@pytest.mark.parametrize(
    "p",
    [
        IncidencePolynomial(2**61, 0, 0),
        IncidencePolynomial(0, 2**61, 0),
        IncidencePolynomial(0, 0, INT64_MAX - 5),
        IncidencePolynomial(3037000500**2, 0, 0),
    ],
)
def test_stream_overflow_matches_reference(p):
    assert _records_until_overflow(root_stream(p)) == _records_until_overflow(deque_stream(p))


@pytest.fixture
def no_live_builds(monkeypatch):
    """An empty registry of live builds, so that no other test's graph is read."""
    monkeypatch.setattr(builder, "_LIVE", weakref.WeakValueDictionary())


def test_stream_overflow_continues_a_live_build(no_live_builds):
    p = IncidencePolynomial(INT64_MAX // 10_000, 0, 0)  # f(i) + i overflows at i = 101
    expected = _records_until_overflow(deque_stream(p))
    last = len(expected[0])
    assert last > builder._STEPPED
    for n in (builder._STEPPED + 1, last):  # the stream resumes at v_{n+1}, then overflows
        g = build(p, n)
        assert builder._LIVE.get(p) is g
        assert _records_until_overflow(root_stream(p)) == expected


def test_stream_holds_no_graph_and_the_registry_none(no_live_builds):
    p = IncidencePolynomial(0, 1, 0)
    reference = list(islice(deque_stream(p), 6000))
    g = build(p, 1000)
    graph = weakref.ref(g)
    stream = root_stream(p)
    records = list(islice(stream, 1001))  # past v_1000, the last record read off g
    del g
    assert graph() is None
    assert builder._LIVE.get(p) is None
    records += islice(stream, len(reference) - len(records))
    assert records == reference
    assert list(islice(root_stream(p), 6000)) == reference


def test_shorter_build_keeps_the_longer_live_one(no_live_builds):
    longer = build(X2, 3000)
    shorter = build(X2, 500)
    assert builder._LIVE.get(X2) is longer
    assert list(islice(root_stream(X2), 8000)) == list(islice(deque_stream(X2), 8000))
    del longer
    assert builder._LIVE.get(X2) is None
    records = zip(count(1), shorter.in_degrees, shorter.reaches)
    assert list(islice(root_stream(X2), 500)) == list(records)
    again = build(X2, 500)  # the entry is dead, so any longer build replaces it
    assert builder._LIVE.get(X2) is again
    build(X2, 500)
    assert builder._LIVE.get(X2) is again


@given(polynomials(), st.integers(1, 40))
@settings(max_examples=150)
def test_arcs_match_definitional_oracle(p, n):
    assert arcs(build(p, n)) == arcs_by_definition(p, n)


@given(polynomials(), st.integers(1, 200))
@settings(max_examples=60)
def test_record_invariants(p, n):
    g = build(p, n)
    for index, in_degree, reach in zip(count(1), g.in_degrees, g.reaches):
        assert reach >= index
        assert 0 <= in_degree <= index - 1 or index == 1
        assert in_degree <= evaluate(p, index)


@given(polynomials(), st.integers(2, 120))
@settings(max_examples=60)
def test_truncation_never_changes_in_degrees(p, n):
    full = build(p, n)
    half = build(p, n // 2 + 1)
    assert full.in_degrees[: half.n] == half.in_degrees
    assert full.reaches[: half.n] == half.reaches


# the stepped vertices end at 64, the stream's first full block at 4160
REFERENCE_EXAMPLES = [
    (IncidencePolynomial(a, b, c), n)
    for a, b, c in ((0, 1, 0), (0, 2, 1), (1, 0, 0), (3, 2, 2), (0, 0, 3), (0, 0, 0))
    for n in (63, 64, 65, 4160, 4161, 10_000)
]


def with_examples(cases):
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return apply


def stream_both_ways(p, n):
    """Check root_stream(p) against deque_stream(p) past v_n by more than a
    stream block: first with no live build, then resuming from build(p, n),
    which the registry holds exactly when n exceeds the stepped vertices.
    Return that build."""
    extra = n + builder._STREAM_BLOCK + 1
    reference = list(islice(deque_stream(p), extra))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "_LIVE", weakref.WeakValueDictionary())
        assert list(islice(root_stream(p), extra)) == reference
        g = build(p, n)
        assert (builder._LIVE.get(p) is g) == (n > builder._STEPPED)
        assert list(islice(root_stream(p), extra)) == reference
    return g


@given(polynomials(), st.integers(1, 600))
@settings(max_examples=100)
@with_examples(REFERENCE_EXAMPLES)
def test_build_and_stream_match_reference_loops(p, n):
    g = stream_both_ways(p, n)
    assert (g.in_degrees, g.reaches) == difference_array_build(p, n)


@given(
    polynomials(),
    st.integers(1, 300),
    st.sampled_from([1, 2, 5, 64]),
    st.sampled_from([1, 2, 3, 7]),
)
@settings(max_examples=150)
def test_short_blocks_match_reference_loops(p, n, stepped, block):
    # short stepped prefixes and stream blocks put block boundaries everywhere
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "_STEPPED", stepped)
        patch.setattr(builder, "_STREAM_BLOCK", block)
        g = stream_both_ways(p, n)
    assert (g.in_degrees, g.reaches) == difference_array_build(p, n)


@given(polynomials(), st.integers(1, 300))
@settings(max_examples=60)
def test_stream_agrees_with_build(p, n):
    extra = n + builder._STREAM_BLOCK + 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "_LIVE", weakref.WeakValueDictionary())
        g = build(p, n)
        assert (builder._LIVE.get(p) is g) == (n > builder._STEPPED)
        resumed = list(islice(root_stream(p), extra))
        builder._LIVE.clear()
        alone = list(islice(root_stream(p), extra))
    assert alone[:n] == list(zip(count(1), g.in_degrees, g.reaches))
    assert resumed == alone


def test_held_records_are_untracked():
    # a tuple subclass is never untracked, so each later full collection
    # would traverse every record its caller holds
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "_LIVE", weakref.WeakValueDictionary())
        g = build(X2, 5000)
        assert builder._LIVE.get(X2) is g and g.n > builder._STEPPED
        resumed = list(islice(root_stream(X2), 10_000))
        builder._LIVE.clear()
        alone = list(islice(root_stream(X2), 10_000))
    gc.collect()
    for r in resumed + alone:
        assert type(r) is tuple and not gc.is_tracked(r)


@given(polynomials(), st.integers(1, 200))
@settings(max_examples=60)
def test_reach_is_non_decreasing(p, n):
    r = build(p, n).reaches
    assert all(r[i] <= r[i + 1] for i in range(len(r) - 1))
