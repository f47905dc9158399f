from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from jacograph import (
    BraidedString,
    InvalidBraidError,
    SimpleGraph,
    chroma_report,
    complete_graph_stats,
    mu_max_two_block,
    mu_max_two_block_superseded,
    mu_min_two_block,
    realize,
)


def cliques(*blocks):
    """The edges of the union of cliques on the index ranges lo..hi."""
    return {(u, v) for lo, hi in blocks for u in range(lo, hi + 1) for v in range(u + 1, hi + 1)}


def degree_multiset(g):
    """The sorted degrees of g, read off its edges."""
    ends = Counter(chain.from_iterable(g.edges()))
    return sorted(ends[v] for v in range(1, g.order + 1))


def test_realize_worked_example():
    g = realize(BraidedString((7, 5), (3,)))
    assert g.order == 9
    # blocks 1..7 and 5..9 are cliques, nothing else
    assert set(g.edges()) == cliques((1, 7), (5, 9))


def test_realize_single_block_is_complete():
    g = realize(BraidedString((6,), ()))
    assert g.order == 6
    assert g.edge_count() == 15


def test_realize_zero_overlap_is_disjoint_union():
    g = realize(BraidedString((3, 3), (0,)))
    assert g.order == 6
    assert g.edge_count() == 6
    assert set(g.edges()) == cliques((1, 3), (4, 6))


def test_invalid_braids_name_the_offending_index():
    with pytest.raises(InvalidBraidError, match="overlap 1"):
        BraidedString((3, 5), (4,))
    with pytest.raises(InvalidBraidError, match="block 2"):
        BraidedString((3, 0), (0,))
    with pytest.raises(InvalidBraidError, match="block 2"):
        BraidedString((4, 3, 4), (2, 2))
    with pytest.raises(InvalidBraidError):
        BraidedString((3, 3), ())
    with pytest.raises(InvalidBraidError, match="block 1"):
        BraidedString((2**63, 5), (3,))


def test_three_block_string_realization():
    s = BraidedString((4, 4, 4), (2, 2))
    g = realize(s)
    assert g.order == 8
    report = chroma_report(g)
    assert report.chi == 4


def test_mu_min_examples():
    assert mu_min_two_block(7, 5, 3) == Fraction(31, 9)
    for n in range(1, 8):
        for l in range(1, n + 1):
            assert mu_min_two_block(n, l, l) == Fraction(n + 1, 2)
    assert mu_min_two_block(5, 3, 2) == Fraction(8, 3)


def test_mu_max_examples():
    assert mu_max_two_block(7, 5, 3) == Fraction(41, 9)
    for n in range(1, 8):
        for l in range(1, n + 1):
            assert mu_max_two_block(n, l, l) == Fraction(n + 1, 2)
    assert mu_max_two_block(5, 3, 2) == Fraction(10, 3)


def test_mu_closed_forms_swap_arguments():
    assert mu_min_two_block(5, 7, 3) == mu_min_two_block(7, 5, 3)
    assert mu_max_two_block(5, 7, 3) == mu_max_two_block(7, 5, 3)


def test_mu_invalid_overlap():
    # the closed forms refuse what BraidedString refuses, in its words
    with pytest.raises(InvalidBraidError,
                       match=r"^overlap 1 must lie in 0\.\.min\(n_1, n_2\) = 5, got 6$"):
        mu_min_two_block(7, 5, 6)
    with pytest.raises(InvalidBraidError, match="^block 1 must have size >= 1, got 0$"):
        mu_max_two_block(0, 5, 0)
    with pytest.raises(InvalidBraidError, match=f"^block 2 size {2**64} exceeds the 64-bit range$"):
        mu_max_two_block_superseded(5, 2**64, 1)


def test_superseded_form_disagrees_on_worked_example():
    assert mu_max_two_block_superseded(7, 5, 3) == Fraction(46, 9)
    assert mu_max_two_block(7, 5, 3) == Fraction(41, 9)


def test_complete_graph_stats_examples():
    assert complete_graph_stats(4) == (10, Fraction(5, 2), Fraction(5, 4))
    assert complete_graph_stats(1) == (1, Fraction(1), Fraction(0))
    assert complete_graph_stats(7) == (28, Fraction(4), Fraction(4))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        complete_graph_stats(0)


def test_complete_graph_stats_match_engine():
    for n in range(1, 13):
        total, mean, variance = complete_graph_stats(n)
        report = chroma_report(SimpleGraph.complete(n))
        assert report.chi_minus == report.chi_plus == total
        assert report.mu_minus == report.mu_plus == mean
        assert report.var_minus == report.var_plus == variance


def all_two_block_instances(max_order=12):
    for n in range(1, max_order):
        for m in range(1, n + 1):
            for l in range(0, m + 1):
                if n + m - l <= max_order:
                    yield n, m, l


def test_closed_forms_agree_with_engine_everywhere():
    for n, m, l in all_two_block_instances():
        report = chroma_report(realize(BraidedString((n, m), (l,))))
        assert report.mu_minus == mu_min_two_block(n, m, l), (n, m, l)
        assert report.mu_plus == mu_max_two_block(n, m, l), (n, m, l)
        assert report.var_minus == report.var_plus, (n, m, l)
        assert report.chi == n


def test_worked_example_variances():
    report = chroma_report(realize(BraidedString((7, 5), (3,))))
    assert report.var_minus == report.var_plus == Fraction(344, 81)


def test_realization_commutes():
    for n, m, l in all_two_block_instances(max_order=10):
        left = realize(BraidedString((n, m), (l,)))
        right = realize(BraidedString((m, n), (l,)))
        assert degree_multiset(left) == degree_multiset(right)
        assert chroma_report(left).chi_minus == chroma_report(right).chi_minus


@given(st.integers(1, 9), st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_mu_identity_with_chi(n, m, data):
    l = data.draw(st.integers(0, min(n, m)))
    chi = max(n, m)
    assert mu_max_two_block(n, m, l) == (chi + 1) - mu_min_two_block(n, m, l)
