"""Braided complete graphs: strings of cliques with disjoint overlaps.

Two complete graphs K_n and K_m are 1-braided with overlap l when they
share exactly a K_l.  Longer strings chain blocks left to right, with the
extra condition that consecutive overlap cliques are vertex-disjoint
(l_j + l_{j+1} <= n_{j+1} for every interior block).  The realized graph
is numbered block-major with shared vertices at block boundaries, which
keeps every neighbourhood an index interval, so the chromatic engine gets
an interval certificate for free.

Closed forms for the two-block chromatic means are provided along with
complete-graph statistics; the general engine checks them on every small
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chroma import SimpleGraph
from .errors import InvalidBraidError
from .incidence import INT64_MAX


@dataclass(frozen=True)
class BraidedString:
    """Block sizes ``orders`` = (n_1, ..., n_t) and shared-clique sizes
    ``overlaps`` = (l_1, ..., l_{t-1}) of a string of 1-braided cliques."""

    orders: tuple[int, ...]
    overlaps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        object.__setattr__(self, "overlaps", tuple(self.overlaps))
        if not self.orders:
            raise InvalidBraidError("at least one block required")
        if len(self.overlaps) != len(self.orders) - 1:
            raise InvalidBraidError(
                f"{len(self.orders)} blocks need {len(self.orders) - 1} overlaps,"
                f" got {len(self.overlaps)}"
            )
        for j, n in enumerate(self.orders, start=1):
            if n < 1:
                raise InvalidBraidError(f"block {j} must have size >= 1, got {n}")
            if n > INT64_MAX:
                raise InvalidBraidError(f"block {j} size {n} exceeds the 64-bit range")
        for j, l in enumerate(self.overlaps, start=1):
            if not 0 <= l <= min(self.orders[j - 1], self.orders[j]):
                raise InvalidBraidError(
                    f"overlap {j} must lie in 0..min(n_{j}, n_{j + 1}) ="
                    f" {min(self.orders[j - 1], self.orders[j])}, got {l}"
                )
        for j in range(len(self.overlaps) - 1):
            if self.overlaps[j] + self.overlaps[j + 1] > self.orders[j + 1]:
                raise InvalidBraidError(
                    f"overlaps {j + 1} and {j + 2} both cut into block {j + 2}:"
                    f" {self.overlaps[j]} + {self.overlaps[j + 1]} > {self.orders[j + 1]}"
                )


def realize(s: BraidedString) -> SimpleGraph:
    """Realize the braided string as a simple graph.

    Block j occupies the contiguous index range starting where block j-1
    has l_{j-1} vertices left, so consecutive blocks share exactly their
    boundary vertices and non-consecutive blocks are disjoint.  The n_j -
    l_j vertices of block j outside block j+1 reach the end of block j.
    """
    caps: list[int] = []
    for n, l in zip(s.orders, (*s.overlaps, 0)):
        caps += [len(caps) + n] * (n - l)
    return SimpleGraph.from_intervals(caps)


def _check_two_block(n: int, m: int, l: int) -> tuple[int, int, int]:
    """Validate K_n braided with K_m on K_l as a :class:`BraidedString`,
    then normalize so m <= n."""
    BraidedString((n, m), (l,))
    return max(n, m), min(n, m), l


def mu_min_two_block(n: int, m: int, l: int) -> Fraction:
    """Closed-form minimum chromatic mean of K_n braided with K_m on K_l.

    With m <= n, the m - l vertices outside the overlap double up on
    colours 1..m-l while colours m-l+1..n stay single, giving

        [2(m - l)(n + 1) + (n - m + l)(n - m + l + 1)] / [2(n + m - l)].
    """
    n, m, l = _check_two_block(n, m, l)
    shared = n - m + l
    return Fraction(2 * (m - l) * (n + 1) + shared * (shared + 1), 2 * (n + m - l))


def mu_max_two_block(n: int, m: int, l: int) -> Fraction:
    """Closed-form maximum chromatic mean of K_n braided with K_m on K_l.

    Colour reversal doubles the top m - l colour indices instead, giving

        [n(n + 1) + (m - l)(2n - m + l + 1)] / [2(n + m - l)],

    which equals (chi + 1) - mu_min with chi = max(n, m).
    """
    n, m, l = _check_two_block(n, m, l)
    d = m - l
    return Fraction(n * (n + 1) + d * (2 * n - d + 1), 2 * (n + m - l))


def mu_max_two_block_superseded(n: int, m: int, l: int) -> Fraction:
    """Superseded closed form for the two-block maximum chromatic mean:

        [(n - l)(n - l + 1) + 4l(n - l) + 2l(l + 1)] / [2(n + m - l)].

    It disagrees with direct enumeration (46/9 instead of 41/9 for blocks
    7, 5 with overlap 3: it doubles l colours where the doubled count is
    m - l).  Kept only so the command line can display it next to the
    corrected value under the erratum flag.
    """
    n, m, l = _check_two_block(n, m, l)
    return Fraction(
        (n - l) * (n - l + 1) + 4 * l * (n - l) + 2 * l * (l + 1), 2 * (n + m - l)
    )


def complete_graph_stats(n: int) -> tuple[int, Fraction, Fraction]:
    """(chromatic sum, mean, variance) of K_n: n(n+1)/2, (n+1)/2 and
    (n^2 - 1)/12, the same for the minimum and maximum colourings."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (n + 1) // 2, Fraction(n + 1, 2), Fraction(n * n - 1, 12)
