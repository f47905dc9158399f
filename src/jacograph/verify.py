"""Property-suite runner behind the command-line ``verify``.

Every structural and colouring law the library relies on is checked here
over a coefficient grid (quadratic a in 1..3, b and c in 0..2, plus the
constant/linear oracle polynomials), with brute-force oracles on the small
orders.  The runner reports one line per property; any counterexample
fails the run.

Properties are named only in ``PROPERTIES``, which also holds each law's
family (every incidence polynomial, quadratic incidence, or x^2 alone)
and whether it sweeps every prefix.  ``run`` creates each
:class:`PropertyResult` and passes it in, and a property records its
checks and notes on it.  ``run`` runs a law selected twice once, and
skips, with a note, a law whose family the polynomial selection does not
hold.  Laws stated order by order read the order-k graphs as prefixes of
one build, sliced by ``_prefixes``.

Eight of them read one small record per order k, made once per polynomial
in a ``run`` from the literal underlying degrees of the order-k graph: k
and the in-degree of v_k; the maximum degree Delta and the minimum degree;
the first index (the prime), last index and count of Delta; whether the
prime has degree f(prime) and every earlier vertex m has f(m); and whether
some step |d_i - d_(i-1)| exceeds a(2i-1)+b.  Each prefix's degree tuple
is dropped once its record is made, so only one is alive at a time and a
run holds O(n) per polynomial.  Those eight and ``completeness-threshold``
sweep every prefix, building every order up to ``n_max``, so ``run``
refuses an ``n_max`` above the definitional oracle's cap whenever one of
them is selected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import pairwise
from operator import gt, sub
from typing import Iterator, NamedTuple

from . import braided, chroma, oracle
from .builder import JacoGraph, arcs, build
from .errors import OrderTooLargeError
from .incidence import (
    FamilyClass,
    IncidencePolynomial,
    classify,
    evaluate,
    format_polynomial,
    forward_difference_bound,
    parse,
)
from .invariants import (
    completeness_threshold,
    component_decomposition,
    hope_subgraph,
    jaconian,
    smallest_with_max_degree,
    underlying_degrees,
)

QUADRATIC_GRID = tuple(
    IncidencePolynomial(a, b, c)
    for a in (1, 2, 3)
    for b in (0, 1, 2)
    for c in (0, 1, 2)
)

# the polynomials the colouring and arc oracles must agree on
ORACLE_POLYS = (
    IncidencePolynomial(1, 0, 0),   # x^2
    IncidencePolynomial(1, 0, 1),   # x^2 + 1
    IncidencePolynomial(2, 0, 0),   # 2x^2
    IncidencePolynomial(1, 1, 1),   # x^2 + x + 1
    IncidencePolynomial(0, 0, 3),   # constant 3
    IncidencePolynomial(0, 1, 0),   # x
)

X_SQUARED = IncidencePolynomial(1, 0, 0)

_MAX_REPORTED = 5


@dataclass
class PropertyResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition and len(self.failures) < _MAX_REPORTED:
            self.failures.append(message)


@dataclass
class VerifyConfig:
    polynomials: tuple[IncidencePolynomial, ...] | None = None  # None = default grid
    n_max: int = 200
    colouring_n_max: int = 12

    def structural_polys(self) -> tuple[IncidencePolynomial, ...]:
        """The selection, or the default grid, each polynomial once in
        first-seen order."""
        chosen = QUADRATIC_GRID + ORACLE_POLYS if self.polynomials is None else self.polynomials
        return tuple(dict.fromkeys(chosen))

    def quadratic_polys(self) -> tuple[IncidencePolynomial, ...]:
        return tuple(p for p in self.structural_polys() if p.a >= 1)

    def oracle_polys(self) -> tuple[IncidencePolynomial, ...]:
        return ORACLE_POLYS if self.polynomials is None else self.structural_polys()


class _Order(NamedTuple):
    """What the order-k laws read off the underlying degrees of the order-k
    graph.  Vertex indices are 1-based."""

    order: int
    indegree: int  # of v_k
    delta: int
    min_degree: int
    first: int  # first, last index and count of a vertex of degree delta
    last: int
    count: int
    prime_full: bool  # v_first has degree f(first)
    before_prime_full: bool  # every v_m, m < first, has degree f(m)
    jump: bool  # some |d_i - d_(i-1)| exceeds a(2i-1)+b


def _prefixes(p: IncidencePolynomial, n: int) -> Iterator[JacoGraph]:
    """Yield the order-k graph for k = 1..n, sliced from one build.

    In-degrees and reaches do not depend on the order, so the order-k
    graph is the first k of each.
    """
    full = build(p, n)
    for k in range(1, n + 1):
        yield JacoGraph(p, k, full.in_degrees[:k], full.reaches[:k])


@cache
def _degree_sweep(p: IncidencePolynomial, n: int) -> tuple[_Order, ...]:
    """One record per order k = 1..n, read off the underlying degrees of the
    literal order-k graph, which are dropped once read: one sweep, shared by
    every law that reads it during a ``run``."""
    full = tuple(evaluate(p, m) for m in range(1, n + 1))  # the full degree f(m) of v_m
    bounds = tuple(forward_difference_bound(p, i) for i in range(2, n + 1))
    records = []
    for g in _prefixes(p, n):
        degrees = underlying_degrees(g)
        k, delta = g.n, max(degrees)
        first = degrees.index(delta) + 1
        records.append(_Order(
            k, g.in_degrees[-1], delta, min(degrees),
            first, k - degrees[::-1].index(delta), degrees.count(delta),
            degrees[first - 1] == full[first - 1], degrees[: first - 1] == full[: first - 1],
            any(map(gt, map(abs, map(sub, degrees[1:], degrees)), bounds)),
        ))
    return tuple(records)


def _reversed_variance(graph: chroma.SimpleGraph):
    """Variance of the maximum-sum colouring, made literally by reversing
    the minimum one rather than read off the report."""
    return chroma.chromatic_stats(chroma.reverse_colouring(chroma.min_sum_colouring(graph)))[1]


def prop_forward_difference(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.structural_polys():
        for x in range(1, min(cfg.n_max, 200)):
            diff = evaluate(p, x + 1) - evaluate(p, x)
            expected = p.a * (2 * x + 1) + p.b
            res.check(diff == expected, f"{format_polynomial(p)}: f({x + 1})-f({x}) = {diff} != {expected}")
            res.check(
                forward_difference_bound(p, x + 1) == diff,
                f"{format_polynomial(p)}: difference bound at {x + 1} differs from the exact difference",
            )


def prop_parse_roundtrip(cfg: VerifyConfig, res: PropertyResult) -> None:
    extras = (
        IncidencePolynomial(0, 0, 0),
        IncidencePolynomial(0, 0, 5),
        IncidencePolynomial(7, 0, 3),
        IncidencePolynomial(0, 4, 0),
    )
    for p in cfg.structural_polys() + extras:
        text = format_polynomial(p)
        res.check(parse(text) == p, f"parse({text!r}) != {p}")


def prop_definitional_replay(cfg: VerifyConfig, res: PropertyResult) -> None:
    n = min(cfg.n_max, 200)
    for p in cfg.structural_polys():
        fast = arcs(build(p, n))
        literal = oracle.arcs_by_definition(p, n)
        res.check(
            fast == literal,
            f"{format_polynomial(p)}: builder arcs differ from the definitional oracle at n={n}",
        )


def prop_reach_monotone(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.structural_polys():
        g = build(p, cfg.n_max)
        r = g.reaches
        non_dec = all(r[i] <= r[i + 1] for i in range(len(r) - 1))
        res.check(non_dec, f"{format_polynomial(p)}: reach decreases somewhere below n={cfg.n_max}")
        if p.a >= 1:
            strict = all(r[i] < r[i + 1] for i in range(len(r) - 1))
            res.check(strict, f"{format_polynomial(p)}: quadratic reach fails to strictly increase")


def prop_indegree_steps(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.quadratic_polys():
        g = build(p, cfg.n_max)
        d = g.in_degrees
        res.check(
            all(d[i + 1] - d[i] in (0, 1) for i in range(len(d) - 1)),
            f"{format_polynomial(p)}: in-degree step outside {{0, 1}}",
        )


def prop_outdegree_distinct(cfg: VerifyConfig, res: PropertyResult) -> None:
    strict_everywhere = True
    for p in cfg.quadratic_polys():
        g = build(p, cfg.n_max)
        outs = [r - i for i, r in enumerate(g.reaches, start=1)]
        res.check(
            all(outs[i] != outs[i + 1] for i in range(len(outs) - 1)),
            f"{format_polynomial(p)}: equal consecutive root out-degrees",
        )
        if not all(outs[i] < outs[i + 1] for i in range(len(outs) - 1)):
            strict_everywhere = False
    if strict_everywhere:
        res.notes.append("root out-degrees were strictly increasing in every checked graph")


def prop_truncation_coherence(cfg: VerifyConfig, res: PropertyResult) -> None:
    n_max = cfg.n_max
    for p in cfg.structural_polys():
        full = build(p, n_max)
        for m in {1, min(2, n_max), n_max // 3 or 1, n_max // 2 or 1, n_max}:
            part = build(p, m)
            res.check(
                part.in_degrees == full.in_degrees[:m]
                and part.reaches == full.reaches[:m],
                f"{format_polynomial(p)}: truncation to {m} changed in-degrees or reaches",
            )
            # the literal arcs of the order-m graph, counted at their tails
            outs = Counter(i for i, _ in oracle.arcs_by_definition(p, m))
            res.check(
                all(min(r, m) - i == outs[i] for i, r in enumerate(part.reaches, start=1)),
                f"{format_polynomial(p)}: finite out-degree differs from the definitional arcs at n={m}",
            )


def prop_delta_monotone(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.structural_polys():
        pairs = pairwise(_degree_sweep(p, cfg.n_max))
        drop = next((after.order for before, after in pairs if after.delta < before.delta), None)
        res.check(drop is None, f"{format_polynomial(p)}: maximum degree dropped when growing to order {drop}")


def prop_min_degree_bound(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.structural_polys():
        f1 = evaluate(p, 1)
        ok = all(0 <= r.min_degree <= f1 for r in _degree_sweep(p, cfg.n_max))
        res.check(ok, f"{format_polynomial(p)}: minimum degree left the range 0..f(1)")


def prop_prime_full_degree_prefix(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.structural_polys():
        for r in _degree_sweep(p, cfg.n_max):
            if r.prime_full:
                res.check(
                    r.before_prime_full,
                    f"{format_polynomial(p)}, n={r.order}: prime at full degree but an earlier vertex is not",
                )


def prop_milestone_prime(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.quadratic_polys():
        reaches = build(p, cfg.n_max).reaches
        for r in _degree_sweep(p, cfg.n_max):
            if r.order in reaches[: r.order - 1]:
                milestone = reaches.index(r.order) + 1
                res.check(
                    r.first == milestone,
                    f"{format_polynomial(p)}, n={r.order}: vertex {milestone} has reach n"
                    f" but prime is {r.first}",
                )


def prop_completeness_threshold(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.structural_polys():
        thr = completeness_threshold(p)
        for k in range(1, min(thr, cfg.n_max) + 1):
            g = build(p, k)
            degrees = underlying_degrees(g)
            complete = all(d == k - 1 for d in degrees)
            rep = jaconian(g)
            res.check(
                complete and rep.max_degree == k - 1 and len(rep.jaconian_set) == k,
                f"{format_polynomial(p)}: order {k} <= f(1)+1 = {thr} is not complete",
            )
        if thr < cfg.n_max:
            g = build(p, thr + 1)
            res.check(
                any(d != thr for d in underlying_degrees(g)),
                f"{format_polynomial(p)}: order {thr + 1} > f(1)+1 is still complete",
            )


def prop_degree_jump_bound(cfg: VerifyConfig, res: PropertyResult) -> None:
    # a quadratic-family law: constant incidence breaks it at block boundaries
    for p in cfg.quadratic_polys():
        jump = next((r.order for r in _degree_sweep(p, cfg.n_max) if r.jump), None)
        res.check(jump is None, f"{format_polynomial(p)}: degree jump exceeded a(2i-1)+b at order {jump}")


def prop_jaconian_plateau(cfg: VerifyConfig, res: PropertyResult) -> None:
    # the in-degree of v_n and the Jaconian set size of the order-n graph
    for r, r_next in pairwise(_degree_sweep(X_SQUARED, cfg.n_max)):
        if r.indegree == r_next.indegree:
            res.check(
                r.count != r_next.count,
                f"x^2: in-degree plateau at {r.order} but the Jaconian set kept size {r.count}",
            )


def prop_hope_complete(cfg: VerifyConfig, res: PropertyResult) -> None:
    """``hope_subgraph`` of every prefix is the range above its literal
    prime, and every vertex in that range below v_k reaches v_k, read off
    each reach, so the range induces a complete graph."""
    for p in cfg.quadratic_polys():
        orders = zip(_prefixes(p, cfg.n_max), _degree_sweep(p, cfg.n_max))
        broken = next((
            g.n for g, r in orders
            if hope_subgraph(g) != range(r.first + 1, g.n + 1)
            or min(g.reaches[r.first : g.n - 1], default=g.n) < g.n
        ), None)
        res.check(
            broken is None,
            f"{format_polynomial(p)}: Hope subgraph is not the complete range above the prime"
            f" at order {broken}",
        )


def prop_locator(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.quadratic_polys():
        # the sweep runs first, so an unreachable target exits 3, not 1,
        # even where the locator would refuse k = 2^63
        f1 = evaluate(p, 1)
        target = evaluate(p, f1)
        swept = oracle.sweep_smallest_max_degree(p, target)
        k, prime, delta = smallest_with_max_degree(p)
        res.check(
            k == swept,
            f"{format_polynomial(p)}: locator gives {k} but the sweep found {swept}",
        )
        superseded = target - f1 + 1
        if superseded != k:
            res.notes.append(
                f"{format_polynomial(p)}: k = f(f(1))+1 = {k} (prime v{prime}, degree {delta});"
                f" the superseded form f(f(1))-f(1)+1 = {superseded} misses"
            )


def _scanned_components(g: JacoGraph) -> list[range]:
    """Components scanned literally off the built reaches: one starts at
    every i whose predecessor does not reach it."""
    starts = [1] + [i for i, r in zip(range(2, g.n + 1), g.reaches) if r < i]
    return [range(s, e) for s, e in zip(starts, starts[1:] + [g.n + 1])]


def prop_component_structure(cfg: VerifyConfig, res: PropertyResult) -> None:
    n = min(cfg.n_max, 60)
    for p in cfg.structural_polys():
        g = build(p, n)
        comps = component_decomposition(g)
        scanned = comps == _scanned_components(g)
        if classify(p) is FamilyClass.CONSTANT:
            # blocks of c + 1, the last maybe smaller, each complete: every
            # vertex reaches the last vertex of its block
            size = p.c + 1
            blocks = (
                all(len(comp) == size for comp in comps[:-1]) and len(comps[-1]) <= size
                and all(min(g.reaches[u - 1], n) >= comp[-1] for comp in comps for u in comp)
            )
            res.check(
                scanned and blocks,
                f"{format_polynomial(p)}: constant components are not consecutive K_{size} blocks",
            )
        else:
            res.check(
                scanned and len(comps) == 1,
                f"{format_polynomial(p)}: connected family split into components",
            )


def prop_oracle_colouring(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.oracle_polys():
        for n in range(1, cfg.colouring_n_max + 1):
            g = build(p, n)
            literal = oracle.arcs_by_definition(p, n)
            res.check(arcs(g) == literal, f"{format_polynomial(p)}, n={n}: arc sets disagree")
            colouring = chroma.min_sum_colouring(chroma.underlying_graph(g))
            exp_sum, exp_weights = oracle.exhaustive_min_sum(oracle.from_edges(n, literal))
            res.check(
                chroma.colour_sum(colouring) == exp_sum
                and colouring.weights == exp_weights,
                f"{format_polynomial(p)}, n={n}: solver gives"
                f" {chroma.colour_sum(colouring)} {colouring.weights},"
                f" oracle {exp_sum} {exp_weights}",
            )


def prop_complete_graph_sums(cfg: VerifyConfig, res: PropertyResult) -> None:
    for n in range(1, 51):
        report = chroma.chroma_report(chroma.SimpleGraph.complete(n))
        total, mean, variance = braided.complete_graph_stats(n)
        res.check(
            report.chi_minus == total
            and report.chi_plus == total
            and report.mu_minus == mean
            and report.mu_plus == mean
            and report.var_minus == variance
            and report.var_plus == variance,
            f"K_{n}: engine disagrees with the closed forms",
        )


def prop_reversal_identity(cfg: VerifyConfig, res: PropertyResult) -> None:
    for p in cfg.oracle_polys():
        for n in range(1, cfg.colouring_n_max + 1):
            underlying = chroma.underlying_graph(build(p, n))
            report = chroma.chroma_report(underlying)
            maximum = chroma.reverse_colouring(chroma.min_sum_colouring(underlying))
            res.check(
                report.chi_plus == chroma.colour_sum(maximum),
                f"{format_polynomial(p)}, n={n}: reversal identity broken",
            )
            res.check(
                (report.mu_plus, report.var_plus) == chroma.chromatic_stats(maximum)
                and report.weights_max == maximum.weights,
                f"{format_polynomial(p)}, n={n}: reversed-colouring statistics relation broken",
            )


def prop_greedy_agreement(cfg: VerifyConfig, res: PropertyResult) -> None:
    """The first-fit colouring of the certified graph matches the exact
    optimum on the reference quadratic family.  The exact side is the
    oracle's partition search on the masks of the definitional arcs, so it
    reads neither the builder nor the caps, and the two sides share no code.
    A divergence is reported as a failure so it cannot pass silently."""
    for i in range(1, 21):
        exact = oracle.partition_min_sum(
            oracle.from_edges(i, oracle.arcs_by_definition(X_SQUARED, i))
        )
        greedy = chroma.min_sum_colouring(chroma.underlying_graph(build(X_SQUARED, i)))
        res.check(
            greedy.weights == exact.weights
            and chroma.colour_sum(greedy) == chroma.colour_sum(exact),
            f"x^2, n={i}: greedy gives {greedy.weights}, exact optimum {exact.weights}",
        )


def prop_braided_closed_forms(cfg: VerifyConfig, res: PropertyResult) -> None:
    for n in range(1, 12):
        for m in range(1, n + 1):
            for l in range(0, m + 1):
                if n + m - l > 12:
                    continue
                graph = braided.realize(braided.BraidedString((n, m), (l,)))
                report = chroma.chroma_report(graph)
                res.check(
                    report.mu_minus == braided.mu_min_two_block(n, m, l)
                    and report.mu_plus == braided.mu_max_two_block(n, m, l),
                    f"blocks ({n}, {m}) overlap {l}: closed forms disagree with the engine",
                )
                res.check(
                    report.var_minus == _reversed_variance(graph),
                    f"blocks ({n}, {m}) overlap {l}: variances differ",
                )
                swapped = chroma.chroma_report(braided.realize(braided.BraidedString((m, n), (l,))))
                res.check(
                    swapped.chi_minus == report.chi_minus
                    and swapped.chi == report.chi
                    and swapped.chi_plus == report.chi_plus,
                    f"blocks ({n}, {m}) overlap {l}: braiding is not commutative",
                )


def prop_weight_evolution(cfg: VerifyConfig, res: PropertyResult) -> None:
    previous: tuple[int, ...] | None = None
    for i in range(1, 21):
        weights = chroma.min_sum_colouring(
            chroma.underlying_graph(build(X_SQUARED, i))
        ).weights
        if previous is not None:
            if len(weights) == len(previous) + 1:
                ok = weights[:-1] == previous and weights[-1] == 1
            elif len(weights) == len(previous):
                bumps = [j for j in range(len(weights)) if weights[j] != previous[j]]
                ok = len(bumps) == 1 and weights[bumps[0]] == previous[bumps[0]] + 1
            else:
                ok = False
            res.check(
                ok,
                f"x^2: weights changed irregularly from order {i - 1} to {i}:"
                f" {previous} -> {weights}",
            )
        previous = weights


def prop_variance_symmetry(cfg: VerifyConfig, res: PropertyResult) -> None:
    for i in range(1, 21):
        graph = chroma.underlying_graph(build(X_SQUARED, i))
        report = chroma.chroma_report(graph)
        res.check(
            report.var_minus == _reversed_variance(graph),
            f"x^2, n={i}: minimum and maximum variances differ",
        )


def prop_jaconian_contiguity(cfg: VerifyConfig, res: PropertyResult) -> None:
    """The Jaconian set is one run of indices, as the ``invariants`` module
    docstring proves and ``jaconian`` relies on; checked literally, from
    every degree of every prefix."""
    for p in cfg.structural_polys():
        for r in _degree_sweep(p, cfg.n_max):
            res.check(
                r.last - r.first + 1 == r.count,
                f"{format_polynomial(p)}: at n={r.order} the {r.count} vertices of degree"
                f" {r.delta} do not fill {r.first}..{r.last}",
            )


# each law, the family it is stated for (None: every incidence polynomial)
# and whether it builds every order up to --n, in time quadratic in it
PROPERTIES = {
    "forward-difference": (prop_forward_difference, None, False),
    "parse-roundtrip": (prop_parse_roundtrip, None, False),
    "definitional-replay": (prop_definitional_replay, None, False),
    "reach-monotone": (prop_reach_monotone, None, False),
    "indegree-steps": (prop_indegree_steps, "quadratic incidence", False),
    "outdegree-distinct": (prop_outdegree_distinct, "quadratic incidence", False),
    "truncation-coherence": (prop_truncation_coherence, None, False),
    "delta-monotone": (prop_delta_monotone, None, True),
    "min-degree-bound": (prop_min_degree_bound, None, True),
    "prime-full-degree-prefix": (prop_prime_full_degree_prefix, None, True),
    "milestone-prime": (prop_milestone_prime, "quadratic incidence", True),
    "completeness-threshold": (prop_completeness_threshold, None, True),
    "degree-jump-bound": (prop_degree_jump_bound, "quadratic incidence", True),
    "jaconian-plateau": (prop_jaconian_plateau, "x^2", True),
    "hope-complete": (prop_hope_complete, "quadratic incidence", True),
    "smallest-max-degree-locator": (prop_locator, "quadratic incidence", False),
    "component-structure": (prop_component_structure, None, False),
    "oracle-colouring": (prop_oracle_colouring, None, False),
    "complete-graph-sums": (prop_complete_graph_sums, None, False),
    "reversal-identity": (prop_reversal_identity, None, False),
    "greedy-agreement": (prop_greedy_agreement, "x^2", False),
    "braided-closed-forms": (prop_braided_closed_forms, None, False),
    "weight-evolution": (prop_weight_evolution, "x^2", False),
    "variance-symmetry": (prop_variance_symmetry, "x^2", False),
    "jaconian-contiguity": (prop_jaconian_contiguity, None, True),
}


def run(cfg: VerifyConfig | None = None, only: tuple[str, ...] | None = None) -> list[PropertyResult]:
    cfg = cfg or VerifyConfig()
    selected = dict.fromkeys(only or PROPERTIES)
    for name in selected:
        if name not in PROPERTIES:
            raise ValueError(f"unknown property {name!r}; known: {', '.join(PROPERTIES)}")
    # an order an oracle caps is refused before any property runs, not after
    # all the others have
    if "oracle-colouring" in selected and cfg.colouring_n_max > oracle.MAX_EXHAUSTIVE_ORDER:
        raise OrderTooLargeError(f"exhaustive oracle capped at order {oracle.MAX_EXHAUSTIVE_ORDER}")
    if "truncation-coherence" in selected and cfg.n_max > oracle.MAX_DEFINITIONAL_ORDER:
        raise OrderTooLargeError(f"definitional oracle capped at {oracle.MAX_DEFINITIONAL_ORDER}")
    if cfg.n_max > oracle.MAX_DEFINITIONAL_ORDER and any(PROPERTIES[name][2] for name in selected):
        raise OrderTooLargeError(f"prefix sweep capped at {oracle.MAX_DEFINITIONAL_ORDER}")
    quadratic = cfg.quadratic_polys()
    results = []
    try:
        for name in selected:
            law, family, _ = PROPERTIES[name]
            res = PropertyResult(name)
            if family and (not quadratic or family == "x^2" and X_SQUARED not in quadratic):
                res.notes.append(f"defined for {family} only; skipped for this polynomial selection")
            else:
                law(cfg, res)
            results.append(res)
    finally:
        _degree_sweep.cache_clear()
    return results
