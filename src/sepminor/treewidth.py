"""Exact treewidth for small graphs and the separator <-> treewidth bounds.

The exact solver is the classic dynamic program over vertex subsets (optimal
elimination ordering); the min-fill heuristic provides labeled upper bounds
above the exact budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .errors import AlgorithmFailure, BudgetExceeded, GraphError
from .graph import Graph, components
from .intmath import ceil_pow
from .separators import (
    SeparatorCertificate,
    _certificate,
    _min_separator,
    balance_threshold,
)
from .subsets import SubsetTables

__all__ = [
    "TreewidthResult",
    "treewidth_exact",
    "minfill_upper",
    "tw_upper_from_separators",
    "hereditary_separator_number",
    "separator_from_treewidth",
    "subdivided_separator_bound",
    "invert_subdivided_size",
]

EXACT_TW_BUDGET = 18
_PREFIXES_PER_PASS = 1 << 10


@dataclass(frozen=True)
class TreewidthResult:
    value: int
    method: str  # exact-dp | minfill-upper | separator-derived-upper
    elimination_order: Optional[tuple[int, ...]] = None


def treewidth_exact(g: Graph, budget: int = EXACT_TW_BUDGET) -> TreewidthResult:
    """Exact treewidth by dynamic programming over elimination prefixes
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos, "On exact algorithms
    for treewidth", 2006).

    State S is the set of vertices eliminated first; the recurrence chooses
    the last vertex v of the prefix, at width max(tw(S - v), |N(C) - S|)
    where C is v's component in G[S].  The prefixes are solved one popcount
    layer at a time: every (prefix, v) pair of a layer goes through the
    subset tables at once, in chunks of 2^10 prefixes, and each prefix keeps
    the smallest v of least width, as a scan in ascending v that replaces
    the best only at a strictly smaller width would.  Time O(2^n * n * d)
    for d the closure rounds (at most n); memory two 2^n-byte tables (width
    and choice) plus O(2^10 * n) per chunk.  On a 2-vCPU 2.1 GHz VM, n = 9
    takes 0.7-1.4 ms, n = 15 20-40 ms and n = 18 0.27-0.36 s.  n is capped
    at the budget (default 18) and at the kernel's 24.
    """
    if g.n > budget:
        raise BudgetExceeded(f"exact treewidth needs n <= {budget}, got {g.n}")
    if g.n == 0:
        return TreewidthResult(value=-1, method="exact-dp", elimination_order=())
    tables = SubsetTables(g.adjacency_masks())
    n = g.n
    width = np.zeros(1 << n, dtype=np.uint8)  # the empty prefix reads 0, not -1: only max() sees it
    choice = np.zeros(1 << n, dtype=np.uint8)
    bits = np.arange(n)
    for k in range(1, n + 1):
        layer = tables.layer(k)
        for start in range(0, len(layer), _PREFIXES_PER_PASS):
            s = layer[start : start + _PREFIXES_PER_PASS]
            # every (prefix, last vertex) pair, each prefix's vertices ascending
            row, last = np.nonzero(s[:, None] >> bits & 1)
            prefix = s[row]
            alone = 1 << last
            w = np.maximum(width[prefix ^ alone], tables.component_boundaries(prefix, alone))
            w = w.reshape(len(s), k)
            pick = w.argmin(axis=1)  # the first least width, so the smallest such v
            rows = np.arange(len(s))
            width[s] = w[rows, pick]
            choice[s] = last.reshape(len(s), k)[rows, pick]
    order_rev = []
    s = (1 << n) - 1
    while s:
        v = int(choice[s])
        order_rev.append(v)
        s &= ~(1 << v)
    return TreewidthResult(
        value=int(width[-1]), method="exact-dp", elimination_order=tuple(reversed(order_rev))
    )


def minfill_upper(g: Graph) -> TreewidthResult:
    """Min-fill elimination heuristic; an upper bound, labeled as such."""
    if g.n == 0:
        return TreewidthResult(value=-1, method="minfill-upper", elimination_order=())
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    alive = set(range(g.n))
    order = []
    width = 0
    while alive:
        def fill_count(v: int) -> int:
            nbrs = [w for w in adj[v] if w in alive]
            return sum(
                1
                for a, b in combinations(nbrs, 2)
                if b not in adj[a]
            )

        v = min(alive, key=lambda u: (fill_count(u), u))
        nbrs = [w for w in adj[v] if w in alive]
        width = max(width, len(nbrs))
        for a, b in combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        alive.remove(v)
        order.append(v)
    return TreewidthResult(value=width, method="minfill-upper", elimination_order=tuple(order))


def tw_upper_from_separators(g: Graph, k: int) -> int:
    """Treewidth bound 15*k from a witness that every induced subgraph has a
    balanced separator of size at most k."""
    if k < 0:
        raise ValueError(f"separator bound must be >= 0, got {k}")
    return 15 * k


def hereditary_separator_number(g: Graph, budget: int = 9) -> int:
    """max over all induced subgraphs H of the exact minimum balanced
    separator size of H.  Double-exhaustive, so hosts are capped at n <= 9.

    Each of the 2^n - 1 searches is separators._min_separator on Python-int
    masks: at n <= 9 a search costs well under a millisecond, less than
    setting up numpy tables for it would."""
    if g.n > budget:
        raise BudgetExceeded(f"hereditary separator number needs n <= {budget}, got {g.n}")
    if g.n == 0:
        return 0
    masks = g.adjacency_masks()
    return max(_min_separator(masks, vmask).bit_count() for vmask in range(1, 1 << g.n))


def _bags_from_elimination(g: Graph, order: tuple[int, ...]) -> list[frozenset[int]]:
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    alive = set(range(g.n))
    bags = []
    for v in order:
        nbrs = {w for w in adj[v] if w in alive}
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            for b in nbrs:
                if a < b:
                    adj[a].add(b)
                    adj[b].add(a)
        alive.remove(v)
    return bags


def separator_from_treewidth(
    g: Graph,
    c: Optional[int] = None,
    result: Optional[TreewidthResult] = None,
) -> SeparatorCertificate:
    """Balanced separator of size at most c+1 taken from a width-c
    tree decomposition's bags (decomposition from the exact solver).

    Some bag of any tree decomposition is balanced, so the search over bags
    always succeeds; the winner is revalidated before being returned.
    """
    if result is None:
        result = treewidth_exact(g)
    if result.elimination_order is None:
        raise GraphError("no elimination order available")
    if c is None:
        c = result.value
    if result.value > c:
        raise GraphError(f"no decomposition of width <= {c} available (width {result.value})")
    bags = _bags_from_elimination(g, result.elimination_order)
    threshold = balance_threshold(g.n)
    for bag in sorted(set(bags), key=lambda b: (len(b), sorted(b))):
        if components(g, bag).largest() <= threshold:
            if len(bag) > c + 1:
                continue
            return _certificate(g, bag)
    raise AlgorithmFailure("no bag of the decomposition is balanced")


def invert_subdivided_size(y: int, eps: Fraction) -> int:
    """Largest integer x >= 1 with x * ceil(x ** (eps/(1-eps))) <= y (clamped at 1).

    This inverts the vertex count of a subdivided graph back to the order of
    its base subgraph; the product is strictly increasing, so binary search on
    exact integers suffices.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    exponent = eps / (1 - eps)

    def product(x: int) -> int:
        return x * ceil_pow(x, exponent)

    if product(1) > y:
        return 1
    lo, hi = 1, max(1, y)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if product(mid) <= y:
            lo = mid
        else:
            hi = mid - 1
    return lo


def subdivided_separator_bound(
    n_prime: int,
    eps: Fraction,
    profile: tuple[Union[int, Fraction], Union[int, Fraction]] = (1, 1),
) -> Union[Fraction, float]:
    """Predicted separator bound 15*f(p(2*n')) + 1 for induced subgraphs of
    eps-subdivided members of a class with separator profile f(x) = coef * x^power.

    p is the exact integer inverse of x -> x * ceil(x**(eps/(1-eps))).
    Monotone non-decreasing in n'.
    """
    if n_prime < 1:
        raise ValueError(f"subgraph order must be >= 1, got {n_prime}")
    coef, power = profile
    base = invert_subdivided_size(2 * n_prime, eps)
    power = Fraction(power)
    if power.denominator == 1:
        return 15 * Fraction(coef) * Fraction(base) ** power + 1
    return 15 * float(coef) * float(base) ** float(power) + 1
