"""The subset-table kernel against the per-subset loops it replaced.

The four loops below are the exhaustive routines as they were written before
the kernel, kept as oracles: exact treewidth, the exhaustive densest
subgraph, the exact expansion constant and the exact alpha-expander check.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepminor import (
    BudgetExceeded,
    build_graph,
    densest_subgraph,
    densest_subgraph_exhaustive,
    exact_expansion_constant,
    is_alpha_expander_exact,
    treewidth_exact,
)
from sepminor import subsets
from sepminor.formats import dumps_canonical
from sepminor.generators import path, random_graph, random_regular


def _reach_boundary_size(masks, through_mask, v):
    comp = 1 << v
    frontier = comp
    nbr = 0
    while frontier:
        x = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        ax = masks[x]
        nbr |= ax
        new = ax & through_mask & ~comp
        comp |= new
        frontier |= new
    return (nbr & ~through_mask & ~(1 << v)).bit_count()


def treewidth_loop(g):
    """(value, elimination order)"""
    if g.n == 0:
        return -1, ()
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    tw = [-1] * (full + 1)
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        best, best_v = g.n, -1
        ss = s
        while ss:
            v = (ss & -ss).bit_length() - 1
            ss &= ss - 1
            prev = s & ~(1 << v)
            width = max(tw[prev], _reach_boundary_size(masks, prev, v))
            if width < best:
                best, best_v = width, v
        tw[s], choice[s] = best, best_v
    order_rev = []
    s = full
    while s:
        order_rev.append(choice[s])
        s &= ~(1 << choice[s])
    return tw[full], tuple(reversed(order_rev))


def densest_loop(g):
    masks = g.adjacency_masks()
    best_mask, best = 1, Fraction(0)
    for mask in range(1, 1 << g.n):
        twice = sum((masks[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1)
        d = Fraction(twice // 2, mask.bit_count())
        if d > best:
            best, best_mask = d, mask
    return frozenset(v for v in range(g.n) if best_mask >> v & 1), best


def _neighborhood_size(masks, subset_mask):
    nbr = 0
    mm = subset_mask
    while mm:
        v = (mm & -mm).bit_length() - 1
        mm &= mm - 1
        nbr |= masks[v]
    return (nbr & ~subset_mask).bit_count()


def _subsets_up_to_half(n):
    for k in range(1, n // 2 + 1):
        for combo in combinations(range(n), k):
            yield combo, sum(1 << v for v in combo)


def expansion_loop(g):
    masks = g.adjacency_masks()
    return min(
        Fraction(_neighborhood_size(masks, mask), len(combo))
        for combo, mask in _subsets_up_to_half(g.n)
    )


def expander_loop(g, alpha):
    """(is_expander, violating set or None)"""
    masks = g.adjacency_masks()
    p, q = alpha.numerator, alpha.denominator
    for combo, mask in _subsets_up_to_half(g.n):
        if q * _neighborhood_size(masks, mask) < p * len(combo):
            return False, frozenset(combo)
    return True, None


@st.composite
def small_graphs(draw, lo=1, hi=12):
    n = draw(st.integers(lo, hi))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    small_graphs(),
    st.integers(0, 12),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
)
def test_kernel_matches_loops_property(g, low_bits, alpha):
    # low_bits below n splits the masks into several blocks even at n <= 12
    with mock.patch.object(subsets, "_LOW_BITS", low_bits):
        result = treewidth_exact(g)
        assert (result.value, result.elimination_order) == treewidth_loop(g)
        assert densest_subgraph_exhaustive(g) == densest_loop(g)
        if g.n >= 2:
            assert exact_expansion_constant(g) == expansion_loop(g)
        verdict = is_alpha_expander_exact(g, alpha)
        assert (verdict.is_expander, verdict.violating) == expander_loop(g, alpha)


def test_kernel_matches_loops_past_one_block():
    rng = random.Random(43)
    for n in (13, 14):
        g = random_graph(n, 2 * n, rng.getrandbits(32))
        result = treewidth_exact(g)
        assert (result.value, result.elimination_order) == treewidth_loop(g)
        assert densest_subgraph_exhaustive(g) == densest_loop(g)
        assert exact_expansion_constant(g) == expansion_loop(g)
        for alpha in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
            verdict = is_alpha_expander_exact(g, alpha)
            assert (verdict.is_expander, verdict.violating) == expander_loop(g, alpha)


def test_expander_handles_negative_and_huge_alpha():
    g = random_graph(10, 20, 3)
    assert is_alpha_expander_exact(g, Fraction(-5, 2)).is_expander
    verdict = is_alpha_expander_exact(g, Fraction(10**30 + 1, 10**30))
    assert (verdict.is_expander, verdict.violating) == expander_loop(g, Fraction(10**30 + 1, 10**30))


def _treewidth_out(g):
    r = treewidth_exact(g)
    return {"value": r.value, "order": list(r.elimination_order)}


def _densest_out(g):
    vertices, value = densest_subgraph_exhaustive(g)
    return {"vertices": sorted(vertices), "density": str(value)}


def _expansion_out(g):
    return {"expansion": str(exact_expansion_constant(g))}


def _expander_out(g, alpha):
    r = is_alpha_expander_exact(g, alpha)
    return {"is_expander": r.is_expander, "violating": sorted(r.violating) if r.violating else None}


# Graphs drawn like the exact-small benchmark's (n = 15, 16, 18); sha256 of
# the canonical JSON of each output, recorded from the per-subset loops.
KERNEL_DIGESTS = {
    "treewidth random_graph(15, 30, 1)": "cea66f16e6f26c71efa55676f3965eeeef34f0c684546aa166f6973c9113034e",
    "treewidth random_graph(15, 30, 2)": "20c9808ce175b285315a488c886c4a9cedf666467fb33ca480e4a0d0917fbca4",
    "densest random_graph(16, 32, 3)": "a3afe83400b3959b9e4faed4af5f80d748945406838342620745ef7547d7b4f7",
    "densest random_graph(16, 32, 4)": "ef36c97e7b0d0cf26b23fdc4e8fb933ff6dfc80695916378be37a0ae66c331f8",
    "expansion random_regular(18, 3, 5)": "fe99b72050e97574c8c307eb191d36c49b67da394740119fb38cc1f8aa1dd76f",
    "expansion random_graph(18, 36, 6)": "f1c46ba5ce9e227189f4c806058cdb320011a733097c0454b42e893bcd7f0e57",
    "expander random_regular(18, 3, 5) alpha=1/2": "8b6a8018e66dd1c86dec372ba24fa3410647cd0e4ddb2d66030f5cbb8805d9b6",
    "expander random_regular(18, 3, 5) alpha=1": "09d484cdb00076d98d53054af447dfcae44dcfb4c0d13556d634c5c8244526aa",
    "expander random_regular(18, 3, 5) alpha=4/9": "71ff6ba302f164f5beb830d8237aaceda900033cfe0e3141a5388252afb86ee3",
    "expander random_graph(18, 36, 6) alpha=2/3": "15b5f5f012078bc6d546b3b2f4901a0de248c08c969e764a82a94d5d86527537",
}
KERNEL_CORPUS = {
    "treewidth random_graph(15, 30, 1)": lambda: _treewidth_out(random_graph(15, 30, 1)),
    "treewidth random_graph(15, 30, 2)": lambda: _treewidth_out(random_graph(15, 30, 2)),
    "densest random_graph(16, 32, 3)": lambda: _densest_out(random_graph(16, 32, 3)),
    "densest random_graph(16, 32, 4)": lambda: _densest_out(random_graph(16, 32, 4)),
    "expansion random_regular(18, 3, 5)": lambda: _expansion_out(random_regular(18, 3, 5)),
    "expansion random_graph(18, 36, 6)": lambda: _expansion_out(random_graph(18, 36, 6)),
    "expander random_regular(18, 3, 5) alpha=1/2": lambda: _expander_out(
        random_regular(18, 3, 5), Fraction(1, 2)
    ),
    "expander random_regular(18, 3, 5) alpha=1": lambda: _expander_out(
        random_regular(18, 3, 5), Fraction(1)
    ),
    "expander random_regular(18, 3, 5) alpha=4/9": lambda: _expander_out(
        random_regular(18, 3, 5), Fraction(4, 9)
    ),
    "expander random_graph(18, 36, 6) alpha=2/3": lambda: _expander_out(
        random_graph(18, 36, 6), Fraction(2, 3)
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_DIGESTS))
def test_kernel_digests_fixed_corpus(name):
    text = dumps_canonical(KERNEL_CORPUS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGESTS[name]


@pytest.mark.parametrize(
    "call",
    [
        lambda g: treewidth_exact(g, budget=40),
        lambda g: densest_subgraph_exhaustive(g, budget=40),
        lambda g: densest_subgraph(g, method="exhaustive", budget=40),
        lambda g: exact_expansion_constant(g, budget=40),
        lambda g: is_alpha_expander_exact(g, Fraction(1), budget=40),
    ],
    ids=["treewidth", "densest", "densest-method", "expansion", "expander"],
)
def test_kernel_refuses_past_cap_whatever_the_budget(call):
    with pytest.raises(BudgetExceeded, match=f"n <= {subsets.MAX_VERTICES}, got 30"):
        call(path(30))


def test_kernel_cap_is_the_exact_budget():
    from sepminor.separators import EXACT_BUDGET

    assert subsets.MAX_VERTICES == EXACT_BUDGET == 24
