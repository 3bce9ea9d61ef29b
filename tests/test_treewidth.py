import random
from fractions import Fraction

import pytest

from sepminor import (
    BudgetExceeded,
    GraphError,
    hereditary_separator_number,
    invert_subdivided_size,
    min_balanced_separator_exact,
    minfill_upper,
    separator_from_treewidth,
    subdivided_separator_bound,
    treewidth_exact,
    tw_upper_from_separators,
)
from sepminor.generators import complete, cycle, path, planar_grid, random_graph, random_tree


def brute_treewidth(g):
    """Minimum over elimination orders of the maximum elimination degree."""
    from itertools import permutations

    best = g.n
    for order in permutations(range(g.n)):
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        alive = set(range(g.n))
        width = 0
        for v in order:
            nbrs = [w for w in adj[v] if w in alive]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for a in nbrs:
                for b in nbrs:
                    if a != b:
                        adj[a].add(b)
            alive.remove(v)
        best = min(best, width)
    return best


def test_tree_is_one():
    assert treewidth_exact(random_tree(9, seed=2)).value == 1


def test_clique_is_n_minus_one():
    for n in (2, 4, 6):
        assert treewidth_exact(complete(n)).value == n - 1


def test_cycle_is_two():
    assert treewidth_exact(cycle(7)).value == 2


def test_grid3_is_three():
    assert treewidth_exact(planar_grid(3)).value == 3


def test_exact_matches_brute_force_small():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        assert treewidth_exact(g).value == brute_treewidth(g)


def test_exact_budget():
    with pytest.raises(BudgetExceeded):
        treewidth_exact(path(25))


def test_elimination_order_realizes_width():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        res = treewidth_exact(g)
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        alive = set(range(g.n))
        width = 0
        for v in res.elimination_order:
            nbrs = [w for w in adj[v] if w in alive]
            width = max(width, len(nbrs))
            for a in nbrs:
                for b in nbrs:
                    if a != b:
                        adj[a].add(b)
            alive.remove(v)
        assert width == res.value


def test_minfill_upper_bounds_exact():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        assert minfill_upper(g).value >= treewidth_exact(g).value


def test_networkx_heuristics_upper_bound_exact():
    approximation = pytest.importorskip("networkx.algorithms.approximation")
    import networkx as nx

    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)), rng.getrandbits(32))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        exact = treewidth_exact(g).value
        assert approximation.treewidth_min_fill_in(h)[0] >= exact
        assert approximation.treewidth_min_degree(h)[0] >= exact


def test_minfill_equality_on_nice_families():
    assert minfill_upper(random_tree(10, seed=7)).value == 1
    assert minfill_upper(complete(6)).value == 5
    assert minfill_upper(cycle(8)).value == 2


def test_tw_upper_from_separators_tree():
    t = random_tree(8, seed=11)
    k = hereditary_separator_number(t)
    assert k == 1
    assert tw_upper_from_separators(t, k) == 15
    assert treewidth_exact(t).value <= 15


def test_hereditary_separator_k6():
    assert hereditary_separator_number(complete(6)) == 2


def test_theorem_style_inequality_random():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        k = hereditary_separator_number(g)
        assert treewidth_exact(g).value <= tw_upper_from_separators(g, k)


def test_separator_from_treewidth_path():
    cert = separator_from_treewidth(path(9))
    assert cert.size <= 2 and cert.revalidate(path(9))


def test_separator_from_treewidth_grid3():
    g = planar_grid(3)
    cert = separator_from_treewidth(g)
    assert cert.size <= 4 and cert.revalidate(g)


def test_separator_from_treewidth_k5():
    g = complete(5)
    cert = separator_from_treewidth(g)
    assert cert.size <= 5
    assert min_balanced_separator_exact(g).size == 2 <= 5


def test_separator_from_treewidth_rejects_low_c():
    with pytest.raises(GraphError):
        separator_from_treewidth(planar_grid(3), c=1)


def test_separator_from_treewidth_random_revalidates():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        res = treewidth_exact(g)
        cert = separator_from_treewidth(g, result=res)
        assert cert.size <= res.value + 1
        assert cert.revalidate(g)


def test_invert_subdivided_size():
    # x * ceil(x) <= 100 peaks at x = 10 for eps = 1/2
    assert invert_subdivided_size(100, Fraction(1, 2)) == 10
    assert invert_subdivided_size(2, Fraction(1, 2)) == 1
    assert invert_subdivided_size(1, Fraction(2, 3)) == 1


def test_subdivided_separator_bound_spots():
    assert subdivided_separator_bound(50, Fraction(1, 2), (1, 1)) == 151
    assert subdivided_separator_bound(1, Fraction(1, 2), (1, 1)) == 16


def test_subdivided_separator_bound_monotone():
    values = [subdivided_separator_bound(n, Fraction(1, 2), (1, 1)) for n in range(1, 200)]
    assert values == sorted(values)


def test_subdivided_separator_bound_sqrt_profile():
    val = subdivided_separator_bound(50, Fraction(1, 2), (1, Fraction(1, 2)))
    assert isinstance(val, float) and val == pytest.approx(15 * 10**0.5 + 1)
