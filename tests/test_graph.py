import random
from fractions import Fraction

import pytest

from sepminor import (
    GraphError,
    bfs_radius,
    build_graph,
    components,
    degeneracy,
    density,
    parse_edge_list,
    serialize_edge_list,
)
from sepminor.graph import oversized_component
from sepminor.generators import complete, cycle, path, random_graph, star


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.neighbors(1) == (0, 2)


def test_build_single_vertex_density_zero():
    g = build_graph(1, [])
    assert density(g) == Fraction(0)


def test_build_k4_density():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert density(g) == Fraction(3, 2)


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(0, 3)]),
        (3, [(-1, 0)]),
        (3, [(1, 1)]),
        (3, [(0, 1), (1, 0)]),
        (3, [(0, 1), (0, 1)]),
    ],
)
def test_build_rejects_bad_edges(n, edges):
    with pytest.raises(GraphError):
        build_graph(n, edges)


def test_components_path_split():
    decomp = components(path(5), {2})
    assert sorted(decomp.sizes) == [2, 2]
    assert decomp.component_of[2] == -1


def test_components_k6_whole():
    decomp = components(complete(6))
    assert decomp.sizes == (6,)


def test_components_c6_opposite_pair():
    decomp = components(cycle(6), {0, 3})
    assert sorted(decomp.sizes) == [2, 2]


def test_components_sizes_partition_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        removed = {v for v in range(n) if rng.random() < 0.3}
        decomp = components(g, removed)
        assert sum(decomp.sizes) == n - len(removed)
        for u, v in g.edges:
            if u not in removed and v not in removed:
                assert decomp.component_of[u] == decomp.component_of[v]


def test_bfs_radius_star():
    g = star(5)
    assert bfs_radius(g, 0, range(6)) == 1


def test_bfs_radius_path_end():
    assert bfs_radius(path(5), 0, range(5)) == 4


def test_bfs_radius_unreachable_marker():
    assert bfs_radius(path(5), 0, {0, 1, 3, 4}) is None


def test_bfs_radius_center_outside_rejected():
    with pytest.raises(GraphError):
        bfs_radius(path(5), 2, {0, 1})


def test_degeneracy_tree():
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert degeneracy(g) == 1


def test_degeneracy_clique():
    assert degeneracy(complete(5)) == 4


def test_degeneracy_c6_with_chord():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)])
    assert degeneracy(g) == 2


def test_density_at_most_degeneracy_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 14)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        assert density(g) <= degeneracy(g)


def test_edge_list_round_trip_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 15)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_edge_list_ignores_comments_and_blanks():
    text = "# hello\n\np 3 1\n# mid\ne 0 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.has_edge(0, 2)


def test_edge_list_count_mismatch_rejected():
    with pytest.raises(GraphError):
        parse_edge_list("p 3 2\ne 0 1\n")


def test_induced_relabel():
    g = cycle(6)
    sub, index = g.induced([1, 2, 5])
    assert sub.n == 3
    assert sub.has_edge(index[1], index[2])
    assert not sub.has_edge(index[1], index[5])


def test_degeneracy_matches_networkx_core_number_random():
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 60)
        g = random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 4 * n)), rng.getrandbits(32))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        assert degeneracy(g) == max(nx.core_number(h).values())


def test_components_match_networkx_random():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)), rng.getrandbits(32))
        removed = {v for v in range(n) if rng.random() < 0.3}
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        h.remove_nodes_from(removed)
        decomp = components(g, removed)
        ours = sorted(
            sorted(v for v in range(n) if decomp.component_of[v] == cid)
            for cid in range(decomp.count)
        )
        assert ours == sorted(sorted(c) for c in nx.connected_components(h))
        assert sorted(decomp.sizes) == sorted(len(c) for c in nx.connected_components(h))


def test_oversized_component_matches_components_random():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)), rng.getrandbits(32))
        outside = {v for v in range(n) if rng.random() < 0.2}
        region = [v for v in range(n) if v not in outside]
        removed = {v for v in region if rng.random() < 0.2}
        threshold = rng.randint(len(region) // 2, len(region))
        decomp = components(g, outside | removed)
        big = [
            [v for v in range(n) if decomp.component_of[v] == cid]
            for cid, size in enumerate(decomp.sizes)
            if size > threshold
        ]
        assert len(big) <= 1
        expected = big[0] if big else None
        assert oversized_component(g, region, removed, threshold) == expected
