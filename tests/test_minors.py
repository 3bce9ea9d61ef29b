import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepminor import (
    GraphError,
    InfeasibleConstruction,
    MinorWitness,
    build_graph,
    clique_witness_in_subdivided_clique,
    contract_witness,
    degeneracy,
    densest_subgraph,
    densest_subgraph_exhaustive,
    density,
    extract_subdivision,
    grid_minor_degree_bound,
    nabla_lower_greedy,
    nabla_upper_degenerate,
    slab_bipartite_witness,
    subdivide_eps,
    subdivided_cubic_degree_bound,
    verify_minor_witness,
    witness_restrict,
)
from sepminor.errors import AlgorithmFailure
from sepminor.formats import dumps_canonical, witness_to_json
from sepminor.generators import (
    complete,
    cycle,
    king_grid,
    path,
    planar_grid,
    random_graph,
    random_tree,
    star,
    subdivide_eps_sqrt,
)
from sepminor.graph import count_edges_within
from sepminor.minors import _improving_subgraph


def identity_witness(g):
    return MinorWitness(
        r=0,
        target=g,
        branch_sets={v: frozenset({v}) for v in range(g.n)},
        centers={v: v for v in range(g.n)},
        cross_edges={(u, v): (u, v) for u, v in g.sorted_edges()},
    )


def c6_triangle_witness():
    return MinorWitness(
        r=1,
        target=complete(3),
        branch_sets={0: frozenset({0, 1}), 1: frozenset({2, 3}), 2: frozenset({4, 5})},
        centers={0: 0, 1: 2, 2: 4},
        cross_edges={(0, 1): (1, 2), (0, 2): (0, 5), (1, 2): (3, 4)},
    )


def test_identity_witness_verifies():
    g = king_grid(3, 2)
    ok, reason = verify_minor_witness(g, identity_witness(g))
    assert ok and reason is None


def test_shared_vertex_reported_as_disjointness():
    g = cycle(6)
    w = c6_triangle_witness()
    bad = MinorWitness(
        r=1,
        target=w.target,
        branch_sets={0: frozenset({0, 1, 2}), 1: frozenset({2, 3}), 2: frozenset({4, 5})},
        centers=w.centers,
        cross_edges=w.cross_edges,
    )
    ok, reason = verify_minor_witness(g, bad)
    assert not ok and reason == "disjointness"


def test_c6_k3_witness_and_contract():
    g = cycle(6)
    w = c6_triangle_witness()
    ok, reason = verify_minor_witness(g, w)
    assert ok, reason
    contracted = contract_witness(g, w)
    assert contracted == complete(3)
    assert density(contracted) == Fraction(1)


def test_radius_violation_detected():
    g = cycle(8)
    w = MinorWitness(
        r=1,
        target=complete(1),
        branch_sets={0: frozenset({0, 1, 2, 3})},
        centers={0: 0},
        cross_edges={},
    )
    ok, reason = verify_minor_witness(g, w)
    assert not ok and "radius" in reason


def test_contract_rejects_invalid():
    g = cycle(6)
    w = c6_triangle_witness()
    bad = MinorWitness(
        r=w.r,
        target=w.target,
        branch_sets=w.branch_sets,
        centers=w.centers,
        cross_edges={(0, 1): (0, 3), (0, 2): (0, 5), (1, 2): (3, 4)},
    )
    with pytest.raises(GraphError):
        contract_witness(g, bad)


def test_densest_k4_plus_pendant():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    for method in ("flow", "exhaustive"):
        vertices, value = densest_subgraph(g, method=method)
        assert value == Fraction(3, 2)
        assert vertices == frozenset({0, 1, 2, 3})


def test_densest_tree_is_whole():
    t = random_tree(9, seed=1)
    vertices, value = densest_subgraph(t)
    assert value == Fraction(8, 9) and vertices == frozenset(range(9))


def test_densest_two_triangles_with_bridge():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    _, value = densest_subgraph(g)
    assert value == Fraction(7, 6)


def test_densest_flow_matches_exhaustive_random():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        _, flow_val = densest_subgraph(g, method="flow")
        _, brute_val = densest_subgraph_exhaustive(g)
        assert flow_val == brute_val


def test_densest_path_50000_is_whole_path():
    # q*m = 50000 * 49999 is past int32: the flow value must be summed wide.
    vertices, value = densest_subgraph(path(50_000))
    assert value == Fraction(49_999, 50_000)
    assert vertices == frozenset(range(50_000))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


def minimal_maximiser(g, lam):
    """Brute force: the intersection of all vertex sets that maximise
    q*e(S) - p*|S| for lam = p/q, or None when no set scores above 0."""
    p, q = lam.numerator, lam.denominator
    masks = g.adjacency_masks()
    best, meet = 0, None
    for mask in range(1, 1 << g.n):
        twice = sum((masks[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1)
        score = q * (twice // 2) - p * mask.bit_count()
        if score > best:
            best, meet = score, mask
        elif score == best and meet is not None:
            meet &= mask
    if meet is None:
        return None
    return frozenset(v for v in range(g.n) if meet >> v & 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.fractions(min_value=0, max_value=6, max_denominator=13))
def test_densest_flow_matches_exhaustive_property(g, lam):
    vertices, value = densest_subgraph(g, method="flow")
    assert value == densest_subgraph_exhaustive(g)[1]
    assert Fraction(count_edges_within(g, vertices), len(vertices)) == value
    for guess in (Fraction(g.m, g.n), lam):
        assert _improving_subgraph(g, guess) == minimal_maximiser(g, guess)


@pytest.mark.parametrize("lam", [Fraction(2**31, 3), Fraction(1, 2**31), Fraction(2**40, 2**40 - 1)])
def test_flow_capacity_past_int32_raises(lam):
    with pytest.raises(AlgorithmFailure, match="int32"):
        _improving_subgraph(complete(4), lam)


def test_flow_capacities_at_int32_limit():
    # Capacities at 2**31 - 2 fit; the source's total q*m does not, and
    # only sums see it.
    lam = Fraction(2**31 - 1, 2**31 - 2)
    assert _improving_subgraph(complete(4), lam) == frozenset(range(4))
    assert _improving_subgraph(complete(4), Fraction(2**31 - 1, 2)) is None


def _witness_digest(w):
    return hashlib.sha256(dumps_canonical(witness_to_json(w)).encode()).hexdigest()


# sha256 of the canonical witness JSON, recorded from the flow step whose
# network had q*m + 1 endpoint arcs and whose residual search ran in Python.
WITNESS_DIGESTS = {
    "nabla king_grid(8,2) r=1": "3810f7dbe465e6d0d47bf8d587ac36692dbf07d1db83907ebd78bb0fdd258427",
    "nabla king_grid(8,2) r=2": "06b00f781b5f384fadf6dd0921a59bbbea1f4b0b460da66e9145ed94d7b22d35",
    "nabla sqrt-subdivided planar_grid(6) eps=3/4 r=2": "ad29113117a68ead4e7e869e2074bdec09ea7b5580c4f46c8320f5477198a440",
    "slab d=4 r=2": "c83c087f658140a7a656e9cddf94e8d7f132cceef966d4d704de9bacf962f5b6",
}
WITNESS_CORPUS = {
    "nabla king_grid(8,2) r=1": lambda: nabla_lower_greedy(king_grid(8, 2), 1, seed=7).lower_witness,
    "nabla king_grid(8,2) r=2": lambda: nabla_lower_greedy(king_grid(8, 2), 2, seed=7).lower_witness,
    "nabla sqrt-subdivided planar_grid(6) eps=3/4 r=2": lambda: nabla_lower_greedy(
        subdivide_eps_sqrt(planar_grid(6), Fraction(3, 4)).graph, 2, seed=7
    ).lower_witness,
    "slab d=4 r=2": lambda: slab_bipartite_witness(4, 2)[1],
}


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_witness_digests_fixed_corpus(name):
    assert _witness_digest(WITNESS_CORPUS[name]()) == WITNESS_DIGESTS[name]


def test_greedy_r0_reduces_to_densest():
    g = king_grid(4, 2)
    report = nabla_lower_greedy(g, 0, seed=1)
    assert report.lower == densest_subgraph(g)[1]


def test_greedy_on_trees_below_one():
    t = random_tree(40, seed=2)
    for r in (0, 1, 3):
        assert nabla_lower_greedy(t, r, seed=3).lower < 1


def test_greedy_king4_meets_slab_level():
    report = nabla_lower_greedy(king_grid(4, 2), 2, seed=5)
    assert report.lower >= Fraction(4, 3)


def test_greedy_monotone_in_depth():
    g = king_grid(5, 2)
    values = [nabla_lower_greedy(g, r, seed=9).lower for r in range(4)]
    assert values == sorted(values)


def test_greedy_witness_verifies_and_density_matches():
    g = random_graph(40, 90, seed=8)
    report = nabla_lower_greedy(g, 2, seed=8)
    w = report.lower_witness
    ok, reason = verify_minor_witness(g, w)
    assert ok, reason
    assert density(w.target) == report.lower


def test_slab_minimum_case():
    host, w = slab_bipartite_witness(2, 1)
    assert host.n == 4 and w.target.n == 3
    degs = sorted(w.target.degree(v) for v in range(3))
    assert degs == [1, 1, 2]  # K_{1,2}


def test_slab_r2_density():
    host, w = slab_bipartite_witness(2, 2)
    assert density(w.target) == Fraction(8, 6)


def test_slab_sizes_and_density_growth():
    for r in range(1, 6):
        host, w = slab_bipartite_witness(2, r)
        ok, reason = verify_minor_witness(host, w)
        assert ok, reason
        assert w.target.n == 3 * r and w.target.m == 2 * r * r
        assert density(w.target) == Fraction(2 * r, 3) >= Fraction(2 * r, 3)


def test_slab_dimension_four():
    host, w = slab_bipartite_witness(4, 1)
    ok, reason = verify_minor_witness(host, w)
    assert ok, reason
    assert w.target.n == 2 + 4  # (2r)^2/2 + (2r)^2 at r=1


def test_clique_witness_cases():
    for m, eps, r in [(4, Fraction(1, 2), 4), (9, Fraction(1, 2), 9), (3, Fraction(1, 3), 3)]:
        sub, w = clique_witness_in_subdivided_clique(m, eps, r)
        ok, reason = verify_minor_witness(sub.graph, w)
        assert ok, reason
        assert density(contract_witness(sub.graph, w)) == Fraction(m - 1, 2)


def test_clique_witness_two_vertices():
    sub, w = clique_witness_in_subdivided_clique(2, Fraction(1, 2), 2)
    ok, _ = verify_minor_witness(sub.graph, w)
    assert ok and w.target == complete(2)


def test_clique_witness_infeasible():
    with pytest.raises(InfeasibleConstruction):
        clique_witness_in_subdivided_clique(4, Fraction(1, 2), 1)


def test_clique_witness_feasibility_boundary():
    # m=4, eps=1/2: k=4, so radius budget ceil(5/2)=3 is the first feasible r
    sub, w = clique_witness_in_subdivided_clique(4, Fraction(1, 2), 3)
    ok, _ = verify_minor_witness(sub.graph, w)
    assert ok


def test_extract_identity_subdivision():
    g = complete(4)
    w = identity_witness(complete(4))
    ext = extract_subdivision(g, witness_restrict(w, [0, 1, 2]))
    assert all(count == 0 for count in ext.edge_counts.values())
    assert ext.edges <= g.edges


def test_extract_c6_triangle():
    g = cycle(6)
    ext = extract_subdivision(g, c6_triangle_witness())
    assert ext.vertices == frozenset(range(6))
    assert sorted(ext.edge_counts.values()) == [1, 1, 1]
    assert all(count <= 4 for count in ext.edge_counts.values())


def test_extract_slab_k23():
    host, w = slab_bipartite_witness(2, 2)
    sub_w = witness_restrict(w, [0, 1, 2, 3, 4])
    assert max(sub_w.target.degree(v) for v in range(5)) <= 3
    ext = extract_subdivision(host, sub_w)
    assert max(ext.edge_counts.values()) <= 8
    # internal vertices have degree two in the extracted subgraph
    from collections import Counter

    deg = Counter()
    for a, b in ext.edges:
        deg[a] += 1
        deg[b] += 1
    hubs = set(ext.branch_vertex.values())
    for v in ext.vertices - hubs:
        assert deg[v] == 2


def test_extract_rejects_high_degree_target():
    host, w = slab_bipartite_witness(2, 2)  # one side has degree 4
    with pytest.raises(GraphError):
        extract_subdivision(host, w)


def test_extract_paths_internally_disjoint():
    sub, w = clique_witness_in_subdivided_clique(4, Fraction(1, 2), 4)
    # K_4 is subcubic, so the whole witness extracts
    ext = extract_subdivision(sub.graph, w)
    seen = {}
    hubs = set(ext.branch_vertex.values())
    for edge, chain in ext.paths.items():
        for v in chain[1:-1]:
            assert v not in hubs
            assert v not in seen, f"vertex {v} on paths {seen[v]} and {edge}"
            seen[v] = edge


def test_grid_degree_bound_values():
    assert grid_minor_degree_bound(2, 1) == 85
    assert grid_minor_degree_bound(2, 0) == 25
    assert grid_minor_degree_bound(4, 1) == 85**2
    assert grid_minor_degree_bound(3, 1) == int(85**1.5)


def test_cubic_degree_bound_values():
    assert subdivided_cubic_degree_bound(16) == 6
    assert subdivided_cubic_degree_bound(4) == 4


def test_degenerate_bound_window():
    assert nabla_upper_degenerate(1, 5) == Fraction(2)
    assert nabla_upper_degenerate(1, 4) is None
    assert nabla_upper_degenerate(0, 1) == Fraction(2)


def test_degenerate_regime_witnesses_are_sparse():
    # depth well below the subdivision count: every found minor stays density <= 2
    base = random_graph(12, 18, seed=3)
    sub = subdivide_eps(base, Fraction(2, 3))  # k = ceil(12^2) = 144
    assert nabla_upper_degenerate(2, sub.per_edge) == Fraction(2)
    report = nabla_lower_greedy(sub.graph, 2, seed=4, restarts=2)
    assert report.lower <= 2
    contracted = contract_witness(sub.graph, report.lower_witness)
    assert degeneracy(contracted) <= 2


def test_slab_witness_target_min_degree_under_bound():
    for r in (1, 2, 3):
        host, w = slab_bipartite_witness(2, r)
        min_deg = min(w.target.degree(v) for v in range(w.target.n))
        assert min_deg < grid_minor_degree_bound(2, r)
