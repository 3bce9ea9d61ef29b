import random
from fractions import Fraction

import pytest

from sepminor import GenerationError, build_graph, components
from sepminor.generators import (
    FamilySpec,
    complete,
    cycle,
    eps_subdivision_count,
    king_grid,
    king_grid_coord_to_id,
    king_grid_id_to_coord,
    path,
    planar_grid,
    random_graph,
    random_regular,
    random_tree,
    sqrt_profile_subdivision_count,
    subdivide_eps,
    subdivide_eps_sqrt,
    subdivide_uniform,
)
from sepminor.errors import BudgetExceeded


def test_king_grid_2_2_is_k4():
    g = king_grid(2, 2)
    assert g.n == 4 and g.m == 6


def test_king_grid_4_1_edge_set():
    g = king_grid(4, 1)
    assert g.sorted_edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_king_grid_line_edge_count():
    for n in range(2, 12):
        assert king_grid(n, 1).m == 2 * n - 3


def test_king_grid_max_degree_under_5_pow_d():
    for n, d in [(5, 1), (4, 2), (6, 2), (3, 3)]:
        g = king_grid(n, d)
        assert max(g.degree(v) for v in range(g.n)) < 5**d


def test_king_grid_coordinate_mapping_round_trip():
    n, d = 4, 3
    for vid in range(n**d):
        coord = king_grid_id_to_coord(vid, n, d)
        assert king_grid_coord_to_id(coord, n) == vid
    # last coordinate varies fastest
    assert king_grid_coord_to_id((1, 1, 2), 4) == 1


def king_grid_loop_oracle(n, d):
    """The per-vertex loop that king_grid vectorised, kept as its oracle."""
    total = n**d
    edges = []
    offsets = [()]
    for _ in range(d):
        offsets = [o + (delta,) for o in offsets for delta in (-2, -1, 0, 1, 2)]
    offsets = [o for o in offsets if any(o)]
    for vid in range(total):
        coord = king_grid_id_to_coord(vid, n, d)
        for off in offsets:
            other = tuple(c + x for c, x in zip(coord, off))
            if all(1 <= c <= n for c in other):
                wid = king_grid_coord_to_id(other, n)
                if wid > vid:
                    edges.append((vid, wid))
    return build_graph(total, edges)


@pytest.mark.parametrize(
    "n,d", [(1, 1), (2, 1), (7, 1), (1, 2), (2, 2), (3, 2), (5, 2), (9, 2), (3, 3), (6, 3), (4, 4), (5, 4)]
)
def test_king_grid_matches_loop_oracle(n, d):
    g = king_grid(n, d)
    oracle = king_grid_loop_oracle(n, d)
    assert g == oracle
    assert list(g.edges) == list(oracle.edges)
    assert [g.neighbors(v) for v in range(g.n)] == [oracle.neighbors(v) for v in range(oracle.n)]


def test_king_grid_budget():
    with pytest.raises(BudgetExceeded):
        king_grid(100, 3, budget=1000)


def test_subdivide_identity():
    g = complete(4)
    sub = subdivide_uniform(g, 0)
    assert sub.graph == g


def test_subdivide_single_edge_path5():
    from sepminor import build_graph

    sub = subdivide_uniform(build_graph(2, [(0, 1)]), 3)
    assert sub.graph.n == 5 and sub.graph.m == 4
    decomp = components(sub.graph)
    assert decomp.sizes == (5,)


def test_subdivide_k4_counts():
    sub = subdivide_uniform(complete(4), 4)
    assert sub.graph.n == 28 and sub.graph.m == 30


def test_subdivide_counting_formula_random():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        k = rng.randint(0, 5)
        sub = subdivide_uniform(g, k)
        assert sub.graph.n == g.n + k * g.m
        assert sub.graph.m == (k + 1) * g.m if g.m else sub.graph.m == 0


def test_subdivide_eps_k4_half():
    sub = subdivide_eps(complete(4), Fraction(1, 2))
    assert sub.per_edge == 4 and sub.graph.n == 28


def test_subdivide_eps_k3_third_gives_c9():
    sub = subdivide_eps(complete(3), Fraction(1, 3))
    assert sub.per_edge == 2 and sub.graph.n == 9
    assert all(sub.graph.degree(v) == 2 for v in range(9))
    assert components(sub.graph).count == 1


def test_eps_count_monotone_in_eps():
    fractions = [Fraction(i, 20) for i in range(1, 20)]
    for m in (3, 7, 12):
        counts = [eps_subdivision_count(m, e) for e in fractions]
        assert counts == sorted(counts)


def test_sqrt_profile_count_at_half_is_one():
    for m in (2, 5, 9, 40):
        assert sqrt_profile_subdivision_count(m, Fraction(1, 2)) == 1


def test_sqrt_profile_grid_three_quarters():
    assert sqrt_profile_subdivision_count(9, Fraction(3, 4)) == 9


def test_sqrt_profile_range_validation():
    with pytest.raises(ValueError):
        sqrt_profile_subdivision_count(5, Fraction(1, 4))


def test_subdivision_preserves_number_of_components():
    g = planar_grid(3)
    sub = subdivide_eps_sqrt(g, Fraction(3, 4))
    assert components(sub.graph).count == components(g).count


def test_planar_grid_2_is_c4():
    g = planar_grid(2)
    assert g.n == 4 and g.m == 4 and all(g.degree(v) == 2 for v in range(4))


def test_planar_grid_edge_formula():
    for t in range(1, 8):
        assert planar_grid(t).m == 2 * t * (t - 1)


def test_complete_5_edges():
    assert complete(5).m == 10


def test_path_cycle_star_shapes():
    assert path(6).m == 5
    assert cycle(6).m == 6


def test_random_regular_4_3_is_k4():
    g = random_regular(4, 3, seed=123)
    assert g == complete(4)


def test_random_regular_parity_rejected():
    with pytest.raises(GenerationError):
        random_regular(5, 3, seed=1)


def test_random_regular_simple_regular_deterministic():
    a = random_regular(20, 3, seed=99)
    b = random_regular(20, 3, seed=99)
    assert a == b
    assert a.m == 30
    assert all(a.degree(v) == 3 for v in range(20))


def test_random_tree_is_tree():
    t = random_tree(30, seed=5)
    assert t.m == 29 and components(t).count == 1


def test_generators_deterministic():
    assert king_grid(5, 2) == king_grid(5, 2)
    assert subdivide_eps(complete(5), Fraction(2, 5)).graph == subdivide_eps(
        complete(5), Fraction(2, 5)
    ).graph


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(kind="nope")
    with pytest.raises(ValueError):
        FamilySpec(kind="king-grid", eps=Fraction(3, 2))
    with pytest.raises(ValueError):
        FamilySpec(kind="random-regular")  # seed required
    spec = FamilySpec(kind="subdivided-cubic", eps=Fraction(1, 2), seed=1, size=10)
    assert spec.params_string() == "eps=1/2;size=10"
