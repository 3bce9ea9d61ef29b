"""Shallow-minor witnesses: verification, contraction, density search, and the
explicit grid / subdivided-clique constructions with their degree bounds.

A depth-r minor witness is carried explicitly: disjoint connected branch sets
with centers certifying radius at most r, plus one host edge per target edge.
Verification never runs isomorphism search; the vertex mapping in the witness
is the certificate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import AlgorithmFailure, BudgetExceeded, GraphError, InfeasibleConstruction
from .graph import Graph, bfs_radius, bfs_layers, build_graph, count_edges_within, edge_ends
from .generators import (
    DEFAULT_SIZE_BUDGET,
    SubdivisionResult,
    complete,
    eps_subdivision_count,
    king_grid,
    king_grid_coord_to_id,
    subdivide_eps,
)
from .subsets import SubsetTables

__all__ = [
    "MinorWitness",
    "DensityReport",
    "verify_minor_witness",
    "contract_witness",
    "witness_restrict",
    "densest_subgraph",
    "densest_subgraph_exhaustive",
    "nabla_lower_greedy",
    "slab_bipartite_witness",
    "clique_witness_in_subdivided_clique",
    "extract_subdivision",
    "SubdivisionExtract",
    "grid_minor_degree_bound",
    "subdivided_cubic_degree_bound",
    "nabla_upper_degenerate",
]


@dataclass(frozen=True)
class MinorWitness:
    """Witness that `target` is an r-shallow minor of some host graph.

    branch_sets maps each target vertex to its host branch set, centers to the
    host vertex from which the branch set has BFS radius at most r, and
    cross_edges maps each target edge (u, v) with u < v to a host edge whose
    first end lies in the branch set of u and second end in the branch set of v.
    """

    r: int
    target: Graph
    branch_sets: dict[int, frozenset[int]]
    centers: dict[int, int]
    cross_edges: dict[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class DensityReport:
    """Certified lower bound on the density of the densest depth-r minor, with its witness."""

    r: int
    lower: Optional[Fraction] = None
    lower_witness: Optional[MinorWitness] = None


def verify_minor_witness(g: Graph, w: MinorWitness) -> tuple[bool, Optional[str]]:
    """Check every witness invariant against the host; returns (ok, first violation).

    The checks run in this order, so a witness that breaks several reports
    the earliest: the depth is nonnegative; branch sets and centers cover
    the target vertices; then, over the whole family, each branch set is
    nonempty, lies inside the host and is disjoint from the sets before it;
    then, set by set, the center lies in its set and the set is connected
    with radius at most r about it (one BFS per set); last, each target
    edge has a cross edge that is a host edge joining the two sets.
    """
    if w.r < 0:
        return False, "negative depth"
    if set(w.branch_sets) != set(range(w.target.n)):
        return False, "branch sets do not cover the target vertices"
    if set(w.centers) != set(range(w.target.n)):
        return False, "centers do not cover the target vertices"
    seen: set[int] = set()
    for tv in range(w.target.n):
        bs = w.branch_sets[tv]
        if not bs:
            return False, f"empty branch set for target vertex {tv}"
        for v in bs:
            if not (0 <= v < g.n):
                return False, f"branch set of {tv} leaves the host"
        if seen & bs:
            return False, "disjointness"
        seen |= bs
    for tv in range(w.target.n):
        bs = w.branch_sets[tv]
        c = w.centers[tv]
        if c not in bs:
            return False, f"center of {tv} outside its branch set"
        rad = bfs_radius(g, c, bs)
        if rad is None:
            return False, f"branch set of {tv} is disconnected"
        if rad > w.r:
            return False, f"branch set of {tv} has radius {rad} > {w.r}"
    for u, v in w.target.sorted_edges():
        key = (u, v)
        if key not in w.cross_edges:
            return False, f"missing cross edge for target edge {key}"
        hu, hv = w.cross_edges[key]
        if not g.has_edge(hu, hv):
            return False, f"cross edge {hu}-{hv} not a host edge"
        if hu not in w.branch_sets[u] or hv not in w.branch_sets[v]:
            return False, f"cross edge {hu}-{hv} does not join branch sets {u},{v}"
    return True, None


def contract_witness(g: Graph, w: MinorWitness) -> Graph:
    """Contract the witness-implied subgraph of the host.

    The implied subgraph consists of the branch sets together with the
    recorded cross edges, so the contraction is an exact copy of the target.
    """
    ok, reason = verify_minor_witness(g, w)
    if not ok:
        raise GraphError(f"invalid witness: {reason}")
    return build_graph(w.target.n, w.target.sorted_edges())


def witness_restrict(
    w: MinorWitness,
    keep: Sequence[int],
    edges: Optional[Sequence[tuple[int, int]]] = None,
) -> MinorWitness:
    """Sub-witness on a subset of target vertices (and optionally fewer edges)."""
    keep_sorted = sorted(set(keep))
    index = {tv: i for i, tv in enumerate(keep_sorted)}
    if edges is None:
        kept_edges = [
            (u, v) for (u, v) in w.target.sorted_edges() if u in index and v in index
        ]
    else:
        kept_edges = []
        for u, v in edges:
            if u > v:
                u, v = v, u
            if (u, v) not in w.target.edges:
                raise GraphError(f"edge ({u},{v}) not in witness target")
            kept_edges.append((u, v))
    target = build_graph(len(keep_sorted), [(index[u], index[v]) for u, v in kept_edges])
    return MinorWitness(
        r=w.r,
        target=target,
        branch_sets={index[tv]: w.branch_sets[tv] for tv in keep_sorted},
        centers={index[tv]: w.centers[tv] for tv in keep_sorted},
        cross_edges={
            (index[u], index[v]): w.cross_edges[(u, v)] for u, v in kept_edges
        },
    )


# ---------------------------------------------------------------------------
# Densest subgraph, exact.  Two independent routes: an exhaustive subset scan
# and a parametric min-cut (Dinkelbach iteration on the density guess).
# ---------------------------------------------------------------------------

def densest_subgraph_exhaustive(g: Graph, budget: int = 24) -> tuple[frozenset[int], Fraction]:
    """Maximize |E(H)|/|V(H)| over nonempty induced subgraphs by subset scan.

    Returns the smallest mask among the maximisers.  One blocked scan of the
    subset tables in ascending mask order; within a block the first mask
    denser than the best so far is taken until none is left, with densities
    compared by exact integer cross-multiplication.  Time O(2^n) in
    numpy passes over blocks of at most 4096 masks, memory O(2^12): on a
    2-vCPU 2.1 GHz VM, n = 16 takes 1-2 ms and n = 24 0.3-0.5 s.
    """
    if g.n > budget:
        raise BudgetExceeded(f"exhaustive densest subgraph needs n <= {budget}, got {g.n}")
    if g.n == 0:
        raise GraphError("empty graph has no nonempty subgraph")
    tables = SubsetTables(g.adjacency_masks())
    best_mask, best_e, best_k = 1, 0, 1
    for high in tables.high_parts:
        s = tables.block(high)
        edges = tables.block_edges(high)
        sizes = np.bitwise_count(s).astype(np.int64)
        denser = edges * best_k > best_e * sizes
        while denser.any():
            i = int(np.argmax(denser))
            best_mask, best_e, best_k = int(s[i]), int(edges[i]), int(sizes[i])
            denser = edges * best_k > best_e * sizes
    vertices = frozenset(v for v in range(g.n) if best_mask >> v & 1)
    return vertices, Fraction(best_e, best_k)


_INT32_MAX = int(np.iinfo(np.int32).max)


def _improving_subgraph(g: Graph, lam: Fraction) -> Optional[frozenset[int]]:
    """Some vertex set S with e(S) - lam*|S| > 0, or None if none exists.

    Min-cut formulation with lam = p/q: source -> edge node (capacity q),
    edge node -> each of its two endpoint nodes (capacity q), vertex node ->
    sink (capacity p).  An edge node never receives more than q, so its arcs
    out act as the infinite arcs of Goldberg's network and the minimum cuts
    keep their vertex sides.  The source side of the residual network is
    the minimal maximiser of q*e(S) - p*|S|.  Every capacity is p or q and
    must fit in int32; sums are taken in int64, so the decision is exact.
    """
    if g.m == 0:
        return None
    p, q = lam.numerator, lam.denominator
    for name, value in (("numerator", p), ("denominator", q)):
        if not 0 <= value <= _INT32_MAX:
            raise AlgorithmFailure(
                f"flow capacity {value} (the {name} of lambda = {lam}) does not fit in int32"
            )
    n, m = g.n, g.m
    u, v = edge_ends(g)
    source, sink = 0, 1 + m + n
    size = 2 + m + n
    # Rows: the source (m arcs), edge nodes 1..m (two arcs each), vertex
    # nodes m+1..m+n (one arc each), the sink (none).
    indptr = np.concatenate(
        ([0], m + 2 * np.arange(m + 1), 3 * m + np.arange(1, n + 1), [3 * m + n])
    )
    indices = np.concatenate(
        (
            np.arange(1, m + 1),
            np.column_stack((1 + m + u, 1 + m + v)).ravel(),
            np.full(n, sink),
        )
    )
    caps = np.concatenate((np.full(3 * m, q, dtype=np.int32), np.full(n, p, dtype=np.int32)))
    network = csr_matrix((caps, indices, indptr), shape=(size, size))
    result = maximum_flow(network, source, sink)
    flow_value = int(result.flow_value)
    if flow_value >= q * m:
        return None
    residual = (network - result.flow) > 0
    reached = breadth_first_order(residual, source, directed=True, return_predecessors=False)
    side = np.zeros(size, dtype=bool)
    side[reached] = True
    rows = np.repeat(np.arange(size), np.diff(indptr))
    crossing = side[rows] & ~side[indices]
    cut = int(caps[crossing].sum(dtype=np.int64))
    if side[sink] or cut != flow_value:
        raise AlgorithmFailure(f"min cut {cut} does not match max flow {flow_value}")
    vertex_nodes = reached[(reached > m) & (reached < sink)]
    chosen = frozenset((vertex_nodes - (1 + m)).tolist())
    if not chosen:
        raise AlgorithmFailure("flow reported an improvement but the cut side is empty")
    return chosen


def densest_subgraph(g: Graph, method: str = "flow", budget: int = 24) -> tuple[frozenset[int], Fraction]:
    """Exact maximum-density induced subgraph (vertex set, density).

    method "flow" iterates exact min-cut improvement steps from the whole
    graph; "exhaustive" scans all subsets (n <= budget).  Both are exact and
    must agree on the density.
    """
    if g.n == 0:
        raise GraphError("empty graph has no nonempty subgraph")
    if method == "exhaustive":
        return densest_subgraph_exhaustive(g, budget=budget)
    if method != "flow":
        raise ValueError(f"unknown method {method!r}")
    best_set = frozenset(range(g.n))
    best = Fraction(g.m, g.n)
    while True:
        improved = _improving_subgraph(g, best)
        if improved is None:
            return best_set, best
        e = count_edges_within(g, improved)
        d = Fraction(e, len(improved))
        if d <= best:
            raise AlgorithmFailure(f"flow step did not improve density: {d} <= {best}")
        best_set, best = improved, d


# ---------------------------------------------------------------------------
# Greedy lower-bound search for dense shallow minors.
# ---------------------------------------------------------------------------

def _ball_partition(g: Graph, radius: int, order: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Greedy disjoint BFS balls of the given radius covering every vertex."""
    unassigned = set(range(g.n))
    balls: list[tuple[int, list[int]]] = []
    for center in order:
        if center not in unassigned:
            continue
        layers, _ = bfs_layers(g, center, unassigned, depth_cap=radius)
        ball = sorted(v for layer in layers for v in layer)
        balls.append((center, ball))
        unassigned.difference_update(ball)
    return balls


def _witness_from_balls(
    g: Graph, balls: list[tuple[int, list[int]]], chosen: Sequence[int], depth: int
) -> MinorWitness:
    chosen = sorted(chosen)
    index = {b: i for i, b in enumerate(chosen)}
    vertex_ball = {}
    for i in chosen:
        for v in balls[i][1]:
            vertex_ball[v] = i
    cross: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in g.sorted_edges():
        bu = vertex_ball.get(u)
        bv = vertex_ball.get(v)
        if bu is None or bv is None or bu == bv:
            continue
        a, b = (u, v) if bu < bv else (v, u)
        key = (min(index[bu], index[bv]), max(index[bu], index[bv]))
        if key not in cross:
            cross[key] = (a, b)
    target = build_graph(len(chosen), sorted(cross))
    return MinorWitness(
        r=depth,
        target=target,
        branch_sets={index[i]: frozenset(balls[i][1]) for i in chosen},
        centers={index[i]: balls[i][0] for i in chosen},
        cross_edges=cross,
    )


def nabla_lower_greedy(g: Graph, r: int, seed: int, restarts: int = 4) -> DensityReport:
    """Seeded search for a dense depth-r minor; a certified lower bound only.

    For each radius cap 0..r the graph is partitioned into greedy BFS balls
    (random center order per restart), the partition is contracted, and the
    exact densest subgraph of the contraction is taken.  The best candidate
    over all caps is returned, so the value is non-decreasing in r for a
    fixed graph and seed.
    """
    if r < 0:
        raise ValueError(f"depth must be >= 0, got {r}")
    if g.n == 0:
        raise GraphError("empty graph")
    best: Optional[tuple[Fraction, MinorWitness]] = None
    for radius in range(r + 1):
        if radius == 0:
            orders = [list(range(g.n))]
        else:
            orders = []
            for attempt in range(restarts):
                rng = random.Random((seed, radius, attempt).__hash__() & 0xFFFFFFFFFFFF)
                order = list(range(g.n))
                rng.shuffle(order)
                orders.append(order)
        for order in orders:
            balls = _ball_partition(g, radius, order)
            quotient_edges: set[tuple[int, int]] = set()
            vertex_ball = {}
            for i, (_, ball) in enumerate(balls):
                for v in ball:
                    vertex_ball[v] = i
            for u, v in g.edges:
                bu, bv = vertex_ball[u], vertex_ball[v]
                if bu != bv:
                    quotient_edges.add((min(bu, bv), max(bu, bv)))
            quotient = build_graph(len(balls), sorted(quotient_edges))
            chosen, value = densest_subgraph(quotient, method="flow")
            if best is None or value > best[0]:
                witness = _witness_from_balls(g, balls, sorted(chosen), r)
                ok, reason = verify_minor_witness(g, witness)
                if not ok:
                    raise AlgorithmFailure(f"greedy witness failed verification: {reason}")
                best = (value, witness)
    assert best is not None
    return DensityReport(r=r, lower=best[0], lower_witness=best[1])


# ---------------------------------------------------------------------------
# Explicit witness constructions.
# ---------------------------------------------------------------------------

def slab_bipartite_witness(
    d: int, r: int, budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[Graph, MinorWitness]:
    """Complete-bipartite witness in the side-2r king grid of even dimension d.

    The first d/2 coordinates are frozen to build one side (odd leading
    coordinate only) and the last d/2 coordinates to build the other (even
    leading coordinate), giving parts of sizes (2r)^(d/2)/2 and (2r)^(d/2)
    joined pairwise by unit steps in the first coordinate.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {d}")
    if r < 1:
        raise ValueError(f"depth must be >= 1, got {r}")
    side = 2 * r
    host = king_grid(side, d, budget=budget)
    half = d // 2

    def half_tuples() -> list[tuple[int, ...]]:
        out = [()]
        for _ in range(half):
            out = [t + (c,) for t in out for c in range(1, side + 1)]
        return out

    a_keys = [x for x in half_tuples() if x[0] % 2 == 1]
    b_keys = half_tuples()
    mid = r
    even_mid = r if r % 2 == 0 else r + 1

    branch_sets: dict[int, frozenset[int]] = {}
    centers: dict[int, int] = {}
    for i, x in enumerate(a_keys):
        cells = []
        for j in half_tuples():
            cells.append(king_grid_coord_to_id(x + j, side))
        branch_sets[i] = frozenset(cells)
        centers[i] = king_grid_coord_to_id(x + (mid,) * half, side)
    offset = len(a_keys)
    first_coords = [c for c in range(2, side + 1, 2)]
    middles = [()]
    for _ in range(half - 1):
        middles = [t + (c,) for t in middles for c in range(1, side + 1)]
    for j, y in enumerate(b_keys):
        cells = []
        for c1 in first_coords:
            for mid_coords in middles:
                cells.append(king_grid_coord_to_id((c1,) + mid_coords + y, side))
        branch_sets[offset + j] = frozenset(cells)
        centers[offset + j] = king_grid_coord_to_id(
            (even_mid,) + (mid,) * (half - 1) + y, side
        )

    cross: dict[tuple[int, int], tuple[int, int]] = {}
    edges = []
    for i, x in enumerate(a_keys):
        for j, y in enumerate(b_keys):
            u = king_grid_coord_to_id(x + y, side)
            shifted = (x[0] + 1,) + x[1:]
            v = king_grid_coord_to_id(shifted + y, side)
            edges.append((i, offset + j))
            cross[(i, offset + j)] = (u, v)
    target = build_graph(len(a_keys) + len(b_keys), edges)
    witness = MinorWitness(r=r, target=target, branch_sets=branch_sets, centers=centers, cross_edges=cross)
    ok, reason = verify_minor_witness(host, witness)
    if not ok:
        raise AlgorithmFailure(f"slab witness failed verification: {reason}")
    return host, witness


def clique_witness_in_subdivided_clique(
    m: int, eps: Fraction, r: int
) -> tuple[SubdivisionResult, MinorWitness]:
    """Clique witness inside the eps-subdivided complete graph on m vertices.

    Each original vertex absorbs the nearer half of every incident subdivided
    path (middle vertex of an odd path goes to the lower-id endpoint), so the
    branch sets have radius ceil(k/2) where k is the per-edge subdivision count.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    k = eps_subdivision_count(m, eps)
    if (k + 1 + 1) // 2 > r:  # ceil((k+1)/2) <= r
        raise InfeasibleConstruction(
            f"branch sets need radius ceil(({k}+1)/2) > r={r} for m={m}, eps={eps}"
        )
    sub = subdivide_eps(complete(m), eps)
    assert sub.per_edge == k
    parts: dict[int, set[int]] = {v: {v} for v in range(m)}
    cross: dict[tuple[int, int], tuple[int, int]] = {}
    near = (k + 1) // 2  # lower endpoint takes the extra vertex of odd paths
    for (u, v), inner in sub.edge_paths.items():
        parts[u].update(inner[:near])
        parts[v].update(inner[near:])
        last_u = inner[near - 1] if near >= 1 else u
        first_v = inner[near] if near < k else v
        cross[(u, v)] = (last_u, first_v)
    witness = MinorWitness(
        r=r,
        target=complete(m),
        branch_sets={v: frozenset(parts[v]) for v in range(m)},
        centers={v: v for v in range(m)},
        cross_edges=cross,
    )
    ok, reason = verify_minor_witness(sub.graph, witness)
    if not ok:
        raise AlgorithmFailure(f"subdivided-clique witness failed verification: {reason}")
    return sub, witness


# ---------------------------------------------------------------------------
# Subcubic witnesses unwind into literal subdivisions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubdivisionExtract:
    """A subgraph of the host isomorphic to a subdivision of the target.

    branch_vertex maps each target vertex to its hub; paths maps each target
    edge to the full host path between the two hubs; edge_counts gives the
    number of internal vertices on each path.
    """

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    branch_vertex: dict[int, int]
    paths: dict[tuple[int, int], tuple[int, ...]]
    edge_counts: dict[tuple[int, int], int]


def _tree_paths_to_root(parent: dict[int, int], v: int) -> list[int]:
    out = [v]
    while parent[v] != v:
        v = parent[v]
        out.append(v)
    return out


def _tree_path_between(parent: dict[int, int], a: int, b: int) -> list[int]:
    pa = _tree_paths_to_root(parent, a)
    pb = _tree_paths_to_root(parent, b)
    in_pa = {v: i for i, v in enumerate(pa)}
    for j, v in enumerate(pb):
        if v in in_pa:
            return pa[: in_pa[v] + 1] + pb[:j][::-1]
    raise AlgorithmFailure("attach vertices in different BFS trees")


def _tree_median(parent: dict[int, int], a: int, b: int, c: int) -> int:
    pab = set(_tree_path_between(parent, a, b))
    pac = set(_tree_path_between(parent, a, c))
    pbc = set(_tree_path_between(parent, b, c))
    meet = pab & pac & pbc
    if len(meet) != 1:
        raise AlgorithmFailure(f"tree median not unique: {sorted(meet)}")
    return next(iter(meet))


def extract_subdivision(g: Graph, w: MinorWitness) -> SubdivisionExtract:
    """Turn a subcubic-target witness into an actual subdivision subgraph.

    Each branch set is pruned to at most three hub-to-attachment rays inside
    its BFS tree; every target edge then maps to a host path with at most 4r
    internal vertices, and distinct paths share only hubs.
    """
    ok, reason = verify_minor_witness(g, w)
    if not ok:
        raise GraphError(f"invalid witness: {reason}")
    if any(w.target.degree(v) > 3 for v in range(w.target.n)):
        raise GraphError("target has a vertex of degree > 3")

    attach: dict[int, list[int]] = {tv: [] for tv in range(w.target.n)}
    for (u, v), (hu, hv) in w.cross_edges.items():
        attach[u].append(hu)
        attach[v].append(hv)

    parents: dict[int, dict[int, int]] = {}
    hubs: dict[int, int] = {}
    rays: dict[int, dict[int, list[int]]] = {}
    for tv in range(w.target.n):
        _, parent = bfs_layers(g, w.centers[tv], set(w.branch_sets[tv]))
        parents[tv] = parent
        distinct = sorted(set(attach[tv]))
        if not distinct:
            hub = w.centers[tv]
        elif len(distinct) == 1:
            hub = distinct[0]
        elif len(distinct) == 2:
            hub = distinct[0]
        else:
            hub = _tree_median(parent, *distinct)
        hubs[tv] = hub
        rays[tv] = {a: _tree_path_between(parent, hub, a) for a in distinct}
        interiors = [set(ray[1:]) for ray in rays[tv].values()]
        for i in range(len(interiors)):
            for j in range(i + 1, len(interiors)):
                if interiors[i] & interiors[j]:
                    raise AlgorithmFailure("rays overlap beyond the hub")

    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    counts: dict[tuple[int, int], int] = {}
    for (u, v), (hu, hv) in sorted(w.cross_edges.items()):
        ray_u = rays[u][hu]
        ray_v = rays[v][hv]
        full = list(ray_u) + list(reversed(ray_v))
        paths[(u, v)] = tuple(full)
        counts[(u, v)] = len(full) - 2
        if counts[(u, v)] > 4 * w.r:
            raise AlgorithmFailure(
                f"path for target edge ({u},{v}) has {counts[(u, v)]} > 4r internal vertices"
            )

    vertices: set[int] = set(hubs.values())
    edges: set[tuple[int, int]] = set()
    for chain in paths.values():
        vertices.update(chain)
        for a, b in zip(chain, chain[1:]):
            if not g.has_edge(a, b):
                raise AlgorithmFailure(f"extracted pair {a}-{b} is not a host edge")
            edges.add((a, b) if a < b else (b, a))
    return SubdivisionExtract(
        vertices=frozenset(vertices),
        edges=frozenset(edges),
        branch_vertex=hubs,
        paths=paths,
        edge_counts=counts,
    )


# ---------------------------------------------------------------------------
# Closed-form degree and density bounds.
# ---------------------------------------------------------------------------

def grid_minor_degree_bound(d: int, r: int) -> int:
    """floor((60r + 25) ** (d/2)): strict upper bound on the minimum degree of
    any depth-r minor of a dimension-d king grid.

    Odd d is an extrapolation of the even-d counting argument; the value is
    the floored half-integer power.
    """
    if d < 1 or r < 0:
        raise ValueError("need d >= 1 and r >= 0")
    base = 60 * r + 25
    if d % 2 == 0:
        return base ** (d // 2)
    return math.isqrt(base**d)


def subdivided_cubic_degree_bound(m: int) -> int:
    """floor(2 + sqrt(m)): minimum-degree bound for minors of subdivided cubic
    graphs on m base vertices at depths past the degenerate regime."""
    if m < 1:
        raise ValueError(f"base order must be >= 1, got {m}")
    return 2 + math.isqrt(m)


def nabla_upper_degenerate(r: int, k: int) -> Optional[Fraction]:
    """Density bound 2 for depth-r minors of graphs whose every edge was
    subdivided k times, valid exactly when 4r < k; None otherwise."""
    if r < 0 or k < 0:
        raise ValueError("need r >= 0 and k >= 0")
    return Fraction(2) if 4 * r < k else None
