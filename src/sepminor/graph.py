"""Immutable simple undirected graphs with the traversals every other module needs.

Vertices are dense integers 0..n-1.  Graphs never mutate after construction;
algorithms that need "G minus some vertices" take a vertex set argument
instead.  Densities are exact rationals so that comparisons against bounds
never involve floating point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GraphError

__all__ = [
    "Graph",
    "ComponentDecomposition",
    "build_graph",
    "components",
    "oversized_component",
    "bfs_radius",
    "degeneracy",
    "density",
    "parse_edge_list",
    "serialize_edge_list",
    "read_edge_list",
    "write_edge_list",
]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    No self-loops, no parallel edges.  Adjacency lists are derived from the
    edge set at construction and kept sorted, so every traversal that walks
    neighbors in list order is deterministic.
    """

    __slots__ = ("n", "_edges", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self._edges = frozenset(seen)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._masks: Optional[tuple[int, ...]] = None

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edges

    def vertices(self) -> range:
        return range(self.n)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks, built lazily for subset-exhaustive scans."""
        if self._masks is None:
            masks = []
            for v in range(self.n):
                m = 0
                for w in self._adj[v]:
                    m |= 1 << w
                masks.append(m)
            self._masks = tuple(masks)
        return self._masks

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `vertices`, relabeled 0..k-1 in ascending order.

        Returns the subgraph and the old-id -> new-id mapping.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for (u, v) in self._edges
            if u in index and v in index
        ]
        return Graph(len(keep), edges), index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a Graph; rejects out-of-range ids, loops, duplicates."""
    return Graph(n, edge_list)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of G minus a removed vertex set.

    `component_of[v]` is the component id of v, or -1 for removed vertices.
    Component ids are assigned in order of their smallest vertex.
    """

    component_of: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def largest(self) -> int:
        return max(self.sizes, default=0)


def components(g: Graph, removed: Iterable[int] = ()) -> ComponentDecomposition:
    """Decompose G - removed into connected components."""
    gone = set(removed)
    for v in gone:
        if not (0 <= v < g.n):
            raise GraphError(f"removed vertex {v} out of range")
    comp = [-1] * g.n
    sizes: list[int] = []
    for start in range(g.n):
        if start in gone or comp[start] != -1:
            continue
        cid = len(sizes)
        comp[start] = cid
        size = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if comp[w] == -1 and w not in gone:
                    comp[w] = cid
                    size += 1
                    queue.append(w)
        sizes.append(size)
    return ComponentDecomposition(tuple(comp), tuple(sizes))


def oversized_component(
    g: Graph, region: Sequence[int], removed: Iterable[int], threshold: int
) -> Optional[list[int]]:
    """Sorted vertices of the first component of G[region - removed], in the
    order of `region`, with more than `threshold` vertices; None when every
    component fits.

    Only region - removed is traversed, and the scan stops as soon as the
    vertices not yet reached cannot hold such a component.  When threshold is
    at least half of |region - removed| there is at most one candidate.
    """
    adj = g._adj
    gone = set(removed)
    unreached = {v for v in region if v not in gone}
    for start in region:
        if len(unreached) <= threshold:
            return None
        if start not in unreached:
            continue
        unreached.remove(start)
        members = [start]
        queue = deque(members)
        while queue:
            for w in adj[queue.popleft()]:
                if w in unreached:
                    unreached.remove(w)
                    members.append(w)
                    queue.append(w)
        if len(members) > threshold:
            members.sort()
            return members
    return None


def bfs_radius(g: Graph, center: int, within: Iterable[int]) -> Optional[int]:
    """Eccentricity of `center` in the subgraph induced by `within`.

    Returns the maximum hop distance from center to any vertex of `within`,
    or None when some vertex of `within` is unreachable inside `within`.
    """
    allowed = set(within)
    if center not in allowed:
        raise GraphError(f"center {center} not in the given vertex set")
    dist = {center: 0}
    queue = deque([center])
    radius = 0
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w in allowed and w not in dist:
                dist[w] = dist[v] + 1
                radius = max(radius, dist[w])
                queue.append(w)
    if len(dist) != len(allowed):
        return None
    return radius


def bfs_layers(g: Graph, start: int, allowed: set[int], depth_cap: Optional[int] = None):
    """Layered BFS from `start` restricted to `allowed`.

    Returns (layers, parent) where layers[i] is the sorted list of vertices at
    distance i and parent maps every reached vertex to its BFS predecessor.
    Exploration stops after `depth_cap` layers when a cap is given.
    """
    parent: dict[int, int] = {start: start}
    layers: list[list[int]] = [[start]]
    frontier = [start]
    while frontier:
        if depth_cap is not None and len(layers) > depth_cap:
            break
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w in allowed and w not in parent:
                    parent[w] = v
                    nxt.append(w)
        if not nxt:
            break
        nxt.sort()
        layers.append(nxt)
        frontier = nxt
    return layers, parent


def degeneracy(g: Graph) -> int:
    """Smallest k such that every subgraph has a vertex of degree <= k.

    Repeatedly removes a vertex of minimum remaining degree and returns the
    largest degree seen at removal, in O(n + m) with the Matula-Beck bucket
    queue.  Buckets keep stale entries; an entry counts only while its vertex
    is alive and still has the bucket's degree.
    """
    deg = [g.degree(v) for v in range(g.n)]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(g.n):
        buckets[deg[v]].append(v)
    alive = [True] * g.n
    best = 0
    k = 0
    for _ in range(g.n):
        # Removing a vertex of degree k lowers its neighbours to k - 1 at least.
        k = max(k - 1, 0)
        while True:
            bucket = buckets[k]
            while bucket and not (alive[bucket[-1]] and deg[bucket[-1]] == k):
                bucket.pop()
            if bucket:
                break
            k += 1
        v = bucket.pop()
        alive[v] = False
        best = max(best, k)
        for w in g.neighbors(v):
            if alive[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
    return best


def density(g: Graph) -> Fraction:
    """|E| / |V| as an exact rational (0 for the empty graph)."""
    if g.n == 0:
        return Fraction(0)
    return Fraction(g.m, g.n)


# Edge-list text format: first line "p <n> <m>", then m lines "e <u> <v>"
# with 0-based ids.  Blank lines and lines starting with "#" are ignored.

def parse_edge_list(text: str) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: repeated problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'p <n> <m>'")
            n, m = int(parts[1]), int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'e <u> <v>'")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing problem line 'p <n> <m>'")
    if m != len(edges):
        raise GraphError(f"problem line declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def serialize_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"p {g.n} {g.m}")
    lines.extend(f"e {u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path: str, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_edge_list(g, comments))


def edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Both ends (u, v), u < v, of every edge as int64 arrays, in sorted edge order."""
    indices = np.fromiter(chain.from_iterable(g._adj), dtype=np.int64, count=2 * g.m)
    rows = np.repeat(np.arange(g.n, dtype=np.int64), [len(nbrs) for nbrs in g._adj])
    upper = indices > rows
    return rows[upper], indices[upper]


def count_edges_within(g: Graph, vertices: Iterable[int]) -> int:
    inside = set(vertices)
    total = 0
    for v in inside:
        for w in g.neighbors(v):
            if w > v and w in inside:
                total += 1
    return total
