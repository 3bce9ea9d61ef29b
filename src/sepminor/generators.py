"""Deterministic and seeded constructions of the graph families under study.

Every generator is a pure function of its arguments: identical inputs
(including the seed) produce identical edge sets.  Subdivision counts that
involve fractional powers are computed with exact integer ceilings, see
`intmath.ceil_pow`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, GenerationError, GraphError
from .graph import Graph, build_graph
from .intmath import ceil_pow

__all__ = [
    "FamilySpec",
    "SubdivisionResult",
    "king_grid",
    "king_grid_coord_to_id",
    "king_grid_id_to_coord",
    "subdivide_uniform",
    "subdivide_eps",
    "subdivide_eps_sqrt",
    "eps_subdivision_count",
    "sqrt_profile_subdivision_count",
    "planar_grid",
    "complete",
    "path",
    "cycle",
    "star",
    "random_regular",
    "random_tree",
    "random_graph",
]

FAMILY_KINDS = (
    "king-grid",
    "subdivided-cubic",
    "subdivided-clique",
    "subdivided-planar-grid",
    "planar-grid",
    "complete",
    "path",
    "cycle",
    "random-regular",
)

_RANDOM_KINDS = ("subdivided-cubic", "random-regular")

DEFAULT_SIZE_BUDGET = 200_000


@dataclass(frozen=True)
class FamilySpec:
    """A parameterized graph family, as driven by the experiment harness."""

    kind: str
    d: Optional[int] = None
    eps: Optional[Fraction] = None
    degree: Optional[int] = None
    size: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.eps is not None:
            eps = Fraction(self.eps)
            object.__setattr__(self, "eps", eps)
            if not (0 < eps <= 1):
                raise ValueError(f"eps must be in (0, 1], got {eps}")
        if self.d is not None and self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.kind in _RANDOM_KINDS and self.seed is None:
            raise ValueError(f"family kind {self.kind!r} requires a seed")

    def params_string(self) -> str:
        parts = []
        if self.d is not None:
            parts.append(f"d={self.d}")
        if self.eps is not None:
            parts.append(f"eps={self.eps}")
        if self.degree is not None:
            parts.append(f"deg={self.degree}")
        if self.size is not None:
            parts.append(f"size={self.size}")
        return ";".join(parts)


def king_grid_coord_to_id(coord: tuple[int, ...], n: int) -> int:
    """Row-major id of a 1-based coordinate tuple; last coordinate varies fastest."""
    vid = 0
    for c in coord:
        if not (1 <= c <= n):
            raise GraphError(f"coordinate {c} outside 1..{n}")
        vid = vid * n + (c - 1)
    return vid


def king_grid_id_to_coord(vid: int, n: int, d: int) -> tuple[int, ...]:
    coord = []
    for _ in range(d):
        coord.append(vid % n + 1)
        vid //= n
    return tuple(reversed(coord))


def king_grid(n: int, d: int, budget: int = DEFAULT_SIZE_BUDGET) -> Graph:
    """Grid on {1..n}^d where two vertices are adjacent when every coordinate
    differs by at most 2.

    Vertex ids are row-major with the last coordinate varying fastest.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n**d > budget:
        raise BudgetExceeded(f"king_grid({n},{d}) has {n ** d} vertices > budget {budget}")
    total = n**d
    coords = np.unravel_index(np.arange(total), (n,) * d)
    # Each edge once: its offset's first nonzero coordinate is positive, so
    # the far end has the larger id, shifted by a constant per offset.
    lows, highs = [], []
    for off in product((-2, -1, 0, 1, 2), repeat=d):
        if not any(off) or next(x for x in off if x) < 0:
            continue
        inside = np.ones(total, dtype=bool)
        for c, x in zip(coords, off):
            if x:
                inside &= (c + x >= 0) & (c + x < n)
        low = np.flatnonzero(inside)
        lows.append(low)
        highs.append(low + sum(x * n ** (d - 1 - i) for i, x in enumerate(off)))
    low = np.concatenate(lows)
    high = np.concatenate(highs)
    order = np.lexsort((high, low))
    return build_graph(total, zip(low[order].tolist(), high[order].tolist()))


@dataclass(frozen=True)
class SubdivisionResult:
    """A uniformly subdivided graph plus the mapping back to the original.

    Original vertices keep their ids.  For each original edge (u, v) with
    u < v, `edge_paths[(u, v)]` lists the new internal vertex ids in order
    from the u side to the v side.
    """

    graph: Graph
    original_n: int
    per_edge: int
    edge_paths: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)


def subdivide_uniform(g: Graph, k: int) -> SubdivisionResult:
    """Replace every edge with a path through k new internal vertices."""
    if k < 0:
        raise ValueError(f"subdivision count must be >= 0, got {k}")
    edges: list[tuple[int, int]] = []
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = g.n
    for u, v in g.sorted_edges():
        if k == 0:
            paths[(u, v)] = ()
            edges.append((u, v))
            continue
        inner = tuple(range(nxt, nxt + k))
        nxt += k
        paths[(u, v)] = inner
        chain = (u,) + inner + (v,)
        edges.extend(zip(chain, chain[1:]))
    return SubdivisionResult(build_graph(nxt, edges), g.n, k, paths)


def eps_subdivision_count(m: int, eps: Fraction) -> int:
    """ceil(m ** (eps / (1 - eps))) for 0 < eps < 1."""
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return ceil_pow(m, eps / (1 - eps))


def subdivide_eps(g: Graph, eps: Fraction) -> SubdivisionResult:
    """Subdivide each edge ceil(m ** (eps/(1-eps))) times, m = |V(g)|."""
    return subdivide_uniform(g, eps_subdivision_count(g.n, eps))


def sqrt_profile_subdivision_count(m: int, eps: Fraction) -> int:
    """ceil(m ** ((2*eps - 1) / (2 - 2*eps))) for 1/2 <= eps < 1.

    This is the subdivision count that moves a base class with a square-root
    separator profile onto the n**(1-eps) profile.
    """
    eps = Fraction(eps)
    if not (Fraction(1, 2) <= eps < 1):
        raise ValueError(f"eps must be in [1/2, 1), got {eps}")
    return ceil_pow(m, (2 * eps - 1) / (2 - 2 * eps))


def subdivide_eps_sqrt(g: Graph, eps: Fraction) -> SubdivisionResult:
    """Subdivide each edge ceil(m ** ((2*eps-1)/(2-2*eps))) times, m = |V(g)|."""
    return subdivide_uniform(g, sqrt_profile_subdivision_count(g.n, eps))


def planar_grid(t: int) -> Graph:
    """t x t grid graph; ids are row-major, 2*t*(t-1) edges."""
    if t < 1:
        raise ValueError(f"side must be >= 1, got {t}")
    edges = []
    for i in range(t):
        for j in range(t):
            v = i * t + j
            if j + 1 < t:
                edges.append((v, v + 1))
            if i + 1 < t:
                edges.append((v, v + t))
    return build_graph(t * t, edges)


def complete(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    return build_graph(m, [(u, v) for u in range(m) for v in range(u + 1, m)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs >= 3 vertices, got {n}")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves: int) -> Graph:
    """Hub vertex 0 joined to `leaves` leaf vertices."""
    if leaves < 0:
        raise ValueError("leaf count must be >= 0")
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def random_regular(n: int, deg: int, seed: int, retries: int = 1000) -> Graph:
    """Random deg-regular simple graph via the pairing model with rejection.

    Loops and parallel edges cause a full resample; after `retries` failed
    attempts a GenerationError is raised.  Deterministic for a fixed seed.
    """
    if deg < 0 or deg >= n:
        raise GenerationError(f"need 0 <= degree < n, got degree {deg}, n {n}")
    if (n * deg) % 2 != 0:
        raise GenerationError(f"n*degree must be even, got {n}*{deg}")
    rng = random.Random(seed)
    for _ in range(retries):
        stubs = [v for v in range(n) for _ in range(deg)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return build_graph(n, sorted(edges))
    raise GenerationError(f"no simple {deg}-regular graph on {n} vertices after {retries} attempts")


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex v > 0 attaches to a uniform earlier vertex."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    rng = random.Random(seed)
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly m distinct edges (no loops)."""
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise GenerationError(f"cannot place {m} edges on {n} vertices")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.add((u, v) if u < v else (v, u))
    return build_graph(n, sorted(edges))
