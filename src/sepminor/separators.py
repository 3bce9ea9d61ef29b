"""Balanced separators: exact search, certifying heuristics, the
separator-or-clique-minor dichotomy, and expansion checks.

A set X is a balanced separator of an n-vertex graph when every component of
G - X has at most floor(2n/3) vertices.  Everything returned from this module
is re-verified against that definition before it escapes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .errors import AlgorithmFailure, BudgetExceeded, GraphError
from .graph import Graph, bfs_layers, build_graph, components, oversized_component
from .intmath import ceil_log2_mul, le_log2_mul
from .minors import MinorWitness, verify_minor_witness
from .subsets import MAX_VERTICES, SubsetTables

__all__ = [
    "SeparatorCertificate",
    "PrsOutcome",
    "PrsParameters",
    "balance_threshold",
    "is_balanced_separator",
    "min_balanced_separator_exact",
    "separator_heuristic",
    "prs_separator_or_minor",
    "prs_parameters",
    "ExpanderResult",
    "is_alpha_expander_exact",
    "exact_expansion_constant",
    "expansion_upper_estimate",
]

EXACT_BUDGET = MAX_VERTICES
HEURISTIC_STRATEGIES = ("bfs-layer", "recursive-bisection")


def balance_threshold(n: int) -> int:
    """Largest allowed component size, floor(2n/3)."""
    return (2 * n) // 3


@dataclass(frozen=True)
class SeparatorCertificate:
    """A separator plus the component-size evidence that it is balanced."""

    separator: frozenset[int]
    largest_component: int
    n: int

    @property
    def size(self) -> int:
        return len(self.separator)

    def revalidate(self, g: Graph) -> bool:
        if g.n != self.n:
            return False
        decomp = components(g, self.separator)
        return (
            decomp.largest() == self.largest_component
            and decomp.largest() <= balance_threshold(self.n)
        )


def is_balanced_separator(g: Graph, removed: Iterable[int]) -> bool:
    removed = set(removed)
    for v in removed:
        if not (0 <= v < g.n):
            raise GraphError(f"separator vertex {v} out of range")
    return components(g, removed).largest() <= balance_threshold(g.n)


def _certificate(g: Graph, separator: Iterable[int]) -> SeparatorCertificate:
    sep = frozenset(separator)
    decomp = components(g, sep)
    largest = decomp.largest()
    if largest > balance_threshold(g.n):
        raise AlgorithmFailure(f"separator of size {len(sep)} is not balanced")
    return SeparatorCertificate(separator=sep, largest_component=largest, n=g.n)


# ---------------------------------------------------------------------------
# Exact minimum balanced separator (subset search in increasing cardinality).
# ---------------------------------------------------------------------------

def _balanced_mask(masks: tuple[int, ...], full: int, removed: int, threshold: int) -> bool:
    rest = full & ~removed
    while rest:
        start = rest & -rest
        comp = start
        frontier = start
        size = 1
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = masks[v] & rest & ~comp
            comp |= new
            frontier |= new
            size += new.bit_count()
            if size > threshold:
                return False
        rest &= ~comp
    return True


def _min_separator(masks: tuple[int, ...], vertex_mask: int) -> int:
    """Mask of the smallest balanced separator of the subgraph induced on
    vertex_mask.

    Sets are scanned by cardinality, then in combinations order over the
    ascending vertices, so the first balanced one is deterministic.
    """
    bits = [1 << v for v in range(vertex_mask.bit_length()) if vertex_mask >> v & 1]
    threshold = balance_threshold(len(bits))
    for k in range(len(bits) + 1):
        for combo in combinations(bits, k):
            removed = sum(combo)  # distinct bits, so the sum is their union
            if _balanced_mask(masks, vertex_mask, removed, threshold):
                return removed
    raise AlgorithmFailure("removing all vertices is always balanced")


def min_balanced_separator_exact(g: Graph, budget: int = EXACT_BUDGET) -> SeparatorCertificate:
    """Minimum-cardinality balanced separator by subset search.

    Subsets are scanned in increasing cardinality and ascending lexicographic
    order, so the returned separator is deterministic.
    """
    if g.n > budget:
        raise BudgetExceeded(f"exact separator search needs n <= {budget}, got {g.n}")
    if g.n == 0:
        return SeparatorCertificate(frozenset(), 0, 0)
    removed = _min_separator(g.adjacency_masks(), (1 << g.n) - 1)
    return _certificate(g, (v for v in range(g.n) if removed >> v & 1))


# ---------------------------------------------------------------------------
# Heuristic separators (upper-bound surrogates at scales beyond exact search).
# ---------------------------------------------------------------------------

def _shrink_separator(g: Graph, separator: set[int]) -> set[int]:
    """Drop separator vertices (ascending id) while balance is preserved.

    A dropped vertex only joins G - separator, so components only ever merge:
    G - separator is decomposed once, and a union-find over its components
    (with sizes and the running largest size) decides each drop exactly.
    Dropping v merges v with the distinct components around it into one of
    1 + their summed sizes; the drop is kept iff neither that nor the largest
    other component exceeds floor(2n/3).  An unbalanced input therefore keeps
    every vertex.  Cost O(n + m) in all, not one decomposition per vertex.
    """
    threshold = balance_threshold(g.n)
    decomp = components(g, separator)
    comp = list(decomp.component_of)  # -1 while the vertex is in the separator
    parent = list(range(decomp.count))
    size = list(decomp.sizes)
    largest = decomp.largest()

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    kept = set(separator)
    for v in sorted(separator):
        roots = {find(comp[w]) for w in g.neighbors(v) if comp[w] != -1}
        merged = 1 + sum(size[r] for r in roots)
        if max(largest, merged) > threshold:
            continue
        kept.remove(v)
        if roots:
            root = max(roots, key=size.__getitem__)  # union by size
            for r in roots:
                parent[r] = root
        else:
            root = len(parent)
            parent.append(root)
            size.append(0)
        size[root] = merged
        comp[v] = root
        largest = max(largest, merged)
    return kept


def _cut_roots(
    g: Graph, region: list[int], allowed: set[int]
) -> tuple[list[int], list[list[int]]]:
    """A few deterministic BFS roots: the smallest id, the farthest vertex
    from it, and a maximum-degree vertex; plus the BFS layers from the first
    root, which found the second."""
    first = min(region)
    first_layers, _ = bfs_layers(g, first, allowed)
    farthest = min(first_layers[-1])
    top_degree = min(region, key=lambda v: (-g.degree(v), v))
    roots = []
    for r in (first, farthest, top_degree):
        if r not in roots:
            roots.append(r)
    return roots, first_layers


def _bfs_layer_cut(g: Graph, region: list[int]) -> set[int]:
    """Smallest BFS layer (over a few deterministic roots) whose removal
    leaves both the inner and outer side within the balance threshold."""
    threshold = balance_threshold(g.n)
    allowed = set(region)
    total = len(region)
    best: Optional[set[int]] = None
    roots, first_layers = _cut_roots(g, region, allowed)
    for start in roots:
        layers = first_layers if start == roots[0] else bfs_layers(g, start, allowed)[0]
        prefix = 0
        for layer in layers:
            suffix = total - prefix - len(layer)
            if prefix <= threshold and suffix <= threshold:
                if best is None or len(layer) < len(best):
                    best = set(layer)
            prefix += len(layer)
    return best if best is not None else set(region)  # shrink pass trims the fallback


def _split_order_cut(g: Graph, region: list[int]) -> set[int]:
    """Boundary of the first half of the region's BFS order."""
    allowed = set(region)
    start = min(region)
    layers, _ = bfs_layers(g, start, allowed)
    order = [v for layer in layers for v in layer]
    half = set(order[: max(1, len(order) // 2)])
    boundary = {v for v in half if any(w in allowed and w not in half for w in g.neighbors(v))}
    return boundary if boundary else set(region)


def separator_heuristic(g: Graph, strategy: str = "bfs-layer") -> SeparatorCertificate:
    """Certified balanced separator with no optimality claim.

    Both strategies repeatedly cut the oversized component and finish with a
    greedy shrink pass, so sizes are usable as upper-bound samples.  At most
    one component of any subgraph can exceed floor(2n/3), and every cut lies
    inside it, so each round only re-decomposes that component minus the cut;
    the final certificate is still checked on the whole graph.
    """
    if strategy not in HEURISTIC_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if g.n == 0:
        return SeparatorCertificate(frozenset(), 0, 0)
    threshold = balance_threshold(g.n)
    separator: set[int] = set()
    region = oversized_component(g, range(g.n), (), threshold)
    while region is not None:
        if strategy == "bfs-layer":
            cut = _bfs_layer_cut(g, region)
        else:
            cut = _split_order_cut(g, region)
        if not cut:
            raise AlgorithmFailure("empty cut on an oversized component")
        separator |= cut
        region = oversized_component(g, region, cut, threshold)
    separator = _shrink_separator(g, separator)
    return _certificate(g, separator)


# ---------------------------------------------------------------------------
# Separator-or-clique-minor dichotomy (PRS-style clustering).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrsOutcome:
    """Either branch of the dichotomy, self-verified before being returned."""

    branch: str  # "separator" | "minor"
    l: int
    h: int
    n: int
    depth_cap: int
    certificate: Optional[SeparatorCertificate] = None
    witness: Optional[MinorWitness] = None

    @property
    def separator_bound(self) -> float:
        return self.n / self.l + 2 * self.h**2 * self.l * math.log2(self.n)


def _separator_within_bound(size: int, n: int, l: int, h: int) -> bool:
    """Exact test for size <= n/l + 2*h^2*l*log2(n)."""
    excess = l * size - n
    return le_log2_mul(excess, 2 * h**2 * l**2, n)


@dataclass
class _Cluster:
    uid: int
    vertices: frozenset[int]
    seed: int
    links: dict[int, tuple[int, int]]  # earlier cluster uid -> (vertex here, vertex there)


def _grow_cluster(
    g: Graph, region: list[int], clusters: list[_Cluster], depth_cap: int, l: int, n: int
):
    """One growth attempt inside an oversized region.

    Returns ("cluster", new_cluster) when a set adjacent to every live cluster
    fits within the depth cap, ("cut", layer) when a cheap BFS layer should go
    to the separator instead, and ("stranded", None) when some live cluster has
    no edge into the region at all.
    """
    region_set = set(region)
    for c in clusters:
        if not any(w in region_set for v in c.vertices for w in g.neighbors(v)):
            return "stranded", None

    cluster_nbrs = {
        c.uid: {w for v in c.vertices for w in g.neighbors(v) if w in region_set}
        for c in clusters
    }
    seed = min(region)
    layers, parent = bfs_layers(g, seed, region_set, depth_cap=depth_cap)

    # attachment scan: first reached vertex adjacent to each cluster
    attach: dict[int, int] = {}
    attach_depth: dict[int, int] = {}
    success_depth = None
    for depth, layer in enumerate(layers):
        for v in layer:
            for c in clusters:
                if c.uid not in attach and v in cluster_nbrs[c.uid]:
                    attach[c.uid] = v
                    attach_depth[c.uid] = depth
        if len(attach) == len(clusters):
            success_depth = depth
            break

    if success_depth is not None:
        vertices = {seed}
        links: dict[int, tuple[int, int]] = {}
        for c in clusters:
            v = attach[c.uid]
            here = v
            while v != seed:
                vertices.add(v)
                v = parent[v]
            there = min(w for w in g.neighbors(here) if w in c.vertices)
            links[c.uid] = (here, there)
        uid = max((c.uid for c in clusters), default=-1) + 1
        return "cluster", _Cluster(uid=uid, vertices=frozenset(vertices), seed=seed, links=links)

    # No attachment within the cap: find a cheap layer to cut.  Let B_i be the
    # ball through layer i and T_i the rest of the region.  While the ball is
    # small we look for the last layer with l*|L_i| <= |B_{i-1}| (the charged
    # side is the ball, at most n/3 vertices); past the n/3 mark we take the
    # first layer with l*|L_i| <= |T_i| (the charged side is the outside).
    sizes = [len(layer) for layer in layers]
    prefix = [0]
    for s in sizes:
        prefix.append(prefix[-1] + s)
    total = len(region)
    crossing = next(
        (i for i in range(len(layers)) if prefix[i + 1] > n // 3), len(layers)
    )
    cut_index = None
    for i in range(1, min(crossing, len(layers) - 1) + 1):
        if l * sizes[i] <= prefix[i]:
            cut_index = i
    if cut_index is None:
        for i in range(crossing + 1, len(layers)):
            outside = total - prefix[i + 1]
            if l * sizes[i] <= outside:
                cut_index = i
                break
    if cut_index is None:
        # Defensive fallback (reachable only at rounding knife edges): the
        # smallest layer among the last h*l explored layers.
        window = layers[max(1, len(layers) - max(1, l * max(1, len(clusters) + 1))):]
        if not window:
            return "stranded", None
        cut_index = min(
            range(len(layers) - len(window), len(layers)),
            key=lambda i: (sizes[i], i),
        )
    return "cut", set(layers[cut_index])


def prs_separator_or_minor(g: Graph, l: int, h: int) -> PrsOutcome:
    """Either a balanced separator of size at most n/l + 2*h^2*l*log2(n) or a
    witness that the h-clique is a minor at depth ceil(2*l*log2(n)).

    Greedy clustering: branch-set candidates are grown one at a time, each as a
    union of BFS paths from a fresh seed to the neighborhoods of all existing
    candidates, within the depth cap.  When growth stalls, a provably cheap BFS
    layer moves to the separator; candidates that lose contact with the
    oversized region are dumped into the separator.  Whichever branch completes
    is verified before being returned; verification failure raises.

    At most one component of G - (separator + candidates) can exceed
    floor(2n/3), and each round removes vertices only from inside it (a new
    candidate or a cut layer; dumping a candidate removes nothing new), so the
    next oversized region is found by re-decomposing the current one alone.
    """
    if l < 1 or h < 1:
        raise ValueError(f"need l >= 1 and h >= 1, got l={l}, h={h}")
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    n = g.n
    depth_cap = ceil_log2_mul(2 * l, n)
    threshold = balance_threshold(n)

    separator: set[int] = set()
    clusters: list[_Cluster] = []
    region = oversized_component(g, range(n), (), threshold)

    while True:
        if region is None:
            final = _shrink_separator(g, separator | {v for c in clusters for v in c.vertices})
            cert = _certificate(g, final)
            if not _separator_within_bound(cert.size, n, l, h):
                raise AlgorithmFailure(
                    f"separator of size {cert.size} exceeds n/l + 2h^2*l*log2(n)"
                )
            return PrsOutcome(
                branch="separator", l=l, h=h, n=n, depth_cap=depth_cap, certificate=cert
            )

        outcome, payload = _grow_cluster(g, region, clusters, depth_cap, l, n)
        if outcome == "cluster":
            clusters.append(payload)
            if len(clusters) == h:
                witness = _witness_from_clusters(g, clusters, depth_cap)
                ok, reason = verify_minor_witness(g, witness)
                if not ok:
                    raise AlgorithmFailure(f"minor witness failed verification: {reason}")
                return PrsOutcome(
                    branch="minor", l=l, h=h, n=n, depth_cap=depth_cap, witness=witness
                )
            region = oversized_component(g, region, payload.vertices, threshold)
        elif outcome == "cut":
            separator |= payload
            region = oversized_component(g, region, payload, threshold)
        else:  # stranded: some cluster cannot reach the oversized region
            region_set = set(region)
            stranded = [
                c
                for c in clusters
                if not any(w in region_set for v in c.vertices for w in g.neighbors(v))
            ]
            assert stranded, "stranded outcome without stranded clusters"
            for c in stranded:
                separator |= c.vertices
            clusters = [c for c in clusters if c not in stranded]


def _witness_from_clusters(g: Graph, clusters: list[_Cluster], depth_cap: int) -> MinorWitness:
    h = len(clusters)
    uid_to_index = {c.uid: i for i, c in enumerate(clusters)}
    cross: dict[tuple[int, int], tuple[int, int]] = {}
    for c in clusters:
        j = uid_to_index[c.uid]
        for uid, (here, there) in c.links.items():
            if uid not in uid_to_index:
                continue  # link to a cluster that was dumped into the separator
            i = uid_to_index[uid]
            cross[(min(i, j), max(i, j))] = (there, here) if i < j else (here, there)
    target = build_graph(h, [(i, j) for i in range(h) for j in range(i + 1, h)])
    return MinorWitness(
        r=depth_cap,
        target=target,
        branch_sets={uid_to_index[c.uid]: c.vertices for c in clusters},
        centers={uid_to_index[c.uid]: c.seed for c in clusters},
        cross_edges=cross,
    )


# ---------------------------------------------------------------------------
# Parameter schedule turning a depth budget r into (n, l, h).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrsParameters:
    """Instance size and dichotomy parameters for a given depth budget."""

    r: int
    eps: Fraction
    n: int
    l: int
    h: int
    inequalities: dict[str, bool]

    @property
    def all_inequalities_hold(self) -> bool:
        return all(self.inequalities.values())


def prs_parameters(r: int, eps: Fraction) -> PrsParameters:
    """n = floor(r^(1/eps) / log2(r)^(2/eps)), l = floor(r / (2 log2 n)),
    h = floor(sqrt(n) / (2 l log2 n)), with the four schedule inequalities
    reported.  h may be 0; prs_separator_or_minor is what needs h >= 1.
    Raises ValueError only where the formulas are undefined: eps outside
    (0, 1], r < 3, n < 2 or l < 1.
    """
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if r < 3:
        raise ValueError(f"depth budget too small: r={r}")
    inv_eps = 1 / float(eps)
    log_r = math.log2(r)
    n = math.floor(r**inv_eps / log_r ** (2 * inv_eps))
    if n < 2:
        raise ValueError(f"infeasible: n={n} < 2 for r={r}, eps={eps}")
    log_n = math.log2(n)
    l = math.floor(r / (2 * log_n))
    if l < 1:
        raise ValueError(f"infeasible: l < 1 for r={r}, eps={eps}")
    h = math.floor(math.sqrt(n) / (2 * l * log_n))
    inequalities = {
        "cluster_term_below_cut_term": 2 * h**2 * l * log_n < n / l,
        "size_fits_depth": float(n) ** float(eps) <= r / log_r**2 <= r,
        "log_ratio": log_n <= inv_eps * log_r,
        "depth_window": 2 * l * log_n <= r <= 3 * l * log_n,
    }
    return PrsParameters(r=r, eps=eps, n=n, l=l, h=h, inequalities=inequalities)


# ---------------------------------------------------------------------------
# Vertex expansion.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpanderResult:
    is_expander: bool
    alpha: Fraction
    violating: Optional[frozenset[int]] = None


def _reversed_masks(masks: tuple[int, ...]) -> list[int]:
    """Adjacency masks of the same graph with vertex v renamed n - 1 - v."""
    n = len(masks)
    flip = [1 << (n - 1 - v) for v in range(n)]
    out = []
    for v in reversed(range(n)):
        m, r = masks[v], 0
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            r |= flip[w]
        out.append(r)
    return out


def is_alpha_expander_exact(g: Graph, alpha: Fraction, budget: int = EXACT_BUDGET) -> ExpanderResult:
    """Exhaustive check of |N(S)| >= alpha * |S| over all nonempty S with
    |S| <= n/2; returns the lexicographically first violating set of the
    smallest violating size (itertools.combinations order) if any.

    One blocked scan of the subset tables of G with its vertices renamed
    v -> n-1-v: S comes before T in combinations order iff min(S ^ T) lies in
    S, that is iff S's renamed mask is the larger, so per size the scan keeps
    the largest renamed violator.  |N(S) - S| < alpha*k is tested as
    |N(S) - S| < ceil(alpha*k), exact for integer boundaries.  Time
    O(2^n) in numpy passes over blocks of at most 4096 masks, memory
    O(2^12): on a 2-vCPU 2.1 GHz VM, n = 18 takes about 3 ms.
    """
    if g.n > budget:
        raise BudgetExceeded(f"exact expander check needs n <= {budget}, got {g.n}")
    alpha = Fraction(alpha)
    n = g.n
    tables = SubsetTables(_reversed_masks(g.adjacency_masks()))
    p, q = alpha.numerator, alpha.denominator
    # ceil(alpha*k), clamped to 0..n+1 so that any alpha fits; 0 (no
    # violation) outside 1 <= k <= n/2
    limit = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n // 2 + 1):
        limit[k] = min(max(-(-p * k // q), 0), n + 1)
    first = np.full(n + 1, -1, dtype=np.int64)
    for high in tables.high_parts:
        s = tables.block(high)
        sizes = np.bitwise_count(s)
        bad = tables.block_boundaries(high, s) < limit[sizes]
        if bad.any():
            np.maximum.at(first, sizes[bad], s[bad])
    for k in range(1, n // 2 + 1):
        if first[k] >= 0:
            renamed = int(first[k])
            violating = frozenset(n - 1 - w for w in range(n) if renamed >> w & 1)
            return ExpanderResult(False, alpha, violating)
    return ExpanderResult(True, alpha)


def exact_expansion_constant(g: Graph, budget: int = EXACT_BUDGET) -> Fraction:
    """min |N(S)|/|S| over nonempty S with |S| <= n/2 (exhaustive).

    One blocked scan of the subset tables counts the (size, boundary) pairs
    that occur; the least boundary of each size is then compared as exact
    Fractions.  Time O(2^n) in numpy passes over blocks of at most 4096
    masks, memory O(2^12): on a 2-vCPU 2.1 GHz VM, n = 18 takes about 3 ms
    and n = 24 0.13-0.2 s.
    """
    if g.n > budget:
        raise BudgetExceeded(f"exact expansion needs n <= {budget}, got {g.n}")
    if g.n < 2:
        raise GraphError("expansion needs at least 2 vertices")
    n = g.n
    tables = SubsetTables(g.adjacency_masks())
    seen = np.zeros((n + 1) * (n + 1), dtype=np.int64)  # at k*(n+1) + b: sets of size k, boundary b
    for high in tables.high_parts:
        s = tables.block(high)
        key = np.bitwise_count(s).astype(np.intp) * (n + 1) + tables.block_boundaries(high, s)
        seen += np.bincount(key, minlength=seen.size)
    least = np.argmax(seen.reshape(n + 1, n + 1) > 0, axis=1)
    return min(Fraction(int(least[k]), k) for k in range(1, n // 2 + 1))


def expansion_upper_estimate(g: Graph, samples: int, seed: int) -> Fraction:
    """Smallest sampled |N(S)|/|S| over connected S with |S| <= n/2.

    Samples alternate between BFS-ball prefixes (the worst shape for
    subdivided graphs) and random connected sets.  The result upper-bounds the
    true expansion constant; it never certifies expansion.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if g.n < 2:
        raise GraphError("expansion needs at least 2 vertices")
    rng = random.Random(seed)
    half = g.n // 2
    best: Optional[Fraction] = None

    def consider(subset: set[int]) -> None:
        nonlocal best
        if not subset or len(subset) > half:
            return
        nbr = set()
        for v in subset:
            nbr.update(g.neighbors(v))
        ratio = Fraction(len(nbr - subset), len(subset))
        if best is None or ratio < best:
            best = ratio

    everything = set(range(g.n))
    for i in range(samples):
        start = rng.randrange(g.n)
        if i % 2 == 0:
            layers, _ = bfs_layers(g, start, everything)
            order = [v for layer in layers for v in layer]
            ball: set[int] = set()
            for v in order[:half]:
                ball.add(v)
                consider(ball)
        else:
            target = rng.randint(1, half)
            grown = {start}
            frontier = [w for w in g.neighbors(start)]
            while len(grown) < target and frontier:
                v = frontier.pop(rng.randrange(len(frontier)))
                if v in grown:
                    continue
                grown.add(v)
                frontier.extend(w for w in g.neighbors(v) if w not in grown)
            consider(grown)
    assert best is not None
    return best
