"""The benchmark's three seeded workloads and the independent checks of
every output.

`build(workload, seed, scale)` generates the inputs (the timed set-up) and
returns the fixed instance list.  Each instance has a `solve` step, which
makes only public sepminor calls and is timed, and a `check` step, which
re-checks the output outside the timed region and returns its canonical
record for the digest plus its contribution to the two quality sums.

Why these workloads:

- sparse-separators: large sparse graphs (subdivided cubic graphs at
  eps = 1/2 up to 6 * 10^4 vertices, planar grids) through the heuristic
  separator, the PRS dichotomy and the exponent fit.  Nearly all the time is
  spent in `graph.components`, the shrink pass and the PRS loop; the
  max-flow and bitmask kernels stay idle.
- minor-density: greedy shallow-minor search, slab and subdivided-clique
  witnesses and one densest subgraph on a 50 000-vertex path.  It runs the
  max-flow kernel, the ball partition, witness verification and the
  king-grid generator, and calls `components` little.
- exact-small: thousands of tiny graphs through the bitmask kernels (exact
  separators, treewidth DP, hereditary separator number, exhaustive densest
  subgraph, exact expansion).  It uses the graph core the opposite way from
  sparse-separators: many small builds and no large traversals.

Instance sizes are fixed per scale; the seed only changes the random graphs
and the seeds handed to seeded algorithms, so run time varies little with it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import sepminor as sm
from sepminor import formats, harness

WORKLOADS = ("sparse-separators", "minor-density", "exact-small")
SCALES = ("full", "tiny")
HALF = Fraction(1, 2)


class CheckFailed(Exception):
    """An output did not pass the benchmark's own re-check."""


@dataclass
class Output:
    record: Any
    sep_size: int = 0
    density: Fraction = Fraction(0)


@dataclass
class Instance:
    name: str
    solve: Callable[[dict], Any]  # receives the outputs of earlier instances
    check: Callable[[Any], Output]


@dataclass
class Workload:
    inputs: dict[str, Any]  # every generated graph and algorithm seed, by label
    instances: list[Instance]


def build(workload: str, seed: int, scale: str = "full") -> Workload:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = random.Random(f"{workload}/{seed}")
    builders = {
        "sparse-separators": _sparse_separators,
        "minor-density": _minor_density,
        "exact-small": _exact_small,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    inputs: dict[str, Any] = {}
    instances = builders[workload](rng, scale == "tiny", inputs)
    return Workload(inputs, instances)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Independent re-checks (scipy and plain Python, never sepminor's traversals).
# ---------------------------------------------------------------------------

def _adjacency(g) -> csr_matrix:
    edges = np.array(g.sorted_edges(), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(g.n, g.n))


def _largest_component_after(g, removed) -> int:
    """Largest component of g - removed, by scipy's connected_components."""
    keep = np.ones(g.n, dtype=bool)
    keep[np.fromiter(removed, dtype=np.int64)] = False
    if not keep.any():
        return 0
    sub = _adjacency(g)[keep][:, keep]
    _, labels = connected_components(sub, directed=False)
    return int(np.bincount(labels).max())


def _check_certificate(g, cert) -> Output:
    _expect(cert.n == g.n, f"certificate n={cert.n} but graph n={g.n}")
    _expect(all(0 <= v < g.n for v in cert.separator), "separator vertex out of range")
    largest = _largest_component_after(g, cert.separator)
    _expect(
        largest == cert.largest_component,
        f"largest component {largest}, certificate says {cert.largest_component}",
    )
    _expect(largest <= 2 * g.n // 3, f"largest component {largest} > floor(2n/3)")
    return Output(formats.certificate_to_json(cert), sep_size=len(cert.separator))


def _check_witness(g, w) -> Output:
    ok, reason = sm.verify_minor_witness(g, w)
    _expect(ok, f"witness rejected: {reason}")
    _expect(w.target.n > 0, "empty witness target")
    density = Fraction(w.target.m, w.target.n)
    return Output({"witness": formats.witness_to_json(w), "density": _frac(density)}, density=density)


def _edges_within(g, vertices) -> int:
    inside = set(vertices)
    return sum(1 for u, v in g.sorted_edges() if u in inside and v in inside)


def _brute_min_separator(g) -> int:
    """Minimum balanced separator size by plain subset enumeration."""
    threshold = 2 * g.n // 3
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    for k in range(g.n + 1):
        for removed in combinations(range(g.n), k):
            seen = set(removed)
            balanced = True
            for start in range(g.n):
                if start in seen:
                    continue
                seen.add(start)
                stack, size = [start], 1
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                            size += 1
                if size > threshold:
                    balanced = False
                    break
            if balanced:
                return k
    return g.n


def _degeneracy(g) -> int:
    deg = {v: g.degree(v) for v in range(g.n)}
    best = 0
    while deg:
        v = min(deg, key=lambda u: (deg[u], u))
        best = max(best, deg.pop(v))
        for w in g.neighbors(v):
            if w in deg:
                deg[w] -= 1
    return best


def _elimination_width(g, order) -> int:
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    done: set[int] = set()
    width = 0
    for v in order:
        later = adj[v] - done
        width = max(width, len(later))
        for a in later:
            adj[a] |= later - {a}
        done.add(v)
    return width


def _ols(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, intercept, r2


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# sparse-separators
# ---------------------------------------------------------------------------

def _sparse_separators(rng: random.Random, tiny: bool, inputs: dict) -> list[Instance]:
    if tiny:
        cubic_sizes, grid_sides = (10, 14, 20), (8, 12, 16)
        prs_cubic, prs_grids = (10, 12), (8, 10)
    else:
        cubic_sizes, grid_sides = (100, 150, 200), (60, 80, 100)
        prs_cubic, prs_grids = (30, 100), (40, 50)

    def subdivided_cubic(m: int):
        seed = _seed(rng)
        return sm.subdivide_eps(sm.random_regular(m, 3, seed), HALF).graph

    instances: list[Instance] = []
    cubic = {m: subdivided_cubic(m) for m in cubic_sizes}
    grids = {t: sm.planar_grid(t) for t in sorted(set(grid_sides) | set(prs_grids))}
    prs_hosts = {f"subdivided-cubic-m{m}": subdivided_cubic(m) for m in prs_cubic}
    prs_hosts.update({f"planar-grid-{t}": grids[t] for t in prs_grids})
    for m, g in cubic.items():
        inputs[f"subdivided-cubic-m{m}"] = g
    for t in grid_sides:
        inputs[f"planar-grid-{t}"] = grids[t]
    for label, g in prs_hosts.items():
        inputs[f"prs/{label}"] = g

    def heuristic(label: str, g) -> None:
        instances.append(
            Instance(
                f"heuristic/{label}",
                lambda done: sm.separator_heuristic(g),
                lambda cert: _check_certificate(g, cert),
            )
        )

    for m, g in cubic.items():
        heuristic(f"subdivided-cubic-m{m}", g)
    for t in grid_sides:
        heuristic(f"planar-grid-{t}", grids[t])

    def fit(label: str, family, hosts: list) -> None:
        names = [f"heuristic/{name}" for name, _ in hosts]

        def solve(done):
            records = [
                harness.ExperimentRecord(
                    family=family,
                    n_or_r=g.n,
                    kind="separator-size",
                    method="bfs-layer",
                    value=Fraction(done[name].size),
                    direction="upper",
                    seed=0,
                )
                for name, (_, g) in zip(names, hosts)
            ]
            envelope = harness.profile_envelope(records)
            return envelope, harness.fit_exponent(envelope)

        def check(result) -> Output:
            envelope, fitted = result
            ns = [rec.n_or_r for rec in envelope]
            values = [rec.value for rec in envelope]
            _expect(ns == sorted(g.n for _, g in hosts), "envelope does not cover every size")
            _expect(all(a <= b for a, b in zip(values, values[1:])), "envelope not monotone")
            slope, intercept, r2 = _ols([math.log(n) for n in ns], [math.log(float(v)) for v in values])
            _expect(_close(fitted.exponent, slope), f"exponent {fitted.exponent} != {slope}")
            _expect(_close(fitted.coefficient, math.exp(intercept)), "coefficient mismatch")
            _expect(_close(fitted.r_squared, r2), "r_squared mismatch")
            _expect(fitted.points == len(ns), "point count mismatch")
            _expect(fitted.label == "upper-envelope", f"label {fitted.label!r}")
            return Output(
                {
                    "envelope": [[n, _frac(v)] for n, v in zip(ns, values)],
                    "exponent": fitted.exponent,
                    "coefficient": fitted.coefficient,
                    "r_squared": fitted.r_squared,
                    "label": fitted.label,
                }
            )

        instances.append(Instance(f"fit/{label}", solve, check))

    fit(
        "subdivided-cubic",
        sm.FamilySpec("subdivided-cubic", eps=HALF, seed=0),
        [(f"subdivided-cubic-m{m}", g) for m, g in cubic.items()],
    )
    fit(
        "planar-grid",
        sm.FamilySpec("planar-grid"),
        [(f"planar-grid-{t}", grids[t]) for t in grid_sides],
    )

    for l, h in ((3, 4), (2, 3)):
        for label, g in prs_hosts.items():
            instances.append(
                Instance(
                    f"prs-{l}-{h}/{label}",
                    lambda done, g=g, l=l, h=h: sm.prs_separator_or_minor(g, l, h),
                    lambda out, g=g, l=l, h=h: _check_prs(g, l, h, out),
                )
            )
    return instances


def _check_prs(g, l: int, h: int, out) -> Output:
    _expect((out.l, out.h, out.n) == (l, h, g.n), "outcome parameters differ from the call")
    depth_cap = (g.n ** (2 * l) - 1).bit_length()  # ceil(2*l*log2(n)), exactly
    _expect(out.depth_cap == depth_cap, f"depth cap {out.depth_cap} != {depth_cap}")
    if out.branch == "separator":
        _expect(out.certificate is not None and out.witness is None, "separator branch payload")
        checked = _check_certificate(g, out.certificate)
        bound = g.n / l + 2 * h * h * l * math.log2(g.n)
        _expect(checked.sep_size <= bound * (1 + 1e-12), f"separator {checked.sep_size} > {bound}")
    else:
        _expect(out.branch == "minor", f"unknown branch {out.branch!r}")
        _expect(out.witness is not None and out.certificate is None, "minor branch payload")
        w = out.witness
        _expect(w.r == depth_cap, f"witness depth {w.r} != {depth_cap}")
        _expect((w.target.n, w.target.m) == (h, h * (h - 1) // 2), "target is not K_h")
        checked = _check_witness(g, w)
    checked.record = {"branch": out.branch, "depth_cap": out.depth_cap, "output": checked.record}
    return checked


# ---------------------------------------------------------------------------
# minor-density
# ---------------------------------------------------------------------------

def _minor_density(rng: random.Random, tiny: bool, inputs: dict) -> list[Instance]:
    if tiny:
        king_sides, king_depths = (6, 8), (1, 2)
        sqrt_grids, sqrt_depths = ((5, HALF), (3, Fraction(3, 4))), (1,)
        slabs = ((2, 1), (2, 2), (4, 1))
        cliques = (4, 5)
    else:
        king_sides, king_depths = (24, 32), (1, 2, 3)
        sqrt_grids = ((20, HALF), (30, HALF), (5, Fraction(3, 4)), (6, Fraction(3, 4)))
        sqrt_depths = (1, 2)
        slabs = tuple((2, r) for r in range(1, 7)) + ((4, 2), (4, 3))
        cliques = (5, 8, 10)
    # The 50 000-vertex path is the radius-0 densest-subgraph step at the
    # scale the sweeps aim for.  At the time the benchmark was written the
    # flow network overflows int32 there, so this instance fails; it stays
    # in the list at this size so the failure shows in ok_share.
    path_n = 50_000

    hosts = {f"king-grid-{s}": sm.king_grid(s, 2) for s in king_sides}
    for t, eps in sqrt_grids:
        hosts[f"sqrt-subdivided-grid-{t}-eps{_frac(eps)}"] = sm.subdivide_eps_sqrt(
            sm.planar_grid(t), eps
        ).graph
    long_path = sm.path(path_n)
    inputs.update(hosts)
    inputs[f"path-{path_n}"] = long_path

    instances: list[Instance] = []
    for label, g in hosts.items():
        depths = king_depths if label.startswith("king") else sqrt_depths
        for r in depths:
            seed = _seed(rng)
            inputs[f"nabla-seed/{label}/r{r}"] = seed
            instances.append(
                Instance(
                    f"nabla/{label}/r{r}",
                    lambda done, g=g, r=r, seed=seed: sm.nabla_lower_greedy(g, r, seed),
                    lambda rep, g=g, r=r: _check_nabla(g, r, rep),
                )
            )
    # A separator for each king grid: the other side of the paper's link,
    # measured on the same hosts.
    for label, g in hosts.items():
        if label.startswith("king"):
            instances.append(
                Instance(
                    f"heuristic/{label}",
                    lambda done, g=g: sm.separator_heuristic(g),
                    lambda cert, g=g: _check_certificate(g, cert),
                )
            )
    for d, r in slabs:
        instances.append(
            Instance(
                f"slab/d{d}/r{r}",
                lambda done, d=d, r=r: sm.slab_bipartite_witness(d, r),
                lambda out, d=d, r=r: _check_slab(d, r, out),
            )
        )
    for m in cliques:
        r = (m + 2) // 2  # branch sets reach ceil((k+1)/2) with k = m at eps = 1/2
        instances.append(
            Instance(
                f"clique/m{m}/r{r}",
                lambda done, m=m, r=r: sm.clique_witness_in_subdivided_clique(m, HALF, r),
                lambda out, m=m: _check_clique(m, out),
            )
        )
    instances.append(
        Instance(
            f"densest/path-{path_n}",
            lambda done: sm.densest_subgraph(long_path),
            lambda out: _check_densest_path(long_path, out),
        )
    )
    return instances


def _check_nabla(g, r: int, rep) -> Output:
    _expect(rep.r == r, f"report depth {rep.r} != {r}")
    w = rep.lower_witness
    _expect(w is not None and rep.lower is not None, "no lower bound")
    checked = _check_witness(g, w)
    _expect(checked.density == rep.lower, f"witness density {checked.density} != {rep.lower}")
    _expect(w.r <= r, f"witness depth {w.r} > {r}")
    _expect(rep.lower >= Fraction(g.m, g.n), "lower bound below the host's own density")
    checked.record = {"r": r, "lower": _frac(rep.lower), "output": checked.record}
    return checked


def _check_slab(d: int, r: int, out) -> Output:
    host, w = out
    side = 2 * r
    _expect(host.n == side**d, f"host has {host.n} vertices, expected {side ** d}")
    a, b = side ** (d // 2) // 2, side ** (d // 2)
    _expect((w.target.n, w.target.m) == (a + b, a * b), "target is not K_{a,b}")
    _expect(w.r == r, f"witness depth {w.r} != {r}")
    checked = _check_witness(host, w)
    checked.record = {"host": [host.n, host.m], "output": checked.record}
    return checked


def _check_clique(m: int, out) -> Output:
    sub, w = out
    _expect((w.target.n, w.target.m) == (m, m * (m - 1) // 2), "target is not K_m")
    _expect(sub.original_n == m and sub.per_edge == m, "subdivision parameters")
    checked = _check_witness(sub.graph, w)
    checked.record = {"host": [sub.graph.n, sub.graph.m], "output": checked.record}
    return checked


def _check_densest_path(g, out) -> Output:
    vertices, value = out
    # The densest subgraph of a path is the whole path: any proper piece has
    # at most (k-1)/k < (n-1)/n edges per vertex.
    _expect(value == Fraction(g.n - 1, g.n), f"density {value} != {g.n - 1}/{g.n}")
    _expect(set(vertices) == set(range(g.n)), "densest set is not the whole path")
    _expect(Fraction(_edges_within(g, vertices), len(vertices)) == value, "reported density")
    return Output({"size": len(vertices), "density": _frac(value)}, density=value)


# ---------------------------------------------------------------------------
# exact-small
# ---------------------------------------------------------------------------

def _connected(g) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _random_connected(rng: random.Random, n: int):
    """A random connected graph with n vertices and 2n edges.  Fixed sizes
    keep the exhaustive kernels' cost nearly the same for every seed."""
    while True:
        g = sm.random_graph(n, 2 * n, _seed(rng))
        if _connected(g):
            return g


def _exact_small(rng: random.Random, tiny: bool, inputs: dict) -> list[Instance]:
    if tiny:
        n_random, random_range, cliques = 50, (6, 10), range(10, 13)
        tw_ns, hsn_ns, densest_ns, expander_ns = (8, 8), (6, 6, 6), (8, 8), (8,)
    else:
        n_random, random_range, cliques = 2000, (8, 14), range(10, 19)
        tw_ns, hsn_ns, densest_ns, expander_ns = (15, 15, 15), (9,) * 40, (16,) * 4, (18, 18)

    lo, hi = random_range
    randoms = [_random_connected(rng, lo + i % (hi - lo + 1)) for i in range(n_random)]
    cliques_g = {k: sm.complete(k) for k in cliques}
    tw_graphs = [_random_connected(rng, n) for n in tw_ns]
    hsn_graphs = [_random_connected(rng, n) for n in hsn_ns]
    densest_graphs = [_random_connected(rng, n) for n in densest_ns]
    expanders = [sm.random_regular(n, 3, _seed(rng)) for n in expander_ns]
    for i, g in enumerate(randoms):
        inputs[f"random-{i}"] = g
    for groups, prefix in (
        (tw_graphs, "treewidth"),
        (hsn_graphs, "hereditary"),
        (densest_graphs, "densest"),
        (expanders, "expansion"),
    ):
        for i, g in enumerate(groups):
            inputs[f"{prefix}-{i}"] = g

    instances: list[Instance] = []
    for i, g in enumerate(randoms):
        instances.append(
            Instance(
                f"exact-separator/random-{i}-n{g.n}",
                lambda done, g=g: sm.min_balanced_separator_exact(g),
                lambda cert, g=g: _check_certificate(g, cert),
            )
        )
    for k, g in cliques_g.items():
        instances.append(
            Instance(
                f"exact-separator/complete-{k}",
                lambda done, g=g: sm.min_balanced_separator_exact(g),
                lambda cert, g=g: _check_clique_separator(g, cert),
            )
        )
    for i, g in enumerate(tw_graphs):
        instances.append(
            Instance(
                f"treewidth/{i}-n{g.n}",
                lambda done, g=g: sm.treewidth_exact(g),
                lambda res, g=g: _check_treewidth(g, res),
            )
        )
    for i, g in enumerate(hsn_graphs):
        instances.append(
            Instance(
                f"hereditary/{i}-n{g.n}",
                lambda done, g=g: sm.hereditary_separator_number(g),
                lambda value, g=g: _check_hereditary(g, value),
            )
        )
    for i, g in enumerate(densest_graphs):
        instances.append(
            Instance(
                f"densest/{i}-n{g.n}",
                lambda done, g=g: (sm.densest_subgraph_exhaustive(g), sm.densest_subgraph(g)),
                lambda out, g=g: _check_densest(g, out),
            )
        )
    for i, g in enumerate(expanders):
        instances.append(
            Instance(
                f"expansion/{i}-n{g.n}",
                lambda done, g=g: sm.exact_expansion_constant(g),
                lambda value, g=g: _check_expansion(g, value),
            )
        )
    return instances


def _check_clique_separator(g, cert) -> Output:
    checked = _check_certificate(g, cert)
    expected = g.n - 2 * g.n // 3  # K_n needs all but floor(2n/3) vertices removed
    _expect(checked.sep_size == expected, f"K_{g.n} separator {checked.sep_size} != {expected}")
    return checked


def _check_treewidth(g, res) -> Output:
    order = res.elimination_order
    _expect(order is not None and sorted(order) == list(range(g.n)), "order is not a permutation")
    _expect(_elimination_width(g, order) == res.value, "elimination order width != value")
    upper = sm.minfill_upper(g).value
    _expect(res.value <= upper, f"exact treewidth {res.value} > min-fill {upper}")
    _expect(res.value >= _degeneracy(g), "treewidth below degeneracy")
    return Output({"treewidth": res.value, "order": list(order), "minfill": upper})


def _check_hereditary(g, value: int) -> Output:
    own = _brute_min_separator(g)
    _expect(value >= own, f"hereditary number {value} < separator number of G {own}")
    upper = sm.minfill_upper(g).value + 1
    _expect(value <= upper, f"hereditary number {value} > treewidth bound {upper}")
    return Output({"hereditary": value, "own": own})


def _check_densest(g, out) -> Output:
    (ex_set, ex_value), (flow_set, flow_value) = out
    _expect(ex_value == flow_value, f"exhaustive {ex_value} != flow {flow_value}")
    for vertices, value in ((ex_set, ex_value), (flow_set, flow_value)):
        _expect(
            vertices and Fraction(_edges_within(g, vertices), len(vertices)) == value,
            "reported density does not match its vertex set",
        )
    _expect(ex_value >= Fraction(g.m, g.n), "densest below the whole graph")
    return Output(
        {"exhaustive": sorted(ex_set), "flow": sorted(flow_set), "density": _frac(ex_value)},
        density=ex_value,
    )


def _check_expansion(g, value: Fraction) -> Output:
    def ratio(subset: set) -> Fraction:
        boundary = set().union(*(g.neighbors(v) for v in subset)) - subset
        return Fraction(len(boundary), len(subset))

    small = [{v} for v in range(g.n)] + [{u, v} for u, v in g.sorted_edges()]
    best_small = min(ratio(s) for s in small)
    _expect(value <= best_small, f"expansion {value} above a size-1/2 set's ratio {best_small}")
    _expect(value >= 0, "negative expansion")
    return Output({"expansion": _frac(value)})
