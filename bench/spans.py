"""Span tracer that the benchmark binds over sepminor's public functions.

Nothing inside the package is instrumented.  `Tracer.bind` replaces a
function at every `sepminor` module attribute that refers to it, so calls
from one layer into another go through the wrapper too; `Tracer.bind_init`
wraps a class constructor.  Each wrapped call records one span: name, start,
end, parent span, the benchmark instance that caused it, and optional
counters.  Spans stay in memory; `layer_metrics` folds them into the
per-layer metrics and `dump` writes them out.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Optional

# Span tuple fields.
NAME, START, END, PARENT, REQUEST, EXTRA = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []  # None while a span is open
        self.active = False
        self.request: Optional[str] = None
        self.unbound: list[str] = []
        self._stack: list[int] = []

    def _call(self, name: str, fn: Callable, args, kwargs, extra: Optional[Callable]):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request, None)
        if extra is not None:
            self.spans[index] = (name, start, end, parent, self.request, extra(args, result))
        return result

    def bind(self, name: str, module: str, attr: str, extra: Optional[Callable] = None) -> None:
        """Wrap `module.attr` wherever a loaded sepminor module holds it.

        `extra(args, result)` returns a tuple of counters kept with the span.
        A target that no longer exists is listed in `unbound` instead of
        raising, so the traced run survives refactors of the package.
        """
        target = getattr(sys.modules.get(module), attr, None)
        if target is None:
            self.unbound.append(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, target, args, kwargs, extra)

        wrapper.__wrapped__ = target
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sepminor" or mod_name.startswith("sepminor.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapper)

    def bind_init(self, name: str, cls: type, extra: Callable) -> None:
        """Wrap `cls.__init__`; `extra(obj)` returns the span's counters."""
        original = cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            return tracer._call(name, original, (obj,) + args, kwargs, lambda a, r: extra(a[0]))

        cls.__init__ = init

    def _has_ancestor(self, span: tuple, names: set[str]) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            above = self.spans[parent]
            if above[NAME] in names:
                return True
            parent = above[PARENT]
        return False

    def fold(self) -> dict[str, dict]:
        """Per span name, once every span has ended: calls, s (time outside
        other spans of the same name, so nested calls count once), self_s
        (time not covered by child spans) and extra (element-wise sum of the
        counters)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = {}
        for index, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": ()})
            duration = s[END] - s[START]
            row["calls"] += 1
            row["self_s"] += duration - child_time[index]
            if not self._has_ancestor(s, {s[NAME]}):
                row["s"] += duration
            if s[EXTRA] is not None:
                old = row["extra"] or (0,) * len(s[EXTRA])
                row["extra"] = tuple(a + b for a, b in zip(old, s[EXTRA]))
        return out

    def count_nested(self, name: str, ancestor: str) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        return sum(1 for s in self.spans if s[NAME] == name and self._has_ancestor(s, {ancestor}))

    def covered_time(self, names: set[str]) -> float:
        """Time inside spans named in `names`, counting nested ones once."""
        return sum(
            s[END] - s[START]
            for s in self.spans
            if s[NAME] in names and not self._has_ancestor(s, names)
        )

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\textra\n")
            for index, s in enumerate(self.spans):
                extra = "" if s[EXTRA] is None else ",".join(str(x) for x in s[EXTRA])
                fh.write(
                    f"{index}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[REQUEST]}\t{extra}\n"
                )


# ---------------------------------------------------------------------------
# What the benchmark traces in sepminor, and the per-layer metrics.
# ---------------------------------------------------------------------------

GENERATORS = (
    "king_grid",
    "subdivide_uniform",
    "subdivide_eps",
    "subdivide_eps_sqrt",
    "planar_grid",
    "complete",
    "path",
    "cycle",
    "star",
    "random_regular",
    "random_tree",
    "random_graph",
)

# (span name, defining module, attribute)
PUBLIC_FUNCTIONS = [
    ("graph.components", "sepminor.graph", "components"),
    ("graph.bfs_layers", "sepminor.graph", "bfs_layers"),
    ("graph.bfs_radius", "sepminor.graph", "bfs_radius"),
    ("separators.separator_heuristic", "sepminor.separators", "separator_heuristic"),
    ("separators.prs_separator_or_minor", "sepminor.separators", "prs_separator_or_minor"),
    ("separators.min_balanced_separator_exact", "sepminor.separators", "min_balanced_separator_exact"),
    ("separators.exact_expansion_constant", "sepminor.separators", "exact_expansion_constant"),
    ("minors.nabla_lower_greedy", "sepminor.minors", "nabla_lower_greedy"),
    ("minors.densest_subgraph", "sepminor.minors", "densest_subgraph"),
    ("minors.densest_subgraph_exhaustive", "sepminor.minors", "densest_subgraph_exhaustive"),
    ("minors.verify_minor_witness", "sepminor.minors", "verify_minor_witness"),
    ("minors.slab_bipartite_witness", "sepminor.minors", "slab_bipartite_witness"),
    ("minors.maximum_flow", "sepminor.minors", "maximum_flow"),
    ("treewidth.treewidth_exact", "sepminor.treewidth", "treewidth_exact"),
    ("treewidth.hereditary_separator_number", "sepminor.treewidth", "hereditary_separator_number"),
    ("harness.fit_exponent", "sepminor.harness", "fit_exponent"),
] + [(f"generators.{fn}", "sepminor.generators", fn) for fn in GENERATORS]


def _components_extra(args, result):
    return (sum(result.sizes),)  # vertices the decomposition covered


def _prs_extra(args, result):
    return (1 if result.branch == "minor" else 0,)


def _flow_extra(args, result):
    # The densest-subgraph network improves the density guess exactly when
    # the max flow stays below the source's total out-capacity.
    network, source = args[0], args[1]
    return (network.nnz, 1 if result.flow_value < network[source].sum() else 0)


EXTRAS = {
    "graph.components": _components_extra,
    "separators.prs_separator_or_minor": _prs_extra,
    "minors.maximum_flow": _flow_extra,
}


def bind_sepminor(tracer: Tracer) -> None:
    """Bind the tracer over every traced layer function and Graph builds."""
    import sepminor.graph

    tracer.bind_init("graph.build", sepminor.graph.Graph, lambda g: (g.m,))
    for name, module, attr in PUBLIC_FUNCTIONS:
        tracer.bind(name, module, attr, EXTRAS.get(name))


# (metric, unit).  Units other than "s" mark counts that repeat exactly.
PER_LAYER = [
    ("graph.build.calls", "count"),
    ("graph.build.s", "s"),
    ("graph.build.edges", "edges"),
    ("graph.components.calls", "count"),
    ("graph.components.s", "s"),
    ("graph.components.vertices", "vertices"),
    ("graph.bfs_layers.calls", "count"),
    ("graph.bfs_layers.s", "s"),
    ("graph.bfs_radius.calls", "count"),
    ("graph.bfs_radius.s", "s"),
    ("generators.calls", "count"),
    ("generators.s", "s"),
    ("generators.king_grid.s", "s"),
    ("separators.separator_heuristic.calls", "count"),
    ("separators.separator_heuristic.s", "s"),
    ("separators.separator_heuristic.self_s", "s"),
    ("separators.prs_separator_or_minor.calls", "count"),
    ("separators.prs_separator_or_minor.s", "s"),
    ("separators.prs_separator_or_minor.self_s", "s"),
    ("separators.prs.components_per_call", "calls/call"),
    ("separators.prs.minor_share", "ratio"),
    ("separators.min_balanced_separator_exact.calls", "count"),
    ("separators.min_balanced_separator_exact.s", "s"),
    ("separators.exact_expansion_constant.calls", "count"),
    ("separators.exact_expansion_constant.s", "s"),
    ("minors.nabla_lower_greedy.calls", "count"),
    ("minors.nabla_lower_greedy.s", "s"),
    ("minors.nabla_lower_greedy.self_s", "s"),
    ("minors.densest_subgraph.calls", "count"),
    ("minors.densest_subgraph.s", "s"),
    ("minors.densest_subgraph.self_s", "s"),
    ("minors.maximum_flow.calls", "count"),
    ("minors.maximum_flow.s", "s"),
    ("minors.maximum_flow.arcs", "arcs"),
    ("minors.flow.useful_share", "ratio"),
    ("minors.verify_minor_witness.calls", "count"),
    ("minors.verify_minor_witness.s", "s"),
    ("minors.slab_bipartite_witness.s", "s"),
    ("minors.densest_subgraph_exhaustive.calls", "count"),
    ("minors.densest_subgraph_exhaustive.s", "s"),
    ("treewidth.treewidth_exact.calls", "count"),
    ("treewidth.treewidth_exact.s", "s"),
    ("treewidth.hereditary_separator_number.calls", "count"),
    ("treewidth.hereditary_separator_number.s", "s"),
    ("harness.fit_exponent.s", "s"),
    ("trace.overhead_s", "s"),
]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, which needs an
    untraced pass and is filled in by the caller."""
    rows = tracer.fold()

    def row(name: str) -> dict:
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": ()})

    def extra(name: str, i: int) -> float:
        values = row(name)["extra"]
        return values[i] if len(values) > i else 0

    traced = {name for name, _, _ in PUBLIC_FUNCTIONS} | {"graph.build"}
    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if base in traced and field in ("calls", "s", "self_s"):
            out[metric] = row(base)[field]
    generator_names = {f"generators.{fn}" for fn in GENERATORS}
    prs = "separators.prs_separator_or_minor"
    flow = "minors.maximum_flow"
    out.update(
        {
            "graph.build.edges": extra("graph.build", 0),
            "graph.components.vertices": extra("graph.components", 0),
            "generators.calls": sum(row(n)["calls"] for n in generator_names),
            "generators.s": tracer.covered_time(generator_names),
            "generators.king_grid.s": row("generators.king_grid")["s"],
            "separators.prs.components_per_call": _share(
                tracer.count_nested("graph.components", prs), row(prs)["calls"]
            ),
            "separators.prs.minor_share": _share(extra(prs, 0), row(prs)["calls"]),
            "minors.maximum_flow.arcs": extra(flow, 0),
            "minors.flow.useful_share": _share(extra(flow, 1), row(flow)["calls"]),
        }
    )
    return out
