"""Command-line front end.

Subcommands: gen, sep, prs, expand, nabla, verify-witness, tw, bounds, sweep,
fit, verify.  Exit codes: 0 ok, 1 usage error, 2 check failure.

``nabla`` reports its density as ``density_num``/``density_den``, the
witness target's unreduced edge and vertex counts m and n, so the pair can
be read off the witness in the same JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance, formats, harness
from .errors import InfeasibleConstruction
from .generators import FamilySpec, king_grid, subdivide_eps, subdivide_eps_sqrt
from .generators import complete, cycle, path, planar_grid, random_regular
from .graph import parse_edge_list, read_edge_list, serialize_edge_list
from .minors import (
    clique_witness_in_subdivided_clique,
    nabla_lower_greedy,
    slab_bipartite_witness,
    verify_minor_witness,
)
from .separators import (
    expansion_upper_estimate,
    is_alpha_expander_exact,
    min_balanced_separator_exact,
    prs_parameters,
    prs_separator_or_minor,
    separator_heuristic,
)
from .treewidth import minfill_upper, treewidth_exact

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _read_graph(spec: str):
    if spec == "-":
        return parse_edge_list(sys.stdin.read())
    return read_edge_list(spec)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out: str | None) -> None:
    _emit(formats.dumps_canonical(data), out)


GEN_FAMILIES = (
    "king-grid",
    "planar-grid",
    "complete",
    "path",
    "cycle",
    "random-regular",
    "subdivided-clique",
    "subdivided-cubic",
    "subdivided-planar-grid",
)
# Flags a family cannot be built without; argparse leaves them None when absent.
GEN_REQUIRED = {
    "random-regular": ("seed",),
    "subdivided-clique": ("eps",),
    "subdivided-cubic": ("seed", "eps"),
    "subdivided-planar-grid": ("eps",),
}


def _cmd_gen(args) -> int:
    for flag in GEN_REQUIRED.get(args.family, ()):
        if getattr(args, flag) is None:
            sys.stderr.write(f"error: --family {args.family} needs --{flag}\n")
            return EXIT_USAGE
    seed = args.seed if args.seed is not None else 0
    meta = {"family": args.family, "seed": seed}
    if args.family == "king-grid":
        g = king_grid(args.size, args.d, budget=args.budget)
        meta.update(d=args.d, side=args.size, coordinates="row-major, last coordinate fastest")
    elif args.family == "planar-grid":
        g = planar_grid(args.size)
        meta.update(side=args.size)
    elif args.family == "complete":
        g = complete(args.size)
    elif args.family == "path":
        g = path(args.size)
    elif args.family == "cycle":
        g = cycle(args.size)
    elif args.family == "random-regular":
        g = random_regular(args.size, args.degree, seed)
        meta.update(degree=args.degree)
    elif args.family == "subdivided-clique":
        sub = subdivide_eps(complete(args.size), args.eps)
        g = sub.graph
        meta.update(eps=str(args.eps), per_edge=sub.per_edge, base="complete")
    elif args.family == "subdivided-cubic":
        sub = subdivide_eps(random_regular(args.size, 3, seed), args.eps)
        g = sub.graph
        meta.update(eps=str(args.eps), per_edge=sub.per_edge, base="random-3-regular")
    else:  # subdivided-planar-grid; argparse rejects any other family
        sub = subdivide_eps_sqrt(planar_grid(args.size), args.eps)
        g = sub.graph
        meta.update(eps=str(args.eps), per_edge=sub.per_edge, base="planar-grid")
    meta.update(n=g.n, m=g.m)
    text = serialize_edge_list(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(formats.dumps_canonical(meta))
    else:
        sys.stdout.write(text)
        sys.stdout.write("# meta " + json.dumps(meta, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_sep(args) -> int:
    g = _read_graph(args.graph)
    if args.exact:
        cert = min_balanced_separator_exact(g, budget=args.budget)
    else:
        cert = separator_heuristic(g, strategy=args.strategy)
    _emit_json(formats.certificate_to_json(cert, bound_checked=cert.revalidate(g)), args.out)
    return EXIT_OK


def _cmd_prs(args) -> int:
    if args.l is not None and args.h is not None:
        l, h = args.l, args.h
    elif args.r is not None and args.eps is not None:
        params = prs_parameters(args.r, args.eps)
        l, h = params.l, params.h
        if h < 1:
            sys.stderr.write(
                f"error: infeasible schedule for r={args.r}, eps={args.eps}: "
                f"n={params.n}, l={l}, h={h} (need h >= 1)\n"
            )
            return EXIT_USAGE
    else:
        sys.stderr.write("error: need --l and --h, or --r and --eps\n")
        return EXIT_USAGE
    g = _read_graph(args.graph)
    out = prs_separator_or_minor(g, l, h)
    payload = {
        "branch": out.branch,
        "l": out.l,
        "h": out.h,
        "n": out.n,
        "depth_cap": out.depth_cap,
        "separator_bound": out.separator_bound,
    }
    if out.branch == "separator":
        payload["certificate"] = formats.certificate_to_json(out.certificate)
    else:
        payload["witness"] = formats.witness_to_json(out.witness)
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_expand(args) -> int:
    g = _read_graph(args.graph)
    if args.exact:
        result = is_alpha_expander_exact(g, args.alpha, budget=args.budget)
        payload = {
            "alpha": str(args.alpha),
            "is_expander": result.is_expander,
            "violating": sorted(result.violating) if result.violating else None,
            "method": "exact",
        }
        _emit_json(payload, args.out)
        return EXIT_OK if result.is_expander else EXIT_CHECK_FAILURE
    ratio = expansion_upper_estimate(g, args.samples, args.seed or 0)
    payload = {
        "alpha": str(args.alpha),
        "sampled_min_ratio": str(ratio),
        "certifies_expansion": False,
        "below_alpha": ratio < args.alpha,
        "method": "sampled",
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_nabla(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.construction == "slab":
        host, witness = slab_bipartite_witness(args.d, args.r, budget=args.budget)
    elif args.construction == "clique":
        try:
            sub, witness = clique_witness_in_subdivided_clique(args.size, args.eps, args.r)
        except InfeasibleConstruction as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_CHECK_FAILURE
        host = sub.graph
    else:
        host = _read_graph(args.graph)
        report = nabla_lower_greedy(host, args.r, seed)
        witness = report.lower_witness
    payload = {
        "r": args.r,
        "construction": args.construction,
        "density_num": witness.target.m,
        "density_den": witness.target.n,
        "witness": formats.witness_to_json(witness),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_verify_witness(args) -> int:
    g = _read_graph(args.graph)
    with open(args.witness, "r", encoding="utf-8") as fh:
        witness = formats.witness_from_json(json.load(fh))
    ok, reason = verify_minor_witness(g, witness)
    _emit_json({"ok": ok, "violation": reason}, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def _cmd_tw(args) -> int:
    g = _read_graph(args.graph)
    if args.upper:
        result = minfill_upper(g)
    else:
        result = treewidth_exact(g, budget=args.budget)
    _emit_json({"value": result.value, "method": result.method}, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    table = harness.bounds_table(args.eps)
    payload = {
        "eps": str(table.eps),
        "b_lower": str(table.b_lower),
        "b_upper": str(table.b_upper),
        "B": str(table.B),
        "notes": table.notes,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    family = FamilySpec(
        kind=args.family,
        d=args.d,
        eps=args.eps,
        degree=args.degree,
        size=args.size,
        seed=args.seed,
    )
    sizes = [int(x) for x in args.sizes.split(",")]
    records = harness.run_family(family, sizes, args.quantity, args.method, args.seed or 0)
    if args.format == "csv":
        _emit(formats.records_to_csv(records), args.out)
    else:
        _emit_json(formats.records_to_json(records), args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    with open(args.records, "r", encoding="utf-8") as fh:
        points = formats.parse_records_csv(fh.read())
    # Rebuild minimal records for the fitter; only n_or_r, value and
    # direction reach the fit and its label.
    fam = FamilySpec(kind="path")
    records = [
        harness.ExperimentRecord(
            family=fam, n_or_r=n, kind="separator-size", method="bfs-layer",
            value=v, direction=direction, seed=0,
        )
        for n, v, direction in points
    ]
    fit = harness.fit_exponent(records)
    payload = {
        "exponent": fit.exponent,
        "coefficient": fit.coefficient,
        "r_squared": fit.r_squared,
        "range": list(fit.sample_range),
        "points": fit.points,
        "label": fit.label,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    level = "full" if args.full else "quick"
    report = acceptance.verify_suite(level=level, seed=args.seed if args.seed is not None else 42)
    _emit(report.to_text(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def build_parser() -> _Parser:
    parser = _Parser(prog="sepminor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--budget", type=int, default=24)

    p = sub.add_parser("gen", help="generate a family member as an edge list")
    common(p)
    p.add_argument("--family", required=True, choices=GEN_FAMILIES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=_cmd_gen)
    # gen's budget is a vertex budget, not a subset budget
    p.set_defaults(budget=200_000)

    p = sub.add_parser("sep", help="balanced separator certificate")
    common(p)
    p.add_argument("graph")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--strategy", choices=("bfs-layer", "recursive-bisection"), default="bfs-layer")
    p.set_defaults(func=_cmd_sep)

    p = sub.add_parser("prs", help="separator-or-clique-minor dichotomy")
    common(p)
    p.add_argument("graph")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.set_defaults(func=_cmd_prs)

    p = sub.add_parser("expand", help="vertex expansion check")
    common(p)
    p.add_argument("graph")
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("nabla", help="depth-r minor density lower bound with witness")
    common(p)
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--construction", choices=("slab", "clique", "greedy"), default="greedy")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.set_defaults(func=_cmd_nabla)
    p.set_defaults(budget=200_000)

    p = sub.add_parser("verify-witness", help="check a witness JSON against a host graph")
    common(p)
    p.add_argument("graph")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify_witness)

    p = sub.add_parser("tw", help="treewidth, exact or labeled upper bound")
    common(p)
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--upper", action="store_true")
    p.set_defaults(func=_cmd_tw, budget=18)

    p = sub.add_parser("bounds", help="exponent window for a separator profile")
    common(p)
    p.add_argument("--eps", type=_fraction, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="measure a quantity across a family")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated ascending list")
    p.add_argument("--quantity", required=True, choices=sorted(harness.QUANTITY_METHODS))
    p.add_argument("--method", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="log-log exponent fit over sweep records")
    common(p)
    p.add_argument("records", help="CSV produced by sweep")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run the named verification checks")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true", default=True)
    group.add_argument("--full", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
