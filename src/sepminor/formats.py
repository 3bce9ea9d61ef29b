"""JSON and CSV wire formats for certificates, witnesses, and sweep records.

Witness JSON schema:
  {r, target: {n, edges}, branch_sets: {tv: [ids]}, centers: {tv: id},
   cross_edges: {"u-v": [hu, hv]}}

Sweep CSV columns:
  family,params,n_or_r,kind,method,value_num,value_den,seed,ms,direction,error
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any

from .graph import Graph, build_graph
from .minors import MinorWitness
from .separators import SeparatorCertificate

CSV_COLUMNS = (
    "family",
    "params",
    "n_or_r",
    "kind",
    "method",
    "value_num",
    "value_den",
    "seed",
    "ms",
    "direction",
    "error",
)


def witness_to_json(w: MinorWitness) -> dict[str, Any]:
    return {
        "r": w.r,
        "target": {"n": w.target.n, "edges": [list(e) for e in w.target.sorted_edges()]},
        "branch_sets": {str(tv): sorted(w.branch_sets[tv]) for tv in sorted(w.branch_sets)},
        "centers": {str(tv): w.centers[tv] for tv in sorted(w.centers)},
        "cross_edges": {
            f"{u}-{v}": list(w.cross_edges[(u, v)]) for u, v in sorted(w.cross_edges)
        },
    }


def witness_from_json(data: dict[str, Any]) -> MinorWitness:
    target = build_graph(data["target"]["n"], [tuple(e) for e in data["target"]["edges"]])
    cross = {}
    for key, pair in data["cross_edges"].items():
        u, v = key.split("-")
        cross[(int(u), int(v))] = (pair[0], pair[1])
    return MinorWitness(
        r=data["r"],
        target=target,
        branch_sets={int(tv): frozenset(ids) for tv, ids in data["branch_sets"].items()},
        centers={int(tv): vid for tv, vid in data["centers"].items()},
        cross_edges=cross,
    )


def certificate_to_json(cert: SeparatorCertificate, bound_checked: bool = True) -> dict[str, Any]:
    return {
        "separator": sorted(cert.separator),
        "n": cert.n,
        "largest_component": cert.largest_component,
        "bound_checked": bound_checked,
    }


def dumps_canonical(data: Any) -> str:
    """Stable JSON text: sorted keys, no whitespace surprises."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        if rec.value is None:
            num, den = "", ""
        else:
            num, den = rec.value.numerator, rec.value.denominator
        writer.writerow(
            [
                rec.family.kind,
                rec.family.params_string(),
                rec.n_or_r,
                rec.kind,
                rec.method,
                num,
                den,
                rec.seed,
                f"{rec.ms:.3f}",
                rec.direction,
                rec.error or "",
            ]
        )
    return buf.getvalue()


def records_to_json(records) -> list[dict[str, Any]]:
    out = []
    for rec in records:
        out.append(
            {
                "family": rec.family.kind,
                "params": rec.family.params_string(),
                "n_or_r": rec.n_or_r,
                "kind": rec.kind,
                "method": rec.method,
                "value_num": None if rec.value is None else rec.value.numerator,
                "value_den": None if rec.value is None else rec.value.denominator,
                "seed": rec.seed,
                "ms": rec.ms,
                "direction": rec.direction,
                "error": rec.error,
            }
        )
    return out


def parse_records_csv(text: str) -> list[tuple[int, Fraction, str]]:
    """Minimal reader for fitting: (n_or_r, value, direction) triples,
    skipping error rows.  A CSV without a direction column is rejected, so a
    fit is never labelled with a guessed direction."""
    reader = csv.DictReader(io.StringIO(text))
    if "direction" not in (reader.fieldnames or ()):
        raise ValueError("records CSV has no direction column")
    out = []
    for row in reader:
        if not row.get("value_num"):
            continue
        value = Fraction(int(row["value_num"]), int(row["value_den"]))
        out.append((int(row["n_or_r"]), value, row["direction"]))
    return out
