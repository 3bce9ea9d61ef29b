from fractions import Fraction

import pytest

from sepminor import slab_bipartite_witness, verify_minor_witness
from sepminor.formats import (
    certificate_to_json,
    dumps_canonical,
    parse_records_csv,
    records_to_csv,
    witness_from_json,
    witness_to_json,
)
from sepminor.generators import FamilySpec
from sepminor.harness import ExperimentRecord
from sepminor.separators import min_balanced_separator_exact
from sepminor.generators import path


def test_witness_json_round_trip():
    host, w = slab_bipartite_witness(2, 2)
    back = witness_from_json(witness_to_json(w))
    assert back.r == w.r
    assert back.target == w.target
    assert back.branch_sets == w.branch_sets
    assert back.centers == w.centers
    assert back.cross_edges == w.cross_edges
    ok, _ = verify_minor_witness(host, back)
    assert ok


def test_witness_json_schema_keys():
    _, w = slab_bipartite_witness(2, 1)
    data = witness_to_json(w)
    assert set(data) == {"r", "target", "branch_sets", "centers", "cross_edges"}
    assert set(data["target"]) == {"n", "edges"}
    assert all("-" in key for key in data["cross_edges"])


def test_certificate_json_fields():
    cert = min_balanced_separator_exact(path(9))
    data = certificate_to_json(cert, bound_checked=True)
    assert set(data) == {"separator", "n", "largest_component", "bound_checked"}
    assert data["n"] == 9 and data["bound_checked"] is True


def test_records_csv_round_trip():
    fam = FamilySpec(kind="planar-grid")
    recs = [
        ExperimentRecord(fam, 16, "separator-size", "bfs-layer", Fraction(4), "upper", 7, 1.25),
        ExperimentRecord(fam, 25, "separator-size", "bfs-layer", Fraction(10, 2), "upper", 8, 0.5),
        ExperimentRecord(fam, 36, "separator-size", "bfs-layer", None, "error", 9, 0.1, "boom"),
    ]
    text = records_to_csv(recs)
    header = text.splitlines()[0]
    assert header == "family,params,n_or_r,kind,method,value_num,value_den,seed,ms,direction,error"
    assert text.splitlines()[3].endswith(",error,boom")
    points = parse_records_csv(text)
    assert points == [(16, Fraction(4), "upper"), (25, Fraction(5), "upper")]


def test_records_csv_without_direction_rejected():
    text = "family,params,n_or_r,kind,method,value_num,value_den,seed,ms\npath,,10,k,m,1,1,0,0.1\n"
    with pytest.raises(ValueError, match="direction"):
        parse_records_csv(text)


def test_dumps_canonical_sorted_and_stable():
    a = dumps_canonical({"b": 1, "a": [3, 2]})
    b = dumps_canonical({"a": [3, 2], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
