import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from sepminor import (
    BudgetExceeded,
    balance_threshold,
    components,
    exact_expansion_constant,
    expansion_upper_estimate,
    hereditary_separator_number,
    is_alpha_expander_exact,
    is_balanced_separator,
    min_balanced_separator_exact,
    prs_separator_or_minor,
    separator_heuristic,
)
from sepminor.formats import certificate_to_json, dumps_canonical, witness_to_json
from sepminor.generators import (
    complete,
    cycle,
    king_grid,
    path,
    planar_grid,
    random_graph,
    random_regular,
    star,
    subdivide_eps,
)
from sepminor.separators import _shrink_separator


def brute_min_separator(g):
    threshold = balance_threshold(g.n)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if components(g, combo).largest() <= threshold:
                return k
    raise AssertionError


def test_balanced_examples():
    assert is_balanced_separator(path(5), {2})
    assert not is_balanced_separator(complete(6), {0})
    assert not is_balanced_separator(cycle(6), {0})
    assert is_balanced_separator(cycle(6), {0, 3})


def test_exact_path5():
    cert = min_balanced_separator_exact(path(5))
    assert cert.size == 1 and cert.revalidate(path(5))


def test_exact_k6():
    assert min_balanced_separator_exact(complete(6)).size == 2


def test_exact_c6():
    assert min_balanced_separator_exact(cycle(6)).size == 2


def test_exact_clique_law():
    for n in range(3, 13):
        assert min_balanced_separator_exact(complete(n)).size == -(-n // 3)


def test_exact_budget_enforced():
    with pytest.raises(BudgetExceeded):
        min_balanced_separator_exact(path(30))


def test_exact_matches_brute_force_random():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        assert min_balanced_separator_exact(g).size == brute_min_separator(g)


def test_heuristic_path100():
    assert separator_heuristic(path(100)).size == 1


def test_heuristic_k9():
    assert separator_heuristic(complete(9)).size == 3
    assert separator_heuristic(complete(9), "recursive-bisection").size == 3


def test_heuristic_grid10_middleish():
    cert = separator_heuristic(planar_grid(10))
    assert cert.size <= 10 and cert.revalidate(planar_grid(10))


def test_heuristic_never_beats_exact():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.getrandbits(32))
        exact = min_balanced_separator_exact(g).size
        for strategy in ("bfs-layer", "recursive-bisection"):
            cert = separator_heuristic(g, strategy)
            assert cert.revalidate(g)
            assert cert.size >= exact


def test_heuristic_vs_exact_grid4():
    exact = min_balanced_separator_exact(planar_grid(4)).size
    assert separator_heuristic(planar_grid(4)).size >= exact


def test_expander_k4():
    assert is_alpha_expander_exact(complete(4), Fraction(1)).is_expander


def test_expander_p8_violator():
    res = is_alpha_expander_exact(path(8), Fraction(1, 2))
    assert not res.is_expander
    assert res.violating == frozenset({0, 1, 2})
    # returned set really violates
    nbr = {3}
    assert len(nbr) * 2 < 1 * len(res.violating)


def test_expander_c6_third():
    assert is_alpha_expander_exact(cycle(6), Fraction(1, 3)).is_expander


def test_expansion_estimate_path_prefix():
    est = expansion_upper_estimate(path(40), samples=50, seed=3)
    assert est <= Fraction(1, 10)


def test_expansion_estimate_clique_at_least_one():
    assert expansion_upper_estimate(complete(8), samples=30, seed=1) >= 1


def test_expansion_estimate_bounds_exact():
    g = random_regular(20, 3, seed=17)
    exact = exact_expansion_constant(g, budget=20)
    est = expansion_upper_estimate(g, samples=120, seed=9)
    assert est >= exact


def test_expansion_estimate_deterministic():
    g = random_regular(16, 3, seed=4)
    assert expansion_upper_estimate(g, 50, 7) == expansion_upper_estimate(g, 50, 7)


def test_star_exact_is_one():
    assert min_balanced_separator_exact(star(12)).size == 1


def shrink_oracle(g, separator):
    """The shrink pass as one full decomposition per separator vertex."""
    threshold = balance_threshold(g.n)
    for v in sorted(separator):
        trial = separator - {v}
        if components(g, trial).largest() <= threshold:
            separator = trial
    return separator


def test_shrink_matches_per_vertex_oracle_random():
    rng = random.Random(33)
    kinds = {True: 0, False: 0}
    shrunk = 0
    for _ in range(300):
        n = rng.randint(1, 60)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        g = random_graph(n, m, rng.getrandbits(32))
        separator = {v for v in range(n) if rng.random() < rng.choice((0.02, 0.1, 0.3))}
        if rng.random() < 0.5:
            # grow to a balanced separator by adding vertices in random order
            order = list(range(n))
            rng.shuffle(order)
            for v in order:
                if is_balanced_separator(g, separator):
                    break
                separator.add(v)
        kinds[is_balanced_separator(g, separator)] += 1
        result = _shrink_separator(g, set(separator))
        assert result == shrink_oracle(g, set(separator))
        shrunk += result != separator
    assert kinds[True] > 50 and kinds[False] > 50 and shrunk > 50


def _digest(data):
    return hashlib.sha256(dumps_canonical(data).encode()).hexdigest()


# sha256 of the canonical JSON of each output, recorded from the per-vertex
# and full re-decomposition loops that the incremental ones replaced.
HEURISTIC_DIGESTS = {
    ("planar_grid(20)", "bfs-layer"): "93313af60d66675d178d1c5bf3bcc098a8781ce0605218c5a4c3bd003fa5a316",
    ("planar_grid(20)", "recursive-bisection"): "cb374fb811d0292c1043c64bbe43198dce6b6e067d2d0c54946acdfabb657d35",
    ("subdivided_cubic", "bfs-layer"): "11d279f3f13cdffb07e4298902acbb17edfa2adb303f6fadb17efe0dfa431b29",
    ("subdivided_cubic", "recursive-bisection"): "0a1af06847667e7a1993b7dbc5255be789511fea4aad30c3480871eef3a5dba7",
    ("king_grid(8,2)", "bfs-layer"): "45d6c8bc27835415534ff8db36e4d97c5eac5cd7305fd9ea97071f3e93ec5a3a",
    ("king_grid(8,2)", "recursive-bisection"): "5be6a7e3e5fa2baf8f35b49559a1285d7b9366bfffb6c4d258db554fe316b987",
}
PRS_DIGESTS = {
    ("path(200)", 3, 3): ("separator", "dae8cc3f3c912cc74f0cfa0101b531599ab7e59e5bd64816a1942eafc3f4ef78"),
    ("planar_grid(20)", 3, 4): ("separator", "a525b852a13c5e9b7215ee9f3e0fd11b4b98d01daaee69947b5f82d7396e64aa"),
    ("planar_grid(20)", 2, 3): ("minor", "2404ac2899e3da0b2766128e7bb7b4fc0a0aeb6d76a98eecfcb042c7c1d4f777"),
}
CORPUS = {
    "planar_grid(20)": lambda: planar_grid(20),
    "subdivided_cubic": lambda: subdivide_eps(random_regular(20, 3, 3), Fraction(1, 2)).graph,
    "king_grid(8,2)": lambda: king_grid(8, 2),
    "path(200)": lambda: path(200),
}


@pytest.mark.parametrize("name,strategy", sorted(HEURISTIC_DIGESTS))
def test_heuristic_certificate_digests_fixed_corpus(name, strategy):
    cert = separator_heuristic(CORPUS[name](), strategy)
    assert _digest(certificate_to_json(cert)) == HEURISTIC_DIGESTS[(name, strategy)]


@pytest.mark.parametrize("name,l,h", sorted(PRS_DIGESTS))
def test_prs_output_digests_fixed_corpus(name, l, h):
    out = prs_separator_or_minor(CORPUS[name](), l, h)
    data = (
        certificate_to_json(out.certificate)
        if out.branch == "separator"
        else witness_to_json(out.witness)
    )
    assert (out.branch, _digest(data)) == PRS_DIGESTS[(name, l, h)]


def test_exact_separator_and_hereditary_digests_fixed_corpus():
    # recorded from the two searches before they shared _min_separator
    certs = [
        certificate_to_json(min_balanced_separator_exact(random_graph(n, 2 * n, 100 + n)))
        for n in range(8, 15)
    ]
    assert _digest(certs) == "516fc32f1f63dbef0ff2f4ffe5c58676140f55a788fe58dd4d55767ed66a79ae"
    assert [hereditary_separator_number(random_graph(9, 18, s)) for s in (1, 2, 3)] == [3, 2, 3]
