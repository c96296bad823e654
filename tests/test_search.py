import pytest

from posetsat.families import SetFamily
from posetsat.posets import make_diamond
from posetsat.search import classify_minimum, q3_probe, sat_star_exact

import oracles

PATTERNS = oracles.all_pattern_classes(4)
D = make_diamond()

# Layer census of the exact Q3 search at n = 4 (sizes 0..10):
# (families, extensions_tested, free_extensions, saturated_found).
Q3_CENSUS = [
    (1, 16, 16, 0),
    (5, 43, 43, 0),
    (17, 87, 87, 0),
    (52, 189, 189, 0),
    (136, 365, 365, 0),
    (284, 568, 568, 0),
    (477, 742, 742, 0),
    (655, 819, 809, 0),
    (720, 725, 690, 0),
    (618, 510, 442, 0),
    (402, 292, 207, 2),
]


def family_of(n, doc):
    return SetFamily.of(n, doc["sets"])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pi", range(len(PATTERNS)))
def test_search_matches_brute_force(n, pi):
    p = PATTERNS[pi]
    value, hits = oracles.sat_star_brute(n, p)
    for symmetry in (True, False):
        manifest = sat_star_exact(n, p, symmetry=symmetry)
        assert manifest.result["status"] == "exact"
        assert manifest.result["value"] == value
        assert family_of(n, manifest.result["witness"]) in hits
    tagged, manifest = classify_minimum(n, p)
    assert manifest.result["value"] == value
    reps = [fam for fam, _ in tagged]
    # one representative per relabeling orbit of the minimum families
    for fam in hits:
        assert sum(oracles.orbit_equal_brute(fam, rep) for rep in reps) == 1
    assert all(rep in hits for rep in reps)


@pytest.mark.parametrize("n, value", [(3, 4), (4, 5), (5, 6)])
def test_diamond_values(n, value):
    manifest = sat_star_exact(n, D)
    assert manifest.result["status"] == "exact" and manifest.result["value"] == value == n + 1


@pytest.mark.parametrize("n", [3, 4])
def test_symmetry_reduction_keeps_the_diamond_value(n):
    with_sym = sat_star_exact(n, D).result
    without = sat_star_exact(n, D, symmetry=False).result
    assert without["value"] == with_sym["value"]
    assert without["witness_count"] >= with_sym["witness_count"]


def test_q3_probe_census():
    report = q3_probe(4)
    assert report["verdict"] == "SATURATED" and report["size"] == 10
    opt = report["optimality"]
    assert opt["sat_star"] == 10 and opt["construction_optimal"] is True
    layers = opt["manifest"]["layers"]
    assert [layer["size"] for layer in layers] == list(range(11))
    keys = ("families", "extensions_tested", "free_extensions", "saturated_found")
    got = [tuple(layer[key] for key in keys) for layer in layers]
    assert got == Q3_CENSUS
    assert opt["manifest"]["result"]["witness_count"] == 2
