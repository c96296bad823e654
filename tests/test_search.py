import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsat import detect, search
from posetsat.detect import copy_blocked, diamond_blocked
from posetsat.families import SetFamily, canonical_order, family_words, full_word, word_bits
from posetsat.posets import make_diamond, pattern_from_spec
from posetsat.saturate import Q3, InternalCheckError, Verdict, chain_family, greedy_saturate
from posetsat.search import classify_minimum, q3_probe, sat_star_exact, sat_star_no_extremes

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

# Layer census of the diamond searches, (families, extensions_tested,
# free_extensions, saturated_found) per size, as the per-mask search
# reported them: satstar n = 6 capped at size 5, and classify n = 5.
SATSTAR6_CAP5_CENSUS = [
    (1, 64, 64, 0),
    (7, 249, 249, 0),
    (43, 954, 954, 0),
    (302, 4798, 4682, 0),
    (2246, 27715, 26010, 0),
    (16909, 171953, 152826, 0),
]
CLASSIFY5_CENSUS = [
    (1, 32, 32, 0),
    (6, 106, 106, 0),
    (28, 304, 304, 0),
    (134, 1039, 992, 0),
    (585, 3530, 3116, 0),
    (2248, 11143, 8830, 0),
    (7185, 30705, 21296, 3),
]
# noextremes for the diamond: (result, census) per n, as the per-mask
# search reported them.
NOEXTREMES = {
    1: ({"status": "infeasible"}, [(1, 0, 0, 0)]),
    2: ({"status": "infeasible"}, [(1, 2, 2, 0), (1, 1, 1, 0), (1, 0, 0, 0)]),
    3: (
        {"status": "exact", "value": 6, "witness_count": 1,
         "witness": {"n": 3, "sets": [[1], [2], [3], [1, 2], [1, 3], [2, 3]]}},
        [(1, 6, 6, 0), (2, 7, 7, 0), (4, 7, 7, 0), (6, 7, 7, 0), (4, 3, 3, 0), (2, 1, 1, 0),
         (1, 0, 0, 1)],
    ),
    4: (
        {"status": "exact", "value": 8, "witness_count": 2,
         "witness": {"n": 4, "sets": [[1], [2], [1, 2], [1, 3], [2, 4], [3, 4], [1, 3, 4], [2, 3, 4]]}},
        [(1, 14, 14, 0), (3, 25, 25, 0), (10, 49, 49, 0), (29, 101, 100, 0), (67, 164, 157, 0),
         (112, 199, 182, 0), (144, 195, 165, 0), (130, 138, 102, 0), (77, 58, 34, 2)],
    ),
}
CENSUS_KEYS = ("families", "extensions_tested", "free_extensions", "saturated_found")


def census(doc):
    return [tuple(layer[key] for key in CENSUS_KEYS) for layer in doc["layers"]]


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
    assert census(opt["manifest"]) == Q3_CENSUS
    assert opt["manifest"]["result"]["witness_count"] == 2


def test_satstar_census_at_n6():
    doc = sat_star_exact(6, D, size_cap=5).to_json()
    assert doc["result"] == {"status": "lower_bound", "value_at_least": 6}
    assert [layer["size"] for layer in doc["layers"]] == list(range(6))
    assert census(doc) == SATSTAR6_CAP5_CENSUS
    assert doc["nodes_expanded"] == sum(layer[1] for layer in SATSTAR6_CAP5_CENSUS)
    assert all(layer["wall_time_s"] >= 0 for layer in doc["layers"])


def test_classify_census_at_n5():
    tagged, manifest = classify_minimum(5, D)
    doc = manifest.to_json()
    assert census(doc) == CLASSIFY5_CENSUS
    assert doc["result"]["value"] == 6 and doc["result"]["witness_count"] == 3
    assert sorted(tag for _, tag in tagged) == ["chain", "empty+singletons", "full+cosingletons"]


def test_classify_tags_ties_with_the_first_construction():
    # at n = 1 the chain, {}+singletons and full+cosingletons coincide
    (tagged,), _ = classify_minimum(1, D)
    assert tagged == (chain_family(1), "chain")
    tagged, _ = classify_minimum(3, D)
    assert [tag for _, tag in tagged] == ["empty+singletons", "chain", "full+cosingletons"]


@pytest.mark.parametrize("n", sorted(NOEXTREMES))
def test_noextremes_matches_the_per_mask_search(n):
    result, layers = NOEXTREMES[n]
    doc = sat_star_no_extremes(n, D).to_json()
    assert doc["result"] == result
    assert census(doc) == layers


@st.composite
def word_families(draw):
    """Families over n <= 6: random, greedily diamond-saturated, or
    random with a diamond put in."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("random", "greedy", "diamond")))
    if kind == "greedy":
        seed = draw(st.integers(0, 10**6))
        return greedy_saturate(SetFamily(n, ()), D, order="shuffle", seed=seed)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8, unique=True))
    if kind == "diamond" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        b = draw(st.integers(0, (1 << n) - 1)) & ~(1 << i | 1 << j)
        masks += [b, b | 1 << i, b | 1 << j, b | 1 << i | 1 << j]
    return SetFamily(n, tuple(masks))


@settings(max_examples=150, deadline=None)
@given(word_families())
def test_diamond_blocked_word_matches_the_oracle(f):
    fams = np.array(f.members, dtype=np.int64).reshape(1, len(f))
    words = family_words(f.n, fams)
    blocked = int(diamond_blocked(f.n, fams, words)[0])
    assert int(copy_blocked(f.n, D, words)[0]) == blocked & ~int(words[0])  # non-members only
    bits = word_bits(f.n).tolist()
    for m in range(1 << f.n):
        if m not in f:
            assert bool(blocked & bits[m]) == oracles.diamond_through(f, m), m


def test_diamond_blocked_rows_are_independent():
    rng = np.random.default_rng(3)
    ranks = np.sort(rng.choice(64, size=(40, 5)), axis=1)
    fams = canonical_order(6)[ranks[(np.diff(ranks, axis=1) > 0).all(axis=1)]]
    words = family_words(6, fams)
    batch = diamond_blocked(6, fams, words)
    for row, word in zip(fams, batch):
        one = row[None, :]
        assert diamond_blocked(6, one, family_words(6, one))[0] == word


def point_masks(p):
    """p's points as sets over few coordinates: Q3's labels are already
    masks of [3]; any other pattern takes each point's down-set."""
    if p == Q3:
        return list(range(8)), 3
    return [sum(1 << b for b in range(p.size) if p.leq[b][a]) for a in range(p.size)], p.size


@st.composite
def pattern_families(draw, p, min_n, max_n):
    """Families over min_n <= n <= max_n: random, greedily p-saturated, or
    random with a copy of p put in, sometimes less one of its members."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(("random", "greedy", "planted")))
    if kind == "greedy":
        seed = draw(st.integers(0, 10**6))
        return greedy_saturate(SetFamily(n, ()), p, order="shuffle", seed=seed)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6, unique=True))
    points, r = point_masks(p)
    if kind == "planted" and r <= n:
        coords = draw(st.permutations(range(n)))[:r]
        base = draw(st.integers(0, (1 << n) - 1)) & ~sum(1 << c for c in coords)
        copy = [base | sum(1 << c for i, c in enumerate(coords) if x >> i & 1) for x in points]
        if draw(st.booleans()):
            del copy[draw(st.integers(0, len(copy) - 1))]
        masks += copy
    return SetFamily(n, tuple(masks))


def copy_blocked_word(f, p):
    words = family_words(f.n, np.array(f.members, dtype=np.int64).reshape(1, len(f)))
    return int(copy_blocked(f.n, p, words)[0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_copy_blocked_word_matches_the_oracle(data):
    p = data.draw(st.sampled_from(PATTERNS))
    f = data.draw(pattern_families(p, 1, 4))
    blocked, bits = copy_blocked_word(f, p), word_bits(f.n).tolist()
    for m in range(1 << f.n):
        if m not in f:
            assert bool(blocked & bits[m]) == oracles.has_induced_using(f, m, p), m
            assert oracles.has_induced_through(f, m, p) == oracles.has_induced_using(f, m, p), m
        else:
            assert not blocked & bits[m]


@settings(max_examples=100, deadline=None)
@given(pattern_families(Q3, 3, 5))
def test_copy_blocked_word_matches_the_oracle_on_q3(f):
    blocked, bits = copy_blocked_word(f, Q3), word_bits(f.n).tolist()
    for m in range(1 << f.n):
        if m not in f:
            assert bool(blocked & bits[m]) == oracles.has_induced_through(f, m, Q3), m


def test_copy_blocked_rows_are_independent():
    rng = np.random.default_rng(5)
    ranks = np.sort(rng.choice(32, size=(40, 6)), axis=1)
    fams = canonical_order(5)[ranks[(np.diff(ranks, axis=1) > 0).all(axis=1)]]
    batch = copy_blocked(5, Q3, family_words(5, fams))
    for row, word in zip(fams, batch):
        assert copy_blocked(5, Q3, family_words(5, row[None, :]))[0] == word


# Induced copies of a pattern in 2^[n], counted as sets of masks.
COPY_COUNTS = {
    ("qk:3", 3): 1, ("qk:3", 4): 74, ("qk:3", 5): 3425, ("qk:3", 6): 126910,
    ("diamond", 4): 151, ("diamond", 5): 1275, ("diamond", 6): 9751,
    ("v", 3): 12, ("v", 4): 97, ("v", 5): 660, ("v", 6): 4081,
    ("antichain:5", 6): 304752,
}


def brute_copy_count(n, p):
    """k-sets of masks of [n] that carry p's order under some labeling; a
    set whose number of nested pairs differs from p's is skipped before
    any labeling is tried.  Such a copy uses every mask of the set, so it
    is a copy through the first one."""
    nested = sum(p.leq[a][b] for a in range(p.size) for b in range(p.size) if a != b)
    count = 0
    for masks in itertools.combinations(range(1 << n), p.size):
        if sum(x & y == x for x, y in itertools.permutations(masks, 2)) == nested:
            count += oracles.has_induced_through(SetFamily(n, masks[1:]), masks[0], p)
    return count


@pytest.mark.parametrize("spec, n", sorted(COPY_COUNTS))
def test_copy_table_sizes(spec, n):
    p = pattern_from_spec(spec)
    words = detect._copy_words(n, p)
    assert len(words) == COPY_COUNTS[spec, n]
    assert (words[1:] > words[:-1]).all()
    assert all(int(w).bit_count() == p.size for w in words[:1000])
    if n <= 4:
        assert brute_copy_count(n, p) == COPY_COUNTS[spec, n]


@pytest.mark.parametrize("spec, n", [("v", 6), ("antichain:4", 5), ("qk:2", 4)])
def test_twins_make_each_copy_once(spec, n):
    """Every automorphism of these patterns permutes twins, so with twins
    taking increasing images each copy is built exactly once."""
    p = pattern_from_spec(spec)
    assert sum(map(len, detect._embedded_words(n, p))) == len(detect._copy_words(n, p))


def test_copy_table_refuses_a_pattern_with_too_many_copies(monkeypatch):
    monkeypatch.setattr(detect, "_MAX_COPIES", 1000)
    monkeypatch.setattr(detect, "_TABLE_ROWS", 256)
    with pytest.raises(ValueError, match="more than 1000 induced copies"):
        detect._copy_words.__wrapped__(6, pattern_from_spec("antichain:5"))


SEARCHES = {
    "satstar": lambda: sat_star_exact(3, D),
    "classify": lambda: classify_minimum(3, D),
    "noextremes": lambda: sat_star_no_extremes(3, D),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_every_search_revalidates_its_winners(monkeypatch, name):
    real = search.is_saturated
    checked = []

    def is_saturated(f, p, **kw):
        checked.append(f)
        report = real(f, p, **kw)
        assert report.mode == "full" and report.verdict is Verdict.SATURATED
        report.verdict = Verdict.FREE_NOT_SATURATED
        return report

    monkeypatch.setattr(search, "is_saturated", is_saturated)
    with pytest.raises(InternalCheckError, match="fails re-validation"):
        SEARCHES[name]()
    assert len(checked) == 1


def test_noextremes_revalidates_the_allowed_masks(monkeypatch):
    # a search step that ignores the allowed masks lets the chain through
    real = search._extend
    monkeypatch.setattr(search, "_extend", lambda n, p, frontier, allowed: real(n, p, frontier, full_word(n)))
    with pytest.raises(InternalCheckError, match="fails re-validation: SetFamily"):
        sat_star_no_extremes(3, D)
