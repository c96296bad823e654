import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsat import detect
from posetsat.detect import (
    DIAMOND,
    _orbit_representatives,
    creates_copy,
    creates_diamond,
    find_diamond,
    find_induced,
    find_induced_using,
    validate_embedding,
)
from posetsat.families import SetFamily, mask_of
from posetsat.posets import (
    PatternPoset,
    make_antichain,
    make_chain,
    make_diamond,
    make_hypercube,
    make_lambda,
    make_v,
)
from posetsat.saturate import Q3, greedy_saturate, q3_construction

import oracles

PATTERNS = oracles.all_pattern_classes(4)


def relabeled(p, perm):
    """p with point a renamed perm[a]."""
    inv = {b: a for a, b in enumerate(perm)}
    k = p.size
    return PatternPoset(k, tuple(tuple(p.leq[inv[a]][inv[b]] for b in range(k)) for a in range(k)))


# The diamond with its top as point 0: equal to DIAMOND only up to
# relabeling, so the through-search runs it with plans of its own.
RELABELED_DIAMOND = relabeled(DIAMOND, (3, 1, 2, 0))
THROUGH_PATTERNS = (
    make_v(),
    make_chain(2),
    Q3,
    make_antichain(3),
    make_lambda(),
    make_hypercube(2),
    RELABELED_DIAMOND,
)


@st.composite
def families(draw, max_n=4, max_size=7):
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(0, min(max_size, 1 << n)))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    return SetFamily(n, tuple(masks))


def test_two_cube_diamond_witness():
    f = SetFamily(2, (0, 1, 2, 3))
    emb = find_induced(f, make_diamond())
    assert emb is not None and emb.mapping == (0, 1, 2, 3)
    assert emb.image_masks() == (0, 1, 2, 3)
    assert validate_embedding(emb) is None


def test_maximal_chain_has_no_diamond():
    f = SetFamily.of(3, [(), (1,), (1, 2), (1, 2, 3)])
    assert find_induced(f, make_diamond()) is None
    assert find_diamond(f) is None


def test_find_diamond_two_level_none():
    f = SetFamily.of(3, [(1,), (2,), (1, 3), (2, 3)])
    assert find_diamond(f) is None


def test_find_diamond_witness_structure():
    f = SetFamily(2, (0, 1, 2, 3))
    emb = find_diamond(f)
    b, c, d, e = emb.image_masks()
    assert b & c == b and b & d == b
    assert c & d not in (c, d)
    assert c & e == c and d & e == d


def test_find_induced_using_completes_cube():
    f = SetFamily.of(2, [(), (1,), (2,)])
    s = mask_of((1, 2), 2)
    emb = find_induced_using(f, s, make_diamond())
    assert emb is not None and emb.uses(s)
    assert validate_embedding(emb) is None


def test_find_induced_using_chain_plus_singleton():
    f = SetFamily.of(3, [(), (1,), (1, 2)])
    s = mask_of((2,), 3)
    emb = find_induced_using(f, s, make_diamond())
    assert emb is not None and emb.uses(s)
    assert set(emb.image_masks()) == {0, 0b1, 0b10, 0b11}


def test_find_induced_using_rejects_member():
    f = SetFamily.of(2, [(1,)])
    with pytest.raises(ValueError):
        find_induced_using(f, 1, make_diamond())


@given(families(), st.integers(0, len(PATTERNS) - 1))
@settings(max_examples=300, deadline=None)
def test_detector_matches_brute_force_oracle(f, pi):
    p = PATTERNS[pi]
    got = find_induced(f, p)
    expected = oracles.has_induced(f, p)
    assert (got is not None) == expected
    if got is not None:
        assert validate_embedding(got) is None


@st.composite
def greedy_families(draw, max_n=6):
    """A greedy diamond-saturated family, and sometimes one missing set added."""
    n = draw(st.integers(1, max_n))
    f = greedy_saturate(SetFamily(n, ()), DIAMOND, order="shuffle", seed=draw(st.integers(0, 10**6)))
    missing = [m for m in range(1 << n) if m not in f]
    if missing and draw(st.booleans()):
        f = f.add(draw(st.sampled_from(missing)))
    return f


@given(st.one_of(families(), families(max_n=7, max_size=40), greedy_families()))
@settings(max_examples=300, deadline=None)
def test_diamond_detector_agrees_with_generic(f):
    fast = find_diamond(f)
    slow = find_induced(f, make_diamond())
    assert (fast is None) == (slow is None)
    if fast is not None:
        # traversal orders coincide for the diamond, so witnesses match
        assert fast.mapping == slow.mapping


@given(st.one_of(families(max_n=7, max_size=40), greedy_families()))
@settings(max_examples=150, deadline=None)
def test_find_diamond_witness_does_not_depend_on_block_sizes(f):
    # one-row blocks and four-entry column blocks put every block boundary
    # of find_diamond inside these small families
    with mock.patch.object(detect, "_BLOCK", 4), mock.patch.object(detect, "_FIRST_WORK", 1):
        got = find_diamond(f)
    expected = find_induced(f, DIAMOND)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.mapping == expected.mapping


def test_find_diamond_uses_the_top_bit_of_a_64_bit_mask():
    high = 1 << 63
    free = SetFamily(64, (high, high | 1, high | 2, 1, 2, 3))
    assert find_diamond(free) is None and find_induced(free, DIAMOND) is None
    f = SetFamily(64, (1, high, high | 1, high | 2, high | 4, high | 3, 2 | 4))
    emb = find_diamond(f)
    assert emb is not None and emb.mapping == find_induced(f, DIAMOND).mapping
    assert emb.image_masks() == (high, high | 1, high | 2, high | 3)
    assert validate_embedding(emb) is None


def test_find_diamond_on_the_full_16_cube_returns_at_once_in_bounded_memory():
    cube = SetFamily(16, tuple(range(1 << 16)))
    tracemalloc.start()
    try:
        emb = find_diamond(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # {} < {1}, {2} < {1,2}: the 17th member is the first 2-set
    assert emb.mapping == (0, 1, 2, 17)
    assert peak < 64 << 20


def test_find_diamond_on_the_two_middle_layers_over_13():
    layers = tuple(m for m in range(1 << 13) if m.bit_count() in (6, 7))
    assert len(layers) == 3432
    assert find_diamond(SetFamily(13, layers)) is None


@given(families())
@settings(max_examples=200, deadline=None)
def test_using_detector_matches_filtered_oracle(f):
    missing = [m for m in range(1 << f.n) if m not in f]
    if not missing:
        return
    s = missing[0]
    for p in (make_diamond(), make_v(), make_chain(3)):
        got = find_induced_using(f, s, p)
        assert (got is not None) == oracles.has_induced_using(f, s, p)
        if got is not None:
            assert got.uses(s)
            assert validate_embedding(got) is None


@pytest.mark.parametrize("p", PATTERNS)
@given(f=families(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_find_induced_using_follows_the_witness_rule(p, f, data):
    missing = [m for m in range(1 << f.n) if m not in f]
    if not missing:
        return
    s = data.draw(st.sampled_from(missing))
    got = find_induced_using(f, s, p)
    assert (None if got is None else got.mapping) == oracles.least_witness_using(f, s, p)


@given(families(), st.integers(0, len(PATTERNS) - 1), st.randoms())
@settings(max_examples=150, deadline=None)
def test_monotonicity_under_superfamilies(f, pi, rnd):
    p = PATTERNS[pi]
    if find_induced(f, p) is None:
        return
    missing = [m for m in range(1 << f.n) if m not in f]
    extra = rnd.sample(missing, min(2, len(missing)))
    g = SetFamily(f.n, f.members + tuple(extra))
    assert find_induced(g, p) is not None


# Families over [64] with members at or above 2^63 and a set s to add:
# a diamond through s as its bottom, its top, a middle, then none twice;
# last, 65 supersets of s, with and without a top over two of them.
HIGH = 1 << 63
PAIRS = tuple(1 << i | 1 << (i + 1) for i in range(63)) + (HIGH | 1, 5)
WIDE_CASES = [
    (SetFamily(64, (HIGH | 1, HIGH | 2, HIGH | 3)), HIGH),
    (SetFamily(64, (HIGH, HIGH | 1, HIGH | 2)), HIGH | 3),
    (SetFamily(64, (HIGH, HIGH | 1, HIGH | 3)), HIGH | 2),
    (SetFamily(64, (0, HIGH, HIGH | 3)), 4),
    (SetFamily(64, ((1 << 64) - 1, HIGH, HIGH | 3)), HIGH | 1),
    (SetFamily(64, PAIRS[:-1] + (HIGH | 3,)), 0),
    (SetFamily(64, PAIRS), 0),
]


@given(families())
@settings(max_examples=200, deadline=None)
def test_creates_diamond_matches_oracle(f):
    missing = [m for m in range(1 << f.n) if m not in f]
    as_array = np.array(f.members, dtype=np.uint64)
    for s in missing[:4]:
        expected = oracles.diamond_through(f, s)
        assert creates_diamond(f.members, s) == expected
        assert creates_diamond(as_array, s) == expected
        assert creates_copy(f.members, s, DIAMOND) == expected


@pytest.mark.parametrize("f, s", WIDE_CASES, ids=["bottom", "top", "middle", "none-beside", "none-chain", "wide-bottom", "wide-none"])
def test_creates_diamond_matches_oracle_over_64_elements(f, s):
    expected = oracles.diamond_through(f, s)
    assert creates_diamond(f.members, s) == expected
    assert creates_diamond(np.array(f.members, dtype=np.uint64), s) == expected
    assert creates_copy(f.members, s, DIAMOND) == expected


@given(families(max_size=12))
@settings(max_examples=100, deadline=None)
def test_creates_copy_matches_using_detector(f):
    missing = [m for m in range(1 << f.n) if m not in f]
    for s in missing[:3]:
        for p in THROUGH_PATTERNS:
            assert creates_copy(f.members, s, p) == (find_induced_using(f, s, p) is not None)


@given(families(), st.integers(0, len(PATTERNS) - 1), st.randoms())
@settings(max_examples=300, deadline=None)
def test_creates_copy_matches_filtered_oracle(f, pi, rnd):
    p = PATTERNS[pi]
    missing = [m for m in range(1 << f.n) if m not in f]
    for s in rnd.sample(missing, min(3, len(missing))):
        shuffled = tuple(rnd.sample(f.members, len(f.members)))
        assert creates_copy(shuffled, s, p) == oracles.has_induced_using(f, s, p)


def test_creates_copy_on_the_q3_construction():
    f = q3_construction(4)
    for s in range(1 << 4):
        if s not in f:
            assert creates_copy(f.members, s, Q3)
    for x in f.members:
        # f is Q3-free, so putting a member back creates nothing
        assert not creates_copy(f.without(x).members, x, Q3)
    cube = tuple(range(8))
    for x in cube:
        rest = tuple(m for m in cube if m != x)
        # every point of the 3-cube lies on a Q3 and on a diamond
        assert creates_copy(rest, x, Q3)
        assert creates_copy(rest, x, RELABELED_DIAMOND)


def brute_orbits(p):
    k = p.size
    autos = [
        perm
        for perm in itertools.permutations(range(k))
        if all(p.leq[a][b] == p.leq[perm[a]][perm[b]] for a in range(k) for b in range(k))
    ]
    return {frozenset(perm[x] for perm in autos) for x in range(k)}


@pytest.mark.parametrize("p", [*PATTERNS, Q3, RELABELED_DIAMOND])
def test_orbit_representatives_hit_every_orbit_once(p):
    reps = _orbit_representatives(p)
    orbits = brute_orbits(p)
    assert len(reps) == len(set(reps)) == len(orbits)
    for orbit in orbits:
        assert sum(x in orbit for x in reps) == 1
    assert reps == tuple(sorted(min(orbit) for orbit in orbits))


def test_detection_is_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        f = oracles.random_family(rng)
        for p in (make_diamond(), make_v()):
            first = find_induced(f, p)
            second = find_induced(f, p)
            assert (first is None and second is None) or first.mapping == second.mapping


def row_loop(p, images, members, added):
    """The per-entry embedding check over masks, as the reference for
    first_invalid_row: first bad row and its reason, or None."""
    for r, row in enumerate(images):
        if any(x not in members and x != added[r] for x in row):
            return r, "mapping index out of range"
        if len(set(row)) != len(row):
            return r, "mapping is not injective"
        for a in range(p.size):
            for b in range(p.size):
                if p.leq[a][b] != (row[a] & row[b] == row[a]):
                    return r, f"relation mismatch at pattern pair ({a}, {b})"
    return None


@given(st.data(), st.sampled_from(PATTERNS), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_first_invalid_row_matches_the_row_loop(data, p, n):
    masks = st.integers(0, (1 << n) - 1)
    members = data.draw(st.lists(masks, unique=True))
    rows = data.draw(st.lists(st.lists(masks, min_size=p.size, max_size=p.size), max_size=6))
    added = data.draw(st.lists(masks, min_size=len(rows), max_size=len(rows)))
    expected = [row_loop(p, [row], members, [s]) for row, s in zip(rows, added)]
    for row, s, want in zip(rows, added, expected):
        assert detect.first_invalid_row(p, [row], members, [s]) == want
    first = next(((r, want[1]) for r, want in enumerate(expected) if want), None)
    assert detect.first_invalid_row(p, rows, members, added) == first
