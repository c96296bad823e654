import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetsat.families import (
    FamilyFormatError,
    SetFamily,
    after_words,
    canonical_order,
    canonical_permutation,
    cardinality_layers,
    complement_family,
    elements_of,
    family_from_json,
    family_to_json,
    full_word,
    mask_of,
    maximal_sets,
    member_key,
    minimal_sets,
    parse_family,
    popcounts,
    serialize_family,
    subset_table,
    superset_table,
    word_bits,
    word_ranks,
)

import oracles


@st.composite
def families(draw, max_n=5, max_size=10):
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(0, min(max_size, 1 << n)))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    return SetFamily(n, tuple(masks))


def to_sets(f):
    return {frozenset(elements_of(m)) for m in f.members}


def test_masks_round_trip():
    assert mask_of([1, 3], 3) == 0b101
    assert elements_of(0b101) == (1, 3)
    with pytest.raises(ValueError):
        mask_of([4], 3)


def test_members_canonical_order():
    f = SetFamily(3, (0b110, 0b1, 0b111, 0b10, 0))
    assert f.members == (0, 0b1, 0b10, 0b110, 0b111)


@pytest.mark.parametrize("n", range(0, 13))
def test_canonical_order_sorts_by_member_key(n):
    order = canonical_order(n)
    assert order.dtype == np.int64
    assert order.tolist() == sorted(range(1 << n), key=member_key)


def test_duplicates_collapse():
    f = SetFamily(2, (1, 1, 2))
    assert f.members == (1, 2)


def test_ground_size_caps():
    with pytest.raises(ValueError):
        SetFamily(0)
    with pytest.raises(ValueError):
        SetFamily(65)
    with pytest.raises(ValueError):
        SetFamily(2, (4,))


def test_complement_example():
    f = SetFamily.of(2, [(), (1,)])
    assert to_sets(complement_family(f)) == {frozenset({1, 2}), frozenset({2})}


def test_complement_of_chain_is_chain():
    chain = SetFamily.of(3, [(), (1,), (1, 2), (1, 2, 3)])
    comp = complement_family(chain)
    ms = comp.members
    assert all(ms[i] & ms[i + 1] == ms[i] for i in range(len(ms) - 1))


@given(families())
def test_complement_involution(f):
    assert complement_family(complement_family(f)) == f
    assert len(complement_family(f)) == len(f)


def test_minimal_example_chain():
    chain = SetFamily.of(3, [(), (1,), (1, 2)])
    assert to_sets(minimal_sets(chain)) == {frozenset()}


def test_minimal_example_two_levels():
    f = SetFamily.of(3, [(1,), (2,), (1, 3), (2, 3)])
    assert to_sets(minimal_sets(f)) == {frozenset({1}), frozenset({2})}
    assert to_sets(maximal_sets(f)) == {frozenset({1, 3}), frozenset({2, 3})}


@given(families())
def test_minimal_matches_pairwise_filter_oracle(f):
    assert to_sets(minimal_sets(f)) == oracles.minimal_brute(f)
    assert to_sets(maximal_sets(f)) == oracles.maximal_brute(f)


@given(families())
def test_min_max_are_antichains(f):
    for g in (minimal_sets(f), maximal_sets(f)):
        ms = g.members
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                assert a & b != a and a & b != b


@given(families())
def test_maximal_is_complement_of_minimal_of_complement(f):
    direct = maximal_sets(f)
    via = complement_family(minimal_sets(complement_family(f)))
    assert direct == via


def test_parse_example():
    f = parse_family("n=3\n-\n1\n1,2\n")
    assert to_sets(f) == {frozenset(), frozenset({1}), frozenset({1, 2})}


def test_parse_comments_and_blanks():
    f = parse_family("# heading\nn=2\n\n# note\n-\n")
    assert f.members == (0,)


def test_parse_out_of_range_reports_line():
    with pytest.raises(FamilyFormatError) as err:
        parse_family("n=2\n3\n")
    assert err.value.line == 2
    assert "out of range" in str(err.value)


def test_parse_malformed_line():
    with pytest.raises(FamilyFormatError) as err:
        parse_family("n=2\n1,x\n")
    assert err.value.line == 2


def test_parse_missing_header():
    with pytest.raises(FamilyFormatError):
        parse_family("1,2\n")


def test_parse_duplicate_strict_vs_warn():
    with pytest.raises(FamilyFormatError):
        parse_family("n=2\n1\n1\n", strict=True)
    with pytest.warns(UserWarning):
        f = parse_family("n=2\n1\n1\n")
    assert len(f) == 1


@given(families())
def test_serialize_parse_round_trip(f):
    assert parse_family(serialize_family(f)) == f


@given(families(), st.randoms())
def test_parse_is_line_order_invariant(f, rnd):
    text = serialize_family(f)
    head, *rest = text.strip().split("\n")
    rnd.shuffle(rest)
    shuffled = "\n".join([head] + rest) + "\n"
    assert serialize_family(parse_family(shuffled)) == serialize_family(f)


@given(families())
def test_json_mirror_round_trip(f):
    blob = json.dumps(family_to_json(f))
    assert family_from_json(json.loads(blob)) == f


@given(families(max_n=6))
def test_tables_match_brute_force(f):
    sup = superset_table(f.n, f.members)
    sub = subset_table(f.n, f.members)
    for x in range(1 << f.n):
        assert sup[x] == any(m & x == x for m in f.members)
        assert sub[x] == any(m & x == m for m in f.members)


def byte_sweep(n, masks, down):
    """The plain one-byte-per-entry subset-sum sweep, one OR pass per bit."""
    t = np.zeros(1 << n, dtype=bool)
    t[list(masks)] = True
    for k in range(n):
        t3 = t.reshape(-1, 2, 1 << k)
        if down:
            t3[:, 0, :] |= t3[:, 1, :]
        else:
            t3[:, 1, :] |= t3[:, 0, :]
    return t


@pytest.mark.parametrize("n", range(21))
def test_word_sweep_tables_equal_the_byte_sweep(n):
    rng = random.Random(n)
    for count in (0, 1, 2, 5, 40):
        masks = [rng.randrange(1 << n) for _ in range(count)]
        sup = superset_table(n, masks)
        sub = subset_table(n, masks)
        assert sup.dtype == sub.dtype == np.dtype(bool)
        assert np.array_equal(sup, byte_sweep(n, masks, down=True))
        assert np.array_equal(sub, byte_sweep(n, masks, down=False))
        assert sup.view(np.uint8).max(initial=0) <= 1 and sub.view(np.uint8).max(initial=0) <= 1


@pytest.mark.parametrize("n", range(17))
def test_cardinality_layers_are_the_slices_of_the_member_key_order(n):
    ordered = sorted(range(1 << n), key=member_key)
    layers = list(cardinality_layers(n))
    assert [layer.dtype for layer in layers] == [np.dtype(np.int64)] * (n + 1)
    sizes = [m.bit_count() for m in ordered]
    assert [layer.tolist() for layer in layers] == [
        ordered[sizes.index(c):sizes.index(c) + len(layer)] for c, layer in enumerate(layers)
    ]
    assert sum(map(len, layers)) == 1 << n


@pytest.mark.parametrize("n", range(7))
def test_word_layout_matches_bit_loops(n):
    rng = random.Random(n)
    ranks = {m: r for r, m in enumerate(sorted(range(1 << n), key=member_key))}
    bits = word_bits(n).tolist()
    assert bits == [1 << ((1 << n) - 1 - ranks[m]) for m in range(1 << n)]
    assert after_words(n).tolist() == [b - 1 for b in bits]
    assert int(full_word(n)) == sum(bits)
    size = 1 << (1 << n)
    words = [0, size - 1] + [rng.randrange(size) for _ in range(30)]
    array = np.array(words, dtype=np.uint64)
    assert popcounts(array).tolist() == [w.bit_count() for w in words]
    row, rank = word_ranks(n, array)
    top = (1 << n) - 1
    assert list(zip(row.tolist(), rank.tolist())) == [
        (i, r) for i, w in enumerate(words) for r in range(1 << n) if w >> (top - r) & 1
    ]
    assert [len(x) for x in word_ranks(n, array[:0])] == [0, 0]


def test_popcounts_read_every_bit_of_wide_and_signed_entries():
    rng = random.Random(1)
    values = [0, 1, (1 << 64) - 1, 1 << 63] + [rng.getrandbits(64) for _ in range(50)]
    assert popcounts(np.array(values, dtype=np.uint64)).tolist() == [v.bit_count() for v in values]
    signed = np.array(values, dtype=np.uint64).view(np.int64)
    assert popcounts(signed).tolist() == [v.bit_count() for v in values]
    assert popcounts(np.array([[3, 7]], dtype=np.int64)).tolist() == [[2, 3]]


@pytest.mark.parametrize("dtype, bits", [(np.int64, 63), (np.uint64, 64), (np.int64, 12)])
def test_canonical_permutation_sorts_by_member_key(dtype, bits):
    rng = random.Random(bits)
    masks = [rng.getrandbits(rng.randrange(bits + 1)) for _ in range(500)]
    masks += [0, (1 << bits) - 1, 1 << (bits - 1)] + masks[:40]  # repeats too
    array = np.array(masks, dtype=dtype)
    order = canonical_permutation(array)
    assert array[order].tolist() == sorted(masks, key=member_key)
    # stable: repeats keep their input order
    assert all(order[k] < order[k + 1] for k in range(len(order) - 1) if masks[order[k]] == masks[order[k + 1]])
    assert canonical_permutation(np.zeros(0, dtype=dtype)).tolist() == []


def test_member_key_orders_by_cardinality_then_value():
    masks = sorted([0b11, 0b100, 0b1, 0b111, 0], key=member_key)
    assert masks == [0, 0b1, 0b100, 0b11, 0b111]
