import pytest

from posetsat.posets import (
    PatternFormatError,
    PatternPoset,
    dual,
    linear_extension,
    make_antichain,
    make_chain,
    make_diamond,
    make_hypercube,
    make_lambda,
    make_v,
    parse_pattern,
    pattern_from_spec,
    serialize_pattern,
    validate,
)

import oracles


def count_true(p):
    return sum(x for row in p.leq for x in row)


def test_chain_2_has_three_relation_entries():
    assert count_true(make_chain(2)) == 3


def test_chain_1_is_single_reflexive_point():
    p = make_chain(1)
    assert p.size == 1 and p.leq == ((True,),)


def test_chain_4_matrix_is_numeric_order():
    p = make_chain(4)
    assert p.leq == tuple(tuple(a <= b for b in range(4)) for a in range(4))


def test_diamond_equals_two_cube():
    assert make_diamond() == make_hypercube(2)


def test_diamond_extremes_and_middles():
    p = make_diamond()
    minimal = [a for a in range(4) if all(not p.leq[b][a] for b in range(4) if b != a)]
    maximal = [a for a in range(4) if all(not p.leq[a][b] for b in range(4) if b != a)]
    assert minimal == [0] and maximal == [3]
    assert not p.leq[1][2] and not p.leq[2][1]


def test_three_cube_comparable_pair_count():
    # oracle: count ordered subset pairs (A, B) with A <= B over a 3-set
    expected = sum(
        1
        for a in range(8)
        for b in range(8)
        if a & b == a
    )
    assert expected == 27
    assert count_true(make_hypercube(3)) == 27


def test_one_cube_is_two_chain():
    assert make_hypercube(1) == make_chain(2)


def test_v_shape():
    p = make_v()
    assert p.leq[0][1] and p.leq[0][2]
    assert not p.leq[1][2] and not p.leq[2][1]


def test_antichain_only_reflexive():
    p = make_antichain(3)
    assert count_true(p) == 3


def test_dual_of_v_is_lambda():
    assert dual(make_v()) == make_lambda()


def test_dual_involution():
    for p in (make_chain(3), make_diamond(), make_v(), make_antichain(4), make_hypercube(3)):
        assert dual(dual(p)) == p


def test_chain_self_dual_up_to_iso():
    assert oracles.pattern_canon(dual(make_chain(3))) == oracles.pattern_canon(make_chain(3))


def test_diamond_self_dual_up_to_iso():
    assert oracles.pattern_canon(dual(make_diamond())) == oracles.pattern_canon(make_diamond())


def test_constructors_validate_ok():
    for p in (
        make_chain(1),
        make_chain(5),
        make_diamond(),
        make_hypercube(4),
        make_v(),
        make_lambda(),
        make_antichain(7),
    ):
        assert validate(p) is None


def test_validate_antisymmetry_violation():
    rows = [[True, True], [True, True]]
    msg = validate(PatternPoset(2, tuple(tuple(r) for r in rows)))
    assert msg is not None and "antisymmetry" in msg


def test_validate_transitivity_violation_names_triple():
    rows = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    msg = validate(PatternPoset(3, tuple(tuple(r) for r in rows)))
    assert msg is not None and "transitivity" in msg and "(0, 1, 2)" in msg


def test_validate_reflexivity_violation():
    rows = [[False]]
    msg = validate(PatternPoset(1, tuple(tuple(r) for r in rows)))
    assert msg is not None and "reflexivity" in msg


def test_size_caps():
    with pytest.raises(ValueError):
        make_chain(17)
    with pytest.raises(ValueError):
        make_hypercube(5)
    with pytest.raises(ValueError):
        make_antichain(0)


def test_serialize_parse_round_trip():
    for p in (make_diamond(), make_chain(3), make_antichain(2), make_hypercube(2)):
        q = parse_pattern(serialize_pattern(p))
        assert q.size == p.size and q.leq == p.leq


def test_parse_pattern_rejects_bad_input():
    with pytest.raises(PatternFormatError):
        parse_pattern("")
    with pytest.raises(PatternFormatError):
        parse_pattern("poset 2\n11\n")
    with pytest.raises(PatternFormatError):
        parse_pattern("poset 2\n1x\n01\n")
    with pytest.raises(PatternFormatError):
        parse_pattern("poset 2\n11\n11\n")  # violates antisymmetry


def test_pattern_keywords():
    assert pattern_from_spec("diamond") == make_diamond()
    assert pattern_from_spec("chain:4") == make_chain(4)
    assert pattern_from_spec("qk:3") == make_hypercube(3)
    assert pattern_from_spec("v") == make_v()
    assert pattern_from_spec("lambda") == make_lambda()
    assert pattern_from_spec("antichain:2") == make_antichain(2)
    with pytest.raises(PatternFormatError):
        pattern_from_spec("pentagon")
    with pytest.raises(PatternFormatError):
        pattern_from_spec("chain:zero")


def test_linear_extension_respects_order():
    for p in oracles.all_pattern_classes(4):
        order = linear_extension(p)
        pos = {pt: i for i, pt in enumerate(order)}
        for a in range(p.size):
            for b in range(p.size):
                if a != b and p.leq[a][b]:
                    assert pos[a] < pos[b]


def test_enumeration_counts_match_known_values():
    # labeled posets on k points: 1, 3, 19, 219; unlabeled: 1, 2, 5, 16
    assert [len(oracles.all_labeled_posets(k)) for k in range(1, 5)] == [1, 3, 19, 219]
    by_size = {}
    for p in oracles.all_pattern_classes(4):
        by_size[p.size] = by_size.get(p.size, 0) + 1
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 16}
