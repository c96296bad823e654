import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsat.families import SetFamily
from posetsat.hasse import MAX_HASSE, cover_edges, hasse_dot

import oracles


@st.composite
def families(draw, max_n=5, max_size=14):
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(0, min(max_size, 1 << n)))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    return SetFamily(n, tuple(masks))


@given(families())
@settings(max_examples=300, deadline=None)
def test_cover_edges_match_the_transitive_reduction(f):
    edges = cover_edges(f)
    assert set(edges) == oracles.transitive_reduction_edges(f)
    assert list(edges) == sorted(set(edges))


def test_cover_edges_of_the_two_cube():
    # {} < {1}, {2} < {1,2}: four covers, no edge from {} to {1,2}
    assert cover_edges(SetFamily(2, (0, 1, 2, 3))) == ((0, 1), (0, 2), (1, 3), (2, 3))


@given(families(max_n=4, max_size=8))
@settings(max_examples=100, deadline=None)
def test_dot_lists_every_member_and_cover(f):
    dot = hasse_dot(f)
    assert dot.startswith("digraph hasse {\n") and dot.endswith("}\n")
    lines = dot.splitlines()
    assert [line.split(" ")[2] for line in lines if "[label=" in line] == [f"n{i}" for i in range(len(f))]
    drawn = {tuple(line.strip().rstrip(";").split(" -> ")) for line in lines if "->" in line}
    assert drawn == {(f"n{a}", f"n{b}") for a, b in cover_edges(f)}


def test_dot_export_is_capped():
    with pytest.raises(ValueError):
        hasse_dot(SetFamily(9, tuple(range(MAX_HASSE + 1))))
