import itertools
import random

import numpy as np
import pytest

from posetsat.canonical import batch_is_canonical, canonical_key
from posetsat.families import SetFamily, canonical_order, member_key

import oracles


def least_relabeling(f):
    """Least (cardinality, mask)-sorted member tuple over all relabelings."""
    images = (oracles.relabel(f, perm).members for perm in itertools.permutations(range(f.n)))
    return min(images, key=lambda members: [member_key(m) for m in members])


def random_rows(rng, n, size, count):
    """Distinct-member rows in canonical member order."""
    ranks = [sorted(rng.sample(range(1 << n), size)) for _ in range(count)]
    return canonical_order(n)[np.array(ranks, dtype=np.int64).reshape(count, size)]


@pytest.mark.parametrize("n", range(1, 7))
def test_batch_is_canonical_matches_brute_force(n):
    rng = random.Random(n)
    count = 40 if n < 6 else 12
    for size in range(min(8, 1 << n) + 1):
        rows = random_rows(rng, n, size, count)
        # the least relabelings of the same families must all pass
        least = np.array(
            [least_relabeling(SetFamily(n, tuple(row))) for row in rows.tolist()], dtype=np.int64
        ).reshape(count, size)
        got = batch_is_canonical(n, np.vstack([rows, least]))
        assert got.dtype == bool and got.shape == (2 * count,)
        expect = [tuple(row) == tuple(low) for row, low in zip(rows.tolist(), least.tolist())]
        assert got.tolist() == expect + [True] * count


@pytest.mark.parametrize("n, size", [(3, 3), (3, 4), (4, 4), (4, 6)])
def test_batch_is_canonical_keeps_one_row_per_orbit(n, size):
    masks = canonical_order(n).tolist()
    rows = np.array(list(itertools.combinations(masks, size)), dtype=np.int64)
    keep = batch_is_canonical(n, rows)
    orbits = {canonical_key(SetFamily(n, tuple(row))) for row in rows.tolist()}
    assert keep.sum() == len(orbits)
    assert {tuple(row) for row in rows[keep].tolist()} == orbits


def test_batch_is_canonical_edge_shapes():
    assert batch_is_canonical(4, np.zeros((3, 0), dtype=np.int64)).tolist() == [True] * 3
    assert batch_is_canonical(4, np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    assert batch_is_canonical(6, np.zeros((0, 0), dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError):
        batch_is_canonical(7, np.array([[0, 1]]))


def test_canonical_key_at_n1():
    assert canonical_key(SetFamily(1, ())) == ()
    assert canonical_key(SetFamily(1, (1,))) == (1,)
    assert canonical_key(SetFamily(1, (0, 1))) == (0, 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_canonical_key_matches_brute_force(n):
    rng = random.Random(100 + n)
    for size in (1, 2, 4, 6):
        f = SetFamily(n, tuple(rng.sample(range(1 << n), min(size, 1 << n))))
        assert canonical_key(f) == least_relabeling(f)


def test_canonical_key_at_n8():
    rng = random.Random(8)
    for size in (1, 3, 5):
        f = SetFamily(8, tuple(rng.sample(range(256), size)))
        key = canonical_key(f)
        assert key == least_relabeling(f)
        perm = rng.sample(range(8), 8)
        g = oracles.relabel(f, perm)
        assert canonical_key(g) == key
        assert oracles.orbit_equal_brute(f, SetFamily(8, key))
