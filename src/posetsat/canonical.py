"""Relabeling-invariant canonical forms of subset families.

Two families are in the same orbit when some permutation of the ground
set maps one onto the other.  For n <= 8 the canonical key is the least
member tuple, in the canonical member order of ``families``, over all
n! relabelings.  Both forms here read one cached table that holds the
canonical rank of each mask's image under each permutation, so
``families`` alone decides the member order.

For n <= 6 a family is one word (see ``families``), and it is the least
relabeling of its orbit exactly when its word is the largest of its n!
images.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .families import SetFamily, canonical_order, family_words, word_bits

EXACT_MAX_N = 8
# Rows per step of batch_is_canonical: their (rows, n!) images stay in cache.
_CHUNK = 64


@lru_cache(maxsize=None)
def _rank_table(n: int) -> np.ndarray:
    """(n!, 2^n) uint8 table: the canonical rank of each mask's image
    under each permutation.

    Ranks order like members, so sorting a row of ranks sorts the
    relabeled family.  Images below 2^8 are built in uint8 too, which
    keeps the intermediates as small as the table.
    """
    if n > EXACT_MAX_N:
        raise ValueError(f"canonical forms need n <= {EXACT_MAX_N}, got {n}")
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    masks = np.arange(1 << n, dtype=np.uint8)
    images = np.zeros((len(perms), 1 << n), dtype=np.uint8)
    for i in range(n):
        images |= ((masks >> i) & 1) << perms[:, i, None]
    rank = np.empty(1 << n, dtype=np.uint8)
    rank[canonical_order(n)] = np.arange(1 << n)
    return rank[images]


@lru_cache(maxsize=None)
def _image_words(n: int) -> np.ndarray:
    """(2^n, n!) table: the word bit of mask m's image under each permutation.

    A row per mask makes the image of a member one contiguous row copy.
    """
    return np.ascontiguousarray(word_bits(n)[canonical_order(n)][_rank_table(n)].T)


def canonical_key(f: SetFamily) -> tuple[int, ...]:
    """Canonical representative of f's orbit as a mask tuple (n <= 8)."""
    table = _rank_table(f.n)
    if not f.members:
        return ()
    rows = np.sort(table[:, list(f.members)], axis=1)
    best = rows[np.lexsort(rows.T[::-1])[0]]
    return tuple(canonical_order(f.n)[best].tolist())


def batch_is_canonical(n: int, fams: np.ndarray) -> np.ndarray:
    """Vectorized canonicity test for same-size families (n <= 6).

    ``fams`` is a (T, s) int array of member masks, each row already in
    canonical member order.  Returns a boolean vector: row i is the
    least relabeling of its own orbit, i.e. its word is the largest of
    its images.  An image word is the OR of one table row per member.
    """
    fams = np.asarray(fams, dtype=np.int64)
    images = _image_words(n)
    own = family_words(n, fams)
    out = np.ones(len(fams), dtype=bool)
    if fams.shape[1] == 0:
        return out  # the empty family is its own only relabeling
    for lo in range(0, len(fams), _CHUNK):
        block = fams[lo:lo + _CHUNK]
        img = images[block[:, 0]]
        for j in range(1, block.shape[1]):
            img |= images[block[:, j]]
        out[lo:lo + _CHUNK] = img.max(axis=1) == own[lo:lo + _CHUNK]
    return out
