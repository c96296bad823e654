"""Relabeling-invariant canonical forms of subset families.

Two families are in the same orbit when some permutation of the ground
set maps one onto the other.  For n <= 8 the canonical key is exact:
the least (cardinality, mask)-sorted member tuple over all n!
relabelings, computed against cached per-permutation image tables.
Above n = 8 an iterated degree-refinement signature serves as a
heuristic key, and equality of heuristic keys is only trusted after an
exact confirmation search, so equal confirmed keys always mean
isomorphic.

For n <= 6 a family is one word (see ``families``), and it is the least
relabeling of its orbit exactly when its word is the largest of its n!
images.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .families import SetFamily, family_words, word_bits

EXACT_MAX_N = 8


@lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    """(n!, 2^n) table of encoded mask images under every permutation.

    Encoding is (cardinality << n) | mask so numeric order on encoded
    values equals the canonical member order.  Cardinality is fixed
    under relabeling, so it is added once at the end.
    """
    if n > EXACT_MAX_N:
        raise ValueError(f"exact canonical form needs n <= {EXACT_MAX_N}, got {n}")
    perms = sorted(permutations(range(n)))
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    bits = np.zeros((n, size), dtype=np.uint32)
    for i in range(n):
        bits[i] = (masks >> i) & 1
    images = np.zeros((len(perms), size), dtype=np.uint32)
    for pi, perm in enumerate(perms):
        img = np.zeros(size, dtype=np.uint32)
        for i in range(n):
            img |= bits[i] << perm[i]
        images[pi] = img
    card = np.zeros(size, dtype=np.uint32)
    for i in range(n):
        card += bits[i]
    images += (card << n)[np.newaxis, :]
    return images


@lru_cache(maxsize=None)
def _image_words(n: int) -> np.ndarray:
    """(2^n, n!) table: the word bit of mask m's image under each permutation.

    A row per mask makes the image of a member one contiguous row copy.
    """
    return np.ascontiguousarray(word_bits(n)[_perm_table(n) & ((1 << n) - 1)].T)


def canonical_key(f: SetFamily) -> tuple[int, ...]:
    """Canonical representative of f's orbit as a mask tuple (exact n <= 8)."""
    n = f.n
    if n > EXACT_MAX_N:
        raise ValueError(
            f"exact canonical keys need n <= {EXACT_MAX_N}; use heuristic_key/same_orbit"
        )
    if not f.members:
        return ()
    table = _perm_table(n)
    rows = np.sort(table[:, list(f.members)], axis=1)
    order = np.lexsort(rows.T[::-1])
    best = rows[order[0]]
    mask_bits = (1 << n) - 1
    return tuple(int(v) & mask_bits for v in best)


def canonical_representative(f: SetFamily) -> SetFamily:
    return SetFamily(f.n, canonical_key(f))


def is_canonical(f: SetFamily) -> bool:
    return tuple(f.members) == canonical_key(f)


def batch_is_canonical(n: int, fams: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Vectorized canonicity test for same-size families (n <= 6).

    ``fams`` is a (T, s) int array of member masks, each row already in
    canonical member order.  Returns a boolean vector: row i is the
    least relabeling of its own orbit, i.e. its word is the largest of
    its images.  An image word is the OR of one table row per member;
    blocks of ``chunk`` rows keep the (chunk, n!) images in cache.
    """
    fams = np.asarray(fams, dtype=np.int64)
    images = _image_words(n)
    own = family_words(n, fams)
    out = np.ones(len(fams), dtype=bool)
    if fams.shape[1] == 0:
        return out  # the empty family is its own only relabeling
    for lo in range(0, len(fams), chunk):
        block = fams[lo:lo + chunk]
        img = images[block[:, 0]]
        for j in range(1, block.shape[1]):
            img |= images[block[:, j]]
        out[lo:lo + chunk] = img.max(axis=1) == own[lo:lo + chunk]
    return out


def _refine_colors(f: SetFamily, rounds: int = 4) -> tuple[tuple[int, ...], tuple]:
    """Iterated element coloring: start from per-cardinality incidence
    profiles, then refine by the multiset of member color-profiles."""
    n = f.n
    colors = []
    for i in range(n):
        bit = 1 << i
        profile = tuple(sorted(m.bit_count() for m in f.members if m & bit))
        colors.append(profile)

    def normalize(values):
        ranking = {v: r for r, v in enumerate(sorted(set(values)))}
        return [ranking[v] for v in values]

    ranks = normalize(colors)
    for _ in range(rounds):
        new = []
        for i in range(n):
            bit = 1 << i
            prof = tuple(
                sorted(
                    tuple(sorted(ranks[j] for j in range(n) if m >> j & 1))
                    for m in f.members
                    if m & bit
                )
            )
            new.append((ranks[i], prof))
        new_ranks = normalize(new)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    signature = tuple(
        sorted(tuple(sorted(ranks[j] for j in range(n) if m >> j & 1)) for m in f.members)
    )
    return tuple(ranks), (len(f.members), signature)


def heuristic_key(f: SetFamily) -> tuple:
    """Relabeling-invariant signature; equal keys are orbit *candidates*."""
    _, sig = _refine_colors(f)
    return sig


def _exact_confirm(f: SetFamily, g: SetFamily) -> bool:
    """Backtracking search for a color-respecting relabeling f -> g."""
    n = f.n
    fc, _ = _refine_colors(f)
    gc, _ = _refine_colors(g)
    if sorted(fc) != sorted(gc):
        return False
    g_members = set(g.members)
    perm: list[int] = [-1] * n
    used = [False] * n
    order = sorted(range(n), key=lambda i: (fc.count(fc[i]), i))

    def maps_ok(partial_depth: int) -> bool:
        # cheap partial test: images of members restricted to assigned bits
        assigned = [i for i in order[:partial_depth]]
        if not assigned:
            return True
        amask = 0
        for i in assigned:
            amask |= 1 << i
        imask = 0
        for i in assigned:
            imask |= 1 << perm[i]
        g_proj = sorted((m & imask) for m in g.members)
        f_proj = sorted(_apply(m & amask) for m in f.members)
        return f_proj == g_proj

    def _apply(mask: int) -> int:
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    def rec(depth: int) -> bool:
        if depth == n:
            return {_apply(m) for m in f.members} == g_members
        i = order[depth]
        for j in range(n):
            if used[j] or fc[i] != gc[j]:
                continue
            perm[i] = j
            used[j] = True
            if maps_ok(depth + 1) and rec(depth + 1):
                return True
            used[j] = False
            perm[i] = -1
        return False

    return rec(0)


def same_orbit(f: SetFamily, g: SetFamily) -> bool:
    """Exact orbit equality; key comparison for n <= 8, heuristic keys
    plus exact confirmation above."""
    if f.n != g.n or len(f.members) != len(g.members):
        return False
    if f.n <= EXACT_MAX_N:
        return canonical_key(f) == canonical_key(g)
    if heuristic_key(f) != heuristic_key(g):
        return False
    return _exact_confirm(f, g)
