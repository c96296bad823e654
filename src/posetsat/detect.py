"""Induced-copy detection inside subset families.

An embedding maps pattern points injectively to family member indices
so that the pattern order matches mask inclusion exactly: comparable
points map to nested sets and incomparable points map to
inclusion-incomparable sets.

The generic detector backtracks over the pattern points in a fixed
linear extension (minimal points first, ties by point index) and tries
candidate members in canonical order, so the first witness found is the
lexicographically least along that search order.  The diamond has a
specialized numpy detector: for each bottom in canonical order, one
containment-matrix product over the bottom's strict supersets finds
their incomparable pairs with a common top, in blocks of bounded size.
Both return identical witnesses on the diamond because they visit
(bottom, middle, middle, top) in the same order.

Adding a set s creates a copy through s when some copy uses s.  One
search, ``_through``, finds these: it splits the members once into
those above, below and incomparable to s, as in Ullmann's and VF2's
candidate filtering, puts s on one pattern point and draws every other
point's candidates from the matching list.  ``creates_copy`` needs no
witness, so it puts s first, on one point per automorphism orbit only;
``find_induced_using`` and the certificates pin s at point 0, 1, ... of
the linear extension in turn, for the lexicographically least witness.
``creates_copy`` is the diamond's per-mask test too, and
``creates_diamond`` only names it.  The diamond's own through-tests are
batch forms: ``saturate``'s lookup tables up to the table limit, and,
for the exact search at n <= 6, ``diamond_blocked``, which answers it
for every mask at once, as one family word of the masks that create a
diamond, over a whole batch of families.
``copy_blocked`` does the same for any pattern from a table of the
family words of its induced copies in 2^[n], built once per (n, pattern)
by a depth-first extension along the linear extension: a copy lacking
exactly one mask of a family blocks that mask.  The diamond keeps its
own step: B_6 holds 9,751 diamonds, and pairing families with them all
made the n = 6 search 4x slower (20.6 s against 5.0 s).  Both read
and write words only through ``families``, which owns their layout.

Witnesses are checked again by one implementation of the embedding
conditions, ``first_invalid_row``: it takes rows of image masks, so a
batch of a certificate's rows is one vector pass, and
``validate_embedding`` hands it the one row of an :class:`Embedding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .families import (
    SetFamily, after_words, canonical_order, elements_of, full_word, popcounts, word_bits, word_ranks
)
from .posets import PatternPoset, linear_extension, make_diamond

DIAMOND = make_diamond()

# How an earlier slot's point relates to the current one; as a pool, how
# the added set s relates to the members in it.
_BELOW = 0  # strictly below
_ABOVE = 1  # strictly above
_INCOMP = 2
_ANCHOR = 3  # the pool holding s alone


@dataclass(frozen=True)
class Embedding:
    """Witness of an induced copy: pattern point -> family member index."""

    family: SetFamily
    pattern: PatternPoset
    mapping: tuple[int, ...]

    def image_masks(self) -> tuple[int, ...]:
        return tuple(self.family.members[i] for i in self.mapping)

    def uses(self, mask: int) -> bool:
        return mask in self.image_masks()

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern.label,
            "map": [
                {"point": pt, "set": list(elements_of(self.family.members[idx]))}
                for pt, idx in enumerate(self.mapping)
            ],
        }


def validate_embedding(emb: Embedding) -> str | None:
    """Independent re-check of the embedding definition; None when valid."""
    p, f, mp = emb.pattern, emb.family, emb.mapping
    if len(mp) != p.size:
        return "mapping length differs from pattern size"
    if any(not 0 <= i < len(f.members) for i in mp):
        return "mapping index out of range"
    # indices in range pick members, and distinct indices distinct masks
    bad = first_invalid_row(p, [emb.image_masks()])
    return None if bad is None else bad[1]


def first_invalid_row(
    p: PatternPoset, images, members=None, added: np.ndarray | None = None
) -> tuple[int, str] | None:
    """First row of image masks that is no induced copy of p, with the reason.

    ``images`` is an (r, p.size) array of masks, point by point.  Row i
    must be distinct masks whose inclusions are exactly p's order
    (``p.leq[a][b]`` iff ``x_a & x_b == x_a``) and, when ``members`` is
    given, members of it or ``added[i]``.  This is the one
    implementation of that test; validate_embedding applies it to one
    row.  Returns None when every row passes.  It holds a few
    (p.size, p.size, r) arrays, so callers pass a batch of rows at most.
    """
    k = p.size
    x = np.array(images, dtype=np.uint64).reshape(-1, k).T.copy()  # x[a]: point a's images
    outside = np.zeros(x.shape[1], dtype=bool)
    if members is not None:
        member = np.isin(x, np.array(members, dtype=np.uint64), kind="sort")
        if added is not None:
            member |= x == np.asarray(added, dtype=np.uint64)
        outside = ~member.all(0)
    inside = (x[:, None] & x[None]) == x[:, None]  # inside[a, b]: x_a is inside x_b
    upper = (np.arange(k)[:, None] < np.arange(k))[:, :, None]  # the pairs a < b
    repeated = (inside & inside.transpose(1, 0, 2) & upper).any((0, 1))
    mismatch = inside != np.array(p.leq, dtype=bool)[:, :, None]
    bad = np.flatnonzero(outside | repeated | mismatch.any((0, 1)))
    if not len(bad):
        return None
    i = int(bad[0])
    if outside[i]:
        return i, "mapping index out of range"
    if repeated[i]:
        return i, "mapping is not injective"
    a, b = divmod(int(mismatch[:, :, i].argmax()), k)
    return i, f"relation mismatch at pattern pair ({a}, {b})"


class _Plan:
    """Search order and per-slot constraints for one pattern.

    ``pick`` gathers each slot's pool of candidates: pool 0, every
    member, without an anchor; with one, s alone for the anchor and the
    members above, below or incomparable to s for the other slots, which
    are not checked against the anchor.  ``need`` counts the slots per
    pool, so a pool that is too short rules the plan out at once.
    """

    __slots__ = ("size", "order", "checks", "pick", "need")

    def __init__(self, p: PatternPoset, order: tuple[int, ...], anchor: int | None = None):
        self.size = p.size
        self.order = order
        self.checks = tuple(
            tuple((e, _kind(p, order[e], pt)) for e in range(slot) if anchor not in (order[e], pt))
            for slot, pt in enumerate(order)
        )
        kinds = [0 if anchor is None else _ANCHOR if pt == anchor else _kind(p, anchor, pt) for pt in order]
        # itemgetter returns a bare item, not a 1-tuple, for one slot
        self.pick = itemgetter(*kinds) if len(kinds) > 1 else lambda pools: (pools[kinds[0]],)
        self.need = tuple((kind, kinds.count(kind)) for kind in (_BELOW, _ABOVE, _INCOMP) if kind in kinds)


def _kind(p: PatternPoset, earlier: int, pt: int) -> int:
    return _BELOW if p.leq[earlier][pt] else _ABOVE if p.leq[pt][earlier] else _INCOMP


def _anchored_order(p: PatternPoset, anchor: int) -> tuple[int, ...]:
    """The anchor, then repeatedly the point comparable to the most placed
    ones (ties by point index), so comparisons prune as early as possible."""
    order = [anchor]
    rest = [pt for pt in range(p.size) if pt != anchor]
    while rest:
        order.append(max(rest, key=lambda b: (sum(_kind(p, a, b) != _INCOMP for a in order), -b)))
        rest.remove(order[-1])
    return tuple(order)


@lru_cache(maxsize=None)
def _plan(p: PatternPoset) -> _Plan:
    return _Plan(p, linear_extension(p))


def _search(plan: _Plan, pools) -> tuple[int, ...] | None:
    """Backtracking core over pools of distinct masks.

    Each slot (position in the search order) tries the masks of its
    pool, as ``plan.pick`` says, in order.  Every relation it checks is
    strict, so no mask takes two checked slots.  Returns the image masks
    point by point, or None.
    """
    k = plan.size
    image = [0] * k
    checks = plan.checks
    candidates = plan.pick(pools)

    def rec(slot: int) -> bool:
        if slot == k:
            return True
        for m in candidates[slot]:
            for eslot, kind in checks[slot]:
                other = image[eslot]
                inter = other & m
                if kind == _BELOW:
                    if inter != other or other == m:
                        break
                elif kind == _ABOVE:
                    if inter != m or other == m:
                        break
                elif inter == other or inter == m:
                    break
            else:
                image[slot] = m
                if rec(slot + 1):
                    return True
        return False

    if not rec(0):
        return None
    by_point = [0] * k
    for slot, pt in enumerate(plan.order):
        by_point[pt] = image[slot]
    return tuple(by_point)


def _through(members: tuple[int, ...], s: int, plans) -> tuple[int, ...] | None:
    """Image masks, point by point, of the first copy through s in
    members + {s} that the plans find, tried in turn; None if none has one.

    ``members`` must not contain s.  They are split once into the pools
    above, below and incomparable to s, each in the given order, so a
    plan finds the least copy along its search order: a member left out
    of a pool is in no copy with s at that point.
    """
    pools = ([], [], [], (s,))  # by kind; _ANCHOR: s alone
    for x in members:
        inter = x & s
        pools[_BELOW if inter == s else _ABOVE if inter == x else _INCOMP].append(x)
    for plan in plans:
        if any(len(pools[kind]) < need for kind, need in plan.need):
            continue
        images = _search(plan, pools)
        if images is not None:
            return images
    return None


@lru_cache(maxsize=None)
def _pinned_plans(p: PatternPoset) -> tuple[_Plan, ...]:
    """Per point, the linear-extension plan anchored at that point."""
    order = linear_extension(p)
    return tuple(_Plan(p, order, x) for x in range(p.size))


@lru_cache(maxsize=None)
def _orbit_representatives(p: PatternPoset) -> tuple[int, ...]:
    """Least point of each automorphism orbit of p.

    Mapping each point a to the mask of its down-set {b <= a} is an
    order embedding, so the embeddings of p into those k masks are
    exactly its automorphisms; y shares x's orbit iff one sends x to y.
    """
    k = p.size
    downsets = tuple(sum(1 << b for b in range(k) if p.leq[b][a]) for a in range(k))
    plans = _pinned_plans(p)
    reps: list[int] = []
    seen: set[int] = set()
    for x in range(k):
        if x in seen:
            continue
        reps.append(x)
        seen.update(
            y for y in range(x, k)
            if _through(downsets[:y] + downsets[y + 1:], downsets[y], plans[x:x + 1]) is not None
        )
    return tuple(reps)


@lru_cache(maxsize=None)
def _anchored_plans(p: PatternPoset) -> tuple[_Plan, ...]:
    return tuple(_Plan(p, _anchored_order(p, x), x) for x in _orbit_representatives(p))


def find_induced(f: SetFamily, p: PatternPoset) -> Embedding | None:
    """First induced copy of p inside f, or None if f is p-free."""
    images = _search(_plan(p), (f.members,)) if len(f) >= p.size else None
    return None if images is None else Embedding(f, p, tuple(map(f.members.index, images)))


def find_induced_using(f: SetFamily, s: int, p: PatternPoset) -> Embedding | None:
    """First induced copy of p in f + {s} whose image includes s.

    s goes on the least pattern point that can take it, and the other
    points take the lexicographically least members along the linear
    extension.  Copies avoiding s are ignored, so None means exactly that
    every copy in the extended family avoids the added set.
    """
    if s in f:
        raise ValueError(f"set {sorted(elements_of(s))} is already a member")
    images, extended = _through(f.members, s, _pinned_plans(p)), f.add(s)
    return None if images is None else Embedding(extended, p, tuple(map(extended.members.index, images)))


# Entries per block of the pairwise matrices in find_diamond; a block and
# its temporaries stay near 16 MB whatever the family size.
_BLOCK = 1 << 20
# Multiply-adds find_diamond's first row block under a bottom may cost,
# so that a hit in its first rows returns at once; later blocks double up
# to _BLOCK entries.
_FIRST_WORK = 1 << 18


def _row_blocks(n: int):
    """find_diamond's (start, stop) row ranges over a bottom's n strict
    supersets, doubling from a first block of about _FIRST_WORK
    multiply-adds up to _BLOCK entries."""
    start, step, cap = 0, max(1, _FIRST_WORK // (n * n)), max(1, _BLOCK // n)
    while start < n:
        step = min(step, cap)
        yield start, start + step
        start, step = start + step, 2 * step


def _first_topped_pair(sups: np.ndarray) -> tuple[int, int] | None:
    """Least (i, j) in row-major order such that sups[i] and sups[j] are
    incomparable and some sups[k] contains both, or None: find_diamond's
    middle pair over the strict supersets of one bottom.

    Rows are taken in blocks; a row can be a middle only if it has a strict
    superset ("live") and some incomparable partner, and only its strict
    supersets can be tops, so the containment product runs over live rows
    and their tops only.  The relation is symmetric, so the least row with
    a hit has its hits to the right of the diagonal.
    """
    n = len(sups)
    for r0, r1 in _row_blocks(n):
        rows = sups[r0:r1, None]
        inter = rows & sups
        inside, differs = inter == rows, inter != sups
        up = inside & differs  # rows[i] is a strict subset of sups[k]
        live = np.flatnonzero(up.any(1))
        incomparable = (differs & ~inside)[live]
        if not incomparable.any():
            continue
        up = up[live]
        tops = np.flatnonzero(up.any(0))
        lhs = up[:, tops].astype(np.float32)
        top_masks = sups[tops, None]
        first = np.full(len(live), n)
        col_step = max(1, _BLOCK // len(tops))
        for c0 in range(r0 + int(live[0]) + 1, n, col_step):
            cols = sups[c0:c0 + col_step]
            # below[t, j]: cols[j] is a strict subset of tops[t]
            below = ((cols & top_masks) == cols) & (cols != top_masks)
            hit = (lhs @ below.astype(np.float32) > 0) & incomparable[:, c0:c0 + col_step]
            first = np.minimum(first, np.where(hit.any(1), c0 + hit.argmax(1), n))
            if first[0] < n:
                break  # no earlier row is left to hit
        got = np.flatnonzero(first < n)
        if len(got):
            return r0 + int(live[got[0]]), int(first[got[0]])
    return None


def find_diamond(f: SetFamily) -> Embedding | None:
    """Specialized detector for the diamond pattern.

    Walks the bottoms b in canonical order.  Every top of a pair of b's
    strict supersets is itself one of them, so with L[i, k] meaning that
    superset i lies inside superset k, the pairs with a common top are the
    nonzero entries of the containment product L @ L.T; the least
    incomparable such pair (c, d) in row-major order and then the least
    member containing c | d give the lexicographically least witness,
    equal to the generic detector's.  The first bottom with a pair
    returns, and the product is taken in bounded blocks, so a diamond under
    the first bottom is found at once whatever the family size.
    """
    arr = np.array(f.members, dtype=np.uint64)
    for b in range(len(arr) - 3):
        bottom = arr[b]
        # a strict superset of a member comes later in canonical order
        sup_idx = b + 1 + np.flatnonzero((arr[b + 1:] & bottom) == bottom)
        if len(sup_idx) < 3:
            continue
        pair = _first_topped_pair(arr[sup_idx])
        if pair is None:
            continue
        ci, di = (int(sup_idx[i]) for i in pair)
        union = arr[ci] | arr[di]
        ei = int(np.flatnonzero((arr & union) == union)[0])
        return Embedding(f, DIAMOND, (b, ci, di, ei))
    return None


def creates_copy(members: tuple[int, ...], m: int, p: PatternPoset) -> bool:
    """True iff members + {m} has an induced copy of p through m.

    The per-mask through-test of every pattern, the diamond included;
    ``members`` must not contain m and may come in any order.  m is
    placed first, on one point per automorphism orbit of p (a copy with
    m at y gives one with m at any image of y), and every later point
    draws its candidates from the members above, below or incomparable
    to m, split once per call.
    """
    return _through(members, m, _anchored_plans(p)) is not None


def creates_diamond(members, m: int) -> bool:
    """creates_copy for the diamond over a tuple or a uint64 array of masks."""
    if isinstance(members, np.ndarray):
        members = tuple(members.tolist())
    return creates_copy(members, int(m), DIAMOND)


@lru_cache(maxsize=None)
def _up_down_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    """up[x], down[x]: words of the masks containing x and inside x."""
    masks = np.arange(1 << n)
    inside = (masks[:, None] & masks) == masks  # inside[x, m]: m is inside x
    bits = word_bits(n)
    down = np.bitwise_or.reduce(np.where(inside, bits, 0), axis=1)
    up = np.bitwise_or.reduce(np.where(inside.T, bits, 0), axis=1)
    return up, down


def diamond_blocked(n: int, fams: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Word form of creates_copy on the diamond for a batch of families (n <= 6).

    ``fams`` is a (T, s) array of member masks and ``words`` their
    family words.  Returns per family the word of the masks whose
    addition creates a diamond: a top above an incomparable member pair
    (c, d) with a member inside c & d, a bottom below such a pair with a
    member containing c | d, or a middle beside a member c, incomparable
    to c, above a member inside c and below a member containing c.
    """
    up, down = _up_down_words(n)
    cols = list(fams.T)
    blocked = np.zeros_like(words)
    for i, c in enumerate(cols):
        below = np.zeros_like(words)  # masks above a member inside c
        above = np.zeros_like(words)  # masks below a member containing c
        # members come in canonical order: those inside c come before it
        for j, d in enumerate(cols):
            meet = c & d
            if j < i:
                below |= np.where(meet == d, up[d], 0)
            elif j > i:
                above |= np.where(meet == c, down[d], 0)
                pair, join = meet != c, c | d  # d is never inside c
                blocked |= np.where(pair & (down[meet] & words != 0), up[join], 0)
                blocked |= np.where(pair & (up[join] & words != 0), down[meet], 0)
        blocked |= below & above & ~(up[c] | down[c])
    return blocked


# Copies a copy table may hold; a pattern with more in 2^[n] is refused.
_MAX_COPIES = 1 << 24
# Partial rows per step of the copy-table build.
_TABLE_ROWS = 1 << 16
# (copy, family) pairs per block of copy_blocked; small blocks stay in cache.
_COPY_BLOCK = 1 << 16


def _twin_slots(p: PatternPoset, order: tuple[int, ...]) -> tuple[int | None, ...]:
    """Per slot, the last earlier slot holding a twin of its point, or None.

    Twins have equal strict down-sets and up-sets, so permuting a class of
    twins is an automorphism; giving twins increasing images along the
    order keeps one labeling of each copy's twins instead of all of them.
    """
    k = p.size

    def twins(a: int, b: int) -> bool:
        return not (p.leq[a][b] or p.leq[b][a]) and all(
            p.leq[c][a] == p.leq[c][b] and p.leq[a][c] == p.leq[b][c] for c in range(k) if c not in (a, b)
        )

    return tuple(
        next((e for e in range(slot - 1, -1, -1) if twins(order[e], pt)), None)
        for slot, pt in enumerate(order)
    )


def _embedded_words(n: int, p: PatternPoset):
    """Family words of the embeddings of p into 2^[n], in chunks.

    Depth-first along the linear extension: a chunk of partial rows
    (images of the first slots, and their word) gets each row's candidate
    word for the next slot from _search's relation tests, as words of the
    masks strictly above, strictly below or incomparable to an earlier
    image; then its children are taken in chunks of at most _TABLE_ROWS.
    Twins get increasing canonical ranks, so embeddings that differ by
    permuting twins come out once.
    """
    plan = _plan(p)
    twin = _twin_slots(p, plan.order)
    bits, after, full = word_bits(n), after_words(n), full_word(n)
    masks = canonical_order(n).astype(np.uint8)  # by rank; a mask of [6] fits a byte
    up, down = _up_down_words(n)
    strict = {_BELOW: up & ~bits, _ABOVE: down & ~bits, _INCOMP: full & ~(up | down)}

    def grow(images: np.ndarray, words: np.ndarray):
        slot = images.shape[1]
        free = np.full(len(words), full)
        for e, kind in plan.checks[slot]:
            free &= strict[kind][images[:, e]]
        if twin[slot] is not None:
            free &= after[images[:, twin[slot]]]
        ends = np.cumsum(popcounts(free))  # children up to and including each row
        lo = 0
        while lo < len(words):
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _TABLE_ROWS, "right")))
            row, rank = word_ranks(n, free[lo:hi])
            kids = words[lo:hi][row] | bits[masks[rank]]
            if slot + 1 == plan.size:
                yield kids
            elif len(kids):
                yield from grow(np.hstack([images[lo:hi][row], masks[rank, None]]), kids)
            lo = hi

    yield from grow(np.zeros((1, 0), dtype=np.uint8), np.zeros(1, dtype=np.uint64))


@lru_cache(maxsize=None)
def _copy_words(n: int, p: PatternPoset) -> np.ndarray:
    """Sorted family words of the induced copies of p in 2^[n] (n <= 6).

    Raises ValueError once more than _MAX_COPIES copies turn up: the
    table would not fit in bounded memory.
    """
    table, fresh = np.zeros(0, dtype=np.uint64), []

    def merged() -> np.ndarray:
        words = np.sort(np.concatenate([table, *fresh]))
        words = np.concatenate([words[:1], words[1:][words[1:] != words[:-1]]])
        if len(words) > _MAX_COPIES:
            raise ValueError(
                f"{p!r} has more than {_MAX_COPIES} induced copies in 2^[{n}] "
                f"({len(words)} found so far), too many for a copy table"
            )
        return words

    for words in _embedded_words(n, p):
        fresh.append(words)
        if sum(map(len, fresh)) >= max(_TABLE_ROWS, len(table)):
            table, fresh = merged(), []
    table = merged()
    table.flags.writeable = False
    return table


def copy_blocked(n: int, p: PatternPoset, words: np.ndarray) -> np.ndarray:
    """Word form of creates_copy for a batch of families (n <= 6).

    ``words`` are family words.  Returns per family the word of the
    non-members whose addition completes some induced copy of p: the
    copies C in the table with C & ~F a single bit s, that bit.  Copies
    and families are paired in blocks of about _COPY_BLOCK entries.
    Families too small for any copy to lack just one mask need no table.
    """
    blocked = np.zeros_like(words)
    if not len(words) or popcounts(words).max() < p.size - 1:
        return blocked
    copies, outside, one = _copy_words(n, p), ~words, np.uint64(1)
    step = max(1, _COPY_BLOCK // len(words))
    for c0 in range(0, len(copies), step):
        lack = copies[c0:c0 + step, None] & outside  # lack[c, f]: copy c's masks outside family f
        blocked |= np.bitwise_or.reduce(lack, axis=0, where=lack & (lack - one) == 0, initial=0)
    return blocked
