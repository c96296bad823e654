"""Induced-copy detection inside subset families.

An embedding maps pattern points injectively to family member indices
so that the pattern order matches mask inclusion exactly: comparable
points map to nested sets and incomparable points map to
inclusion-incomparable sets.

The generic detector backtracks over the pattern points in a fixed
linear extension (minimal points first, ties by point index) and tries
candidate members in canonical order, so the first witness found is the
lexicographically least along that search order.  A specialized diamond
detector scans incomparable pairs instead, which is much cheaper for
the 4-point pattern; both return identical witnesses on the diamond
because their traversal orders coincide.

The through-test ``creates_copy`` (does adding a set s create a copy
through s?) needs no witness, so it searches differently: s is placed
first, on one point per automorphism orbit of the pattern only, and
every later point takes its candidates from the members above, below or
incomparable to s, as in Ullmann's and VF2's candidate filtering.
Witnesses through s come from ``find_induced_using``, which keeps the
linear-extension order and so the lexicographically least witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .families import SetFamily, elements_of
from .posets import PatternPoset, linear_extension, make_diamond

DIAMOND = make_diamond()

# How an earlier slot's point relates to the current one.
_BELOW = 0  # strictly below
_ABOVE = 1  # strictly above
_INCOMP = 2


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
            "pattern": self.pattern.name or f"poset:{self.pattern.size}",
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
    if len(set(mp)) != len(mp):
        return "mapping is not injective"
    for a in range(p.size):
        for b in range(p.size):
            ma, mb = f.members[mp[a]], f.members[mp[b]]
            if p.leq[a][b] != (ma & mb == ma):
                return f"relation mismatch at pattern pair ({a}, {b})"
    return None


class _Plan:
    """Search order and per-slot constraints for one pattern.

    Without an anchor the order is the pattern's linear extension.  An
    anchored plan puts the anchor point first and then, greedily, the
    point with the most comparabilities to the points already placed
    (ties by point index), so comparisons prune as early as possible.
    Its later slots are not checked against the anchor: ``pools[i]`` is
    the anchor's check kind for slot i + 1, which the caller answers once
    per search by drawing that slot's candidates from the matching member
    list, and ``need`` counts the slots of each kind, so a list that is
    too short rules the anchor out before any search.
    """

    __slots__ = ("size", "order", "slot_of_point", "checks", "pools", "need")

    def __init__(self, p: PatternPoset, anchor: int | None = None):
        self.size = p.size
        self.order = linear_extension(p) if anchor is None else _anchored_order(p, anchor)
        self.slot_of_point = {pt: slot for slot, pt in enumerate(self.order)}
        first = 0 if anchor is None else 1
        self.checks = tuple(
            tuple((earlier, _kind(p, self.order[earlier], pt)) for earlier in range(first, slot))
            for slot, pt in enumerate(self.order)
        )
        self.pools = tuple(_kind(p, anchor, pt) for pt in self.order[1:]) if first else ()
        self.need = tuple((kind, self.pools.count(kind)) for kind in set(self.pools))


def _kind(p: PatternPoset, earlier: int, pt: int) -> int:
    if p.leq[earlier][pt]:
        return _BELOW
    if p.leq[pt][earlier]:
        return _ABOVE
    return _INCOMP


def _anchored_order(p: PatternPoset, anchor: int) -> tuple[int, ...]:
    """The anchor, then repeatedly the point comparable to the most placed ones."""
    order = [anchor]
    rest = [pt for pt in range(p.size) if pt != anchor]
    while rest:
        pt = max(rest, key=lambda b: (sum(_kind(p, a, b) != _INCOMP for a in order), -b))
        order.append(pt)
        rest.remove(pt)
    return tuple(order)


@lru_cache(maxsize=None)
def _plan(p: PatternPoset) -> _Plan:
    return _Plan(p)


def _search(members: tuple[int, ...], plan: _Plan, candidates) -> tuple[int, ...] | None:
    """Backtracking core on a raw member tuple.

    ``candidates[slot]`` lists the member indices the slot (position in
    the search order) may take, in the order they are tried.  Returns
    the point-indexed mapping tuple, or None.
    """
    k = plan.size
    if len(members) < k:
        return None
    image = [-1] * k
    used = [False] * len(members)
    checks = plan.checks

    def rec(slot: int) -> bool:
        if slot == k:
            return True
        for ci in candidates[slot]:
            if used[ci]:
                continue
            m = members[ci]
            for eslot, kind in checks[slot]:
                other = members[image[eslot]]
                inter = other & m
                if kind == _BELOW:
                    if inter != other:
                        break
                elif kind == _ABOVE:
                    if inter != m:
                        break
                elif inter == other or inter == m:
                    break
            else:
                image[slot] = ci
                used[ci] = True
                if rec(slot + 1):
                    return True
                used[ci] = False
        return False

    if not rec(0):
        return None
    mapping = [0] * k
    for slot, pt in enumerate(plan.order):
        mapping[pt] = image[slot]
    return tuple(mapping)


def _pinned(nm: int, plan: _Plan, point: int, idx: int) -> list:
    """Candidates that force ``point`` onto member ``idx``, all others free."""
    candidates = [range(nm)] * plan.size
    candidates[plan.slot_of_point[point]] = (idx,)
    return candidates


@lru_cache(maxsize=None)
def _orbit_representatives(p: PatternPoset) -> tuple[int, ...]:
    """Least point of each automorphism orbit of p.

    Mapping each point a to the mask of its down-set {b <= a} is an
    order embedding, so the embeddings of p into those k masks are
    exactly its automorphisms; y shares x's orbit iff one sends x to y.
    """
    k = p.size
    downsets = tuple(sum(1 << b for b in range(k) if p.leq[b][a]) for a in range(k))
    plan = _plan(p)
    reps: list[int] = []
    seen: set[int] = set()
    for x in range(k):
        if x in seen:
            continue
        reps.append(x)
        seen.update(
            y for y in range(x, k) if _search(downsets, plan, _pinned(k, plan, x, y)) is not None
        )
    return tuple(reps)


@lru_cache(maxsize=None)
def _anchored_plans(p: PatternPoset) -> tuple[_Plan, ...]:
    return tuple(_Plan(p, anchor=x) for x in _orbit_representatives(p))


def find_induced(f: SetFamily, p: PatternPoset) -> Embedding | None:
    """First induced copy of p inside f, or None if f is p-free."""
    plan = _plan(p)
    res = _search(f.members, plan, [range(len(f.members))] * plan.size)
    return Embedding(f, p, res) if res is not None else None


def find_induced_using(f: SetFamily, s: int, p: PatternPoset) -> Embedding | None:
    """First induced copy of p in f + {s} whose image includes s.

    Copies avoiding s are ignored, so None means exactly that every copy
    in the extended family avoids the added set.
    """
    if s in f:
        raise ValueError(f"set {sorted(elements_of(s))} is already a member")
    extended = f.add(s)
    s_idx = extended.members.index(s)
    plan = _plan(p)
    nm = len(extended.members)
    for point in range(p.size):
        res = _search(extended.members, plan, _pinned(nm, plan, point, s_idx))
        if res is not None:
            return Embedding(extended, p, res)
    return None


def find_diamond(f: SetFamily) -> Embedding | None:
    """Specialized detector for the diamond pattern.

    Scans bottoms in canonical order, then incomparable pairs of strict
    supersets, then the least common top, returning the
    lexicographically least witness (equal to the generic detector's).
    """
    ms = f.members
    nm = len(ms)
    if nm < 4:
        return None
    for b in range(nm):
        B = ms[b]
        sup_idx = [i for i in range(nm) if i != b and ms[i] & B == B]
        for pos, ci in enumerate(sup_idx):
            C = ms[ci]
            for di in sup_idx[pos + 1:]:
                D = ms[di]
                inter = C & D
                if inter == C or inter == D:
                    continue
                union = C | D
                for ei in range(nm):
                    if ms[ei] & union == union:
                        return Embedding(f, DIAMOND, (b, ci, di, ei))
    return None


def creates_copy(members: tuple[int, ...], m: int, p: PatternPoset) -> bool:
    """True iff members + {m} has an induced copy of p through m.

    Raw-tuple variant for enumeration inner loops; ``members`` must not
    contain m and may come in any order.  The diamond goes to
    creates_diamond.  Otherwise m is placed first, on one point per
    automorphism orbit of p (a copy with m at y gives one with m at any
    image of y), and every later point draws its candidates from the
    members above, below or incomparable to m, split once per call.
    """
    if p is DIAMOND or p == DIAMOND:
        return creates_diamond(members, m)
    pools: tuple[list[int], ...] = ([], [], [])  # by the anchor's check kind
    for i, x in enumerate(members):
        inter = x & m
        pools[_BELOW if inter == m else _ABOVE if inter == x else _INCOMP].append(i)
    extended = members + (m,)
    anchor = (len(members),)
    for plan in _anchored_plans(p):
        if any(len(pools[kind]) < need for kind, need in plan.need):
            continue
        if _search(extended, plan, (anchor, *(pools[kind] for kind in plan.pools))) is not None:
            return True
    return False


def creates_diamond(members, m: int) -> bool:
    """True iff members + {m} has a diamond through m (m not in members).

    Checks the three roles m can play: middle, bottom, top.
    """
    subs = [x for x in members if x & m == x]
    sups = [x for x in members if x & m == m]
    for d in members:
        dm = d & m
        if dm == d or dm == m:
            continue
        if any(b & dm == b for b in subs) and any(e & (d | m) == (d | m) for e in sups):
            return True
    for i, c in enumerate(sups):
        for d in sups[i + 1:]:
            cd = c & d
            if cd == c or cd == d:
                continue
            u = c | d
            if any(e & u == u for e in members):
                return True
    for i, c in enumerate(subs):
        for d in subs[i + 1:]:
            cd = c & d
            if cd == c or cd == d:
                continue
            if any(b & cd == b for b in members):
                return True
    return False
