"""Independent brute-force oracles used to cross-check the library.

Everything here is definitional and deliberately dumb: exhaustive
enumeration over injective tuples, quantifier loops, full matrix
methods.  None of it shares code paths with the implementations under
test.
"""

from __future__ import annotations

import itertools
import random

from posetsat.families import SetFamily, member_key
from posetsat.posets import PatternPoset

NOT_FREE = "NOT_FREE"
FREE_NOT_SATURATED = "FREE_NOT_SATURATED"
SATURATED = "SATURATED"


def inclusion_matrix(members) -> list[list[bool]]:
    return [[a & b == a for b in members] for a in members]


def has_induced(f: SetFamily, p: PatternPoset, incl=None) -> bool:
    """Exhaustive check over all injective point -> member tuples."""
    members = f.members
    k = p.size
    if len(members) < k:
        return False
    if incl is None:
        incl = inclusion_matrix(members)
    leq = p.leq
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    for combo in itertools.permutations(range(len(members)), k):
        if all(leq[a][b] == incl[combo[a]][combo[b]] for a, b in pairs):
            return True
    return False


def find_induced_mapping(f: SetFamily, p: PatternPoset):
    members = f.members
    k = p.size
    incl = inclusion_matrix(members)
    leq = p.leq
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    for combo in itertools.permutations(range(len(members)), k):
        if all(leq[a][b] == incl[combo[a]][combo[b]] for a, b in pairs):
            return combo
    return None


def has_induced_using(f: SetFamily, s: int, p: PatternPoset) -> bool:
    """Filtered brute force: copies in f + {s} whose image includes s."""
    extended = f.add(s)
    s_idx = extended.members.index(s)
    members = extended.members
    incl = inclusion_matrix(members)
    leq = p.leq
    k = p.size
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    for combo in itertools.permutations(range(len(members)), k):
        if s_idx not in combo:
            continue
        if all(leq[a][b] == incl[combo[a]][combo[b]] for a, b in pairs):
            return True
    return False


def has_induced_through(f: SetFamily, s: int, p: PatternPoset) -> bool:
    """has_induced_using for patterns too large for all permutations:
    the same injective tuples into f + {s}, built point by point in
    index order, a partial tuple dropped as soon as two of its points
    break p's order; a full tuple counts when it holds s."""
    members = f.add(s).members
    leq = p.leq

    def extend(image: list[int]) -> bool:
        a = len(image)
        if a == p.size:
            return s in image
        for m in members:
            if m not in image and all(
                leq[b][a] == (x & m == x) and leq[a][b] == (x & m == m) for b, x in enumerate(image)
            ):
                if extend(image + [m]):
                    return True
        return False

    return extend([])


def least_witness_using(f: SetFamily, s: int, p: PatternPoset):
    """The witness rule of find_induced_using by brute force.

    s goes on the least pattern point that can take it; the copy is the
    injective map into f + {s}, as member indices, that is least when
    read along the linear extension (repeatedly the least unplaced point
    whose strict down-set is placed).  Returns the point-indexed tuple,
    or None when no copy uses s.
    """
    members = f.add(s).members
    s_idx = members.index(s)
    k = p.size
    order: list[int] = []
    while len(order) < k:
        order.append(min(
            a for a in range(k)
            if a not in order and all(b in order for b in range(k) if b != a and p.leq[b][a])
        ))
    incl = inclusion_matrix(members)
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    for x in range(k):
        at = order.index(x)
        # permutations come in lexicographic order of the slot tuple
        for combo in itertools.permutations(range(len(members)), k):
            if combo[at] != s_idx:
                continue
            mapping = [0] * k
            for slot, pt in enumerate(order):
                mapping[pt] = combo[slot]
            if all(p.leq[a][b] == incl[mapping[a]][mapping[b]] for a, b in pairs):
                return tuple(mapping)
    return None


def saturation_verdict(f: SetFamily, p: PatternPoset) -> str:
    """Definitional verdict: freeness, then one full missing-set pass.

    Since a free family only gains copies through the added set, plain
    has_induced on the extended family is the right test.
    """
    if has_induced(f, p):
        return NOT_FREE
    for m in range(1 << f.n):
        if m in f:
            continue
        if not has_induced(f.add(m), p):
            return FREE_NOT_SATURATED
    return SATURATED


def scan_reference(f: SetFamily, through) -> tuple[int, int | None, list[int]]:
    """Scalar full scan: walk the missing sets in canonical order and stop
    at the first one for which ``through(s)`` is false.

    Returns (sets checked, first failing set or None, passing sets in
    scan order), the numbers a full-mode report is built from.
    """
    missing = sorted((m for m in range(1 << f.n) if m not in f), key=member_key)
    good = []
    for checked, m in enumerate(missing, 1):
        if not through(m):
            return checked, m, good
        good.append(m)
    return len(good), None, good


def diamond_quadruple(quad) -> bool:
    """Do the four masks form a diamond (b < c,d < e with c,d incomparable)?"""
    b, c, d, e = quad
    strict = lambda x, y: x != y and x & y == x
    return (
        strict(b, c)
        and strict(b, d)
        and strict(c, e)
        and strict(d, e)
        and strict(b, e)
        and not (c & d == c or c & d == d)
    )


def diamond_through(f: SetFamily, s: int) -> bool:
    """Quantifier-loop check: does f + {s} contain a diamond using s?"""
    members = f.add(s).members
    for quad in itertools.permutations(members, 4):
        if s not in quad:
            continue
        b, c, d, e = quad
        if c > d:
            continue  # middles are symmetric
        if diamond_quadruple(quad):
            return True
    return False


def minimal_brute(f: SetFamily) -> set[frozenset[int]]:
    """Quadratic pairwise-inclusion filter on element frozensets."""
    as_sets = [frozenset(i + 1 for i in range(f.n) if m >> i & 1) for m in f.members]
    return {s for s in as_sets if not any(t < s for t in as_sets)}


def maximal_brute(f: SetFamily) -> set[frozenset[int]]:
    as_sets = [frozenset(i + 1 for i in range(f.n) if m >> i & 1) for m in f.members]
    return {s for s in as_sets if not any(t > s for t in as_sets)}


def transitive_reduction_edges(f: SetFamily) -> set[tuple[int, int]]:
    """Cubic matrix method: strict inclusion minus two-step implications."""
    ms = f.members
    t = len(ms)
    strict = [[ms[a] != ms[b] and ms[a] & ms[b] == ms[a] for b in range(t)] for a in range(t)]
    edges = set()
    for a in range(t):
        for b in range(t):
            if not strict[a][b]:
                continue
            if not any(strict[a][c] and strict[c][b] for c in range(t)):
                edges.add((a, b))
    return edges


def bottom_of_diamond_masks(f: SetFamily) -> set[int]:
    """Definitional scan: all X in P([n]) that form a diamond as the
    bottom with three members of f."""
    out = set()
    members = f.members
    for x in range(1 << f.n):
        found = False
        for c, d, e in itertools.permutations(members, 3):
            if c > d:
                continue
            if x not in (c, d, e) and diamond_quadruple((x, c, d, e)):
                found = True
                break
        if found:
            out.add(x)
    return out


def top_of_diamond_masks(f: SetFamily) -> set[int]:
    out = set()
    members = f.members
    for x in range(1 << f.n):
        for b, c, d in itertools.permutations(members, 3):
            if c > d:
                continue
            if x not in (b, c, d) and diamond_quadruple((b, c, d, x)):
                out.add(x)
                break
    return out


def middle_generators_brute(f: SetFamily) -> tuple[set[int], dict[int, tuple[int, int, int]]]:
    """GB by definition, and the least diamond over each member of B.

    B holds the maximal bottoms of diamonds over three members that lie in
    no minimal member; GB the members that are a middle of a diamond over
    some member of B.  The least diamond over b is the lexicographically
    least (middle, middle, top) in canonical member order."""
    bottoms = bottom_of_diamond_masks(f)
    minimal = [m for m in f.members if not any(s != m and s & m == s for s in f.members)]
    b_family = [
        b for b in bottoms
        if not any(c != b and b & c == b for c in bottoms) and not any(b & a == b for a in minimal)
    ]
    middles: set[int] = set()
    least: dict[int, tuple[int, int, int]] = {}
    for b in b_family:
        for c, d, e in itertools.permutations(f.members, 3):
            if diamond_quadruple((b, c, d, e)):
                middles.update((c, d))
                least.setdefault(b, (c, d, e))
    return middles, least


def l25_loop(f: SetFamily, minimal, maximal):
    """L2.5 by counting members per minimal and maximal set: the first
    failing ("minimal" | "maximal", set, count), or None."""
    for a in minimal:
        have = sum(1 for m in f.members if m.bit_count() >= a.bit_count())
        if have < a.bit_count():
            return "minimal", a, have
    for x in maximal:
        have = sum(1 for m in f.members if m.bit_count() <= x.bit_count())
        if have < f.n - x.bit_count():
            return "maximal", x, have
    return None


def l26_loop(f: SetFamily, bottoms, tops):
    """L2.6 by scanning members per set and element: the first failing
    ("B" | "Y", set, element), or None."""
    for b in bottoms:
        for i in range(1, f.n + 1):
            bit = 1 << (i - 1)
            if not b & bit and not any(m & (b | bit) == m and m & bit for m in f.members):
                return "B", b, i
    for c in tops:
        for i in range(1, f.n + 1):
            bit = 1 << (i - 1)
            if c & bit and not any(m & c == c ^ bit and not m & bit for m in f.members):
                return "Y", c, i
    return None


def all_labeled_posets(k: int) -> list[PatternPoset]:
    """Every partial order on k labeled points, by filtering all
    irreflexive relation choices for antisymmetry and transitivity."""
    cells = [(a, b) for a in range(k) for b in range(k) if a != b]
    out = []
    for bits in itertools.product((False, True), repeat=len(cells)):
        rows = [[a == b for b in range(k)] for a in range(k)]
        for (a, b), v in zip(cells, bits):
            rows[a][b] = rows[a][b] or v
        ok = True
        for a in range(k):
            for b in range(k):
                if a != b and rows[a][b] and rows[b][a]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in range(k):
                for b in range(k):
                    if rows[a][b]:
                        for c in range(k):
                            if rows[b][c] and not rows[a][c]:
                                ok = False
        if ok:
            out.append(PatternPoset(k, tuple(tuple(r) for r in rows)))
    return out


def pattern_canon(p: PatternPoset) -> tuple:
    """Least flattened matrix over all point relabelings."""
    k = p.size
    best = None
    for perm in itertools.permutations(range(k)):
        flat = tuple(p.leq[perm[a]][perm[b]] for a in range(k) for b in range(k))
        if best is None or flat < best:
            best = flat
    return best


def all_pattern_classes(max_k: int) -> list[PatternPoset]:
    """One representative per isomorphism class of posets on 1..max_k points."""
    out = []
    for k in range(1, max_k + 1):
        seen = set()
        for p in all_labeled_posets(k):
            key = pattern_canon(p)
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def random_family(rng: random.Random, max_n: int = 4, max_size: int = 8) -> SetFamily:
    n = rng.randint(1, max_n)
    size = rng.randint(0, min(max_size, 1 << n))
    masks = rng.sample(range(1 << n), size)
    return SetFamily(n, tuple(masks))


def apply_perm(mask: int, perm) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def relabel(f: SetFamily, perm) -> SetFamily:
    return SetFamily(f.n, tuple(apply_perm(m, perm) for m in f.members))


def orbit_equal_brute(f: SetFamily, g: SetFamily) -> bool:
    if f.n != g.n or len(f.members) != len(g.members):
        return False
    gm = set(g.members)
    for perm in itertools.permutations(range(f.n)):
        if {apply_perm(m, perm) for m in f.members} == gm:
            return True
    return False


def sat_star_brute(n: int, p: PatternPoset) -> tuple[int, list[SetFamily]]:
    """Minimum saturated size and all witnesses by full enumeration (tiny n)."""
    universe = sorted(range(1 << n), key=member_key)
    for size in range(0, (1 << n) + 1):
        hits = []
        for combo in itertools.combinations(universe, size):
            fam = SetFamily(n, combo)
            if saturation_verdict(fam, p) == SATURATED:
                hits.append(fam)
        if hits:
            return size, hits
    raise AssertionError("power set itself is always maximal")
