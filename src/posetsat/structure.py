"""Structural decomposition of diamond-free families and the invariant
suite for diamond-saturated ones.

For a diamond-free family F over [n] the decomposition collects:

* ``A``  -- minimal members of F;
* ``B0`` -- every subset of [n] that is the bottom of a diamond whose
  other three points are members of F, as a 2^n indicator table;
* ``B1`` -- maximal elements of B0;
* ``B``  -- elements of B1 not contained in any member of A;
* ``GB`` -- members of F that occur as a middle point of a diamond over
  some member of B;
* ``W``  -- ground elements lying in no member of A;
* ``mA`` -- the largest cardinality among members of A;

plus the dual pieces ``X``/``Y0``/``Y1``/``Y``/``HY``/``Wbar``, obtained
by running the same construction on the complement family and
complementing the results back.

The decomposition shares the diamond scanner's tables (``saturate``):
B0 and Y0 are its ``bottomable`` and ``topable`` tables, not copies, and
the complement family's superset table is ``subtab`` reversed, so none
is built twice, and the decomposition runs wherever they do (n <= 24).
``verify_structure_invariants`` hands over the tables of its saturation
scan; only the public ``decompose`` runs ``find_diamond`` and builds them.

``verify_structure_invariants`` evaluates a fixed list of structural
facts (identified as L2.1 .. P4.3) that hold for every diamond-saturated
family, reporting pass, fail with a counterexample, or n/a when a
check's hypothesis is not met.  A fail on a genuinely saturated family
indicates an implementation defect and is treated as build-blocking by
the test suite and the CLI.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .detect import DIAMOND, Embedding, find_diamond
from .families import (
    MAX_TABLE_N,
    SetFamily,
    canonical_permutation,
    complement_family,
    elements_of,
    family_to_json,
    maximal_sets,
    minimal_sets,
    subset_table,
    superset_table,
)
from .saturate import SaturationReport, Verdict, _DiamondScanner, _first, _saturation, _scanner

# B0 and Y0 are listed in full in the JSON only up to this many members.
B0_LIMIT = 4096


class NotDiamondFreeError(ValueError):
    """Decomposition requested for a family that contains a diamond."""

    def __init__(self, embedding: Embedding):
        self.embedding = embedding
        super().__init__("family contains a diamond; decomposition undefined")


@dataclass
class Decomposition:
    """All primal and dual structural families for one diamond-free F.

    B0 and Y0 are indicator tables that share the diamond scanner's arrays;
    ``family`` fixes them, so ``==`` leaves them out."""

    family: SetFamily
    A: SetFamily
    B0: np.ndarray = field(compare=False)
    B1: SetFamily
    B: SetFamily
    GB: SetFamily
    W: int
    mA: int
    X: SetFamily
    Y0: np.ndarray = field(compare=False)
    Y1: SetFamily
    Y: SetFamily
    HY: SetFamily
    Wbar: int
    b_witnesses: dict[int, tuple[int, int, int]]
    y_witnesses: dict[int, tuple[int, int, int]]

    @property
    def n(self) -> int:
        return self.family.n

    def to_json(self) -> dict:
        def fam(f: SetFamily):
            return [list(elements_of(m)) for m in f.members]

        out = {
            "n": self.n,
            "A": fam(self.A),
            "B1": fam(self.B1),
            "B": fam(self.B),
            "GB": fam(self.GB),
            "W": list(elements_of(self.W)),
            "mA": self.mA,
            "X": fam(self.X),
            "Y1": fam(self.Y1),
            "Y": fam(self.Y),
            "HY": fam(self.HY),
            "Wbar": list(elements_of(self.Wbar)),
        }
        # B0/Y0 are downward/upward closures; list them only at small scale
        for name, table in (("B0", self.B0), ("Y0", self.Y0)):
            out[f"{name}_size"] = size = int(np.count_nonzero(table))
            if size <= B0_LIMIT:
                masks = np.flatnonzero(table)
                out[name] = [list(elements_of(m)) for m in masks[canonical_permutation(masks)].tolist()]
        return out


def _primal_parts(f: SetFamily, suptab: np.ndarray, gens: np.ndarray) -> tuple:
    """(A, B1, B, GB, W, mA, witnesses) of f, from its superset table and
    the bottom generators (intersections of incomparable member pairs
    with a common top)."""
    n = f.n
    A = minimal_sets(f)
    mA = max((a.bit_count() for a in A.members), default=0)
    B1 = maximal_sets(SetFamily(n, tuple(gens.tolist())))
    B = SetFamily(n, tuple(g for g in B1.members if not any(g & a == g for a in A.members)))

    def middle(x, c):
        xc = x & c
        return (xc != x) & (xc != c) & suptab[x | c]

    ms = np.array(f.members, dtype=np.int64)
    witnesses: dict[int, tuple[int, int, int]] = {}
    gb_masks: set[int] = set()
    for b in B.members:
        # b is never a member of a diamond-free family, so every m here is strict
        sups = ms[ms & b == b]
        # per member above b, the first member above b it is incomparable
        # to with a common top, or -1
        mate = _first(sups, sups, middle)
        rows = np.flatnonzero(mate >= 0)
        gb_masks.update(sups[rows].tolist())
        if len(rows):
            pm, rm = int(sups[rows[0]]), int(sups[mate[rows[0]]])
            union = pm | rm
            witnesses[b] = (pm, rm, int(ms[np.argmax(ms & union == union)]))
    return A, B1, B, SetFamily(n, tuple(gb_masks)), w_of(A), mA, witnesses


def decompose(f: SetFamily) -> Decomposition:
    """Compute the full decomposition; f must be diamond-free, n <= 24."""
    return _decomposition(f, None)


def _decomposition(f: SetFamily, tables: _DiamondScanner | None) -> Decomposition:
    """decompose, from the tables of a diamond scanner over f when given
    (the family is then known to be diamond-free); n <= 24, the table limit.

    B0 and Y0 are the tables ``bottomable`` and ``topable`` themselves.
    The complement family's superset table is ``subtab`` reversed, and its
    bottom generators are the complements of the top generators.
    """
    if f.n > MAX_TABLE_N:
        raise ValueError(f"decomposition needs n <= {MAX_TABLE_N}, got {f.n}")
    if tables is None:
        witness = find_diamond(f)
        if witness is not None:
            raise NotDiamondFreeError(witness)
        tables = _scanner(f, DIAMOND)
    full = f.full_mask
    (bottom_keys, _), (top_keys, _) = tables.bottoms, tables.tops
    B0, Y0 = tables.bottomable, tables.topable
    A, B1, B, GB, W, mA, b_witnesses = _primal_parts(f, tables.suptab, bottom_keys)
    # the complement family's parts, complemented back
    *parts, Wbar, _, witnesses = _primal_parts(complement_family(f), tables.subtab[::-1], full ^ top_keys)
    X, Y1, Y, HY = (SetFamily(f.n, tuple(full ^ m for m in g.members)) for g in parts)
    y_witnesses = {full ^ b: (full ^ c, full ^ d, full ^ e) for b, (c, d, e) in witnesses.items()}
    return Decomposition(f, A, B0, B1, B, GB, W, mA, X, Y0, Y1, Y, HY, Wbar, b_witnesses, y_witnesses)


def f_of(i: int, g: SetFamily) -> SetFamily:
    """Members of g containing element i."""
    if not 1 <= i <= g.n:
        raise ValueError(f"element {i} out of range 1..{g.n}")
    bit = 1 << (i - 1)
    return SetFamily(g.n, tuple(m for m in g.members if m & bit))


def w_of(g: SetFamily) -> int:
    """Mask of elements appearing in no member of g."""
    union = 0
    for m in g.members:
        union |= m
    return g.full_mask & ~union


@dataclass
class NestedSequence:
    """Peeling of an antichain: at each step remove every member through
    a chosen element whose incidence family is inclusion-minimal.

    ``families[i]`` is the i-th (still nonempty) stage, ``singletons[i]``
    the chosen element, and ``classes[i]`` the mask of elements whose
    incidence within stage i equals the chosen element's.
    """

    n: int
    singletons: tuple[int, ...]
    classes: tuple[int, ...]
    families: tuple[SetFamily, ...]

    @property
    def k(self) -> int:
        return len(self.singletons)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "singletons": list(self.singletons),
            "classes": [list(elements_of(c)) for c in self.classes],
            "family_sizes": [len(fam) for fam in self.families],
        }


def nested_sequence(a_family: SetFamily) -> NestedSequence:
    """Run the peeling construction on a nonempty antichain.

    Tie-break: among elements whose incidence family is
    inclusion-minimal, the smallest element index is chosen.
    """
    if not a_family.members:
        raise ValueError("nested sequence needs a nonempty family")
    if 0 in a_family:
        raise ValueError("nested sequence needs nonempty member sets")
    if minimal_sets(a_family).members != a_family.members:
        raise ValueError("nested sequence needs an antichain")
    n = a_family.n
    singletons: list[int] = []
    classes: list[int] = []
    families: list[SetFamily] = []
    current = a_family
    while current.members:
        families.append(current)
        incidence = {}
        for i in range(1, n + 1):
            fam = frozenset(f_of(i, current).members)
            if fam:
                incidence[i] = fam
        candidates = [
            i
            for i, fam in incidence.items()
            if not any(other < fam for other in incidence.values())
        ]
        a = min(candidates)
        chosen = incidence[a]
        cls = 0
        for i, fam in incidence.items():
            if fam == chosen:
                cls |= 1 << (i - 1)
        singletons.append(a)
        classes.append(cls)
        bit = 1 << (a - 1)
        current = SetFamily(n, tuple(m for m in current.members if not m & bit))
    return NestedSequence(n, tuple(singletons), tuple(classes), tuple(families))


# --- invariant suite -------------------------------------------------------

PASS = "pass"
FAIL = "fail"
NA = "n/a"


@dataclass
class LemmaCheck:
    id: str
    title: str
    status: str
    evidence: dict | None = None
    note: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class StructureReport:
    family: SetFamily
    saturation: SaturationReport
    vacuous: bool
    standing: bool
    decomposition: Decomposition | None
    nested: NestedSequence | None
    checks: tuple[LemmaCheck, ...]

    def failures(self) -> tuple[LemmaCheck, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    def to_json(self) -> dict:
        return {
            "n": self.family.n,
            "family": family_to_json(self.family),
            "saturation": self.saturation.to_json(),
            "vacuous": self.vacuous,
            "standing_assumption": self.standing,
            "decomposition": None if self.decomposition is None else self.decomposition.to_json(),
            "nested": None if self.nested is None else self.nested.to_json(),
            "lemmas": [c.to_json() for c in self.checks],
        }


_STANDING_NOTE = "requires that neither the empty set nor the full set is a member"


@dataclass(frozen=True)
class _Lemma:
    """One entry of the invariant suite: its id and title live only here.

    ``check(f, dec, nested)`` returns (ok, evidence), or a note string
    when the lemma's own hypothesis does not hold.  ``note`` is attached
    to every verdict; ``standing`` says whether the check needs the
    standing assumption.
    """

    id: str
    title: str
    check: Callable
    note: str | None
    standing: bool

    def run(
        self, f: SetFamily, dec: Decomposition, nested: NestedSequence | None, standing: bool
    ) -> LemmaCheck:
        if self.standing and not standing:
            return LemmaCheck(self.id, self.title, NA, note=_STANDING_NOTE)
        out = self.check(f, dec, nested)
        if isinstance(out, str):
            return LemmaCheck(self.id, self.title, NA, note=out)
        ok, evidence = out
        return LemmaCheck(self.id, self.title, PASS if ok else FAIL, evidence, self.note)


_LEMMAS: list[_Lemma] = []


def _lemma(cid: str, title: str, note: str | None = None, standing: bool = True):
    """Register the decorated check as the next entry of the suite."""

    def register(check):
        _LEMMAS.append(_Lemma(cid, title, check, note, standing))
        return check

    return register


@_lemma("L2.1", "families containing the empty or the full set have size >= n+1", standing=False)
def _check_l21(f: SetFamily, dec: Decomposition, nested):
    if 0 not in f and f.full_mask not in f:
        return "neither the empty set nor the full set is a member"
    return len(f) >= f.n + 1, {"size": len(f), "bound": f.n + 1}


@_lemma("L2.2", "some minimal member is incomparable to some maximal member")
def _check_l22(f: SetFamily, dec: Decomposition, nested):
    for a in dec.A.members:
        for x in dec.X.members:
            ax = a & x
            if ax != a and ax != x:
                return True, {"minimal": list(elements_of(a)), "maximal": list(elements_of(x))}
    return False, {"A_size": len(dec.A), "X_size": len(dec.X)}


def _shared(f: SetFamily, g: SetFamily) -> list[list[int]]:
    """The sets in both families, in canonical order."""
    return [list(elements_of(m)) for m in f.members if m in g]


def _chain2_verdict(g: SetFamily) -> Verdict:
    """2-chain verdict of g: free iff g is an antichain, and then saturated
    iff every set is comparable to some member."""
    if minimal_sets(g) != g:
        return Verdict.NOT_FREE
    if (subset_table(g.n, g.members) | superset_table(g.n, g.members)).all():
        return Verdict.SATURATED
    return Verdict.FREE_NOT_SATURATED


@_lemma("L2.3", "minimal members and B are disjoint and their union is 2-chain-saturated")
def _check_l23(f: SetFamily, dec: Decomposition, nested):
    overlap = _shared(dec.A, dec.B)
    union = SetFamily(dec.n, dec.A.members + dec.B.members)
    verdict = _chain2_verdict(union)
    return not overlap and verdict is Verdict.SATURATED, {
        "overlap": overlap,
        "union_size": len(union),
        "chain2_verdict": verdict.value,
    }


@_lemma("L2.4", "for i outside all minimal members there is S in F with A <= S, i not in S, S+{i} in F")
def _check_l24(f: SetFamily, dec: Decomposition, nested):
    if dec.W == 0:
        return "every ground element lies in some minimal member"
    for i in elements_of(dec.W):
        bit = 1 << (i - 1)
        for a in dec.A.members:
            if not any(
                (s & a == a) and not (s & bit) and (s | bit) in f for s in f.members
            ):
                return False, {"element": i, "minimal": list(elements_of(a))}
    return True, {"W": list(elements_of(dec.W)), "A_size": len(dec.A)}


@_lemma(
    "L2.5",
    "each minimal member A admits |A| members of size >= |A| (dual form for maximal members)",
    note=(
        "dual clause checked in the complement-derived form: for maximal X, "
        "at least n-|X| members of size at most |X|"
    ),
)
def _check_l25(f: SetFamily, dec: Decomposition, nested):
    # at_least[c] / at_most[c] members have at least / at most c elements
    counts = np.bincount([m.bit_count() for m in f.members], minlength=f.n + 1)
    at_least, at_most = np.cumsum(counts[::-1])[::-1], np.cumsum(counts)
    for a in dec.A.members:
        ca = a.bit_count()
        have = int(at_least[ca])
        if have < ca:
            return False, {"minimal": list(elements_of(a)), "count": have}
    for x in dec.X.members:
        cx = x.bit_count()
        if at_most[cx] < f.n - cx:
            return False, {"maximal": list(elements_of(x)), "count": int(at_most[cx])}
    return True, {"A_size": len(dec.A), "X_size": len(dec.X)}


@_lemma(
    "L2.6",
    "each B in B reaches every missing element: some member X_i <= B+{i} with i in X_i (and dual)",
    note="the witness set is required to contain the adjoined element i",
)
def _check_l26(f: SetFamily, dec: Decomposition, nested):
    ms = np.array(f.members, dtype=np.int64)

    def unreached(outside: np.ndarray, want: int) -> int:
        # the elements i of want with outside == {i} for no member
        single = outside[outside & (outside - 1) == 0]
        return want & ~int(np.bitwise_or.reduce(single))

    # X <= B+{i} with i in X iff X & ~B == {i}
    for b in dec.B.members:
        lost = unreached(ms & ~b, f.full_mask & ~b)
        if lost:
            return False, {"B": list(elements_of(b)), "element": elements_of(lost)[0]}
    # dually S >= C-{i} with i not in S iff C & ~S == {i}
    for c in dec.Y.members:
        lost = unreached(c & ~ms, c)
        if lost:
            return False, {"Y": list(elements_of(c)), "element": elements_of(lost)[0]}
    return True, {"B_size": len(dec.B), "Y_size": len(dec.Y)}


@_lemma("L2.7", "middle generators avoid the extremal members: GB and A disjoint, HY and X disjoint")
def _check_l27(f: SetFamily, dec: Decomposition, nested):
    bad1, bad2 = _shared(dec.GB, dec.A), _shared(dec.HY, dec.X)
    return not bad1 and not bad2, {"GB_and_A": bad1, "HY_and_X": bad2}


@_lemma("L3.1", "the peeling classes partition exactly the elements covered by minimal members")
def _check_l31(f: SetFamily, dec: Decomposition, nested: NestedSequence):
    union = 0
    for c in nested.classes:
        union |= c
    disjoint = sum(c.bit_count() for c in nested.classes) == union.bit_count()
    expected = dec.family.full_mask & ~dec.W
    return disjoint and union == expected, {
        "classes_union": list(elements_of(union)),
        "expected": list(elements_of(expected)),
    }


@_lemma("L3.2", "members surviving to stage j avoid all classes chosen earlier")
def _check_l32(f: SetFamily, dec: Decomposition, nested: NestedSequence):
    for j, fam in enumerate(nested.families):
        for t in fam.members:
            for l in range(j):
                if nested.classes[l] & t:
                    return False, {"stage": j, "member": list(elements_of(t)), "class_index": l}
    return True, {"k": nested.k}


@_lemma("P3.3", "each stage has a minimal member meeting the first i classes exactly in class i")
def _check_p33(f: SetFamily, dec: Decomposition, nested: NestedSequence):
    prefix = 0
    for i, cls in enumerate(nested.classes):
        prefix |= cls
        if not any(x & prefix == cls for x in dec.A.members):
            return False, {"stage": i}
    return True, {"k": nested.k}


@_lemma("C3.5", "size of A with its middle generators is at least n+1-mA-|W| (and the dual bound)")
def _check_c35(f: SetFamily, dec: Decomposition, nested):
    n = dec.n
    primal = len(set(dec.A.members) | set(dec.GB.members))
    primal_bound = n + 1 - dec.mA - dec.W.bit_count()
    mx = max((n - x.bit_count()) for x in dec.X.members) if dec.X.members else 0
    dual_size = len(set(dec.X.members) | set(dec.HY.members))
    dual_bound = n + 1 - mx - dec.Wbar.bit_count()
    return primal >= primal_bound and dual_size >= dual_bound, {
        "primal_size": primal,
        "primal_bound": primal_bound,
        "dual_size": dual_size,
        "dual_bound": dual_bound,
    }


@_lemma(
    "C3.7",
    "with uncovered elements present, A plus the W-containing middle generators has size >= n+1-|W|",
)
def _check_c37(f: SetFamily, dec: Decomposition, nested):
    if dec.W == 0:
        return "every ground element lies in some minimal member"
    refined = {b for b in dec.GB.members if b & dec.W == dec.W}
    size = len(set(dec.A.members) | refined)
    bound = dec.n + 1 - dec.W.bit_count()
    return size >= bound, {"size": size, "bound": bound, "W": list(elements_of(dec.W))}


@_lemma("P4.1", "small families keep minimal and maximal members apart: A and X disjoint")
def _check_p41(f: SetFamily, dec: Decomposition, nested):
    if not 2 * len(f) < 3 * f.n:
        return "requires family size below 3n/2"
    bad = _shared(dec.A, dec.X)
    return not bad, {"common": bad}


@_lemma("P4.2", "minimal members avoid HY; maximal members avoid GB")
def _check_p42(f: SetFamily, dec: Decomposition, nested):
    bad1, bad2 = _shared(dec.A, dec.HY), _shared(dec.X, dec.GB)
    return not bad1 and not bad2, {"A_and_HY": bad1, "X_and_GB": bad2}


@_lemma(
    "P4.3",
    "families of size at most n keep the two middle-generator families apart: GB and HY disjoint",
    note="implemented for GB (middles over B); the headline naming G(A) has no definition",
)
def _check_p43(f: SetFamily, dec: Decomposition, nested):
    if len(f) > f.n:
        return "requires family size at most n"
    bad = _shared(dec.GB, dec.HY)
    return not bad, {"common": bad}


def verify_structure_invariants(f: SetFamily) -> StructureReport:
    """Run the full invariant suite against a family.

    The family is first checked to be diamond-saturated in full mode;
    otherwise the report is marked vacuous and no checks run.  Checks
    whose hypotheses fail report n/a rather than pass, so reports stay
    auditable.
    """
    sat, tables = _saturation(f, DIAMOND)
    if sat.verdict is not Verdict.SATURATED:
        return StructureReport(f, sat, True, False, None, None, ())
    dec = _decomposition(f, tables)
    standing = 0 not in f and f.full_mask not in f
    # a saturated family is nonempty, so under the standing assumption its
    # minimal members are nonempty sets, as the peeling construction needs
    nested = nested_sequence(dec.A) if standing else None
    checks = tuple(lemma.run(f, dec, nested, standing) for lemma in _LEMMAS)
    return StructureReport(f, sat, False, standing, dec, nested, checks)
