"""Freeness and saturation verdicts, certificates, and completions.

A family is *saturated* for a pattern when it is pattern-free and every
missing subset, once added, creates an induced copy; equivalently it is
a maximal pattern-free family.  Full-mode checks scan all 2^n missing
subsets in canonical (cardinality, value) order (capped at n <= 24 by
``families.MAX_TABLE_N``, as greedy completion and the catalog are);
spot mode samples missing subsets uniformly and is clearly labeled
non-exhaustive unless the sample covers every missing subset.

One scanner answers "does adding s create a copy?" for both modes and
for greedy completion, through one interface: ``creates`` for one
mask, ``first_failure`` for a batch, ``witnesses`` for a batch's rows
of image masks, ``grow`` for an accepted mask, and the ``pattern`` the
witnesses name.  ``_scanner`` picks :class:`_DiamondScanner` for the
diamond up to the table limit: lookup tables that test a batch in one
vector pass and find its witnesses in a few.  Everything else takes
:class:`_CopyScanner`, one ``detect.creates_copy`` and one through-search
per mask, with no 2^n table, so it also serves the diamond up to
n = 64.  Either names DIAMOND in the witnesses of any pattern equal to
it, as ``find_diamond`` does in a NOT_FREE witness.

Every walk over 2^[n] takes its masks in numpy batches of 2^14, so a
long scan pays numpy's per-call overhead rarely and a batch's
temporaries stay small.  The full scan cuts them from the runs of the
cardinality layers of ``families`` between members, which are views of
the layer; so besides the scanner's tables it holds two layers (the one
being built and the one before it) and one batch.
Spot mode draws its sample and sorts it into the same canonical order;
a sample as large as the missing sets is the full scan, with no draw,
and above n = 24 a sample holds at most 2^24 masks.  The scan stops at
the first batch holding a failure, and the report names the canonical
first failure, so verdict and evidence never depend on batch
boundaries.  Greedy completion walks the same layers in the same
batches, whatever the order, and asks the scanner about one candidate
at a time, growing it by each accepted set; a rejection is final, since
a copy through a set survives every later addition.

A full certificate (:class:`Certificate`) is a view over the scanner
that decided the report: it stores no rows, and builds those of one
batch of the full scan, or one entry and its :class:`Embedding`, when
read; a row depends only on its mask.  Every report is re-validated
before it is returned: a NOT_FREE witness and the sample entry by entry
with ``detect.validate_embedding``, and the certificate a batch of rows
at a time with ``detect.first_invalid_row``, the test behind both.
"""

from __future__ import annotations

import random
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .detect import (
    DIAMOND,
    Embedding,
    _pinned_plans,
    _through,
    creates_copy,
    find_diamond,
    find_induced,
    first_invalid_row,
    validate_embedding,
)
from .families import (
    MAX_TABLE_N,
    SetFamily,
    canonical_permutation,
    cardinality_layers,
    elements_of,
    family_to_json,
    popcounts,
    subset_table,
    superset_table,
)
from .posets import PatternPoset, make_hypercube

_SAMPLE_LIMIT = 8

Q3 = make_hypercube(3)


class Verdict(str, Enum):
    NOT_FREE = "NOT_FREE"
    FREE_NOT_SATURATED = "FREE_NOT_SATURATED"
    SATURATED = "SATURATED"


class InternalCheckError(RuntimeError):
    """A witness or certificate failed independent re-validation."""


class Certificate(Mapping):
    """Read-only map from each missing mask of a saturated family, in
    canonical order, to an embedding through it: a view over the scanner
    that decided the report, storing no rows.  ``rows()`` yields the rows
    a batch of the full scan at a time, and ``items()`` and ``values()``
    (so ``==`` too) build the entries a batch at a time; reading one
    entry asks the scanner for its one row and builds its
    :class:`Embedding` into ``family.add(s)``, so ``dict(cert)``, which
    reads key by key, asks once per entry.
    """

    def __init__(self, family: SetFamily, scanner: _DiamondScanner | _CopyScanner):
        self.family = family
        self.pattern = scanner.pattern
        self._scanner = scanner

    def __len__(self) -> int:
        return (1 << self.family.n) - len(self.family)

    def __iter__(self):
        for layer in _missing_layers(self.family):
            yield from layer.tolist()

    def __contains__(self, s) -> bool:
        return isinstance(s, (int, np.integer)) and 0 <= s < 1 << self.family.n and s not in self.family

    def __getitem__(self, s) -> Embedding:
        if s not in self:
            raise KeyError(s)
        return _entries(self.family, self._scanner, np.array([s], dtype=np.int64))[0][1]

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def rows(self):
        """(batch, rows) per batch of the full scan: the missing masks and
        their (len(batch), pattern.size) image masks in f + {s}."""
        for batch in _batches(_missing_layers(self.family)):
            yield batch, _witness_rows(self._scanner, batch)

    def first_fault(self) -> str | None:
        """The first row, in canonical order, that is not an induced copy
        through its added set, as validate_embedding and Embedding.uses
        would word it for that entry; None when every row passes.  Uses
        only the family, the pattern and the rows."""
        for added, images in self.rows():
            bad = first_invalid_row(self.pattern, images, self.family.members, added)
            unused = np.flatnonzero(~(images == added[:, None]).any(1))
            if bad is not None and (not len(unused) or bad[0] <= unused[0]):
                return f"certificate embedding for {elements_of(int(added[bad[0]]))} invalid: {bad[1]}"
            if len(unused):
                return (f"certificate embedding for {elements_of(int(added[unused[0]]))} "
                        "does not use the added set")
        return None


class _Items(ItemsView):
    def __iter__(self):
        cert = self._mapping
        for batch in _batches(_missing_layers(cert.family)):
            yield from _entries(cert.family, cert._scanner, batch)


class _Values(ValuesView):
    def __iter__(self):
        return (emb for _, emb in _Items(self._mapping))


def _witness_rows(scanner: _DiamondScanner | _CopyScanner, batch: np.ndarray) -> np.ndarray:
    """The scanner's witness rows of a batch of passed masks; a mask with
    no witness (a row of -1s from the tables) is an InternalCheckError."""
    images = scanner.witnesses(batch)
    lost = np.flatnonzero((images < 0).any(1))
    if len(lost):
        raise InternalCheckError(f"no witness found through {elements_of(int(batch[lost[0]]))}")
    return images


def _entries(f: SetFamily, scanner: _DiamondScanner | _CopyScanner, batch: np.ndarray) -> tuple:
    """(s, embedding into f + {s}) per mask s of batch, from the scanner's
    row of s; a mask outside f + {s} maps past the end, which
    validate_embedding reports as out of range."""
    out = []
    for s, row in zip(batch.tolist(), _witness_rows(scanner, batch).tolist()):
        extended = f.add(s)
        index = {m: i for i, m in enumerate(extended.members)}
        out.append((s, Embedding(extended, scanner.pattern, tuple(index.get(m, len(index)) for m in row))))
    return tuple(out)


@dataclass
class SaturationReport:
    """Verdict plus machine-checkable evidence.

    NOT_FREE carries an embedding inside the family itself;
    FREE_NOT_SATURATED carries one missing mask whose addition creates
    no copy; SATURATED carries a sample of (missing mask, embedding)
    pairs and, when requested, the full :class:`Certificate`, whose rows
    are built when read.
    """

    verdict: Verdict
    family: SetFamily
    pattern: PatternPoset
    mode: str
    exhaustive: bool
    checked: int
    embedding: Embedding | None = None
    missing: int | None = None
    certificate: Certificate | None = None
    sample: tuple[tuple[int, Embedding], ...] = ()
    seed: int | None = None

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict.value,
            "n": self.family.n,
            "family_size": len(self.family),
            "pattern": self.pattern.label,
            "mode": self.mode,
            "exhaustive": self.exhaustive,
            "checked": self.checked,
            "seed": self.seed,
        }
        if self.embedding is not None:
            out["witness"] = self.embedding.to_json()
        if self.missing is not None:
            out["missing_set"] = list(elements_of(self.missing))
        if self.verdict is Verdict.SATURATED:
            out["sample"] = [
                {"added_set": list(elements_of(m)), "witness": emb.to_json()}
                for m, emb in self.sample
            ]
            out["certificate_size"] = None if self.certificate is None else len(self.certificate)
        return out

    def validate(self) -> str | None:
        """Re-check all evidence with the independent validator:
        the embedding, the missing set, then the sample, then the
        certificate rows.  A missing set s of a free f creates no copy
        exactly when f + {s} is free, which the in-family search
        re-checks apart from the scanner that chose s."""
        if self.embedding is not None:
            problem = validate_embedding(self.embedding)
            if problem:
                return f"stored embedding invalid: {problem}"
        if self.missing is not None and _find_copy(self.family.add(self.missing), self.pattern) is not None:
            return f"missing set {elements_of(self.missing)} creates a copy of {self.pattern.label}"
        for m, emb in self.sample:
            problem = validate_embedding(emb)
            if problem:
                return f"certificate embedding for {elements_of(m)} invalid: {problem}"
            if not emb.uses(m):
                return f"certificate embedding for {elements_of(m)} does not use the added set"
        return None if self.certificate is None else self.certificate.first_fault()


def _find_copy(f: SetFamily, p: PatternPoset) -> Embedding | None:
    """First induced copy of p inside f: find_diamond for the diamond,
    find_induced otherwise.  The diamond scanner's tables re-check that
    f is free; other patterns' freeness rests on find_induced alone."""
    return find_diamond(f) if p == DIAMOND else find_induced(f, p)


def is_free(f: SetFamily, p: PatternPoset) -> bool:
    """True iff f contains no induced copy of p, by _find_copy's search;
    is_saturated re-checks it for the diamond only."""
    return _find_copy(f, p) is None


def _missing_layers(f: SetFamily):
    """The missing subsets in canonical order, as ascending int64 arrays:
    the nonempty runs of each cardinality layer of [n] between members,
    as views of the layer."""
    members = np.array(f.members, dtype=np.int64)
    sizes = popcounts(members)
    for c, layer in enumerate(cardinality_layers(f.n)):
        cuts = np.searchsorted(layer, members[sizes == c]).tolist()
        for start, stop in zip([0] + [i + 1 for i in cuts], cuts + [len(layer)]):
            if start < stop:
                yield layer[start:stop]


_MAX_BATCH = 1 << 14


def _batches(arrays):
    """The masks of a sequence of arrays, in their order, in batches of
    _MAX_BATCH masks; only the last may be short."""
    parts, count = [], 0
    for layer in arrays:
        while len(layer):
            part, layer = layer[:_MAX_BATCH - count], layer[_MAX_BATCH - count:]
            parts.append(part)
            count += len(part)
            if count == _MAX_BATCH:
                yield np.concatenate(parts)
                parts, count = [], 0
    if parts:
        yield np.concatenate(parts)


# Pairs per block in pair_generators (each temporary stays near 8 MB).
_PAIR_BLOCK = 1 << 20


def pair_generators(
    members: tuple[int, ...] | np.ndarray, suptab: np.ndarray, subtab: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Generators of the incomparable member pairs (i, j), i < j, of
    members in canonical order.

    Returns (bottoms, tops), each int64 arrays (keys, pairs) in canonical
    key order: bottoms pairs c & d with the lexicographically least pair
    whose members c, d have a common top (``suptab[c | d]``), tops pairs
    c | d with the least pair with a common bottom (``subtab[c & d]``).
    Pairs are taken in row blocks in lexicographic order, so the first
    pair per key of the earliest block holding it is the least.
    """
    arr = np.array(members, dtype=np.int64)
    nm = len(arr)
    none = (np.empty(0, dtype=np.int64),) * 3
    bottoms, tops = [none], [none]
    step = max(1, _PAIR_BLOCK // max(nm, 1))
    for r0 in range(0, nm, step):
        rows = arr[r0:r0 + step, None]
        inter = rows & arr
        later = np.arange(nm) > np.arange(r0, r0 + len(rows))[:, None]
        # a later member is never inside an earlier one (canonical order),
        # so a later member not containing rows[i] is incomparable to it
        i, j = np.nonzero(later & (inter != rows))
        inter, union = inter[i, j], rows[i, 0] | arr[j]
        i += r0
        keep = suptab[union]
        bottoms.append(_first_per_key(inter[keep], i[keep], j[keep]))
        keep = subtab[inter]
        tops.append(_first_per_key(union[keep], i[keep], j[keep]))
    return _canonical_generators(bottoms), _canonical_generators(tops)


def _first_per_key(keys: np.ndarray, i: np.ndarray, j: np.ndarray):
    """(keys, i, j) of the first pair per key, keys ascending."""
    keys, first = np.unique(keys, return_index=True)
    return keys, i[first], j[first]


def _canonical_generators(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """The earliest pair per key over the blocks, keys in canonical order."""
    keys, i, j = _first_per_key(*map(np.concatenate, zip(*blocks)))
    order = canonical_permutation(keys)
    return keys[order], np.stack([i[order], j[order]], axis=1)


class _DiamondScanner:
    """Per-family tables answering "does adding s create a diamond?" for
    a batch of masks in O(|f|) vector passes after O(|f|^2 + 2^n n)
    preparation.

    The family must be diamond-free.  Bottom and top roles are table
    lookups against the intersections/unions of incomparable member
    pairs that already have a common top/bottom; the middle role scans
    members once using subset/superset tables.  With no such pair, as
    in a chain, ``bottomable`` and ``topable`` stay unswept zero tables
    whose pages are never written.  ``structure`` builds the
    decomposition of a diamond-free family from the same tables.  Greedy
    completion tests one mask at a time (``creates``) and turns the
    tables into those of the family plus an accepted mask in place
    (``grow``).  ``bottoms`` and ``tops`` hold pair_generators over f,
    which only ``witnesses`` and ``structure`` read; ``grow`` drops them,
    so a grown scanner answers ``creates`` and ``first_failure`` only.
    ``middles``, the members ``first_failure`` tries in the middle role,
    is built on its first call and dropped by ``grow`` too.
    """

    pattern = DIAMOND

    def __init__(self, f: SetFamily):
        ms = f.members
        self.subtab = subset_table(f.n, ms)
        self.suptab = superset_table(f.n, ms)
        self.member_array = np.array(ms, dtype=np.int64)
        # f's members come in canonical order already
        self.bottoms, self.tops = pair_generators(ms, self.suptab, self.subtab)
        self.bottomable = superset_table(f.n, self.bottoms[0])
        self.topable = subset_table(f.n, self.tops[0])
        self.middles = None

    def first_failure(self, batch: np.ndarray) -> int | None:
        """Position of the first mask in batch whose addition creates no
        diamond, or None.  Unlike witnesses, it asks of the middle role
        only whether some member plays it, so it may try the members in
        any order."""
        pos = np.flatnonzero(~(self.bottomable[batch] | self.topable[batch]))
        if self.middles is None:
            self.middles = self._middle_members()
        # runs of members double from one up to about _FIRST_RUN entries
        # over the masks still open, as in _first; a mask leaves at its
        # first hit
        x, ms, c0, width = batch[pos], self.middles, 0, 1
        while len(pos) and c0 < len(ms):
            run = ms[c0:c0 + min(width, max(1, _FIRST_RUN // len(pos))), None]
            missed = ~self._middle(x, run).any(0)
            pos, x = pos[missed], x[missed]
            c0 += len(run)
            width *= 2
        return int(pos[0]) if len(pos) else None

    def _middle_members(self) -> np.ndarray:
        """The members that can pass _middle, nearest the middle layer
        first: those with another member strictly below them (inside
        x & d, a proper subset of d) and another strictly above (around
        x | d).  d ^ bit is d less one element or d plus one."""
        ms = self.member_array
        n = self.subtab.size.bit_length() - 1
        below, above = np.zeros(len(ms), dtype=bool), np.zeros(len(ms), dtype=bool)
        for bit in (1 << i for i in range(n)):
            other = ms ^ bit
            less = other < ms
            below |= less & self.subtab[other]
            above |= ~less & self.suptab[other]
        mids = ms[below & above]
        return mids[np.argsort(np.abs(2 * popcounts(mids).astype(np.int64) - n), kind="stable")]

    def _middle(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Whether x and member d are the middles of a diamond in f + {x}:
        incomparable, with a member inside x & d and one containing x | d."""
        xd = x & d
        return (xd != d) & (xd != x) & self.subtab[xd] & self.suptab[x | d]

    def witnesses(self, batch: np.ndarray) -> np.ndarray:
        """(len(batch), 4) int64 array: per mask s, the (bottom, middle,
        middle, top) masks of a diamond through s in f + {s}, or -1s.

        The role is the first of bottom, top, middle that s can play.  As
        a bottom s takes the first bottom generator (canonical order)
        containing it and the first member containing that pair's union;
        as a top, the first top generator inside it and the first member
        inside the pair's intersection; as a middle, the first member d
        that passes _middle, then the first members inside d & s and
        containing d | s.  Each "first" is one _first search over the
        rows of that role.
        """
        ms, (bottom_keys, bottom_pairs), (top_keys, top_pairs) = self.member_array, self.bottoms, self.tops
        out = np.full((len(batch), 4), -1, dtype=np.int64)
        bottom = self.bottomable[batch]
        top = self.topable[batch] & ~bottom
        middle = ~(bottom | top)
        s = batch[bottom]
        i, j = bottom_pairs[_first(s, bottom_keys, lambda x, g: x & g == x)].T
        union = ms[i] | ms[j]
        e = _first(union, ms, lambda u, m: m & u == u)
        out[bottom] = np.stack([s, ms[i], ms[j], ms[e]], axis=1)
        s = batch[top]
        i, j = top_pairs[_first(s, top_keys, lambda x, g: x & g == g)].T
        inter = ms[i] & ms[j]
        b = _first(inter, ms, lambda v, m: m & v == m)
        out[top] = np.stack([ms[b], ms[i], ms[j], s], axis=1)
        s = batch[middle]
        d = _first(s, ms, self._middle)
        found = d >= 0
        s, d = s[found], ms[d[found]]
        inter, union = s & d, s | d
        b = _first(inter, ms, lambda v, m: m & v == m)
        e = _first(union, ms, lambda u, m: m & u == u)
        out[np.flatnonzero(middle)[found]] = np.stack([ms[b], s, d, ms[e]], axis=1)
        return out

    def creates(self, s: int) -> bool:
        """Whether adding the missing mask s creates a diamond: the test
        of first_failure for one mask."""
        if self.bottomable[s] or self.topable[s]:
            return True
        # a middle lies above one member and below another
        return bool(self.subtab[s] and self.suptab[s] and np.count_nonzero(self._middle(s, self.member_array)))

    def grow(self, a: int) -> None:
        """Turn the tables into those of f + {a}, for a missing mask a
        whose addition creates no diamond.

        The new bottom generators are a & d for each member d
        incomparable to a with a common top, and c & d for each
        incomparable pair of members strictly inside a, whose common top
        a now is; a member above a would have been a common top of those
        pairs already, so they are new only when there is none.  The new
        top generators are dual.  All of them lie in a's down-set or
        up-set, which hold every entry that changes, and a generator
        already in its table has its closure there too, so the cost does
        not grow with 2^n.  member_array takes a at its end, and the
        generators of f, no longer current, are dropped.
        """
        ms = self.member_array
        inter, union = ms & a, ms | a
        inside, around = inter == ms, union == ms
        incomparable = ~(inside | around)
        above, below = self.suptab[a], self.subtab[a]
        if above:
            _fill_closures(self.bottomable, inter[incomparable & self.suptab[union]], up=False)
            if not below:
                for keys in _pair_keys(ms[around], np.bitwise_or):
                    _fill_closures(self.topable, keys, up=True)
        if below:
            _fill_closures(self.topable, union[incomparable & self.subtab[inter]], up=True)
            if not above:
                for keys in _pair_keys(ms[inside], np.bitwise_and):
                    _fill_closures(self.bottomable, keys, up=False)
        _fill(self.subtab, a, up=True)
        _fill(self.suptab, a, up=False)
        self.member_array = np.concatenate((ms, [a]))
        self.bottoms = self.tops = self.middles = None


def _pair_keys(xs: np.ndarray, op):
    """op (np.bitwise_and or np.bitwise_or) of the incomparable pairs of
    xs, in row blocks of about _PAIR_BLOCK pairs, as pair_generators
    takes them."""
    step = max(1, _PAIR_BLOCK // max(len(xs), 1))
    for r0 in range(0, len(xs) - 1, step):
        col, row = xs[r0:r0 + step, None], xs[r0 + 1:]
        inter = col & row
        yield op(col, row)[(inter != col) & (inter != row)]


def _fill_closures(table: np.ndarray, keys: np.ndarray, up: bool) -> None:
    """Set table on the up-set (up) or the down-set of each key not yet
    set in it.  The table is closed, so a key set there has its closure
    set too; wider closures go first, so a key that one of them covers
    is skipped."""
    fresh = keys[~table[keys]]
    if not len(fresh):
        return
    for k in sorted(np.unique(fresh).tolist(), key=int.bit_count, reverse=not up):
        if not table[k]:
            _fill(table, k, up)


@cache
def _cube_indices(up: bool) -> list[tuple]:
    """Cube indices of the eight bits of each byte value v, high bit
    first: v's up-set fixes its set bits at 1 and leaves the others free,
    its down-set leaves its set bits free and fixes the others at 0."""
    every = slice(None)
    inside, outside = (1, every) if up else (every, 0)
    return [tuple(inside if v >> b & 1 else outside for b in range(7, -1, -1)) for v in range(256)]


def _fill(table: np.ndarray, mask: int, up: bool) -> None:
    """Set a 2^n table (n <= 24, three bytes of mask) at every superset
    (up) or every subset of mask, in one strided write over the table
    seen as a 2 x ... x 2 cube whose axis i is bit n - 1 - i."""
    n = table.size.bit_length() - 1
    index = _cube_indices(up)
    cube = index[mask >> 16 & 255] + index[mask >> 8 & 255] + index[mask & 255]
    table.reshape((2,) * n)[cube[24 - n:]] = True


# Entries per (candidates, rows) matrix in _first.
_FIRST_RUN = 1 << 16


def _first(xs: np.ndarray, cands: np.ndarray, pred) -> np.ndarray:
    """Per x, the index of the first candidate c with pred(x, c), or -1.

    pred gets the open rows and a column of candidates and returns their
    (candidates, rows) matrix.  Candidates go in runs of about _FIRST_RUN
    entries over the rows still open: a few while many rows are open (at
    least four over a full scanner batch of _MAX_BATCH masks), and many
    when few are.  A row leaves once a candidate holds for it.
    """
    out = np.full(len(xs), -1, dtype=np.int64)
    rows, x, c0 = np.arange(len(xs)), xs, 0
    while len(rows) and c0 < len(cands):
        hit = pred(x, cands[c0:c0 + max(1, _FIRST_RUN // len(rows)), None])
        width = len(hit)
        # the first hit per row is the largest of descending weights
        # (argmax over axis 0 is slow); width means none
        weights = np.arange(width, 0, -1, dtype=np.min_scalar_type(width))[:, None]
        first = width - (hit * weights).max(0).astype(np.int64)
        got = first < width
        first = c0 + first[got]
        if got.any():
            out[rows[got]] = first
            rows, x = rows[~got], x[~got]
        c0 += width
    return out


class _CopyScanner:
    """The through-test of any pattern behind _DiamondScanner's interface,
    one mask at a time: ``creates`` is detect.creates_copy, and each
    witness row is the image masks of the through-search behind
    detect.find_induced_using.  It builds no table, so it serves the
    diamond above the table limit, up to n = 64, as well.
    """

    def __init__(self, f: SetFamily, p: PatternPoset):
        self.members = f.members
        self.pattern = p

    def creates(self, s: int) -> bool:
        return creates_copy(self.members, s, self.pattern)

    def first_failure(self, batch: np.ndarray) -> int | None:
        return next((i for i, s in enumerate(batch.tolist()) if not self.creates(s)), None)

    def witnesses(self, batch: np.ndarray) -> np.ndarray:
        """(len(batch), pattern.size) image masks, in batch's dtype.

        Raises InternalCheckError for a mask with no copy through it: at
        n = 64 every uint64 value is a mask, so no row value can mark it.
        """
        plans = _pinned_plans(self.pattern)
        rows = [_through(self.members, s, plans) for s in batch.tolist()]
        if None in rows:
            raise InternalCheckError(f"no witness found through {elements_of(int(batch[rows.index(None)]))}")
        return np.array(rows, dtype=batch.dtype).reshape(len(batch), self.pattern.size)

    def grow(self, a: int) -> None:
        self.members += (a,)


def _scanner(f: SetFamily, p: PatternPoset) -> _DiamondScanner | _CopyScanner:
    """The through-test scanner of a p-free family f: the tables for the
    diamond up to MAX_TABLE_N, the per-mask search otherwise.  Like
    find_diamond's, its witnesses name DIAMOND as their pattern for any
    pattern equal to it, whatever name that was given.  The tables
    re-check that f is diamond-free: no member lies inside a bottom generator."""
    if p != DIAMOND or f.n > MAX_TABLE_N:
        return _CopyScanner(f, DIAMOND if p == DIAMOND else p)
    scanner = _DiamondScanner(f)
    if scanner.subtab[scanner.bottoms[0]].any():
        raise InternalCheckError("the family holds a diamond that find_diamond missed")
    return scanner


def is_saturated(
    f: SetFamily,
    p: PatternPoset,
    mode: str = "full",
    spot: int = 64,
    seed: int = 0,
    certificate: bool = False,
) -> SaturationReport:
    """Decide freeness and saturation of f for pattern p.

    ``mode="full"`` scans every missing subset (n <= 24); ``mode="spot"``
    samples ``spot`` missing subsets uniformly with the given seed (at
    most 2^24 above n = 24) and labels the report exhaustive only if the
    sample is every missing subset.  With ``certificate=True`` a full
    report carries the map missing set -> embedding, checked a batch at a time.
    """
    return _saturation(f, p, mode, spot, seed, certificate)[0]


def _saturation(f: SetFamily, p: PatternPoset, mode="full", spot=64, seed=0, certificate=False):
    """is_saturated's report and the scanner that decided it, None when
    f is not free."""
    if mode not in ("full", "spot"):
        raise ValueError(f"mode must be 'full' or 'spot', got {mode!r}")
    if mode == "full" and f.n > MAX_TABLE_N:
        raise ValueError(f"full mode needs n <= {MAX_TABLE_N}, got {f.n}")
    if mode == "spot" and spot < 1:
        raise ValueError(f"spot mode needs a sample of at least 1, got {spot}")
    if mode == "spot" and f.n > MAX_TABLE_N and spot > 1 << MAX_TABLE_N:
        raise ValueError(f"spot mode above n = {MAX_TABLE_N} needs a sample of at most 2^{MAX_TABLE_N}, got {spot}")

    inner = _find_copy(f, p)
    if inner is not None:
        return _validated(SaturationReport(Verdict.NOT_FREE, f, p, mode, True, 0, embedding=inner)), None

    scanner, masks, missing_count = _scanner(f, p), _missing_layers(f), (1 << f.n) - len(f)
    if mode == "spot":
        # a sample that covers the missing masks is the full scan; a spot
        # report counts its whole sample as checked and keeps no certificate
        exhaustive, checked, certificate = spot >= missing_count, min(spot, missing_count), False
        if not exhaustive:
            rng = random.Random(seed)
            chosen: set[int] = set()
            while len(chosen) < spot:
                m = rng.getrandbits(f.n)
                if m not in f and m not in chosen:
                    chosen.add(m)
            # the table scanner's rows are int64; above its tables masks of [64] reach 2^63
            drawn = np.fromiter(chosen, np.int64 if f.n <= MAX_TABLE_N else np.uint64, len(chosen))
            masks = [drawn[canonical_permutation(drawn)]]
    else:
        exhaustive, checked, seed = True, None, None

    scanned, missing, head = 0, None, np.empty(0, dtype=np.int64)
    for batch in _batches(masks):
        bad = scanner.first_failure(batch)
        if bad is not None:
            scanned += bad + 1
            missing = int(batch[bad])
            break
        head = head if scanned else batch[:_SAMPLE_LIMIT]
        scanned += len(batch)

    report = SaturationReport(
        Verdict.SATURATED if missing is None else Verdict.FREE_NOT_SATURATED,
        f, p, mode, exhaustive, scanned if checked is None else checked, missing=missing, seed=seed,
    )
    if missing is None:
        # every mask passed, so the first batch starts with the first
        # missing (or sampled) masks in canonical order
        report.sample = _entries(f, scanner, head)
        report.certificate = Certificate(f, scanner) if certificate else None
    return _validated(report), scanner


def _validated(report: SaturationReport) -> SaturationReport:
    """The report itself, once its stored evidence re-validates."""
    problem = report.validate()
    if problem:
        raise InternalCheckError(problem)
    return report


def greedy_saturate(
    f: SetFamily, p: PatternPoset, order: str = "canonical", seed: int = 0
) -> SetFamily:
    """Complete a free family to a saturated one by a single greedy pass.

    Candidates are all 2^n subsets in the requested order (``canonical``,
    ``reverse``, or seeded ``shuffle``); each set that keeps the family
    free is added.  After one pass the result is saturated: any rejected
    set already created a copy against a subfamily of the result.  The
    candidates stream in _batches from ``cardinality_layers``: as they
    come for ``canonical``, each complemented for ``reverse`` (the
    complements of layer c, ascending, are layer n - c, descending), and
    copied in turn into one int64 array (128 MiB at n = 24) that
    ``shuffle`` permutes as it would a list, by swaps.
    Each candidate is one ``creates`` of the scanner, which grows by each
    accepted set; for the diamond that is a lookup in tables grown in
    place.  The scanner starts from the empty family, whose tables need
    no pair pass, and takes f's members as accepted sets first.
    """
    if order not in ("canonical", "reverse", "shuffle"):
        raise ValueError(f"unknown order {order!r}")
    if f.n > MAX_TABLE_N:
        raise ValueError(f"greedy completion needs n <= {MAX_TABLE_N}, got {f.n}")
    if not is_free(f, p):
        raise ValueError("input family already contains a copy of the pattern")
    layers = cardinality_layers(f.n)
    if order == "reverse":
        layers = (f.full_mask ^ layer for layer in layers)
    elif order == "shuffle":
        masks, at = np.empty(1 << f.n, dtype=np.int64), 0
        for layer in layers:
            masks[at:at + len(layer)] = layer
            at += len(layer)
        random.Random(seed).shuffle(masks)
        layers = [masks]
    scanner = _scanner(SetFamily(f.n), p)
    for m in f.members:
        scanner.grow(m)
    present = set(f.members)
    for batch in _batches(layers):
        for m in batch.tolist():
            if m not in present and not scanner.creates(m):
                scanner.grow(m)
                present.add(m)
    return SetFamily(f.n, tuple(present))


def chain_family(n: int) -> SetFamily:
    """The maximal chain {}, {1}, {1,2}, ..., [n]."""
    masks = [0]
    m = 0
    for i in range(n):
        m |= 1 << i
        masks.append(m)
    return SetFamily(n, tuple(masks))


def empty_plus_singletons(n: int) -> SetFamily:
    return SetFamily(n, (0,) + tuple(1 << i for i in range(n)))


def full_plus_cosingletons(n: int) -> SetFamily:
    full = (1 << n) - 1
    return SetFamily(n, (full,) + tuple(full ^ (1 << i) for i in range(n)))


def q3_construction(n: int) -> SetFamily:
    """Size 3n-2 family: all singletons, the pairs {1,j} and {2,j} for
    j >= 3, plus the empty and the full set."""
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    masks = {0, (1 << n) - 1}
    masks.update(1 << i for i in range(n))
    for j in range(2, n):
        masks.add((1 << 0) | (1 << j))
        masks.add((1 << 1) | (1 << j))
    return SetFamily(n, tuple(masks))


# The named diamond-saturated constructions, for the catalog and classify
DIAMOND_CONSTRUCTIONS = (
    ("chain", chain_family),
    ("empty+singletons", empty_plus_singletons),
    ("full+cosingletons", full_plus_cosingletons),
)


@dataclass
class CatalogEntry:
    name: str
    family: SetFamily | None
    emitted: bool
    reason: str | None = None
    report: SaturationReport | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "emitted": self.emitted,
            "size": None if self.family is None else len(self.family),
            "family": None if self.family is None else family_to_json(self.family),
            "reason": self.reason,
            "verdict": None if self.report is None else self.report.verdict.value,
        }


def upper_bound_catalog(n: int, p: PatternPoset) -> list[CatalogEntry]:
    """Named saturated constructions applicable to p, each verified in
    full mode before emission; failed constructions are reported, not
    emitted.  Raises ValueError unless 1 <= n <= MAX_TABLE_N."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"catalog needs 1 <= n <= {MAX_TABLE_N}, got {n}")
    if p == DIAMOND:
        builders = DIAMOND_CONSTRUCTIONS
    elif p == Q3:
        builders = [("q3-grid", q3_construction)]
    else:
        return []
    entries = []
    for name, build in builders:
        try:
            fam = build(n)
        except ValueError as exc:
            entries.append(CatalogEntry(name, None, False, reason=str(exc)))
            continue
        report = is_saturated(fam, p, mode="full")
        if report.verdict is Verdict.SATURATED:
            entries.append(CatalogEntry(name, fam, True, report=report))
        else:
            entries.append(
                CatalogEntry(name, fam, False, reason=f"verdict {report.verdict.value}", report=report)
            )
    return entries
