"""Bitmask subsets of [n] and canonically ordered families of them.

A subset of the ground set [n] = {1, ..., n} is a plain int bitmask in
which bit i-1 records membership of element i; ground sizes up to 64
keep every subset inside one machine word.  A :class:`SetFamily` holds
deduplicated member masks sorted by (cardinality, mask value) -- the
canonical member order that makes every report and golden file
deterministic.  This module owns that order: other modules take it from
``member_key``, ``cardinality_layers``, ``canonical_order`` and
``canonical_permutation`` and never rebuild it.

Text format: a header line ``n=<int>``, then one set per line as
comma-separated elements of {1..n}, with ``-`` denoting the empty set
and ``#`` starting a comment line.  A JSON mirror
``{"n": int, "sets": [[int, ...], ...]}`` is provided for tooling.

For n <= 6 the 2^n masks fit in one 64-bit word, and a family is one
word: the mask of canonical rank r sets bit 2^n - 1 - r.  Among
families of one size, the lexicographically smaller member tuple has
the larger word: it holds the lowest-ranked mask in which the two
differ, and that mask is their highest differing bit.  This module
alone knows that layout: the tables of ``word_bits``, ``after_words``
and ``full_word`` write words, and ``word_ranks`` and ``popcounts`` read
them.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Iterator

import numpy as np

MAX_GROUND = 64
# Every 2^n-scale path (scan, certificate, greedy, decomposition) stops here.
MAX_TABLE_N = 24
# One bit per mask fits a 64-bit word up to here.
WORD_MAX_N = 6


class FamilyFormatError(ValueError):
    """Malformed family text or JSON; remembers the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def member_key(mask: int) -> tuple[int, int]:
    """Canonical sort key for subsets: cardinality first, then mask value."""
    return (mask.bit_count(), mask)


def cardinality_layers(n: int) -> Iterator[np.ndarray]:
    """The masks of [n] of each cardinality 0..n, as ascending int64 arrays.

    The c-sets below 2^(h+1) whose highest element is h are h's bit over
    the (c-1)-sets below 2^h, a prefix of the previous layer; so layer c
    is built from layer c-1 in O(C(n, c)), with no pass over 2^n.  Each
    layer is filled in place, so only it and the previous one are live.
    """
    layer = np.zeros(1, dtype=np.int64)
    yield layer
    for c in range(1, n + 1):
        prev, layer, at = layer, np.empty(comb(n, c), dtype=np.int64), 0
        for h in range(c - 1, n):
            k = comb(h, c - 1)
            np.bitwise_or(prev[:k], 1 << h, out=layer[at:at + k])
            at += k
        yield layer


@lru_cache(maxsize=None)
def canonical_order(n: int) -> np.ndarray:
    """All masks of [n] in canonical order: entry r has rank r.  Cached, so
    it serves only n <= 8 (the search, the word tables and canonical_key);
    a walk over 2^[n] streams cardinality_layers instead."""
    return np.concatenate(list(cardinality_layers(n)))


def popcounts(x) -> np.ndarray:
    """uint8 set bits of each entry read as uint64: mask sizes, or family sizes of words."""
    return np.bitwise_count(np.asarray(x, dtype=np.uint64))


def canonical_permutation(masks: np.ndarray) -> np.ndarray:
    """Stable indices that sort an int64 or uint64 mask array by ``member_key``."""
    masks = np.asarray(masks).astype(np.uint64, copy=False)
    return np.lexsort((masks, popcounts(masks)))


@lru_cache(maxsize=None)
def word_bits(n: int) -> np.ndarray:
    """(2^n,) uint64 table: the word bit of each mask (n <= 6)."""
    if not 0 <= n <= WORD_MAX_N:
        raise ValueError(f"family words need n <= {WORD_MAX_N}, got {n}")
    bits = np.zeros(1 << n, dtype=np.uint64)
    bits[canonical_order(n)] = np.uint64(1) << np.arange((1 << n) - 1, -1, -1, dtype=np.uint64)
    return bits


@lru_cache(maxsize=None)
def after_words(n: int) -> np.ndarray:
    """(2^n,) uint64 table: the word of the masks after each mask (n <= 6)."""
    return word_bits(n) - np.uint64(1)


def full_word(n: int) -> np.uint64:
    """The word of every mask of [n] (n <= 6)."""
    return np.bitwise_or.reduce(word_bits(n))


def word_ranks(n: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, rank) of each member of an array of family words, rows in
    order and ranks ascending (n <= 6)."""
    # big-endian bytes and bits put bit 63 - c in column c, so rank r in 64 - 2^n + r
    cols = np.unpackbits(np.asarray(words, dtype=">u8").view(np.uint8)).reshape(-1, 64)
    return np.nonzero(cols[:, 64 - len(word_bits(n)):])


def family_words(n: int, fams: np.ndarray) -> np.ndarray:
    """One word per row of a (T, s) array of member masks."""
    return np.bitwise_or.reduce(word_bits(n)[fams], axis=1)


def _integer(x, what: str) -> int:
    """x as an int, if it is an integer (Python or numpy) but not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return int(x)


def mask_of(elements: Iterable[int], n: int) -> int:
    """Pack elements of {1..n}, integers other than bools, into a bitmask."""
    mask = 0
    for e in elements:
        e = _integer(e, "element")
        if not 1 <= e <= n:
            raise ValueError(f"element {e} out of range 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into its sorted 1-based elements."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def format_subset(mask: int) -> str:
    if mask == 0:
        return "-"
    return ",".join(str(e) for e in elements_of(mask))


@dataclass(frozen=True)
class SetFamily:
    """Duplicate-free, canonically ordered family of subsets of [n].

    Instances normalize their member list on construction and are
    immutable afterwards, so they are safe to share across threads.
    """

    n: int
    members: tuple[int, ...] = ()

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {self.n}")
        full = (1 << self.n) - 1
        for m in self.members:
            if not 0 <= m <= full:
                raise ValueError(f"mask {m} outside ground set of size {self.n}")
        object.__setattr__(self, "members", tuple(sorted(set(self.members), key=member_key)))

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build a family from iterables of 1-based elements."""
        return cls(n, tuple(mask_of(s, n) for s in sets))

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def add(self, mask: int) -> "SetFamily":
        return SetFamily(self.n, self.members + (mask,))

    def without(self, mask: int) -> "SetFamily":
        return SetFamily(self.n, tuple(m for m in self.members if m != mask))

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as element tuples, in canonical order."""
        return tuple(elements_of(m) for m in self.members)

    def __repr__(self) -> str:
        shown = ", ".join("{" + ",".join(map(str, elements_of(m))) + "}" for m in self.members)
        return f"SetFamily(n={self.n}, {{{shown}}})"


def complement_family(f: SetFamily) -> SetFamily:
    """Replace every member by its set complement inside [n] (an involution)."""
    full = f.full_mask
    return SetFamily(f.n, tuple(full ^ m for m in f.members))


def minimal_sets(f: SetFamily) -> SetFamily:
    """Members of f with no strict subset in f; always an antichain."""
    out = []
    for m in f.members:
        c = m.bit_count()
        dominated = False
        for s in f.members:
            if s.bit_count() >= c:
                break  # members are sorted by cardinality
            if s & m == s:
                dominated = True
                break
        if not dominated:
            out.append(m)
    return SetFamily(f.n, tuple(out))


def maximal_sets(f: SetFamily) -> SetFamily:
    """Members of f with no strict superset in f; always an antichain."""
    return complement_family(minimal_sets(complement_family(f)))


_HEADER_RE = re.compile(r"n\s*=\s*(\d+)")


def parse_family(text: str, strict: bool = False) -> SetFamily:
    """Parse the family text format.

    Duplicate sets raise when ``strict`` is set and otherwise produce a
    warning and are dropped.  All other format problems raise
    :class:`FamilyFormatError` with the 1-based line number.
    """
    n = None
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_RE.fullmatch(line)
            if not m:
                raise FamilyFormatError("expected header 'n=<int>' before any set line", lineno)
            n = int(m.group(1))
            if not 1 <= n <= MAX_GROUND:
                raise FamilyFormatError(f"ground size must be in 1..{MAX_GROUND}, got {n}", lineno)
            continue
        if line == "-":
            mask = 0
        else:
            try:
                elems = [int(p.strip()) for p in line.split(",")]
            except ValueError:
                raise FamilyFormatError(f"malformed set line {line!r}", lineno) from None
            try:
                mask = mask_of(elems, n)
            except ValueError as exc:
                raise FamilyFormatError(str(exc), lineno) from None
        _note(mask, seen, strict, lineno)
    if n is None:
        raise FamilyFormatError("missing header 'n=<int>'")
    return SetFamily(n, tuple(seen))


def serialize_family(f: SetFamily) -> str:
    """Render a family in the text format, members in canonical order."""
    lines = [f"n={f.n}"]
    lines.extend(format_subset(m) for m in f.members)
    return "\n".join(lines) + "\n"


def family_to_json(f: SetFamily) -> dict:
    return {"n": f.n, "sets": [list(elements_of(m)) for m in f.members]}


def family_from_json(obj: dict, strict: bool = False) -> SetFamily:
    """Read the JSON mirror: an integer n and a list of lists of integers."""
    try:
        n, raw_sets = _integer(obj["n"], "n"), obj["sets"]
    except (KeyError, TypeError) as exc:
        raise FamilyFormatError(f"bad family JSON: {exc}") from None
    if not 1 <= n <= MAX_GROUND:
        raise FamilyFormatError(f"ground size must be in 1..{MAX_GROUND}, got {n}")
    if not isinstance(raw_sets, list) or not all(isinstance(s, list) for s in raw_sets):
        raise FamilyFormatError("bad family JSON: sets must be a list of lists")
    seen: set[int] = set()
    for s in raw_sets:
        try:
            mask = mask_of(s, n)
        except (TypeError, ValueError) as exc:
            raise FamilyFormatError(str(exc)) from None
        _note(mask, seen, strict)
    return SetFamily(n, tuple(seen))


def _note(mask: int, seen: set[int], strict: bool, line: int | None = None) -> None:
    """Add a parsed set to seen; a duplicate raises if strict, else warns."""
    if mask not in seen:
        seen.add(mask)
        return
    duplicate = FamilyFormatError(f"duplicate set {format_subset(mask)!r}", line)
    if strict:
        raise duplicate
    warnings.warn(f"{duplicate} dropped", stacklevel=2)


# Bytes of a little-endian word whose index bit k is clear, for k = 0, 1, 2.
_LOW_BYTES = tuple(np.uint64(m) for m in (0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))


def _sweep(n: int, masks, down: bool) -> np.ndarray:
    """The 0/1 table of a sequence or array of masks, each entry ORed
    into its subsets (``down``) or its supersets, one pass per bit.  Bits
    0-2 index bytes inside a 64-bit word and are swept by shift-and-mask;
    higher bits by contiguous word blocks.  A table below one word takes
    the first 2^n entries of one: the entries past them are never set
    and only gain bits from below, so they pass nothing down to it.  No
    masks give the zero table unswept, so its pages are never written."""
    if n > MAX_TABLE_N:
        raise ValueError(f"lookup table needs n <= {MAX_TABLE_N}, got {n}")
    t = np.zeros(max(1 << n, 8), dtype=bool)
    masks = np.asarray(masks, dtype=np.int64)
    if not len(masks):
        return t[:1 << n]
    t[masks] = True
    dst, src = (0, 1) if down else (1, 0)
    w = t.view("<u8")
    for k, low in enumerate(_LOW_BYTES):
        shift = np.uint64(8 << k)
        w |= (w >> shift) & low if down else (w << shift) & ~low
    for k in range(3, n):
        w3 = w.reshape(-1, 2, 1 << (k - 3))
        w3[:, dst] |= w3[:, src]
    return t[:1 << n]


def superset_table(n: int, masks) -> np.ndarray:
    """Boolean array t of length 2^n with t[x] iff some given mask contains x."""
    return _sweep(n, masks, down=True)


def subset_table(n: int, masks) -> np.ndarray:
    """Boolean array t of length 2^n with t[x] iff some given mask is inside x."""
    return _sweep(n, masks, down=False)
