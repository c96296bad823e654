"""Freeness and saturation verdicts, certificates, and completions.

A family is *saturated* for a pattern when it is pattern-free and every
missing subset, once added, creates an induced copy; equivalently it is
a maximal pattern-free family.  Full-mode checks scan all 2^n missing
subsets in canonical (cardinality, value) order (capped at n <= 24);
spot mode samples missing subsets uniformly and is clearly labeled
non-exhaustive unless the sample covers every missing subset.

The full scan walks the missing subsets in numpy batches that start at
2^12 masks and double up to a fixed cap, so a family that fails early
stops early while a long scan pays numpy's per-call overhead rarely.
For the diamond each batch is tested in one vector pass over the
scanner's lookup tables; other patterns test the masks of a batch one
at a time with ``detect.creates_copy``, and only witnesses rebuild the
extended family.  The scan stops at the first batch holding a failure,
and the report names the canonical first failure, so verdict and
evidence never depend on batch boundaries.  No per-mask Python object is kept unless a
full certificate is requested.  Spot mode sorts its sample into the same
canonical order and tests it as one batch of the same kind; above the
table limit the diamond is tested pairwise (``detect.creates_diamond``),
one mask at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from math import comb

import numpy as np

from .detect import (
    DIAMOND,
    Embedding,
    creates_copy,
    find_diamond,
    find_induced,
    find_induced_using,
    validate_embedding,
)
from .families import (
    MAX_TABLE_N,
    SetFamily,
    elements_of,
    family_to_json,
    member_key,
    subset_table,
    superset_table,
)
from .posets import PatternPoset, make_hypercube

MAX_FULL_N = 24
_SAMPLE_LIMIT = 8

Q3 = make_hypercube(3)


class Verdict(str, Enum):
    NOT_FREE = "NOT_FREE"
    FREE_NOT_SATURATED = "FREE_NOT_SATURATED"
    SATURATED = "SATURATED"


class InternalCheckError(RuntimeError):
    """A witness or certificate failed independent re-validation."""


@dataclass
class SaturationReport:
    """Verdict plus machine-checkable evidence.

    NOT_FREE carries an embedding inside the family itself;
    FREE_NOT_SATURATED carries one missing mask whose addition creates
    no copy; SATURATED carries a sample of (missing mask, embedding)
    pairs and, when requested, the full certificate map.
    """

    verdict: Verdict
    family: SetFamily
    pattern: PatternPoset
    mode: str
    exhaustive: bool
    checked: int
    embedding: Embedding | None = None
    missing: int | None = None
    certificate: dict[int, Embedding] | None = None
    sample: tuple[tuple[int, Embedding], ...] = ()
    seed: int | None = None

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict.value,
            "n": self.family.n,
            "family_size": len(self.family),
            "pattern": self.pattern.name or f"poset:{self.pattern.size}",
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
        """Re-check all stored evidence with the independent validator."""
        if self.embedding is not None:
            problem = validate_embedding(self.embedding)
            if problem:
                return f"stored embedding invalid: {problem}"
        for m, emb in self.sample:
            problem = validate_embedding(emb)
            if problem:
                return f"certificate embedding for {elements_of(m)} invalid: {problem}"
            if not emb.uses(m):
                return f"certificate embedding for {elements_of(m)} does not use the added set"
        if self.certificate is not None:
            for m, emb in self.certificate.items():
                problem = validate_embedding(emb)
                if problem:
                    return f"certificate embedding for {elements_of(m)} invalid: {problem}"
                if not emb.uses(m):
                    return f"certificate embedding for {elements_of(m)} does not use the added set"
        return None


def is_free(f: SetFamily, p: PatternPoset) -> bool:
    """True iff f contains no induced copy of p (witness via find_induced)."""
    if p == DIAMOND:
        return find_diamond(f) is None
    return find_induced(f, p) is None


def _missing_layers(f: SetFamily):
    """Missing subsets of each cardinality 0..n, as ascending int64 arrays.

    The c-sets below 2^(h+1) whose highest element is h are h's bit over
    the (c-1)-sets below 2^h, which are a prefix of the previous layer;
    so layer c is built from layer c-1 in O(C(n, c)) without a pass over
    the whole 2^n range.
    """
    n = f.n
    members = np.array(f.members, dtype=np.int64)
    sizes = np.array([m.bit_count() for m in f.members], dtype=np.int64)
    layer = np.zeros(1, dtype=np.int64)
    for c in range(n + 1):
        if c:
            layer = np.concatenate(
                [layer[: comb(h, c - 1)] | (1 << h) for h in range(c - 1, n)]
            )
        present = members[sizes == c]
        yield np.delete(layer, np.searchsorted(layer, present)) if len(present) else layer


_FIRST_BATCH = 1 << 12
_MAX_BATCH = 1 << 16


def _missing_batches(f: SetFamily):
    """Missing subsets in canonical order, in int64 batches of doubling
    size (from _FIRST_BATCH up to _MAX_BATCH); only the last may be short."""
    size, parts, count = _FIRST_BATCH, [], 0
    for layer in _missing_layers(f):
        while len(layer):
            part, layer = layer[: size - count], layer[size - count:]
            parts.append(part)
            count += len(part)
            if count == size:
                yield np.concatenate(parts)
                size, parts, count = min(2 * size, _MAX_BATCH), [], 0
    if parts:
        yield np.concatenate(parts)


def _scalar_failure(creates):
    """Batch test from a per-mask predicate: first failing position or None."""

    def first_failure(batch: np.ndarray) -> int | None:
        for i, m in enumerate(batch.tolist()):
            if not creates(m):
                return i
        return None

    return first_failure


class _DiamondScanner:
    """Per-family tables answering "does adding s create a diamond?" for
    a batch of masks in O(|f|) vector passes after O(|f|^2 + 2^n n)
    preparation.

    The family must be diamond-free.  Bottom and top roles are table
    lookups against the intersections/unions of incomparable member
    pairs that already have a common top/bottom; the middle role scans
    members once using subset/superset tables.
    """

    def __init__(self, f: SetFamily):
        self.f = f
        self.n = f.n
        ms = f.members
        self.members = ms
        self.subtab = subset_table(f.n, ms)
        self.suptab = superset_table(f.n, ms)
        bottom_gens: dict[int, tuple[int, int]] = {}
        top_gens: dict[int, tuple[int, int]] = {}
        for i in range(len(ms)):
            mi = ms[i]
            for j in range(i + 1, len(ms)):
                mj = ms[j]
                inter = mi & mj
                if inter == mi or inter == mj:
                    continue
                union = mi | mj
                if self.suptab[union] and inter not in bottom_gens:
                    bottom_gens[inter] = (i, j)
                if self.subtab[inter] and union not in top_gens:
                    top_gens[union] = (i, j)
        self.bottom_gens = dict(sorted(bottom_gens.items(), key=lambda kv: member_key(kv[0])))
        self.top_gens = dict(sorted(top_gens.items(), key=lambda kv: member_key(kv[0])))
        self.bottomable = superset_table(f.n, self.bottom_gens.keys())
        self.topable = subset_table(f.n, self.top_gens.keys())

    def first_failure(self, batch: np.ndarray) -> int | None:
        """Position of the first mask in batch whose addition creates no
        diamond, or None."""
        pos = np.flatnonzero(~(self.bottomable[batch] | self.topable[batch]))
        s = batch[pos]
        subtab, suptab = self.subtab, self.suptab
        open_ = np.ones(len(s), dtype=bool)
        for d in self.members:
            if not open_.any():
                return None
            ds = s & d
            open_ &= ~((ds != d) & (ds != s) & subtab[ds] & suptab[s | d])
        rest = pos[open_]
        return int(rest[0]) if len(rest) else None

    def _first_member(self, pred) -> int:
        for idx, m in enumerate(self.members):
            if pred(m):
                return idx
        raise AssertionError("table lookup promised a member")  # pragma: no cover

    def witness(self, s: int) -> Embedding | None:
        """Embedding through s in f + {s}, or None; deterministic."""
        ms = self.members
        quad = None  # (bottom, mid1, mid2, top) as masks
        if self.bottomable[s]:
            for g, (i, j) in self.bottom_gens.items():
                if s & g == s:
                    u = ms[i] | ms[j]
                    e = ms[self._first_member(lambda m: m & u == u)]
                    quad = (s, ms[i], ms[j], e)
                    break
        elif self.topable[s]:
            for g, (i, j) in self.top_gens.items():
                if s & g == g:
                    v = ms[i] & ms[j]
                    b = ms[self._first_member(lambda m: m & v == m)]
                    quad = (b, ms[i], ms[j], s)
                    break
        else:
            for d in ms:
                ds = d & s
                if ds == d or ds == s:
                    continue
                if self.subtab[ds] and self.suptab[d | s]:
                    b = ms[self._first_member(lambda m: m & ds == m)]
                    u = d | s
                    e = ms[self._first_member(lambda m: m & u == u)]
                    quad = (b, s, d, e)
                    break
        if quad is None:
            return None
        extended = self.f.add(s)
        index = {m: i for i, m in enumerate(extended.members)}
        return Embedding(extended, DIAMOND, tuple(index[m] for m in quad))


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
    samples ``spot`` missing subsets uniformly with the given seed and
    labels the report exhaustive only if the sample is every missing
    subset.  With ``certificate=True`` the full map missing-set ->
    embedding is materialized.
    """
    if mode not in ("full", "spot"):
        raise ValueError(f"mode must be 'full' or 'spot', got {mode!r}")
    if mode == "full" and f.n > MAX_FULL_N:
        raise ValueError(f"full mode needs n <= {MAX_FULL_N}, got {f.n}")

    inner = find_diamond(f) if p == DIAMOND else find_induced(f, p)
    if inner is not None:
        return SaturationReport(Verdict.NOT_FREE, f, p, mode, True, 0, embedding=inner)

    if p != DIAMOND or f.n > MAX_TABLE_N:
        first_failure = _scalar_failure(partial(creates_copy, f.members, p=p))
        witness = partial(find_induced_using, f, p=p)
    else:
        scanner = _DiamondScanner(f)
        first_failure, witness = scanner.first_failure, scanner.witness

    if mode == "spot":
        rng = random.Random(seed)
        total_missing = (1 << f.n) - len(f)
        k = min(spot, total_missing)
        exhaustive = k == total_missing
        chosen: set[int] = set()
        while len(chosen) < k:
            m = rng.getrandbits(f.n)
            if m not in f and m not in chosen:
                chosen.add(m)
        ordered = np.array(sorted(chosen, key=member_key), dtype=np.int64)
        bad = first_failure(ordered)
        if bad is not None:
            return SaturationReport(
                Verdict.FREE_NOT_SATURATED, f, p, mode, exhaustive, k,
                missing=int(ordered[bad]), seed=seed,
            )
        sample = tuple((m, witness(m)) for m in ordered[:_SAMPLE_LIMIT].tolist())
        return SaturationReport(
            Verdict.SATURATED, f, p, mode, exhaustive, k, sample=sample, seed=seed
        )

    checked = 0
    head: list[int] = []
    for batch in _missing_batches(f):
        bad = first_failure(batch)
        if bad is not None:
            checked += bad + 1
            return SaturationReport(
                Verdict.FREE_NOT_SATURATED, f, p, mode, True, checked, missing=int(batch[bad])
            )
        if not head:
            head = batch[:_SAMPLE_LIMIT].tolist()
        checked += len(batch)

    # Saturated: every missing mask passed, so the passing masks in scan
    # order are the missing masks in canonical order.
    sample = tuple((m, witness(m)) for m in head)
    cert = None
    if certificate:
        cert = {m: witness(m) for batch in _missing_batches(f) for m in batch.tolist()}
    report = SaturationReport(
        Verdict.SATURATED, f, p, mode, True, checked, certificate=cert, sample=sample
    )
    problem = report.validate()
    if problem:
        raise InternalCheckError(problem)
    return report


def _greedy_diamond(start: SetFamily, order_masks: list[int]) -> SetFamily:
    """Greedy diamond-free completion with vectorized creation tests."""
    n = start.n
    members: list[int] = list(start.members)
    member_set = set(members)
    arr = np.array(members, dtype=np.int64) if members else np.empty(0, dtype=np.int64)
    subtab = subset_table(n, members)
    suptab = superset_table(n, members)

    def creates(m: int) -> bool:
        if len(arr) == 0:
            return False
        inter = arr & m
        union = arr | m
        incomp = (inter != arr) & (inter != m)
        if bool(np.any(incomp & subtab[inter] & suptab[union])):
            return True
        sups = arr[inter == m]
        if len(sups) >= 2:
            iu = sups[:, None] | sups[None, :]
            ii = sups[:, None] & sups[None, :]
            pair_inc = (ii != sups[:, None]) & (ii != sups[None, :])
            if bool(np.any(pair_inc & suptab[iu])):
                return True
        subs = arr[(arr & m) == arr]
        if len(subs) >= 2:
            ii = subs[:, None] & subs[None, :]
            pair_inc = (ii != subs[:, None]) & (ii != subs[None, :])
            if bool(np.any(pair_inc & subtab[ii])):
                return True
        return False

    for m in order_masks:
        if m in member_set:
            continue
        if not creates(m):
            members.append(m)
            member_set.add(m)
            arr = np.array(members, dtype=np.int64)
            subtab = subset_table(n, members)
            suptab = superset_table(n, members)
    return SetFamily(n, tuple(members))


def greedy_saturate(
    f: SetFamily, p: PatternPoset, order: str = "canonical", seed: int = 0
) -> SetFamily:
    """Complete a free family to a saturated one by a single greedy pass.

    Candidates are all 2^n subsets in the requested order (``canonical``,
    ``reverse``, or seeded ``shuffle``); each set that keeps the family
    free is added.  After one pass the result is saturated: any rejected
    set already created a copy against a subfamily of the result.
    """
    if f.n > MAX_FULL_N:
        raise ValueError(f"greedy completion needs n <= {MAX_FULL_N}, got {f.n}")
    if not is_free(f, p):
        raise ValueError("input family already contains a copy of the pattern")
    masks = sorted(range(1 << f.n), key=member_key)
    if order == "canonical":
        pass
    elif order == "reverse":
        masks.reverse()
    elif order == "shuffle":
        random.Random(seed).shuffle(masks)
    else:
        raise ValueError(f"unknown order {order!r}")
    if p == DIAMOND:
        return _greedy_diamond(f, masks)
    g = f
    for m in masks:
        if m not in g and not creates_copy(g.members, m, p):
            g = g.add(m)
    return g


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
    emitted."""
    if p == DIAMOND:
        builders = [
            ("chain", chain_family),
            ("empty+singletons", empty_plus_singletons),
            ("full+cosingletons", full_plus_cosingletons),
        ]
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
