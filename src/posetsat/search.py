"""Exact minimum-saturation search by orderly generation.

The engine enumerates pattern-free families layer by layer (size 1, 2,
...).  Families are sorted member tuples; a family is extended only by
members after its last one in canonical order, so each family is built
exactly once, and with symmetry reduction only canonical orbit
representatives are kept.  Deleting the last member of a canonical
family leaves a canonical family, so extending canonical representatives
reaches every canonical pattern-free family.

A family of size s is saturated exactly when it has no free one-set
extension at all.  Extensions by later members fall out of the
generation step; only families without any of those run the full
missing-subset scan.  The first layer containing a saturated family is
the exact minimum, and every family of smaller size has been examined.

All merging is by canonical order, never by scan schedule, so results
and manifests are independent of the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .canonical import batch_is_canonical, canonical_key
from .detect import DIAMOND, creates_copy, creates_diamond
from .families import SetFamily, family_to_json, member_key
from .posets import PatternPoset
from .saturate import (
    Q3,
    InternalCheckError,
    Verdict,
    chain_family,
    empty_plus_singletons,
    full_plus_cosingletons,
    is_saturated,
    q3_construction,
)

MAX_EXACT_N = 6
MAX_CLASSIFY_N = 5

TAG_CHAIN = "chain"
TAG_EMPTY_SINGLETONS = "empty+singletons"
TAG_COSINGLETONS = "full+cosingletons"
TAG_OTHER = "OTHER"


@dataclass
class LayerStats:
    size: int
    families: int
    extensions_tested: int
    free_extensions: int
    saturated_found: int

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "families": self.families,
            "extensions_tested": self.extensions_tested,
            "free_extensions": self.free_extensions,
            "saturated_found": self.saturated_found,
        }


@dataclass
class SearchManifest:
    """Reproducibility record for one search run.

    The wall time field is informational; comparisons between runs are
    expected to ignore it.  No scheduling data (such as worker count)
    is recorded, so manifests from different thread counts are
    byte-identical apart from wall time.
    """

    command: str
    n: int
    pattern: str
    mode: str
    symmetry: bool
    size_cap: int
    layers: list[LayerStats] = field(default_factory=list)
    nodes_expanded: int = 0
    families_examined: int = 0
    result: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    version: str = __version__

    def to_json(self) -> dict:
        return {
            "tool": "posetsat",
            "version": self.version,
            "command": self.command,
            "n": self.n,
            "pattern": self.pattern,
            "mode": self.mode,
            "symmetry": self.symmetry,
            "size_cap": self.size_cap,
            "layers": [s.to_json() for s in self.layers],
            "nodes_expanded": self.nodes_expanded,
            "families_examined": self.families_examined,
            "result": self.result,
            "wall_time_s": self.wall_time_s,
        }


def _pattern_id(p: PatternPoset) -> str:
    return p.name or f"poset:{p.size}"


def _through_tester(p: PatternPoset):
    if p == DIAMOND:
        return creates_diamond
    return lambda members, m: creates_copy(members, m, p)


@dataclass
class _LayerOutcome:
    children: list[tuple[int, ...]]
    saturated: list[tuple[int, ...]]
    extensions: int
    free_extensions: int


def _process_families(fams, allowed, rank, all_masks, through):
    children: list[tuple[int, ...]] = []
    saturated: list[tuple[int, ...]] = []
    extensions = 0
    free_exts = 0
    for fam in fams:
        start = rank[fam[-1]] + 1 if fam else 0
        fam_set = set(fam)
        free_here = []
        for m in allowed[start:]:
            extensions += 1
            if not through(fam, m):
                free_here.append(m)
        free_exts += len(free_here)
        if free_here:
            children.extend(fam + (m,) for m in free_here)
        else:
            # no later free extension; maximality needs the full scan
            for m in all_masks:
                if m in fam_set:
                    continue
                if not through(fam, m):
                    break
            else:
                saturated.append(fam)
    return _LayerOutcome(children, saturated, extensions, free_exts)


def _run_layers(
    command: str,
    n: int,
    p: PatternPoset,
    allowed: list[int],
    size_cap: int,
    symmetry: bool,
    threads: int,
) -> tuple[SearchManifest, list[tuple[int, ...]]]:
    start_time = time.monotonic()
    through = _through_tester(p)
    rank = {m: i for i, m in enumerate(allowed)}
    all_masks = sorted(range(1 << n), key=member_key)
    manifest = SearchManifest(
        command=command,
        n=n,
        pattern=_pattern_id(p),
        mode="exact",
        symmetry=symmetry,
        size_cap=size_cap,
    )
    frontier: list[tuple[int, ...]] = [()]
    winners: list[tuple[int, ...]] = []
    status = "lower_bound"
    value: int | None = None
    for size in range(0, size_cap + 1):
        if not frontier:
            status = "infeasible"
            break
        if threads <= 1 or len(frontier) < 2 * threads:
            outcomes = [_process_families(frontier, allowed, rank, all_masks, through)]
        else:
            chunks = [frontier[i::threads] for i in range(threads)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = list(
                    pool.map(
                        lambda ch: _process_families(ch, allowed, rank, all_masks, through),
                        chunks,
                    )
                )
        children = [c for out in outcomes for c in out.children]
        children.sort(key=lambda fam: tuple(member_key(m) for m in fam))
        saturated = sorted(
            (s for out in outcomes for s in out.saturated),
            key=lambda fam: tuple(member_key(m) for m in fam),
        )
        extensions = sum(out.extensions for out in outcomes)
        free_exts = sum(out.free_extensions for out in outcomes)
        manifest.layers.append(
            LayerStats(size, len(frontier), extensions, free_exts, len(saturated))
        )
        manifest.families_examined += len(frontier)
        manifest.nodes_expanded += extensions
        if saturated:
            winners = saturated
            value = size
            status = "exact"
            break
        if size == size_cap:
            break
        if symmetry and children:
            fams = np.array(children, dtype=np.int64)
            keep = batch_is_canonical(n, fams)
            frontier = [fam for fam, ok in zip(children, keep) if ok]
        else:
            frontier = children
    if status == "lower_bound" and size_cap >= len(allowed):
        # every family over the allowed masks has been examined
        status = "infeasible"
    manifest.result = {"status": status}
    if status == "exact":
        manifest.result["value"] = value
        manifest.result["witness_count"] = len(winners)
    elif status == "lower_bound":
        manifest.result["value_at_least"] = size_cap + 1
    manifest.wall_time_s = round(time.monotonic() - start_time, 6)
    return manifest, winners


def _revalidate(n: int, p: PatternPoset, winners: list[tuple[int, ...]]) -> list[SetFamily]:
    fams = []
    for fam in winners:
        sf = SetFamily(n, fam)
        report = is_saturated(sf, p, mode="full")
        if report.verdict is not Verdict.SATURATED:
            raise InternalCheckError(
                f"search produced a family that fails re-validation: {sf!r}"
            )
        fams.append(sf)
    return fams


def _default_cap(n: int, p: PatternPoset, size_cap: int | None) -> int:
    if size_cap is not None:
        return size_cap
    if p == DIAMOND:
        return n + 2
    return 1 << n


def sat_star_exact(
    n: int,
    p: PatternPoset,
    size_cap: int | None = None,
    symmetry: bool = True,
    threads: int = 1,
) -> SearchManifest:
    """Exact minimum size of a p-saturated family over [n] (n <= 6).

    The result status is ``exact`` with a value and witness,
    ``lower_bound`` when the size cap was exhausted first, or
    ``infeasible`` when no free family can be extended to a saturated
    one (impossible without member restrictions).
    """
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"exhaustive search needs 1 <= n <= {MAX_EXACT_N}, got {n}")
    cap = _default_cap(n, p, size_cap)
    allowed = sorted(range(1 << n), key=member_key)
    manifest, winners = _run_layers("satstar", n, p, allowed, cap, symmetry, threads)
    if winners:
        validated = _revalidate(n, p, winners)
        manifest.result["witness"] = family_to_json(validated[0])
    return manifest


def _tag(fam: SetFamily) -> str:
    key = tuple(fam.members)
    n = fam.n
    if key == canonical_key(chain_family(n)):
        return TAG_CHAIN
    if key == canonical_key(empty_plus_singletons(n)):
        return TAG_EMPTY_SINGLETONS
    if key == canonical_key(full_plus_cosingletons(n)):
        return TAG_COSINGLETONS
    return TAG_OTHER


def classify_minimum(
    n: int, p: PatternPoset, threads: int = 1
) -> tuple[list[tuple[SetFamily, str]], SearchManifest]:
    """All minimum p-saturated families up to ground-set relabeling,
    each tagged against the named constructions; an OTHER tag is a
    reportable finding, not an error."""
    if not 1 <= n <= MAX_CLASSIFY_N:
        raise ValueError(f"classification needs 1 <= n <= {MAX_CLASSIFY_N}, got {n}")
    cap = _default_cap(n, p, None)
    allowed = sorted(range(1 << n), key=member_key)
    manifest, winners = _run_layers("classify", n, p, allowed, cap, True, threads)
    manifest.mode = "classify"
    tagged = []
    if winners:
        for fam in _revalidate(n, p, winners):
            tagged.append((fam, _tag(fam)))
        manifest.result["representatives"] = [
            {"tag": tag, "family": family_to_json(fam)} for fam, tag in tagged
        ]
    return tagged, manifest


def sat_star_no_extremes(n: int, p: PatternPoset, threads: int = 1) -> SearchManifest:
    """Minimum size over saturated families avoiding both the empty and
    the full set; ``infeasible`` when no such family exists."""
    if not 1 <= n <= MAX_CLASSIFY_N:
        raise ValueError(f"restricted search needs 1 <= n <= {MAX_CLASSIFY_N}, got {n}")
    full = (1 << n) - 1
    allowed = [m for m in sorted(range(1 << n), key=member_key) if m not in (0, full)]
    manifest, winners = _run_layers("noextremes", n, p, allowed, len(allowed), True, threads)
    manifest.mode = "no-extremes"
    if winners:
        validated = _revalidate(n, p, winners)
        for fam in validated:
            if 0 in fam or full in fam:
                raise InternalCheckError("restricted search emitted an extreme set")
        manifest.result["witness"] = family_to_json(validated[0])
        manifest.result["witness_count"] = len(validated)
    return manifest


def q3_probe(n: int, threads: int = 1) -> dict:
    """Build the 3n-2 construction, verify its Q3-saturation in full
    mode, and (at n = 4 only) compare against the exact search value.

    The report states observations; it asserts no conjecture.
    """
    if not 4 <= n <= 6:
        raise ValueError(f"probe needs 4 <= n <= 6, got {n}")
    fam = q3_construction(n)
    expected = 3 * n - 2
    report = is_saturated(fam, Q3, mode="full")
    out = {
        "n": n,
        "family": family_to_json(fam),
        "size": len(fam),
        "expected_size": expected,
        "verdict": report.verdict.value,
        "optimality": None,
    }
    if n == 4:
        manifest = sat_star_exact(n, Q3, size_cap=expected, threads=threads)
        value = manifest.result.get("value")
        out["optimality"] = {
            "sat_star": value,
            "construction_optimal": value == expected,
            "manifest": manifest.to_json(),
        }
    return out
