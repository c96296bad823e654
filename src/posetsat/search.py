"""Exact minimum-saturation search by orderly generation (n <= 6).

The engine enumerates pattern-free families layer by layer (size 1, 2,
...).  A family is a sorted member tuple and also one 64-bit word, whose
layout only ``families`` knows; a layer is a (T, s) array of member
masks, processed in bounded chunks.  A family is extended only by masks
after its last member in canonical order (``families.after_words``), so
each family is built exactly once, and with symmetry reduction only
canonical orbit representatives are kept.  Deleting the last member of
a canonical family leaves a canonical family, so extending canonical
representatives reaches every canonical pattern-free family.

One vector step per chunk builds each family's ``blocked`` word: the
masks whose addition creates a copy of the pattern.  The diamond has
its own step, ``diamond_blocked``; every other pattern pairs the family
words with the cached table of its copies in 2^[n] (``copy_blocked``).
A mask is free when it is neither a member nor blocked, and a family
is saturated exactly when no non-member is free.  The first layer
containing a saturated family is the exact minimum, and every family of
smaller size has been examined.

Families are expanded in canonical order and their children come out
in that order too, so results and manifests are deterministic.

``satstar``, ``classify`` and ``noextremes`` share one driver,
``_run_layers``: it takes the allowed masks, the size cap and the
manifest mode, and returns the manifest and the minimum saturated
families, each re-validated first: full-mode SATURATED, allowed masks only.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ._version import __version__
from .canonical import batch_is_canonical, canonical_key
from .detect import DIAMOND, copy_blocked, diamond_blocked
from .families import (
    WORD_MAX_N, SetFamily, after_words, canonical_order, family_to_json, family_words, full_word, popcounts,
    word_ranks,
)
from .posets import PatternPoset
from .saturate import DIAMOND_CONSTRUCTIONS, Q3, InternalCheckError, Verdict, is_saturated, q3_construction

MAX_CLASSIFY_N = 5

TAG_OTHER = "OTHER"


@dataclass
class LayerStats:
    size: int
    families: int
    extensions_tested: int
    free_extensions: int
    saturated_found: int
    wall_time_s: float = 0.0


@dataclass
class SearchManifest:
    """Reproducibility record for one search run.

    The wall time field is informational; comparisons between runs are
    expected to ignore it, and everything else is byte-identical from
    run to run.
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
        return {"tool": "posetsat", **asdict(self)}


_CHUNK = 1 << 13  # families per vector step


def _extend(n: int, p: PatternPoset, frontier: np.ndarray, allowed_word) -> list[np.ndarray]:
    """Per family: the word of allowed masks after its last member, the
    word of those that are free, and whether no non-member is free."""
    full = full_word(n)
    parts = []
    for lo in range(0, len(frontier), _CHUNK):
        fams = frontier[lo:lo + _CHUNK]
        words = family_words(n, fams)
        after = after_words(n)[fams[:, -1]] if fams.shape[1] else np.full(len(fams), full)
        later = after & allowed_word
        blocked = diamond_blocked(n, fams, words) if p == DIAMOND else copy_blocked(n, p, words)
        free = ~(words | blocked) & full
        parts.append((later, free & later, free == 0))
    return [np.concatenate(col) for col in zip(*parts)]


def _next_layer(n: int, frontier: np.ndarray, kids: np.ndarray, symmetry: bool) -> np.ndarray:
    """Children fam + (m,) per kid bit m, parent by parent in canonical
    order; only canonical ones under symmetry reduction."""
    parts = []
    for lo in range(0, len(frontier), _CHUNK):
        parent, rank = word_ranks(n, kids[lo:lo + _CHUNK])
        children = np.hstack([frontier[lo:lo + _CHUNK][parent], canonical_order(n)[rank, None]])
        if symmetry and len(children):
            children = children[batch_is_canonical(n, children)]
        parts.append(children)
    return np.concatenate(parts)


def _run_layers(
    command: str,
    mode: str,
    n: int,
    p: PatternPoset,
    allowed: list[int],
    size_cap: int,
    symmetry: bool,
) -> tuple[SearchManifest, list[SetFamily]]:
    """The manifest of the search over families of allowed masks up to
    size_cap, and the minimum saturated families found, re-validated."""
    start_time = time.monotonic()
    allowed_word = family_words(n, np.array([allowed], dtype=np.int64))[0]
    manifest = SearchManifest(
        command=command,
        n=n,
        pattern=p.label,
        mode=mode,
        symmetry=symmetry,
        size_cap=size_cap,
    )
    frontier = np.zeros((1, 0), dtype=np.int64)
    winners: list[SetFamily] = []
    status = "lower_bound"
    value: int | None = None
    for size in range(0, size_cap + 1):
        if not len(frontier):
            status = "infeasible"
            break
        layer_start = time.monotonic()
        later, kids, saturated = _extend(n, p, frontier, allowed_word)
        tested, free = (int(popcounts(w).sum()) for w in (later, kids))
        stats = LayerStats(size, len(frontier), tested, free, int(saturated.sum()))
        manifest.layers.append(stats)
        manifest.families_examined += stats.families
        manifest.nodes_expanded += stats.extensions_tested
        if stats.saturated_found:
            winners = [SetFamily(n, tuple(fam)) for fam in frontier[saturated].tolist()]
            value = size
            status = "exact"
        elif size < size_cap:
            frontier = _next_layer(n, frontier, kids, symmetry)
        stats.wall_time_s = round(time.monotonic() - layer_start, 6)
        if winners or size == size_cap:
            break
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
    for fam in winners:
        if not set(fam.members).issubset(allowed) or is_saturated(fam, p).verdict is not Verdict.SATURATED:
            raise InternalCheckError(f"search produced a family that fails re-validation: {fam!r}")
    return manifest, winners


def _default_cap(n: int, p: PatternPoset, size_cap: int | None) -> int:
    if size_cap is not None:
        if size_cap < 0:
            raise ValueError(f"size cap must be at least 0, got {size_cap}")
        return size_cap
    if p == DIAMOND:
        return n + 2
    return 1 << n


def sat_star_exact(
    n: int,
    p: PatternPoset,
    size_cap: int | None = None,
    symmetry: bool = True,
) -> SearchManifest:
    """Exact minimum size of a p-saturated family over [n] (n <= 6).

    The result status is ``exact`` with a value and witness,
    ``lower_bound`` when the size cap was exhausted first, or
    ``infeasible`` when no free family can be extended to a saturated
    one (impossible without member restrictions).
    """
    if not 1 <= n <= WORD_MAX_N:
        raise ValueError(f"exhaustive search needs 1 <= n <= {WORD_MAX_N}, got {n}")
    cap = _default_cap(n, p, size_cap)
    allowed = canonical_order(n).tolist()
    manifest, winners = _run_layers("satstar", "exact", n, p, allowed, cap, symmetry)
    if winners:
        manifest.result["witness"] = family_to_json(winners[0])
    return manifest


def classify_minimum(n: int, p: PatternPoset) -> tuple[list[tuple[SetFamily, str]], SearchManifest]:
    """All minimum p-saturated families up to ground-set relabeling,
    each tagged against the named constructions; an OTHER tag is a
    reportable finding, not an error."""
    if not 1 <= n <= MAX_CLASSIFY_N:
        raise ValueError(f"classification needs 1 <= n <= {MAX_CLASSIFY_N}, got {n}")
    cap = _default_cap(n, p, None)
    allowed = canonical_order(n).tolist()
    manifest, winners = _run_layers("classify", "classify", n, p, allowed, cap, True)
    # the first construction wins a tie, so the chain does at n = 1, where
    # all three agree
    tags = {}
    for name, build in DIAMOND_CONSTRUCTIONS:
        tags.setdefault(canonical_key(build(n)), name)
    tagged = [(fam, tags.get(tuple(fam.members), TAG_OTHER)) for fam in winners]
    if winners:
        manifest.result["representatives"] = [
            {"tag": tag, "family": family_to_json(fam)} for fam, tag in tagged
        ]
    return tagged, manifest


def sat_star_no_extremes(n: int, p: PatternPoset) -> SearchManifest:
    """Minimum size over saturated families avoiding both the empty and
    the full set; ``infeasible`` when no such family exists."""
    if not 1 <= n <= MAX_CLASSIFY_N:
        raise ValueError(f"restricted search needs 1 <= n <= {MAX_CLASSIFY_N}, got {n}")
    allowed = canonical_order(n).tolist()[1:-1]
    manifest, winners = _run_layers("noextremes", "no-extremes", n, p, allowed, len(allowed), True)
    if winners:
        manifest.result["witness"] = family_to_json(winners[0])
    return manifest


def q3_probe(n: int) -> dict:
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
        manifest = sat_star_exact(n, Q3, size_cap=expected)
        value = manifest.result.get("value")
        out["optimality"] = {
            "sat_star": value,
            "construction_optimal": value == expected,
            "manifest": manifest.to_json(),
        }
    return out
