"""Workload definitions: the CLI commands each workload runs, the input
files they read, and the outputs they must produce.

Inputs are made from the seed alone.  The program under test receives
only the family files written here; the expected values are derived by
this module without running the program (set counts and colex ranks),
except for the search results, which are fixed constants of the
mathematics (layer sizes and minimum sizes recorded at the first
benchmarked commit).

Every workload reports every end-to-end metric, because the metric list
is shared.  Each workload therefore runs one small instance of every
command outside its focus ("probe" commands): they mostly measure CLI
start-up and fixed costs, and guard those.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from posetsat.detect import DIAMOND
from posetsat.families import SetFamily, elements_of, member_key, serialize_family
from posetsat.saturate import (
    chain_family,
    empty_plus_singletons,
    full_plus_cosingletons,
    greedy_saturate,
)

# Every satstar command stops at this size: at n = 6 the next layer takes
# five times as long, too long to time often enough in one run.
SATSTAR_CAP = 4
# Layer sizes of `satstar --pattern diamond` per n, up to SATSTAR_CAP.
SATSTAR_LAYERS = {4: [1, 5, 17, 52, 120], 6: [1, 7, 43, 302, 2246]}
NAMED_TAGS = ["chain", "empty+singletons", "full+cosingletons"]

# Base shuffle seed of the wide families; the run's seed relabels them (see
# wide_family), so every seed does the same amount of detector work.
WIDE_BASE_SEED = 1

# Why each workload was chosen (one line each, as in BENCHMARK.json).
WHY = {
    "check-tall": (
        "few members over 2^19 missing sets: exercises the full missing-set scan and the diamond "
        "through-test while detectors, canonicity and search stay idle"
    ),
    "check-wide": (
        "391 members and 1.7k missing sets: exercises the in-family diamond detector and the "
        "structure suite while the missing-set scan stays short"
    ),
    "search": (
        "exact orderly-generation search: exercises canonicity, search layers and raw "
        "through-tests with no 2^n scan; its input does not depend on the seed"
    ),
}


@dataclass
class Command:
    """One CLI invocation and the output it must produce."""

    id: str
    kind: str
    argv: list[str]
    exit_code: int
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed_dependent: bool
    why: str
    commands: list[Command]
    satstar_sweep: Command  # the satstar command whose layers the traced run times


def relabel(f: SetFamily, perm: list[int]) -> SetFamily:
    """Image of f under the ground-set permutation i -> perm[i] (0-based)."""
    return SetFamily(f.n, tuple(map_mask(m, perm) for m in f.members))


def map_mask(mask: int, perm: list[int]) -> int:
    out = 0
    for i, j in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << j
    return out


def block_permutation(n: int, rng: random.Random) -> list[int]:
    """Seeded permutation that maps {0..h-1} onto itself, h = n // 2.

    The chain's h-set {1..h} then stays the least h-set in value order,
    so a check of the chain without it stops at that set, after the same
    number of masks for every seed.
    """
    half = n // 2
    low, high = list(range(half)), list(range(half, n))
    rng.shuffle(low)
    rng.shuffle(high)
    return low + high


def colex_rank(mask: int) -> int:
    """Number of masks of the same cardinality with a smaller value."""
    rank, i = 0, 0
    for pos in range(mask.bit_length()):
        if mask >> pos & 1:
            i += 1
            rank += comb(pos, i)
    return rank


def masks_checked_until(f: SetFamily, missing: int) -> int:
    """Missing masks a full-mode scan visits up to and including `missing`.

    The scan walks all masks in (cardinality, value) order and skips
    members, so this is the count of smaller non-members plus one.
    """
    card = missing.bit_count()
    before = sum(comb(f.n, c) for c in range(card)) + colex_rank(missing)
    members_before = sum(1 for m in f.members if member_key(m) < member_key(missing))
    return before - members_before + 1


def write_family(root: Path, name: str, f: SetFamily) -> str:
    path = root / f"{name}.txt"
    path.write_text(serialize_family(f))
    return str(path)


def _saturated(cid: str, kind: str, path: str, f: SetFamily, certificate: bool = False) -> Command:
    argv = ["check", "--family", path, "--pattern", "diamond"]
    if certificate:
        argv.append("--certificate")
    expect = {
        "verdict": "SATURATED",
        "n": f.n,
        "family_size": len(f),
        "checked": (1 << f.n) - len(f),
        "certificate_size": (1 << f.n) - len(f) if certificate else None,
    }
    return Command(cid, kind, argv, 0, expect)


def chain_gap_first_failure(k: int, perm: list[int]) -> int:
    """First missing set a full scan rejects in a relabelled chain without its k-set.

    Every missing set of size below k, and every k-set that misses the
    chain's (k-1)-set, forms a diamond with the empty set, a chain member
    and the full set.  The k-sets between the (k-1)-set and the
    (k+1)-set are comparable to every member and form none; there are
    two, and the scan meets the smaller first.
    """
    below = (1 << (k - 1)) - 1
    return min(map_mask(below | 1 << (k - 1), perm), map_mask(below | 1 << k, perm))


def _free_not_saturated(cid: str, path: str, f: SetFamily, first_failure: int) -> Command:
    expect = {
        "verdict": "FREE_NOT_SATURATED",
        "n": f.n,
        "family_size": len(f),
        "missing_set": list(elements_of(first_failure)),
        "checked": masks_checked_until(f, first_failure),
    }
    return Command(cid, "reject", ["check", "--family", path, "--pattern", "diamond"], 2, expect)


def _analyze(cid: str, path: str, f: SetFamily) -> Command:
    expect = {"n": f.n, "family_size": len(f), "checked": (1 << f.n) - len(f)}
    return Command(cid, "analyze", ["analyze", "--family", path], 0, expect)


def _satstar(n: int) -> Command:
    """sat* of the diamond is n + 1 for these n, so the capped search ends
    with a lower bound one above the cap."""
    argv = ["satstar", "--pattern", "diamond", "--n", str(n), "--size-cap", str(SATSTAR_CAP)]
    expect = {"layers": SATSTAR_LAYERS[n], "status": "lower_bound", "value_at_least": SATSTAR_CAP + 1}
    return Command(f"satstar-n{n}", "satstar", argv, 0, expect)


def _classify(n: int) -> Command:
    argv = ["classify", "--pattern", "diamond", "--n", str(n)]
    return Command(f"classify-n{n}", "classify", argv, 0, {"value": n + 1, "tags": NAMED_TAGS})


def _q3probe(n: int) -> Command:
    expect = {"size": 3 * n - 2, "sat_star": 3 * n - 2 if n == 4 else None}
    return Command(f"q3probe-n{n}", "q3probe", ["q3probe", "--n", str(n)], 0, expect)


def _search_probes() -> list[Command]:
    return [_satstar(4), _classify(4), _q3probe(5)]


def check_tall(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    n = 19
    perm = block_permutation(n, rng)
    cmds = []
    for name, build in (
        ("chain", chain_family),
        ("empty+singletons", empty_plus_singletons),
        ("full+cosingletons", full_plus_cosingletons),
    ):
        f = relabel(build(n), perm)
        cmds.append(_saturated(f"check-{name}-n{n}", "check", write_family(root, f"{name}{n}", f), f))
    chain = relabel(chain_family(n), perm)
    for k in (3, n // 2):
        f = chain.without(map_mask((1 << k) - 1, perm))
        path = write_family(root, f"chain{n}-minus{k}", f)
        first = chain_gap_first_failure(k, perm)
        cmds.append(_free_not_saturated(f"reject-chain-minus-{k}set", path, f, first))
    cert = relabel(chain_family(15), block_permutation(15, rng))
    path = write_family(root, "chain15", cert)
    cmds.append(_saturated("certificate-chain-n15", "certificate", path, cert, certificate=True))
    tall = relabel(chain_family(17), block_permutation(17, rng))
    cmds.append(_analyze("analyze-chain-n17", write_family(root, "chain17", tall), tall))
    probes = _search_probes()
    return Workload(
        "check-tall",
        True,
        WHY["check-tall"],
        cmds + probes,
        satstar_sweep=probes[0],
    )


def wide_family(n: int, rng: random.Random) -> SetFamily:
    """Greedy diamond-saturated family over [n] (391 members at n = 11),
    relabelled by a seeded permutation.

    Relabelling a greedy result equals running the greedy pass on the
    relabelled order, so this is a seeded greedy completion whose
    detector work is the same at every seed: a diamond-free family makes
    find_diamond visit every pair, and the pairs are relabelling-invariant.
    """
    base = greedy_saturate(SetFamily(n, ()), DIAMOND, order="shuffle", seed=WIDE_BASE_SEED)
    return relabel(base, rng.sample(range(n), n))


def check_wide(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    f = wide_family(11, rng)
    path = write_family(root, "wide11", f)
    # any missing set creates a diamond in a saturated family; the least
    # one in canonical order is the early-exit case for the detector
    extra = next(m for m in sorted(range(1 << f.n), key=member_key) if m not in f)
    bad = f.add(extra)
    small = wide_family(10, rng)
    cmds = [
        _saturated("check-wide-n11", "check", path, f),
        _analyze("analyze-wide-n11", path, f),
        Command(
            "reject-wide-plus-one",
            "reject",
            ["check", "--family", write_family(root, "wide11-plus-one", bad), "--pattern", "diamond"],
            3,
            {"verdict": "NOT_FREE", "n": f.n, "family_size": len(bad), "checked": 0,
             "through": elements_of(extra), "family": frozenset(map(elements_of, bad.members))},
        ),
        _saturated("certificate-wide-n10", "certificate", write_family(root, "wide10", small), small,
                   certificate=True),
    ]
    probes = _search_probes()
    return Workload(
        "check-wide",
        True,
        WHY["check-wide"],
        cmds + probes,
        satstar_sweep=probes[0],
    )


def search(seed: int, root: Path) -> Workload:
    del seed  # exact enumeration has no free input
    n = 5
    cmds = [_satstar(6), _classify(5), _q3probe(4)]
    chain, identity = chain_family(n), list(range(n))
    chain_path = write_family(root, "chain5", chain)
    short = chain.without(0b111)
    short_path = write_family(root, "chain5-minus3", short)
    cmds += [
        _saturated("check-chain-n5", "check", chain_path, chain),
        _free_not_saturated("reject-chain-minus-3set", short_path, short, chain_gap_first_failure(3, identity)),
        _saturated("certificate-chain-n5", "certificate", chain_path, chain, certificate=True),
        _analyze("analyze-chain-n5", chain_path, chain),
    ]
    return Workload(
        "search",
        False,
        WHY["search"],
        cmds,
        satstar_sweep=cmds[0],
    )


WORKLOADS = {"check-tall": check_tall, "check-wide": check_wide, "search": search}
