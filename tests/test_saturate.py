import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from collections.abc import Mapping
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsat import saturate, structure
from posetsat.detect import creates_diamond, validate_embedding
from posetsat.families import (
    SetFamily,
    canonical_order,
    complement_family,
    elements_of,
    member_key,
    subset_table,
    superset_table,
)
from posetsat.posets import make_diamond, make_hypercube, make_v
from posetsat.saturate import (
    Verdict,
    chain_family,
    empty_plus_singletons,
    full_plus_cosingletons,
    greedy_saturate,
    is_free,
    is_saturated,
    pair_generators,
    q3_construction,
    upper_bound_catalog,
)
from posetsat.structure import decompose, verify_structure_invariants

import oracles

D = make_diamond()


def test_is_free_examples():
    assert is_free(chain_family(3), D) is True
    assert is_free(SetFamily(2, (0, 1, 2, 3)), D) is False


def test_empty_plus_singletons_saturated():
    rep = is_saturated(empty_plus_singletons(3), D, mode="full")
    assert rep.verdict is Verdict.SATURATED
    assert rep.exhaustive


def test_single_member_family_not_saturated():
    rep = is_saturated(SetFamily.of(2, [(1,)]), D, mode="full")
    assert rep.verdict is Verdict.FREE_NOT_SATURATED
    # evidence re-validates: adding it creates no copy
    assert not oracles.diamond_through(SetFamily.of(2, [(1,)]), rep.missing)
    # first failure is selected by canonical order, which puts {} first
    assert rep.missing == 0


def test_maximal_chain_saturated_for_small_n():
    for n in range(1, 7):
        rep = is_saturated(chain_family(n), D, mode="full")
        assert rep.verdict is Verdict.SATURATED, n


def test_not_free_report_carries_witness():
    rep = is_saturated(SetFamily(2, (0, 1, 2, 3)), D, mode="full")
    assert rep.verdict is Verdict.NOT_FREE
    assert rep.embedding is not None and rep.validate() is None


def test_full_certificate_covers_every_missing_set():
    f = empty_plus_singletons(3)
    rep = is_saturated(f, D, mode="full", certificate=True)
    assert rep.verdict is Verdict.SATURATED
    assert len(rep.certificate) == (1 << 3) - len(f)
    assert rep.validate() is None
    for m, emb in rep.certificate.items():
        assert emb.uses(m)


def test_spot_mode_is_labeled_probabilistic():
    f = chain_family(4)
    rep = is_saturated(f, D, mode="spot", spot=5, seed=11)
    assert rep.verdict is Verdict.SATURATED
    assert rep.exhaustive is False
    assert rep.checked == 5 and rep.seed == 11
    again = is_saturated(f, D, mode="spot", spot=5, seed=11)
    assert rep.to_json() == again.to_json()


def test_spot_mode_covering_every_missing_set_is_exhaustive():
    f = chain_family(4)
    rep = is_saturated(f, D, mode="spot", spot=100)
    assert rep.verdict is Verdict.SATURATED
    assert rep.checked == 11 and rep.exhaustive is True
    assert is_saturated(f, D, mode="spot", spot=11).exhaustive is True
    assert is_saturated(f, D, mode="spot", spot=10).exhaustive is False


@pytest.mark.parametrize(
    "f, p",
    [(chain_family(4), D), (SetFamily(4, (0, 3)), D), (chain_family(3), make_v())],
    ids=["saturated", "not-saturated", "v"],
)
def test_an_exhaustive_spot_sample_draws_nothing(monkeypatch, f, p):
    # the sample is every missing set, in the canonical order a drawn and
    # sorted one would take, so the report is full mode's
    full = is_saturated(f, p, mode="full").to_json()
    missing = (1 << f.n) - len(f)
    monkeypatch.setattr(random.Random, "getrandbits", mock.Mock(side_effect=AssertionError("drew a mask")))
    for spot in (missing, missing + 1):
        rep = is_saturated(f, p, mode="spot", spot=spot, seed=5)
        assert rep.to_json() == {**full, "mode": "spot", "seed": 5, "checked": missing}


@pytest.mark.parametrize(
    "scanner, f, p, mode",
    [
        ("_DiamondScanner", SetFamily(4, (0,)), D, "full"),
        ("_CopyScanner", SetFamily(4, (0,)), make_v(), "full"),
        ("_CopyScanner", SetFamily(30, (0,)), D, "spot"),
    ],
    ids=["table", "per-mask", "per-mask-above-the-tables"],
)
def test_a_passed_mask_without_a_witness_is_an_internal_error(monkeypatch, scanner, f, p, mode):
    # every mask passes the scan, though no copy goes through any of them
    monkeypatch.setattr(getattr(saturate, scanner), "first_failure", lambda self, batch: None)
    assert isinstance(saturate._scanner(f, p), getattr(saturate, scanner))
    with pytest.raises(saturate.InternalCheckError, match=r"no witness found through \("):
        is_saturated(f, p, mode=mode, spot=8, seed=1)


@pytest.mark.parametrize(
    "f, mode",
    [(SetFamily(2, (0, 1, 2, 3)), "full"), (chain_family(4), "full"), (chain_family(4), "spot"),
     (chain_family(30), "spot")],
    ids=["not-free", "full", "spot", "spot-above-the-tables"],
)
def test_witnesses_of_a_pattern_equal_to_the_diamond_name_the_diamond(f, mode):
    unnamed = dataclasses.replace(D, name="")
    assert unnamed == D and unnamed.label == "poset:4"
    rep = is_saturated(f, unnamed, mode=mode, spot=8, seed=1, certificate=mode == "full")
    out = rep.to_json()
    assert out["pattern"] == "poset:4"
    witnesses = [out["witness"]] if rep.verdict is Verdict.NOT_FREE else [e["witness"] for e in out["sample"]]
    if rep.certificate is not None:
        witnesses += [rep.certificate[m].to_json() for m in rep.certificate]
    assert witnesses and {w["pattern"] for w in witnesses} == {"diamond"}


def test_spot_mode_above_the_table_limit():
    rep = is_saturated(chain_family(30), D, mode="spot", spot=16, seed=3)
    assert rep.verdict is Verdict.SATURATED
    assert rep.checked == 16 and rep.exhaustive is False
    assert len(rep.sample) == 8
    for m, emb in rep.sample:
        assert emb.uses(m) and validate_embedding(emb) is None
    assert rep.validate() is None
    lone = SetFamily(30, (0,))
    bad = is_saturated(lone, D, mode="spot", spot=16, seed=3)
    assert bad.verdict is Verdict.FREE_NOT_SATURATED
    assert bad.missing not in lone and not oracles.diamond_through(lone, bad.missing)


def test_spot_mode_over_64_elements():
    # masks of [64] reach 2^63, past int64
    rep = is_saturated(chain_family(64), D, mode="spot", spot=8, seed=1)
    assert rep.verdict is Verdict.SATURATED and rep.checked == 8
    assert any(m >> 63 for m, _ in rep.sample)
    for m, emb in rep.sample:
        assert emb.uses(m) and validate_embedding(emb) is None
    assert rep.validate() is None
    lone = SetFamily(64, (0,))
    bad = is_saturated(lone, D, mode="spot", spot=4)
    assert bad.verdict is Verdict.FREE_NOT_SATURATED
    assert bad.missing not in lone and not oracles.diamond_through(lone, bad.missing)


@pytest.mark.parametrize("spot", [0, -5])
def test_spot_mode_needs_a_positive_sample(spot):
    # {} over [4] is not saturated; an empty sample must not say it is
    with pytest.raises(ValueError, match="at least 1"):
        is_saturated(SetFamily(4, (0,)), D, mode="spot", spot=spot)


def test_above_the_full_limit_a_spot_sample_holds_at_most_2_to_the_24():
    # a family with a diamond stops at the in-family check, so the
    # largest allowed sample draws nothing here
    f = SetFamily(40, (0, 1, 2, 3))
    assert is_saturated(f, D, mode="spot", spot=1 << 24).verdict is Verdict.NOT_FREE
    with pytest.raises(ValueError, match=r"at most 2\^24, got 16777217"):
        is_saturated(f, D, mode="spot", spot=(1 << 24) + 1)
    # at n <= 24 a covering sample is the full scan, whatever its size
    rep = is_saturated(chain_family(4), D, mode="spot", spot=1 << 64)
    assert rep.exhaustive and rep.checked == 11


@pytest.mark.parametrize(
    "mode, certificate", [("full", False), ("spot", False), ("full", True)], ids=["full", "spot", "certificate"]
)
def test_saturated_evidence_is_revalidated(monkeypatch, mode, certificate):
    # every witness row becomes the row through one fixed set, 0b10, which
    # is no member of f + {s} for any other added set s
    real = saturate._DiamondScanner.witnesses
    monkeypatch.setattr(
        saturate._DiamondScanner, "witnesses", lambda self, batch: real(self, np.full_like(batch, 0b10))
    )
    with pytest.raises(saturate.InternalCheckError, match="invalid: mapping index out of range"):
        is_saturated(chain_family(4), D, mode=mode, spot=8, seed=1, certificate=certificate)


@pytest.mark.parametrize(
    "f, p, mode, message",
    [
        (chain_family(6), D, "full", r"missing set \(2,\) creates a copy of diamond"),
        (chain_family(6), make_v(), "full", r"missing set \(2,\) creates a copy of v"),
        (chain_family(30), D, "spot", r"missing set \(.*\) creates a copy of diamond"),
    ],
    ids=["diamond", "v", "spot-30"],
)
def test_a_missing_set_that_creates_a_copy_is_an_internal_error(monkeypatch, f, p, mode, message):
    # a scanner that calls its first mask a failure: {2} in a chain
    for scanner in (saturate._DiamondScanner, saturate._CopyScanner):
        monkeypatch.setattr(scanner, "first_failure", lambda self, batch: 0)
    with pytest.raises(saturate.InternalCheckError, match=message):
        is_saturated(f, p, mode=mode)


@pytest.mark.parametrize("detector, p", [("find_diamond", D), ("find_induced", make_v())])
def test_not_free_witness_is_revalidated(monkeypatch, detector, p):
    real = getattr(saturate, detector)
    calls = []

    def corrupted(f, *args):
        emb = real(f, *args)
        calls.append(emb)
        return dataclasses.replace(emb, mapping=emb.mapping[:-1] + emb.mapping[:1])

    monkeypatch.setattr(saturate, detector, corrupted)
    with pytest.raises(saturate.InternalCheckError, match="stored embedding invalid: mapping is not injective"):
        is_saturated(SetFamily(2, (0, 1, 2, 3)), p)
    assert len(calls) == 1


def corrupt_row(monkeypatch, row: int, corrupt):
    """Let corrupt(images) change the witness row ``row`` of every batch
    that has one; returns the added set of that row."""
    real = saturate._DiamondScanner.witnesses
    seen = []

    def witnesses(self, batch):
        images = real(self, batch)
        if len(batch) > row:
            corrupt(images[row])
            seen.append(int(batch[row]))
        return images

    monkeypatch.setattr(saturate._DiamondScanner, "witnesses", witnesses)
    return seen


def set_top(x):
    x[3] = 0b1000  # a set missing from chain 5


def repeat_middle(x):
    x[2] = x[1]


def swap_bottom_and_top(x):
    x[[0, 3]] = x[[3, 0]]


ROW_FAULTS = [
    (set_top, "invalid: mapping index out of range"),
    (repeat_middle, "invalid: mapping is not injective"),
    (swap_bottom_and_top, "invalid: relation mismatch at pattern pair (0, 1)"),
]


@pytest.mark.parametrize("corrupt, problem", ROW_FAULTS, ids=["non-member", "repeated", "relation"])
def test_certificate_row_faults(monkeypatch, corrupt, problem):
    # chain 5 has 26 missing sets; row 10 lies past the 8-row sample, so
    # only the certificate's row check sees it
    seen = corrupt_row(monkeypatch, 10, corrupt)
    with pytest.raises(saturate.InternalCheckError) as err:
        is_saturated(chain_family(5), D, certificate=True)
    (s,) = seen
    assert str(err.value) == f"certificate embedding for {elements_of(s)} {problem}"


@pytest.mark.parametrize("corrupt, problem", ROW_FAULTS, ids=["non-member", "repeated", "relation"])
def test_row_check_words_faults_as_the_entry_check(monkeypatch, corrupt, problem):
    cert = is_saturated(chain_family(5), D, certificate=True).certificate
    s = list(cert)[12]
    real = saturate._DiamondScanner.witnesses

    def witnesses(self, batch):
        # the row of s, whether asked for in a batch or alone
        images = real(self, batch)
        for row in np.flatnonzero(batch == s):
            corrupt(images[row])
        return images

    monkeypatch.setattr(saturate._DiamondScanner, "witnesses", witnesses)
    assert cert.first_fault() == f"certificate embedding for {elements_of(s)} {problem}"
    assert f"invalid: {validate_embedding(cert[s])}" == problem


def test_certificate_row_without_the_added_set():
    # a diamond of f that avoids s passes every other row check, and only
    # a family with a diamond has one
    f = SetFamily(3, (0, 1, 2, 3))
    scanner = mock.Mock(pattern=D, witnesses=lambda batch: np.tile([0, 1, 2, 3], (len(batch), 1)))
    cert = saturate.Certificate(f, scanner)
    report = saturate.SaturationReport(Verdict.SATURATED, f, D, "full", True, 1, certificate=cert)
    with pytest.raises(saturate.InternalCheckError) as err:
        saturate._validated(report)
    assert str(err.value) == "certificate embedding for (3,) does not use the added set"
    assert validate_embedding(cert[4]) is None and not cert[4].uses(4)


def test_sample_entry_without_the_added_set():
    # the sample is checked entry by entry, before any certificate
    f = SetFamily(3, (0, 1, 2, 3))
    g = f.add(4)
    emb = saturate.Embedding(g, D, tuple(g.members.index(m) for m in (0, 1, 2, 3)))
    report = saturate.SaturationReport(Verdict.SATURATED, f, D, "full", True, 1, sample=((4, emb),))
    with pytest.raises(saturate.InternalCheckError) as err:
        saturate._validated(report)
    assert str(err.value) == "certificate embedding for (3,) does not use the added set"
    assert validate_embedding(emb) is None and not emb.uses(4)


def test_first_bad_certificate_row_is_named(monkeypatch):
    corrupt_row(monkeypatch, 30, repeat_middle)
    seen = corrupt_row(monkeypatch, 20, swap_bottom_and_top)
    with pytest.raises(saturate.InternalCheckError) as err:
        is_saturated(chain_family(6), D, certificate=True)
    (s,) = seen
    assert str(err.value) == (
        f"certificate embedding for {elements_of(s)} invalid: relation mismatch at pattern pair (0, 1)"
    )


def test_certificate_is_a_read_only_map_of_embeddings():
    f = chain_family(5)
    cert = is_saturated(f, D, certificate=True).certificate
    assert isinstance(cert, Mapping) and not hasattr(cert, "__setitem__")
    missing = sorted((m for m in range(32) if m not in f), key=member_key)
    assert list(cert) == list(cert.keys()) == missing and len(cert) == len(missing)
    for m, emb in cert.items():
        assert m in cert and emb == cert[m] and emb.family == f.add(m)
        assert validate_embedding(emb) is None and emb.uses(m)
    assert 0 not in cert
    with pytest.raises(KeyError):
        cert[0]


def test_certificate_entries_are_the_rows_it_checks():
    # chain 15 has 32,752 missing sets, two batches of the full scan; an
    # entry read alone is built from the row its batch gave
    f = chain_family(15)
    cert = is_saturated(f, D, certificate=True).certificate
    batches = list(cert.rows())
    assert [len(batch) for batch, _ in batches] == [16384, 16368]
    rows = {s: tuple(row) for batch, images in batches for s, row in zip(batch.tolist(), images.tolist())}
    assert list(rows) == list(cert)
    assert {s: emb.image_masks() for s, emb in dict(cert.items()).items()} == rows
    s = list(cert)[20000]
    assert np.int64(s) in cert and cert[np.int64(s)] == cert[s]
    for key in (np.int64(0b111), 1 << 15, -1, np.int64(-1), "4", None):
        assert key not in cert
        with pytest.raises(KeyError):
            cert[key]


def test_certificate_bulk_reads_go_a_batch_at_a_time(monkeypatch):
    # one witnesses call per batch of the full scan, not one per entry
    cert = is_saturated(chain_family(15), D, certificate=True).certificate
    real, calls = saturate._DiamondScanner.witnesses, []

    def witnesses(self, batch):
        calls.append(len(batch))
        return real(self, batch)

    monkeypatch.setattr(saturate._DiamondScanner, "witnesses", witnesses)
    items = dict(cert.items())
    assert calls == [16384, 16368] and len(items) == len(cert)
    calls.clear()
    assert list(cert.values()) == list(items.values()) and calls == [16384, 16368]
    calls.clear()
    assert cert == cert and calls == [16384, 16368] * 2


def test_full_mode_cap():
    with pytest.raises(ValueError):
        is_saturated(SetFamily(25), D, mode="full")


def assert_matches_scan_reference(f, p, through):
    """Full-mode reports, with and without a certificate, and a spot
    report whose sample is every missing set, against the scalar
    canonical-order walk of ``through`` in oracles.scan_reference."""
    plain = is_saturated(f, p, mode="full")
    cert = is_saturated(f, p, mode="full", certificate=True)
    spot = is_saturated(f, p, mode="spot", spot=1 << f.n)
    if plain.verdict is Verdict.NOT_FREE:
        assert oracles.has_induced(f, p)
        assert plain.checked == cert.checked == 0
        assert spot.verdict is Verdict.NOT_FREE
        return
    checked, missing, good = oracles.scan_reference(f, through)
    for rep in (plain, cert):
        assert rep.exhaustive
        assert (rep.checked, rep.missing) == (checked, missing)
    assert (spot.exhaustive, spot.checked, spot.missing) == (True, (1 << f.n) - len(f), missing)
    if missing is not None:
        assert plain.verdict is cert.verdict is spot.verdict is Verdict.FREE_NOT_SATURATED
        return
    assert plain.verdict is cert.verdict is spot.verdict is Verdict.SATURATED
    assert [m for m, _ in plain.sample] == good[:8]
    assert spot.to_json()["sample"] == plain.to_json()["sample"]
    assert plain.certificate is None
    assert list(cert.certificate) == good
    assert plain.to_json() == {**cert.to_json(), "certificate_size": None}


def test_thread_count_does_not_change_report():
    # Reports depend on the family and pattern alone: the scan has no
    # worker count, and each report equals the scalar reference walk.
    fams = [
        chain_family(4),
        SetFamily.of(3, [(1,), (2,), (1, 3), (2, 3)]),
        SetFamily.of(4, [(1,), (1, 2), (1, 2, 3)]),
    ]
    for f in fams:
        for p in (D, make_v()):
            assert_matches_scan_reference(f, p, lambda s: oracles.has_induced_using(f, s, p))


def test_scan_matches_diamond_oracle_for_every_family_up_to_n3():
    for n in (1, 2, 3):
        for r in range((1 << n) + 1):
            for combo in itertools.combinations(range(1 << n), r):
                f = SetFamily(n, combo)
                assert_matches_scan_reference(f, D, lambda s: oracles.diamond_through(f, s))


@st.composite
def scan_families(draw):
    """Random families, which mostly fail early, and greedy saturated
    families with and without one member, which scan far or to the end."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "greedy", "greedy-minus-one"]))
    if kind == "random":
        size = draw(st.integers(0, min(10, 1 << n)))
        masks = draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
        )
        return SetFamily(n, tuple(masks))
    g = greedy_saturate(SetFamily(n), D, order="shuffle", seed=draw(st.integers(0, 999)))
    if kind == "greedy":
        return g
    return g.without(draw(st.sampled_from(g.members)))


@given(scan_families())
@settings(max_examples=150, deadline=None)
def test_scan_matches_creates_diamond_walk(f):
    assert_matches_scan_reference(f, D, lambda s: creates_diamond(f.members, s))


def pair_loop(ms, suptab, subtab):
    """The pairwise loop that pair_generators vectorizes, as its reference."""
    bottoms, tops = {}, {}
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            inter, union = ms[i] & ms[j], ms[i] | ms[j]
            if inter in (ms[i], ms[j]):
                continue
            if suptab[union]:
                bottoms.setdefault(inter, (i, j))
            if subtab[inter]:
                tops.setdefault(union, (i, j))
    return bottoms, tops


def witness_loop(f, s):
    """The per-mask witness search that _DiamondScanner.witnesses batches,
    as its reference: (bottom, middle, middle, top) masks through s in
    f + {s}, or None."""
    ms = f.members
    subtab, suptab = subset_table(f.n, ms), superset_table(f.n, ms)
    bottoms, tops = (sorted(g.items(), key=lambda kv: member_key(kv[0])) for g in pair_loop(ms, suptab, subtab))

    def first(pred):
        return next(m for m in ms if pred(m))

    for g, (i, j) in bottoms:
        if s & g == s:
            u = ms[i] | ms[j]
            return (s, ms[i], ms[j], first(lambda m: m & u == u))
    for g, (i, j) in tops:
        if s & g == g:
            v = ms[i] & ms[j]
            return (first(lambda m: m & v == m), ms[i], ms[j], s)
    for d in ms:
        ds, u = d & s, d | s
        if ds != d and ds != s and subtab[ds] and suptab[u]:
            return (first(lambda m: m & ds == m), s, d, first(lambda m: m & u == u))
    return None


@st.composite
def witness_families(draw):
    """Families over n <= 8: random ones, greedy saturated ones with and
    without one set more or less, and the named ones.  The scanner's
    choice rule is defined on any family, free or not."""
    n = draw(st.sampled_from(range(1, 9)))
    kind = draw(st.sampled_from(
        ["random", "greedy", "greedy-minus-one", "greedy-plus-one", "chain", "singletons", "cosingletons"]
    ))
    if kind == "random":
        size = draw(st.integers(0, min(12, 1 << n)))
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True))
        f = SetFamily(n, tuple(masks))
    elif kind.startswith("greedy"):
        order = draw(st.sampled_from(["canonical", "reverse", "shuffle"]))
        f = greedy_saturate(SetFamily(n), D, order=order, seed=draw(st.integers(0, 999)))
        if kind == "greedy-minus-one":
            f = f.without(draw(st.sampled_from(f.members)))
        elif kind == "greedy-plus-one" and len(f) < 1 << n:
            f = f.add(draw(st.sampled_from([m for m in range(1 << n) if m not in f])))
    else:
        f = {"chain": chain_family, "singletons": empty_plus_singletons,
             "cosingletons": full_plus_cosingletons}[kind](n)
    return f


@given(witness_families(), st.data())
@settings(max_examples=100, deadline=None)
def test_witnesses_match_the_witness_loop(f, data):
    missing = np.array(sorted((m for m in range(1 << f.n) if m not in f), key=member_key), dtype=np.int64)
    expected = [witness_loop(f, s) for s in missing.tolist()]
    scanner = saturate._DiamondScanner(f)

    def rows(images):
        return [None if min(row) < 0 else tuple(row) for row in images.tolist()]

    assert rows(scanner.witnesses(missing)) == expected
    # runs of three entries split every search into many runs, and the
    # rows of a batch do not depend on the rest of the batch
    with mock.patch.object(saturate, "_FIRST_RUN", 3):
        assert rows(scanner.witnesses(missing)) == expected
    cut = data.draw(st.integers(0, len(missing)))
    assert rows(scanner.witnesses(missing[:cut])) + rows(scanner.witnesses(missing[cut:])) == expected


@given(witness_families())
@settings(max_examples=150, deadline=None)
def test_the_tables_recheck_freeness_as_find_diamond_decides_it(f):
    # a member inside a bottom generator is the bottom of a diamond
    if saturate.find_diamond(f) is None:
        assert isinstance(saturate._scanner(f, D), saturate._DiamondScanner)
    else:
        with pytest.raises(saturate.InternalCheckError, match="holds a diamond that find_diamond missed"):
            saturate._scanner(f, D)


@pytest.mark.parametrize("run", [lambda f: is_saturated(f, D), verify_structure_invariants, decompose],
                         ids=["is_saturated", "verify_structure_invariants", "decompose"])
def test_a_diamond_the_in_family_check_misses_is_an_internal_error(monkeypatch, run):
    for module in (saturate, structure):
        monkeypatch.setattr(module, "find_diamond", lambda f: None)
    with pytest.raises(saturate.InternalCheckError, match="holds a diamond that find_diamond missed"):
        run(SetFamily(2, (0, 1, 2, 3)))


@given(scan_families())
@settings(max_examples=150, deadline=None)
def test_pair_generators_match_the_pair_loop(f):
    ms = f.members
    suptab, subtab = superset_table(f.n, ms), subset_table(f.n, ms)
    expected = []
    for gens in pair_loop(ms, suptab, subtab):
        keys = sorted(gens, key=member_key)
        expected.append((keys, [list(gens[k]) for k in keys]))

    def as_lists(got):
        for keys, pairs in got:
            assert keys.dtype == pairs.dtype == np.int64 and pairs.shape == (len(keys), 2)
        return [(keys.tolist(), pairs.tolist()) for keys, pairs in got]

    assert as_lists(pair_generators(ms, suptab, subtab)) == expected
    # three pairs per block put block boundaries inside every row
    with mock.patch.object(saturate, "_PAIR_BLOCK", 3):
        assert as_lists(pair_generators(ms, suptab, subtab)) == expected


@pytest.mark.parametrize("k", [None, 8, 10, 12])
def test_scan_past_the_first_batch(k):
    # 2^16 - 17 missing sets span four batches; the chain without its
    # k-set for 8 <= k <= 12 first fails past the first 2^14 of them.
    f = chain_family(16)
    if k is not None:
        f = f.without((1 << k) - 1)
        checked, _, _ = oracles.scan_reference(f, lambda s: creates_diamond(f.members, s))
        assert checked > 1 << 14
    assert_matches_scan_reference(f, D, lambda s: creates_diamond(f.members, s))


def brute_verdict(f, p):
    return oracles.saturation_verdict(f, p)


def test_verdicts_match_oracle_exhaustively_n2():
    for r in range(5):
        for combo in itertools.combinations(range(4), r):
            f = SetFamily(2, combo)
            rep = is_saturated(f, D, mode="full")
            assert rep.verdict.value == brute_verdict(f, D)


def test_verdicts_match_oracle_exhaustively_n3_diamond():
    universe = list(range(8))
    for r in range(9):
        for combo in itertools.combinations(universe, r):
            f = SetFamily(3, combo)
            rep = is_saturated(f, D, mode="full")
            assert rep.verdict.value == brute_verdict(f, D)


def test_saturation_equals_maximality():
    # saturated <=> free with no free strict superfamily (single additions suffice:
    # freeness is closed downward)
    for r in range(9):
        for combo in itertools.combinations(range(8), r):
            f = SetFamily(3, combo)
            rep = is_saturated(f, D, mode="full")
            free = not oracles.has_induced(f, D)
            maximal = free and all(
                oracles.has_induced(f.add(m), D) for m in range(8) if m not in f
            )
            assert (rep.verdict is Verdict.SATURATED) == maximal


def test_greedy_canonical_from_empty_n2():
    g = greedy_saturate(SetFamily(2), D, order="canonical")
    assert g == SetFamily(2, (0, 1, 2))
    assert len(g) >= 3
    assert is_saturated(g, D, mode="full").verdict is Verdict.SATURATED


def test_greedy_keeps_seed_members():
    g = greedy_saturate(SetFamily.of(3, [()]), D, order="canonical")
    assert 0 in g
    assert is_saturated(g, D, mode="full").verdict is Verdict.SATURATED


def test_greedy_idempotent_on_saturated_input():
    g = greedy_saturate(SetFamily(3), D, order="canonical")
    assert greedy_saturate(g, D, order="canonical") == g


def test_greedy_rejects_non_free_input():
    with pytest.raises(ValueError):
        greedy_saturate(SetFamily(2, (0, 1, 2, 3)), D)


def test_greedy_orders_and_determinism():
    a = greedy_saturate(SetFamily(4), D, order="shuffle", seed=3)
    b = greedy_saturate(SetFamily(4), D, order="shuffle", seed=3)
    c = greedy_saturate(SetFamily(4), D, order="reverse")
    assert a == b
    for fam in (a, c):
        assert is_saturated(fam, D, mode="full").verdict is Verdict.SATURATED


@given(st.integers(3, 6), st.integers(0, 99))
@settings(max_examples=25, deadline=None)
def test_greedy_outputs_are_saturated(n, seed):
    g = greedy_saturate(SetFamily(n), D, order="shuffle", seed=seed)
    assert is_saturated(g, D, mode="full").verdict is Verdict.SATURATED


# sha256 prefixes of the greedy diamond completions of the empty family
# over [n] in the canonical, reverse and shuffle (seeds 0..9) orders, as
# the completion that rebuilt both lookup tables per accepted set gave them
GREEDY_DIGESTS = {
    1: "7de993456cfd2059", 2: "353911d5be8e330f", 3: "74be964953e17322", 4: "95d35bf7d6ec8f3b",
    5: "32ce4e27f293dac9", 6: "f347a81dd256637b", 7: "e5b241586f852d03", 8: "0beb990db7479de9",
    9: "56ef1758bf385047", 10: "94f8457d3b5aa62f", 11: "62e92f37ab043c76", 12: "5d23f80dd1e5efc3",
}


@pytest.mark.parametrize("n", sorted(GREEDY_DIGESTS))
def test_greedy_diamond_completions_are_pinned(n):
    digest = hashlib.sha256()
    for order, seed in [("canonical", 0), ("reverse", 0)] + [("shuffle", seed) for seed in range(10)]:
        g = greedy_saturate(SetFamily(n), D, order=order, seed=seed)
        digest.update(repr((order, seed, g.members)).encode())
    assert digest.hexdigest()[:16] == GREEDY_DIGESTS[n]


def _greedy_order(n, order, seed):
    """The candidate order of greedy_saturate, built from member_key."""
    masks = sorted(range(1 << n), key=member_key)
    if order == "reverse":
        masks.reverse()
    elif order == "shuffle":
        random.Random(seed).shuffle(masks)
    return masks


class _PassAll:
    """A scanner stub for which every candidate creates a copy, so that
    greedy accepts nothing; ``seen`` records the candidates."""

    def __init__(self, seen=None):
        self.seen = seen

    def creates(self, s):
        if self.seen is not None:
            self.seen.append(s)
        return True


@pytest.mark.parametrize("order", ["canonical", "reverse", "shuffle"])
def test_greedy_walks_its_candidates_in_the_reference_order(monkeypatch, order):
    # n = 15 spans two of the scan's batches
    for n in [*range(1, 11), 13, 15]:
        for seed in (0, 1, 7):
            seen = []
            monkeypatch.setattr(saturate, "_scanner", lambda f, p: _PassAll(seen))
            assert greedy_saturate(SetFamily(n), D, order=order, seed=seed) == SetFamily(n)
            assert seen == _greedy_order(n, order, seed)


def test_a_shuffled_greedy_pass_over_17_runs_in_bounded_memory(monkeypatch):
    # the pass holds the layers, their int64 concatenation (1 MiB each)
    # and one batch as Python ints, and traces 2.0 MiB; the order shuffled
    # as a list of 2^17 Python ints traced 5.0 MiB
    monkeypatch.setattr(saturate, "_scanner", lambda f, p: _PassAll())
    tracemalloc.start()
    try:
        g = greedy_saturate(SetFamily(17), D, order="shuffle", seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == SetFamily(17)
    assert peak < 3 << 20


def test_a_canonical_greedy_pass_over_20_runs_in_bounded_memory(monkeypatch):
    # the pass holds two cardinality layers (1.4 MiB each at most) and one
    # batch as Python ints, and traces 4.1 MiB; the 2^20 masks of the
    # whole order take 8 MiB
    monkeypatch.setattr(saturate, "_scanner", lambda f, p: _PassAll())
    canonical_order.cache_clear()
    tracemalloc.start()
    try:
        g = greedy_saturate(SetFamily(20), D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == SetFamily(20)
    assert peak < 6 << 20


@pytest.mark.parametrize("order", ["canonical", "reverse", "shuffle"])
def test_greedy_keeps_no_order_of_2_to_the_n_masks_cached(monkeypatch, order):
    monkeypatch.setattr(saturate, "_scanner", lambda f, p: _PassAll())
    canonical_order.cache_clear()
    assert greedy_saturate(SetFamily(18), D, order=order) == SetFamily(18)
    assert canonical_order.cache_info().currsize == 0


@given(st.integers(1, 4), st.sampled_from(["canonical", "reverse", "shuffle"]), st.integers(0, 999), st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_diamond_matches_the_pairwise_test(n, order, seed, data):
    # a greedy pass over the oracle's quadruple loop, as the reference;
    # its cost grows as |f|^4 per mask, so n stays at 4 or below.  The
    # start is empty or a random subfamily of a greedy completion (free,
    # as freeness is closed downward), so the scanner's tables begin
    # with generators of their own
    pool = greedy_saturate(SetFamily(n), D, order="shuffle", seed=seed + 1).members
    start = SetFamily(n, tuple(data.draw(st.lists(st.sampled_from(pool), unique=True))))
    assert not oracles.has_induced(start, D)
    g = start
    for m in _greedy_order(n, order, seed):
        if m not in g and not oracles.diamond_through(g, m):
            g = g.add(m)
    assert greedy_saturate(start, D, order=order, seed=seed) == g


def _seeded_starts(n):
    """Five free starts over [n]: random subfamilies of shuffled greedy
    completions, of random size."""
    for seed in range(5):
        g = greedy_saturate(SetFamily(n), D, order="shuffle", seed=seed)
        rng = random.Random(seed)
        yield SetFamily(n, tuple(rng.sample(g.members, rng.randrange(len(g) + 1))))


# sha256 prefixes of the greedy diamond completions of _seeded_starts(n)
# in the canonical, reverse and shuffle (seed 100 + start) orders, as the
# completion that called creates_diamond per candidate gave them
SEEDED_GREEDY_DIGESTS = {
    6: "04da450f2916036c", 7: "587aa4556bd9c5c7", 8: "93b36fb7708811d2", 9: "1c18afc41d84e0f4",
    10: "8ca21f0fca76a337",
}


@pytest.mark.parametrize("n", sorted(SEEDED_GREEDY_DIGESTS))
def test_seeded_greedy_diamond_completions_are_pinned(n):
    digest = hashlib.sha256()
    for i, start in enumerate(_seeded_starts(n)):
        for order, seed in [("canonical", 0), ("reverse", 0), ("shuffle", i + 100)]:
            g = greedy_saturate(start, D, order=order, seed=seed)
            digest.update(repr((start.members, order, seed, g.members)).encode())
    assert digest.hexdigest()[:16] == SEEDED_GREEDY_DIGESTS[n]


def test_greedy_checks_the_order_before_building_candidates(monkeypatch):
    # the shuffled candidates hold 2^n masks: 32 MiB at n = 22
    def refuse(n):
        raise AssertionError("candidates built before the order was checked")

    monkeypatch.setattr(saturate, "cardinality_layers", refuse)
    with pytest.raises(ValueError, match="unknown order 'sideways'"):
        greedy_saturate(SetFamily(22), D, order="sideways")


@pytest.mark.parametrize(
    "order, digest", [("canonical", "04acfc6e6efaffbf"), ("shuffle", "f8d5d3a60613551c")], ids=["canonical", "shuffle"]
)
def test_greedy_from_the_middle_layer_over_14_runs_in_bounded_memory(order, digest):
    # an antichain of 3,432 members: accepting {} makes every pair of
    # them a new top generator, 11.8M pairs, which grow must take in
    # blocks.  The digests are sha256 prefixes of the completions the
    # per-candidate creates_diamond gave
    middle = SetFamily(14, tuple(m for m in range(1 << 14) if m.bit_count() == 7))
    tracemalloc.start()
    try:
        g = greedy_saturate(middle, D, order=order, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(repr(g.members).encode()).hexdigest()[:16] == digest
    assert peak < 96 << 20


def test_an_exhaustive_spot_sample_runs_in_bounded_memory():
    # the sample covers the 2^20 - 21 missing sets, so it streams them in
    # the full scan's batches; one batch of all of them traced 63 MiB
    tracemalloc.start()
    try:
        rep = is_saturated(chain_family(20), D, mode="spot", spot=1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.SATURATED and rep.exhaustive and rep.checked == (1 << 20) - 21
    assert peak < 16 << 20


@pytest.mark.parametrize("gap", [None, 10], ids=["chain", "chain-less-its-10-set"])
def test_a_full_scan_of_a_chain_over_20_runs_in_bounded_memory(gap):
    # a chain has a member in every layer; the scan holds two layers of
    # masks (1.4 MiB each at most), the four 2^20 tables (4 MiB) and one
    # batch, and traces 8.2 MiB.  A copy of each layer less its member,
    # or a third live layer, breaks the bound
    f = chain_family(20) if gap is None else chain_family(20).without((1 << gap) - 1)
    tracemalloc.start()
    try:
        rep = is_saturated(f, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is (Verdict.SATURATED if gap is None else Verdict.FREE_NOT_SATURATED)
    assert peak < 9 << 20


def test_a_certificate_over_18_runs_in_bounded_memory():
    # the certificate stores no rows: its check holds one batch of them
    # beside the full scan, and traces 5.2 MiB; rows kept for all
    # 262,125 missing sets traced 38.0 MiB
    tracemalloc.start()
    try:
        rep = is_saturated(chain_family(18), D, certificate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.SATURATED and len(rep.certificate) == (1 << 18) - 19
    assert peak < 8 << 20


@st.composite
def free_families(draw):
    """Diamond-free families over n <= 8: random subfamilies of greedy
    completions in every order, empty and saturated ones included."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from(["canonical", "reverse", "shuffle"]))
    pool = greedy_saturate(SetFamily(n), D, order=order, seed=draw(st.integers(0, 999))).members
    return SetFamily(n, tuple(draw(st.lists(st.sampled_from(pool), unique=True))))


@given(free_families(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_grown_scanner_equals_a_fresh_one(f, data):
    # grow by up to three sets that create no diamond (by creates_diamond,
    # which reads no table)
    scanner = saturate._DiamondScanner(f)
    for _ in range(data.draw(st.integers(1, 3))):
        free = [m for m in range(1 << f.n) if m not in f and not creates_diamond(f.members, m)]
        if not free:
            break
        a = data.draw(st.sampled_from(free))
        scanner.grow(a)
        f = f.add(a)
    fresh = saturate._DiamondScanner(f)
    for name in ("subtab", "suptab", "bottomable", "topable"):
        assert np.array_equal(getattr(scanner, name), getattr(fresh, name)), name
    assert sorted(scanner.member_array.tolist(), key=member_key) == list(f.members)
    missing = np.array(sorted((m for m in range(1 << f.n) if m not in f), key=member_key), dtype=np.int64)
    for i, s in enumerate(missing.tolist()):
        one = missing[i:i + 1]
        assert scanner.first_failure(one) == fresh.first_failure(one)
        assert scanner.creates(s) == (fresh.first_failure(one) is None)
    assert scanner.first_failure(missing) == fresh.first_failure(missing)


@st.composite
def gap_chains(draw):
    """Chains over n <= 10 with any of their sets left out."""
    chain = chain_family(draw(st.integers(1, 10)))
    return SetFamily(chain.n, tuple(draw(st.lists(st.sampled_from(chain.members), unique=True))))


@given(st.one_of(free_families(), gap_chains()), st.data())
@settings(max_examples=80, deadline=None)
def test_first_failure_is_the_first_mask_that_creates_no_diamond(f, data):
    # against creates_diamond, which reads no table; runs of three
    # entries split the middle pass into many runs
    missing = np.array([m for m in canonical_order(f.n).tolist() if m not in f], dtype=np.int64)
    failures = [i for i, s in enumerate(missing.tolist()) if not creates_diamond(f.members, s)]
    scanner = saturate._DiamondScanner(f)
    cut = data.draw(st.integers(0, len(missing)))
    expected = next((i - cut for i in failures if i >= cut), None)
    assert scanner.first_failure(missing[cut:]) == expected
    with mock.patch.object(saturate, "_FIRST_RUN", 3):
        assert scanner.first_failure(missing[cut:]) == expected


def _first_failure_by_brute_force(scanner, batch: np.ndarray) -> int | None:
    """first_failure with _middle tried against every member at once."""
    middle = scanner._middle(batch, scanner.member_array[:, None]).any(0)
    fails = np.flatnonzero(~(scanner.bottomable[batch] | scanner.topable[batch] | middle))
    return int(fails[0]) if len(fails) else None


def _assert_middles(scanner, f: SetFamily) -> None:
    # the members with another member strictly below and one strictly
    # above, nearest the middle layer first
    ms = f.members
    can = [d for d in ms if any(c != d and c & d == c for c in ms) and any(e != d and e & d == d for e in ms)]
    assert sorted(scanner.middles.tolist()) == sorted(can)
    gaps = [abs(2 * d.bit_count() - f.n) for d in scanner.middles.tolist()]
    assert gaps == sorted(gaps)


@st.composite
def greedy_completions(draw):
    """Saturated families over n <= 8, by greedy completion in every order."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from(["canonical", "reverse", "shuffle"]))
    return greedy_saturate(SetFamily(n), D, order=order, seed=draw(st.integers(0, 999)))


@given(st.one_of(free_families(), gap_chains(), greedy_completions()), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_first_failure_tries_the_members_that_can_be_middles(f, grown, data):
    # grow by up to three sets that create no diamond, after a scan that
    # built the middles, so a kept list would be stale
    scanner = saturate._DiamondScanner(f)
    for _ in range(grown):
        missing = np.array([m for m in canonical_order(f.n).tolist() if m not in f], dtype=np.int64)
        scanner.first_failure(missing)
        _assert_middles(scanner, f)
        free = [m for m in missing.tolist() if not creates_diamond(f.members, m)]
        if not free:
            break
        a = data.draw(st.sampled_from(free))
        scanner.grow(a)
        f = f.add(a)
        assert scanner.middles is None
    missing = np.array([m for m in canonical_order(f.n).tolist() if m not in f], dtype=np.int64)
    cut = data.draw(st.integers(0, len(missing)))
    assert scanner.first_failure(missing[cut:]) == _first_failure_by_brute_force(scanner, missing[cut:])
    _assert_middles(scanner, f)
    with mock.patch.object(saturate, "_FIRST_RUN", 3):
        assert scanner.first_failure(missing[cut:]) == _first_failure_by_brute_force(scanner, missing[cut:])


@pytest.mark.parametrize("left_out", [None, 0b111111, 0b1])
def test_first_failure_on_a_chain_over_12_is_the_brute_force(left_out):
    f = chain_family(12)
    if left_out is not None:
        f = f.without(left_out)
    scanner = saturate._DiamondScanner(f)
    missing = np.array([m for m in canonical_order(12).tolist() if m not in f], dtype=np.int64)
    for batch in [missing, *np.array_split(missing, 8)]:
        assert scanner.first_failure(batch) == _first_failure_by_brute_force(scanner, batch)
    _assert_middles(scanner, f)


@st.composite
def layer_families(draw):
    """Families over n <= 12: empty, chains (a member in every layer),
    sets at the ends of their layers, and random sets."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["empty", "chain", "layer-ends", "random"]))
    if kind == "empty":
        return SetFamily(n)
    if kind == "chain":
        return chain_family(n)
    if kind == "layer-ends":
        ends = {mask for c in range(n + 1) for mask in ((1 << c) - 1, ((1 << c) - 1) << (n - c))}
        return SetFamily(n, tuple(draw(st.lists(st.sampled_from(sorted(ends)), unique=True))))
    return SetFamily(n, tuple(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40, unique=True))))


@given(layer_families())
@settings(max_examples=80, deadline=None)
def test_missing_layers_are_the_canonical_order_less_the_members(f):
    runs = list(saturate._missing_layers(f))
    # nonempty int64 views of the layers, no copies
    assert all(len(run) and run.dtype == np.int64 and run.base is not None for run in runs)
    got = np.concatenate(runs).tolist() if runs else []
    assert got == [m for m in canonical_order(f.n).tolist() if m not in f]


def test_greedy_generic_pattern():
    g = greedy_saturate(SetFamily(3), make_v(), order="canonical")
    assert is_saturated(g, make_v(), mode="full").verdict is Verdict.SATURATED


def test_catalog_diamond_n4():
    entries = upper_bound_catalog(4, D)
    assert [e.name for e in entries] == ["chain", "empty+singletons", "full+cosingletons"]
    assert all(e.emitted for e in entries)
    assert all(len(e.family) == 5 for e in entries)
    assert all(e.report.verdict is Verdict.SATURATED for e in entries)


def test_catalog_diamond_n3_sizes():
    entries = upper_bound_catalog(3, D)
    assert [len(e.family) for e in entries] == [4, 4, 4]


def test_catalog_q3_n5():
    entries = upper_bound_catalog(5, make_hypercube(3))
    assert len(entries) == 1 and entries[0].name == "q3-grid"
    assert entries[0].emitted and len(entries[0].family) == 13


def test_catalog_q3_too_small_reported_not_emitted():
    entries = upper_bound_catalog(3, make_hypercube(3))
    assert len(entries) == 1
    assert not entries[0].emitted and entries[0].reason


def test_catalog_unknown_pattern_empty():
    assert upper_bound_catalog(4, make_v()) == []


def test_q3_construction_shape():
    fam = q3_construction(4)
    assert len(fam) == 10
    assert 0 in fam and fam.full_mask in fam


def test_extreme_members_force_size_bound():
    # catalog families that contain {} or [n] all have size >= n+1
    for n in range(3, 8):
        for e in upper_bound_catalog(n, D):
            f = e.family
            if 0 in f or f.full_mask in f:
                assert len(f) >= n + 1


def test_complements_of_catalog_families_saturated():
    for n in range(3, 7):
        for e in upper_bound_catalog(n, D):
            comp = complement_family(e.family)
            assert is_saturated(comp, D, mode="full").verdict is Verdict.SATURATED
