import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsat import saturate
from posetsat.detect import creates_diamond, validate_embedding
from posetsat.families import SetFamily, complement_family, member_key, subset_table, superset_table
from posetsat.posets import make_chain, make_diamond, make_hypercube, make_v
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


@pytest.mark.parametrize("mode", ["full", "spot"])
def test_saturated_evidence_is_revalidated(monkeypatch, mode):
    # every sample witness becomes the embedding through one fixed other set
    real = saturate._DiamondScanner.witness
    monkeypatch.setattr(saturate._DiamondScanner, "witness", lambda self, s: real(self, 0b10))
    with pytest.raises(saturate.InternalCheckError, match="does not use the added set"):
        is_saturated(chain_family(4), D, mode=mode, spot=8, seed=1)


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


@given(scan_families())
@settings(max_examples=150, deadline=None)
def test_pair_generators_match_the_pair_loop(f):
    ms = f.members
    suptab, subtab = superset_table(f.n, ms), subset_table(f.n, ms)
    expected = pair_loop(ms, suptab, subtab)
    got = pair_generators(ms, suptab, subtab)
    assert got == expected
    assert [list(g) for g in got] == [sorted(g, key=member_key) for g in expected]
    assert pair_generators(ms, suptab) == (expected[0], {})
    # three pairs per block put block boundaries inside every row
    with mock.patch.object(saturate, "_PAIR_BLOCK", 3):
        assert pair_generators(ms, suptab, subtab) == expected


@pytest.mark.parametrize("k", [None, 8, 10, 12])
def test_scan_past_the_first_batch(k):
    # 2^13 - 14 missing sets span two batches; the chain without its
    # k-set for 8 <= k <= 12 first fails past the first 2^12 of them.
    f = chain_family(13)
    if k is not None:
        f = f.without((1 << k) - 1)
        checked, _, _ = oracles.scan_reference(f, lambda s: creates_diamond(f.members, s))
        assert checked > 1 << 12
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
