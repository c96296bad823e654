import dataclasses
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetsat.detect import DIAMOND, find_diamond
from posetsat.families import SetFamily, complement_family, elements_of, maximal_sets, minimal_sets
from posetsat import structure
from posetsat.posets import make_chain
from posetsat.saturate import Verdict, chain_family, empty_plus_singletons, full_plus_cosingletons, greedy_saturate
from posetsat.structure import (
    NotDiamondFreeError,
    decompose,
    f_of,
    nested_sequence,
    verify_structure_invariants,
    w_of,
)

import oracles


def sets_of(fam):
    return {frozenset(elements_of(m)) for m in fam.members}


def test_decompose_chain_n3():
    dec = decompose(chain_family(3))
    assert sets_of(dec.A) == {frozenset()}
    assert dec.W == 0b111
    assert np.count_nonzero(dec.B0) == 0 and len(dec.B) == 0 and len(dec.GB) == 0
    assert dec.mA == 0
    assert sets_of(dec.X) == {frozenset({1, 2, 3})}
    assert dec.Wbar == 0b111


def test_decompose_two_level_example():
    dec = decompose(SetFamily.of(3, [(1,), (2,), (1, 3), (2, 3)]))
    assert sets_of(dec.A) == {frozenset({1}), frozenset({2})}
    assert dec.W == 0b100


def test_decompose_rejects_non_free():
    with pytest.raises(NotDiamondFreeError):
        decompose(SetFamily(2, (0, 1, 2, 3)))


def test_decompose_reads_b0_and_y0_off_the_tables_in_bounded_memory():
    # Y0 holds every set of at least two elements; keeping it as the
    # topable table peaks at 0.4 MiB, copying it into a family peaked at
    # 9.6 MiB, and building it through the complement family at 12.2 MiB
    f = empty_plus_singletons(16)
    tracemalloc.start()
    try:
        dec = decompose(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(dec.B0) == 0 and np.count_nonzero(dec.Y0) == (1 << 16) - 17
    assert peak < 11 << 20


def test_decompose_respects_cap():
    with pytest.raises(ValueError):
        decompose(SetFamily(25))


@pytest.mark.parametrize("build", [empty_plus_singletons, full_plus_cosingletons])
def test_structure_suite_keeps_b0_and_y0_as_tables_in_bounded_memory(build):
    # B0 or Y0 holds nearly all 2^20 sets; as the scanner's tables the
    # suite peaks at 8.2 MiB, and copying them into families peaked at
    # 156 MiB
    f = build(20)
    tracemalloc.start()
    try:
        rep = verify_structure_invariants(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.vacuous and rep.failures() == ()
    assert peak < 12 << 20


def test_f_of_and_w_of_examples():
    g = SetFamily.of(3, [(1, 2), (1, 3)])
    assert f_of(1, g) == g
    assert f_of(2, g) == SetFamily.of(3, [(1, 2)])
    assert w_of(g) == 0
    assert w_of(SetFamily.of(3, [(1,)])) == 0b110
    with pytest.raises(ValueError):
        f_of(4, g)


@st.composite
def free_families(draw, max_n=4, max_size=7):
    n = draw(st.integers(2, max_n))
    size = draw(st.integers(0, min(max_size, 1 << n)))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    f = SetFamily(n, tuple(masks))
    if find_diamond(f) is not None:
        # drop a top element of some diamond until free
        while find_diamond(f) is not None:
            emb = find_diamond(f)
            f = f.without(emb.image_masks()[3])
    return f


@given(free_families())
@settings(max_examples=120, deadline=None)
def test_b0_matches_definitional_scan(f):
    dec = decompose(f)
    assert set(np.flatnonzero(dec.B0).tolist()) == oracles.bottom_of_diamond_masks(f)
    assert set(np.flatnonzero(dec.Y0).tolist()) == oracles.top_of_diamond_masks(f)


@given(free_families())
@settings(max_examples=120, deadline=None)
def test_decomposition_invariants(f):
    dec = decompose(f)
    # antichains
    for fam in (dec.A, dec.X, dec.B1, dec.Y1):
        assert minimal_sets(fam) == fam and maximal_sets(fam) == fam
    # GB and A disjoint (dually HY and X)
    assert not set(dec.GB.members) & set(dec.A.members)
    assert not set(dec.HY.members) & set(dec.X.members)
    # B1 = maximal elements of B0, B excludes subsets of minimal members
    assert dec.B1 == maximal_sets(SetFamily(f.n, tuple(np.flatnonzero(dec.B0).tolist())))
    for b in dec.B.members:
        assert not any(b & a == b for a in dec.A.members)
    # every retained witness forms a diamond over its B member
    for b, (c, d, e) in dec.b_witnesses.items():
        assert oracles.diamond_quadruple((b, c, d, e))
        assert all(m in f for m in (c, d, e))
    for y, (c, d, e) in dec.y_witnesses.items():
        assert oracles.diamond_quadruple((e, c, d, y))
        assert all(m in f for m in (c, d, e))
    assert set(dec.b_witnesses) == set(dec.B.members)
    assert set(dec.y_witnesses) == set(dec.Y.members)


@st.composite
def completions(draw):
    """Greedy diamond completions over [4] or [5] of up to three sets (too
    few for a diamond): unlike most free families, they often have B, GB,
    Y and HY nonempty."""
    n = draw(st.integers(4, 5))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3, unique=True))
    return greedy_saturate(SetFamily(n, tuple(masks)), DIAMOND, order="shuffle", seed=draw(st.integers(0, 99)))


def check_middle_generators(f):
    dec = decompose(f)
    middles, least = oracles.middle_generators_brute(f)
    assert set(dec.GB.members) == middles
    assert dec.b_witnesses == least
    full = f.full_mask
    middles, least = oracles.middle_generators_brute(complement_family(f))
    assert set(dec.HY.members) == {full ^ m for m in middles}
    assert dec.y_witnesses == {
        full ^ b: (full ^ c, full ^ d, full ^ e) for b, (c, d, e) in least.items()
    }


@given(free_families())
@settings(max_examples=60, deadline=None)
def test_middle_generators_match_the_definition(f):
    check_middle_generators(f)


@given(completions())
@settings(max_examples=60, deadline=None)
def test_middle_generators_of_completions_match_the_definition(f):
    check_middle_generators(f)


@given(free_families())
@settings(max_examples=120, deadline=None)
def test_dual_coherence(f):
    dec = decompose(f)
    fc = complement_family(f)
    dec_c = decompose(fc)
    full = f.full_mask
    comp = lambda fam: {full ^ m for m in fam.members}
    assert set(dec.X.members) == comp(dec_c.A)
    assert set(dec.HY.members) == comp(dec_c.GB)
    assert dec.Wbar == dec_c.W
    # and X agrees with the direct maximal-member computation
    assert dec.X == maximal_sets(f)
    assert dec.A == minimal_sets(f)


def test_nested_sequence_hand_example():
    seq = nested_sequence(SetFamily.of(3, [(1, 2), (1, 3)]))
    assert seq.k == 2
    assert seq.singletons == (2, 1)
    assert [tuple(elements_of(c)) for c in seq.classes] == [(2,), (1, 3)]
    union = 0
    for c in seq.classes:
        union |= c
    assert union == 0b111  # W is empty here


def test_nested_sequence_singleton():
    seq = nested_sequence(SetFamily.of(2, [(1,)]))
    assert seq.k == 1 and seq.singletons == (1,) and seq.classes == (1,)


def test_nested_sequence_errors():
    with pytest.raises(ValueError):
        nested_sequence(SetFamily(3))
    with pytest.raises(ValueError):
        nested_sequence(SetFamily.of(3, [(1,), (1, 2)]))  # not an antichain
    with pytest.raises(ValueError):
        nested_sequence(SetFamily.of(3, [()]))  # empty member


@st.composite
def antichains(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    # only 2^n - 1 nonempty masks exist, so size may not exceed that
    size = draw(st.integers(1, min(8, (1 << n) - 1)))
    masks = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    fam = minimal_sets(SetFamily(n, tuple(masks)))
    return fam


@given(antichains())
@example(SetFamily.of(1, [(1,)]))
@settings(max_examples=200, deadline=None)
def test_nested_sequence_invariants(a_family):
    seq = nested_sequence(a_family)
    # strictly shrinking stages, first equals input, all nonempty
    assert seq.families[0] == a_family
    for i in range(1, seq.k):
        assert set(seq.families[i].members) < set(seq.families[i - 1].members)
    assert all(fam.members for fam in seq.families)
    # classes are pairwise disjoint and cover exactly the non-W arena
    union = 0
    total = 0
    for c in seq.classes:
        union |= c
        total += c.bit_count()
    assert total == union.bit_count()
    assert union == a_family.full_mask & ~w_of(a_family)
    # each chosen element belongs to its class
    for a, cls in zip(seq.singletons, seq.classes):
        assert cls >> (a - 1) & 1
    # the incidence family of each chosen element matches its whole class
    for i, (a, cls) in enumerate(zip(seq.singletons, seq.classes)):
        stage = seq.families[i]
        base = frozenset(f_of(a, stage).members)
        for j in elements_of(cls):
            assert frozenset(f_of(j, stage).members) == base
    # members at stage j avoid all earlier classes
    for j, fam in enumerate(seq.families):
        for t in fam.members:
            for l in range(j):
                assert not seq.classes[l] & t


def test_verify_chain_gates_standing_checks():
    rep = verify_structure_invariants(chain_family(4))
    assert not rep.vacuous
    by_id = {c.id: c.status for c in rep.checks}
    assert by_id["L2.1"] == "pass"
    assert all(v == "n/a" for k, v in by_id.items() if k != "L2.1")


def test_verify_empty_plus_singletons():
    rep = verify_structure_invariants(empty_plus_singletons(3))
    by_id = {c.id: c.status for c in rep.checks}
    assert by_id["L2.1"] == "pass"
    assert len(rep.family) == 4  # n + 1, consistent with the bound
    assert not rep.failures()


def test_verify_middle_levels_family():
    f = SetFamily.of(3, [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
    rep = verify_structure_invariants(f)
    assert not rep.vacuous and rep.standing
    by_id = {c.id: c.status for c in rep.checks}
    assert not rep.failures()
    assert by_id["L2.2"] == "pass"
    assert by_id["L2.3"] == "pass"
    assert by_id["C3.5"] == "pass"
    # W is empty, so the W-gated checks are not applicable
    assert by_id["L2.4"] == "n/a" and by_id["C3.7"] == "n/a"
    # size 6 > 3n/2 = 4.5 and > n = 3: hypotheses of the size-gated checks fail
    assert by_id["P4.1"] == "n/a" and by_id["P4.3"] == "n/a"
    evidence = {c.id: c.evidence for c in rep.checks}
    assert evidence["L2.3"] == {"overlap": [], "union_size": 3, "chain2_verdict": "SATURATED"}
    notes = {c.id: c.note for c in rep.checks}
    # fixed notes ride on verdicts; an n/a check names the hypothesis that failed
    assert notes["L2.5"].startswith("dual clause") and notes["L2.6"].startswith("the witness set")
    assert notes["L2.2"] is None and notes["P4.1"] == "requires family size below 3n/2"


def run_lemma(cid, dec):
    """One registered suite entry on a decomposition, standing assumption held."""
    (lemma,) = [entry for entry in structure._LEMMAS if entry.id == cid]
    return lemma.run(dec.family, dec, None, True)


# Saturated families never reach the size-gated verdicts below, so the
# checks run directly on diamond-free families.
@pytest.mark.parametrize(
    "cid, sets, n, status, evidence",
    [
        ("P4.1", [(1,), (2,)], 3, "fail", {"common": [[1], [2]]}),
        ("P4.1", [(1,), (1, 2)], 3, "pass", {"common": []}),
        ("P4.1", [(), (1,), (1, 2)], 2, "n/a", None),
        ("P4.3", [(1,), (2,)], 3, "pass", {"common": []}),
        ("P4.3", [(), (1,), (1, 2)], 2, "n/a", None),
    ],
)
def test_size_gated_lemmas_on_free_families(cid, sets, n, status, evidence):
    check = run_lemma(cid, decompose(SetFamily.of(n, sets)))
    assert (check.status, check.evidence) == (status, evidence)


def test_p43_fail_branch():
    # no diamond-free family with |F| <= n at n <= 4 has GB and HY
    # overlapping, so the overlap is put into the decomposition by hand
    dec = decompose(SetFamily.of(3, [(1,), (2,)]))
    both = SetFamily.of(3, [(1,)])
    check = run_lemma("P4.3", dataclasses.replace(dec, GB=both, HY=both))
    assert (check.status, check.evidence) == ("fail", {"common": [[1]]})


def test_chain2_verdict_matches_the_oracle():
    chain2 = make_chain(2)
    families = [SetFamily(3, tuple(m for m in range(8) if bits >> m & 1)) for bits in range(256)]
    rng = random.Random(7)
    for n in (4, 5, 6):
        families += [SetFamily(n, tuple(rng.sample(range(1 << n), rng.randint(0, 8)))) for _ in range(20)]
        # each layer of the cube is a maximal antichain
        families += [SetFamily(n, tuple(m for m in range(1 << n) if m.bit_count() == k)) for k in range(n + 1)]
    seen = set()
    for g in families:
        verdict = structure._chain2_verdict(g)
        assert verdict.value == oracles.saturation_verdict(g, chain2), g
        seen.add(verdict)
    assert seen == set(Verdict)


# First failing member, element and count, as the per-member loops gave them.
@pytest.mark.parametrize(
    "cid, n, sets, parts, evidence",
    [
        ("L2.5", 5, [(1,), (2, 3, 4), (2, 3, 5)], {}, {"minimal": [2, 3, 4], "count": 2}),
        ("L2.5", 5, [(1,), (2,)], {}, {"maximal": [1], "count": 2}),
        ("L2.5", 5, [(1,), (2,)], {"X": [(2,), (1, 2, 3)]}, {"maximal": [2], "count": 2}),
        ("L2.6", 5, [(1,), (2,), (3,), (4, 5)], {"B": [(5,), (1, 2)]}, {"B": [1, 2], "element": 4}),
        (
            "L2.6", 5, [(2, 3, 4, 5), (1, 3, 4, 5), (1, 2, 4, 5), (1, 2, 3)],
            {"B": [(1, 2, 3, 4)], "Y": [(1, 2, 3), (3, 4, 5)]}, {"Y": [3, 4, 5], "element": 4},
        ),
    ],
)
def test_l25_l26_fail_branches(cid, n, sets, parts, evidence):
    dec = decompose(SetFamily.of(n, sets))
    dec = dataclasses.replace(dec, **{k: SetFamily.of(n, v) for k, v in parts.items()})
    check = run_lemma(cid, dec)
    assert (check.status, check.evidence) == ("fail", evidence)


@given(free_families(max_n=5, max_size=10), st.data())
@settings(max_examples=100, deadline=None)
def test_l25_l26_match_the_loops(f, data):
    dec = decompose(f)
    parts = {
        k: SetFamily(f.n, tuple(data.draw(st.lists(st.integers(0, f.full_mask), max_size=4))))
        for k in ("A", "X", "B", "Y")
    }
    dec = dataclasses.replace(dec, **parts)
    for cid, loop, first, second in (
        ("L2.5", oracles.l25_loop, "A", "X"),
        ("L2.6", oracles.l26_loop, "B", "Y"),
    ):
        check = run_lemma(cid, dec)
        failure = loop(f, parts[first].members, parts[second].members)
        assert (check.status == "fail") == (failure is not None)
        if failure is not None:
            kind, mask, value = failure
            assert check.evidence[kind] == list(elements_of(mask))
            assert check.evidence["count" if cid == "L2.5" else "element"] == value


# SHA-256 of the sorted-key JSON of verify_structure_invariants' report on
# greedy shuffle completions; the n = 11 one is the 391-member wide family.
@pytest.mark.parametrize(
    "n, seed, digest",
    [
        (11, 1, "2edf6f8cda67c0528918dca4a2e3aafce33da8dd094640a95808d051b89457e9"),
        (6, 0, "685f3e6c21ee7ec474b5b6d9c52279fc94d9e1129cf5e83bc10affc8717d2b8e"),
        (7, 2, "8b73e319bce98e511a1a39e73021cfbc04245085ed4e0ea5c71912bf620a545e"),
    ],
)
def test_report_json_is_pinned(n, seed, digest):
    g = greedy_saturate(SetFamily(n), DIAMOND, order="shuffle", seed=seed)
    rep = verify_structure_invariants(g)
    blob = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    dec = decompose(g)
    assert rep.decomposition == dec
    assert np.array_equal(rep.decomposition.B0, dec.B0) and np.array_equal(rep.decomposition.Y0, dec.Y0)


def test_verify_vacuous_on_unsaturated():
    rep = verify_structure_invariants(SetFamily.of(2, [(1,)]))
    assert rep.vacuous and rep.checks == ()
    assert rep.saturation.verdict is Verdict.FREE_NOT_SATURATED


def test_verify_greedy_families_no_failures():
    for n, seed in [(4, 0), (5, 1), (5, 2), (6, 3)]:
        g = greedy_saturate(SetFamily(n), DIAMOND, order="shuffle", seed=seed)
        rep = verify_structure_invariants(g)
        assert not rep.vacuous
        assert rep.failures() == ()


def test_report_json_shape():
    f = SetFamily.of(3, [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
    blob = verify_structure_invariants(f).to_json()
    assert blob["n"] == 3
    assert {c["status"] for c in blob["lemmas"]} <= {"pass", "fail", "n/a"}
    assert blob["decomposition"]["A"] == [[1], [2], [3]]
    assert blob["nested"]["k"] == 3
