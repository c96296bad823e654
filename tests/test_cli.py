import ast
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

from posetsat import cli, hasse, saturate, search, structure
from posetsat.detect import DIAMOND
from posetsat.families import SetFamily, member_key, serialize_family
from posetsat.posets import make_hypercube, pattern_from_spec, serialize_pattern
from posetsat.saturate import (
    chain_family, empty_plus_singletons, full_plus_cosingletons, greedy_saturate, q3_construction
)

SCHEMAS = Path(__file__).parents[1] / "docs" / "schemas"


def schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


SCHEMA = schema("check_report")


def write(tmp_path, name, f):
    path = tmp_path / f"{name}.fam"
    path.write_text(serialize_family(f))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_json(capsys, path, *extra):
    code, out, _ = run(capsys, "check", "--family", path, "--pattern", "diamond", *extra)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


@pytest.mark.parametrize("mode", ["full", "spot:100"])
@pytest.mark.parametrize(
    "family, code, verdict",
    [
        (chain_family(5), 0, "SATURATED"),
        (chain_family(5).without(0b11), 2, "FREE_NOT_SATURATED"),
        (SetFamily(2, (0, 1, 2, 3)), 3, "NOT_FREE"),
    ],
)
def test_check_exit_codes_and_schema(tmp_path, capsys, mode, family, code, verdict):
    got, doc = check_json(capsys, write(tmp_path, "f", family), "--mode", mode)
    assert got == code
    report = doc["report"]
    assert report["verdict"] == verdict
    assert report["mode"] == mode.split(":")[0]
    assert report["exhaustive"] is True
    assert "threads" not in doc["config"]


def test_check_certificate_output_validates(tmp_path, capsys):
    code, doc = check_json(capsys, write(tmp_path, "chain", chain_family(4)), "--certificate")
    assert code == 0
    assert doc["report"]["certificate_size"] == (1 << 4) - 5
    assert len(doc["report"]["sample"]) == 8


def test_check_certificate_with_a_corrupted_row_exits_70(tmp_path, capsys, monkeypatch):
    real = saturate._DiamondScanner.witnesses

    def witnesses(self, batch):
        images = real(self, batch)
        if len(batch) > 9:  # row 9 lies past the sample, which asks for 8 rows
            images[9, 3] = images[9, 1]
        return images

    monkeypatch.setattr(saturate._DiamondScanner, "witnesses", witnesses)
    path = write(tmp_path, "chain", chain_family(4))
    code, out, err = run(capsys, "check", "--family", path, "--pattern", "diamond", "--certificate")
    # chain 4's missing sets in canonical order: {2} {3} {4} {1,3} {2,3} {1,4} {2,4} {3,4} {1,2,4} {1,3,4}
    assert code == 70 and out == ""
    assert err == (
        "posetsat: internal inconsistency: certificate embedding for (1, 3, 4) "
        "invalid: mapping is not injective\n"
    )


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_a_diamond_the_in_family_check_misses_exits_70(tmp_path, capsys, monkeypatch, command):
    # the diamond scanner's tables find the diamond find_diamond missed
    for module in (saturate, structure):
        monkeypatch.setattr(module, "find_diamond", lambda f: None)
    pattern = ["--pattern", "diamond"] if command == "check" else []
    code, out, err = run(capsys, command, "--family", write(tmp_path, "f", SetFamily(2, (0, 1, 2, 3))), *pattern)
    assert code == 70 and out == ""
    assert err == "posetsat: internal inconsistency: the family holds a diamond that find_diamond missed\n"


def test_check_spot_mode_above_the_table_limit(tmp_path, capsys):
    code, doc = check_json(
        capsys, write(tmp_path, "chain30", chain_family(30)), "--mode", "spot:16", "--seed", "3"
    )
    assert code == 0
    assert doc["report"]["checked"] == 16 and doc["report"]["exhaustive"] is False
    assert len(doc["report"]["sample"]) == 8


def test_check_spot_mode_over_64_elements(tmp_path, capsys):
    code, doc = check_json(capsys, write(tmp_path, "lone64", SetFamily(64, (0,))), "--mode", "spot:4")
    assert code == 2
    assert doc["report"]["verdict"] == "FREE_NOT_SATURATED" and doc["report"]["n"] == 64


def test_check_full_mode_above_the_cap_is_a_usage_error(tmp_path, capsys):
    big = write(tmp_path, "big", chain_family(25))
    code, out, err = run(capsys, "check", "--family", big, "--pattern", "diamond")
    assert code == 64 and out == "" and "full mode" in err


@pytest.mark.parametrize("n, spot", [(40, 1 << 40), (64, 1 << 64), (25, (1 << 24) + 1)])
def test_a_spot_sample_too_large_to_hold_is_a_usage_error(tmp_path, capsys, monkeypatch, n, spot):
    # refused before the in-family check and the draw: a sample that
    # covered the missing sets would list all 2^n of them
    monkeypatch.setattr(saturate, "_find_copy", mock.Mock(side_effect=AssertionError("searched the family")))
    monkeypatch.setattr(random.Random, "getrandbits", mock.Mock(side_effect=AssertionError("drew a mask")))
    empty = write(tmp_path, "empty", SetFamily(n))
    code, out, err = run(capsys, "check", "--family", empty, "--pattern", "diamond", "--mode", f"spot:{spot}")
    assert code == 64 and out == ""
    assert err == f"posetsat: error: spot mode above n = 24 needs a sample of at most 2^24, got {spot}\n"


def test_satstar_negative_size_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "satstar", "--n", "3", "--pattern", "diamond", "--size-cap", "-3")
    assert code == 64 and out == "" and "size cap" in err


@pytest.mark.parametrize(
    "command",
    ["check", "analyze", "catalog", "satstar", "classify", "noextremes", "q3probe"],
)
def test_threads_option_is_gone(tmp_path, capsys, command):
    if command in ("check", "analyze"):
        target = ["--family", write(tmp_path, "c", chain_family(4))]
    else:
        target = ["--n", "4"]
    pattern = [] if command in ("analyze", "q3probe") else ["--pattern", "diamond"]
    code, out, err = run(capsys, command, *target, *pattern, "--threads", "2")
    assert code == 64 and out == "" and "--threads" in err


def test_check_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("n=3\n1,x\n")
    chain = write(tmp_path, "chain", chain_family(3))
    cases = [(str(tmp_path / "absent.fam"), []), (str(bad), []), (chain, ["--mode", "spot:0"])]
    for path, extra in cases:
        code, out, _ = run(capsys, "check", "--family", path, "--pattern", "diamond", *extra)
        assert code == 65 and out == ""


@pytest.mark.parametrize("mode", ["spot:0", "spot:", "spot:x", "spot:-3", "spot:²", "spot", "full:4", "sample:4"])
def test_a_bad_mode_is_one_data_error(tmp_path, capsys, mode):
    chain = write(tmp_path, "chain", chain_family(3))
    code, out, err = run(capsys, "check", "--family", chain, "--pattern", "diamond", "--mode", mode)
    assert code == 65 and out == ""
    assert err == f"posetsat: data error: bad mode {mode!r}; expected full or spot:<k>\n"


def test_unreadable_inputs_are_data_errors(tmp_path, capsys):
    # a directory and a file that is not UTF-8, as a family and as a pattern
    folder = tmp_path / "dir.poset"
    folder.mkdir()
    binary = tmp_path / "bin.poset"
    binary.write_bytes(b"n=2\n\xff\xfe\n")
    chain = write(tmp_path, "chain", chain_family(3))
    for path in (folder, binary):
        for target in (["--family", str(path), "--pattern", "diamond"], ["--family", chain, "--pattern", str(path)]):
            code, out, err = run(capsys, "check", *target)
            assert code == 65 and out == "" and err.startswith("posetsat: data error: ")


def test_check_text_output_labels_spot_mode(tmp_path, capsys):
    path = write(tmp_path, "chain6", chain_family(6))
    text = ["check", "--family", path, "--pattern", "diamond", "--format", "text"]
    code, out, _ = run(capsys, *text)
    assert code == 0
    assert out == "SATURATED (pattern diamond, n=6, size=7)\n"
    code, out, _ = run(capsys, *text, "--mode", "spot:5")
    assert code == 0
    assert out == "SATURATED (sampled 5 of 57 missing sets; pattern diamond, n=6, size=7)\n"


def test_unnamed_patterns_are_labeled_by_size(tmp_path, capsys):
    # a pattern read from a file has no name; reports call it poset:<size>
    diamond = tmp_path / "d.poset"
    diamond.write_text(serialize_pattern(DIAMOND))
    path = write(tmp_path, "chain3", chain_family(3))
    code, out, _ = run(capsys, "check", "--family", path, "--pattern", str(diamond), "--format", "text")
    assert code == 0 and out == "SATURATED (pattern poset:4, n=3, size=4)\n"
    cube = tmp_path / "q3.poset"
    cube.write_text(serialize_pattern(make_hypercube(3)))
    code, out, _ = run(capsys, "catalog", "--n", "4", "--pattern", str(cube))
    doc = json.loads(out)
    jsonschema.validate(doc, schema("catalog_report"))
    assert code == 0 and doc["pattern"] == "poset:8"
    assert [(e["name"], e["verdict"]) for e in doc["entries"]] == [("q3-grid", "SATURATED")]


def test_a_corrupted_not_free_witness_exits_70(tmp_path, capsys, monkeypatch):
    real = saturate.find_diamond

    def find_diamond(f):
        emb = real(f)
        return dataclasses.replace(emb, mapping=emb.mapping[:3] + emb.mapping[:1])

    monkeypatch.setattr(saturate, "find_diamond", find_diamond)
    path = write(tmp_path, "cube", SetFamily(2, (0, 1, 2, 3)))
    code, out, err = run(capsys, "check", "--family", path, "--pattern", "diamond")
    assert code == 70 and out == ""
    assert err == "posetsat: internal inconsistency: stored embedding invalid: mapping is not injective\n"


@pytest.mark.parametrize(
    "f, pattern, mode",
    [(chain_family(6), "diamond", "full"), (chain_family(6), "v", "full"), (chain_family(30), "diamond", "spot:64")],
    ids=["diamond", "v", "spot-30"],
)
def test_a_missing_set_that_creates_a_copy_exits_70(tmp_path, capsys, monkeypatch, f, pattern, mode):
    for scanner in (saturate._DiamondScanner, saturate._CopyScanner):
        monkeypatch.setattr(scanner, "first_failure", lambda self, batch: 0)
    path = write(tmp_path, "chain", f)
    code, out, err = run(capsys, "check", "--family", path, "--pattern", pattern, "--mode", mode)
    assert code == 70 and out == ""
    assert err.startswith("posetsat: internal inconsistency: missing set (")


def test_satstar_exits_70_when_a_winner_fails_revalidation(capsys, monkeypatch):
    real = search.is_saturated
    monkeypatch.setattr(
        search, "is_saturated",
        lambda f, p, **kw: dataclasses.replace(real(f, p, **kw), verdict=saturate.Verdict.FREE_NOT_SATURATED),
    )
    code, out, err = run(capsys, "satstar", "--n", "3", "--pattern", "diamond")
    assert code == 70 and out == ""
    assert err.startswith("posetsat: internal inconsistency: search produced a family that fails re-validation")


def test_satstar_without_symmetry_reduction(capsys):
    code, out, _ = run(capsys, "satstar", "--n", "4", "--pattern", "diamond", "--no-symmetry")
    plain = json.loads(out)
    jsonschema.validate(plain, schema("search_manifest"))
    assert code == 0 and plain["symmetry"] is False and plain["config"]["no_symmetry"] is True
    code, out, _ = run(capsys, "satstar", "--n", "4", "--pattern", "diamond")
    reduced = json.loads(out)
    assert code == 0 and reduced["symmetry"] is True
    assert [plain["result"][k] for k in ("status", "value")] == [reduced["result"][k] for k in ("status", "value")]
    api = search.sat_star_exact(4, DIAMOND, symmetry=False).to_json()
    assert without_wall_times(plain["layers"]) == without_wall_times(api["layers"])
    # without the reduction each layer holds whole orbits, so no fewer families
    assert all(a["families"] >= b["families"] for a, b in zip(plain["layers"], reduced["layers"]))


def test_a_closed_stdout_exits_1_quietly(tmp_path):
    # 154 members: the DOT text (13 kB) overflows the stdout buffer, so
    # the write fails inside the command, not at interpreter exit
    wide = write(tmp_path, "wide", SetFamily(8, tuple(m for m in range(256) if 2 <= bin(m).count("1") <= 4)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "posetsat.cli", "hasse", "--family", wide],
            stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == b""


# Run the CLI as ``python -m posetsat.cli`` does, then read which deferred
# modules ran: type() does not load a LazyLoader module, and a module
# that has run is a plain module again.
_WHICH_RAN = """
import contextlib, io, runpy, sys, types
sys.argv = ["posetsat", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("posetsat.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
ran = [m for m in ("canonical", "hasse", "search", "structure") if type(sys.modules["posetsat." + m]) is types.ModuleType]
print([code, ran])
"""


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["--version"], []),
        (["check", "--family", "{chain}", "--pattern", "diamond"], []),
        (["check", "--family", "{chain}", "--pattern", "diamond", "--certificate", "--format", "text"], []),
        (["check", "--family", "{chain}", "--pattern", "diamond", "--mode", "spot:5"], []),
        (["catalog", "--n", "4", "--pattern", "diamond"], []),
        (["satstar", "--n", "3", "--pattern", "diamond"], ["canonical", "search"]),
        (["analyze", "--family", "{chain}"], ["structure"]),
        (["analyze", "--family", "{chain}", "--dot", "{dot}"], ["hasse", "structure"]),
    ],
    ids=["version", "check", "certificate", "spot", "catalog", "satstar", "analyze", "analyze-dot"],
)
def test_each_command_runs_only_the_modules_it_needs(tmp_path, argv, ran):
    paths = {"chain": write(tmp_path, "chain", chain_family(5)), "dot": str(tmp_path / "chain.dot")}
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _WHICH_RAN, *(a.format(**paths) for a in argv)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert ast.literal_eval(proc.stdout) == [0, ran]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["satstar", "--n", "4", "--pattern", "diamond"], 5),
        (["classify", "--n", "3", "--pattern", "diamond"], 4),
    ],
)
def test_search_manifests_validate(capsys, argv, value):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("search_manifest"))
    assert "threads" not in doc["config"]
    assert doc["result"]["status"] == "exact" and doc["result"]["value"] == value


def test_noextremes_manifest_validates(capsys):
    code, out, _ = run(capsys, "noextremes", "--n", "4", "--pattern", "diamond")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("search_manifest"))
    result = doc["result"]
    assert (result["status"], result["value"], result["witness_count"]) == ("exact", 8, 2)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["satstar", "--n", "4", "--pattern", "diamond"], "5\n"),
        (["satstar", "--n", "4", "--pattern", "diamond", "--size-cap", "3"], "lower_bound\n"),
        (
            ["classify", "--n", "3", "--pattern", "diamond"],
            "empty+singletons: [[], [1], [2], [3]]\n"
            "chain: [[], [1], [1, 2], [1, 2, 3]]\n"
            "full+cosingletons: [[1, 2], [1, 3], [2, 3], [1, 2, 3]]\n",
        ),
        (["noextremes", "--n", "3", "--pattern", "diamond"], "6\n"),
        (["noextremes", "--n", "2", "--pattern", "diamond"], "infeasible\n"),
    ],
)
def test_search_text_outputs_are_pinned(capsys, argv, text):
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0 and out == text


@pytest.mark.parametrize("n", [2, 3])
def test_noextremes_with_an_empty_frontier_is_infeasible(capsys, n):
    # a free family is a chain, which the empty set always extends, so none
    # is saturated, and the chains of proper nonempty sets end before the cap
    argv = ["noextremes", "--n", str(n), "--pattern", "antichain:2"]
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0 and out == "infeasible\n"
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, schema("search_manifest"))
    assert code == 0 and doc["result"] == {"status": "infeasible"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["satstar", "--n", "7", "--pattern", "diamond"], "exhaustive search needs 1 <= n <= 6, got 7"),
        (["classify", "--n", "6", "--pattern", "diamond"], "classification needs 1 <= n <= 5, got 6"),
        (["noextremes", "--n", "6", "--pattern", "diamond"], "restricted search needs 1 <= n <= 5, got 6"),
        (["q3probe", "--n", "3"], "probe needs 4 <= n <= 6, got 3"),
    ],
)
def test_a_search_outside_its_range_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == "" and err == f"posetsat: error: {message}\n"


def test_hasse_draws_the_covers_of_a_chain(tmp_path, capsys):
    code, out, _ = run(capsys, "hasse", "--family", write(tmp_path, "chain3", chain_family(3)))
    assert code == 0
    assert [line.strip() for line in out.splitlines() if "->" in line] == [
        "n0 -> n1;", "n1 -> n2;", "n2 -> n3;"
    ]


def test_q3probe_report_validates(capsys):
    code, out, _ = run(capsys, "q3probe", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("q3probe_report"))
    jsonschema.validate(doc["optimality"]["manifest"], schema("search_manifest"))
    assert "threads" not in doc["config"]
    assert doc["verdict"] == "SATURATED" and doc["size"] == doc["expected_size"] == 10
    assert doc["optimality"]["sat_star"] == 10 and doc["optimality"]["construction_optimal"]


def analyze_json(capsys, path):
    code, out, _ = run(capsys, "analyze", "--family", path)
    doc = json.loads(out)
    jsonschema.validate(doc, schema("analyze_report"))
    return code, doc


@pytest.mark.parametrize(
    "family, standing",
    [
        # greedy diamond saturation in a seeded order; avoids {} and [5]
        (greedy_saturate(SetFamily(5, ()), DIAMOND, order="shuffle", seed=0), True),
        (chain_family(5), False),
    ],
)
def test_analyze_report_validates(tmp_path, capsys, family, standing):
    code, doc = analyze_json(capsys, write(tmp_path, "f", family))
    assert code == 0
    assert doc["saturation"]["verdict"] == "SATURATED" and doc["vacuous"] is False
    assert doc["standing_assumption"] is standing
    lemmas = doc["lemmas"]
    assert [c["id"] for c in lemmas] == [
        "L2.1", "L2.2", "L2.3", "L2.4", "L2.5", "L2.6", "L2.7",
        "L3.1", "L3.2", "P3.3", "C3.5", "C3.7", "P4.1", "P4.2", "P4.3",
    ]
    assert all(c["status"] in ("pass", "n/a") for c in lemmas)
    if not standing:
        assert {c["status"] for c in lemmas[1:]} == {"n/a"}


def test_analyze_runs_above_n_20_up_to_the_table_limit(tmp_path, capsys):
    code, doc = analyze_json(capsys, write(tmp_path, "chain21", chain_family(21)))
    assert code == 0 and doc["vacuous"] is False
    assert doc["decomposition"]["B0_size"] == doc["decomposition"]["Y0_size"] == 0


def test_analyze_exit_codes_off_the_saturated_path(tmp_path, capsys):
    code, doc = analyze_json(capsys, write(tmp_path, "gap", chain_family(5).without(0b11)))
    assert code == 2
    assert doc["vacuous"] is True and doc["lemmas"] == [] and doc["decomposition"] is None
    code, doc = analyze_json(capsys, write(tmp_path, "cube", SetFamily(2, (0, 1, 2, 3))))
    assert code == 3
    assert doc["saturation"]["verdict"] == "NOT_FREE" and doc["vacuous"] is True
    assert [e["set"] for e in doc["saturation"]["witness"]["map"]] == [[], [1], [2], [1, 2]]


def test_analyze_reports_emit_exactly_the_schema_keys(tmp_path, capsys):
    head = {"tool", "version", "command", "config"}
    body = set(schema("analyze_report")["properties"]) - head
    standing = greedy_saturate(SetFamily(5, ()), DIAMOND, order="shuffle", seed=0)
    vacuous = chain_family(5).without(0b11)
    not_free = SetFamily(2, (0, 1, 2, 3))
    for name, family in [("standing", standing), ("vacuous", vacuous), ("not_free", not_free)]:
        _, out, _ = run(capsys, "analyze", "--family", write(tmp_path, name, family))
        assert set(json.loads(out)) - head == body, name


def test_analyze_exits_70_when_an_invariant_fails(tmp_path, capsys, monkeypatch):
    first = structure._LEMMAS[0]
    broken = dataclasses.replace(first, check=lambda f, dec, nested: (False, {"forced": True}))
    monkeypatch.setattr(structure, "_LEMMAS", [broken, *structure._LEMMAS[1:]])
    code, out, err = run(capsys, "analyze", "--family", write(tmp_path, "chain", chain_family(5)))
    assert code == 70
    assert json.loads(out)["lemmas"][0]["status"] == "fail"
    assert err == (
        "invariant FAILURES on a saturated family (implementation defect):\n"
        f'  {first.id}: {{"forced": true}}\n'
    )


def test_analyze_reports_a_diamond_under_saturation(tmp_path, capsys):
    code, doc = analyze_json(capsys, write(tmp_path, "cube", SetFamily(2, (0, 1, 2, 3))))
    assert code == 3
    assert doc["lemmas"] == [] and doc["decomposition"] is None
    assert "verdict" not in doc and "witness" not in doc
    assert doc["saturation"]["verdict"] == "NOT_FREE"
    assert doc["saturation"]["witness"]["pattern"] == "diamond"


def test_analyze_writes_the_dot_file_before_the_report(tmp_path, capsys, monkeypatch):
    family = write(tmp_path, "chain", chain_family(5))
    dot = tmp_path / "chain.dot"
    code, out, _ = run(capsys, "analyze", "--family", family, "--dot", str(dot))
    assert code == 0 and json.loads(out)["command"] == "analyze"
    assert dot.read_text().startswith("digraph hasse {")
    # an unwritable path, then a family above the DOT cap: no report at all
    code, out, err = run(capsys, "analyze", "--family", family, "--dot", str(tmp_path / "absent" / "f.dot"))
    assert code == 65 and out == "" and err.startswith("posetsat: data error: ")
    monkeypatch.setattr(hasse, "MAX_HASSE", 5)
    code, out, err = run(capsys, "analyze", "--family", family, "--dot", str(dot))
    assert code == 64 and out == "" and "hasse export capped at 5 members" in err


def test_catalog_text_lists_each_entry(capsys):
    code, out, _ = run(capsys, "catalog", "--n", "4", "--pattern", "diamond", "--format", "text")
    assert code == 0
    assert out == (
        "chain: size=5, SATURATED\n"
        "empty+singletons: size=5, SATURATED\n"
        "full+cosingletons: size=5, SATURATED\n"
    )
    code, out, _ = run(capsys, "catalog", "--n", "3", "--pattern", "qk:3", "--format", "text")
    assert code == 0 and out == "q3-grid: size=-, construction needs n >= 4, got 3\n"


@pytest.mark.parametrize("n", [0, -3, 25, 70])
def test_catalog_outside_1_to_24_is_a_usage_error(capsys, n):
    code, out, err = run(capsys, "catalog", "--n", str(n), "--pattern", "diamond")
    assert code == 64 and out == ""
    assert err == f"posetsat: error: catalog needs 1 <= n <= 24, got {n}\n"


def test_catalog_report_validates(capsys):
    code, out, _ = run(capsys, "catalog", "--n", "4", "--pattern", "diamond")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("catalog_report"))
    assert [(e["name"], e["emitted"], e["size"], e["verdict"]) for e in doc["entries"]] == [
        ("chain", True, 5, "SATURATED"),
        ("empty+singletons", True, 5, "SATURATED"),
        ("full+cosingletons", True, 5, "SATURATED"),
    ]


def test_a_catalog_construction_that_fails_verification_is_reported_not_emitted(capsys, monkeypatch):
    real = saturate.is_saturated

    def is_saturated(f, p, **kwargs):
        report = real(f, p, **kwargs)
        if f == empty_plus_singletons(4):
            return dataclasses.replace(report, verdict=saturate.Verdict.FREE_NOT_SATURATED)
        return report

    monkeypatch.setattr(saturate, "is_saturated", is_saturated)
    code, out, _ = run(capsys, "catalog", "--n", "4", "--pattern", "diamond")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("catalog_report"))
    assert [(e["name"], e["emitted"], e["size"], e["reason"], e["verdict"]) for e in doc["entries"]] == [
        ("chain", True, 5, None, "SATURATED"),
        ("empty+singletons", False, 5, "verdict FREE_NOT_SATURATED", "FREE_NOT_SATURATED"),
        ("full+cosingletons", True, 5, None, "SATURATED"),
    ]


def golden_family(name, p):
    """The families of the check goldens: greedy completions of the
    empty family, one of them less its last member, and the Q3
    construction."""
    if name.startswith("q3c"):
        return q3_construction(int(name[3:]))
    n, order, seed = {"greedy4": (4, "canonical", 0), "greedy5": (5, "canonical", 0),
                      "greedy5r": (5, "reverse", 0), "greedy5s": (5, "shuffle", 3),
                      "greedy5cut": (5, "canonical", 0)}[name]
    g = greedy_saturate(SetFamily(n), p, order=order, seed=seed)
    return g.without(g.members[-1]) if name == "greedy5cut" else g


# sha256 prefixes over the certificate rows of is_saturated(...,
# certificate=True) and the exit codes and report JSON of `check`
# with --certificate, in full mode and in mode spot:7, with the verdict
CHECK_DIGESTS = {
    ("v", "greedy4"): "f3deb6ee4db996ee",  # SATURATED
    ("v", "greedy5"): "9bbee72fc15df220",  # SATURATED
    ("v", "greedy5r"): "1a5a639090879872",  # SATURATED
    ("v", "greedy5s"): "76636ea81ec3748f",  # SATURATED
    ("v", "greedy5cut"): "b94e312db5e80937",  # FREE_NOT_SATURATED
    ("v", "q3c4"): "8ad6708f9ab98ce9",  # NOT_FREE
    ("v", "q3c5"): "09dd4015d24be86d",  # NOT_FREE
    ("chain:3", "greedy4"): "1986900d3ddc177a",  # SATURATED
    ("chain:3", "greedy5"): "410b07515c0906b2",  # SATURATED
    ("chain:3", "greedy5r"): "0fd2083492b64dc7",  # SATURATED
    ("chain:3", "greedy5s"): "9cc0a891ce353e91",  # SATURATED
    ("chain:3", "greedy5cut"): "cc53d7747ccd2599",  # FREE_NOT_SATURATED
    ("chain:3", "q3c4"): "628262012c1a6091",  # NOT_FREE
    ("chain:3", "q3c5"): "85c1299a514c6410",  # NOT_FREE
    ("qk:3", "greedy4"): "54f9eca68b348f2b",  # SATURATED
    ("qk:3", "greedy5"): "89863cc2e6a9224f",  # SATURATED
    ("qk:3", "greedy5r"): "0a4839d5582d1874",  # SATURATED
    ("qk:3", "greedy5s"): "b2a5744ca16b5a8a",  # SATURATED
    ("qk:3", "greedy5cut"): "c53ec7a4abc2ea63",  # FREE_NOT_SATURATED
    ("qk:3", "q3c4"): "a5233113a16b15af",  # SATURATED
    ("qk:3", "q3c5"): "adb6e8ac87c4eba8",  # SATURATED
    ("lambda", "greedy4"): "738a00896e849b81",  # SATURATED
    ("lambda", "greedy5"): "bc9e5265040c5f2c",  # SATURATED
    ("lambda", "greedy5r"): "9796a25b30549dfb",  # SATURATED
    ("lambda", "greedy5s"): "98b741ae5401cc04",  # SATURATED
    ("lambda", "greedy5cut"): "ebefc2578fb37993",  # FREE_NOT_SATURATED
    ("lambda", "q3c4"): "5c49a1329b185807",  # NOT_FREE
    ("lambda", "q3c5"): "c3498fc690cb8164",  # NOT_FREE
    ("antichain:3", "greedy4"): "51d64d4716d7aa8e",  # SATURATED
    ("antichain:3", "greedy5"): "c646988c316d656d",  # SATURATED
    ("antichain:3", "greedy5r"): "a5c208747ad98f1b",  # SATURATED
    ("antichain:3", "greedy5s"): "13328b0bcfc6eea9",  # SATURATED
    ("antichain:3", "greedy5cut"): "2065a378fc4ed925",  # FREE_NOT_SATURATED
    ("antichain:3", "q3c4"): "6ce8806eec901573",  # NOT_FREE
    ("antichain:3", "q3c5"): "1ee2996b02719a72",  # NOT_FREE
}


@pytest.mark.parametrize("spec, name", sorted(CHECK_DIGESTS))
def test_check_outputs_are_pinned(tmp_path, capsys, spec, name):
    p = pattern_from_spec(spec)
    f = golden_family(name, p)
    digest = hashlib.sha256()
    cert = saturate.is_saturated(f, p, certificate=True).certificate
    digest.update(b"none" if cert is None else b"".join(images.tobytes() for _, images in cert.rows()))
    path = write(tmp_path, "f", f)
    for extra in (["--certificate"], [], ["--mode", "spot:7"]):
        code, out, _ = run(capsys, "check", "--family", path, "--pattern", spec, *extra)
        digest.update(repr(code).encode())
        digest.update(json.dumps(json.loads(out)["report"], sort_keys=True).encode())
    assert digest.hexdigest()[:16] == CHECK_DIGESTS[spec, name]


# sha256 prefixes over the exit codes and report JSON of `check --mode
# spot:64` and `spot:1000` with seed 5, above the table limit, where the
# diamond takes the per-mask through-test; all six are SATURATED
SPOT_DIGESTS = {
    ("chain", 30): "608c142ca92403af",
    ("chain", 64): "310db74d49d59135",
    ("e+s", 30): "7fae23fb7568d167",
    ("e+s", 64): "5804968bcf23c388",
    ("f+c", 30): "07517f84ad17df4e",
    ("f+c", 64): "26bf5dd288c1247b",
}
SPOT_FAMILIES = {"chain": chain_family, "e+s": empty_plus_singletons, "f+c": full_plus_cosingletons}


@pytest.mark.parametrize("name, n", sorted(SPOT_DIGESTS))
def test_spot_outputs_above_the_table_limit_are_pinned(tmp_path, capsys, name, n):
    path = write(tmp_path, "f", SPOT_FAMILIES[name](n))
    digest = hashlib.sha256()
    for mode in ("spot:64", "spot:1000"):
        code, out, _ = run(capsys, "check", "--family", path, "--pattern", "diamond", "--mode", mode, "--seed", "5")
        digest.update(repr(code).encode())
        digest.update(json.dumps(json.loads(out)["report"], sort_keys=True).encode())
    assert digest.hexdigest()[:16] == SPOT_DIGESTS[name, n]


def _greedy10():
    return greedy_saturate(SetFamily(10), DIAMOND, order="shuffle", seed=1)


def _plus_least_missing(f):
    return f.add(min((m for m in range(1 << f.n) if m not in f), key=member_key))


# sha256 prefixes over the exit codes and report JSON of `check` with
# --certificate, in full mode and in modes spot:7, spot:5000 and
# spot:<2^n>, all with seed 5, at or below the table limit, as the
# scan that took a covering spot sample as one batch gave them
DIAMOND_CHECK_FAMILIES = {
    "chain10": (lambda: chain_family(10), "14a1b75686efb1ae"),  # SATURATED
    "e+s12": (lambda: empty_plus_singletons(12), "fa6b82255d8fe282"),  # SATURATED
    "f+c12": (lambda: full_plus_cosingletons(12), "c1168b3cbf7644c9"),  # SATURATED
    "greedy10": (_greedy10, "2df269c889be4d5a"),  # SATURATED
    "chain9cut": (lambda: chain_family(9).without(0b111), "503b2c6ecec4a5f8"),  # FREE_NOT_SATURATED
    "greedy10plus": (lambda: _plus_least_missing(_greedy10()), "dcdae8dc5f82fc4e"),  # NOT_FREE
}


@pytest.mark.parametrize("name", sorted(DIAMOND_CHECK_FAMILIES))
def test_diamond_check_outputs_within_the_table_limit_are_pinned(tmp_path, capsys, name):
    build, expected = DIAMOND_CHECK_FAMILIES[name]
    f = build()
    path = write(tmp_path, "f", f)
    digest = hashlib.sha256()
    for extra in (["--certificate"], [], ["--mode", "spot:7"], ["--mode", "spot:5000"], ["--mode", f"spot:{1 << f.n}"]):
        code, out, _ = run(capsys, "check", "--family", path, "--pattern", "diamond", *extra, "--seed", "5")
        digest.update(repr(code).encode())
        digest.update(json.dumps(json.loads(out)["report"], sort_keys=True).encode())
    assert digest.hexdigest()[:16] == expected


def without_wall_times(node):
    if isinstance(node, dict):
        return {k: without_wall_times(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [without_wall_times(v) for v in node]
    return node


# sha256 prefixes over the exit code and the JSON output, wall times
# dropped, of exact-search commands
SEARCH_DIGESTS = {
    ("q3probe", "--n", "4"): "0049f097ff246a17",
    ("satstar", "--pattern", "v", "--n", "5"): "2173fe66d3673283",
    ("satstar", "--n", "6", "--pattern", "diamond"): "101121c9adb2b724",
}


@pytest.mark.parametrize("argv", sorted(SEARCH_DIGESTS), ids="-".join)
def test_search_outputs_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    text = repr(code) + json.dumps(without_wall_times(doc), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SEARCH_DIGESTS[argv]
