import json
from pathlib import Path

import jsonschema
import pytest

from posetsat import cli
from posetsat.families import SetFamily, serialize_family
from posetsat.saturate import chain_family

SCHEMA = json.loads(
    (Path(__file__).parents[1] / "docs" / "schemas" / "check_report.schema.json").read_text()
)


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


def test_check_spot_mode_above_the_table_limit(tmp_path, capsys):
    code, doc = check_json(
        capsys, write(tmp_path, "chain30", chain_family(30)), "--mode", "spot:16", "--seed", "3"
    )
    assert code == 0
    assert doc["report"]["checked"] == 16 and doc["report"]["exhaustive"] is False
    assert len(doc["report"]["sample"]) == 8


def test_check_full_mode_above_the_cap_is_a_usage_error(tmp_path, capsys):
    big = write(tmp_path, "big", chain_family(25))
    code, out, err = run(capsys, "check", "--family", big, "--pattern", "diamond")
    assert code == 64 and out == "" and "full mode" in err


@pytest.mark.parametrize("command", ["check", "analyze", "catalog"])
def test_threads_option_is_gone(tmp_path, capsys, command):
    if command == "catalog":
        target = ["--n", "4"]
    else:
        target = ["--family", write(tmp_path, "c", chain_family(4))]
    pattern = [] if command == "analyze" else ["--pattern", "diamond"]
    code, out, err = run(capsys, command, *target, *pattern, "--threads", "2")
    assert code == 64 and out == "" and "--threads" in err


@pytest.mark.parametrize("command", ["satstar", "classify", "noextremes"])
def test_search_commands_keep_threads(command):
    argv = [command, "--n", "3", "--pattern", "diamond", "--threads", "2"]
    args = cli.build_parser().parse_args(argv)
    assert args.threads == 2


def test_check_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("n=3\n1,x\n")
    chain = write(tmp_path, "chain", chain_family(3))
    cases = [(str(tmp_path / "absent.fam"), []), (str(bad), []), (chain, ["--mode", "spot:0"])]
    for path, extra in cases:
        code, out, _ = run(capsys, "check", "--family", path, "--pattern", "diamond", *extra)
        assert code == 65 and out == ""


def test_check_text_output_labels_spot_mode(tmp_path, capsys):
    path = write(tmp_path, "chain6", chain_family(6))
    text = ["check", "--family", path, "--pattern", "diamond", "--format", "text"]
    code, out, _ = run(capsys, *text)
    assert code == 0
    assert out == "SATURATED (pattern diamond, n=6, size=7)\n"
    code, out, _ = run(capsys, *text, "--mode", "spot:5")
    assert code == 0
    assert out == "SATURATED (sampled 5 of 57 missing sets; pattern diamond, n=6, size=7)\n"
