"""Output checks: exit code, JSON schema, expected values, determinism.

A command passes when its exit code is the expected one, its standard
output is one JSON document valid against the command's schema in
``docs/schemas/``, and the values its workload derived in advance match.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

SCHEMA_FILES = {
    "check": "check_report.schema.json",
    "analyze": "analyze_report.schema.json",
    "satstar": "search_manifest.schema.json",
    "classify": "search_manifest.schema.json",
    "q3probe": "q3probe_report.schema.json",
}


def load_schemas(schema_dir: Path) -> dict[str, dict]:
    """CLI subcommand -> JSON schema."""
    return {cmd: json.loads((schema_dir / name).read_text()) for cmd, name in SCHEMA_FILES.items()}


def normalise(text: str) -> str:
    """Canonical form of a JSON output for byte comparison across runs.

    Only two things may differ between runs of one seed: every
    ``wall_time_s`` value, and the directory part of ``config.family``
    (the inputs live in a fresh temporary directory per run).
    """
    doc = json.loads(text)

    def scrub(node):
        if isinstance(node, dict):
            return {k: (None if k == "wall_time_s" else scrub(v)) for k, v in node.items()}
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node

    doc = scrub(doc)
    config = doc.get("config")
    if isinstance(config, dict) and isinstance(config.get("family"), str):
        config["family"] = Path(config["family"]).name
    return json.dumps(doc, sort_keys=True, indent=1)


def _diamond_problem(witness: dict, family: frozenset, through: tuple[int, ...]) -> str | None:
    """Independent check that a witness maps the diamond into `family` through `through`."""
    sets = {entry["point"]: frozenset(entry["set"]) for entry in witness.get("map", [])}
    if sorted(sets) != [0, 1, 2, 3]:
        return f"witness points {sorted(sets)} are not the diamond's 0..3"
    bottom, left, right, top = (sets[i] for i in range(4))
    if not (bottom < left < top and bottom < right < top):
        return "witness sets are not nested as bottom < middles < top"
    if left <= right or right <= left:
        return "witness middles are comparable"
    if any(tuple(sorted(s)) not in family for s in sets.values()):
        return "witness uses a set outside the family"
    if frozenset(through) not in sets.values():
        return "witness does not use the added set"
    return None


def _check_report(cmd, doc: dict) -> list[str]:
    report = doc["report"]
    exp = cmd.expect
    problems = [
        f"{key} {report.get(key)!r} != expected {exp[key]!r}"
        for key in ("verdict", "n", "family_size", "checked", "missing_set", "certificate_size")
        if key in exp and report.get(key) != exp[key]
    ]
    if report.get("mode") != "full" or report.get("exhaustive") is not True:
        problems.append("check did not run an exhaustive full-mode scan")
    if exp.get("verdict") == "NOT_FREE":
        problem = _diamond_problem(report.get("witness", {}), exp["family"], tuple(exp["through"]))
        if problem:
            problems.append(problem)
    return problems


def _analyze_report(cmd, doc: dict) -> list[str]:
    exp = cmd.expect
    sat = doc.get("saturation") or {}
    problems = []
    if doc.get("vacuous") is not False or sat.get("verdict") != "SATURATED":
        problems.append(f"analyze saw verdict {sat.get('verdict')!r}, expected SATURATED")
    if doc.get("n") != exp["n"] or len(doc.get("family", {}).get("sets", ())) != exp["family_size"]:
        problems.append("analyze echoed a different family")
    if sat.get("checked") != exp["checked"]:
        problems.append(f"analyze scan checked {sat.get('checked')!r} != expected {exp['checked']}")
    failed = [lemma["id"] for lemma in doc.get("lemmas", ()) if lemma["status"] == "fail"]
    if failed:
        problems.append(f"invariant checks failed: {failed}")
    return problems


def _search_manifest(cmd, doc: dict) -> list[str]:
    exp = cmd.expect
    result = doc["result"]
    problems = []
    if "layers" in exp and [layer["families"] for layer in doc["layers"]] != exp["layers"]:
        problems.append(f"layer sizes {[layer['families'] for layer in doc['layers']]} != {exp['layers']}")
    for key in ("status", "value", "value_at_least"):
        if key in exp and result.get(key) != exp[key]:
            problems.append(f"result {key} {result.get(key)!r} != expected {exp[key]!r}")
    if "tags" in exp:
        tags = sorted(rep["tag"] for rep in result.get("representatives", ()))
        if tags != sorted(exp["tags"]):
            problems.append(f"representative tags {tags} != {sorted(exp['tags'])}")
    return problems


def _q3probe_report(cmd, doc: dict, schemas: dict) -> list[str]:
    exp = cmd.expect
    problems = []
    if doc.get("verdict") != "SATURATED" or doc.get("size") != exp["size"]:
        problems.append(f"q3probe construction: verdict {doc.get('verdict')!r}, size {doc.get('size')!r}")
    opt = doc.get("optimality")
    if exp["sat_star"] is None:
        if opt is not None:
            problems.append("q3probe ran an optimality search where none was expected")
    elif opt is None or opt.get("sat_star") != exp["sat_star"] or opt.get("construction_optimal") is not True:
        problems.append(f"q3probe optimality {opt and opt.get('sat_star')!r} != {exp['sat_star']}")
    else:
        try:
            jsonschema.validate(opt["manifest"], schemas["satstar"])
        except jsonschema.ValidationError as exc:
            problems.append(f"q3probe manifest violates schema: {exc.message}")
    return problems


def check_output(cmd, exit_code: int, stdout: str, schemas: dict) -> list[str]:
    """Every way this command's run differs from what was expected."""
    problems = []
    if exit_code != cmd.exit_code:
        problems.append(f"exit code {exit_code} != expected {cmd.exit_code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"output is not JSON: {exc}"]
    subcommand = cmd.argv[0]
    try:
        jsonschema.validate(doc, schemas[subcommand])
    except jsonschema.ValidationError as exc:
        return problems + [f"output violates the {subcommand} schema: {exc.message}"]
    if subcommand == "check":
        problems += _check_report(cmd, doc)
    elif subcommand == "analyze":
        problems += _analyze_report(cmd, doc)
    elif subcommand == "q3probe":
        problems += _q3probe_report(cmd, doc, schemas)
    else:
        problems += _search_manifest(cmd, doc)
    return problems
