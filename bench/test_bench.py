"""Tests of the benchmark's own logic: span arithmetic, wrapping, the
output normaliser, the checker and the derived expectations."""

from __future__ import annotations

import io
import json
import random
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Target, Tracer, installed, span_self_times, summarise  # noqa: E402

from posetsat import cli  # noqa: E402
from posetsat.detect import DIAMOND  # noqa: E402
from posetsat.saturate import chain_family, is_saturated  # noqa: E402


class FakeClock:
    """Returns the given instants in order."""

    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_covered_child_time():
    t = Tracer()
    t.spans = [
        Span("outer", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        Span("c", 9.0, 12.0, 0),  # runs past the parent: only [9, 10] counts
        Span("leaf", 2.5, 3.0, 2),
    ]
    assert span_self_times(t) == pytest.approx([10 - 4 - 1, 2.0, 2.5, 3.0, 0.5])


def test_aggregates_count_as_covered_time_of_their_parent():
    # outer start, agg start, agg end, agg start, agg end, outer end
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 4.0, 7.0, 10.0))
    mod = types.ModuleType("fakepkg.m")
    mod.leaf = lambda x: x > 0
    mod.outer = lambda: [mod.leaf(1), mod.leaf(-1)]
    sys.modules["fakepkg.m"] = mod
    try:
        targets = [Target("fakepkg.m.outer"), Target("fakepkg.m.leaf", aggregate=True,
                                                     observe=lambda args, r: {"true": int(r)})]
        with installed(targets, tracer, package="fakepkg"):
            assert mod.outer() == [True, False]
    finally:
        del sys.modules["fakepkg.m"]
    table = summarise(tracer)
    assert table["fakepkg.m.outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert table["fakepkg.m.leaf"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "true": 1}


def test_calls_inside_an_aggregate_are_not_counted_twice():
    # root start; hot start; inner start, inner end; hot end; root end
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 5.0, 6.0))
    mod = types.ModuleType("fakepkg.m")
    mod.inner = lambda: None
    mod.hot = lambda: mod.inner()
    mod.root = lambda: mod.hot()
    sys.modules["fakepkg.m"] = mod
    try:
        targets = [Target("fakepkg.m.root"), Target("fakepkg.m.hot", aggregate=True), Target("fakepkg.m.inner")]
        with installed(targets, tracer, package="fakepkg"):
            mod.root()
    finally:
        del sys.modules["fakepkg.m"]
    table = summarise(tracer)
    assert table["fakepkg.m.root"]["self_s"] == pytest.approx(2.0)
    assert table["fakepkg.m.hot"]["self_s"] == pytest.approx(3.0)
    assert table["fakepkg.m.inner"]["busy_s"] == pytest.approx(1.0)


def test_every_binding_of_a_layer_function_is_wrapped_and_restored():
    originals = {}
    for target in layers.targets():
        fn = getattr(sys.modules[target.module], target.func)
        originals[target.qualname] = fn
    bindings = lambda: [  # noqa: E731
        (name, attr)
        for name, mod in sys.modules.items()
        if name.startswith("posetsat")
        for attr, value in vars(mod).items()
        if any(value is fn for fn in originals.values())
    ]
    before = bindings()
    assert ("posetsat.saturate", "find_diamond") in before
    assert ("posetsat.structure", "find_diamond") in before
    with installed(layers.targets(), Tracer()):
        assert bindings() == []
    assert bindings() == before


def _check_output(path: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "--family", str(path), "--pattern", "diamond", *extra])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def schemas():
    return checker.load_schemas(REPO / "docs" / "schemas")


@pytest.fixture()
def chain_check(tmp_path):
    f = chain_family(6)
    path = workloads.write_family(tmp_path, "chain6", f)
    code, stdout = _check_output(Path(path))
    return workloads._saturated("check-chain", "check", path, f), code, stdout


def test_checker_accepts_a_correct_output(chain_check, schemas):
    cmd, code, stdout = chain_check
    assert checker.check_output(cmd, code, stdout, schemas) == []


def test_checker_rejects_a_tampered_verdict(chain_check, schemas):
    cmd, code, stdout = chain_check
    doc = json.loads(stdout)
    doc["report"]["verdict"] = "FREE_NOT_SATURATED"
    problems = checker.check_output(cmd, code, json.dumps(doc), schemas)
    assert any("verdict" in p for p in problems)


def test_checker_rejects_a_schema_invalid_document(chain_check, schemas):
    cmd, code, stdout = chain_check
    doc = json.loads(stdout)
    doc["report"]["verdict"] = "PROBABLY"
    problems = checker.check_output(cmd, code, json.dumps(doc), schemas)
    assert len(problems) == 1 and "schema" in problems[0]
    del doc["report"]
    assert "schema" in checker.check_output(cmd, code, json.dumps(doc), schemas)[0]


def test_checker_rejects_a_wrong_exit_code_and_non_json(chain_check, schemas):
    cmd, _, stdout = chain_check
    assert checker.check_output(cmd, 2, stdout, schemas) == ["exit code 2 != expected 0"]
    assert "not JSON" in checker.check_output(cmd, 0, "SATURATED\n", schemas)[0]


def test_checker_validates_a_not_free_witness(tmp_path, schemas):
    f = chain_family(6).add(0b000010)  # {2} beside {1}: bottom {}, middles {1}, {2}, top {1,2}
    cmd = workloads.Command("bad", "reject", ["check"], 3, {
        "verdict": "NOT_FREE", "n": 6, "family_size": len(f), "checked": 0,
        "through": (2,), "family": frozenset(f.sets()),
    })
    code, stdout = _check_output(Path(workloads.write_family(tmp_path, "bad", f)))
    assert checker.check_output(cmd, code, stdout, schemas) == []
    doc = json.loads(stdout)
    doc["report"]["witness"]["map"][3]["set"] = [1]
    assert checker.check_output(cmd, code, json.dumps(doc), schemas)


def test_normaliser_ignores_only_wall_time_and_the_family_directory():
    a = {"config": {"family": "work/run-1/chain20.txt", "seed": 0},
         "wall_time_s": 1.5, "optimality": {"manifest": {"wall_time_s": 3.0, "n": 4}}}
    b = json.loads(json.dumps(a))
    b["config"]["family"] = ".bench_work/run-2/chain20.txt"
    b["wall_time_s"] = 2.25
    b["optimality"]["manifest"]["wall_time_s"] = 0.5
    assert checker.normalise(json.dumps(a)) == checker.normalise(json.dumps(b))
    for change in (("config", "family", "work/run-1/chain21.txt"), ("config", "seed", 1)):
        c = json.loads(json.dumps(a))
        c[change[0]][change[1]] = change[2]
        assert checker.normalise(json.dumps(c)) != checker.normalise(json.dumps(a))
    c = json.loads(json.dumps(a))
    c["optimality"]["manifest"]["n"] = 5
    assert checker.normalise(json.dumps(c)) != checker.normalise(json.dumps(a))


def test_colex_rank_counts_smaller_masks_of_equal_size():
    for mask in range(1 << 7):
        expected = sum(1 for m in range(mask) if m.bit_count() == mask.bit_count())
        assert workloads.colex_rank(mask) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_reject_expectations_match_a_full_scan(seed, k):
    n = 8
    perm = workloads.block_permutation(n, random.Random(seed)) if seed else list(range(n))
    f = workloads.relabel(chain_family(n), perm)
    f = f.without(workloads.map_mask((1 << k) - 1, perm))
    report = is_saturated(f, DIAMOND)
    first = workloads.chain_gap_first_failure(k, perm)
    assert report.missing == first
    assert report.checked == workloads.masks_checked_until(f, first)


def test_block_permutation_keeps_the_half_chain_set_first():
    for seed in range(5):
        perm = workloads.block_permutation(20, random.Random(seed))
        assert workloads.map_mask((1 << 10) - 1, perm) == (1 << 10) - 1
        assert workloads.chain_gap_first_failure(10, perm) == (1 << 10) - 1


def test_benchmark_json_lists_what_the_benchmark_reports():
    import run

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRIC_UNITS
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_reference_seconds_convert_start_ups_and_the_rest_apart():
    import run

    speed = run.Speed()
    speed.loops = [2 * run.LOOP_REF_S, 4 * run.LOOP_REF_S]  # computing at a third of reference speed
    speed.starts = [0.3, 0.5]  # an interpreter start takes 0.4 s
    wall = {"value": 2.0, "median": 1.7, "q1": 1.1, "q3": 2.3, "samples": 4, "unit": "s"}
    ref = speed.to_reference(wall, processes=2)
    starts = 2 * run.START_REF_S
    assert ref == {"value": pytest.approx(starts + 0.4), "median": pytest.approx(starts + 0.3),
                   "q1": pytest.approx(starts + 0.1), "q3": pytest.approx(starts + 0.5), "samples": 4, "unit": "s"}
