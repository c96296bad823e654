"""posetsat benchmark: runs the CLI as users do and checks every output.

Usage, from the root of a checkout:

    python3 bench/run.py --workload check-tall --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all

Untraced runs (``--trace 0``) start one ``posetsat`` process per command,
one after another (a closed loop with a single client), and take wall time
from the clock and peak RSS from ``os.wait4``.  Passes over the workload's
commands repeat until another pass would overrun ``--seconds``.  Every time
metric is reported in reference seconds: wall time converted to a fixed
machine speed, as the run's calibrations measure it (see ``Speed``).  A
metric is the mean over passes, and ``setup_s`` is the median of five
set-ups.  Traced runs (``--trace 1``) call ``posetsat.cli.main`` in
this process, once plain and once with the layer functions wrapped (see
tracer.py), and report per-layer metrics as medians over passes.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record goes to
``.bench_results/``.  Exit status: 0 when every output was correct, 1 when
some output was wrong, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layers
from checker import check_output, load_schemas, normalise
from tracer import Tracer, installed, summarise

# workloads.py imports posetsat, which prepare_imports() first puts on the path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
# The calibration loop's length, and the time it takes at reference speed.
LOOP_STEPS = 400_000
LOOP_REF_S = 0.04
# Time to start the interpreter and import numpy at reference speed.
START_REF_S = 0.13

# Command kind -> end-to-end metric its wall time is summed into.
KIND_METRIC = {
    "check": "check_s",
    "reject": "reject_s",
    "certificate": "certificate_s",
    "analyze": "analyze_s",
    "satstar": "satstar_s",
    "classify": "classify_s",
    "q3probe": "q3probe_s",
}

END_TO_END_UNITS = {
    "check_s": "s",
    "reject_s": "s",
    "certificate_s": "s",
    "analyze_s": "s",
    "satstar_s": "s",
    "classify_s": "s",
    "q3probe_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CheckoutError(Exception):
    """The working directory is not a posetsat checkout that can be benchmarked."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values: list[float], unit: str, value: float | None = None) -> dict:
    """Reported value (the median unless given) plus median, quartiles and sample count."""
    q1, med, q3 = quartiles(values)
    return {"value": med if value is None else value, "median": med, "q1": q1, "q3": q3,
            "samples": len(values), "unit": unit}


# ---------------------------------------------------------------- running


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(LOOP_STEPS):
        acc += i * i % 7
        seen[i & 1023] = acc
    return time.perf_counter() - start


def interpreter_start() -> float:
    """Wall time to start this interpreter and import numpy in a new process.

    That is the part of every command's start-up that the program does not
    control.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdin=subprocess.DEVNULL,
                   timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start


class Speed:
    """The machine's speed over one run, measured in two ways.

    On a shared host the speed at which this process runs drifts by tens
    of percent over seconds to hours, and starting a process (exec, loading
    libraries, importing numpy) drifts apart from computing: on a shared
    2-vCPU virtual machine, the CLI's shortest commands took 30% longer in
    one set of runs than in another twenty minutes later, while the
    calibration loop took 8% longer.  A command's wall time is converted to
    reference speed in two parts: one interpreter start per process, timed
    by ``interpreter_start``, and the rest, scaled by ``calibration_loop``.
    Both are sampled all through the run and averaged over it: the speed
    switches within seconds, faster than samples around a single command
    can follow.  The conversion removes the drift between runs while
    keeping any change in the work the program itself does.
    """

    def __init__(self):
        self.loops: list[float] = []
        self.starts: list[float] = []

    def sample_loop(self) -> None:
        self.loops.append(calibration_loop())

    def sample_start(self) -> None:
        self.starts.append(interpreter_start())

    def reference_s(self, wall: float, processes: int) -> float:
        """Wall seconds of work that started `processes` processes, at reference speed."""
        start = statistics.fmean(self.starts)
        scale = LOOP_REF_S / statistics.fmean(self.loops)
        return processes * START_REF_S + (wall - processes * start) * scale

    def to_reference(self, metric: dict, processes: int) -> dict:
        """A summary of wall seconds converted to reference seconds."""
        return {k: self.reference_s(v, processes) if k in ("value", "median", "q1", "q3") else v
                for k, v in metric.items()}

    def record(self) -> dict:
        return {"loop_s": self.loops, "interpreter_start_s": self.starts}


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], out_dir: Path) -> tuple[int, float, float, str, str]:
    """Run `posetsat <argv>` to completion: exit code, wall s, peak RSS MB, stdout, stderr."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "posetsat.cli", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=_cli_env(),
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text())


def run_in_process(argv: list[str]) -> tuple[int, float, str]:
    """Call posetsat.cli.main(argv) here: exit code, wall s, stdout."""
    cli = sys.modules["posetsat.cli"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        wall = time.perf_counter() - start
    return code, wall, out.getvalue()


class Outcomes:
    """Checks each command run and counts attempts and failures."""

    def __init__(self, schemas: dict):
        self.schemas = schemas
        self.attempted = 0
        self.failures: list[dict] = []
        self.reference: dict[str, str] = {}  # command id -> first normalised output

    def record(self, cmd, code: int, stdout: str, how: str) -> None:
        self.attempted += 1
        problems = check_output(cmd, code, stdout, self.schemas)
        if not problems:
            norm = normalise(stdout)
            first = self.reference.setdefault(cmd.id, norm)
            if norm != first:
                problems.append("normalised output differs from the first run of this seed")
        if problems:
            self.failures.append({"command": cmd.id, "run": how, "problems": problems})


# ------------------------------------------------------------------ setup


def set_up(build, seed: int, root: Path):
    """Generate the inputs and warm the CLI; returns (workload, setup s, startup s)."""
    start = time.perf_counter()
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    workload = build(seed, root)
    code, startup, _, _, err = run_process(["--version"], root)
    if code != 0:
        raise CheckoutError(f"posetsat --version failed with exit code {code}: {err.strip()}")
    return workload, time.perf_counter() - start, startup


# ------------------------------------------------------------------ passes


def timed_passes(seconds: float, one_pass) -> int:
    """Run passes until another, as long as the longest so far, would overrun."""
    start, longest, count = time.perf_counter(), 0.0, 0
    while True:
        began = time.perf_counter()
        one_pass(count)
        count += 1
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return count


def untraced(workload, seconds: float, outcomes: Outcomes, root: Path, speed: Speed) -> tuple[dict, list]:
    """End-to-end metrics of one run in wall seconds, and every command run behind them.

    Each pass starts with an interpreter start and runs every command
    once, with a calibration loop after each (see ``Speed``).  A
    kind's metric is the mean over passes of its commands' summed wall
    times, with the median and quartiles kept beside it: a mean over all
    the work of a run averages the machine's quick speed changes out
    better than a median of a few passes.
    """
    walls: dict[str, list[float]] = {cmd.id: [] for cmd in workload.commands}
    peaks: list[float] = []
    runs = []

    def one_pass(index: int) -> None:
        peak = 0.0
        speed.sample_start()
        for cmd in workload.commands:
            code, wall, rss, stdout, _ = run_process(cmd.argv, root)
            speed.sample_loop()
            outcomes.record(cmd, code, stdout, f"pass {index}")
            walls[cmd.id].append(wall)
            peak = max(peak, rss)
            runs.append({"command": cmd.id, "pass": index, "wall_s": wall, "peak_rss_mb": rss})
        peaks.append(peak)

    passes = timed_passes(seconds, one_pass)
    metrics = {}
    for metric in KIND_METRIC.values():
        ids = [cmd.id for cmd in workload.commands if KIND_METRIC[cmd.kind] == metric]
        per_pass = [sum(walls[i][p] for i in ids) for p in range(passes)]
        metrics[metric] = summary(per_pass, "s", value=statistics.fmean(per_pass))
    metrics["peak_rss_mb"] = summary(peaks, "MB")
    return metrics, runs


# ------------------------------------------------------------------ tracing


def traced(workload, seconds: float, outcomes: Outcomes, startup: list[float]) -> tuple[dict, dict, list]:
    targets = layers.targets()
    per_pass: list[dict[str, float]] = []
    tables: dict[str, dict] = {}
    predictions: list = []

    def one_pass(index: int) -> None:
        plain_total = traced_total = 0.0
        results = []
        for cmd in workload.commands:
            code, plain_wall, stdout = run_in_process(cmd.argv)
            outcomes.record(cmd, code, stdout, f"in-process pass {index}")
            tracer = Tracer()
            with installed(targets, tracer):
                code, traced_wall, stdout = run_in_process(cmd.argv)
            outcomes.record(cmd, code, stdout, f"traced pass {index}")
            plain_total += plain_wall
            traced_total += traced_wall
            results.append((cmd, summarise(tracer), stdout, plain_wall))
        metrics = layers.metrics(results)
        metrics["trace.overhead_frac"] = traced_total / plain_total - 1.0
        if index == 0:
            metrics.update(layers.satstar_layer_times(workload.satstar_sweep, results, run_in_process))
            tables.update({cmd.id: table for cmd, table, _, _ in results})
            predictions.extend(layers.predictions(workload.name, metrics))
        per_pass.append(metrics)

    timed_passes(seconds, one_pass)
    samples = {name: [p[name] for p in per_pass if name in p] for name in layers.METRIC_UNITS}
    samples["cli.startup_s"] = startup
    return samples, tables, predictions


# ------------------------------------------------------------------ record


def machine_facts() -> dict:
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    outcomes = Outcomes(load_schemas(ROOT / "docs" / "schemas"))
    root = WORK / f"{name}-{os.getpid()}"
    try:
        setups, startups = [], []
        for _ in range(SETUP_REPEATS):
            workload, setup_s, startup_s = set_up(WORKLOADS[name], seed, root)
            setups.append(setup_s)
            startups.append(startup_s)
        record = {
            "workload": name,
            "seed": seed,
            "seed_dependent": workload.seed_dependent,
            "why": workload.why,
            "trace": int(trace),
            "seconds": seconds,
            "machine": machine_facts(),
            "commands": [{"id": c.id, "kind": c.kind, "argv": c.argv, "exit_code": c.exit_code}
                         for c in workload.commands],
        }
        if trace:
            samples, tables, predictions = traced(workload, seconds, outcomes, startups)
            record["metrics"] = {m: summary(samples[m], u) for m, u in layers.METRIC_UNITS.items()}
            record["per_layer_table"] = tables
            record["predictions"] = predictions
            record["moves"] = layers.MOVES
        else:
            speed = Speed()
            metrics, runs = untraced(workload, seconds, outcomes, root, speed)
            metrics["setup_s"] = summary(setups, "s")
            processes = {m: sum(KIND_METRIC[c.kind] == m for c in workload.commands) for m in KIND_METRIC.values()}
            processes["setup_s"] = 1  # posetsat --version
            record["metrics"] = {
                m: speed.to_reference(metrics[m], processes[m]) if unit == "s" else metrics[m]
                for m, unit in END_TO_END_UNITS.items()
            }
            record["wall_metrics"] = {m: metrics[m] for m in END_TO_END_UNITS}
            record["calibration"] = speed.record()
            record["runs"] = runs
    finally:
        shutil.rmtree(root, ignore_errors=True)
    record["attempted"] = outcomes.attempted
    record["failed"] = len(outcomes.failures)
    record["failed_frac"] = record["failed"] / outcomes.attempted
    record["failures"] = outcomes.failures
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


# ------------------------------------------------------------------ output


def print_report(record: dict) -> None:
    dep = "seed-dependent" if record["seed_dependent"] else "seed-independent"
    print(f"== {record['workload']}  seed {record['seed']}  ({dep}): {record['why']}")
    print(f"   attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed_frac']:.4f}")
    for failure in record["failures"]:
        print(f"   FAILED {failure['command']} ({failure['run']}): {'; '.join(failure['problems'])}")
    print(f"   {'metric':<44} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name, m in record["metrics"].items():
        print(f"   {name:<44} {m['value']:>12.6g} {m['median']:>12.6g} {m['q1']:>12.6g} {m['q3']:>12.6g} "
              f"{m['samples']:>3}  {m['unit']}")
    for p in record.get("predictions", ()):
        print(f"   prediction: {p['claim']}: measured {p['measured_share']:.3f} -> {p['verdict']}")


def result_line(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}/{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def prepare_imports() -> None:
    """Import posetsat from this checkout's src/ and nowhere else."""
    if not (SRC / "posetsat" / "cli.py").is_file() or not (ROOT / "docs" / "schemas").is_dir():
        raise CheckoutError(f"{ROOT} is not a posetsat checkout (needs src/posetsat and docs/schemas)")
    sys.path.insert(0, str(SRC))
    import posetsat.cli

    if Path(posetsat.cli.__file__).resolve().parent != (SRC / "posetsat").resolve():
        raise CheckoutError(f"imported posetsat from {posetsat.cli.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="check-tall, check-wide, search or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare_imports()
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if any(n not in WORKLOADS for n in names):
            raise CheckoutError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
        records = []
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(record)
            records.append(record)
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = result_line(records, prefix=len(records) > 1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
