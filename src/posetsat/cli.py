"""Command-line interface.

Subcommands: check, analyze, satstar, classify, noextremes, q3probe,
catalog, hasse.  Exit codes follow the verdict contract so shell
pipelines can branch on saturation status:

* 0  SATURATED / success
* 1  stdout closed before the output was written (as by ``| head``)
* 2  FREE_NOT_SATURATED
* 3  NOT_FREE
* 64 usage error
* 65 data format error
* 70 internal inconsistency (a witness failed re-validation, or an
     invariant check failed on a saturated family -- always a bug)

JSON outputs are deterministic for a given configuration and input:
keys are sorted and no scheduling data is recorded.  The wall-time
field in search manifests is the only run-to-run variable and is meant
to be ignored in comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._version import __version__
from .families import FamilyFormatError, SetFamily, parse_family
from .hasse import hasse_dot
from .posets import PatternFormatError, PatternPoset, parse_pattern, pattern_from_spec
from .saturate import InternalCheckError, Verdict, is_saturated, upper_bound_catalog
from .search import SearchManifest, classify_minimum, q3_probe, sat_star_exact, sat_star_no_extremes
from .structure import verify_structure_invariants

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_FREE_NOT_SATURATED = 2
EXIT_NOT_FREE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

_VERDICT_EXIT = {
    Verdict.SATURATED: EXIT_OK,
    Verdict.FREE_NOT_SATURATED: EXIT_FREE_NOT_SATURATED,
    Verdict.NOT_FREE: EXIT_NOT_FREE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(args: argparse.Namespace, body: dict) -> None:
    """Print body as JSON under the tool, version, command and config fields."""
    head = {"tool": "posetsat", "version": __version__, "command": args.command, "config": _config_echo(args)}
    print(json.dumps({**head, **body}, sort_keys=True, indent=2))


def _emit_search(args: argparse.Namespace, manifest: SearchManifest) -> int:
    """Print a search manifest as JSON, or as text its value when exact
    and its status otherwise."""
    if args.format == "json":
        _emit(args, manifest.to_json())
    else:
        print(manifest.result.get("value", manifest.result["status"]))
    return EXIT_OK


def _load_family(path: str) -> SetFamily:
    text = Path(path).read_text()
    return parse_family(text)


def _load_pattern(spec: str) -> PatternPoset:
    if spec.endswith(".poset") or "/" in spec:
        return parse_pattern(Path(spec).read_text())
    return pattern_from_spec(spec)


def _parse_mode(mode: str) -> tuple[str, int]:
    if mode == "full":
        return "full", 0
    arg = mode.removeprefix("spot:")
    if arg != mode and arg.isdecimal() and int(arg) >= 1:
        return "spot", int(arg)
    raise PatternFormatError(f"bad mode {mode!r}; expected full or spot:<k>")


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _cmd_check(args) -> int:
    fam = _load_family(args.family)
    pattern = _load_pattern(args.pattern)
    mode, spot = _parse_mode(args.mode)
    report = is_saturated(
        fam,
        pattern,
        mode=mode,
        spot=spot,
        seed=args.seed,
        certificate=args.certificate,
    )
    if args.format == "json":
        _emit(args, {"report": report.to_json()})
    else:
        sampled = ""
        if report.mode == "spot" and report.verdict is Verdict.SATURATED:
            sampled = f"sampled {report.checked} of {(1 << fam.n) - len(fam)} missing sets; "
        print(
            f"{report.verdict.value} ({sampled}pattern {report.pattern.label}, "
            f"n={fam.n}, size={len(fam)})"
        )
    return _VERDICT_EXIT[report.verdict]


def _cmd_analyze(args) -> int:
    fam = _load_family(args.family)
    # a family with a diamond comes back as a vacuous report whose
    # saturation verdict is NOT_FREE, with the witness under "saturation"
    report = verify_structure_invariants(fam)
    if args.dot:
        # first, so that a family too large to draw or a bad path prints no report
        dec = report.decomposition
        classes = None
        if dec is not None:
            classes = {
                "A": set(dec.A.members),
                "X": set(dec.X.members),
                "GB": set(dec.GB.members),
                "HY": set(dec.HY.members),
            }
        Path(args.dot).write_text(hasse_dot(fam, classes))
    _emit(args, report.to_json())
    # only a saturated family runs the checks, so only it can fail one
    if report.failures():
        print("invariant FAILURES on a saturated family (implementation defect):", file=sys.stderr)
        for c in report.failures():
            print(f"  {c.id}: {json.dumps(c.evidence, sort_keys=True)}", file=sys.stderr)
        return EXIT_INTERNAL
    return _VERDICT_EXIT[report.saturation.verdict]


def _cmd_satstar(args) -> int:
    pattern = _load_pattern(args.pattern)
    manifest = sat_star_exact(args.n, pattern, size_cap=args.size_cap, symmetry=not args.no_symmetry)
    return _emit_search(args, manifest)


def _cmd_classify(args) -> int:
    pattern = _load_pattern(args.pattern)
    tagged, manifest = classify_minimum(args.n, pattern)
    if args.format == "json":
        _emit(args, manifest.to_json())
    else:
        for fam, tag in tagged:
            print(f"{tag}: {[list(s) for s in fam.sets()]}")
    return EXIT_OK


def _cmd_noextremes(args) -> int:
    pattern = _load_pattern(args.pattern)
    manifest = sat_star_no_extremes(args.n, pattern)
    return _emit_search(args, manifest)


def _cmd_q3probe(args) -> int:
    _emit(args, q3_probe(args.n))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    pattern = _load_pattern(args.pattern)
    entries = upper_bound_catalog(args.n, pattern)
    if args.format == "json":
        _emit(args, {"n": args.n, "pattern": pattern.label, "entries": [e.to_json() for e in entries]})
    else:
        for e in entries:
            size = "-" if e.family is None else len(e.family)
            print(f"{e.name}: size={size}, {e.report.verdict.value if e.emitted else e.reason}")
    return EXIT_OK


def _cmd_hasse(args) -> int:
    fam = _load_family(args.family)
    sys.stdout.write(hasse_dot(fam))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="posetsat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"posetsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="json")
        p.add_argument("--pattern", required=True, help="keyword (chain:k, diamond, qk:k, v, lambda, antichain:k) or a .poset file")

    p = sub.add_parser("check", help="freeness/saturation verdict for a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", default="full", help="full or spot:<k>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certificate", action="store_true", help="check a witness for every missing set")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("analyze", help="decomposition and invariant suite for a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--dot", help="also write a class-colored Hasse DOT file here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("satstar", help="exact minimum saturated-family size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size-cap", type=int, default=None)
    p.add_argument("--no-symmetry", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_satstar)

    p = sub.add_parser("classify", help="all minimum saturated families up to relabeling")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("noextremes", help="minimum over saturated families avoiding {} and [n]")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_noextremes)

    p = sub.add_parser("q3probe", help="verify the 3n-2 construction for the 3-cube pattern")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_q3probe)

    p = sub.add_parser("catalog", help="named saturated constructions for a pattern")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("hasse", help="DOT export of a family's cover relation")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_hasse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader has gone: print nothing, and point stdout at devnull
        # so that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    # UnicodeDecodeError subclasses ValueError, so it must be caught first
    except (FamilyFormatError, PatternFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"posetsat: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalCheckError as exc:
        print(f"posetsat: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"posetsat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
