"""The layers the traced run wraps and the per-layer metrics made from them.

Layers are the posetsat modules.  ``posets`` and ``hasse`` do no
measurable work in these workloads and are not wrapped.  Which
end-to-end metric each per-layer metric should move, and on which
workload, is written down in ``MOVES`` before anything is measured.
"""

from __future__ import annotations

import json

from tracer import Target


def _true(args, result) -> dict:
    return {"true": int(bool(result))}


def _masks(args, result) -> dict:
    return {"masks": result.checked}


def _rows(args, result) -> dict:
    return {"rows": len(args[1]), "kept": int(result.sum())}


def targets() -> list[Target]:
    """Public functions to wrap; high-rate ones are aggregated per parent span."""
    return [
        Target("posetsat.cli.main"),
        Target("posetsat.families.parse_family"),
        Target("posetsat.families.subset_table"),
        Target("posetsat.families.superset_table"),
        Target("posetsat.detect.find_diamond"),
        Target("posetsat.detect.find_induced"),
        Target("posetsat.detect.find_induced_using", aggregate=True),
        Target("posetsat.detect.creates_diamond", aggregate=True, observe=_true),
        Target("posetsat.detect.creates_copy", aggregate=True, observe=_true),
        Target("posetsat.detect.validate_embedding", aggregate=True),
        Target("posetsat.saturate.is_saturated", observe=_masks),
        Target("posetsat.canonical.batch_is_canonical", observe=_rows),
        Target("posetsat.canonical.canonical_key"),
        Target("posetsat.search.sat_star_exact"),
        Target("posetsat.search.classify_minimum"),
        Target("posetsat.search.q3_probe"),
        Target("posetsat.structure.decompose"),
        Target("posetsat.structure.nested_sequence"),
        Target("posetsat.structure.verify_structure_invariants"),
    ]


SATSTAR_LAYERS = range(5)  # sizes 0..4, the satstar commands' cap

METRIC_UNITS = {
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "families.parse_family.busy_s": "s",
    "families.tables.calls": "count",
    "families.tables.busy_s": "s",
    "detect.find_diamond.calls": "count",
    "detect.find_diamond.busy_s": "s",
    "detect.find_induced.calls": "count",
    "detect.find_induced.busy_s": "s",
    "detect.find_induced_using.calls": "count",
    "detect.find_induced_using.busy_s": "s",
    "detect.creates_diamond.calls": "count",
    "detect.creates_diamond.busy_s": "s",
    "detect.creates_diamond.true_ratio": "ratio",
    "detect.creates_copy.calls": "count",
    "detect.creates_copy.busy_s": "s",
    "detect.creates_copy.true_ratio": "ratio",
    "detect.validate_embedding.calls": "count",
    "detect.validate_embedding.busy_s": "s",
    "saturate.is_saturated.calls": "count",
    "saturate.is_saturated.self_s": "s",
    "saturate.is_saturated.masks_checked": "count",
    "saturate.masks_per_s": "1/s",
    "canonical.batch_is_canonical.calls": "count",
    "canonical.batch_is_canonical.busy_s": "s",
    "canonical.batch_is_canonical.rows_in": "count",
    "canonical.batch_is_canonical.keep_ratio": "ratio",
    "canonical.canonical_key.busy_s": "s",
    "search.sat_star_exact.self_s": "s",
    "search.classify_minimum.self_s": "s",
    "search.q3_probe.self_s": "s",
    "search.families_examined": "count",
    "search.nodes_expanded": "count",
    "search.frontier_peak": "count",
    "search.free_ratio": "ratio",
    **{f"search.layer{k}_s": "s" for k in SATSTAR_LAYERS},
    "structure.decompose.calls": "count",
    "structure.decompose.self_s": "s",
    "structure.nested_sequence.busy_s": "s",
    "structure.verify_structure_invariants.self_s": "s",
    "share.check.find_diamond": "ratio",
    "share.analyze.find_diamond": "ratio",
    "share.check.is_saturated_self": "ratio",
    "share.satstar.batch_is_canonical": "ratio",
    "share.satstar.creates_diamond": "ratio",
    "share.q3probe.creates_copy": "ratio",
    "trace.overhead_frac": "ratio",
}

# per-layer metric prefix -> (end-to-end metrics it should move, workload where it shows)
MOVES = {
    "cli": ("every *_s", "all"),
    "families.parse_family": ("check_s analyze_s", "check-wide"),
    "families.tables": ("check_s peak_rss_mb", "check-tall"),
    "detect.find_diamond": ("check_s analyze_s reject_s", "check-wide"),
    "detect.find_induced": ("q3probe_s", "search"),
    "detect.creates_diamond": ("satstar_s classify_s", "search"),
    "detect.creates_copy": ("q3probe_s", "search"),
    "detect.validate_embedding": ("certificate_s", "check-tall"),
    "saturate": ("check_s reject_s certificate_s", "check-tall"),
    "canonical": ("satstar_s classify_s peak_rss_mb", "search"),
    "search": ("satstar_s classify_s q3probe_s peak_rss_mb", "search"),
    "structure": ("analyze_s", "check-wide"),
    "trace": ("none", "all"),
}


def _sum(results, qualname: str, field: str, kinds=None) -> float:
    return sum(
        table.get(f"posetsat.{qualname}", {}).get(field, 0)
        for cmd, table, _, _ in results
        if kinds is None or cmd.kind in kinds
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _manifests(results):
    for cmd, _, stdout, _ in results:
        if cmd.kind in ("satstar", "classify"):
            yield json.loads(stdout)
        elif cmd.kind == "q3probe":
            opt = json.loads(stdout).get("optimality")
            if opt:
                yield opt["manifest"]


def metrics(results) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``results`` holds, per command, (command, summarise() table, stdout,
    untraced wall).
    """
    m: dict[str, float] = {"cli.main.self_s": _sum(results, "cli.main", "self_s")}
    m["families.parse_family.busy_s"] = _sum(results, "families.parse_family", "busy_s")
    for field in ("calls", "busy_s"):
        m[f"families.tables.{field}"] = sum(
            _sum(results, f"families.{t}", field) for t in ("subset_table", "superset_table")
        )
    for fn in ("find_diamond", "find_induced", "find_induced_using", "creates_diamond",
               "creates_copy", "validate_embedding"):
        for field in ("calls", "busy_s"):
            m[f"detect.{fn}.{field}"] = _sum(results, f"detect.{fn}", field)
    for fn in ("creates_diamond", "creates_copy"):
        m[f"detect.{fn}.true_ratio"] = _ratio(_sum(results, f"detect.{fn}", "true"), m[f"detect.{fn}.calls"])
    m["saturate.is_saturated.calls"] = _sum(results, "saturate.is_saturated", "calls")
    m["saturate.is_saturated.self_s"] = _sum(results, "saturate.is_saturated", "self_s")
    m["saturate.is_saturated.masks_checked"] = _sum(results, "saturate.is_saturated", "masks")
    m["saturate.masks_per_s"] = _ratio(
        m["saturate.is_saturated.masks_checked"], _sum(results, "saturate.is_saturated", "busy_s")
    )
    m["canonical.batch_is_canonical.calls"] = _sum(results, "canonical.batch_is_canonical", "calls")
    m["canonical.batch_is_canonical.busy_s"] = _sum(results, "canonical.batch_is_canonical", "busy_s")
    m["canonical.batch_is_canonical.rows_in"] = _sum(results, "canonical.batch_is_canonical", "rows")
    m["canonical.batch_is_canonical.keep_ratio"] = _ratio(
        _sum(results, "canonical.batch_is_canonical", "kept"), m["canonical.batch_is_canonical.rows_in"]
    )
    m["canonical.canonical_key.busy_s"] = _sum(results, "canonical.canonical_key", "busy_s")
    for fn in ("sat_star_exact", "classify_minimum", "q3_probe"):
        m[f"search.{fn}.self_s"] = _sum(results, f"search.{fn}", "self_s")
    manifests = list(_manifests(results))
    layers = [layer for doc in manifests for layer in doc["layers"]]
    m["search.families_examined"] = sum(doc["families_examined"] for doc in manifests)
    m["search.nodes_expanded"] = sum(doc["nodes_expanded"] for doc in manifests)
    m["search.frontier_peak"] = max((layer["families"] for layer in layers), default=0)
    m["search.free_ratio"] = _ratio(
        sum(layer["free_extensions"] for layer in layers), sum(layer["extensions_tested"] for layer in layers)
    )
    m["structure.decompose.calls"] = _sum(results, "structure.decompose", "calls")
    m["structure.decompose.self_s"] = _sum(results, "structure.decompose", "self_s")
    m["structure.nested_sequence.busy_s"] = _sum(results, "structure.nested_sequence", "busy_s")
    m["structure.verify_structure_invariants.self_s"] = _sum(
        results, "structure.verify_structure_invariants", "self_s"
    )

    def share(qualname, field, kind):
        return _ratio(_sum(results, qualname, field, {kind}), _sum(results, "cli.main", "busy_s", {kind}))

    m["share.check.find_diamond"] = share("detect.find_diamond", "busy_s", "check")
    m["share.analyze.find_diamond"] = share("detect.find_diamond", "busy_s", "analyze")
    m["share.check.is_saturated_self"] = share("saturate.is_saturated", "self_s", "check")
    m["share.satstar.batch_is_canonical"] = share("canonical.batch_is_canonical", "busy_s", "satstar")
    m["share.satstar.creates_diamond"] = share("detect.creates_diamond", "busy_s", "satstar")
    m["share.q3probe.creates_copy"] = share("detect.creates_copy", "busy_s", "q3probe")
    return m


def satstar_layer_times(cmd, results, run) -> dict[str, float]:
    """search.layer<k>_s: untraced wall of the satstar command capped at k
    minus the same capped at k-1 (the run at the full cap is the pass's own)."""
    walls = []
    argv = list(cmd.argv)
    cap_at = argv.index("--size-cap") + 1
    for k in SATSTAR_LAYERS[:-1]:
        argv[cap_at] = str(k)
        code, wall, _ = run(argv)
        if code != 0:
            raise RuntimeError(f"satstar capped at {k} exited with {code}")
        walls.append(wall)
    walls.append(next(w for c, _, _, w in results if c.id == cmd.id))
    return {f"search.layer{k}_s": walls[k] - (walls[k - 1] if k else 0.0) for k in SATSTAR_LAYERS}


# (workload, claim, share metrics summed, share measured with cProfile at the first benchmarked commit)
PREDICTIONS = [
    ("check-wide", "find_diamond dominates check", ["share.check.find_diamond"], 0.97),
    ("check-wide", "find_diamond dominates analyze", ["share.analyze.find_diamond"], 0.83),
    ("check-tall", "is_saturated self time dominates check", ["share.check.is_saturated_self"], None),
    ("search", "batch_is_canonical + creates_diamond dominate satstar",
     ["share.satstar.batch_is_canonical", "share.satstar.creates_diamond"], 0.79),
    ("search", "creates_copy dominates q3probe", ["share.q3probe.creates_copy"], 0.99),
]


def predictions(workload: str, m: dict[str, float]) -> list[dict]:
    """Confirm (measured share at least one half) or refute each claim made for this workload."""
    out = []
    for where, claim, names, cprofile in PREDICTIONS:
        if where != workload:
            continue
        measured = sum(m[name] for name in names)
        out.append({
            "claim": claim,
            "metrics": names,
            "cprofile_share": cprofile,
            "measured_share": measured,
            "verdict": "confirmed" if measured >= 0.5 else "refuted",
        })
    return out
