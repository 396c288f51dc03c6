"""The layers the traced run measures, and the per-layer metrics derived
from its spans.

`METRICS` lists every per-layer metric with the end-to-end metric and the
workloads where a change in it should show (`moves`).  A metric that reads
0 on a workload means that workload never enters the layer; the `moves`
column says where that is expected.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from tracer import ATTRS, END, KIND, NAME, PARENT, START, Target, self_times

PACKAGE = "cubeworks"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nnz_in(args, kwargs, result):
    entries = _arg(args, kwargs, 0, "entries")
    return {"nnz_in": sum(1 for v in entries.values() if v), "factors": len(result)}


def _dense_shape(args, kwargs, result):
    M = _arg(args, kwargs, 0, "M")
    rows = len(M)
    cols = len(M[0]) if rows else 0
    return {"rows": rows, "cols": cols, "rank": len(result.diag)}


def _cells_out(args, kwargs, result):
    return {"cells_out": len(result.cells)}


def _simplices_out(args, kwargs, result):
    return {"simplices_out": len(result.cells)}


def _mapping_space(args, kwargs, result):
    pres = _arg(args, kwargs, 0, "pres")
    key = tuple(_arg(args, kwargs, i, n) for i, n in ((1, "x"), (2, "y"), (3, "bound")))
    # the presentation is kept so that its id stays unique within the pass
    return {"cells_out": len(result.space.cells), "key": key, "pres": pres}


def _saved_bytes(args, kwargs, result):
    workspace = args[0]
    return {"bytes": os.path.getsize(os.path.join(workspace.path, result))}


def _loaded_bytes(args, kwargs, result):
    workspace, name = args[0], _arg(args, kwargs, 1, "name")
    entry = workspace.manifest["entries"][name]
    return {"bytes": os.path.getsize(os.path.join(workspace.path, entry["file"]))}


def _t(module, qualname, probe=None, span=True, name=None):
    return Target(
        f"{PACKAGE}.{module}",
        qualname,
        name or f"{module}.{qualname}",
        span=span,
        probe=probe,
    )


TARGETS = [
    _t("snf", "invariant_factors_sparse", _nnz_in),
    _t("snf", "smith_normal_form", _dense_shape),
    _t("james", "james", _cells_out),
    _t("triangulate", "triangulate", _simplices_out),
    _t("simplicial", "SimplicialMap.validate"),
    _t("simplicial", "SimplicialSet.act", span=False, name="simplicial.act"),
    _t("james_compare", "compare_with_james"),
    _t("cubical", "find_isomorphism"),
    _t("cubical", "tensor", _cells_out),
    _t("cubical", "pushout"),
    _t("cubical", "CubicalSet.act", span=False, name="cubical.act"),
    _t("cubes", "compose", span=False),
    _t("enriched", "mapping_space", _mapping_space),
    _t("enriched", "homotopy_category"),
    _t("chains", "cubical_chains"),
    _t("chains", "simplicial_chains"),
    _t("chains", "homology"),
    _t("io_json", "Workspace.save", _saved_bytes),
    _t("io_json", "Workspace.load", _loaded_bytes),
    _t("realize", "check_quillen"),
]

CRITERIA = [f"criterion_{i}" for i in range(1, 10)]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    moves: str


_SNF_SPARSE = "wall_s and peak_rss_mb on james (about 45%), wall_s on torsion (about 25%); flat on loopspace"
_SNF_DENSE = "wall_s on torsion only; other workloads make only trivial dense calls"
_JAMES = "wall_s on james (about 50%) and on acceptance (criteria 6 and 8)"
_TRI = "wall_s on torsion and on acceptance (criteria 4 and 8); flat on james and loopspace"
_CRIT8 = "wall_s on acceptance (criterion 8)"
_MONOIDAL = "wall_s on acceptance (criteria 2 and 3); on torsion only a small tensor cost"
_ENRICHED = "wall_s on loopspace, a small share on acceptance"
_CHAINS = "wall_s on every workload, a small share in each"
_IO = "wall_s and peak_rss_mb on loopspace"

METRICS = [
    Metric("snf.invariant_factors_sparse.self_s", "s", _SNF_SPARSE),
    Metric("snf.invariant_factors_sparse.calls", "count", _SNF_SPARSE),
    Metric("snf.invariant_factors_sparse.nnz_in", "count", _SNF_SPARSE),
    Metric("snf.invariant_factors_sparse.unit_pivots", "count", _SNF_SPARSE),
    Metric("snf.smith_normal_form.self_s", "s", _SNF_DENSE),
    Metric("snf.smith_normal_form.calls", "count", _SNF_DENSE),
    Metric("snf.smith_normal_form.max_rows", "count", _SNF_DENSE),
    Metric("snf.smith_normal_form.max_cols", "count", _SNF_DENSE),
    Metric("snf.smith_normal_form.entries_in", "count", _SNF_DENSE),
    Metric("james.james.self_s", "s", _JAMES),
    Metric("james.james.cells_out", "count", _JAMES),
    Metric("triangulate.triangulate.self_s", "s", _TRI),
    Metric("triangulate.triangulate.simplices_out", "count", _TRI),
    Metric("simplicial.SimplicialMap.validate.self_s", "s", _CRIT8),
    Metric("simplicial.act.calls", "count", _CRIT8),
    Metric("james_compare.compare_with_james.self_s", "s", _CRIT8),
    Metric("cubical.find_isomorphism.self_s", "s", _MONOIDAL),
    Metric("cubical.find_isomorphism.calls", "count", _MONOIDAL),
    Metric("cubical.tensor.self_s", "s", _MONOIDAL),
    Metric("cubical.tensor.cells_out", "count", _MONOIDAL),
    Metric("cubical.pushout.self_s", "s", _MONOIDAL),
    Metric("cubical.act.calls", "count", _MONOIDAL),
    Metric("cubes.compose.calls", "count", _MONOIDAL),
    Metric("enriched.mapping_space.self_s", "s", _ENRICHED),
    Metric("enriched.mapping_space.calls", "count", _ENRICHED),
    Metric("enriched.mapping_space.cells_out", "count", _ENRICHED),
    Metric("enriched.mapping_space.repeat_ratio", "ratio", _ENRICHED),
    Metric("enriched.homotopy_category.self_s", "s", _ENRICHED),
    Metric("chains.cubical_chains.self_s", "s", _CHAINS),
    Metric("chains.simplicial_chains.self_s", "s", _CHAINS),
    Metric("chains.homology.self_s", "s", _CHAINS + "; homology minus its SNF children"),
    Metric("io_json.Workspace.save.self_s", "s", _IO),
    Metric("io_json.Workspace.load.self_s", "s", _IO),
    Metric("io_json.bytes", "B", _IO),
    Metric("realize.check_quillen.self_s", "s", "acceptance (criterion 5); not expected to move"),
    *[Metric(f"verify.{c}.wall_s", "s", "wall_s on acceptance") for c in CRITERIA],
    Metric("trace.uncovered_s", "s", "pass time that no layer span covers"),
    Metric("trace.overhead_s", "s", "traced wall_s minus untraced wall_s"),
]


def _fingerprint(pres) -> str:
    from cubeworks.io_json import presentation_to_json

    return json.dumps(presentation_to_json(pres), sort_keys=True, default=str)


def pass_metrics(spans, counts, pass_wall: float) -> dict:
    """Per-layer metrics of one traced pass (everything except
    `trace.overhead_s`, which compares passes)."""
    own = self_times(spans)
    out = {
        m.name: 0.0 if m.unit in ("s", "ratio") else 0
        for m in METRICS
        if m.name != "trace.overhead_s"
    }
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    fingerprints = {}
    seen_keys = set()
    repeats = 0
    for i, s in enumerate(spans):
        name, attrs = s[NAME], s[ATTRS] or {}
        if s[KIND] == "task":
            metric = f"verify.{name}.wall_s"
            if metric in out:
                out[metric] += s[END] - s[START]
            continue
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += own[i]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        for key, value in attrs.items():
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] += value
        if name == "snf.smith_normal_form":
            out["snf.smith_normal_form.max_rows"] = max(
                out["snf.smith_normal_form.max_rows"], attrs["rows"]
            )
            out["snf.smith_normal_form.max_cols"] = max(
                out["snf.smith_normal_form.max_cols"], attrs["cols"]
            )
            out["snf.smith_normal_form.entries_in"] += attrs["rows"] * attrs["cols"]
        elif name == "snf.invariant_factors_sparse":
            dense = sum(
                spans[c][ATTRS]["rank"]
                for c in children.get(i, ())
                if spans[c][NAME] == "snf.smith_normal_form"
            )
            out["snf.invariant_factors_sparse.unit_pivots"] += attrs["factors"] - dense
        elif name == "enriched.mapping_space":
            pres = attrs["pres"]
            if id(pres) not in fingerprints:
                fingerprints[id(pres)] = _fingerprint(pres)
            key = (fingerprints[id(pres)], *attrs["key"])
            repeats += key in seen_keys
            seen_keys.add(key)
        elif name.startswith("io_json.Workspace."):
            out["io_json.bytes"] += attrs["bytes"]
    calls = out["enriched.mapping_space.calls"]
    out["enriched.mapping_space.repeat_ratio"] = repeats / calls if calls else 0.0
    for name, n in counts.items():
        out[f"{name}.calls"] = n

    covered = 0.0
    for i, s in enumerate(spans):
        if s[KIND] != "layer":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][KIND] != "layer":
            p = spans[p][PARENT]
        if p < 0:
            covered += s[END] - s[START]
    out["trace.uncovered_s"] = pass_wall - covered
    return out


def dense_shapes(spans) -> list:
    """Shapes of the dense Smith-normal-form calls, in call order."""
    return [
        [s[ATTRS]["rows"], s[ATTRS]["cols"]]
        for s in spans
        if s[NAME] == "snf.smith_normal_form"
    ]
