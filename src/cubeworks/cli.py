"""Command-line driver.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard exceeded.  All commands print JSON to standard output and may store
artifacts in the named workspace (directory from --workspace or the
CUBEWORKS_WORKSPACE environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .chains import cubical_chains, homology, simplicial_chains
from .cubical import (
    CubicalSet,
    boundary,
    endpoint_inclusion,
    interval_inclusion,
    iterated_pushout_product,
    kan_check,
    open_box,
    standard_cube,
    tensor,
)
from .enriched import (
    EnrichedPresentation,
    build_E,
    build_H,
    build_P,
    extend_inverse,
    homotopy_category,
    localize,
    mapping_space,
    special_category,
)
from .errors import GuardError, ValidationError
from .io_json import Workspace, report_to_json, to_json
from .james import james
from .realize import broken_cylinder, check_quillen, standard_cylinder
from .simplicial import SimplicialSet, circle, standard_simplex, wedge_of_intervals
from .triangulate import triangulate
from .verify import format_table, run_all


def _emit(data):
    print(json.dumps(data, indent=2, sort_keys=True, default=str))


def _spec_args(spec: str, args, arity: int) -> list:
    """The non-negative integer arguments of an inline spec such as box:3:1:0."""
    if len(args) != arity or not all(a.isdecimal() for a in args):
        raise ValidationError(
            f"malformed spec {spec!r}: expected {arity} non-negative integer(s)"
        )
    return [int(a) for a in args]


_CUBICAL_SPECS = {
    "cube": (1, standard_cube),
    "boundary": (1, lambda n: boundary(n)[0]),
    "box": (3, lambda n, k, eps: open_box(n, k, eps)[0]),
}


def _resolve_cubical(ws: Workspace, spec: str):
    head, *args = spec.split(":")
    if head in _CUBICAL_SPECS:
        arity, build = _CUBICAL_SPECS[head]
        return build(*_spec_args(spec, args, arity))
    obj = ws.load(spec)
    if not isinstance(obj, CubicalSet):
        raise ValidationError(f"{spec!r} is not a cubical set")
    return obj


# inline spec heads: an artifact saved under one of these names could never
# be read back by name
_SPEC_KEYWORDS = frozenset(_CUBICAL_SPECS) | {"circle", "wedge", "delta"}


def _resolve_simplicial(ws: Workspace, spec: str):
    head, *args = spec.split(":")
    if head == "circle":
        _spec_args(spec, args, 0)
        return circle(), "v"
    if head == "wedge":
        (count,) = _spec_args(spec, args, 1) if args else (2,)
        return wedge_of_intervals(count), "w"
    if head == "delta":
        return standard_simplex(*_spec_args(spec, args, 1)), "0"
    obj = ws.load(spec)
    if not isinstance(obj, SimplicialSet):
        raise ValidationError(f"{spec!r} is not a simplicial set")
    return obj, None


_PRESENTATIONS = {
    "point": lambda: special_category("point"),
    "interval": lambda: special_category("interval"),
    "tilde": lambda: special_category("interval_tilde"),
    "P": build_P,
    "H": build_H,
    "E": build_E,
}


def _resolve_presentation(ws: Workspace, spec: str):
    """A stored presentation, or failing one a built-in of that name."""
    if spec in _PRESENTATIONS and spec not in ws.manifest["entries"]:
        return _PRESENTATIONS[spec]()
    obj = ws.load(spec)
    if not isinstance(obj, EnrichedPresentation):
        raise ValidationError(f"{spec!r} is not a presentation")
    return obj


def _find_edge(pres, cell: str):
    hits = [
        ("e", s, t, c)
        for (s, t), space in pres.edges.items()
        for c in space.cells
        if c == cell
    ]
    if not hits:
        raise ValidationError(f"no generating edge named {cell!r}")
    if len(hits) > 1:
        raise ValidationError(f"edge name {cell!r} is ambiguous")
    return hits[0]


def _maybe_store(ws, name, obj):
    if name:
        ws.save(name, obj)


def cmd_cube(args, ws):
    if args.cube_cmd == "build":
        if args.what == "cube":
            X = standard_cube(args.n)
        elif args.what == "boundary":
            X = boundary(args.n)[0]
        else:
            if args.k is None or args.eps is None:
                raise ValidationError("box needs --k and --eps")
            X = open_box(args.n, args.k, args.eps)[0]
        _maybe_store(ws, args.name, X)
        _emit(to_json(X))
    elif args.cube_cmd == "tensor":
        X = _resolve_cubical(ws, args.left)
        Y = _resolve_cubical(ws, args.right)
        T = tensor(X, Y)
        _maybe_store(ws, args.name, T)
        _emit(to_json(T))
    elif args.cube_cmd == "pushout-product":
        maps = []
        for spec in args.factors:
            if spec == "i":
                maps.append(interval_inclusion())
            elif spec in ("j0", "j1"):
                maps.append(endpoint_inclusion(int(spec[1])))
            else:
                raise ValidationError(f"unknown factor {spec!r} (use i, j0, j1)")
        pp = iterated_pushout_product(maps)
        _maybe_store(ws, args.name, pp.source)
        _emit(
            {
                "source_cells": pp.source.cell_counts(),
                "target_cells": pp.target.cell_counts(),
                "source": to_json(pp.source),
            }
        )
    elif args.cube_cmd == "kan-check":
        X = _resolve_cubical(ws, args.space)
        report = kan_check(X, args.max_dim, guard=args.guard)
        _emit(report)
    return 0


def cmd_homology(args, ws):
    X = _resolve_cubical(ws, args.space)
    out = {}
    if args.pipeline in ("cubical", "both"):
        out["cubical"] = report_to_json(homology(cubical_chains(X)))
    if args.pipeline in ("triangulated", "both"):
        out["triangulated"] = report_to_json(
            homology(simplicial_chains(triangulate(X)))
        )
    if args.pipeline == "both":
        out["agree"] = out["cubical"] == out["triangulated"]
        _emit(out)
        return 0 if out["agree"] else 1
    _emit(out)
    return 0


def cmd_enriched(args, ws):
    if args.enriched_cmd == "build":
        if args.what == "interval" and getattr(args, "label", None):
            pres = special_category("interval", _resolve_cubical(ws, args.label))
        else:
            pres = _PRESENTATIONS[args.what]()
        _maybe_store(ws, args.name, pres)
        _emit(to_json(pres))
        return 0
    pres = _resolve_presentation(ws, args.category)
    if args.enriched_cmd == "map-space":
        trunc = mapping_space(pres, args.source, args.target, args.bound)
        _maybe_store(ws, args.name, trunc.space)
        _emit(
            {
                "pair": [args.source, args.target],
                "bound": args.bound,
                "cells": trunc.space.cell_counts(),
                "stable_dims": sorted(trunc.stable_dims),
                "space": to_json(trunc.space),
            }
        )
    elif args.enriched_cmd == "localize":
        edge = _find_edge(pres, args.edge)
        out = localize(pres, edge)
        _maybe_store(ws, args.name, out)
        _emit(to_json(out))
    elif args.enriched_cmd == "h-cat":
        h = homotopy_category(pres, args.bound)
        _emit(
            {
                "objects": h.objects,
                "homs": {
                    f"{x}->{y}": reps for (x, y), reps in sorted(h.homs.items())
                },
                "bound": args.bound,
            }
        )
    elif args.enriched_cmd == "extend-inverse":
        edge = _find_edge(pres, args.edge)
        report = extend_inverse(pres, edge, args.bound)
        _emit(report)
    return 0


def cmd_james(args, ws):
    X, default_base = _resolve_simplicial(ws, args.space)
    base = args.base or default_base
    if base is None:
        raise ValidationError("stored simplicial sets need --base")
    J = james(X, base, args.bound)
    _maybe_store(ws, args.name, J)
    out = {"cells": J.cell_counts(), "bound": args.bound}
    if args.homology:
        chains = simplicial_chains(J)
        del J  # the faces are most of the memory, and elimination needs only the chains
        out["homology"] = report_to_json(homology(chains))
    else:
        out["space"] = to_json(J)
    _emit(out)
    return 0


def cmd_quillen(args, ws):
    cyl = broken_cylinder() if args.broken else standard_cylinder()
    report = check_quillen(cyl, args.max_dim)
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_verify(args, ws):
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    results, ok = run_all(jobs=args.jobs)
    print(format_table(results))
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    # the stored report is deterministic apart from the timestamp field
    stored = [{k: v for k, v in r.items() if k != "seconds"} for r in results]
    ws.save(
        "acceptance_report",
        {"kind": "acceptance_report", "timestamp": stamp, "results": stored},
    )
    print(json.dumps({"timestamp": stamp}))
    print("ALL CRITERIA PASS" if ok else "CRITERIA FAILED")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="cubeworks",
        description="workbench for finite cubical sets and enriched categories",
    )
    p.add_argument(
        "--workspace",
        default=os.environ.get("CUBEWORKS_WORKSPACE", "./cubeworks_workspace"),
        help="directory for stored artifacts",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for verify")
    sub = p.add_subparsers(dest="cmd", required=True)

    cube = sub.add_parser("cube", help="cube-category and cubical-set constructions")
    cube_sub = cube.add_subparsers(dest="cube_cmd", required=True)
    b = cube_sub.add_parser("build")
    b.add_argument("what", choices=["cube", "boundary", "box"])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int)
    b.add_argument("--eps", type=int, choices=[0, 1])
    b.add_argument("--name")
    t = cube_sub.add_parser("tensor")
    t.add_argument("left")
    t.add_argument("right")
    t.add_argument("--name")
    pp = cube_sub.add_parser("pushout-product")
    pp.add_argument("factors", nargs="+", help="i, j0 or j1 per slot")
    pp.add_argument("--name")
    kc = cube_sub.add_parser("kan-check")
    kc.add_argument("space")
    kc.add_argument("--max-dim", type=int, default=2)
    kc.add_argument("--guard", type=int, default=10**7, help="most choices one map search may try")

    h = sub.add_parser("homology", help="homology of a cubical set")
    h.add_argument("space")
    h.add_argument(
        "--pipeline", choices=["cubical", "triangulated", "both"], default="cubical"
    )

    e = sub.add_parser("enriched", help="enriched-category constructions")
    e_sub = e.add_subparsers(dest="enriched_cmd", required=True)
    eb = e_sub.add_parser("build")
    eb.add_argument("what", choices=list(_PRESENTATIONS))
    eb.add_argument("--label", help="edge label for interval (cube:N or a stored name)")
    eb.add_argument("--name")
    ms = e_sub.add_parser("map-space")
    ms.add_argument("category")
    ms.add_argument("source")
    ms.add_argument("target")
    ms.add_argument("--bound", type=int, default=3)
    ms.add_argument("--name")
    loc = e_sub.add_parser("localize")
    loc.add_argument("category")
    loc.add_argument("edge")
    loc.add_argument("--name")
    hc = e_sub.add_parser("h-cat")
    hc.add_argument("category")
    hc.add_argument("--bound", type=int, default=3)
    ei = e_sub.add_parser("extend-inverse")
    ei.add_argument("category")
    ei.add_argument("edge")
    ei.add_argument("--bound", type=int, default=4)

    j = sub.add_parser("james", help="truncated James construction")
    j.add_argument("space", help="circle, wedge:N, delta:N or a stored name")
    j.add_argument("--bound", type=int, default=3)
    j.add_argument("--base")
    j.add_argument("--name")
    j.add_argument("--homology", action="store_true")

    q = sub.add_parser("quillen", help="left-Quillen generator checks")
    q_sub = q.add_subparsers(dest="quillen_cmd", required=True)
    qc = q_sub.add_parser("check")
    qc.add_argument("--max-dim", type=int, default=3)
    qc.add_argument("--broken", action="store_true")

    v = sub.add_parser("verify", help="acceptance suite")
    v_sub = v.add_subparsers(dest="verify_cmd", required=True)
    v_sub.add_parser("all")
    return p


_HANDLERS = {
    "cube": cmd_cube,
    "homology": cmd_homology,
    "enriched": cmd_enriched,
    "james": cmd_james,
    "quillen": cmd_quillen,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "name", None) in _SPEC_KEYWORDS:
            raise ValidationError(
                f"artifact name {args.name!r} is a spec keyword; choose another"
            )
        return _HANDLERS[args.cmd](args, Workspace(args.workspace))
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
