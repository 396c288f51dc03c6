"""Smoke tests of the scripts under scripts/, run as the README runs them."""

import importlib.util
import json
import os
import subprocess
import sys

from cubeworks.cubical import CubicalSet, boundary
from cubeworks.enriched import _count_words
from cubeworks.errors import CELL_BUDGET
from cubeworks.james import _count_cells
from cubeworks.james_compare import localized_E
from cubeworks.simplicial import wedge_of_intervals
from cubeworks.triangulate import simplex_count, triangulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_james_growth_script():
    out = run_script("james_growth.py", "3")
    sections = {block.splitlines()[0]: block for block in out.strip().split("\n\n")}
    wedge = sections["== two wedged intervals =="].splitlines()
    circle = sections["== circle =="].splitlines()
    assert "L=3:" in wedge[3] and wedge[3].endswith("betti(deg<L)=[1, 0, 0]")
    assert "L=3:" in circle[3] and circle[3].endswith("betti(deg<L)=[1, 1, 1]")


def test_kan_survey_script():
    out = run_script("kan_survey.py")
    assert "interval: has unfillable boxes" in out
    assert "point: fills all boxes" in out


def _harness_lines(sha, trace, wall_ref=None, dense=(), layer=0, commit=None):
    """The two JSON lines one harness run prints, cut down to what the
    ledger reads, with a log line in front."""
    context = {
        "workload": "torsion", "seed": 5, "trace": trace, "commit": commit,
        "src_sha256": sha, "failures": [], "counts": {"task": {"cells": [1, 1]}},
    }
    if trace:
        context.update(pass_seconds={"untraced": [1.0], "traced": [1.1]},
                       dense_snf_shapes=[list(s) for s in dense])
        metrics = {"snf.smith_normal_form.calls": {"value": layer, "unit": "count"}}
    else:
        context.update(pass_seconds=[wall_ref / 100, wall_ref / 100])
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "setup_s": {"value": 0.5, "unit": "s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"},
        }
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    return ["progress: not json", json.dumps({"context": context}), json.dumps(result)]


def test_bench_ledger_script(tmp_path):
    parent = [line for w in (600.0, 620.0, 610.0) for line in _harness_lines("p", 0, w)]
    parent += _harness_lines("p", 1, dense=[(7, 7), (393, 357)], layer=23)
    # runs made in a git checkout know their commit; the others get their rev
    change = [line for w in (240.0, 250.0) for line in _harness_lines("c", 0, w, commit="def012")]
    change += _harness_lines("c", 1, layer=0)
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    out = tmp_path / "BENCH.json"
    run_script(
        "bench_ledger.py", "--parent", str(tmp_path / "parent.jsonl"),
        "--change", str(tmp_path / "change.jsonl"), "--parent-rev", "abc",
        "--change-rev", "def", "--out", str(out),
    )
    ledger = json.loads(out.read_text())
    assert ledger["revs"] == {"parent": "abc", "change": "def"}
    torsion = ledger["workloads"]["torsion"]
    before, after = torsion["parent"], torsion["change"]
    assert (before["runs"], before["traced_runs"], after["runs"]) == (3, 1, 2)
    assert before["metrics"]["wall_ref"]["median"] == 610.0
    assert before["metrics"]["wall_ref"]["values"] == [600.0, 620.0, 610.0]
    assert after["metrics"]["wall_ref"]["median"] == 245.0
    assert after["metrics"]["wall_ref"]["unit"] == "ref"
    assert before["pass_seconds"][0] == [6.0, 6.0]
    assert before["dense_snf_shapes"] == [[7, 7], [393, 357]]
    assert after["dense_snf_shapes"] == []
    assert before["layers"]["snf.smith_normal_form.calls"] == 23
    assert (before["attempted"], before["failed"]) == (12, 0)
    assert before["src_sha256"] == ["p"] and after["src_sha256"] == ["c"]
    assert before["commit"] == ["abc"] and after["commit"] == ["def", "def012"]
    assert abs(torsion["relative_change"]["wall_ref"] - (245 / 610 - 1)) < 1e-12
    assert torsion["relative_change"]["setup_s"] == 0.0


def test_bench_ledger_script_refuses_runs_of_another_commit(tmp_path):
    (tmp_path / "runs.jsonl").write_text("\n".join(_harness_lines("p", 0, 600.0, commit="abc9")))
    runs = str(tmp_path / "runs.jsonl")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_ledger.py"), "--parent", runs,
         "--change", runs, "--parent-rev", "abc", "--change-rev", "def",
         "--out", str(tmp_path / "BENCH.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and not (tmp_path / "BENCH.json").exists()
    assert proc.stderr.splitlines() == ["error: a run of commit abc9 is not of revision def"]


def test_ladder_script_runs_one_rung():
    out = json.loads(run_script("ladder.py", "--rung", "tri_cube6_boundary", "--hash"))
    assert out["rung"] == "tri_cube6_boundary"
    # the boundary of the 6-cube: 728 cells, 14,048 simplices, a 5-sphere;
    # the hash of its triangulation's face items in order was measured at 20a5d9d
    assert sum(out["cells"].values()) == 14048
    assert out["faces_sha256"] == (
        "414975bf42a9fe3b5fcb11dad5e8d2bd45837caafff7ff25089382aa20d292f8"
    )
    assert out["cells"]["5"] == 1440
    assert out["homology"] == [[1, []]] + [[0, []]] * 4 + [[1, []]]
    assert set(out["stages"]) == {"triangulate", "homology"}
    assert out["wall_s"] > 0 and out["max_rss_mb"] > 0


def test_ladder_map_cc6_hash_is_pinned(monkeypatch):
    # Map(c, c) of the localized E at window 6, byte for byte: cells per
    # dimension and the hash of its face items in order, under two hash seeds
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        out = json.loads(run_script("ladder.py", "--rung", "map_cc6", "--hash"))
        assert out["cells"] == {
            "0": 127, "1": 642, "2": 1404, "3": 1672, "4": 1136, "5": 416, "6": 64
        }
        assert out["faces_sha256"] == (
            "b9a2ae5ce587840dabbbadb4005e88b5dcca51baac67ca5ed459f0909eb9c309"
        )


def test_ladder_rungs_fit_the_cell_budget():
    # counts only, nothing built: the default budget can never refuse a rung
    path = os.path.join(ROOT, "scripts", "ladder.py")
    spec = importlib.util.spec_from_file_location("ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    map_cc6 = _count_words(localized_E(), "c", "c", 6)
    # the triangulation counts simplices from the cell dimensions alone
    cells = {f"{w}.{d}.{i}": d for (w, d), n in map_cc6.items() for i in range(n)}
    james_w6 = _count_cells(wedge_of_intervals(2), "w", 6, 6)[0]
    tri_map_cc6 = simplex_count(CubicalSet(cells, rows={}))
    rungs = {
        "james_wedge_w6": james_w6,
        "map_cc6": sum(map_cc6.values()),
        "tri_map_cc6": tri_map_cc6,
        "tri_cube6_boundary": simplex_count(boundary(6)[0]),
        "james_rp2_l4": _count_cells(triangulate(ladder.projective_plane()), "v#", 4, 4)[0],
        # the largest of the sets compare_with_james(6) builds
        "compare_w6": max(james_w6, tri_map_cc6),
    }
    assert set(rungs) == set(ladder.RUNGS)
    assert rungs == {
        "james_wedge_w6": 636685,
        "map_cc6": 5461,
        "tri_map_cc6": 636685,
        "tri_cube6_boundary": 14048,
        "james_rp2_l4": 106717,
        "compare_w6": 636685,
    }
    assert max(rungs.values()) <= CELL_BUDGET
