"""Acceptance suite: every criterion at its stated size, all checks exact.

Run with -s to see one line per criterion; `cubeworks verify all` prints the
same table.
"""

import contextlib
import hashlib
import io
import json
from unittest import mock

import pytest

from cubeworks import verify
from cubeworks.cubical import CubicalSet


@pytest.mark.parametrize("index", range(len(verify.CRITERIA)), ids=lambda i: f"criterion_{i + 1}")
def test_criterion(index, capsys):
    result = verify._run_one(index)
    with capsys.disabled():
        status = "PASS" if result["pass"] else "FAIL"
        print(f"\n[acceptance] {result['id']}. {result['name']}: {status} ({result['seconds']}s)")
    assert result["pass"], json.dumps(result["detail"], indent=2, default=str)


@pytest.mark.parametrize("route", ["search", "witness"])
def test_criterion_3_needs_both_routes(route):
    # the cube-addition and unit rows need both the witness and the search;
    # the associativity rows compare presentations and call neither, so
    # they pass with either route mocked out
    search = mock.patch.object(verify, "find_isomorphism", return_value=None)
    witness = mock.patch.object(verify, "is_isomorphism", return_value=False)
    with search if route == "search" else witness as broken:
        result = verify.criterion_3()
    detail = result["detail"]
    assert broken.call_count == 23
    assert not result["pass"]
    assert not any(row["isomorphic"] for row in detail["cube_addition"])
    assert not any(row["left"] or row["right"] for row in detail["unit"])
    assert len(detail["associativity"]) == 404
    assert all(row["isomorphic"] for row in detail["associativity"])


def test_criterion_3_associativity_row_sees_one_swapped_face():
    # one bracketing of one triple, (cube1 (x) boundary2) (x) cube1, gets the
    # (1, 0) and (1, 1) faces of one 2-cell swapped: exactly that row fails
    tensor = verify.tensor

    def broken_tensor(X, Y):
        T = tensor(X, Y)
        if (X.name, Y.name) != ("cube1(x)boundary2", "cube1"):
            return T
        cell = next(c for c, d in T.cells.items() if d == 2)
        faces = dict(T.faces)
        faces[(cell, 1, 0)], faces[(cell, 1, 1)] = faces[(cell, 1, 1)], faces[(cell, 1, 0)]
        assert faces != T.faces
        return CubicalSet(T.cells, faces, name=T.name)

    with mock.patch.object(verify, "tensor", broken_tensor):
        result = verify.criterion_3()
    detail = result["detail"]
    assert not result["pass"]
    failed = [row["triple"] for row in detail["associativity"] if not row["isomorphic"]]
    assert failed == [("cube1", "boundary2", "cube1")]
    assert all(row["isomorphic"] for row in detail["cube_addition"])
    assert all(row["left"] and row["right"] for row in detail["unit"])


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    # one serial acceptance run through the CLI, shared by the two tests below
    from cubeworks.cli import main
    from cubeworks.io_json import Workspace

    ws = str(tmp_path_factory.mktemp("acceptance") / "ws")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--workspace", ws, "verify", "all"])
    return code, out.getvalue(), Workspace(ws).load("acceptance_report")["results"]


def test_verify_all_cli_exits_zero(cli_run):
    code, out, _ = cli_run
    assert "ALL CRITERIA PASS" in out
    assert code == 0


def test_verify_all_report_is_pinned(cli_run):
    # computed at 1dc3995: the stored results, which hold no seconds, as
    # canonical JSON
    _, _, stored = cli_run
    text = json.dumps(stored, sort_keys=True, separators=(",", ":"))
    digest = "e5071b9ca7871b2018d9dab843ea6fbf17c50e6e08db1fbc06af39511293c0ef"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_all_report_deterministic(cli_run):
    # the CLI's stored serial report equals a process-pool run modulo the
    # timing field
    _, _, stored = cli_run
    pooled, ok = verify.run_all(jobs=2)
    assert ok
    strip = [{k: v for k, v in r.items() if k != "seconds"} for r in pooled]
    # the detail rows hold tuples, which the stored JSON holds as lists
    assert stored == json.loads(json.dumps(strip))
