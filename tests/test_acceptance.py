"""Acceptance suite: every criterion at its stated size, all checks exact.

Run with -s to see one line per criterion; `cubeworks verify all` prints the
same table.
"""

import contextlib
import io
import json
from unittest import mock

import pytest

from cubeworks import verify


@pytest.mark.parametrize("index", range(len(verify.CRITERIA)), ids=lambda i: f"criterion_{i + 1}")
def test_criterion(index, capsys):
    result = verify._run_one(index)
    with capsys.disabled():
        status = "PASS" if result["pass"] else "FAIL"
        print(f"\n[acceptance] {result['id']}. {result['name']}: {status} ({result['seconds']}s)")
    assert result["pass"], json.dumps(result["detail"], indent=2, default=str)


@pytest.mark.parametrize("route", ["search", "witness"])
def test_criterion_3_needs_both_routes(route):
    # every row checks its structure map; only the cube-addition and unit
    # rows also need search, so without search exactly those rows fail
    search = mock.patch.object(verify, "find_isomorphism", return_value=None)
    witness = mock.patch.object(verify, "is_isomorphism", return_value=False)
    with search if route == "search" else witness as broken:
        result = verify.criterion_3()
    detail = result["detail"]
    assert broken.call_count == (23 if route == "search" else 427)
    assert not result["pass"]
    assert not any(row["isomorphic"] for row in detail["cube_addition"])
    assert not any(row["left"] or row["right"] for row in detail["unit"])
    assert all(row["isomorphic"] is (route == "search") for row in detail["associativity"])


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


def test_verify_all_report_deterministic(cli_run):
    # the CLI's stored serial report equals a process-pool run modulo the
    # timing field
    _, _, stored = cli_run
    pooled, ok = verify.run_all(jobs=2)
    assert ok
    strip = [{k: v for k, v in r.items() if k != "seconds"} for r in pooled]
    # the detail rows hold tuples, which the stored JSON holds as lists
    assert stored == json.loads(json.dumps(strip))
