"""Acceptance suite: every criterion at its stated size, all checks exact.

Run with -s to see one line per criterion; `cubeworks verify all` prints the
same table.
"""

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


def test_verify_all_cli_exits_zero(tmp_path, capsys):
    from cubeworks.cli import main

    code = main(["--workspace", str(tmp_path / "ws"), "verify", "all"])
    out = capsys.readouterr().out
    assert "ALL CRITERIA PASS" in out
    assert code == 0


def test_verify_all_report_deterministic(tmp_path):
    # a serial run and a process-pool run produce identical reports modulo
    # the timing field
    from cubeworks.verify import run_all

    r1, ok1 = run_all()
    r2, ok2 = run_all(jobs=2)
    strip = lambda rs: [{k: v for k, v in r.items() if k != "seconds"} for r in rs]
    assert strip(r1) == strip(r2)
    assert ok1 and ok2
