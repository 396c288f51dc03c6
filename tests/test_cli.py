import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings

from cubeworks.chains import cubical_chains, homology
from cubeworks.cli import main
from cubeworks.cubical import CellRef, CubicalSet, boundary, nd, open_box, standard_cube, tensor
from cubeworks.enriched import build_E, build_H, build_P, mapping_space, special_category
from cubeworks.errors import ValidationError
from cubeworks.io_json import (
    Workspace,
    _write_presented,
    presentation_from_json,
    presentation_to_json,
    presented_from_json,
    presented_to_json,
    report_to_json,
    to_json,
)
from cubeworks.james import james
from cubeworks.james_compare import localized_E
from cubeworks.simplicial import SimplicialSet, circle, standard_simplex, wedge_of_intervals
from cubeworks.triangulate import triangulate
from random_sets import cubical_sets
from test_enriched import _interval_along


def run(capsys, tmp_path, *argv):
    code = main(["--workspace", str(tmp_path / "ws"), *argv])
    out = capsys.readouterr().out
    return code, out


def test_roundtrip_cubical_sets():
    for X in [standard_cube(3), boundary(3)[0], open_box(3, 2, 1)[0],
              tensor(boundary(2)[0], standard_cube(1))]:
        data = presented_to_json(X)
        Y = presented_from_json(data, CubicalSet)
        assert presented_to_json(Y) == data
        assert Y.cells == X.cells and Y.faces == X.faces


def test_roundtrip_simplicial_sets():
    for S in [triangulate(standard_cube(2)), james(wedge_of_intervals(2), "w", 2)]:
        data = presented_to_json(S)
        T = presented_from_json(data, SimplicialSet)
        assert presented_to_json(T) == data


def test_roundtrip_presentations():
    for P in [build_H(), build_E(), special_category("interval_tilde")]:
        data = presentation_to_json(P)
        Q = presentation_from_json(data)
        assert presentation_to_json(Q) == data


@pytest.mark.parametrize(
    "build, digest",
    [
        (build_E, "0d296f46bad7d627d3f77c5b46eb27d6f097eb44d7cd36ce0a525fe421fb741c"),
        (localized_E, "eedb76b0d7f8e21339f9b5b91270e14d5c6ecb095468425c5b38078275b55bd3"),
        (
            lambda: mapping_space(localized_E(), "c", "c", 4).space,
            "d583d6c99e350a90d39c92e6ee732bd31feb186e430244f64c6da4837924a8f7",
        ),
        (
            lambda: james(circle(), "v", 4),
            "4f428867c1571032a76208788eebf5ac6db919baef93c70753a0b3ed8c3163ba",
        ),
        (
            lambda: triangulate(boundary(3)[0]),
            "b7eae65a29a88f17fb691f43ea9fc3f4f23a9ed3d148dbaa277660a711f529a3",
        ),
    ],
    ids=["E", "EL", "map-cc-4", "james-circle-4", "triangulated-boundary-3"],
)
def test_saved_bytes_are_pinned(tmp_path, build, digest):
    # computed at 1dc3995; the saved cubeworks/1 file is frozen byte for byte
    ws = Workspace(str(tmp_path / "ws"))
    fname = ws.save("x", build())
    assert hashlib.sha256((tmp_path / "ws" / fname).read_bytes()).hexdigest() == digest


def test_workspace_roundtrip(tmp_path):
    ws = Workspace(str(tmp_path / "ws"))
    X = boundary(2)[0]
    ws.save("b2", X)
    Y = ws.load("b2")
    assert to_json(Y) == to_json(X)
    assert ws.names() == ["b2"]


def _odd_names(kind):
    """A loop at one vertex, with quotes, backslashes, control and non-ASCII
    characters in every name."""
    v, e = 'v"\\0', "\u00e9\n\u2713\U0001f600"
    if kind is CubicalSet:
        faces = {(e, 1, 0): nd(v), (e, 1, 1): nd(v)}
    else:
        faces = {(e, 0): nd(v), (e, 1): nd(v)}
    return kind({v: 0, e: 1}, faces, name='q"\\\u00fc\t')


def _collapsed(kind, n):
    """One vertex and one n-cell whose faces are all the vertex, degenerate
    in every direction of the face."""
    faces = tuple(range(kind.index_base, n - 1 + kind.index_base))
    return kind(
        {"v": 0, "c": n}, {("c", *i): CellRef(faces, "v") for i in kind.face_indices(n)}
    )


_SAVED_SETS = {
    "empty": lambda: CubicalSet({}, {}),
    "empty-simplicial": lambda: SimplicialSet({}, {}),
    "cube3": lambda: standard_cube(3),
    "simplex3": lambda: standard_simplex(3),
    "boundary3": lambda: boundary(3)[0],
    "boundary3-triangulated": lambda: triangulate(boundary(3)[0]),
    "james-wedge3": lambda: james(wedge_of_intervals(2), "w", 3),
    "map-c-c-6": lambda: mapping_space(localized_E(), "c", "c", 6).space,
    "collapsed-cube4": lambda: _collapsed(CubicalSet, 4),
    "collapsed-simplex4": lambda: _collapsed(SimplicialSet, 4),
    "odd-names-cubical": lambda: _odd_names(CubicalSet),
    "odd-names-simplicial": lambda: _odd_names(SimplicialSet),
}


@pytest.mark.parametrize("name", sorted(_SAVED_SETS))
def test_saved_sets_are_the_bytes_of_json_dump(tmp_path, name):
    X = _SAVED_SETS[name]()
    ws = Workspace(str(tmp_path))
    fname = ws.save("x", X)
    want = json.dumps(presented_to_json(X), indent=2, sort_keys=True)
    assert (tmp_path / fname).read_bytes() == want.encode()
    Y = ws.load("x")
    assert type(Y) is type(X) and (Y.cells, Y.faces, Y.name) == (X.cells, X.faces, X.name)


def _escaped_collapse():
    """A vertex, a square and a cube whose faces are the vertex, degenerate in
    every direction of the face, with ids that JSON escapes."""
    v = 'v"\\\u00e9'
    cells = {v: 0, 'sq"\\': 2, "cube\u00e9": 3}
    return CubicalSet(
        cells,
        {
            (c, *i): CellRef(tuple(range(1, n)), v)
            for c, n in cells.items()
            for i in CubicalSet.face_indices(n)
        },
    )


def _check_round_trip(X):
    """The template writer against `json.dump`, then a workspace save and
    load that gives back the same tables and a set that validates."""
    want, got = io.StringIO(), io.StringIO()
    json.dump(presented_to_json(X), want, indent=2, sort_keys=True)
    _write_presented(X, got)
    assert got.getvalue() == want.getvalue()
    with tempfile.TemporaryDirectory() as path:
        ws = Workspace(path)
        with open(os.path.join(path, ws.save("x", X))) as fh:
            assert fh.read() == want.getvalue()
        Y = ws.load("x")
    assert type(Y) is type(X) and (Y.cells, Y.faces) == (X.cells, X.faces)
    assert Y.validate()


def test_round_trip_of_degenerate_faces_with_escaped_ids():
    X = _escaped_collapse()
    assert any(ref.degens for ref in X.faces.values())
    for Z in (X, triangulate(X)):
        _check_round_trip(Z)


@settings(deadline=None)
@given(cubical_sets())
def test_round_trip_of_random_sets_and_their_triangulations(X):
    _check_round_trip(X)
    _check_round_trip(triangulate(X))


def test_workspace_failed_save_keeps_old_files(tmp_path):
    ws = Workspace(str(tmp_path / "ws"))
    ws.save("b2", boundary(2)[0])
    before = sorted(p.name for p in (tmp_path / "ws").iterdir())
    artifact = (tmp_path / "ws" / "b2.json").read_bytes()
    manifest = (tmp_path / "ws" / "manifest.json").read_bytes()
    with pytest.raises(TypeError):
        ws.save("b2", {"kind": "raw", "value": object()})
    assert sorted(p.name for p in (tmp_path / "ws").iterdir()) == before
    assert (tmp_path / "ws" / "b2.json").read_bytes() == artifact
    assert (tmp_path / "ws" / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"*": (nd("0"),)}, "* has 1 faces for 2 indices"),
        ({"*": (nd("0"), nd("2"))}, "face of * points at unknown 2"),
        ({"*": (nd("0"), nd("1")), "2": ()}, "face data on unknown cell 2"),
    ],
    ids=["short-row", "unknown-base", "row-on-unknown-cell"],
)
def test_workspace_refuses_to_save_a_malformed_set(tmp_path, rows, message):
    ws = Workspace(str(tmp_path / "ws"))
    ws.save("b2", boundary(2)[0])
    before = {p.name: p.read_bytes() for p in (tmp_path / "ws").iterdir()}
    I = standard_cube(1)
    with pytest.raises(ValidationError) as refused:
        ws.save("b2", CubicalSet(I.cells, rows={**I.rows, **rows}))
    assert str(refused.value) == message
    assert {p.name: p.read_bytes() for p in (tmp_path / "ws").iterdir()} == before


def test_a_dimension_beyond_the_face_entries_is_refused_before_any_row_is_made():
    # a d-cell has at least d faces; the rows of a 10^5-cube would take 2 * 10^5 slots
    data = {"schema": "cubeworks/1", "kind": "cubical_set", "cells": {"x": 10**5}, "faces": []}
    with pytest.raises(ValidationError) as refused:
        presented_from_json(data, CubicalSet)
    assert str(refused.value) == "cubical set has 0 faces, too few for its cells"


def test_cli_tensor_with_colliding_ids_exits_2(capsys, tmp_path):
    ws = Workspace(str(tmp_path / "ws"))
    ws.save("x", CubicalSet({"a": 0, "a|b": 0}, {}, name="X"))
    ws.save("y", CubicalSet({"b|c": 0, "c": 0}, {}, name="Y"))
    code = main(["--workspace", str(tmp_path / "ws"), "cube", "tensor", "x", "y"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "collide" in captured.err


def test_cli_build_and_homology(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "cube", "build", "boundary", "--n", "3", "--name", "b3")
    assert code == 0
    code, out = run(capsys, tmp_path, "homology", "b3", "--pipeline", "both")
    assert code == 0
    data = json.loads(out)
    assert data["agree"]
    groups = {g["degree"]: g for g in data["cubical"]["groups"]}
    assert groups[0]["betti"] == 1 and groups[2]["betti"] == 1


def test_cli_homology_inline_spec(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "homology", "boundary:2", "--pipeline", "cubical")
    assert code == 0
    data = json.loads(out)
    groups = {g["degree"]: g for g in data["cubical"]["groups"]}
    assert groups[1]["betti"] == 1


def test_cli_pushout_product(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "cube", "pushout-product", "i", "j0")
    assert code == 0
    data = json.loads(out)
    assert data["source_cells"] == {"0": 4, "1": 3}


def test_cli_kan_check(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "cube", "kan-check", "cube:0", "--max-dim", "2")
    assert code == 0
    assert json.loads(out)["pass"]


def test_cli_enriched_flow(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "enriched", "build", "E", "--name", "E")
    assert code == 0
    code, out = run(capsys, tmp_path, "enriched", "localize", "E", "u", "--name", "EL")
    assert code == 0
    code, out = run(capsys, tmp_path, "enriched", "h-cat", "EL", "--bound", "3")
    assert code == 0
    data = json.loads(out)
    assert all(len(v) == 1 for v in data["homs"].values())
    code, out = run(capsys, tmp_path, "enriched", "map-space", "EL", "c", "c", "--bound", "2")
    assert code == 0
    assert json.loads(out)["cells"]["0"] == 7


def test_cli_extend_inverse(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "enriched", "build", "H", "--name", "H")
    assert code == 0
    code, out = run(capsys, tmp_path, "enriched", "extend-inverse", "H", "u", "--bound", "4")
    assert code == 0
    data = json.loads(out)
    assert data["right"] == "inconclusive"
    assert not data["extends"]


def test_cli_james(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "james", "circle", "--bound", "3", "--homology")
    assert code == 0
    data = json.loads(out)
    groups = {g["degree"]: g for g in data["homology"]["groups"]}
    assert groups[1]["betti"] == 1 and groups[2]["betti"] == 1


def test_cli_quillen(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "quillen", "check", "--max-dim", "2")
    assert code == 0
    assert json.loads(out)["pass"]


def test_cli_quillen_broken_fails(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "quillen", "check", "--max-dim", "1", "--broken")
    assert code == 1


def test_cli_guard_exit_code(capsys, tmp_path):
    code, out = run(
        capsys, tmp_path, "cube", "kan-check", "cube:2", "--max-dim", "3", "--guard", "10"
    )
    assert code == 3


def test_cli_usage_error(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "homology", "no-such-name")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "cube:x"],
        ["homology", "box:2:1"],
        ["homology", "box:2:1:5"],
        ["homology", "cube:-1"],
        ["homology", "boundary:"],
        ["james", "circle", "--bound", "-1"],
        ["james", "delta:two"],
        ["james", "wedge:1:2"],
        ["cube", "build", "cube", "--n", "-2"],
        ["cube", "build", "boundary", "--n", "-1"],
        ["cube", "build", "box", "--n", "-1", "--k", "1", "--eps", "0"],
        ["enriched", "map-space", "E", "c", "zz", "--bound", "2"],
        ["enriched", "map-space", "E", "zz", "zz", "--bound", "2"],
    ],
)
def test_cli_bad_spec_or_size_exits_2(capsys, tmp_path, argv):
    code = main(["--workspace", str(tmp_path / "ws"), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid input: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["cube", "kan-check", "cube:1", "--max-dim", "-1"],
        ["quillen", "check", "--max-dim", "-1"],
        ["cube", "kan-check", "cube:1", "--max-dim", "1", "--guard", "-5"],
    ],
)
def test_cli_negative_max_dim_exits_2(capsys, tmp_path, argv):
    code, out = run(capsys, tmp_path, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_jobs_below_one_exits_2(capsys, tmp_path, monkeypatch, jobs):
    # refused before any criterion runs, and no report is stored
    monkeypatch.setattr("cubeworks.verify.CRITERIA", None)
    code = main(["--workspace", str(tmp_path / "ws"), "--jobs", jobs, "verify", "all"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"invalid input: --jobs must be at least 1, got {jobs}"]
    assert not (tmp_path / "ws" / "acceptance_report.json").exists()


def test_cli_jobs_capped_at_the_criteria(capsys, tmp_path, monkeypatch):
    # the pool is asked for no more workers than there are criteria
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    one = {"id": 1, "name": "one", "pass": True, "detail": {}}
    monkeypatch.setattr("cubeworks.verify.CRITERIA", [lambda: dict(one), lambda: dict(one, id=2)])
    code, out = run(capsys, tmp_path, "--jobs", "1000", "verify", "all")
    assert code == 0 and sizes == [2]
    assert out.splitlines()[-1] == "ALL CRITERIA PASS"


@pytest.mark.parametrize("text", ["garbage", "[]", '{"entries": 3}'])
def test_cli_corrupt_manifest_exits_2(capsys, tmp_path, text):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "manifest.json").write_text(text)
    code = main(["--workspace", str(ws), "cube", "build", "cube", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "manifest.json" in lines[0]
    assert (ws / "manifest.json").read_text() == text


def test_cli_corrupt_artifact_exits_2(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "cube", "build", "boundary", "--n", "2", "--name", "b2")
    assert code == 0
    (tmp_path / "ws" / "b2.json").write_text("garbage")
    code = main(["--workspace", str(tmp_path / "ws"), "homology", "b2"])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "b2.json" in lines[0]


def _set(path, value):
    """An edit of a saved artifact: put value at the key path."""

    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(["cells"], [["00", 0]]),
        _set(["cells", "00"], -1),
        _set(["cells", "00"], "0"),
        _set(["faces"], {}),
        _set(["faces", 0], ["*0", 0]),
        _set(["faces", 0, "k"], "0"),
        _set(["faces", 0, "eps"], True),
        _set(["faces", 0, "degens"], [0.0]),
        _set(["faces", 0, "degens"], 0),
        _set(["faces", 0, "base"], "nowhere"),
        _set(["faces", 0, "cell"], ["*0"]),
        lambda data: data["faces"][0].pop("base"),
        _set(["name"], 3),
        lambda data: data["faces"].append(data["faces"][0]),
        # the first face of *0 is 00; a later entry naming 01 would win
        lambda data: data["faces"].append({**data["faces"][0], "base": "01"}),
    ],
    ids=[
        "cells-list",
        "negative-dimension",
        "string-dimension",
        "faces-object",
        "face-list",
        "string-index",
        "bool-index",
        "float-degeneracy",
        "degens-int",
        "unknown-base",
        "list-cell",
        "missing-base",
        "int-name",
        "repeated-face",
        "conflicting-face",
    ],
)
def test_cli_malformed_artifact_exits_2(capsys, tmp_path, edit):
    code, out = run(capsys, tmp_path, "cube", "build", "boundary", "--n", "2", "--name", "b2")
    assert code == 0
    path = tmp_path / "ws" / "b2.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = main(["--workspace", str(tmp_path / "ws"), "homology", "b2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "edit",
    [
        None,
        lambda data: data.pop("groups"),
        lambda data: data["groups"][0].pop("betti"),
        _set(["schema"], "cubeworks/0"),
        _set(["groups"], {}),
        _set(["groups", 0], [0, 1, []]),
        _set(["groups", 0, "degree"], -1),
        _set(["groups", 0, "betti"], True),
        _set(["groups", 0, "torsion"], 2),
        _set(["groups", 0, "torsion"], [1]),
    ],
    ids=[
        "intact",
        "no-groups",
        "no-betti",
        "old-schema",
        "groups-object",
        "group-list",
        "negative-degree",
        "bool-betti",
        "torsion-int",
        "torsion-one",
    ],
)
def test_cli_hand_edited_homology_report_exits_2(capsys, tmp_path, edit):
    data = report_to_json(homology(cubical_chains(boundary(2)[0])))
    if edit:
        edit(data)
    Workspace(str(tmp_path / "ws")).save("r", data)
    code = main(["--workspace", str(tmp_path / "ws"), "homology", "r"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    # an intact report is read, and refused only as no cubical set
    assert ("is not a cubical set" in lines[0]) == (edit is None)


def test_cli_artifact_that_is_not_an_object_exits_2(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "cube", "build", "boundary", "--n", "2", "--name", "b2")
    (tmp_path / "ws" / "b2.json").write_text("[]")
    code = main(["--workspace", str(tmp_path / "ws"), "homology", "b2"])
    assert code == 2 and "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["../escaped", "sub/b2", ".hidden", "manifest"])
def test_cli_names_stay_inside_workspace(capsys, tmp_path, name):
    code, out = run(capsys, tmp_path, "cube", "build", "cube", "--n", "1", "--name", name)
    assert code == 2
    assert [p.name for p in tmp_path.rglob("*")] == ["ws"]
    with pytest.raises(ValidationError):
        Workspace(str(tmp_path / "ws")).load(name)


@pytest.mark.parametrize(
    "argv",
    [
        ["cube", "build", "box", "--n", "2", "--k", "1", "--eps", "0", "--name", "box"],
        ["cube", "build", "cube", "--n", "1", "--name", "cube"],
        ["cube", "tensor", "cube:1", "cube:1", "--name", "boundary"],
        ["james", "circle", "--bound", "2", "--name", "circle"],
        ["james", "wedge:2", "--bound", "2", "--name", "wedge"],
        ["cube", "build", "boundary", "--n", "2", "--name", "delta"],
    ],
)
def test_cli_refuses_spec_keywords_as_names(capsys, tmp_path, argv):
    # such an artifact would be read as the inline spec, never by its name
    code = main(["--workspace", str(tmp_path / "ws"), *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "spec keyword" in captured.err
    assert Workspace(str(tmp_path / "ws")).names() == []


def test_cli_names_that_extend_a_keyword_read_back(capsys, tmp_path):
    argv = ["cube", "build", "box", "--n", "2", "--k", "1", "--eps", "0", "--name", "box2"]
    code, _ = run(capsys, tmp_path, *argv)
    assert code == 0
    code, stored = run(capsys, tmp_path, "homology", "box2")
    assert code == 0
    code, inline = run(capsys, tmp_path, "homology", "box:2:1:0")
    assert code == 0 and stored == inline


def test_cli_stored_presentation_shadows_builtin_name(capsys, tmp_path):
    code, builtin_P = run(capsys, tmp_path, "enriched", "map-space", "P", "c", "c", "--bound", "2")
    assert code == 0 and json.loads(builtin_P)["cells"] == {"0": 2}
    code, _ = run(capsys, tmp_path, "enriched", "build", "E", "--name", "E")
    assert code == 0
    code, _ = run(capsys, tmp_path, "enriched", "localize", "E", "u", "--name", "P")
    assert code == 0
    code, out = run(capsys, tmp_path, "enriched", "map-space", "P", "c", "c", "--bound", "2")
    assert code == 0 and json.loads(out)["cells"] == {"0": 7, "1": 10, "2": 4}
    # build always builds the built-in, whatever the workspace holds
    code, out = run(capsys, tmp_path, "enriched", "build", "P")
    assert code == 0 and json.loads(out) == to_json(build_P())


_LETTER = {"kind": "edge", "source": "c", "target": "c'", "cell": "u"}


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.pop("edges"),
        _set(["objects"], "cc'"),
        _set(["objects"], {"c": 0}),
        _set(["objects"], [["c"]]),
        _set(["edges"], {}),
        _set(["edges", 0], "c->c'"),
        lambda data: data["edges"][0].pop("source"),
        _set(["edges", 0, "space"], []),
        lambda data: data.pop("attachments"),
        _set(["attachments", 0, "a_cells"], [["h0"]]),
        _set(["attachments", 0, "boundary", "h0"], _LETTER),
        _set(["cancel_pairs"], [[_LETTER]]),
        _set(["cancel_pairs"], [_LETTER]),
        _set(["cancel_pairs"], {}),
        _set(["zero_weight"], [{"kind": "loop", "cell": "u"}]),
        _set(["zero_weight"], [{"kind": "edge", "cell": "u"}]),
        _set(["zero_weight"], [{"kind": "att", "index": "0", "cell": "u"}]),
        _set(["zero_weight"], ["u"]),
        _set(["zero_weight"], _LETTER),
        _set(["name"], 3),
    ],
    ids=[
        "no-edges",
        "objects-string",
        "objects-object",
        "objects-nested",
        "edges-object",
        "edge-string",
        "edge-without-source",
        "edge-space-list",
        "no-attachments",
        "a-cells-nested",
        "word-not-list",
        "one-letter-cancel-pair",
        "cancel-pair-not-list",
        "cancel-pairs-object",
        "letter-unknown-kind",
        "edge-letter-missing-fields",
        "att-letter-string-index",
        "letter-string",
        "zero-weight-object",
        "int-name",
    ],
)
def test_cli_malformed_presentation_exits_2(capsys, tmp_path, edit):
    code, _ = run(capsys, tmp_path, "enriched", "build", "E", "--name", "saved")
    assert code == 0
    path = tmp_path / "ws" / "saved.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = main(["--workspace", str(tmp_path / "ws"), "enriched", "map-space", "saved", "c", "c", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_cli_stored_unreduced_boundary_word_exits_2(capsys, tmp_path):
    Workspace(str(tmp_path / "ws")).save("saved", _interval_along("*"))
    code, out = run(capsys, tmp_path, "enriched", "map-space", "saved", "x", "x", "--bound", "1")
    assert code == 0 and json.loads(out)["cells"] == {"0": 5, "1": 1}
    path = tmp_path / "ws" / "saved.json"
    data = json.loads(path.read_text())
    word = data["attachments"][0]["boundary"]["*"]
    word += [{"kind": "edge", "source": "x", "target": "x", "cell": c} for c in "fg"]
    path.write_text(json.dumps(data))
    code = main(["--workspace", str(tmp_path / "ws"), "enriched", "map-space", "saved", "x", "x", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "invalid input: boundary word of * has an adjacent cancel pair"
    ]


def _point_face(cell, eps, base, degens=()):
    """An edit of a saved cubical set: the (0, eps) face of cell points at base
    under degens."""

    def edit(data):
        (face,) = [f for f in data["faces"] if f["cell"] == cell and f["k"] == 0 and f["eps"] == eps]
        face["base"] = base
        face["degens"] = list(degens)

    return edit


_ATT5 = [_LETTER, {"kind": "att", "index": 5, "cell": "h"}]


def _zero_weight_edge_on_heavy_vertex(data):
    """An edit of a saved P: a zero-weight edge w from u to u, where the
    vertex u keeps weight 1."""
    space = data["edges"][0]["space"]
    space["cells"]["w"] = 1
    space["faces"] += [{"base": "u", "cell": "w", "degens": [], "eps": e, "k": 0} for e in (0, 1)]
    data["zero_weight"] = [{**_LETTER, "cell": "w"}]


@pytest.mark.parametrize(
    "build, edit, use",
    [
        (
            ["enriched", "build", "P"],
            _set(["edges", 0, "source"], "zzz"),
            ["enriched", "map-space", "saved", "c", "c", "--bound", "2"],
        ),
        (
            ["enriched", "build", "H"],
            _set(["attachments", 0, "boundary", "h0"], _ATT5),
            ["enriched", "map-space", "saved", "c", "c", "--bound", "2"],
        ),
        (
            ["cube", "build", "boundary", "--n", "2"],
            _point_face("*0", 0, "*1"),
            ["homology", "saved"],
        ),
        (
            ["cube", "build", "cube", "--n", "2"],
            _point_face("**", 0, "00", [7]),
            ["homology", "saved", "--pipeline", "both"],
        ),
        (
            ["cube", "build", "cube", "--n", "3"],
            _point_face("***", 0, "000", [1, 0]),
            ["homology", "saved", "--pipeline", "both"],
        ),
        (
            ["cube", "build", "cube", "--n", "2"],
            _point_face("*0", 0, "10"),
            ["homology", "saved"],
        ),
        (
            ["enriched", "build", "P"],
            _zero_weight_edge_on_heavy_vertex,
            ["enriched", "map-space", "saved", "c", "c'", "--bound", "1"],
        ),
        (
            ["enriched", "build", "P"],
            _set(["edges", 0, "space", "cells"], {"u.x": 0}),
            ["enriched", "map-space", "saved", "c", "c'", "--bound", "1"],
        ),
    ],
    ids=[
        "edge-from-unknown-object",
        "attachment-index-out-of-range",
        "face-one-dimension-too-high",
        "degeneracy-outside-the-face",
        "degeneracy-word-not-increasing",
        "face-identity-broken",
        "zero-weight-edge-with-heavier-face",
        "edge-id-with-separator",
    ],
)
def test_cli_inconsistent_artifact_exits_2(capsys, tmp_path, build, edit, use):
    code, _ = run(capsys, tmp_path, *build, "--name", "saved")
    assert code == 0
    path = tmp_path / "ws" / "saved.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = main(["--workspace", str(tmp_path / "ws"), *use])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_wire_format_of_both_kinds():
    assert json.loads(json.dumps(to_json(standard_cube(1)))) == {
        "cells": {"*": 1, "0": 0, "1": 0},
        "faces": [
            {"base": "0", "cell": "*", "degens": [], "eps": 0, "k": 0},
            {"base": "1", "cell": "*", "degens": [], "eps": 1, "k": 0},
        ],
        "kind": "cubical_set",
        "name": "cube1",
        "schema": "cubeworks/1",
    }
    assert json.loads(json.dumps(to_json(standard_simplex(1)))) == {
        "cells": {"0": 0, "0.1": 1, "1": 0},
        "faces": [
            {"base": "1", "cell": "0.1", "degens": [], "j": 0},
            {"base": "0", "cell": "0.1", "degens": [], "j": 1},
        ],
        "kind": "simplicial_set",
        "name": "delta1",
        "schema": "cubeworks/1",
    }


def test_cli_deterministic_output(capsys, tmp_path):
    _, out1 = run(capsys, tmp_path, "cube", "build", "cube", "--n", "2")
    _, out2 = run(capsys, tmp_path, "cube", "build", "cube", "--n", "2")
    assert out1 == out2


def test_cli_interval_with_label(capsys, tmp_path):
    code, out = run(
        capsys, tmp_path, "enriched", "build", "interval", "--label", "cube:1", "--name", "I1"
    )
    assert code == 0
    data = json.loads(out)
    (edge_block,) = data["edges"]
    assert edge_block["space"]["cells"] == {"0": 0, "1": 0, "*": 1}


def test_emitted_artifacts_validate_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schemas" / "cubeworks-1.schema.json").read_text()
    )
    from cubeworks.chains import cubical_chains, homology

    artifacts = [
        to_json(boundary(3)[0]),
        to_json(triangulate(standard_cube(2))),
        to_json(build_E()),
        to_json(special_category("interval_tilde")),
        to_json(homology(cubical_chains(boundary(2)[0]))),
    ]
    for art in artifacts:
        jsonschema.validate(art, schema)
