"""Face rows against face tables: the rows of `standard_cube` and the
``faces`` that a row-built set derives against the key-by-key loops of
`dict_builders`, the ``rows`` that keyed faces fill against those faces, and
`is_isomorphism` between row-built and keyed sets against the map route of
`iso_oracle`."""

import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cubeworks.cubical import CellRef, CubicalSet, nd, standard_cube, tensor
from cubeworks.errors import ValidationError
from cubeworks.james import _count_cells, james
from cubeworks.presented import is_isomorphism
from cubeworks.triangulate import triangulate
from dict_builders import (
    james_by_keys,
    standard_cube_by_keys,
    tensor_by_keys,
    triangulate_by_keys,
)
from iso_oracle import is_isomorphism_by_map
from random_sets import SOURCES, cubical_sets


def _rows_by_keys(Z):
    """Each cell's faces read key by key from the faces table."""
    return {c: tuple(Z.faces[(c, *i)] for i in Z.face_indices(d)) for c, d in Z.cells.items()}


def test_standard_cube_renders_the_ids_of_the_face_type_maps():
    for n in range(7):
        built, keyed = standard_cube(n), standard_cube_by_keys(n)
        assert list(built.cells.items()) == list(keyed.cells.items())
        assert list(built.rows.items()) == list(keyed.rows.items())
        assert list(built.faces.items()) == list(keyed.faces.items())


def test_the_faces_view_pairs_each_row_with_its_own_cell():
    # a short row loses its missing key and lends no face to the next cell
    rows = {"0": (), "1": (), "*": (nd("0"),), "e": (nd("0"), nd("1"))}
    X = CubicalSet({"0": 0, "1": 0, "*": 1, "e": 1}, rows=rows)
    assert list(X.faces.items()) == [
        (("*", 1, 0), nd("0")),
        (("e", 1, 0), nd("0")),
        (("e", 1, 1), nd("1")),
    ]


@settings(deadline=None)
@given(cubical_sets(), st.sampled_from(SOURCES), st.data())
def test_row_builders_derive_the_face_tables_of_the_key_loops(X, Y, data):
    base = data.draw(st.sampled_from(sorted(c for c, d in X.cells.items() if d == 0)))
    max_dim = data.draw(st.integers(0, 2))
    bound = data.draw(st.integers(0, 3))
    while bound and _count_cells(triangulate(X), f"{base}#", bound, max_dim)[0] > 1500:
        bound -= 1
    pairs = [
        (tensor(X, Y), tensor_by_keys(X, Y)),
        (tensor(Y, X), tensor_by_keys(Y, X)),
        (triangulate(X), triangulate_by_keys(X)),
        (james(X, base, bound, max_dim), james_by_keys(X, base, bound, max_dim)),
    ]
    for built, keyed in pairs:
        assert list(built.cells.items()) == list(keyed.cells.items())
        assert list(built.faces.items()) == list(keyed.faces.items())
        # rows filled from the keyed table, and faces_of on both
        assert keyed.rows == built.rows == _rows_by_keys(keyed)
        assert all(keyed.faces_of(c) == built.faces_of(c) for c in keyed.cells)
    assert X.rows == _rows_by_keys(X)


@settings(deadline=None)
@given(cubical_sets(), st.sampled_from(SOURCES), st.data())
def test_renaming_agrees_with_the_map_route_across_rows_and_tables(X, Y, data):
    # a row-built tensor against a keyed relabelling of it, both ways, with
    # two images swapped, with one face of the table edited, and with one
    # face dropped: the keyed table is refused, and a row without it is no
    # isomorphism
    T = tensor(X, Y)
    order = data.draw(st.permutations(sorted(T.cells)))
    name = {c: f"y{n}" for n, c in enumerate(order)}
    back = {y: c for c, y in name.items()}
    faces = {(name[c], *i): CellRef(r.degens, name[r.base]) for (c, *i), r in T.faces.items()}
    D = CubicalSet({name[c]: T.cells[c] for c in order}, faces)
    assert is_isomorphism(T, D, name) and is_isomorphism_by_map(T, D, name)
    assert is_isomorphism(D, T, back) and is_isomorphism_by_map(D, T, back)
    if len(order) > 1:
        a, b = data.draw(st.lists(st.sampled_from(order), min_size=2, max_size=2, unique=True))
        swapped = dict(name)
        swapped[a], swapped[b] = name[b], name[a]
        assert is_isomorphism(T, D, swapped) is is_isomorphism_by_map(T, D, swapped)
    if faces:
        key = data.draw(st.sampled_from(sorted(faces)))
        ref = data.draw(st.sampled_from(D.refs_of_dim(D.cells[key[0]] - 1)))
        edited = CubicalSet(D.cells, {**faces, key: ref})
        verdict = is_isomorphism(T, edited, name)
        assert verdict is is_isomorphism_by_map(T, edited, name)
        assert verdict is is_isomorphism(edited, T, back) is (ref == faces[key])
        with pytest.raises(ValidationError) as refused:
            CubicalSet(D.cells, {k: r for k, r in faces.items() if k != key})
        assert str(refused.value) == f"missing face {key}"
        row, n = D.rows[key[0]], D.face_indices(D.cells[key[0]]).index(key[1:])
        dropped = CubicalSet(D.cells, rows={**D.rows, key[0]: row[:n] + row[n + 1 :]})
        assert is_isomorphism(T, dropped, name) is False
        assert is_isomorphism(dropped, T, back) is False


def test_import_builds_no_tables():
    # importing the package fills none of the per-process tables
    code = (
        "import sys, cubeworks\n"
        "m = sys.modules\n"
        "tri, pre = m['cubeworks.triangulate'], m['cubeworks.presented']\n"
        "cub, sim = m['cubeworks.cubical'], m['cubeworks.simplicial']\n"
        "tables = [tri.spanning_chains, tri.chain_table, tri.landing_table, tri._land,\n"
        "          pre._identity_positions, cub.CubicalSet.face_indices,\n"
        "          sim.SimplicialSet.face_indices]\n"
        "print([f.cache_info().currsize for f in tables])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split("\n")[0] == "[0, 0, 0, 0, 0, 0, 0]"
