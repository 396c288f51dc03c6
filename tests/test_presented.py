"""The core shared by cubical and simplicial sets: `face_of` and `act`
against the general action of `action_oracle`, and the one identity check,
the one degeneracy rule and the one map class, each against the per-kind
code they replaced, kept here as references."""

from collections import Counter
from itertools import combinations, product
from operator import le
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from cubeworks.cubes import compose, enumerate_hom, face
from cubeworks.cubical import (
    CubicalMap,
    CubicalSet,
    boundary,
    pushout,
    standard_cube,
)
from cubeworks import presented
from cubeworks.errors import ValidationError
from cubeworks.james import james
from cubeworks.presented import (
    CellRef,
    PresentedMap,
    degenerate,
    find_isomorphism,
    is_isomorphism,
    nd,
)
from cubeworks.simplicial import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    circle,
    standard_simplex,
    wedge_of_intervals,
)
from cubeworks.triangulate import triangulate
from action_oracle import (
    collapse_of_surj,
    cubical_act,
    delta_face,
    mono_compose,
    projection_dropping,
    simplicial_act,
    surj_from_collapse,
)
from action_oracle import act as oracle_act, face_of as oracle_face_of
from iso_oracle import is_isomorphism_by_map
from random_sets import cubical_sets


# -- references: the per-kind bodies before the shared core -----------------------


def reference_cubical_identities(X):
    """The cubical identities with every double face computed by the
    general action of the oracle."""
    for cell, d in X.cells.items():
        for k in range(1, d + 1):
            for j in range(1, k):
                for eps in (0, 1):
                    for eta in (0, 1):
                        left = cubical_act(X, X.faces[(cell, k, eps)], face(d - 1, j, eta))
                        right = cubical_act(X, X.faces[(cell, j, eta)], face(d - 1, k - 1, eps))
                        if left != right:
                            return False
    return True


def reference_simplicial_identities(X):
    """d_i d_j = d_{j-1} d_i for i < j, with every double face computed by the
    general action of the oracle."""
    for cell, d in X.cells.items():
        if d >= 2:
            for j in range(d + 1):
                for i in range(j):
                    left = simplicial_act(X, X.faces[(cell, j)], delta_face(d - 1, i))
                    right = simplicial_act(X, X.faces[(cell, i)], delta_face(d - 1, j - 1))
                    if left != right:
                        return False
    return True


def reference_simplicial_apply(m, ref):
    """A simplicial map applied to an element by composing the two collapse
    surjections inline."""
    image = m.assignment[ref.base]
    if not image.degens:
        return SimplexRef(ref.degens, image.base)
    if not ref.degens:
        return image
    n = m.source.dim_of(ref)
    base_dim = m.source.cells[ref.base]
    s = surj_from_collapse(ref.degens, n)
    s_img = surj_from_collapse(image.degens, base_dim)
    total = mono_compose(s_img, s)
    return SimplexRef(collapse_of_surj(total), image.base)


def reference_cubical_degenerate(X, ref, extra):
    """`CubicalSet.degenerate` before the shared rule: compose the two
    projections."""
    if not extra:
        return ref
    n = X.dim_of(ref) + len(extra)
    p_extra = projection_dropping(n, extra)
    p_old = projection_dropping(n - len(extra), ref.degens)
    return CellRef(compose(p_old, p_extra).dropped_vars, ref.base)


def reference_compose_drops(outer_dim, inner_degens, resolved):
    """`cubical._compose_drops` before the shared rule: sigma_{inner} applied
    to an already-resolved element, in ambient outer_dim."""
    p1 = projection_dropping(outer_dim, inner_degens)
    p2 = projection_dropping(outer_dim - len(inner_degens), resolved.degens)
    return CellRef(compose(p2, p1).dropped_vars, resolved.base)


def reference_simplicial_degenerate(X, ref, extra):
    """`SimplicialSet.degenerate` before the shared rule: compose the two
    collapse surjections."""
    if not extra:
        return ref
    n = X.dim_of(ref) + len(extra)
    s = surj_from_collapse(ref.degens, n - len(extra))
    total = mono_compose(s, surj_from_collapse(extra, n))
    return SimplexRef(collapse_of_surj(total), ref.base)


def reference_identities(X):
    if isinstance(X, CubicalSet):
        return reference_cubical_identities(X)
    return reference_simplicial_identities(X)


def reference_first_failure(X):
    """The message of the identity check as it read every face by key, one
    `face_of` per side: cells in table order, then b, then a with
    a[0] < b[0].  None when every identity holds."""
    for cell, d in X.cells.items():
        if d < 2:
            continue
        for b in X.face_indices(d):
            for a in X.face_indices(d):
                if a[0] < b[0]:
                    left = X.face_of(X.faces[(cell, *b)], *a)
                    right = X.face_of(X.faces[(cell, *a)], b[0] - 1, *b[1:])
                    if left != right:
                        return f"face identity fails at {cell}, {a},{b}"
    return None


def validates(X):
    try:
        X.validate()
    except ValidationError:
        return False
    return True


def refusal(X):
    """The message `validate` refuses X with, or None."""
    try:
        X.validate()
    except ValidationError as exc:
        return str(exc)
    return None


# -- fixtures ---------------------------------------------------------------------


def pinched_triangle(t0=SimplexRef((0,), "u")):
    """A loop e at u and a triangle t whose 0-th face is degenerate, plus a
    separate vertex v (the set of the James tests)."""
    return SimplicialSet(
        {"v": 0, "u": 0, "e": 1, "t": 2},
        {
            ("e", 0): nd("u"),
            ("e", 1): nd("u"),
            ("t", 0): t0,
            ("t", 1): nd("e"),
            ("t", 2): nd("e"),
        },
        name="pinched",
    )


def collapsed_square():
    """The square with its edge 0* collapsed to a point: the top cell has a
    degenerate face."""
    I, sq, P = standard_cube(1), standard_cube(2), standard_cube(0)
    edge = CubicalMap(I, sq, {"0": nd("00"), "1": nd("01"), "*": nd("0*")})
    collapse = CubicalMap(I, P, {"0": nd("pt"), "1": nd("pt"), "*": CellRef((1,), "pt")})
    Q, _, _ = pushout(edge, collapse)
    return Q


def swapped(X, cell, a, b):
    faces = dict(X.faces)
    faces[(cell, *a)], faces[(cell, *b)] = faces[(cell, *b)], faces[(cell, *a)]
    return type(X)(X.cells, faces, name=X.name)


SETS = {
    "cube3": lambda: standard_cube(3),
    "boundary3": lambda: boundary(3)[0],
    "collapsed_square": collapsed_square,
    "simplex3": lambda: standard_simplex(3),
    "circle": circle,
    "pinched": pinched_triangle,
    "james_wedge3": lambda: james(wedge_of_intervals(2), "w", 3),
    "james_pinched3": lambda: james(pinched_triangle(), "u", 3),
}


# -- face_of ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["cube3", "boundary3", "simplex3", "james_wedge3", "james_pinched3"])
def test_face_of_matches_action_on_every_element(name):
    X = SETS[name]()
    degenerate = 0
    for d in range(1, X.dim_bound + 2):
        for ref in X.refs_of_dim(d):
            degenerate += bool(ref.degens)
            for i in X.face_indices(d):
                assert X.face_of(ref, *i) == oracle_face_of(X, ref, *i)
    assert degenerate > 0


def monotone_maps(p: int, m: int) -> list:
    """Every monotone map [p] -> [m], as a value tuple."""
    return [f for f in product(range(m + 1), repeat=p + 1) if all(map(le, f, f[1:]))]


# every morphism of each site from a dimension up to 3 into dimension m
MAPS_INTO = {
    CubicalSet: {m: [f for p in range(4) for f in enumerate_hom(p, m)] for m in range(4)},
    SimplicialSet: {m: [f for p in range(4) for f in monotone_maps(p, m)] for m in range(4)},
}


@settings(max_examples=40, deadline=None)
@given(cubical_sets(), st.data())
def test_face_of_and_act_agree_with_the_general_action(X, data):
    # on a random cubical set and on its triangulation: up to four drawn
    # elements of each dimension up to 3, each with every face and under
    # every map of the site into its dimension
    reached = 0
    for Z in (X, triangulate(X)):
        for m, maps in MAPS_INTO[type(Z)].items():
            elements = st.lists(st.sampled_from(Z.refs_of_dim(m)), min_size=1, max_size=4)
            for ref in data.draw(elements):
                reached += bool(ref.degens)
                for i in Z.face_indices(m):
                    assert Z.face_of(ref, *i) == oracle_face_of(Z, ref, *i)
                for f in maps:
                    assert Z.act(ref, f) == oracle_act(Z, ref, f)
    event("degenerate elements", payload=reached)


@pytest.mark.parametrize(
    "make, ref, index",
    [
        (lambda: standard_cube(2), nd("**"), (0, 0)),
        (lambda: standard_cube(2), nd("**"), (3, 1)),
        (lambda: standard_cube(2), nd("**"), (1, 2)),
        (lambda: standard_cube(2), nd("**"), (1,)),
        (lambda: standard_cube(0), nd("pt"), (1, 0)),
        (lambda: standard_cube(1), CellRef((2,), "*"), (0, 0)),
        (lambda: standard_cube(1), CellRef((2,), "*"), (0, 1)),
        (lambda: standard_cube(1), CellRef((2,), "*"), (1, -1)),
        (lambda: standard_cube(1), CellRef((2,), "*"), (3, 0)),
        (lambda: standard_simplex(2), nd("0.1.2"), (-1,)),
        (lambda: standard_simplex(2), nd("0.1.2"), (3,)),
        (lambda: standard_simplex(2), nd("0.1.2"), (0, 0)),
        (lambda: standard_simplex(0), nd("0"), (0,)),
        (lambda: standard_simplex(1), SimplexRef((1,), "0.1"), (-1,)),
        (lambda: standard_simplex(1), SimplexRef((1,), "0.1"), (3,)),
        (lambda: standard_simplex(1), SimplexRef((1,), "0.1"), ()),
    ],
    ids=[
        "cube-k-zero",
        "cube-k-above",
        "cube-bad-side",
        "cube-short-index",
        "cube-vertex",
        "degenerate-cube-k-zero",
        "degenerate-cube-k-zero-side-1",
        "degenerate-cube-negative-side",
        "degenerate-cube-k-above",
        "simplex-negative",
        "simplex-above",
        "simplex-long-index",
        "simplex-vertex",
        "degenerate-simplex-negative",
        "degenerate-simplex-above",
        "degenerate-simplex-empty-index",
    ],
)
def test_face_of_refuses_an_index_outside_the_dimension(make, ref, index):
    # an arithmetic position would read some face of the row silently: k = 0
    # sits at position -2 of a cube's row, j = -1 at the last of a simplex's
    X = make()
    with pytest.raises(ValidationError, match="is no face index of dimension"):
        X.face_of(ref, *index)


@pytest.mark.parametrize(
    "make, ref, f",
    [
        (lambda: standard_simplex(1), nd("0.1"), (1, 0)),
        (lambda: standard_simplex(2), nd("0.1.2"), (0, 2, 1)),
        (lambda: standard_simplex(1), nd("0.1"), (-1,)),
    ],
    ids=["decreasing", "not-monotone", "negative"],
)
def test_simplicial_act_refuses_a_map_that_is_not_monotone(make, ref, f):
    # (1, 0) once returned <0.1> itself, and (-1,) a face
    with pytest.raises(ValidationError, match=r"is no monotone map into \[\d\]$"):
        make().act(ref, f)


# -- the identity check -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SETS))
def test_identity_check_passes_where_the_reference_does(name):
    X = SETS[name]()
    assert reference_identities(X)
    assert X.validate() is True


def test_square_with_two_faces_swapped_is_refused():
    sq = standard_cube(2)
    broken = swapped(sq, "**", (1, 0), (1, 1))
    assert not reference_cubical_identities(broken)
    with pytest.raises(ValidationError, match=r"face identity fails at \*\*"):
        broken.validate()


def test_triangle_whose_faces_disagree_at_a_vertex_is_refused():
    # the edge 1.2 now runs from 0 to 2, so the faces of 0.1.2 meet at 0
    # where they should meet at 1
    D = standard_simplex(2)
    broken = SimplicialSet(D.cells, {**D.faces, ("1.2", 1): nd("0")})
    assert not reference_simplicial_identities(broken)
    with pytest.raises(ValidationError, match="face identity fails at 0.1.2"):
        broken.validate()


def test_identity_through_a_degenerate_face_is_checked():
    # the degenerate 0-th face of t now sits at v instead of u; only the
    # faces of a degenerate element see it
    broken = pinched_triangle(t0=SimplexRef((0,), "v"))
    assert not reference_simplicial_identities(broken)
    with pytest.raises(ValidationError, match="face identity fails at t"):
        broken.validate()
    Q = collapsed_square()
    top = next(c for c, d in Q.cells.items() if d == 2)
    assert Q.faces[(top, 1, 0)].degens
    broken = swapped(Q, top, (1, 0), (2, 1))
    assert not reference_cubical_identities(broken)
    with pytest.raises(ValidationError, match="face identity fails"):
        broken.validate()


@pytest.mark.parametrize(
    "make, key, ref",
    [
        (lambda: standard_cube(2), ("**", 1, 0), CellRef((8,), "00")),
        (lambda: standard_cube(2), ("**", 1, 0), CellRef((0,), "00")),
        (lambda: standard_cube(3), ("***", 1, 0), CellRef((2, 1), "000")),
        (lambda: standard_cube(3), ("***", 1, 0), CellRef((1, 1), "000")),
        (lambda: standard_simplex(2), ("0.1.2", 0), SimplexRef((1,), "1")),
    ],
    ids=["above-the-face", "below-index-base", "decreasing", "repeated", "simplicial-above"],
)
def test_check_shape_refuses_bad_degeneracy_words(make, key, ref):
    X = make()
    broken = type(X)(X.cells, {**X.faces, key: ref})
    with pytest.raises(ValidationError, match="bad degeneracy word"):
        broken.check_shape()


def per_face_shape(X):
    """`check_shape` as one loop over every face in cell order, the route it
    takes after its check per distinct face finds a fault: the outcome as
    (exception type, message), or None when the shape holds."""
    base, cells, rows = X.index_base, X.cells, X.rows
    try:
        if rows.keys() - cells.keys():
            raise ValidationError(f"face data on unknown cell {min(rows.keys() - cells.keys())}")
        if cells.keys() - rows.keys():
            raise ValidationError(f"no face row for {min(cells.keys() - rows.keys())}")
        for cell, d in cells.items():
            indices, row = X.face_indices(d), rows[cell]
            if len(row) != len(indices):
                raise ValidationError(f"{cell} has {len(row)} faces for {len(indices)} indices")
            for i, (degens, b) in zip(indices, row):
                e = cells.get(b)
                if e is None:
                    raise ValidationError(f"face of {cell} points at unknown {b}")
                if e + len(degens) != d - 1:
                    raise ValidationError(f"face of {cell} has wrong dimension")
                if degens and not (
                    base <= degens[0]
                    and degens[-1] < d - 1 + base
                    and all(a < b for a, b in zip(degens, degens[1:]))
                ):
                    raise ValidationError(
                        f"face {(cell, *i)} has a bad degeneracy word {list(degens)}"
                    )
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _outcome(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


_FAULTS = ["short", "long", "unknown-cell", "unknown-base", "other-base", "degens", "unhashable"]


@pytest.mark.parametrize("fault", _FAULTS)
@settings(deadline=None)
@given(X=cubical_sets(), simplicial=st.booleans(), data=st.data())
def test_check_shape_agrees_with_the_per_face_loop(fault, X, simplicial, data):
    # one fault injected into a random set or its triangulation: the check
    # per distinct face refuses exactly when the per-face loop finds an
    # offender, with the same message, and otherwise both pass
    if simplicial:
        X = triangulate(X)
    rows = dict(X.rows)
    faced = sorted(c for c, row in rows.items() if row)
    cell = data.draw(st.sampled_from(faced)) if faced else None
    n = data.draw(st.integers(0, len(rows[cell]) - 1)) if cell else 0
    anywhere = data.draw(st.sampled_from(sorted(X.cells)))
    ref = rows[cell][n] if cell else None

    def put(new):
        rows[cell] = (*rows[cell][:n], new, *rows[cell][n + 1 :])

    if fault == "short" and cell:
        rows[cell] = rows[cell][:-1]
    elif fault == "long":
        rows[anywhere] = (*rows[anywhere], ref or nd(anywhere))
    elif fault == "unknown-cell":
        rows["zz"] = ()
    elif fault == "unknown-base" and cell:
        put(CellRef(ref.degens, "zz"))
    elif fault == "other-base" and cell:
        put(CellRef(ref.degens, anywhere))
    elif fault == "degens" and cell:
        # a vertex under a word of the face's dimension, with directions from
        # one below the first to one past the last
        d, base = X.cells[cell], X.index_base
        vertex = data.draw(st.sampled_from(sorted(c for c, e in X.cells.items() if e == 0)))
        word = data.draw(st.lists(st.integers(base - 1, d - 1 + base), min_size=d - 1, max_size=d - 1))
        put(CellRef(tuple(word), vertex))
    elif fault == "unhashable" and cell:
        # a list in place of the word (kept valid or not) or of the base
        if data.draw(st.booleans()):
            put(CellRef(data.draw(st.sampled_from([list(ref.degens), [-1]])), ref.base))
        else:
            put(CellRef(ref.degens, [ref.base]))
    broken = type(X)(X.cells, name=X.name, rows=rows)
    want = per_face_shape(broken)
    event(want[0].__name__ if want else "passes")
    assert _outcome(broken.check_shape) == want
    if fault in ("short", "unknown-base") and cell or fault in ("long", "unknown-cell"):
        assert want is not None and want[0] is ValidationError


def edited(X, faces=(), drop=None):
    """X with the given faces set and the face key ``drop`` removed."""
    table = {**X.faces, **dict(faces)}
    table.pop(drop, None)
    return type(X)(X.cells, table, name=X.name)


@pytest.mark.parametrize(
    "make, message, stage",
    [
        (
            lambda: edited(standard_cube(2), {("qq", 1, 0): nd("00")}),
            "face data on unknown cell qq",
            "build",
        ),
        (
            lambda: edited(standard_cube(2), {("**", 1, 0): nd("zz")}),
            "face of ** points at unknown zz",
            "validate",
        ),
        (
            lambda: edited(standard_cube(2), {("**", 3, 0): nd("0*")}),
            "bad face key ('**', 3, 0)",
            "build",
        ),
        (
            lambda: edited(standard_simplex(2), {("0.1.2", 3): nd("0.1")}),
            "bad face key ('0.1.2', 3)",
            "build",
        ),
        (
            lambda: edited(standard_cube(2), drop=("**", 2, 1)),
            "missing face ('**', 2, 1)",
            "build",
        ),
        (
            lambda: CubicalSet.fill_rows(
                standard_cube(1).cells, [*standard_cube(1).faces.items(), (("*", 1, 0), nd("1"))]
            ),
            "face ('*', 1, 0) given twice",
            "build",
        ),
        (
            lambda: CubicalSet({"0": 0, "*": 1}, rows={"0": (), "*": (nd("0"),), "q": ()}),
            "face data on unknown cell q",
            "validate",
        ),
        (
            lambda: CubicalSet({"0": 0, "*": 1}, rows={"0": (), "*": (nd("0"),)}),
            "* has 1 faces for 2 indices",
            "validate",
        ),
        (
            lambda: CubicalSet({"0": 0, "*": 1}, rows={"*": (nd("0"), nd("0"))}),
            "no face row for 0",
            "validate",
        ),
        (
            lambda: edited(standard_simplex(2), drop=("0.1.2", 1)),
            "missing face ('0.1.2', 1)",
            "build",
        ),
        (
            lambda: edited(standard_cube(2), {("**", 1, 0): nd("00")}),
            "face of ** has wrong dimension",
            "validate",
        ),
        (
            lambda: edited(standard_cube(2), {("**", 1, 0): CellRef((1, 2), "00")}),
            "face of ** has wrong dimension",
            "validate",
        ),
        (
            lambda: edited(standard_cube(3), {("***", 1, 0): CellRef((2, 1), "000")}),
            "face ('***', 1, 0) has a bad degeneracy word [2, 1]",
            "validate",
        ),
        (
            lambda: edited(standard_cube(3), {("***", 2, 1): nd("*0*")}),
            "face identity fails at ***, (1, 0),(2, 1)",
            "validate",
        ),
        (
            lambda: swapped(standard_cube(3), "***", (2, 0), (3, 1)),
            "face identity fails at ***, (1, 0),(2, 0)",
            "validate",
        ),
        (
            lambda: pinched_triangle(t0=SimplexRef((0,), "v")),
            "face identity fails at t, (0,),(1,)",
            "validate",
        ),
        (
            lambda: swapped(collapsed_square(), "X:**", (1, 0), (2, 1)),
            "face identity fails at X:**, (1, 0),(2, 1)",
            "validate",
        ),
    ],
    ids=[
        "unknown-cell",
        "unknown-base",
        "key-outside-the-face-indices",
        "simplicial-key-outside",
        "missing-face",
        "repeated-key",
        "row-on-unknown-cell",
        "short-row",
        "missing-row",
        "simplicial-missing-face",
        "wrong-dimension",
        "degenerate-wrong-dimension",
        "bad-degeneracy-word",
        "identity-through-a-plain-face",
        "first-failing-pair-after-a-swap",
        "identity-through-a-degenerate-face",
        "degenerate-face-swapped",
    ],
)
def test_refusals_name_the_first_failure(make, message, stage):
    # keyed face data is refused as it fills the rows, rows by `validate`
    if stage == "build":
        with pytest.raises(ValidationError) as refused:
            make()
        assert str(refused.value) == message
    else:
        assert refusal(make()) == message


@pytest.mark.parametrize("kind", [CubicalSet, SimplicialSet])
def test_face_indices_of_a_face_come_first(kind):
    # the identity check reads a face index at one position in every dimension
    for d in range(1, 7):
        below = kind.face_indices(d - 1)
        assert kind.face_indices(d)[: len(below)] == below


@pytest.mark.parametrize("name", ["cube3", "simplex3", "collapsed_square"])
def test_identity_check_agrees_with_reference_on_every_swap(name):
    X = SETS[name]()
    refused = 0
    for cell, d in X.cells.items():
        for a, b in combinations(X.face_indices(d), 2):
            broken = swapped(X, cell, a, b)
            assert validates(broken) == reference_identities(broken)
            assert refusal(broken) == reference_first_failure(broken)
            refused += not validates(broken)
    assert refused > 0


# -- elements as tuples -------------------------------------------------------------


def test_cell_ref_is_the_plain_tuple_of_its_fields():
    refs = [CellRef((2,), "a"), CellRef((), "b"), CellRef((1, 3), "b"), CellRef((), "a")]
    for ref in refs:
        assert hash(ref) == hash((ref.degens, ref.base))
        assert ref == (ref.degens, ref.base)
    # ordered by (degens, base), degeneracy word first
    assert sorted(refs) == [
        CellRef((), "a"),
        CellRef((), "b"),
        CellRef((1, 3), "b"),
        CellRef((2,), "a"),
    ]
    assert repr(CellRef((), "b")) == "<b>"
    assert repr(CellRef((1, 3), "b")) == "<s[1, 3].b>"
    assert str(SimplexRef((0,), "v")) == "<s[0].v>"
    for field in ("degens", "base"):
        with pytest.raises(AttributeError):
            setattr(refs[0], field, ())


# -- one map class ------------------------------------------------------------------


def test_both_kinds_share_one_map_class():
    assert CubicalMap is PresentedMap
    assert SimplicialMap is PresentedMap


@pytest.mark.parametrize("make", [lambda: standard_simplex(2), circle, pinched_triangle])
def test_simplicial_degenerate_matches_reference_apply(make):
    X = make()
    checked = 0
    for e in range(4):
        for image in X.refs_of_dim(e):
            m = SimplicialMap(SimplicialSet({"x": e}, rows={"x": ()}), X, {"x": image})
            for ref in (r for n in range(e, 5) for r in m.source.refs_of_dim(n)):
                expected = reference_simplicial_apply(m, ref)
                assert m.apply(ref) == expected
                assert X.degenerate(image, ref.degens) == expected
                checked += bool(image.degens and ref.degens)
    assert checked > 0


@pytest.mark.parametrize("kind", ["cube3", "simplex3"])
def test_one_degeneracy_rule_matches_the_per_kind_references(kind):
    X = SETS[kind]()
    base = X.index_base
    checked = 0
    for e in range(6):
        for ref in X.refs_of_dim(e):
            for n in range(e, 6):
                for extra in combinations(range(base, n + base), n - e):
                    got = X.degenerate(ref, extra)
                    assert got == degenerate(ref, extra, n, base)
                    if base:
                        assert got == reference_cubical_degenerate(X, ref, extra)
                        assert got == reference_compose_drops(n, extra, ref)
                    else:
                        assert got == reference_simplicial_degenerate(X, ref, extra)
                    checked += 1
    assert checked > 1000


def squares_on_a_loop(degenerate_first):
    """A vertex v, a loop e at v and two squares whose faces are the
    degenerate edge at v, but for the first square's first two faces,
    which are e unless ``degenerate_first``."""
    v, e = CellRef((1,), "v"), nd("e")
    top = (v, v) if degenerate_first else (e, e)
    return CubicalSet(
        {"v": 0, "e": 1, "a": 2, "b": 2},
        rows={"v": (), "e": (nd("v"), nd("v")), "a": (*top, v, v), "b": (v, v, v, v)},
    )


def test_find_isomorphism_exits_early():
    # another kind or other cell counts: refused before any colouring
    with mock.patch.object(presented, "_wl_colors", side_effect=AssertionError):
        assert find_isomorphism(standard_cube(0), standard_simplex(0)) is None
        assert find_isomorphism(standard_cube(1), standard_cube(2)) is None
    # equal cell counts, but a square whose faces no square of the other has
    X, Y = squares_on_a_loop(False), squares_on_a_loop(True)
    assert X.validate() and Y.validate()
    assert X.cell_counts() == Y.cell_counts()
    colors = [Counter(presented._wl_colors(Z, Z.rows).values()) for Z in (X, Y)]
    assert colors[0] != colors[1]
    assert find_isomorphism(X, Y) is None
    assert find_isomorphism(Y, Y) is not None


def test_is_isomorphism_on_simplicial_sets():
    D = standard_simplex(2)
    relabel = {c: f"x{c}" for c in D.cells}
    R = SimplicialSet(
        {relabel[c]: d for c, d in D.cells.items()},
        {(relabel[c], *i): nd(relabel[r.base]) for (c, *i), r in D.faces.items()},
    )
    assert is_isomorphism(D, R, relabel)
    assert not is_isomorphism(D, R, dict(relabel, **{"0": "x1", "1": "x0"}))
    assert not is_isomorphism(standard_simplex(0), standard_cube(0), {"0": "pt"})


def test_is_isomorphism_answers_when_a_face_is_missing():
    I = standard_cube(1)
    faces = dict(I.faces)
    del faces[("*", 1, 0)]
    with pytest.raises(ValidationError) as refused:
        CubicalSet(I.cells, faces)
    assert str(refused.value) == "missing face ('*', 1, 0)"
    broken = CubicalSet(I.cells, rows={**I.rows, "*": I.rows["*"][1:]})
    identity = {c: c for c in I.cells}
    assert is_isomorphism(broken, I, identity) is False
    assert is_isomorphism(I, broken, identity) is False
    assert is_isomorphism_by_map(broken, I, identity) is False
    assert is_isomorphism_by_map(I, broken, identity) is False
    rowless = CubicalSet(I.cells, rows={"0": (), "1": ()})
    assert is_isomorphism(rowless, I, identity) is False
    assert is_isomorphism(I, rowless, identity) is False
    with pytest.raises(KeyError):
        is_isomorphism_by_map(rowless, I, identity)


def test_is_isomorphism_checks_dimensions():
    # a 2-cell and a 1-cell with equal two-face rows: the rows rename onto
    # each other, so only the dimension check tells the cells apart
    rows = {"v": (), "w": (), "a": (nd("v"), nd("w"))}
    X = CubicalSet({"v": 0, "w": 0, "a": 2}, rows=rows)
    Y = CubicalSet({"v": 0, "w": 0, "a": 1}, rows=rows)
    identity = {c: c for c in rows}
    assert is_isomorphism(Y, Y, identity)
    assert is_isomorphism(X, Y, identity) is False
    assert is_isomorphism(Y, X, identity) is False


def test_map_validate_refuses_a_short_row():
    # zipped with the face indices, a short row would end the face check
    # early and pass the map
    I = standard_cube(1)
    identity = {c: nd(c) for c in I.cells}
    short = CubicalSet(I.cells, rows={**I.rows, "*": (nd("0"),)})
    with pytest.raises(ValidationError, match=r"^\* has 1 faces for 2 indices$"):
        PresentedMap(short, I, identity).validate()
    with pytest.raises(ValidationError, match=r"^image of \* has 1 faces, not 2$"):
        PresentedMap(I, short, identity).validate()


def test_map_validate_refuses_a_degenerate_image_on_a_short_row():
    # the faces of a degenerate image are read off its base's row, so a short
    # one used to raise IndexError from `face_of`
    sq, I = standard_cube(2), standard_cube(1)
    short = CubicalSet(I.cells, rows={**I.rows, "*": (nd("0"),)})
    assignment = {c: nd("0") if d == 0 else CellRef((1,), "0") for c, d in sq.cells.items()}
    assignment["**"] = CellRef((1,), "*")
    with pytest.raises(ValidationError, match=r"^image of \*\* has 1 faces, not 2$"):
        PresentedMap(sq, short, assignment).validate()


@settings(deadline=None)
@given(cubical_sets(), st.data())
def test_renaming_agrees_with_the_map_route(X, data):
    # the renaming check against the map route on a random relabelling, on
    # that relabelling with two images of one dimension swapped, and with
    # one face of the target edited
    order = data.draw(st.permutations(sorted(X.cells)))
    name = {c: f"y{n}" for n, c in enumerate(order)}
    Y = CubicalSet(
        {name[c]: X.cells[c] for c in order},
        {(name[c], *i): CellRef(r.degens, name[r.base]) for (c, *i), r in X.faces.items()},
    )
    assert is_isomorphism(X, Y, name) and is_isomorphism_by_map(X, Y, name)
    shared = sorted(d for d, n in Counter(X.cells.values()).items() if n > 1)
    if shared:
        cells = X.by_dim(data.draw(st.sampled_from(shared)))
        a, b = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
        swapped = dict(name)
        swapped[a], swapped[b] = name[b], name[a]
        assert is_isomorphism(X, Y, swapped) is is_isomorphism_by_map(X, Y, swapped)
    if Y.faces:
        key = data.draw(st.sampled_from(sorted(Y.faces)))
        ref = data.draw(st.sampled_from(Y.refs_of_dim(Y.cells[key[0]] - 1)))
        faces = dict(Y.faces)
        faces[key] = ref
        edited = CubicalSet(Y.cells, faces)
        verdict = is_isomorphism(X, edited, name)
        assert verdict is is_isomorphism_by_map(X, edited, name)
        assert verdict is (ref == Y.faces[key])
