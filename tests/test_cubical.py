import hashlib
import random
import time
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import assume, event, given, settings

from cubeworks.cubes import enumerate_hom, face
from cubeworks.cubical import (
    CellRef,
    CubicalMap,
    CubicalSet,
    UnionFind,
    _pair_id,
    boundary,
    coproduct,
    empty_set,
    empty_to_point,
    endpoint_inclusion,
    enumerate_maps,
    find_isomorphism,
    identity_map,
    interval_inclusion,
    is_isomorphism,
    iterated_pushout_product,
    kan_check,
    nd,
    open_box,
    pushout,
    pushout_product,
    standard_cube,
    subobject,
    tensor,
    tensor_maps,
)
from cubeworks.errors import GuardError, ValidationError
from action_oracle import cubical_act
from map_oracle import extend_map, reference_extension, reference_kan_check, reference_maps
from random_sets import SOURCES, cubical_sets, loose_spans, spans
from tensor_oracle import tensor_by_pairs
from test_homology import projective_plane


def loop_set():
    """The interval with its endpoints glued: 1 vertex, 1 edge."""
    I = standard_cube(1)
    P = standard_cube(0)
    two, inl, inr = coproduct(P, P)
    to_interval = CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})
    to_point = CubicalMap(two, P, {"l:pt": nd("pt"), "r:pt": nd("pt")})
    Q, _, _ = pushout(to_interval, to_point)
    return Q


def test_standard_cube_counts():
    assert standard_cube(0).cell_counts() == {0: 1}
    assert standard_cube(2).cell_counts() == {0: 4, 1: 4, 2: 1}
    assert standard_cube(3).cell_counts() == {0: 8, 1: 12, 2: 6, 3: 1}
    for n in range(5):
        X = standard_cube(n)
        for k in range(n + 1):
            assert len(X.by_dim(k)) == comb(n, k) * 2 ** (n - k)


def test_standard_cube_guard():
    with pytest.raises(GuardError):
        standard_cube(9)


def test_representables_validate():
    for n in range(5):
        assert standard_cube(n).validate()


def test_boundary_counts():
    B0, incl0 = boundary(0)
    assert B0.cells == {}
    assert incl0.target.cell_counts() == {0: 1}
    B1, _ = boundary(1)
    assert B1.cell_counts() == {0: 2}
    B2, incl2 = boundary(2)
    assert B2.cell_counts() == {0: 4, 1: 4}
    incl2.validate()
    B2.validate()


def test_open_box_counts():
    box, incl = open_box(1, 1, 0)
    assert box.cell_counts() == {0: 1}
    # the epsilon=0 endpoint is the one included
    assert "0" in box.cells
    box2, _ = open_box(2, 1, 0)
    assert box2.cell_counts() == {0: 4, 1: 3}
    for n in range(1, 5):
        bd_counts = boundary(n)[0].cell_counts()
        for k in range(1, n + 1):
            for eps in (0, 1):
                got = open_box(n, k, eps)[0].cell_counts()
                want = dict(bd_counts)
                want[n - 1] -= 1
                if want[n - 1] == 0:
                    del want[n - 1]
                assert got == want


def test_open_box_bad_index():
    with pytest.raises(ValidationError):
        open_box(2, 3, 0)
    with pytest.raises(ValidationError):
        open_box(2, 1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: standard_cube(-1),
        lambda: boundary(-1),
        lambda: open_box(-1, 1, 0),
    ],
)
def test_negative_dimension_refused(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("max_dim", [-1, -3])
def test_kan_check_negative_max_dim_refused(max_dim):
    with pytest.raises(ValidationError):
        kan_check(standard_cube(1), max_dim)


def test_coproduct():
    X = standard_cube(1)
    E = empty_set()
    Z, _, _ = coproduct(E, X)
    assert Z.cell_counts() == X.cell_counts()
    P = standard_cube(0)
    two, _, _ = coproduct(P, P)
    assert two.cell_counts() == boundary(1)[0].cell_counts()
    Y = standard_cube(2)
    W, _, _ = coproduct(X, Y)
    for d, c in W.cell_counts().items():
        assert c == X.cell_counts().get(d, 0) + Y.cell_counts().get(d, 0)


def test_pushout_identity_legs():
    X = standard_cube(2)
    P, lx, ly = pushout(identity_map(X), identity_map(X))
    assert P.cell_counts() == X.cell_counts()
    lx.validate()
    ly.validate()


def test_pushout_glues_loop():
    Q = loop_set()
    assert Q.cell_counts() == {0: 1, 1: 1}
    Q.validate()


def collapsed_square():
    """The square with the edge 0* collapsed to a point, with the leg from
    the square: its 2-cell has a degenerate face."""
    sq = standard_cube(2)
    I = standard_cube(1)
    P = standard_cube(0)
    edge_in_sq = CubicalMap(I, sq, {"0": nd("00"), "1": nd("01"), "*": nd("0*")})
    collapse = CubicalMap(I, P, {"0": nd("pt"), "1": nd("pt"), "*": CellRef((1,), "pt")})
    collapse.validate()
    Q, leg_sq, _ = pushout(edge_in_sq, collapse)
    return Q, leg_sq


def test_pushout_collapsing_an_edge_repoints_degenerately():
    # Push out the square along collapsing one of its edges to a point: the
    # edge cell must be re-pointed at a degeneracy, not kept as a 1-cell.
    Q, leg_sq = collapsed_square()
    Q.validate()
    assert Q.cell_counts() == {0: 3, 1: 3, 2: 1}
    assert leg_sq.assignment["0*"].degens != ()


def _composite(h, leg) -> tuple:
    """h after leg, as the images of the cells of leg's source in order."""
    return tuple(h.apply(leg.assignment[c]) for c in leg.source.cells)


def _images(h) -> tuple:
    return tuple(h.assignment[c] for c in h.source.cells)


PUSHOUT_TARGETS = [standard_cube(1), standard_cube(2), loop_set()]


@settings(deadline=None)
@given(st.data())
def test_pushout_universal_property(data):
    # the square commutes, and h -> (h after leg_x, h after leg_y) is a
    # bijection from the maps P -> Z onto the pairs of maps X -> Z, Y -> Z
    # that agree on A
    X = data.draw(cubical_sets())
    f, g = data.draw(spans(X))
    P, leg_x, leg_y = pushout(f, g)
    assert P.validate() and leg_x.validate() and leg_y.validate()
    assert _composite(leg_x, f) == _composite(leg_y, g)
    Z = data.draw(st.sampled_from(PUSHOUT_TARGETS))
    on_a = {}  # the maps Y -> Z by their composite with g
    for v in enumerate_maps(g.target, Z):
        on_a.setdefault(_composite(v, g), []).append(_images(v))
    pairs = {
        (_images(u), v) for u in enumerate_maps(X, Z) for v in on_a.get(_composite(u, f), ())
    }
    got = [(_composite(h, leg_x), _composite(h, leg_y)) for h in enumerate_maps(P, Z)]
    assert len(set(got)) == len(got)
    assert set(got) == pairs


def test_pushout_refusals():
    I, pt = standard_cube(1), standard_cube(0)
    with pytest.raises(ValidationError, match=r"^pushout requires a shared source$"):
        pushout(identity_map(I), identity_map(pt))
    # I -> {p, q} sends both vertices to p but the edge to s1.q, which is no
    # map: the leg is validated and refused before anything is built (pushed
    # out against I -> point it would ask s1 of one vertex to equal s1 of
    # another)
    collapse = CubicalMap(I, pt, {"0": nd("pt"), "1": nd("pt"), "*": CellRef((1,), "pt")})
    pq = CubicalSet({"p": 0, "q": 0}, {})
    bogus = CubicalMap(I, pq, {"0": nd("p"), "1": nd("p"), "*": CellRef((1,), "q")})
    for f, g in ((collapse, bogus), (bogus, collapse)):
        with pytest.raises(ValidationError, match=r"^map does not commute with face \(1,0\) at "):
            pushout(f, g)


@settings(deadline=None)
@given(st.data())
def test_pushout_refuses_legs_that_are_not_maps(data):
    # a leg that keeps dimensions but does not commute with faces is refused
    # with the error of its own validation
    X = data.draw(cubical_sets())
    f, g = data.draw(loose_spans(X))
    try:
        g.validate()
    except ValidationError as exc:
        error = str(exc)
    else:
        assume(False)
    with pytest.raises(ValidationError) as refused:
        pushout(f, g)
    assert str(refused.value) == error


def test_iterated_pushout_product_source_is_pinned():
    # cells in order and faces of the source of i^(x)4, the boundary of the
    # 4-cube as a pushout of pushouts
    S = iterated_pushout_product([interval_inclusion()] * 4).source
    text = repr(list(S.cells.items())) + repr(list(S.faces.items()))
    assert S.cell_counts() == {0: 16, 1: 32, 2: 24, 3: 8}
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "79b3771755184dbc6bef01711651551e60f74af8ebb6913d5f396bbc945cd7c9"
    )


def test_union_find_long_chain_and_least_roots():
    # each union hangs the previous root under a new least one, so the chain
    # from n down to 0 is n links long before the first find walks it
    n = 20_000
    uf = UnionFind()
    for i in range(n - 1, -1, -1):
        uf.union(i, i + 1)
    assert uf.find(n) == 0
    assert all(uf.find(i) == 0 for i in range(n + 1))
    rng = random.Random(11)
    pairs = [(rng.randrange(60), rng.randrange(60)) for _ in range(40)]
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    classes = {x: {x} for x in range(60)}
    for a, b in pairs:  # the classes by brute force
        merged = classes[a] | classes[b]
        for x in merged:
            classes[x] = merged
    assert all(uf.find(x) == min(classes[x]) for x in range(60))


def test_tensor_of_cubes_is_cube():
    for p in range(3):
        for q in range(3):
            T = tensor(standard_cube(p), standard_cube(q))
            X = standard_cube(p + q)
            assert T.cell_counts() == X.cell_counts()
            assert find_isomorphism(T, X) is not None


def test_tensor_unit():
    X = boundary(2)[0]
    P = standard_cube(0)
    assert find_isomorphism(tensor(X, P), X) is not None
    assert find_isomorphism(tensor(P, X), X) is not None


def test_tensor_of_point_pairs():
    two = boundary(1)[0]
    T = tensor(two, two)
    assert T.cell_counts() == {0: 4}


def test_tensor_validates():
    T = tensor(boundary(2)[0], standard_cube(1))
    T.validate()
    # the tensor is not symmetric: the (1, eps) faces of the left side use
    # 4 edges twice each, those of the right side 8 edges once each
    assert find_isomorphism(T, tensor(standard_cube(1), boundary(2)[0])) is None


def test_tensor_shifts_degenerate_faces_into_their_block():
    Q, _ = collapsed_square()
    I = standard_cube(1)
    for T in (tensor(Q, I), tensor(I, Q), tensor(Q, Q)):
        T.validate()
    # the degenerate (1, 0) face of the square's cell is the (2, 0) face of
    # the interval times it, degenerate in direction 2
    assert tensor(I, Q).faces[("*|X:**", 2, 0)] == CellRef((2,), "*|X:00")
    assert tensor(Q, I).faces[("X:**|*", 1, 0)] == CellRef((1,), "X:00|*")


def test_tensor_refuses_colliding_ids():
    # (a, b|c) and (a|b, c) would both be called a|b|c
    X = CubicalSet({"a": 0, "a|b": 0}, {}, name="X")
    Y = CubicalSet({"b|c": 0, "c": 0}, {}, name="Y")
    with pytest.raises(ValidationError, match="collide"):
        tensor(X, Y)


@settings(max_examples=80, deadline=None)
@given(cubical_sets(), cubical_sets())
def test_tensor_by_columns_matches_the_pair_by_pair_oracle(X, Y):
    # 80 examples of five pairs each: X (x) Y, and X and Y tensored with RP2
    # on either side; cells, rows and their order, and the name
    rp2 = projective_plane()
    degenerate = 0
    for A, B in [(X, Y), (X, rp2), (rp2, X), (Y, rp2), (rp2, Y)]:
        T, oracle = tensor(A, B), tensor_by_pairs(A, B)
        assert list(T.cells.items()) == list(oracle.cells.items())
        assert list(T.rows.items()) == list(oracle.rows.items())
        assert T.name == oracle.name
        degenerate += any(r.degens for row in T.rows.values() for r in row)
    event("pairs with degenerate faces", payload=degenerate)


def test_tensor_keeps_apart_degenerate_faces_on_one_base():
    # a 3-cell whose faces are one edge degenerate in direction 2 and in
    # direction 1: each degeneracy word needs its own column over Y
    s1e, s2e, s12v = CellRef((1,), "e"), CellRef((2,), "e"), CellRef((1, 2), "v")
    rows = {"v": (), "e": (nd("v"), nd("v")), "t": (s2e, s2e, s12v, s12v, s1e, s1e)}
    X = CubicalSet({"v": 0, "e": 1, "t": 3}, name="X", rows=rows)
    X.validate()
    for Y in (standard_cube(1), X):
        T = tensor(X, Y)
        assert list(T.rows.items()) == list(tensor_by_pairs(X, Y).rows.items())
        T.validate()
    row = tensor(X, standard_cube(1)).rows["t|*"]
    assert (row[0], row[4]) == (CellRef((2,), "e|*"), CellRef((1,), "e|*"))


def relabelled(X, seed):
    """A copy of X with its cells renamed and listed in a shuffled order,
    with the renaming."""
    order = list(X.cells)
    random.Random(seed).shuffle(order)
    name = {c: f"c{n}" for n, c in enumerate(order)}
    cells = {name[c]: X.cells[c] for c in order}
    faces = {
        (name[c], *i): CellRef(ref.degens, name[ref.base])
        for (c, *i), ref in X.faces.items()
    }
    return CubicalSet(cells, faces, name=f"relabelled {X.name}"), name


def associator(X, Y, Z):
    return {
        _pair_id(_pair_id(x, y), z): _pair_id(x, _pair_id(y, z))
        for x in X.cells
        for y in Y.cells
        for z in Z.cells
    }


def test_tensor_associative_on_generators():
    # search finds the associator on a relabelled copy, with no help from
    # shared cell ids, and the associator composed with the renaming is a
    # witness
    gens = [standard_cube(1), boundary(2)[0], open_box(2, 1, 0)[0]]
    for X in gens:
        for Y in gens:
            for Z in gens:
                if X.dim_bound + Y.dim_bound + Z.dim_bound > 4:
                    continue
                L = tensor(tensor(X, Y), Z)
                R, name = relabelled(tensor(X, tensor(Y, Z)), seed=len(L.cells))
                found = find_isomorphism(L, R)
                assert found is not None
                assert is_isomorphism(L, R, found)
                witness = {c: name[b] for c, b in associator(X, Y, Z).items()}
                assert is_isomorphism(L, R, witness)


def test_wrong_associator_is_refused():
    X, Y, Z = boundary(2)[0], standard_cube(1), open_box(2, 1, 0)[0]
    L, R = tensor(tensor(X, Y), Z), tensor(X, tensor(Y, Z))
    assoc = associator(X, Y, Z)
    assert is_isomorphism(L, R, assoc)
    for d in range(4):
        a, b = [c for c, e in L.cells.items() if e == d][:2]
        assert is_isomorphism(L, R, dict(assoc, **{a: assoc[b], b: assoc[a]})) is False
    # two faces of one target cell swapped
    cell = next(c for c, e in R.cells.items() if e == 2)
    faces = dict(R.faces)
    faces[(cell, 1, 0)], faces[(cell, 1, 1)] = faces[(cell, 1, 1)], faces[(cell, 1, 0)]
    assert faces[(cell, 1, 0)] != faces[(cell, 1, 1)]
    assert is_isomorphism(L, CubicalSet(R.cells, faces), assoc) is False


def test_cube_addition_witness():
    I, sq, C = standard_cube(1), standard_cube(2), standard_cube(3)
    T = tensor(I, sq)
    add = {_pair_id(a, b): a + b for a in I.cells for b in sq.cells}
    assert is_isomorphism(T, C, add)
    # swapped images of the same dimension
    assert is_isomorphism(T, C, dict(add, **{"0|0*": "0*1", "0|*1": "00*"})) is False
    # one face of the target edited
    faces = dict(C.faces)
    faces[("0**", 1, 0)] = nd("01*")
    assert is_isomorphism(T, CubicalSet(C.cells, faces), add) is False
    # not a bijection onto the target cells
    assert is_isomorphism(T, C, dict(add, **{"0|00": "100"})) is False
    assert is_isomorphism(T, C, {c: b for c, b in add.items() if c != "*|**"}) is False
    assert is_isomorphism(tensor(standard_cube(0), standard_cube(0)), C, {"pt|pt": "pt"}) is False
    two = boundary(1)[0]
    assert is_isomorphism(two, two, {"0": "0", "1": "0"}) is False


def reference_commutes(m):
    """The map check through the general action of the oracle alone: every
    face of every image, degenerate or not, is computed by `cubical_act`."""
    for cell, d in m.source.cells.items():
        image = m.assignment[cell]
        if m.target.dim_of(image) != d:
            return False
        for k in range(1, d + 1):
            for eps in (0, 1):
                ref = m.source.faces[(cell, k, eps)]
                rhs = m.target.degenerate(m.assignment[ref.base], ref.degens)
                if cubical_act(m.target, image, face(d, k, eps)) != rhs:
                    return False
    return True


def assert_verdict(m, commutes):
    assert reference_commutes(m) is commutes
    if commutes:
        assert m.validate() is True
    else:
        with pytest.raises(ValidationError, match="does not commute"):
            m.validate()


def test_map_check_routes_agree_on_every_interval_in_square():
    I, sq = standard_cube(1), standard_cube(2)
    found = {tuple(sorted(m.assignment.items())) for m in enumerate_maps(I, sq)}
    assert len(found) == 4 + 4  # by Yoneda, the edges and degenerate vertices
    seen = 0
    for v0 in sq.refs_of_dim(0):
        for v1 in sq.refs_of_dim(0):
            for e in sq.refs_of_dim(1):
                m = CubicalMap(I, sq, {"0": v0, "1": v1, "*": e})
                commutes = tuple(sorted(m.assignment.items())) in found
                assert_verdict(m, commutes)
                seen += commutes
    assert seen == len(found)


def test_map_check_routes_agree_on_boundary_in_square():
    B, sq = boundary(2)[0], standard_cube(2)
    maps = enumerate_maps(B, sq)
    assert any(r.degens for m in maps for r in m.assignment.values())
    refused = 0
    for m in maps:
        assert_verdict(m, True)
        for cell, d in B.cells.items():
            for other in sq.refs_of_dim(d):
                changed = CubicalMap(B, sq, dict(m.assignment, **{cell: other}))
                commutes = reference_commutes(changed)
                assert_verdict(changed, commutes)
                refused += not commutes
    assert refused > 0


def test_map_check_routes_agree_on_degenerate_source_faces():
    Q, leg_sq = collapsed_square()
    assert any(r.degens for r in Q.faces.values())
    assert_verdict(identity_map(Q), True)
    assert_verdict(leg_sq, True)
    I = standard_cube(1)
    maps = enumerate_maps(Q, I)
    assert maps
    top = next(c for c, d in Q.cells.items() if d == 2)
    for m in maps:
        assert_verdict(m, True)
        for other in I.refs_of_dim(2):
            changed = CubicalMap(Q, I, dict(m.assignment, **{top: other}))
            assert_verdict(changed, reference_commutes(changed))


def test_wrong_degenerate_image_is_refused():
    I, sq = standard_cube(1), standard_cube(2)
    # the projection of the square onto its first coordinate, and the same
    # map with the degeneracy on the wrong coordinate
    proj = {"00": nd("0"), "01": nd("0"), "10": nd("1"), "11": nd("1"),
            "*0": nd("*"), "*1": nd("*"), "0*": CellRef((1,), "0"),
            "1*": CellRef((1,), "1"), "**": CellRef((2,), "*")}
    assert_verdict(CubicalMap(sq, I, proj), True)
    assert_verdict(CubicalMap(sq, I, dict(proj, **{"**": CellRef((1,), "*")})), False)
    assert_verdict(CubicalMap(I, I, {"0": nd("0"), "1": nd("1"), "*": CellRef((1,), "0")}), False)


def test_map_with_missing_or_unknown_image_is_invalid():
    I = standard_cube(1)
    with pytest.raises(ValidationError, match=r"no assignment for \*"):
        CubicalMap(I, I, {"0": nd("0"), "1": nd("1")}).validate()
    with pytest.raises(ValidationError, match=r"image of \* is unknown target cell zz"):
        CubicalMap(I, I, {"0": nd("0"), "1": nd("1"), "*": nd("zz")}).validate()


def test_map_with_an_image_for_an_unknown_cell_is_invalid():
    I = standard_cube(1)
    extra = {"0": nd("0"), "1": nd("1"), "*": nd("*"), "q": nd("0")}
    with pytest.raises(ValidationError, match=r"^assignment for unknown source cell q$"):
        CubicalMap(I, I, extra).validate()


def test_pushout_product_boundary_squares():
    i = interval_inclusion()
    pp = pushout_product(i, i)
    pp.validate()
    B2, _ = boundary(2)
    assert find_isomorphism(pp.source, B2) is not None
    assert pp.target.cell_counts() == standard_cube(2).cell_counts()


def test_pushout_product_unit():
    i = interval_inclusion()
    pp = pushout_product(empty_to_point(), i)
    # tensoring with the point is the identity up to iso
    assert find_isomorphism(pp.source, i.source) is not None
    assert find_isomorphism(pp.target, i.target) is not None


def test_pushout_product_open_box():
    i = interval_inclusion()
    pp = pushout_product(i, endpoint_inclusion(0))
    box, _ = open_box(2, 2, 0)
    assert find_isomorphism(pp.source, box) is not None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_iterated_pushout_product_is_boundary(n):
    i = interval_inclusion()
    pp = iterated_pushout_product([i] * n)
    B, _ = boundary(n)
    assert find_isomorphism(pp.source, B) is not None


def test_mixed_pushout_product_derives_open_face():
    # golden check: the box with j^eps in slot k is the boundary minus the
    # (k, 1-eps) face, derived from the pushout-product computation
    i = interval_inclusion()
    for n in (2, 3):
        for k in range(1, n + 1):
            for eps in (0, 1):
                factors = [i] * n
                factors[k - 1] = endpoint_inclusion(eps)
                pp = iterated_pushout_product(factors)
                box, _ = open_box(n, k, eps)
                assert find_isomorphism(pp.source, box) is not None
    # Bare open boxes with opposite faces removed are abstractly isomorphic,
    # so pin the convention through the map into the cube: the (k,eps)-face
    # must be hit by the pushout-product, the (k,1-eps) face must not be.
    for (k, eps) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        factors = [interval_inclusion(), interval_inclusion()]
        factors[k - 1] = endpoint_inclusion(eps)
        pp = iterated_pushout_product(factors)
        images = {ref.base for ref in pp.assignment.values() if not ref.degens}
        face_id = ["*", "*"]
        face_id[k - 1] = str(eps)
        opposite = ["*", "*"]
        opposite[k - 1] = str(1 - eps)
        assert "|".join(face_id) in images
        assert "|".join(opposite) not in images


def test_enumerate_maps_point_targets():
    X = boundary(2)[0]
    maps = enumerate_maps(standard_cube(0), X)
    assert len(maps) == len(X.by_dim(0))


def test_enumerate_maps_yoneda():
    for n in range(3):
        for m in range(3):
            maps = enumerate_maps(standard_cube(n), standard_cube(m), guard=10**8)
            assert len(maps) == len(enumerate_hom(n, m))


def test_enumerate_maps_two_points():
    maps = enumerate_maps(boundary(1)[0], standard_cube(1))
    assert len(maps) == 4


def test_enumerate_maps_guard():
    with pytest.raises(GuardError):
        enumerate_maps(standard_cube(3), standard_cube(3), guard=10)


def test_enumerate_maps_square_into_cube_under_default_guard():
    # by Yoneda the maps out of the square are the 2-elements of the 3-cube
    C3 = standard_cube(3)
    maps = enumerate_maps(standard_cube(2), C3)
    assert sorted(m.assignment["**"] for m in maps) == sorted(C3.refs_of_dim(2))
    assert len(maps) == 38
    for m in maps:
        m.validate()


def test_small_guard_trips_fast():
    # the guard counts the choices tried, so it trips before the search is
    # large, however large the whole search would be
    start = time.perf_counter()
    with pytest.raises(GuardError, match="more than 10 choices"):
        enumerate_maps(boundary(3)[0], standard_cube(4), guard=10)
    with pytest.raises(GuardError):
        kan_check(standard_cube(2), 3, guard=10)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("max_dim", [0, 2])
def test_negative_guard_refused(max_dim):
    with pytest.raises(ValidationError, match="guard -5 must not be negative"):
        enumerate_maps(standard_cube(0), standard_cube(1), guard=-5)
    with pytest.raises(ValidationError, match="guard -5 must not be negative"):
        kan_check(standard_cube(1), max_dim, guard=-5)


def small_sets():
    two, _, _ = coproduct(standard_cube(0), standard_cube(0))
    # a square with its boundary collapsed to a vertex, and a square whose
    # four faces are one loop: the sphere maps only degenerately into the
    # second, since the faces of its cell are degenerate
    sphere = CubicalSet(
        {"v": 0, "s": 2}, {("s", k, eps): CellRef((1,), "v") for k in (1, 2) for eps in (0, 1)}
    )
    one_loop = CubicalSet(
        {"v": 0, "e": 1, "s": 2},
        {("e", 1, 0): nd("v"), ("e", 1, 1): nd("v"),
         **{("s", k, eps): nd("e") for k in (1, 2) for eps in (0, 1)}},
    )
    return {
        "point and interval": coproduct(standard_cube(0), standard_cube(1))[0],
        "sphere": sphere,
        "one loop": one_loop,
        "point": standard_cube(0),
        "interval": standard_cube(1),
        "two points": two,
        "square": standard_cube(2),
        "boundary of the square": boundary(2)[0],
        "open box": open_box(2, 1, 1)[0],
        "loop": loop_set(),
        "collapsed square": collapsed_square()[0],
    }


def as_lists(maps):
    return [list(m.assignment.items()) for m in maps]


def test_enumerate_maps_matches_oracle_on_fixtures():
    sets = small_sets()
    for A in sets:
        for X in sets:
            maps = enumerate_maps(sets[A], sets[X])
            assert as_lists(maps) == as_lists(reference_maps(sets[A], sets[X])), (A, X)


@given(st.sampled_from(range(len(SOURCES))), cubical_sets())
@settings(deadline=None)
def test_enumerate_maps_matches_oracle_on_random_sets(a, X):
    A = SOURCES[a]
    maps = enumerate_maps(A, X)
    for m in maps:
        m.validate()
    # the vertex-first oracle costs about |X_0|^v partial maps
    if len(X.by_dim(0)) ** len(A.by_dim(0)) <= 1000:
        assert as_lists(maps) == as_lists(reference_maps(A, X))


def test_kan_check_matches_oracle_on_fixtures():
    for name, X in small_sets().items():
        assert kan_check(X, 2) == reference_kan_check(X, 2), name


def test_kan_check_interval_dim3_matches_oracle():
    report = kan_check(standard_cube(1), 3)
    assert report == reference_kan_check(standard_cube(1), 3)
    assert [f["boxes"] for f in report["families"] if f["n"] == 3] == [5] * 6


def test_kan_check_square_dim3():
    report = kan_check(standard_cube(2), 3)
    assert [f["boxes"] for f in report["families"] if f["n"] == 3] == [19] * 6
    assert not report["pass"]


def test_extend_map_matches_oracle_on_box_maps():
    # every map of each open box of the square into the boundary of the
    # square, extended over the missing face and the top cell
    B2, sq = boundary(2)[0], standard_cube(2)
    for k in (1, 2):
        for eps in (0, 1):
            box, _ = open_box(2, k, eps)
            removed = ["*", "*"]
            removed[k - 1] = str(1 - eps)
            missing = ["".join(removed), "**"]
            for target in (B2, sq, loop_set()):
                for m in enumerate_maps(box, target):
                    ext = extend_map(sq, target, m.assignment, missing)
                    ref = reference_extension(sq, target, m.assignment, missing)
                    assert (ext is None) == (ref is None)
                    if ext is not None:
                        assert ext.validate()


def test_kan_point_passes():
    report = kan_check(standard_cube(0), 3)
    assert report["pass"]


def test_kan_two_point_discrete():
    two, _, _ = coproduct(standard_cube(0), standard_cube(0))
    report = kan_check(two, 2)
    # boxes are connected, so constant fillers exist; computed, not assumed
    assert report["pass"]


def test_kan_boundary2_golden():
    B2, _ = boundary(2)
    report = kan_check(B2, 2)
    assert not report["pass"]
    assert report["witness"]["n"] == 2


def test_kan_interval_not_fibrant():
    # Open question resolved by computation: representables n >= 1 fail
    report = kan_check(standard_cube(1), 2)
    assert not report["pass"]


def test_loop_tensor_loop_counts():
    Q = loop_set()
    T = tensor(Q, Q)
    assert T.cell_counts() == {0: 1, 1: 2, 2: 1}
    T.validate()


def test_subobject_requires_closure():
    X = standard_cube(2)
    with pytest.raises(ValidationError):
        subobject(X, ["**"])


def test_tensor_preserves_pushouts():
    # assemble boundary(2) as a pushout, tensor with the interval, compare
    # with tensoring the pieces first
    i = interval_inclusion()
    pp = pushout_product(i, i)  # source assembled via pushout
    I = standard_cube(1)
    left = tensor(pp.source, I)
    a_b = tensor_maps(identity_map(i.source), i)
    b_a = tensor_maps(i, identity_map(i.source))
    P, _, _ = pushout(
        tensor_maps(a_b, identity_map(I)), tensor_maps(b_a, identity_map(I))
    )
    assert find_isomorphism(left, P) is not None


def test_extend_map_finds_filler():
    X = standard_cube(0)
    cube1 = standard_cube(1)
    ext = extend_map(cube1, X, {"0": nd("pt"), "1": nd("pt")}, ["*"])
    assert ext is not None
    ext.validate()


def test_extend_map_refuses_a_face_neither_assigned_nor_missing():
    sq, I = standard_cube(2), standard_cube(1)
    vertices = {"00": nd("0"), "01": nd("0"), "10": nd("1"), "11": nd("1")}
    # the face 1* of ** is neither assigned nor missing: refused, not
    # returned as a map that leaves *0, 1* and *1 unassigned
    with pytest.raises(
        ValidationError, match=r"face 1\* of missing cell \*\* is neither assigned nor missing"
    ):
        extend_map(sq, I, vertices, ["**", "0*"])
    # every face of 0* is assigned, but **, *0, 1* and *1 are neither
    # assigned nor missing: refused, not returned as a map without them
    with pytest.raises(ValidationError, match=r"^cell \*\* is neither assigned nor missing$"):
        extend_map(sq, I, vertices, ["0*"])
    ext = extend_map(sq, I, vertices, ["**", "0*", "1*", "*0", "*1"])
    assert ext.validate() is True
    assert ext.assignment["**"] == CellRef((2,), "*")


def test_extend_map_refuses_a_missing_id_outside_the_set():
    sq, I = standard_cube(2), standard_cube(1)
    vertices = {"00": nd("0"), "01": nd("0"), "10": nd("1"), "11": nd("1")}
    with pytest.raises(ValidationError, match=r"^cell zz is not a cell of the whole set$"):
        extend_map(sq, I, vertices, ["**", "0*", "1*", "*0", "*1", "zz"])


def test_extend_map_refuses_an_assigned_id_outside_the_set():
    sq, I = standard_cube(2), standard_cube(1)
    vertices = {"00": nd("0"), "01": nd("0"), "10": nd("1"), "11": nd("1"), "q": nd("0")}
    with pytest.raises(ValidationError, match=r"^cell q is not a cell of the whole set$"):
        extend_map(sq, I, vertices, ["**", "0*", "1*", "*0", "*1"])


def test_action_functoriality_random():
    # presheaf contravariance through the stored data: acting by a composite
    # equals acting in two steps, for every element and composable pair
    from hypothesis import given, settings
    import hypothesis.strategies as st
    from cubeworks.cubes import enumerate_hom, compose

    X = standard_cube(3)
    refs = {d: X.refs_of_dim(d) for d in range(4)}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def run(data):
        m = data.draw(st.integers(0, 3))
        ref = data.draw(st.sampled_from(refs[m]))
        p = data.draw(st.integers(0, 3))
        g = data.draw(st.sampled_from(enumerate_hom(p, m)))
        q = data.draw(st.integers(0, 3))
        f = data.draw(st.sampled_from(enumerate_hom(q, p)))
        two_step = X.act(X.act(ref, g), f)
        one_step = X.act(ref, compose(g, f))
        assert two_step == one_step

    run()


def test_torus_from_edge_identifications():
    # glue top to bottom, then left to right, of the square: the torus
    from cubeworks.chains import cubical_chains, homology

    sq = standard_cube(2)
    I = standard_cube(1)
    two_edges, inl, inr = coproduct(I, I)
    into_sq = CubicalMap(
        two_edges,
        sq,
        {
            "l:0": nd("00"), "l:1": nd("10"), "l:*": nd("*0"),   # bottom
            "r:0": nd("01"), "r:1": nd("11"), "r:*": nd("*1"),   # top
        },
    )
    fold = CubicalMap(
        two_edges, I,
        {"l:0": nd("0"), "l:1": nd("1"), "l:*": nd("*"),
         "r:0": nd("0"), "r:1": nd("1"), "r:*": nd("*")},
    )
    into_sq.validate()
    fold.validate()
    cyl, leg, _ = pushout(into_sq, fold)
    cyl.validate()
    assert cyl.cell_counts() == {0: 2, 1: 3, 2: 1}
    # now glue the two vertical edges of the cylinder (both already loops)
    sides = sorted(
        c for c in cyl.by_dim(1)
        if cyl.faces[(c, 1, 0)] == cyl.faces[(c, 1, 1)]
    )
    assert len(sides) == 2
    a, b = sides
    incl_pair = CubicalMap(
        two_edges, cyl,
        {"l:0": cyl.faces[(a, 1, 0)], "l:1": cyl.faces[(a, 1, 1)], "l:*": nd(a),
         "r:0": cyl.faces[(b, 1, 0)], "r:1": cyl.faces[(b, 1, 1)], "r:*": nd(b)},
    )
    incl_pair.validate()
    torus, _, _ = pushout(incl_pair, fold)
    torus.validate()
    rep = homology(cubical_chains(torus))
    assert (rep.betti(0), rep.betti(1), rep.betti(2)) == (1, 2, 1)
    assert not rep.torsion(1)
