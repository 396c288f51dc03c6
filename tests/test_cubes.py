from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cubeworks.cubes import (
    CubeMap,
    compose,
    enumerate_hom,
    face,
    generator_closure,
    hom_count,
    identity,
    j0,
    j1,
    projection,
    r,
)
from cubeworks.errors import GuardError, ValidationError
from action_oracle import is_face_type, split_projection_face
from dict_builders import face_type_maps


def var(i):
    """The slot of the i-th input variable."""
    return ("v", i)


def evaluate(f, point):
    """Apply f to a point of [0,1]^n: the function-level oracle on corners."""
    assert len(point) == f.source_dim
    return tuple(val if kind == "c" else point[val - 1] for kind, val in f.slots)


def corners(n):
    return list(product((0, 1), repeat=n))


def tensor_map(f: CubeMap, g: CubeMap) -> CubeMap:
    """Monoidal product: juxtapose coordinate blocks, shifting g's variables."""
    shift = f.source_dim
    shifted = tuple(s if s[0] == "c" else ("v", s[1] + shift) for s in g.slots)
    return CubeMap(
        f.source_dim + g.source_dim, f.target_dim + g.target_dim, f.slots + shifted
    )


def as_function(f):
    """The underlying map on corner points, the function-level oracle."""
    return tuple((p, evaluate(f, p)) for p in corners(f.source_dim))


def test_identity_empty_case():
    assert identity(0).slots == ()
    assert identity(0).source_dim == 0


def test_identity_two():
    assert identity(2).slots == (var(1), var(2))


def test_face_is_j0():
    assert j0() == CubeMap(0, 1, (("c", 0),))


def test_face_instance():
    assert face(2, 2, 1).slots == (var(1), ("c", 1))


def test_r_j_relations():
    assert compose(r(), j0()) == identity(0)
    assert compose(r(), j1()) == identity(0)


def test_projection_is_r():
    assert r() == CubeMap(1, 0, ())


def test_projection_keeps_variable_identity():
    # Dropping the first of two coordinates leaves the second variable; the
    # corner-point oracle distinguishes it from dropping the second.
    p1 = projection(2, 1)
    p2 = projection(2, 2)
    assert p1.slots == (var(2),)
    assert p2.slots == (var(1),)
    assert as_function(p1) != as_function(p2)
    for p in corners(2):
        assert evaluate(p1, p) == (p[1],)


def test_out_of_range_errors():
    with pytest.raises(ValidationError):
        face(2, 3, 0)
    with pytest.raises(ValidationError):
        projection(1, 0)
    with pytest.raises(ValidationError):
        compose(identity(2), identity(1))


@pytest.mark.parametrize(
    "source, target, slots, message",
    [
        (-1, 0, (), "dimensions must be non-negative"),
        (0, -1, (), "dimensions must be non-negative"),
        (1, 2, (var(1),), "slot count must equal target dimension"),
        (0, 1, (("c", 2),), "bad constant 2"),
        (1, 1, (var(0),), "variable 0 out of range"),
        (1, 1, (var(2),), "variable 2 out of range"),
        (2, 2, (var(2), var(1)), "variables must strictly increase"),
        (2, 2, (var(1), var(1)), "variables must strictly increase"),
        (1, 1, (("x", 1),), "bad slot ('x', 1)"),
    ],
    ids=[
        "negative-source",
        "negative-target",
        "slot-count",
        "bad-constant",
        "variable-zero",
        "variable-above-source",
        "decreasing",
        "repeated",
        "bad-kind",
    ],
)
def test_cube_map_refuses_a_malformed_normal_form(source, target, slots, message):
    with pytest.raises(ValidationError) as refused:
        CubeMap(source, target, slots)
    assert str(refused.value) == message


def test_compose_matches_function_composition():
    for f in enumerate_hom(1, 2):
        for g in enumerate_hom(2, 1):
            h = compose(g, f)
            for p in corners(1):
                assert evaluate(h, p) == evaluate(g, evaluate(f, p))


def test_unit_laws():
    for n, m in product(range(3), repeat=2):
        for f in enumerate_hom(n, m):
            assert compose(f, identity(n)) == f
            assert compose(identity(m), f) == f


def test_associativity_dims_le_2():
    homs = {
        (n, m): enumerate_hom(n, m) for n in range(3) for m in range(3)
    }
    for a, b, c, d in product(range(3), repeat=4):
        for f in homs[(a, b)]:
            for g in homs[(b, c)]:
                for h in homs[(c, d)]:
                    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_tensor_identities():
    assert tensor_map(identity(1), identity(1)) == identity(2)
    t = tensor_map(j0(), identity(1))
    assert t.slots == (("c", 0), var(1))
    for p in corners(1):
        assert evaluate(t, p) == (0, p[0])


def test_tensor_bifunctor_dims_le_2():
    homs = [enumerate_hom(n, m) for n in range(2) for m in range(2)]
    small = [f for fs in homs for f in fs]
    for f in small:
        for g in small:
            for fp in small:
                if fp.target_dim != f.source_dim:
                    continue
                for gp in small:
                    if gp.target_dim != g.source_dim:
                        continue
                    lhs = tensor_map(compose(f, fp), compose(g, gp))
                    rhs = compose(tensor_map(f, g), tensor_map(fp, gp))
                    assert lhs == rhs


def test_tensor_strict_monoidal():
    unit = identity(0)
    maps = enumerate_hom(1, 1) + enumerate_hom(0, 1) + enumerate_hom(1, 0)
    for f in maps:
        assert tensor_map(unit, f) == f
        assert tensor_map(f, unit) == f
        for g in maps:
            for h in maps:
                assert tensor_map(tensor_map(f, g), h) == tensor_map(f, tensor_map(g, h))


def test_enumerate_hom_counts():
    assert len(enumerate_hom(3, 0)) == 1
    assert len(enumerate_hom(0, 3)) == 8
    assert len(enumerate_hom(1, 1)) == 3
    assert len(enumerate_hom(0, 1)) == 2
    assert len(enumerate_hom(1, 0)) == 1


def test_enumerate_hom_guard():
    with pytest.raises(GuardError):
        enumerate_hom(2, 2, guard=10)


def test_hom_count_matches_enumeration():
    for n in range(4):
        for m in range(4):
            maps = enumerate_hom(n, m)
            assert len(maps) == hom_count(n, m)
            assert len(set(maps)) == len(maps)


def test_normal_forms_give_distinct_functions():
    for n in range(3):
        for m in range(3):
            seen = {}
            for f in enumerate_hom(n, m):
                fn = as_function(f)
                assert fn not in seen, (f, seen[fn])
                seen[fn] = f


def test_generator_closure_equals_enumeration():
    closure = generator_closure(3)
    by_pair = {}
    for f in closure:
        by_pair.setdefault((f.source_dim, f.target_dim), set()).add(f)
    for n in range(4):
        for m in range(4):
            assert by_pair.get((n, m), set()) == set(enumerate_hom(n, m))


def test_face_type_maps_count_cells_of_cube():
    # k-dimensional cells of the n-cube: C(n,k) * 2^(n-k)
    from math import comb

    for n in range(5):
        for k in range(n + 1):
            assert len(face_type_maps(k, n)) == comb(n, k) * 2 ** (n - k)


def test_split_projection_face():
    for n in range(3):
        for m in range(3):
            for f in enumerate_hom(n, m):
                delta, proj = split_projection_face(f)
                assert is_face_type(delta)
                assert all(kind == "v" for kind, _ in proj.slots)
                assert compose(delta, proj) == f


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_compose_evaluates_correctly(n, m, p, data):
    fs = enumerate_hom(n, m)
    gs = enumerate_hom(m, p)
    f = data.draw(st.sampled_from(fs))
    g = data.draw(st.sampled_from(gs))
    h = compose(g, f)
    for pt in corners(n):
        assert evaluate(h, pt) == evaluate(g, evaluate(f, pt))
