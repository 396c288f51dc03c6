import random
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cubeworks.chains import (
    ChainComplex,
    ChainMap,
    cubical_chains,
    homology,
    is_acyclic,
    mapping_cone,
    point_complex,
    simplicial_chains,
    tensor_complexes,
)
from cubeworks.cubical import (
    CubicalMap,
    boundary,
    coproduct,
    nd,
    open_box,
    pushout,
    standard_cube,
    tensor,
)
from cubeworks.errors import ValidationError
from cubeworks.presented import disjoint_union, find_isomorphism
from cubeworks.simplicial import (
    circle,
    standard_simplex,
    wedge_of_intervals,
)
from cubeworks import snf
from cubeworks.snf import (
    det_exact,
    invariant_factors_sparse,
    matmul,
    smith_normal_form,
)
from cubeworks.triangulate import spanning_chains, triangulate


def H(X):
    return homology(cubical_chains(X))


def point_homology(report, top):
    if report.betti(0) != 1 or report.torsion(0):
        return False
    return all(report.betti(d) == 0 and not report.torsion(d) for d in range(1, top + 1))


# -- Smith normal form ----------------------------------------------------------


def test_snf_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diag == [2, 4]


def test_snf_zero():
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.diag == []
    assert res.D == [[0, 0], [0, 0]]


def test_snf_reconstruction_random():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(M)
        assert matmul(matmul(res.R, res.D), res.C) == M
        assert det_exact(res.R) in (1, -1)
        assert det_exact(res.C) in (1, -1)
        for i in range(len(res.diag) - 1):
            assert res.diag[i + 1] % res.diag[i] == 0
        assert all(d > 0 for d in res.diag)


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        mine = smith_normal_form(M).diag
        theirs = sympy_snf(sympy.Matrix(M))
        diag = [abs(theirs[i, i]) for i in range(min(m, n)) if theirs[i, i] != 0]
        assert sorted(mine) == sorted(diag)


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_reconstruction_property(M):
    res = smith_normal_form(M)
    assert matmul(matmul(res.R, res.D), res.C) == M
    assert det_exact(res.R) in (1, -1)
    assert det_exact(res.C) in (1, -1)


def test_sparse_invariant_factors_match_dense():
    rng = random.Random(3)
    for _ in range(80):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(m)]
        entries = {(i, j): M[i][j] for i in range(m) for j in range(n) if M[i][j]}
        assert invariant_factors_sparse(entries, m, n) == smith_normal_form(M).diag


@st.composite
def sparse_matrices(draw):
    """A sparse m x n matrix as {(i, j): v}, up to 12 x 12, of drawn density.
    Entries may hold explicit 0 values, some rows and columns are zeroed, and
    with m, n >= 2 an isolated block [[s, s], [2, 3]] plants a row with no
    unit that gains one when the row above it is eliminated."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    zeros = draw(st.integers(0, 12))
    values = st.sampled_from([0] * zeros + [1, -1, 2, -2, 3, -3, 4, 6])
    grid = draw(st.lists(values, min_size=m * n, max_size=m * n))
    keep_zeros = draw(st.booleans())
    entries = {
        (t // n, t % n): v for t, v in enumerate(grid) if v or keep_zeros
    }
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        entries.update({(i, j): 0 for j in range(n)})
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        entries.update({(i, j): 0 for i in range(m)})
    if m >= 2 and n >= 2 and draw(st.booleans()):
        i0, i1 = draw(st.permutations(range(m)))[:2]
        j0, j1 = draw(st.permutations(range(n)))[:2]
        for i in (i0, i1):
            entries.update({(i, j): 0 for j in range(n)})
        for j in (j0, j1):
            entries.update({(i, j): 0 for i in range(m)})
        s = draw(st.sampled_from([1, -1]))
        entries.update({(i0, j0): s, (i0, j1): s, (i1, j0): 2, (i1, j1): 3})
    return entries, m, n


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_invariant_factors_property(matrix):
    entries, m, n = matrix
    M = [[entries.get((i, j), 0) for j in range(n)] for i in range(m)]
    given_entries = dict(entries)
    remainders = []

    def dense(R):
        remainders.append(R)
        return smith_normal_form(R)

    with mock.patch.object(snf, "smith_normal_form", dense):
        factors = invariant_factors_sparse(entries, m, n)
    assert factors == smith_normal_form(M).diag
    assert entries == given_entries
    # every unit entry, including one made by fill, is pivoted on sparsely
    assert all(v not in (1, -1) for R in remainders for row in R for v in row)


def test_torsion_detected():
    # boundary matrix multiplying by 2: Z -2-> Z, homology Z/2 in degree 0
    C = ChainComplex({0: ["a"], 1: ["b"]}, {1: {"b": {"a": 2}}})
    rep = homology(C)
    assert rep.betti(0) == 0
    assert rep.torsion(0) == (2,)


# -- chains of cubical sets -----------------------------------------------------


def test_cube_chains_are_contractible():
    for n in range(5):
        C = cubical_chains(standard_cube(n))
        C.validate()
        assert point_homology(homology(C), n)


def test_boundary2_is_circle():
    rep = H(boundary(2)[0])
    assert rep.betti(0) == 1 and rep.betti(1) == 1
    assert not rep.torsion(0) and not rep.torsion(1)


def test_boundary3_is_sphere():
    rep = H(boundary(3)[0])
    assert (rep.betti(0), rep.betti(1), rep.betti(2)) == (1, 0, 1)


def test_spheres_up_to_4():
    for n in range(2, 5):
        rep = H(boundary(n)[0])
        for d in range(n):
            want = 1 if d in (0, n - 1) else 0
            assert rep.betti(d) == want, (n, d)
            assert not rep.torsion(d)


def test_glued_loop_homology():
    I = standard_cube(1)
    P = standard_cube(0)
    two, _, _ = coproduct(P, P)
    f = CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})
    g = CubicalMap(two, P, {"l:pt": nd("pt"), "r:pt": nd("pt")})
    Q, _, _ = pushout(f, g)
    rep = H(Q)
    assert rep.betti(0) == 1 and rep.betti(1) == 1


def test_open_box_contractible():
    for (n, k, eps) in [(2, 1, 0), (2, 2, 1), (3, 1, 0), (3, 3, 1)]:
        rep = H(open_box(n, k, eps)[0])
        assert point_homology(rep, n)


# -- simplicial side ------------------------------------------------------------


def test_simplex_chains_contractible():
    for n in range(5):
        S = standard_simplex(n)
        S.validate()
        rep = homology(simplicial_chains(S))
        assert point_homology(rep, n)


def test_circle_homology():
    S = circle()
    S.validate()
    rep = homology(simplicial_chains(S))
    assert rep.betti(0) == 1 and rep.betti(1) == 1


def test_wedge_validates():
    W = wedge_of_intervals(2)
    W.validate()
    rep = homology(simplicial_chains(W))
    assert point_homology(rep, 1)


# -- triangulation --------------------------------------------------------------


def test_triangulate_interval_is_delta1():
    T = triangulate(standard_cube(1))
    T.validate()
    assert find_isomorphism(T, standard_simplex(1)) is not None
    # sets of different kinds are never isomorphic and have no disjoint union
    assert find_isomorphism(standard_cube(1), standard_simplex(1)) is None
    with pytest.raises(ValidationError):
        disjoint_union(standard_cube(1), standard_simplex(1))


def test_triangulate_square_counts():
    T = triangulate(standard_cube(2))
    T.validate()
    assert T.cell_counts() == {0: 4, 1: 5, 2: 2}


def test_triangulate_top_simplex_count():
    for n in range(5):
        T = triangulate(standard_cube(n))
        assert len(T.by_dim(n)) == factorial(n)


def test_triangulate_commutes_with_coproduct():
    X = standard_cube(1)
    Y = boundary(2)[0]
    Z, _, _ = coproduct(X, Y)
    left = triangulate(Z)
    right = disjoint_union(triangulate(X), triangulate(Y))
    assert find_isomorphism(left, right) is not None


def test_triangulated_boundary_validates():
    T = triangulate(boundary(3)[0])
    T.validate()


@pytest.mark.parametrize("n", range(5))
def test_pipeline_agreement_cubes(n):
    X = standard_cube(n)
    assert homology(cubical_chains(X)) == homology(simplicial_chains(triangulate(X)))


@pytest.mark.parametrize("n", range(1, 5))
def test_pipeline_agreement_boundaries(n):
    X = boundary(n)[0]
    assert homology(cubical_chains(X)) == homology(simplicial_chains(triangulate(X)))


def test_pipeline_agreement_boxes_and_loops():
    corpus = [open_box(2, 1, 0)[0], open_box(3, 2, 1)[0], open_box(4, 1, 0)[0]]
    I = standard_cube(1)
    P = standard_cube(0)
    two, _, _ = coproduct(P, P)
    f = CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})
    g = CubicalMap(two, P, {"l:pt": nd("pt"), "r:pt": nd("pt")})
    loop, _, _ = pushout(f, g)
    corpus.append(loop)
    corpus.append(tensor(loop, loop))
    for X in corpus:
        assert homology(cubical_chains(X)) == homology(simplicial_chains(triangulate(X)))


def test_kunneth_on_torus():
    I = standard_cube(1)
    P = standard_cube(0)
    two, _, _ = coproduct(P, P)
    f = CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})
    g = CubicalMap(two, P, {"l:pt": nd("pt"), "r:pt": nd("pt")})
    loop, _, _ = pushout(f, g)
    torus = tensor(loop, loop)
    rep = H(torus)
    assert (rep.betti(0), rep.betti(1), rep.betti(2)) == (1, 2, 1)
    # Betti numbers of the tensor are the convolution of the factors'
    left = H(loop)
    for d in range(3):
        conv = sum(left.betti(i) * left.betti(d - i) for i in range(d + 1))
        assert rep.betti(d) == conv


def test_kunneth_sphere_times_loop():
    I = standard_cube(1)
    P = standard_cube(0)
    two, _, _ = coproduct(P, P)
    f = CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})
    g = CubicalMap(two, P, {"l:pt": nd("pt"), "r:pt": nd("pt")})
    loop, _, _ = pushout(f, g)
    sphere = boundary(3)[0]
    T = tensor(sphere, loop)
    rep = H(T)
    hs, hl = H(sphere), H(loop)
    for d in range(4):
        conv = sum(hs.betti(i) * hl.betti(d - i) for i in range(d + 1))
        assert rep.betti(d) == conv


# -- chain-complex utilities ----------------------------------------------------


def test_tensor_complex_matches_tensor_of_sets():
    X = boundary(2)[0]
    Y = standard_cube(1)
    CT = tensor_complexes(cubical_chains(X), cubical_chains(Y))
    CT.validate()
    T = tensor(X, Y)
    assert homology(CT) == homology(cubical_chains(T))


def test_mapping_cone_of_identity_is_acyclic():
    C = cubical_chains(boundary(2)[0])
    ident = ChainMap(C, C, {d: {b: {b: 1} for b in C.basis[d]} for d in C.basis})
    ident.validate()
    cone = mapping_cone(ident)
    cone.validate()
    assert is_acyclic(cone)


def test_mapping_cone_detects_non_equivalence():
    C = cubical_chains(standard_cube(0))
    D = cubical_chains(boundary(2)[0])
    # include the point onto one vertex of the circle: H1 differs
    f = ChainMap(C, D, {0: {"pt": {"00": 1}}})
    f.validate()
    cone = mapping_cone(f)
    rep = homology(cone)
    assert rep.betti(1) == 1


def test_snf_recovers_known_invariant_factors():
    # conjugate a known diagonal by random unimodular matrices and recover it
    rng = random.Random(23)

    def random_unimodular(n):
        U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            for t in range(n):
                U[i][t] += q * U[j][t]
        return U

    for diag in [(2, 6, 12), (1, 1, 4), (3, 3), (2, 4, 0, 0)]:
        n = len(diag)
        D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        M = matmul(matmul(random_unimodular(n), D), random_unimodular(n))
        res = smith_normal_form(M)
        assert res.diag == [d for d in diag if d]
        assert matmul(matmul(res.R, res.D), res.C) == M


def test_simplicial_action_functoriality_random():
    from hypothesis import given, settings
    import hypothesis.strategies as st
    from cubeworks.simplicial import standard_simplex
    from itertools import product as iproduct

    S = standard_simplex(3)
    refs = {d: S.refs_of_dim(d) for d in range(4)}

    def monotone_maps(a, b):
        out = []
        for vals in iproduct(range(b + 1), repeat=a + 1):
            if all(vals[i] <= vals[i + 1] for i in range(a)):
                out.append(tuple(vals))
        return out

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def run(data):
        m = data.draw(st.integers(0, 3))
        ref = data.draw(st.sampled_from(refs[m]))
        p = data.draw(st.integers(0, 3))
        g = data.draw(st.sampled_from(monotone_maps(p, m)))
        q = data.draw(st.integers(0, 3))
        f = data.draw(st.sampled_from(monotone_maps(q, p)))
        composite = tuple(g[v] for v in f)
        assert S.act(S.act(ref, g), f) == S.act(ref, composite)

    run()


def test_homology_report_roundtrip():
    from cubeworks.io_json import report_from_json, report_to_json

    rep = homology(cubical_chains(boundary(3)[0]))
    assert report_from_json(report_to_json(rep)) == rep
