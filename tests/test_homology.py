import hashlib
import random
from itertools import product
from math import factorial
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
import hypothesis.strategies as st

from cubeworks.chains import (
    ChainComplex,
    ChainMap,
    HomologyReport,
    cubical_chains,
    homology,
    is_acyclic,
    mapping_cone,
    point_complex,
    simplicial_chains,
    sparse_entries,
)
from cubeworks.cubical import (
    CellRef,
    CubicalMap,
    CubicalSet,
    boundary,
    coproduct,
    enumerate_maps,
    nd,
    open_box,
    pushout,
    standard_cube,
    tensor,
)
from cubeworks.enriched import mapping_space
from cubeworks.errors import GuardError, ValidationError
from cubeworks.james import james
from cubeworks import james_compare
from cubeworks.james_compare import compare_with_james, james_translation, localized_E
from cubeworks.presented import disjoint_union, find_isomorphism, is_isomorphism
from cubeworks.simplicial import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    circle,
    standard_simplex,
    wedge_of_intervals,
)
from cubeworks import snf, verify
from cubeworks.snf import invariant_factors_sparse, smith_normal_form
from cubeworks.triangulate import simplex_count, triangulate
from action_oracle import (
    collapse_of_surj,
    delta_face,
    mono_compose,
    simplicial_act,
    surj_from_collapse,
)
from random_sets import cubical_sets


def H(X):
    return homology(cubical_chains(X))


def point_homology(report, top):
    if report.betti(0) != 1 or report.torsion(0):
        return False
    return all(report.betti(d) == 0 and not report.torsion(d) for d in range(1, top + 1))


# -- Smith normal form ----------------------------------------------------------


def matmul(A, B):
    n = len(A)
    k = len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def det_exact(A) -> int:
    """Fraction-free Bareiss determinant (exact, for unimodularity checks)."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


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
    # the second set has no units, so every sparse pivot is a divisible one
    for values, count in (([0, 0, 0, 1, -1, 2, -3], 80), ([0, 0, 2, -2, 3, 4, -4, 6], 400)):
        for _ in range(count):
            m = rng.randint(1, 9)
            n = rng.randint(1, 9)
            M = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
            entries = {(i, j): M[i][j] for i in range(m) for j in range(n) if M[i][j]}
            assert invariant_factors_sparse(entries) == smith_normal_form(M).diag


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
        factors = invariant_factors_sparse(entries)
    assert factors == smith_normal_form(M).diag
    assert entries == given_entries
    # every unit entry, including one made by fill, is pivoted on sparsely
    assert all(v not in (1, -1) for R in remainders for row in R for v in row)
    # and so is every entry that divides its whole row and column
    for R in remainders:
        for r, row in enumerate(R):
            for c, v in enumerate(row):
                if v:
                    assert any(x % v for x in row) or any(R2[c] % v for R2 in R)


@pytest.mark.parametrize(
    "entries, m, n, factors, remainders",
    [
        # divisible pivots split off 2 and 3, which read as Z/6
        ({(0, 0): 2, (1, 1): 3}, 2, 2, [1, 6], []),
        ({(0, 0): 4, (1, 1): 6}, 2, 2, [2, 12], []),
        ({(0, 0): -2, (1, 1): 2, (2, 2): 4}, 3, 3, [2, 2, 4], []),
        # pivoting on the 2 turns the 5 below it into a unit
        ({(0, 0): 2, (0, 1): 2, (1, 0): 4, (1, 1): 5}, 2, 2, [1, 2], []),
        # the 2 is eligible only after the unit pivot empties its column of the 3
        ({(0, 0): 2, (1, 0): 3, (1, 1): 1}, 2, 2, [1, 2], []),
        # 2 does not divide the 3 in its column or row (nor 3 the 2): pivoting
        # on either would leave a fraction, so both go to the dense routine
        ({(0, 0): 2, (1, 0): 3}, 2, 1, [1], [[[2], [3]]]),
        ({(0, 0): 2, (0, 1): 3}, 1, 2, [1], [[[2, 3]]]),
    ],
)
def test_sparse_divisible_pivots(entries, m, n, factors, remainders):
    found = []

    def dense(R):
        found.append(R)
        return smith_normal_form(R)

    with mock.patch.object(snf, "smith_normal_form", dense):
        assert invariant_factors_sparse(entries) == factors
    M = [[entries.get((i, j), 0) for j in range(n)] for i in range(m)]
    assert smith_normal_form(M).diag == factors
    assert found == remainders


def test_torsion_detected():
    # boundary matrix multiplying by 2: Z -2-> Z, homology Z/2 in degree 0
    C = ChainComplex({0: ["a"], 1: ["b"]}, {1: [{0: 2}]})
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


# The tuple-coded triangulation that the integer-coded one replaced, kept as
# the reference: vertices are bit tuples, and every face chain is deduplicated,
# rewritten into its face cube and rendered into an id one step at a time.


def reference_spanning_chains(d):
    vertices = list(product((0, 1), repeat=d))
    bottom, top = (0,) * d, (1,) * d
    if d == 0:
        return (((),),)
    chains = []

    def extend(chain):
        last = chain[-1]
        if last == top:
            chains.append(tuple(chain))
            return
        for v in vertices:
            if v != last and all(a <= b for a, b in zip(last, v)):
                chain.append(v)
                extend(chain)
                chain.pop()

    extend([bottom])
    return tuple(chains)


def reference_simplex_id(cell, chain):
    return cell + "#" + ";".join("".join(map(str, v)) for v in chain)


def reference_dedupe(chain):
    out = [chain[0]]
    epi = [0]
    for v in chain[1:]:
        if v != out[-1]:
            out.append(v)
        epi.append(len(out) - 1)
    return tuple(out), tuple(epi)


def reference_resolve(X, cell, chain):
    epi_total = tuple(range(len(chain)))
    while True:
        chain, epi = reference_dedupe(chain)
        epi_total = mono_compose(epi, epi_total)
        d = len(chain[0])
        if chain[0] == (0,) * d and chain[-1] == (1,) * d:
            return SimplexRef(collapse_of_surj(epi_total), reference_simplex_id(cell, chain))
        first, last = chain[0], chain[-1]
        i = next(t for t in range(d) if first[t] == last[t])
        ref = X.faces[(cell, i + 1, first[i])]
        drop = set(s - 1 for s in ref.degens)
        new_chain = []
        for v in chain:
            w = v[:i] + v[i + 1 :]
            new_chain.append(tuple(b for t, b in enumerate(w) if t not in drop))
        cell = ref.base
        chain = tuple(new_chain)


def reference_triangulate(X):
    cells = {}
    faces = {}
    for c, d in X.cells.items():
        for chain in reference_spanning_chains(d):
            sid = reference_simplex_id(c, chain)
            k = len(chain) - 1
            cells[sid] = k
            for j in range(k + 1) if k else ():
                faces[(sid, j)] = reference_resolve(X, c, chain[:j] + chain[j + 1 :])
    return SimplicialSet(cells, faces, name=f"tri({X.name})")


def projective_plane():
    """The three-cell cubical projective plane: a loop a at v and a square
    whose (1,0) and (2,1) faces are a and whose other faces are degenerate
    on v."""
    v, a, sv = nd("v"), nd("a"), CellRef((1,), "v")
    X = CubicalSet(
        {"v": 0, "a": 1, "s": 2},
        {
            ("a", 1, 0): v,
            ("a", 1, 1): v,
            ("s", 1, 0): a,
            ("s", 2, 1): a,
            ("s", 1, 1): sv,
            ("s", 2, 0): sv,
        },
        name="RP2",
    )
    X.validate()
    return X


def klein_bottle():
    """A one-square Klein bottle: loops a and b at v, and a square whose
    faces read a a b b around its boundary, so that d(k) = 2a - 2b."""
    v, a, b = nd("v"), nd("a"), nd("b")
    X = CubicalSet(
        {"v": 0, "a": 1, "b": 1, "k": 2},
        {
            ("a", 1, 0): v,
            ("a", 1, 1): v,
            ("b", 1, 0): v,
            ("b", 1, 1): v,
            ("k", 1, 0): b,
            ("k", 1, 1): a,
            ("k", 2, 0): a,
            ("k", 2, 1): b,
        },
        name="K",
    )
    X.validate()
    return X


def moore_space_mod3():
    """A mod-3 Moore space: loops a and b at v, and squares p and q with
    d(p) = a + b and d(q) = 2a - b, a pair of relations of determinant -3."""
    v, a, b, sv = nd("v"), nd("a"), nd("b"), CellRef((1,), "v")
    X = CubicalSet(
        {"v": 0, "a": 1, "b": 1, "p": 2, "q": 2},
        {
            ("a", 1, 0): v,
            ("a", 1, 1): v,
            ("b", 1, 0): v,
            ("b", 1, 1): v,
            ("p", 1, 0): sv,
            ("p", 1, 1): a,
            ("p", 2, 0): b,
            ("p", 2, 1): sv,
            ("q", 1, 0): b,
            ("q", 1, 1): a,
            ("q", 2, 0): a,
            ("q", 2, 1): sv,
        },
        name="M3",
    )
    X.validate()
    return X


def groups(report):
    """[(betti, torsion)] by degree."""
    return [(b, t) for _, b, t in report.entries]


@pytest.mark.parametrize(
    "build, want",
    [
        (projective_plane, [(1, ()), (0, (2,)), (0, ())]),
        (klein_bottle, [(1, ()), (1, (2,)), (0, ())]),
        (moore_space_mod3, [(1, ()), (0, (3,)), (0, ())]),
    ],
)
def test_torsion_oracles_both_pipelines(build, want):
    X = build()
    cubical = homology(cubical_chains(X))
    assert groups(cubical) == want
    assert homology(simplicial_chains(triangulate(X))) == cubical


def rp2_power_groups(k):
    """Homology of the k-fold tensor power of RP2 from its mod-2 Poincare
    polynomial (1 + t + t^2)^k: H0 = Z, every other group is a sum of Z/2,
    and dim H_d(-; F2) = b_d + t_d + t_(d-1) for t_d summands Z/2 in H_d."""
    mod2 = [1]
    for _ in range(k):
        mod2 = [sum(mod2[d - e] for e in range(3) if 0 <= d - e < len(mod2))
                for d in range(len(mod2) + 2)]
    out = []
    prev = 0
    for d, p in enumerate(mod2):
        betti = 1 if d == 0 else 0
        t = p - betti - prev
        out.append((betti, (2,) * t))
        prev = t
    return out


def _homology_counting_dense(chains):
    with mock.patch.object(snf, "smith_normal_form", wraps=smith_normal_form) as dense:
        report = homology(chains)
    return report, dense.call_count


@pytest.mark.parametrize("k", range(1, 5))
def test_rp2_powers_need_no_dense_elimination(k):
    X = projective_plane()
    for _ in range(k - 1):
        X = tensor(X, projective_plane())
    report, dense_calls = _homology_counting_dense(cubical_chains(X))
    assert groups(report) == rp2_power_groups(k)
    assert dense_calls == 0
    if k <= 3:  # the triangulated cube of RP2^3 had a dense remainder of 325 x 1
        tri, dense_calls = _homology_counting_dense(simplicial_chains(triangulate(X)))
        assert tri == report
        assert dense_calls == 0


def test_triangulated_cube6_boundary_needs_no_dense_elimination():
    X = boundary(6)[0]
    tri, dense_calls = _homology_counting_dense(simplicial_chains(triangulate(X)))
    assert groups(tri) == [(1, ())] + [(0, ())] * 4 + [(1, ())]
    assert dense_calls == 0
    assert homology(cubical_chains(X)) == tri


def _triangulation_inputs():
    rp2 = projective_plane()
    EL = localized_E()
    yield from (standard_cube(n) for n in range(5))
    yield from (boundary(n)[0] for n in range(2, 6))
    yield from (rp2, tensor(rp2, rp2), tensor(tensor(rp2, rp2), rp2))
    for bound in range(1, 5):
        yield mapping_space(EL, "c", "c", bound).space


def test_triangulate_matches_reference():
    degenerate_faces = 0
    for X in _triangulation_inputs():
        T, R = triangulate(X), reference_triangulate(X)
        assert list(T.cells.items()) == list(R.cells.items()), X.name
        assert list(T.faces.items()) == list(R.faces.items()), X.name
        assert T.name == R.name
        assert simplex_count(X) == len(T.cells)
        degenerate_faces += sum(1 for r in T.faces.values() if r.degens)
    # the inputs exercise the degeneracy bookkeeping, not only plain faces
    assert degenerate_faces > 0


def _square_with_collapsed_edge():
    """The square with its edge *0 collapsed to a point: the pushout of the
    square and the point along the interval."""
    (into_square,) = [m for m in enumerate_maps(standard_cube(1), standard_cube(2))
                      if m.assignment["*"] == nd("*0")]
    (collapse,) = enumerate_maps(standard_cube(1), standard_cube(0))
    return pushout(into_square, collapse)[0]


@settings(deadline=None)
@given(cubical_sets())
@example(_square_with_collapsed_edge())
def test_triangulate_matches_reference_on_random_sets(X):
    X.validate()
    T, R = triangulate(X), reference_triangulate(X)
    assert list(T.cells.items()) == list(R.cells.items())
    assert list(T.faces.items()) == list(R.faces.items())
    assert simplex_count(X) == len(T.cells)
    assert T.validate() is True
    assert homology(simplicial_chains(T)) == homology(cubical_chains(X))


@settings(max_examples=25, deadline=None)
@given(cubical_sets())
def test_triangulate_matches_reference_on_random_sets_times_interval(X):
    # the random sets stop at dimension 3; a tensor with the interval takes
    # degenerate faces into cells of dimension 4
    X = tensor(X, standard_cube(1))
    T, R = triangulate(X), reference_triangulate(X)
    event("degenerate faces", payload=sum(1 for r in T.faces.values() if r.degens))
    assert list(T.cells.items()) == list(R.cells.items())
    assert list(T.faces.items()) == list(R.faces.items())


def test_triangulate_guard():
    # the budget is the module constant, read at call time
    with mock.patch("cubeworks.triangulate.CELL_BUDGET", 50):
        with pytest.raises(GuardError, match=r"^triangulation into 51 simplices exceeds budget 50$"):
            triangulate(standard_cube(3))
    with mock.patch("cubeworks.triangulate.CELL_BUDGET", 51):
        assert len(triangulate(standard_cube(3)).cells) == 51
    # the count comes before any chain or table is built: the 7-cube
    # (189,171 simplices) trips a budget of 10**5 without enumerating a chain
    with mock.patch("cubeworks.triangulate.spanning_chains", side_effect=AssertionError), \
            mock.patch("cubeworks.triangulate.chain_table", side_effect=AssertionError), \
            mock.patch("cubeworks.triangulate.CELL_BUDGET", 10**5):
        with pytest.raises(GuardError):
            triangulate(standard_cube(7))


def _criterion_4_corpus():
    """The cubical sets criterion 4 triangulates, in its order."""
    seen = []

    def keep(X):
        seen.append(X)
        return triangulate(X)

    with mock.patch.object(verify, "triangulate", side_effect=keep):
        assert verify.criterion_4()["pass"]
    return seen


def _triangulations_sha256(sets):
    """One SHA-256 over the cells and faces of each triangulation, in order."""
    from test_james import faces_sha256  # test_james imports this module

    digest = hashlib.sha256()
    for X in sets:
        T = triangulate(X)
        digest.update(repr(list(T.cells.items())).encode())
        digest.update(faces_sha256(T).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "sets, digest",
    [
        (
            lambda: [tensor(tensor(projective_plane(), projective_plane()), projective_plane())],
            "074770c98c4193fcf62e4e7f5ef784b4c4ea92f31e301c2e88417982b3a248ab",
        ),
        (
            _criterion_4_corpus,
            "17d6d11ff840ccb44b2298f8aece76b643b0b6bab780ef82c09dde4d76694d07",
        ),
        (
            lambda: [mapping_space(localized_E(), "c", "c", 5).space],
            "dba2816f79d7cbbe881d55e9719da82b8673a907e25453140a73dac9bf03b538",
        ),
    ],
    ids=["rp2^3", "criterion-4-corpus", "map-cc-5"],
)
def test_triangulations_are_pinned(sets, digest):
    # computed at 20a5d9d; simplex ids, faces and their order are frozen
    assert _triangulations_sha256(sets()) == digest


# -- simplicial maps -------------------------------------------------------------


def reference_commutes(m):
    """The map check through the general action of the oracle alone: every
    face of every image, degenerate or not, is computed by `simplicial_act`."""
    for cell, d in m.source.cells.items():
        image = m.assignment[cell]
        if m.target.dim_of(image) != d:
            return False
        for j in range(d + 1) if d else ():
            ref = m.source.faces[(cell, j)]
            img = m.assignment[ref.base]
            s = surj_from_collapse(ref.degens, d - 1)
            s_img = surj_from_collapse(img.degens, m.source.cells[ref.base])
            rhs = SimplexRef(collapse_of_surj(mono_compose(s_img, s)), img.base)
            if simplicial_act(m.target, image, delta_face(d, j)) != rhs:
                return False
    return True


def assert_verdict(m, commutes):
    assert reference_commutes(m) is commutes
    if commutes:
        assert m.validate() is True
    else:
        with pytest.raises(ValidationError, match="map does not commute with face"):
            m.validate()


def point():
    return SimplicialSet({"p": 0}, {}, name="pt")


def james_map(tri, J, assignment):
    return SimplicialMap(tri, J, {sid: nd(cell) for sid, cell in assignment.items()})


@pytest.mark.parametrize("bound", range(1, 5))
def test_james_map_stored_faces_match_action(bound):
    _, tri, J, assignment = james_translation(bound)
    for sid, d in tri.cells.items():
        image = nd(assignment[sid])
        for j in range(d + 1) if d else ():
            assert J.faces[(image.base, j)] == simplicial_act(J, image, delta_face(d, j))
    assert_verdict(james_map(tri, J, assignment), True)
    assert is_isomorphism(tri, J, assignment)


def test_james_map_with_swapped_images_fails():
    # the renaming check of compare_with_james refuses each swap, and so
    # does the map route
    _, tri, J, assignment = james_translation(3)
    assert is_isomorphism(tri, J, assignment)
    for d in range(1, 4):
        x, y = [sid for sid, e in tri.cells.items() if e == d][:2]
        assert J.faces_of(assignment[x]) != J.faces_of(assignment[y])
        swapped = dict(assignment, **{x: assignment[y], y: assignment[x]})
        assert is_isomorphism(tri, J, swapped) is False
        assert_verdict(james_map(tri, J, swapped), False)


def test_compare_with_james_refuses_a_translation_that_is_no_isomorphism():
    trunc, tri, J, assignment = james_translation(2)
    assert compare_with_james(2)["pass"]
    x, y = [sid for sid, e in tri.cells.items() if e == 1][:2]
    swapped = dict(assignment, **{x: assignment[y], y: assignment[x]})
    with mock.patch.object(james_compare, "james_translation", return_value=(trunc, tri, J, swapped)):
        with pytest.raises(ValidationError, match="does not commute with faces"):
            compare_with_james(2)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cells: cells.pop("J[e2]"), r"^translated simplex J\[e2\] missing from James side$"),
        (lambda cells: cells.update({"J[e2]": 2}), r"^dimension clash translating \S+$"),
    ],
    ids=["missing-cell", "dimension-clash"],
)
def test_james_translation_refuses_a_doctored_james_side(edit, message):
    def doctored(*args):
        J = james(*args)
        cells = dict(J.cells)
        edit(cells)
        return SimplicialSet(cells, name=J.name, rows=J.rows)

    with mock.patch.object(james_compare, "james", doctored):
        with pytest.raises(ValidationError, match=message):
            james_translation(1)


def test_james_translation_refuses_a_doubly_hit_cell():
    # every vertex translated to the unit, the empty word
    translate = james_compare.translate_simplex

    def to_unit(groups, chain, tokens):
        return "J[]" if len(chain) == 1 else translate(groups, chain, tokens)

    with mock.patch.object(james_compare, "translate_simplex", to_unit):
        with pytest.raises(ValidationError, match=r"^translation not injective at J\[\]$"):
            james_translation(1)


def test_collapse_to_a_point():
    D1 = standard_simplex(1)
    m = SimplicialMap(D1, point(), {"0": nd("p"), "1": nd("p"), "0.1": SimplexRef((0,), "p")})
    assert_verdict(m, True)
    # a triangulation with degenerate faces, every cell sent to the point
    T = triangulate(tensor(projective_plane(), projective_plane()))
    assert any(r.degens for r in T.faces.values())
    collapse = {c: SimplexRef(tuple(range(d)), "p") for c, d in T.cells.items()}
    assert_verdict(SimplicialMap(T, point(), collapse), True)


def test_degenerate_images():
    D1, D2 = standard_simplex(1), standard_simplex(2)
    # the surjection [2] -> [1] sending 2 to 1
    good = {
        "0": nd("0"),
        "1": nd("1"),
        "2": nd("1"),
        "0.1": nd("0.1"),
        "0.2": nd("0.1"),
        "1.2": SimplexRef((0,), "1"),
        "0.1.2": SimplexRef((1,), "0.1"),
    }
    assert_verdict(SimplicialMap(D2, D1, good), True)
    assert_verdict(SimplicialMap(D2, D1, dict(good, **{"0.1.2": SimplexRef((0,), "0.1")})), False)
    wrong = {"0": nd("0"), "1": nd("1"), "0.1": SimplexRef((0,), "0")}
    assert_verdict(SimplicialMap(D1, D1, wrong), False)


def test_map_with_missing_or_unknown_image_is_invalid():
    D1 = standard_simplex(1)
    with pytest.raises(ValidationError, match="no assignment for 0.1"):
        SimplicialMap(D1, point(), {"0": nd("p"), "1": nd("p")}).validate()
    unknown = {"0": nd("p"), "1": nd("q"), "0.1": SimplexRef((0,), "p")}
    with pytest.raises(ValidationError, match="image of 1 is unknown target cell q"):
        SimplicialMap(D1, point(), unknown).validate()


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


def tensor_complexes(A: ChainComplex, B: ChainComplex, name: str = "") -> ChainComplex:
    """Tensor product with the Koszul sign: d(a@b) = da@b + (-1)^|a| a@db.
    Degree d lists the blocks A_p x B_q with p + q = d, each pair (a, b)
    ordered by a, then b."""
    basis = {}
    start = {}  # (p, q) -> position of the block A_p x B_q in degree p + q
    for p, abasis in A.basis.items():
        for q, bbasis in B.basis.items():
            items = basis.setdefault(p + q, [])
            start[(p, q)] = len(items)
            items.extend((a, b) for a in abasis for b in bbasis)
    boundary = {}
    for (p, q) in start:
        sign = -1 if p % 2 else 1
        columns = boundary.setdefault(p + q, [])
        for a, da in enumerate(A.boundary[p]):
            for b, db in enumerate(B.boundary[q]):
                column = {start[(p - 1, q)] + ta * B.rank(q) + b: v for ta, v in da.items()}
                column.update(
                    {start[(p, q - 1)] + a * B.rank(q - 1) + tb: sign * v for tb, v in db.items()}
                )
                columns.append(column)
    return ChainComplex(basis, boundary, name=name)


def by_label(columns, sources, targets) -> dict:
    """Columns rendered back to labels: {source label: {target label: coefficient}}."""
    return {s: {targets[i]: v for i, v in column.items()} for s, column in zip(sources, columns)}


def reference_entries(X, sign) -> dict:
    """The elimination input built the way earlier releases built it: chains
    keyed by cell id, re-keyed to basis positions per degree."""
    basis = {d: list(X.by_dim(d)) for d in range(X.dim_bound + 1) if X.by_dim(d)}
    index = {d: {c: i for i, c in enumerate(cells)} for d, cells in basis.items()}
    out = {}
    for d, cells in basis.items():
        if d == 0 or d - 1 not in basis:
            continue
        signed = [(i, sign(*i)) for i in X.face_indices(d)]
        entries = {}
        for c in cells:
            chain = {}
            for i, s in signed:
                ref = X.faces[(c, *i)]
                if not ref.degens:
                    chain[ref.base] = chain.get(ref.base, 0) + s
            for target, v in chain.items():
                if v:
                    entries[(index[d - 1][target], index[d][c])] = v
        out[d] = entries
    return out


def _rp2_power(k):
    X = projective_plane()
    for _ in range(k - 1):
        X = tensor(X, projective_plane())
    return X


_CUBICAL_SIGN = lambda k, eps: (-1) ** k * (1 if eps else -1)
_SIMPLICIAL_SIGN = lambda j: (-1) ** j

_ELIMINATION_FIXTURES = {
    **{f"cube{n}": (lambda n=n: standard_cube(n)) for n in range(5)},
    **{f"boundary{n}": (lambda n=n: boundary(n)[0]) for n in range(2, 6)},
    **{f"rp2^{k}": (lambda k=k: _rp2_power(k)) for k in range(1, 4)},
    "triangulated-rp2^2": lambda: triangulate(_rp2_power(2)),
    "james-wedge-3": lambda: james(wedge_of_intervals(2), "w", 3),
    "james-circle-5": lambda: james(circle(), "v", 5),
}


@pytest.mark.parametrize("fixture", list(_ELIMINATION_FIXTURES))
def test_elimination_input_matches_reference(fixture):
    X = _ELIMINATION_FIXTURES[fixture]()
    simplicial = isinstance(X, SimplicialSet)
    C = (simplicial_chains if simplicial else cubical_chains)(X)
    reference = reference_entries(X, _SIMPLICIAL_SIGN if simplicial else _CUBICAL_SIGN)
    assert sorted(C.basis) == list(range(X.dim_bound + 1))
    assert C.boundary[0] == [{}] * C.rank(0)
    for d in range(1, X.dim_bound + 1):
        # item for item and in order, so the elimination pivots as before
        assert list(sparse_entries(C.boundary[d]).items()) == list(reference[d].items())


# -- the sweep against per-degree elimination ------------------------------------


def unreduced_homology(C, eliminate) -> HomologyReport:
    """The homology report with every boundary matrix eliminated whole, on
    its own, by `eliminate(columns, rows)`: the route before the sweep."""
    factors = {
        d: eliminate(C.boundary[d], C.rank(d - 1))
        for d in range(1, C.top_degree + 1)
        if C.rank(d) and C.rank(d - 1)
    }
    entries = []
    for d in range(C.top_degree + 1):
        betti = C.rank(d) - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        torsion = tuple(sorted(f for f in factors.get(d + 1, ()) if f > 1))
        entries.append((d, betti, torsion))
    return HomologyReport(tuple(entries))


def _sparse_factors(columns, rows):
    return invariant_factors_sparse(sparse_entries(columns))


def _dense_factors(columns, rows):
    return smith_normal_form([[column.get(i, 0) for column in columns] for i in range(rows)]).diag


_SWEEP_FIXTURES = {
    **_ELIMINATION_FIXTURES,  # rp2^1 is the three-cell RP2
    "klein-bottle": klein_bottle,
    "moore-mod3": moore_space_mod3,
}


@pytest.mark.parametrize("fixture", list(_SWEEP_FIXTURES))
def test_sweep_matches_unreduced_elimination(fixture):
    X = _SWEEP_FIXTURES[fixture]()
    C = (simplicial_chains if isinstance(X, SimplicialSet) else cubical_chains)(X)
    report = homology(C)
    assert report == unreduced_homology(C, _sparse_factors)
    if all(C.rank(d - 1) * C.rank(d) <= 20_000 for d in C.basis):
        assert report == unreduced_homology(C, _dense_factors)


def _elementary_report(summands) -> tuple:
    """The report of a direct sum of elementary complexes: ("Z", d) is Z in
    degree d, and ("K", d, k) is Z --k--> Z from degree d to d - 1.  Torsion
    is read as invariant factors, through the dense oracle."""
    top = max(s[1] for s in summands)
    entries = []
    for d in range(top + 1):
        betti = sum(1 for s in summands if s == ("Z", d))
        orders = [s[2] for s in summands if s[0] == "K" and s[1] == d + 1 and s[2] > 1]
        diagonal = [[k if r == c else 0 for c in range(len(orders))] for r, k in enumerate(orders)]
        torsion = tuple(f for f in smith_normal_form(diagonal).diag if f > 1) if orders else ()
        entries.append((d, betti, torsion))
    return tuple(entries)


@st.composite
def elementary_complexes(draw):
    """A direct sum of elementary complexes in degrees 0..4, with each degree
    conjugated by a random unimodular basis change, as (complex, report).
    Replacing the basis vector e_a by e_a + c e_b adds c times column b to
    column a of ∂_d and subtracts c times row a from row b of ∂_(d+1); a
    swap exchanges the two columns and the two rows."""
    summands = draw(st.lists(
        st.one_of(
            st.tuples(st.just("Z"), st.integers(0, 4)),
            st.tuples(st.just("K"), st.integers(1, 4), st.sampled_from([1, 2, 3, 4, 6])),
        ),
        min_size=1, max_size=8,
    ))
    top = max(s[1] for s in summands)
    rank = dict.fromkeys(range(top + 2), 0)
    M = {d: {} for d in range(1, top + 2)}  # degree -> {(row, col): value}
    for s in summands:
        if s[0] == "K":
            M[s[1]][(rank[s[1] - 1], rank[s[1]])] = s[2]
            rank[s[1] - 1] += 1
        rank[s[1]] += 1
    dense = {
        d: [[M[d].get((i, j), 0) for j in range(rank[d])] for i in range(rank[d - 1])]
        for d in range(1, top + 2)
    }
    for op, d, a, b, c in draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "swap"]), st.integers(0, top),
            st.integers(0, 7), st.integers(0, 7), st.sampled_from([1, -1, 2, -2, 3]),
        ),
        max_size=40,
    )):
        if rank[d] < 2:
            continue
        a, b = a % rank[d], b % rank[d]
        if a == b:
            continue
        below, above = dense.get(d, []), dense[d + 1]
        if op == "add":
            for row in below:
                row[a] += c * row[b]
            above[b] = [x - c * y for x, y in zip(above[b], above[a])]
        else:
            for row in below:
                row[a], row[b] = row[b], row[a]
            above[a], above[b] = above[b], above[a]
    basis = {d: [f"e{d}.{t}" for t in range(rank[d])] for d in range(top + 1)}
    boundary = {
        d: [{i: row[j] for i, row in enumerate(dense[d]) if row[j]} for j in range(rank[d])]
        for d in range(1, top + 1)
    }
    C = ChainComplex(basis, boundary)
    C.validate()
    return C, _elementary_report(summands)


@settings(max_examples=200, deadline=None)
@given(elementary_complexes())
def test_homology_of_conjugated_elementary_complexes(built):
    C, want = built
    assert homology(C).entries == want
    assert homology(C) == unreduced_homology(C, _sparse_factors)


def test_sweep_pairs_nothing_across_an_empty_degree():
    # the edge a pairs with the vertex p; degree 2 is empty, so the rows
    # of ∂_4 (positions of 3-cells) must not lose position 0 to that pairing
    C = ChainComplex(
        {0: ["p"], 1: ["a"], 3: ["t"], 4: ["f"]}, {1: [{0: 1}], 4: [{0: 2}]}
    )
    C.validate()
    assert groups(homology(C)) == [(0, ()), (0, ()), (0, ()), (0, (2,)), (0, ())]

def test_pivots_after_a_divisible_pivot_pair_their_columns():
    # ∂_1 over 0-cells p, q, s and 1-cells a, u, w: the row of p, the
    # shortest, has no unit and pivots on its 2 in column a, which divides
    # its row and column; that turns q into u + w, which pivots on u.  The
    # rows of ∂_1 vanish on z = -a - u + w, and ∂_2(e) = 2z.
    boundary = {
        1: [{0: 2, 1: 2}, {1: 1, 2: 1}, {0: 2, 1: 3, 2: 1}],
        2: [{0: -2, 1: -2, 2: 2}],
    }
    C = ChainComplex({0: ["p", "q", "s"], 1: ["a", "u", "w"], 2: ["e"]}, boundary)
    C.validate()
    order = []
    divisible = snf._divisible_pivot

    def spy(row, rows, cols):
        j = divisible(row, rows, cols)
        order.append((j, set(paired)))
        return j

    paired = set()
    with mock.patch.object(snf, "_divisible_pivot", spy):
        assert invariant_factors_sparse(sparse_entries(boundary[1]), paired) == [1, 2]
    assert order == [(0, set())]
    # both pair: the divisible pivot's column a, and u, taken after it; so
    # ∂_2 is eliminated without the rows a and u, as the 1 x 1 matrix (2)
    assert paired == {0, 1}
    assert groups(homology(C)) == [(1, (2,)), (0, (2,)), (0, ())]
    assert homology(C) == unreduced_homology(C, _dense_factors)

def test_validate_refuses_position_out_of_range():
    for column in ({0: 1, 2: -1}, {-1: 1}, {"a": 1}):
        C = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: [column]})
        with pytest.raises(ValidationError, match="outside"):
            C.validate()
    C = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: [{1: 1, 0: -1}, {}]})
    with pytest.raises(ValidationError, match="columns"):
        C.validate()


def test_validate_refuses_nonzero_dd():
    basis = {0: ["a", "b"], 1: ["e"], 2: ["s"]}
    ChainComplex(basis, {1: [{1: 1, 0: -1}], 2: [{}]}).validate()
    with pytest.raises(ValidationError, match="d∘d != 0 at s"):
        ChainComplex(basis, {1: [{1: 1, 0: -1}], 2: [{0: 1}]}).validate()


def test_chain_map_validate_refuses_non_commuting_map():
    interval = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: [{1: 1, 0: -1}]})
    unit = point_complex()
    ChainMap(interval, unit, {0: [{0: 1}, {0: 1}]}).validate()
    with pytest.raises(ValidationError, match="fails to commute at e"):
        ChainMap(interval, unit, {0: [{0: 1}, {}]}).validate()
    with pytest.raises(ValidationError, match="outside"):
        ChainMap(unit, interval, {0: [{2: 1}]}).validate()


def test_tensor_complex_matches_tensor_of_sets():
    X = boundary(2)[0]
    Y = standard_cube(1)
    CT = tensor_complexes(cubical_chains(X), cubical_chains(Y))
    CT.validate()
    T = tensor(X, Y)
    assert homology(CT) == homology(cubical_chains(T))


def test_mapping_cone_of_identity_is_acyclic():
    C = cubical_chains(boundary(2)[0])
    ident = ChainMap(C, C, {d: [{i: 1} for i in range(C.rank(d))] for d in C.basis})
    ident.validate()
    cone = mapping_cone(ident)
    cone.validate()
    assert is_acyclic(cone)


def test_mapping_cone_detects_non_equivalence():
    C = cubical_chains(standard_cube(0))
    D = cubical_chains(boundary(2)[0])
    # include the point onto one vertex of the circle: H1 differs
    f = ChainMap(C, D, {0: [{D.basis[0].index("00"): 1}]})
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
