import hashlib
import importlib
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

from cubeworks.chains import homology, simplicial_chains
from cubeworks.cubical import CubicalSet, boundary
from cubeworks.errors import GuardError, ValidationError
from cubeworks.james import _count_cells, james, word_token
from cubeworks.presented import degenerate, divide
from cubeworks.simplicial import (
    SimplexRef,
    SimplicialSet,
    circle,
    nd,
    standard_simplex,
    wedge_of_intervals,
)
from cubeworks.triangulate import triangulate
from action_oracle import (
    collapse_of_surj,
    delta_face,
    mono_compose,
    simplicial_act,
    surj_from_collapse,
)
from james_splitting import invariant_factors, james_splitting_groups
from random_sets import cubical_sets
from test_homology import groups, klein_bottle, moore_space_mod3, projective_plane

james_module = importlib.import_module("cubeworks.james")


def point_based():
    return SimplicialSet({"p": 0}, {}, name="pt")


def pinched_triangle():
    """A loop e at u, a triangle t whose 0-th face is the degenerate edge at
    u, and a separate vertex v: faces of words in t are degenerate."""
    X = SimplicialSet(
        {"v": 0, "u": 0, "e": 1, "t": 2},
        {
            ("e", 0): nd("u"),
            ("e", 1): nd("u"),
            ("t", 0): SimplexRef((0,), "u"),
            ("t", 1): nd("e"),
            ("t", 2): nd("e"),
        },
        name="pinched",
    )
    X.validate()
    return X


# -- reference builder -----------------------------------------------------------


def _section(surj):
    """First-occurrence section of a surjection tuple."""
    sec = []
    seen = set()
    for i, v in enumerate(surj):
        if v not in seen:
            seen.add(v)
            sec.append(i)
    return tuple(sec)


def divide_letter(ref: SimplexRef, T, d: int) -> SimplexRef:
    """The division that `james` used before `presented.divide`, kept as
    the reference: factor the degeneracy of ref through the common
    surjection s_T, so that s_{ref} = s_{ref'} o s_T (ambient dimension d)."""
    if not T:
        return ref
    s = surj_from_collapse(ref.degens, d)
    sec = _section(surj_from_collapse(T, d))
    s_rest = mono_compose(s, sec)
    return SimplexRef(collapse_of_surj(s_rest), ref.base)


def test_divide_matches_reference_and_inverts_degenerate():
    X = standard_simplex(3)
    checked = 0
    for n in range(6):
        for ref in X.refs_of_dim(n):
            for size in range(len(ref.degens) + 1):
                for T in combinations(ref.degens, size):
                    divided = divide(ref, T, n, 0)
                    assert divided == divide_letter(ref, T, n)
                    assert degenerate(divided, T, n, 0) == ref
                    checked += 1
    assert checked > 1000


def normalize_word(word, d: int):
    """EZ normal form of a word of X_d elements: (common collapse set,
    divided word)."""
    common = set(range(d))
    for ref in word:
        common &= set(ref.degens)
    T = tuple(sorted(common))
    return T, tuple(divide_letter(r, T, d) for r in word)


def james_reference(X, base: str, bound: int, max_dim: int = None) -> SimplicialSet:
    """The James builder on letters as SimplexRefs: every face of every word
    goes through the general action of `action_oracle`, is normalized letter
    by letter and is looked up by its rendered token.  Oracle for the
    integer-coded `james`."""
    if isinstance(X, CubicalSet):
        from cubeworks.triangulate import triangulate

        X = triangulate(X)
        base = f"{base}#"
    if max_dim is None:
        max_dim = bound

    cells = {}
    words_of = {}
    for d in range(max_dim + 1):
        letters = sorted(r for r in X.refs_of_dim(d) if r.base != base)
        if d and not letters:
            continue
        max_gap = max((d - len(r.degens) for r in letters), default=0)
        found = []

        def rec(word, inter, budget):
            if not inter:
                found.append(tuple(word))
            if budget == 0:
                return
            for ref in letters:
                new_inter = inter & set(ref.degens) if inter else inter
                if len(new_inter) > (budget - 1) * max_gap:
                    continue
                word.append(ref)
                rec(word, new_inter, budget - 1)
                word.pop()

        rec([], set(range(d)), bound)
        for w in found:
            if d > 0 and not w:
                continue
            wid = word_token(w)
            cells[wid] = d
            words_of[wid] = w

    faces = {}
    for wid, w in words_of.items():
        d = cells[wid]
        if d == 0:
            continue
        for j in range(d + 1):
            f = delta_face(d, j)
            new_letters = []
            for ref in w:
                img = simplicial_act(X, ref, f)
                if img.base != base:
                    new_letters.append(img)
            if not new_letters:
                faces[(wid, j)] = SimplexRef(tuple(range(d - 1)), word_token(()))
                continue
            T, divided = normalize_word(new_letters, d - 1)
            fid = word_token(divided)
            assert fid in cells, f"face of {wid} left the truncation window"
            faces[(wid, j)] = SimplexRef(T, fid)
    return SimplicialSet(cells, faces, name=f"J({X.name})@{bound}")


@pytest.mark.parametrize(
    "make, base, bound, max_dim",
    [(lambda: wedge_of_intervals(2), "w", L, None) for L in range(5)]
    + [(circle, "v", L, 3) for L in range(7)]
    + [
        (point_based, "p", 3, None),
        (pinched_triangle, "v", 3, None),
        (pinched_triangle, "u", 3, None),
        (lambda: wedge_of_intervals(3), "w", 2, 4),
        (lambda: boundary(2)[0], "00", 3, None),
    ],
)
def test_james_matches_reference(make, base, bound, max_dim):
    J = james(make(), base, bound, max_dim)
    R = james_reference(make(), base, bound, max_dim)
    assert J.name == R.name
    assert list(J.cells.items()) == list(R.cells.items())
    assert list(J.faces.items()) == list(R.faces.items())


@settings(deadline=None)
@given(cubical_sets(), st.data())
def test_james_matches_reference_on_random_sets(X, data):
    # random cubical sets, triangulated inside both builders; the bound is
    # the largest up to the drawn one whose window has at most 1,500 cells,
    # so that the reference stays quick
    base = data.draw(st.sampled_from(sorted(c for c, d in X.cells.items() if d == 0)))
    max_dim = data.draw(st.integers(0, 2))
    bound = data.draw(st.integers(0, 3))
    T = triangulate(X)
    while bound and _count_cells(T, f"{base}#", bound, max_dim)[0] > 1500:
        bound -= 1
    J = james(X, base, bound, max_dim)
    R = james_reference(X, base, bound, max_dim)
    event("degenerate faces", payload=sum(1 for r in J.faces.values() if r.degens))
    assert list(J.cells.items()) == list(R.cells.items())
    assert list(J.faces.items()) == list(R.faces.items())


def faces_sha256(X):
    """SHA-256 of the repr of each face item, in order, as
    `scripts/ladder.py --hash` computes it."""
    digest = hashlib.sha256()
    for item in X.faces.items():
        digest.update(repr(item).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "make, base, bound, max_dim, cells, digest",
    [
        (
            lambda: wedge_of_intervals(2), "w", 5, None,
            {0: 63, 1: 1302, 2: 6664, 3: 13488, 4: 11904, 5: 3840},
            "232e692248c3eee6b4060edfbf2881459029e2d8975a45425337c715a3cafe14",
        ),
        (
            circle, "v", 7, 4,
            {0: 1, 1: 7, 2: 240, 3: 2538, 4: 10224},
            "1ea357d1e910d5f9d3f9562fe8e83607c2f0023933aa1f22a08f2240d2d6b8e3",
        ),
        (
            # 260 letters in dimension 1: codes past Latin-1
            lambda: wedge_of_intervals(130), "w", 2, 1,
            {0: 17031, 1: 50830},
            "96c546a1746bdcb145afbbee6fee6203b129321c8122cab0789125500729dfc2",
        ),
    ],
)
def test_james_faces_are_pinned(make, base, bound, max_dim, cells, digest):
    J = james(make(), base, bound, max_dim)
    assert J.cell_counts() == cells
    assert faces_sha256(J) == digest


def test_james_refuses_more_letters_than_codes(monkeypatch):
    # the wedge of two intervals has 2 letters in dimension 0 and 4 in 1
    def no_ids(ref):
        raise AssertionError("a cell id was rendered")

    monkeypatch.setattr(james_module, "MAX_LETTERS", 3)
    monkeypatch.setattr(james_module, "_letter_token", no_ids)
    refusal = r"^James construction: dimension 1 has 4 letters, more than the 3 codes of a string$"
    with pytest.raises(GuardError, match=refusal):
        james(wedge_of_intervals(2), "w", 2)
    monkeypatch.undo()
    monkeypatch.setattr(james_module, "MAX_LETTERS", 4)
    assert james(wedge_of_intervals(2), "w", 2, 1).cell_counts() == {0: 7, 1: 14}


def test_james_takes_letters_once_and_guards_them_first(monkeypatch):
    # the wedge of two intervals has 7 cells of dimension 0 at bound 2 and
    # 4 letters in dimension 1: the letter refusal comes before the count
    # passes a budget of 10, and each dimension's letters are taken once
    X = wedge_of_intervals(2)
    calls = Counter()
    real = type(X).refs_of_dim

    def counting(self, d):
        calls[d] += 1
        return real(self, d)

    monkeypatch.setattr(type(X), "refs_of_dim", counting)
    monkeypatch.setattr(james_module, "CELL_BUDGET", 10)
    monkeypatch.setattr(james_module, "MAX_LETTERS", 3)
    refusal = r"^James construction: dimension 1 has 4 letters, more than the 3 codes of a string$"
    with pytest.raises(GuardError, match=refusal):
        james(X, "w", 2)
    assert calls == {0: 1, 1: 1}
    # dimension 2 has 6 letters, all degenerate
    monkeypatch.setattr(james_module, "CELL_BUDGET", 29)
    monkeypatch.setattr(james_module, "MAX_LETTERS", 6)
    calls.clear()
    assert james(X, "w", 2).cell_counts() == {0: 7, 1: 14, 2: 8}
    assert calls == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("base, unit", [("v", False), ("u", True)])
def test_james_degenerate_faces_are_divided(base, unit):
    # the reference comparison above covers these faces only if they occur
    J = james(pinched_triangle(), base, 3)
    degenerate = {r for r in J.faces.values() if r.degens}
    assert any(r.base != "J[]" for r in degenerate)
    assert any(r.base == "J[]" for r in degenerate) == unit
    J.validate()


@pytest.mark.parametrize("bound, max_dim", [(-1, None), (2, -1)])
def test_james_negative_window_refused(bound, max_dim):
    with pytest.raises(ValidationError):
        james(circle(), "v", bound, max_dim=max_dim)


@pytest.mark.parametrize(
    "make, base",
    [(lambda: wedge_of_intervals(2), "e1"), (circle, "z"), (lambda: boundary(2)[0], "0*")],
    ids=["an-edge", "no-cell", "a-cubical-edge"],
)
def test_james_basepoint_must_be_a_vertex(make, base):
    with pytest.raises(ValidationError, match="^basepoint must be a vertex$"):
        james(make(), base, 2)


def test_james_point_is_point():
    J = james(point_based(), "p", 4)
    assert J.cell_counts() == {0: 1}


def test_james_wedge_small_validates():
    W = wedge_of_intervals(2)
    J = james(W, "w", 2)
    J.validate()


def test_james_circle_small_validates():
    J = james(circle(), "v", 3)
    J.validate()


def test_james_wedge_counts():
    # letters in dimension d: 2d + 2; words with empty common degeneracy
    W = wedge_of_intervals(2)
    J = james(W, "w", 5)
    counts = J.cell_counts()
    assert counts[0] == 63  # 62 nonempty words plus the unit
    assert counts[1] == 1302
    assert counts[2] == 6664
    assert counts[3] == 13488
    assert counts[4] == 11904
    assert counts[5] == 3840


def test_james_wedge_contractible_low_degrees():
    W = wedge_of_intervals(2)
    J = james(W, "w", 3)
    rep = homology(simplicial_chains(J))
    assert rep.betti(0) == 1
    for d in (1, 2):
        assert rep.betti(d) == 0 and not rep.torsion(d)


def test_james_circle_low_degrees():
    J = james(circle(), "v", 3)
    rep = homology(simplicial_chains(J))
    for d in (0, 1, 2):
        assert rep.betti(d) == 1 and not rep.torsion(d)


@pytest.mark.slow
def test_james_wedge_contractible_L5():
    W = wedge_of_intervals(2)
    J = james(W, "w", 5)
    rep = homology(simplicial_chains(J))
    assert rep.betti(0) == 1
    for d in range(1, 5):
        assert rep.betti(d) == 0 and not rep.torsion(d), d


@pytest.mark.slow
def test_james_circle_L5():
    J = james(circle(), "v", 5)
    rep = homology(simplicial_chains(J))
    for d in range(5):
        assert rep.betti(d) == 1 and not rep.torsion(d), d


# -- the James splitting as a second route -------------------------------------


def test_splitting_oracle_on_known_groups():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 2, 3, 1]) == (2, 12)
    rp2 = [(1, ()), (0, (2,)), (0, ())]
    # RP2 ∧ RP2 has H̃_2 = Z/2 ⊗ Z/2 and H̃_3 = Tor(Z/2, Z/2); J_1 is X itself
    assert james_splitting_groups(rp2, 1, 4) == rp2 + [(0, ())]
    assert james_splitting_groups(rp2, 2, 5) == [(1, ()), *[(0, (2,))] * 3, (0, ())]
    # J S^1 = ΩS^2 has Z in every degree; J_L S^1 stops at degree L
    assert james_splitting_groups([(1, ()), (1, ())], 3, 6) == [(1, ())] * 4 + [(0, ())] * 2


def _splitting_matches(X, base, L, max_dim, top):
    got = homology(simplicial_chains(james(X, base, L, max_dim)))
    want = james_splitting_groups(groups(homology(simplicial_chains(X))), L, top)
    assert (groups(got) + [(0, ())] * top)[:top] == want, (X.name, L)
    return got


@pytest.mark.parametrize("L", range(1, 6))
def test_james_circle_and_wedge_match_splitting(L):
    # a 1-dimensional X gives a J_L X of dimension L, so the default cap
    # max_dim = L drops nothing and every degree is compared
    _splitting_matches(circle(), "v", L, None, L + 1)
    if L <= 4:
        _splitting_matches(wedge_of_intervals(2), "w", L, None, L + 1)


@pytest.mark.parametrize("L", [2, 3])
def test_james_rp2_matches_splitting_below_the_cap(L):
    # Z/2 in degree 1 of RP2 gives tensor and Tor terms in every smash power
    T = triangulate(projective_plane())
    got = _splitting_matches(T, "v#", L, 4, 4)
    if L == 3:
        # the cap degree gains the cycles whose bounding 5-cells are not built
        assert groups(got)[4] == (1440, ())


@pytest.mark.parametrize("build", [klein_bottle, moore_space_mod3])
def test_james_torsion_fixtures_match_splitting(build):
    T = triangulate(build())
    _splitting_matches(T, "v#", 2, 4, 4)
    _splitting_matches(T, "v#", 3, 3, 3)

