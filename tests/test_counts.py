"""Cell counts made before building, checked against the builds, and the
cell budgets that the counts feed."""

import importlib
import io
import time
from collections import Counter
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings

from cubeworks import cubical, enriched, simplicial
from cubeworks.cli import main
from cubeworks.cubical import CubicalSet, standard_cube, tensor
from cubeworks.enriched import (
    _build,
    _count_words,
    build_E,
    build_H,
    build_P,
    homotopy_category,
    mapping_space,
)
from cubeworks.errors import GuardError
from cubeworks.james import _count_cells, james
from cubeworks.james_compare import localized_E
from cubeworks.simplicial import circle, standard_simplex, wedge_of_intervals
from cubeworks.triangulate import triangulate
from random_sets import cubical_sets
from test_enriched import GUARD, _loop_behind_two_edges, _zero_weight_loop
from test_homology import klein_bottle, moore_space_mod3, projective_plane

james_module = importlib.import_module("cubeworks.james")

PRESENTATIONS = {"P": build_P, "H": build_H, "E": build_E, "EL": localized_E}


# -- counts against builds --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_word_counts_match_builds(name):
    # the count at each bound against the words of one build at 7, and
    # against the cells of the builds up to bound 5
    pres = PRESENTATIONS[name]()
    for x in pres.objects:
        for y in pres.objects:
            for max_dim in (None, 1):
                space, _, weights = _build(pres, x, y, 7, max_dim=max_dim)
                for b in range(8):
                    want = Counter(
                        (wt, space.cells[c]) for c, wt in weights.items() if wt <= b
                    )
                    assert _count_words(pres, x, y, b, max_dim) == want, (x, y, b, max_dim)
                    if b <= 5:
                        by_dim = Counter()
                        for (_, d), n in want.items():
                            by_dim[d] += n
                        assert _build(pres, x, y, b, max_dim)[0].cell_counts() == by_dim


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_stable_dims_match_the_build_at_bound_plus_one(name):
    # stable_dims from the count at bound + 1, against the builds at bound
    # and at bound + 1
    pres = PRESENTATIONS[name]()
    for x in pres.objects:
        for y in pres.objects:
            for b in range(5):
                small, large = (_build(pres, x, y, c)[0].cell_counts() for c in (b, b + 1))
                want = {d for d in large if small.get(d) == large[d]}
                assert mapping_space(pres, x, y, b).stable_dims == want, (x, y, b)


JAMES_CASES = [
    (circle, "v", 5, None),
    (lambda: wedge_of_intervals(2), "w", 4, None),
    (projective_plane, "v", 2, 3),
    (klein_bottle, "v", 2, 3),
    (moore_space_mod3, "v", 2, 3),
]


@pytest.mark.parametrize("make, base, bound, max_dim", JAMES_CASES)
def test_james_counts_match_builds(make, base, bound, max_dim):
    # the cubical fixtures are triangulated first, and counted after that
    X = make()
    J = james(X, base, bound, max_dim)
    if isinstance(X, CubicalSet):
        X, base = triangulate(X), f"{base}#"
    assert _count_cells(X, base, bound, bound if max_dim is None else max_dim)[0] == len(J.cells)


@settings(deadline=None)
@given(cubical_sets(), cubical_sets())
def test_tensor_counts_match_builds(X, Y):
    assert len(tensor(X, Y).cells) == len(X.cells) * len(Y.cells)


# -- budgets ----------------------------------------------------------------------


def test_word_budget_names_the_count(monkeypatch):
    pres = localized_E()
    monkeypatch.setattr(enriched, "CELL_BUDGET", 5460)
    with pytest.raises(GuardError, match=r"^Map\(c,c\)@6 of 5461 cells exceeds budget 5460$"):
        _build(pres, "c", "c", 6)
    monkeypatch.setattr(enriched, "CELL_BUDGET", 5461)
    assert len(_build(pres, "c", "c", 6)[1]) == 5461
    # a capped build counts only the dimensions it builds
    assert sum(_count_words(pres, "c", "c", 6, max_dim=1).values()) == 769


def test_word_length_guard_comes_before_the_budget(monkeypatch):
    # an endless zero-weight walk is refused with the word-length guard,
    # whatever the budget
    monkeypatch.setattr(enriched, "CELL_BUDGET", 0)
    for pres, x, top in ((_zero_weight_loop(), "x", 0), (_loop_behind_two_edges(), "w", 2)):
        with pytest.raises(GuardError, match=f"^{GUARD}$"):
            _build(pres, x, "x", top)
        with pytest.raises(GuardError, match=f"^{GUARD}$"):
            _count_words(pres, x, "x", top)
    for bound in (0, 2):
        with pytest.raises(GuardError, match=f"^{GUARD}$"):
            _build(_zero_weight_loop(), "x", "x", bound)
        with pytest.raises(GuardError, match=f"^{GUARD}$"):
            mapping_space(_zero_weight_loop(), "x", "x", bound)
    with pytest.raises(GuardError, match=f"^{GUARD}$"):
        homotopy_category(_zero_weight_loop(), 0)


def test_james_budget(monkeypatch):
    assert _count_cells(circle(), "v", 3, 3)[0] == 18
    monkeypatch.setattr(james_module, "CELL_BUDGET", 17)
    with pytest.raises(
        GuardError, match=r"^James construction of more than 17 cells exceeds budget$"
    ):
        james(circle(), "v", 3)
    monkeypatch.setattr(james_module, "CELL_BUDGET", 18)
    assert james(circle(), "v", 3).cell_counts() == {0: 1, 1: 3, 2: 8, 3: 6}


def test_james_count_stops_past_the_budget(monkeypatch):
    # counted in full, the circle at bound 20 walks up to 2^20 degeneracy
    # masks in dimension 20; the count stops once it passes the budget, in
    # dimension 2, so a large bound is refused at once
    assert _count_cells(wedge_of_intervals(2), "w", 6, 6)[0] == 636685
    assert _count_cells(circle(), "v", 20, 20)[0] == 1048557
    start = time.perf_counter()
    with pytest.raises(GuardError, match=r"^James construction of more than 1000000 cells"):
        james(circle(), "v", 40)
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(james_module, "CELL_BUDGET", 10**8)
    assert _count_cells(wedge_of_intervals(2), "w", 7, 7)[0] == 12743693


def test_simplicial_spec_budgets(monkeypatch):
    monkeypatch.setattr(simplicial, "CELL_BUDGET", 15)
    assert len(standard_simplex(3).cells) == 15
    with pytest.raises(GuardError, match=r"^4-simplex of more than 15 cells exceeds budget$"):
        standard_simplex(4)
    monkeypatch.setattr(simplicial, "CELL_BUDGET", 5)
    assert len(wedge_of_intervals(2).cells) == 5
    with pytest.raises(GuardError, match=r"^wedge of 7 cells exceeds budget 5$"):
        wedge_of_intervals(3)


def test_tensor_budget_refuses_before_building(monkeypatch):
    def no_cell(*_):
        raise AssertionError("a cell was built")

    sq = standard_cube(2)
    monkeypatch.setattr(cubical, "CELL_BUDGET", 80)
    monkeypatch.setattr(cubical, "nd", no_cell)
    monkeypatch.setattr(cubical, "_pair_id", no_cell)
    with pytest.raises(GuardError, match=r"^tensor of 81 cells exceeds budget 80$"):
        tensor(sq, sq)


def _cli(*argv):
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue(), time.perf_counter() - start


def test_cli_large_mapping_space_is_refused_at_once(tmp_path):
    code, err, seconds = _cli(
        "--workspace", str(tmp_path), "enriched", "map-space", "E", "c", "c", "--bound", "40"
    )
    assert code == 3 and seconds < 1
    assert "296011017105 cells exceeds budget 1000000" in err


def test_cli_large_james_is_refused_at_once(tmp_path):
    code, err, seconds = _cli("--workspace", str(tmp_path), "james", "wedge:2", "--bound", "7")
    assert code == 3 and seconds < 1
    assert "James construction of more than 1000000 cells exceeds budget" in err


@pytest.mark.parametrize(
    "space, bound, message",
    [
        ("delta:40", "2", "40-simplex of more than 1000000 cells exceeds budget"),
        ("wedge:5000000", "1", "wedge of 10000001 cells exceeds budget 1000000"),
    ],
)
def test_cli_large_simplicial_spec_is_refused_at_once(tmp_path, space, bound, message):
    # the spec's own cells are counted before it is built
    code, err, seconds = _cli("--workspace", str(tmp_path), "james", space, "--bound", bound)
    assert code == 3 and seconds < 1
    assert message in err
