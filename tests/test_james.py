from math import comb

import pytest

from cubeworks.chains import homology, simplicial_chains
from cubeworks.errors import ValidationError
from cubeworks.james import james
from cubeworks.simplicial import SimplicialSet, circle, nd, wedge_of_intervals


def point_based():
    return SimplicialSet({"p": 0}, {}, name="pt")


@pytest.mark.parametrize("bound, max_dim", [(-1, None), (2, -1)])
def test_james_negative_window_refused(bound, max_dim):
    with pytest.raises(ValidationError):
        james(circle(), "v", bound, max_dim=max_dim)


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
