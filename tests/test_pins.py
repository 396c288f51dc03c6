"""Answers frozen at f7a3e81, one SHA-256 each: a refactor of the face
store, the builders or the elimination must leave them unchanged."""

import hashlib

from cubeworks.chains import cubical_chains, homology, simplicial_chains
from cubeworks.cubical import boundary, open_box, standard_cube, tensor
from cubeworks.triangulate import triangulate
from test_homology import projective_plane
from test_james import faces_sha256


def _criterion_3_generators():
    """The eight generators whose 64 tensors are criterion 3's inner pairs."""
    cube = [standard_cube(n) for n in range(3)]
    return [
        *cube,
        boundary(1)[0],
        boundary(2)[0],
        boundary(3)[0],
        open_box(2, 2, 1)[0],
        open_box(3, 1, 0)[0],
    ]


def test_criterion_3_inner_tensors_are_pinned():
    # cells and faces, in order, of X (x) Y for every ordered pair of generators
    gens = _criterion_3_generators()
    digest = hashlib.sha256()
    for X in gens:
        for Y in gens:
            T = tensor(X, Y)
            digest.update(repr(list(T.cells.items())).encode())
            digest.update(faces_sha256(T).encode())
    assert digest.hexdigest() == (
        "375071f43d2ceb52e4c7175eff731f1d2dff9e8b889a755da15173022fd3d797"
    )


def _rp2_power(k):
    T = projective_plane()
    for _ in range(k - 1):
        T = tensor(T, projective_plane())
    return T


def test_torsion_homology_reports_are_pinned():
    # the torsion workload's inputs with their own cell ids: RP2^3 and RP2^7
    # cubical, RP2^3 triangulated, the boundary of the 6-cube both ways
    rp2_3, rp2_7 = _rp2_power(3), _rp2_power(7)
    s5 = boundary(6)[0]
    reports = [
        homology(cubical_chains(rp2_3)),
        homology(cubical_chains(rp2_7)),
        homology(simplicial_chains(triangulate(rp2_3))),
        homology(cubical_chains(s5)),
        homology(simplicial_chains(triangulate(s5))),
    ]
    text = repr([report.entries for report in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "67025b60244c1ff243aca0deca3f5b9b977a5c6b91cb87ec997ba3bdae611d0f"
    )
