"""Hypothesis strategies for small random cubical sets.

A set is a standard cube glued by up to three pushouts (`cubical.pushout`) with
further standard cubes.  Each pushout X <- A -> C glues a cube C of
dimension at most 3 along a small A: a cube or the boundary of a cube of
dimension at most 2.  Both legs are drawn from `enumerate_maps`, so a leg
may be a face inclusion (attaching a cell), a boundary inclusion (attaching
along a sphere), or a map onto a cube of lower dimension (a collapse, which
leaves degenerate faces behind)."""

import hypothesis.strategies as st

from cubeworks.cubical import boundary, enumerate_maps, pushout, standard_cube

SOURCES = [standard_cube(0), standard_cube(1), boundary(1)[0], standard_cube(2), boundary(2)[0]]

# enumerate_maps assigns every vertex of A before any edge, so a source with
# v vertices costs about |X_0|^v partial maps; keep that small
MAX_VERTEX_MAPS = 1000


@st.composite
def cubical_sets(draw):
    X = standard_cube(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        vertices = len(X.by_dim(0))
        sources = [A for A in SOURCES if vertices ** len(A.by_dim(0)) <= MAX_VERTEX_MAPS]
        A = draw(st.sampled_from(sources))
        C = standard_cube(draw(st.integers(0, 3)))
        into_x = draw(st.sampled_from(enumerate_maps(A, X, guard=10**12)))
        into_c = draw(st.sampled_from(enumerate_maps(A, C, guard=10**12)))
        X, _, _ = pushout(into_x, into_c)
    return X
