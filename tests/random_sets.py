"""Hypothesis strategies for small random cubical sets.

A set is a standard cube glued by up to three pushouts (`cubical.pushout`) with
further standard cubes.  Each pushout X <- A -> C glues a cube C of
dimension at most 3 along a small A: a cube or the boundary of a cube of
dimension at most 2.  Both legs are drawn from `enumerate_maps` under its
default guard, so a leg may be a face inclusion (attaching a cell), a
boundary inclusion (attaching along a sphere), or a map onto a cube of lower
dimension (a collapse, which leaves degenerate faces behind)."""

import hypothesis.strategies as st

from cubeworks.cubical import CubicalMap, boundary, enumerate_maps, pushout, standard_cube

SOURCES = [standard_cube(0), standard_cube(1), boundary(1)[0], standard_cube(2), boundary(2)[0]]


@st.composite
def spans(draw, X):
    """A span X <- A -> C with A drawn from SOURCES and C a standard cube of
    dimension at most 3, as a pair of maps (into X, into C)."""
    A = draw(st.sampled_from(SOURCES))
    C = standard_cube(draw(st.integers(0, 3)))
    into_x = draw(st.sampled_from(enumerate_maps(A, X)))
    into_c = draw(st.sampled_from(enumerate_maps(A, C)))
    return into_x, into_c


@st.composite
def loose_spans(draw, X):
    """A span like `spans`, but with the leg into C drawn cell by cell as an
    assignment that keeps dimensions and need not commute with faces."""
    into_x, into_c = draw(spans(X))
    A, C = into_c.source, into_c.target
    loose = {c: draw(st.sampled_from(C.refs_of_dim(d))) for c, d in A.cells.items()}
    return into_x, CubicalMap(A, C, loose)


@st.composite
def cubical_sets(draw):
    X = standard_cube(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        X, _, _ = pushout(*draw(spans(X)))
    return X
