"""Hypothesis strategies for small random cubical sets.

A set is a standard cube glued by up to three pushouts (`cubical.pushout`) with
further standard cubes.  Each pushout X <- A -> C glues a cube C of
dimension at most 3 along a small A: a cube or the boundary of a cube of
dimension at most 2.  Both legs are drawn from `enumerate_maps` under its
default guard, so a leg may be a face inclusion (attaching a cell), a
boundary inclusion (attaching along a sphere), or a map onto a cube of lower
dimension (a collapse, which leaves degenerate faces behind)."""

import hypothesis.strategies as st

from cubeworks.cubical import boundary, enumerate_maps, pushout, standard_cube

SOURCES = [standard_cube(0), standard_cube(1), boundary(1)[0], standard_cube(2), boundary(2)[0]]


@st.composite
def cubical_sets(draw):
    X = standard_cube(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        A = draw(st.sampled_from(SOURCES))
        C = standard_cube(draw(st.integers(0, 3)))
        into_x = draw(st.sampled_from(enumerate_maps(A, X)))
        into_c = draw(st.sampled_from(enumerate_maps(A, C)))
        X, _, _ = pushout(into_x, into_c)
    return X
