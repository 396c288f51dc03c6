"""Finite simplicial sets with the same normal-form discipline as the cubical
side: only non-degenerate simplices are stored, and every element is a
SimplexRef (canonical degeneracy word applied to a non-degenerate base).

Monotone maps between finite ordinals are represented as value tuples;
degeneracy words are the collapse sets of canonical surjections.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import ValidationError
from .presented import CellRef, PresentedSet, nd


# -- monotone map plumbing ------------------------------------------------------


def mono_compose(outer, inner):
    """outer o inner as value tuples."""
    return tuple(outer[v] for v in inner)


def delta_face(n, j):
    """The injection [n-1] -> [n] missing j."""
    return tuple(v for v in range(n + 1) if v != j)


def surj_from_collapse(D, n):
    """The surjection [n] ->> [n - |D|] collapsing at the positions in D
    (0-indexed: s(i) = s(i+1) exactly for i in D)."""
    vals = [0]
    for i in range(n):
        vals.append(vals[-1] if i in D else vals[-1] + 1)
    return tuple(vals)


def collapse_of_surj(s):
    return tuple(i for i in range(len(s) - 1) if s[i] == s[i + 1])


def epi_mono_factor(f):
    """Factor a monotone map as injection o surjection; returns (mono, epi)."""
    image = sorted(set(f))
    rank = {v: i for i, v in enumerate(image)}
    epi = tuple(rank[v] for v in f)
    return tuple(image), epi


SimplexRef = CellRef


class SimplicialSet(PresentedSet):
    """A finite simplicial set presented by its non-degenerate simplices and
    their faces.  Face indices are (j,): the vertex j from 0 that a face
    misses."""

    kind = "simplicial_set"
    face_fields = ("j",)
    index_base = 0

    @staticmethod
    @lru_cache(maxsize=None)
    def face_indices(d: int) -> tuple:
        return tuple((j,) for j in range(d + 1)) if d else ()

    def act(self, ref: SimplexRef, f) -> SimplexRef:
        """Presheaf action of the monotone map f (a value tuple into
        [dim_of(ref)]) on the element ref."""
        key = (ref, f)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        n = self.dim_of(ref)
        if max(f, default=0) > n or len(f) == 0:
            raise ValidationError("monotone map does not match element dimension")
        s = surj_from_collapse(ref.degens, n)
        g = mono_compose(s, f)
        mono, epi = epi_mono_factor(g)
        z = self._apply_injection(ref.base, mono)
        total = mono_compose(surj_from_collapse(z.degens, max(epi)), epi)
        out = SimplexRef(collapse_of_surj(total), z.base)
        self._act_cache[key] = out
        return out

    def _apply_injection(self, cell: str, mono) -> SimplexRef:
        """Action of an injective monotone map [k] -> [m] on a non-degenerate
        m-simplex, peeling elementary faces through the stored data."""
        m = self.cells[cell]
        if len(mono) == m + 1:
            return nd(cell)
        missed = max(v for v in range(m + 1) if v not in set(mono))
        step = self.faces[(cell, missed)]
        rest = tuple(v if v < missed else v - 1 for v in mono)
        return self.act(step, rest)

    def _check_identities(self, cell: str, d: int):
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j through the
        # stored data
        if d >= 2:
            for j in range(d + 1):
                for i in range(j):
                    left = self.act(self.faces[(cell, j)], delta_face(d - 1, i))
                    right = self.act(self.faces[(cell, i)], delta_face(d - 1, j - 1))
                    if left != right:
                        raise ValidationError(
                            f"simplicial identity fails at {cell} ({i},{j})"
                        )


class SimplicialMap:
    def __init__(self, source: SimplicialSet, target: SimplicialSet, assignment: dict):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def apply(self, ref: SimplexRef) -> SimplexRef:
        image = self.assignment[ref.base]
        if not image.degens:
            return SimplexRef(ref.degens, image.base)
        if not ref.degens:
            return image
        n = self.source.dim_of(ref)
        base_dim = self.source.cells[ref.base]
        s = surj_from_collapse(ref.degens, n)
        s_img = surj_from_collapse(image.degens, base_dim)
        total = mono_compose(s_img, s)
        return SimplexRef(collapse_of_surj(total), image.base)

    def validate(self):
        """Check that every cell has an image of its own dimension and that
        the map commutes with every face.  The face of a non-degenerate image
        is read from the target's stored faces; a degenerate image goes
        through the presheaf action."""
        source, target = self.source, self.target
        for cell, d in source.cells.items():
            image = self.assignment.get(cell)
            if image is None:
                raise ValidationError(f"no assignment for {cell}")
            if image.base not in target.cells:
                raise ValidationError(f"image of {cell} is unknown target cell {image.base}")
            if target.dim_of(image) != d:
                raise ValidationError(f"assignment of {cell} changes dimension")
        target_faces, source_faces = target.faces, source.faces
        for cell, d in source.cells.items():
            if d == 0:
                continue
            image = self.assignment[cell]
            for j in range(d + 1):
                if image.degens:
                    lhs = target.act(image, delta_face(d, j))
                else:
                    lhs = target_faces[(image.base, j)]
                rhs = self.apply(source_faces[(cell, j)])
                if lhs != rhs:
                    raise ValidationError(f"map fails to commute with face {j} at {cell}")
        return True


def standard_simplex(n: int) -> SimplicialSet:
    cells = {}
    faces = {}
    for k in range(n + 1):
        for verts in combinations(range(n + 1), k + 1):
            cid = ".".join(map(str, verts))
            cells[cid] = k
            for j in range(k + 1):
                sub = verts[:j] + verts[j + 1 :]
                if sub:
                    faces[(cid, j)] = nd(".".join(map(str, sub)))
    return SimplicialSet(cells, faces, name=f"delta{n}")


def circle() -> SimplicialSet:
    """Delta^1 with its endpoints identified: one vertex, one edge."""
    return SimplicialSet(
        {"v": 0, "s": 1},
        {("s", 0): nd("v"), ("s", 1): nd("v")},
        name="circle",
    )


def wedge_of_intervals(count: int = 2) -> SimplicialSet:
    """Intervals glued at a common basepoint `w`; the free end of interval i
    is `a{i}` and its edge is `e{i}`.  The free end sits at vertex position 0
    (matching the cubical homotopy cells, whose 0-end carries the composite
    and whose 1-end carries the identity)."""
    cells = {"w": 0}
    faces = {}
    for i in range(1, count + 1):
        cells[f"a{i}"] = 0
        cells[f"e{i}"] = 1
        faces[(f"e{i}", 0)] = nd("w")
        faces[(f"e{i}", 1)] = nd(f"a{i}")
    return SimplicialSet(cells, faces, name=f"wedge{count}")
