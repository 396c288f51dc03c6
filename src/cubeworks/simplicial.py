"""Finite simplicial sets with the same normal-form discipline as the cubical
side: only non-degenerate simplices are stored, and every element is a
SimplexRef (canonical degeneracy word applied to a non-degenerate base).

Monotone maps between finite ordinals are represented as value tuples;
degeneracy words are the collapse sets of canonical surjections.  Faces of
degenerate elements follow the simplicial identities; `act` is built on them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import CELL_BUDGET, GuardError, ValidationError
from .presented import CellRef, PresentedMap, PresentedSet, degenerate, nd


SimplexRef = CellRef


class SimplicialSet(PresentedSet):
    """A finite simplicial set presented by its non-degenerate simplices and
    their faces.  Face indices are (j,): the vertex j from 0 that a face
    misses, at position j of a face row."""

    kind = "simplicial_set"
    face_fields = ("j",)
    index_base = 0

    @staticmethod
    @lru_cache(maxsize=None)
    def face_indices(d: int) -> tuple:
        return tuple((j,) for j in range(d + 1)) if d else ()

    def face_of(self, ref: SimplexRef, *i) -> SimplexRef:
        """The face i = (j,) of an element, by the simplicial identities.  If
        vertex j shares its image with a neighbour (j or j - 1 in the word),
        the face drops that position from the word; otherwise it is the face
        of the base at the image of j, under the word renumbered past j."""
        j = self.face_position(ref, i)
        degens, base = ref
        if not degens:
            return self.rows[base][j]
        t = j if j in degens else j - 1
        word = tuple(d - 1 if d > t else d for d in degens if d != t)
        if t in degens:  # the image of vertex j is still hit
            return SimplexRef(word, base)
        below = sum(d < j for d in degens)
        return degenerate(self.rows[base][j - below], word, self.dim_of(ref) - 1, 0)

    def act(self, ref: SimplexRef, f) -> SimplexRef:
        """Presheaf action of the monotone map f (a value tuple into
        [dim_of(ref)]) on ref: the faces at the vertices f misses, last
        first, then the degeneracy at the positions where f repeats a value."""
        n = self.dim_of(ref)
        if max(f, default=0) > n or len(f) == 0:
            raise ValidationError("monotone map does not match element dimension")
        for v in sorted(set(range(n + 1)).difference(f), reverse=True):
            ref = self.face_of(ref, v)
        return self.degenerate(ref, tuple(p for p in range(len(f) - 1) if f[p] == f[p + 1]))


SimplicialMap = PresentedMap


def standard_simplex(n: int) -> SimplicialSet:
    """Δ^n; its 2^(n+1) - 1 cells are counted first against CELL_BUDGET."""
    if n >= CELL_BUDGET.bit_length() or 2 ** (n + 1) - 1 > CELL_BUDGET:
        raise GuardError(f"{n}-simplex of more than {CELL_BUDGET} cells exceeds budget")
    cells, rows = {}, {}
    for k in range(n + 1):
        for verts in combinations(range(n + 1), k + 1):
            cid = ".".join(map(str, verts))
            cells[cid] = k
            subs = [verts[:j] + verts[j + 1 :] for j in range(k + 1)] if k else ()
            rows[cid] = tuple([nd(".".join(map(str, sub))) for sub in subs])
    return SimplicialSet(cells, name=f"delta{n}", rows=rows)


def circle() -> SimplicialSet:
    """Delta^1 with its endpoints identified: one vertex, one edge."""
    return SimplicialSet({"v": 0, "s": 1}, name="circle", rows={"v": (), "s": (nd("v"), nd("v"))})


def wedge_of_intervals(count: int = 2) -> SimplicialSet:
    """Intervals glued at a common basepoint `w`; the free end of interval i
    is `a{i}` and its edge is `e{i}`.  The free end sits at vertex position 0
    (matching the cubical homotopy cells, whose 0-end carries the composite
    and whose 1-end carries the identity).  Its 2 * count + 1 cells are
    counted first against CELL_BUDGET."""
    if 2 * count + 1 > CELL_BUDGET:
        raise GuardError(f"wedge of {2 * count + 1} cells exceeds budget {CELL_BUDGET}")
    cells, rows = {"w": 0}, {"w": ()}
    for i in range(1, count + 1):
        cells[f"a{i}"], rows[f"a{i}"] = 0, ()
        cells[f"e{i}"], rows[f"e{i}"] = 1, (nd("w"), nd(f"a{i}"))
    return SimplicialSet(cells, name=f"wedge{count}", rows=rows)
