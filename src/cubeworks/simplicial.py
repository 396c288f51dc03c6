"""Finite simplicial sets with the same normal-form discipline as the cubical
side: only non-degenerate simplices are stored, and every element is a
SimplexRef (canonical degeneracy word applied to a non-degenerate base).

Monotone maps between finite ordinals are represented as value tuples;
degeneracy words are the collapse sets of canonical surjections.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import CELL_BUDGET, GuardError, ValidationError
from .presented import CellRef, PresentedMap, PresentedSet, nd


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
    misses, at position j of a face row."""

    kind = "simplicial_set"
    face_fields = ("j",)
    index_base = 0
    face_map = staticmethod(delta_face)

    @staticmethod
    @lru_cache(maxsize=None)
    def face_indices(d: int) -> tuple:
        return tuple((j,) for j in range(d + 1)) if d else ()

    def act(self, ref: SimplexRef, f) -> SimplexRef:
        """Presheaf action of the monotone map f (a value tuple into
        [dim_of(ref)]) on the element ref."""
        n = self.dim_of(ref)
        if max(f, default=0) > n or len(f) == 0:
            raise ValidationError("monotone map does not match element dimension")
        s = surj_from_collapse(ref.degens, n)
        g = mono_compose(s, f)
        mono, epi = epi_mono_factor(g)
        z = self._apply_injection(ref.base, mono)
        total = mono_compose(surj_from_collapse(z.degens, max(epi)), epi)
        return SimplexRef(collapse_of_surj(total), z.base)

    def _apply_injection(self, cell: str, mono) -> SimplexRef:
        """Action of an injective monotone map [k] -> [m] on a non-degenerate
        m-simplex, peeling elementary faces through the stored data."""
        m = self.cells[cell]
        if len(mono) == m + 1:
            return nd(cell)
        missed = max(v for v in range(m + 1) if v not in set(mono))
        step = self.rows[cell][missed]
        rest = tuple(v if v < missed else v - 1 for v in mono)
        return self.act(step, rest)


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
