"""Sets presented by non-degenerate cells and face data.

Cubical and simplicial sets share one presentation: a table of
non-degenerate cells with their dimensions, one face reference per cell and
face index, and elements written as a canonical degeneracy word applied to a
non-degenerate base cell.  The two kinds differ only in how a face index
looks, where indices start, and how the presheaf action rewrites elements;
subclasses supply those.  Everything that reads the presentation alone
(cell tables, coproducts, isomorphism search) lives here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class CellRef:
    """A possibly-degenerate element: degeneracy word applied to a base cell.

    ``degens`` lists, in ascending order, the directions collapsed by the
    degeneracy (coordinate directions from 1 for cubes, collapse positions
    from 0 for simplices); the element lives in dimension
    dim(base) + len(degens).
    """

    degens: tuple
    base: str

    def __repr__(self):
        if not self.degens:
            return f"<{self.base}>"
        return f"<s{list(self.degens)}.{self.base}>"


def nd(cell: str) -> CellRef:
    return CellRef((), cell)


class PresentedSet:
    """A finite presheaf presented by its non-degenerate cells and faces.

    Subclasses set ``kind`` (the JSON kind tag), ``face_fields`` (the names
    of the parts of a face index), ``index_base`` (the first coordinate
    direction and first face index: 1 for cubes, 0 for simplices) and
    ``face_indices(d)``, the face indices of a d-cell in canonical order.
    Face data is keyed by ``(cell, *index)``.
    """

    kind = ""
    face_fields = ()
    index_base = 0

    def __init__(self, cells: dict, faces: dict, name: str = ""):
        self.cells = dict(cells)  # cell id -> dimension
        self.faces = dict(faces)  # (cell id, *face index) -> CellRef
        self.name = name
        self._by_dim = None
        self._act_cache = {}

    @staticmethod
    def face_indices(d: int) -> tuple:
        raise NotImplementedError

    @property
    def dim_bound(self) -> int:
        return max(self.cells.values(), default=-1)

    def by_dim(self, d: int):
        if self._by_dim is None:
            table = {}
            for c, cd in self.cells.items():
                table.setdefault(cd, []).append(c)
            for cs in table.values():
                cs.sort()
            self._by_dim = table
        return self._by_dim.get(d, [])

    def cell_counts(self) -> dict:
        return dict(Counter(self.cells.values()))

    def dim_of(self, ref: CellRef) -> int:
        return self.cells[ref.base] + len(ref.degens)

    def refs_of_dim(self, d: int):
        """All elements of dimension d, degenerate ones included."""
        base = self.index_base
        out = []
        for e in range(d + 1):
            for c in self.by_dim(e):
                for degens in combinations(range(base, d + base), d - e):
                    out.append(CellRef(degens, c))
        return out

    def faces_of(self, cell: str) -> list:
        """The faces of a non-degenerate cell, in face-index order."""
        faces = self.faces
        return [faces[(cell, *i)] for i in self.face_indices(self.cells[cell])]

    def validate(self):
        """Check that every face key is present and well formed and that each
        face lies one dimension down, then the subclass's face identities."""
        for key, ref in self.faces.items():
            cell = key[0]
            if cell not in self.cells:
                raise ValidationError(f"face data on unknown cell {cell}")
            if ref.base not in self.cells:
                raise ValidationError(f"face of {cell} points at unknown {ref.base}")
            d = self.cells[cell]
            if key[1:] not in self.face_indices(d):
                raise ValidationError(f"bad face key {key}")
            if self.dim_of(ref) != d - 1:
                raise ValidationError(f"face of {cell} has wrong dimension")
        for cell, d in self.cells.items():
            for i in self.face_indices(d):
                if (cell, *i) not in self.faces:
                    raise ValidationError(f"missing face {(cell, *i)}")
            self._check_identities(cell, d)
        return True

    def _check_identities(self, cell: str, d: int):
        raise NotImplementedError

    def __repr__(self):
        counts = self.cell_counts()
        body = ", ".join(f"{counts[d]}x{d}" for d in sorted(counts))
        return f"{type(self).__name__}({self.name or 'anon'}: {body})"


def disjoint_union(X: PresentedSet, Y: PresentedSet) -> PresentedSet:
    """The coproduct of two sets of the same kind; cells of X are prefixed
    ``l:`` and cells of Y ``r:``."""
    if type(X) is not type(Y):
        raise ValidationError("disjoint union of sets of different kinds")
    cells = {}
    faces = {}
    for tag, Z in (("l", X), ("r", Y)):
        for c, d in Z.cells.items():
            cells[f"{tag}:{c}"] = d
        for (c, *i), ref in Z.faces.items():
            faces[(f"{tag}:{c}", *i)] = CellRef(ref.degens, f"{tag}:{ref.base}")
    return type(X)(cells, faces, name=f"{X.name}+{Y.name}")


# -- isomorphism search ----------------------------------------------------------


def _wl_colors(X: PresentedSet, face_refs: dict, rounds: int = 3):
    """Weisfeiler-Leman colour refinement over the face data.  A colour is
    (dimension, rank of the cell's signature among all signatures), with
    signatures ordered as tuples, so isomorphic sets get the same colours."""
    color = {c: (d,) for c, d in X.cells.items()}
    for _ in range(rounds):
        sig = {
            c: (color[c], tuple((r.degens, color[r.base]) for r in refs))
            for c, refs in face_refs.items()
        }
        palette = {s: n for n, s in enumerate(sorted(set(sig.values())))}
        color = {c: (X.cells[c], palette[s]) for c, s in sig.items()}
    return color


def find_isomorphism(X: PresentedSet, Y: PresentedSet):
    """Explicit search for a structure-preserving bijection on non-degenerate
    cells of two sets of the same kind.  Returns the bijection dict or None."""
    if type(X) is not type(Y) or X.cell_counts() != Y.cell_counts():
        return None
    fx = {c: X.faces_of(c) for c in X.cells}
    fy = {c: Y.faces_of(c) for c in Y.cells}
    cx, cy = _wl_colors(X, fx), _wl_colors(Y, fy)
    if Counter(cx.values()) != Counter(cy.values()):
        return None
    by_color = {}
    for c, col in cy.items():
        by_color.setdefault(col, []).append(c)
    for cs in by_color.values():
        cs.sort()
    order = sorted(X.cells, key=lambda c: (-X.cells[c], c))
    fwd, bwd = {}, {}

    def propagate(x, y, trail):
        """Assign x -> y and force face assignments; returns False on clash."""
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if a in fwd:
                if fwd[a] != b:
                    return False
                continue
            if b in bwd or cx[a] != cy[b]:
                return False
            fwd[a] = b
            bwd[b] = a
            trail.append((a, b))
            for ra, rb in zip(fx[a], fy[b]):
                if ra.degens != rb.degens:
                    return False
                stack.append((ra.base, rb.base))
        return True

    def rec(i):
        while i < len(order) and order[i] in fwd:
            i += 1
        if i == len(order):
            return True
        x = order[i]
        for y in by_color[cx[x]]:
            if y in bwd:
                continue
            trail = []
            if propagate(x, y, trail) and rec(i + 1):
                return True
            for a, b in trail:
                del fwd[a]
                del bwd[b]
        return False

    if rec(0):
        return dict(fwd)
    return None
