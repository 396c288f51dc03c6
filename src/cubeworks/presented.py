"""Sets presented by non-degenerate cells and face data.

Cubical and simplicial sets share one presentation: a table of
non-degenerate cells with their dimensions, one face reference per cell and
face index, and elements written as the ``(degens, base)`` tuple `CellRef`
of a canonical degeneracy word applied to a non-degenerate base cell.  The
two kinds differ only in how a face index looks, where indices start, and
which face-degeneracy identities give the faces of a degenerate element;
subclasses supply those.  Everything that reads the presentation alone
lives here: cell tables, the degeneracy rule, maps, validation, coproducts
and isomorphism search.  The face of a non-degenerate element is read from
the stored faces.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, repeat
from operator import lt
from types import MappingProxyType
from typing import NamedTuple

from .errors import ValidationError, bulk


class CellRef(NamedTuple):
    """A possibly-degenerate element: the ``(degens, base)`` tuple of a
    degeneracy word applied to a base cell, hashed and ordered as that tuple.

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


def _free(taken, n: int, base: int) -> list:
    """The directions of dimension n, counted from base, not in taken."""
    return [i for i in range(base, n + base) if i not in taken]


def degenerate(ref: CellRef, extra, n: int, base: int) -> CellRef:
    """The element ref with the further degeneracy word ``extra`` applied, in
    ambient dimension n: the directions of ref.degens are renumbered onto the
    directions that extra leaves free.  One rule for cubes (base 1) and
    simplices (base 0)."""
    if not extra:
        return ref
    rest = _free(extra, n, base)
    return CellRef(tuple(sorted([*extra, *(rest[d - base] for d in ref.degens)])), ref.base)


def divide(ref: CellRef, common, n: int, base: int) -> CellRef:
    """The inverse of `degenerate`: the element whose degeneracy by the
    directions ``common`` (all among ref.degens) is ref, in ambient
    dimension n."""
    if not common:
        return ref
    rest = _free(common, n, base)
    kept = (rest.index(d) + base for d in ref.degens if d not in common)
    return CellRef(tuple(kept), ref.base)


@lru_cache(maxsize=None)
def _identity_positions(face_indices, d: int) -> tuple:
    """The face identities of a d-cell as (b, a, shifted) positions among the
    faces of a cell, in the order `_check_identities` checks them."""
    at = {i: n for n, i in enumerate(face_indices(d))}
    return tuple((at[b], at[a], at[(b[0] - 1, *b[1:])]) for b in at for a in at if a[0] < b[0])


class PresentedSet:
    """A finite presheaf presented by its non-degenerate cells and faces.

    Subclasses set ``kind`` (the JSON kind tag), ``face_fields`` (the names
    of the parts of a face index), ``index_base`` (the first coordinate
    direction and first face index: 1 for cubes, 0 for simplices) and
    ``face_indices(d)``, the face indices of a d-cell in canonical order
    (those of a (d - 1)-cell first, so an index has one position in every
    dimension).  They supply ``face_of(ref, *index)``, the face of any
    element, and the presheaf action ``act(ref, f)`` of a morphism of their
    site, composed of faces and one degeneracy.

    The face data is one read-only table, ``rows``: each cell's faces as one
    tuple in face-index order.  The keyed form ``faces``, by ``(cell,
    *index)``, is a read-only view derived from it on first read.  A set
    given keyed faces turns them into rows as it is built (`fill_rows`).
    """

    kind = ""
    face_fields = ()
    index_base = 0

    def __init__(self, cells: dict, faces: dict = None, name: str = "", *, rows: dict = None):
        if (faces is None) == (rows is None):
            raise TypeError("a presented set takes exactly one of faces and rows")
        if faces is not None:
            rows = self.fill_rows(cells, faces.items())
        self.cells = MappingProxyType(dict(cells))  # cell id -> dimension
        self.rows = MappingProxyType(dict(rows))  # cell id -> faces in face-index order
        self.name = name
        self._faces = None
        self._by_dim = None

    @classmethod
    def fill_rows(cls, cells: dict, items) -> dict:
        """The rows of keyed face items ``((cell, *index), ref)``: each face
        fills its slot.  The first face on an unknown cell, under a key that
        is no face index of its cell or under a key already given is
        refused, and then the first slot left empty, as a missing face."""
        at = {d: {i: n for n, i in enumerate(cls.face_indices(d))} for d in set(cells.values())}
        slots = {c: [None] * len(at[d]) for c, d in cells.items()}
        for key, ref in items:
            row = slots.get(key[0])
            if row is None:
                raise ValidationError(f"face data on unknown cell {key[0]}")
            n = at[cells[key[0]]].get(key[1:])
            if n is None:
                raise ValidationError(f"bad face key {key}")
            if row[n] is not None:
                raise ValidationError(f"face {key} given twice")
            row[n] = ref
        for c, row in slots.items():
            if None in row:
                index = cls.face_indices(cells[c])[row.index(None)]
                raise ValidationError(f"missing face {(c, *index)}")
        return {c: tuple(row) for c, row in slots.items()}

    @property
    def faces(self):
        """(cell id, *face index) -> CellRef; derived from rows, in their order."""
        if self._faces is None:
            self._faces = self._derive_faces()
        return self._faces

    @bulk
    def _derive_faces(self):
        cells, rows = self.cells, self.rows
        # the face indices of each dimension as columns, zipped into keys
        at = {d: tuple(zip(*self.face_indices(d))) for d in set(cells.values())}
        items = (zip(zip(repeat(c), *at[cells[c]]), row) for c, row in rows.items())
        return MappingProxyType(dict(chain.from_iterable(items)))

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

    def faces_of(self, cell: str) -> tuple:
        """The faces of a non-degenerate cell, in face-index order."""
        return self.rows[cell]

    def face_position(self, ref: CellRef, i: tuple) -> int:
        """The position of face index i in ref's face row; refuses any other i."""
        n = self.dim_of(ref)
        try:
            return self.face_indices(n).index(i)
        except ValueError:
            raise ValidationError(f"{i} is no face index of dimension {n}") from None

    def degenerate(self, ref: CellRef, extra) -> CellRef:
        """Apply a further degeneracy word (directions in the larger
        dimension) to an element."""
        return degenerate(ref, extra, self.dim_of(ref) + len(extra), self.index_base)

    def check_shape(self):
        """Check that every row sits on a known cell and has one face per face
        index, and that each face lies one dimension down on a known base
        under a degeneracy word that is strictly increasing and within the
        face's dimension.  This is the first half of `validate`.  Each
        dimension's row lengths and distinct faces are checked first; only a
        fault there (or a face that does not hash) walks the faces in order,
        so that the refusal names the first."""
        base, cells, rows = self.index_base, self.cells, self.rows
        if rows.keys() - cells.keys():
            raise ValidationError(f"face data on unknown cell {min(rows.keys() - cells.keys())}")
        if cells.keys() - rows.keys():
            raise ValidationError(f"no face row for {min(cells.keys() - rows.keys())}")

        def fault(cell, d, i, ref) -> str:
            """The refusal of face i of the d-cell cell, or ''."""
            degens, b = ref
            e = cells.get(b)
            if e is None:
                return f"face of {cell} points at unknown {b}"
            if e + len(degens) != d - 1:
                return f"face of {cell} has wrong dimension"
            if degens and not (
                base <= degens[0] and degens[-1] < d - 1 + base and all(map(lt, degens, degens[1:]))
            ):
                return f"face {(cell, *i)} has a bad degeneracy word {list(degens)}"
            return ""

        groups = {}  # dimension -> the rows of its cells
        for c, d in cells.items():
            groups.setdefault(d, []).append(rows[c])
        try:  # a face that does not hash or unpack is left to the walk below
            if not any(
                {len(row) for row in group} != {len(self.face_indices(d))}
                or any(fault(None, d, (), ref) for ref in set(chain.from_iterable(group)))
                for d, group in groups.items()
            ):
                return
        except (TypeError, ValueError):
            pass
        for cell, d in cells.items():
            indices, row = self.face_indices(d), rows[cell]
            if len(row) != len(indices):
                raise ValidationError(f"{cell} has {len(row)} faces for {len(indices)} indices")
            for i, ref in zip(indices, row):
                if message := fault(cell, d, i, ref):
                    raise ValidationError(message)

    def validate(self):
        """Check the shape of the face data, then the face identities."""
        self.check_shape()
        for cell, d in self.cells.items():
            if d >= 2:
                self._check_identities(cell, d, self.rows)
        return True

    def _check_identities(self, cell: str, d: int, rows: dict):
        """The face identities of a d-cell, d >= 2: for face indices a, b with
        a[0] < b[0], face a of face b equals face (b[0] - 1, *b[1:]) of face a.
        These are the cubical (j < k) and simplicial (i < j) identities."""
        own, indices, face_of = rows[cell], self.face_indices(d), self.face_of
        for b, a, shifted in _identity_positions(self.face_indices, d):
            fb, fa = own[b], own[a]
            # `face_of` written out, so that a non-degenerate face costs one
            # lookup and no call
            left = face_of(fb, *indices[a]) if fb.degens else rows[fb.base][a]
            right = face_of(fa, *indices[shifted]) if fa.degens else rows[fa.base][shifted]
            if left != right:
                raise ValidationError(f"face identity fails at {cell}, {indices[a]},{indices[b]}")

    def __repr__(self):
        counts = self.cell_counts()
        body = ", ".join(f"{counts[d]}x{d}" for d in sorted(counts))
        return f"{type(self).__name__}({self.name or 'anon'}: {body})"


def disjoint_union(X: PresentedSet, Y: PresentedSet) -> PresentedSet:
    """The coproduct of two sets of the same kind; cells of X are prefixed
    ``l:`` and cells of Y ``r:``."""
    if type(X) is not type(Y):
        raise ValidationError("disjoint union of sets of different kinds")
    cells, rows = {}, {}
    for tag, Z in (("l", X), ("r", Y)):
        for c, d in Z.cells.items():
            cells[f"{tag}:{c}"] = d
        for c, row in Z.rows.items():
            rows[f"{tag}:{c}"] = tuple([CellRef(r.degens, f"{tag}:{r.base}") for r in row])
    return type(X)(cells, name=f"{X.name}+{Y.name}", rows=rows)


class PresentedMap:
    """A map of presented sets of one kind, stored on non-degenerate cells
    only."""

    def __init__(self, source: PresentedSet, target: PresentedSet, assignment: dict):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)  # source cell id -> CellRef in target

    def apply(self, ref: CellRef) -> CellRef:
        image = self.assignment[ref.base]
        if not ref.degens:
            return image
        if not image.degens:
            return CellRef(ref.degens, image.base)
        return self.target.degenerate(image, ref.degens)

    def validate(self):
        """Check that every cell, and nothing else, has an image of its own
        dimension, that its row and the row of its image's base are full,
        and that the map commutes with every face.  The face of a
        non-degenerate image is read from the target's stored faces, that of
        a degenerate image by `face_of`."""
        source, target = self.source, self.target
        unknown = self.assignment.keys() - source.cells.keys()
        if unknown:
            raise ValidationError(f"assignment for unknown source cell {min(unknown)}")
        for cell, d in source.cells.items():
            image = self.assignment.get(cell)
            if image is None:
                raise ValidationError(f"no assignment for {cell}")
            if image.base not in target.cells:
                raise ValidationError(f"image of {cell} is unknown target cell {image.base}")
            if target.dim_of(image) != d:
                raise ValidationError(f"assignment of {cell} changes dimension")
        target_rows, source_rows, apply = target.rows, source.rows, self.apply
        for cell, d in source.cells.items():
            image, indices = self.assignment[cell], source.face_indices(d)
            row, base_row = source_rows[cell], target_rows[image.base]
            if len(row) != len(indices):
                raise ValidationError(f"{cell} has {len(row)} faces for {len(indices)} indices")
            # a degenerate image's faces are read off its base's row
            n = len(target.face_indices(target.cells[image.base]))
            if len(base_row) != n:
                raise ValidationError(f"image of {cell} has {len(base_row)} faces, not {n}")
            images = [target.face_of(image, *i) for i in indices] if image.degens else base_row
            for i, lhs, ref in zip(indices, images, row):
                if lhs != apply(ref):
                    face = ",".join(map(str, i))
                    raise ValidationError(f"map does not commute with face ({face}) at {cell}")
        return True

    def __repr__(self):
        return f"PresentedMap({self.source!r} -> {self.target!r})"


def is_isomorphism(X: PresentedSet, Y: PresentedSet, bijection: dict) -> bool:
    """Whether ``bijection`` (cell id of X -> cell id of Y) is an isomorphism
    X -> Y: a bijection onto the cells of Y that preserves dimension and
    renames the face rows of X onto those of Y, sending each face
    CellRef(w, b) to CellRef(w, bijection[b]).  For such a
    map, renaming is commuting with every face, its inverse then commutes
    too, and no presheaf action is needed.  The sides need not share ids."""
    if type(X) is not type(Y) or bijection.keys() != X.cells.keys():
        return False
    cells, get = Y.cells, bijection.get
    if len(cells) != len(X.cells) or set(bijection.values()) != cells.keys():
        return False
    if any(cells[get(c)] != d for c, d in X.cells.items()):
        return False
    x_rows, y_rows = X.rows, Y.rows
    if x_rows.keys() != X.cells.keys() or y_rows.keys() != cells.keys():
        return False  # a cell without a row, or a row on no cell
    # a cell outside X renames to None, so a face that names one matches none of Y
    return all(
        y_rows[get(c)] == tuple([(ref.degens, get(ref.base)) for ref in row])
        for c, row in x_rows.items()
    )


# -- isomorphism search ----------------------------------------------------------


def _wl_colors(X: PresentedSet, face_refs: dict):
    """Three rounds of Weisfeiler-Leman colour refinement over the face
    data.  A colour is (dimension, rank of the cell's signature among all
    signatures), with signatures ordered as tuples, so isomorphic sets get
    the same colours."""
    color = {c: (d,) for c, d in X.cells.items()}
    for _ in range(3):
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
    fx, fy = X.rows, Y.rows
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
