"""The vertex-first map search, kept as the second route for
`cubical.enumerate_maps`, `extend_map` and `kan_check`.  `extend_map`
itself lives here too, as no library code calls it: it extends a partial
assignment by the search from the top, `cubical._extensions`.

The vertex-first search assigns every cell of the source in (dimension,
id) order, vertices first, and tries each element of the target of the
cell's dimension in `refs_of_dim` order, keeping those whose faces agree
with the images of the cell's faces.  So it lists the maps in the order `enumerate_maps`
promises, but costs about |Y_0|^v partial maps for a source with v
vertices: use it on small inputs only."""

from cubeworks.cubical import CubicalMap, _extensions, open_box, standard_cube
from cubeworks.errors import ValidationError


def _fits(X, Y, c, faces, assign):
    """Whether an element of Y whose faces, in face-index order, are
    ``faces`` can be the image of cell c of X, given the images in
    ``assign`` of the bases of the faces of c."""
    for image_face, fr in zip(faces, X.faces_of(c)):
        if image_face != Y.degenerate(assign[fr.base], fr.degens):
            return False
    return True


def _search(X, Y, assign, order):
    """Every extension of ``assign`` to the cells ``order``, in order."""
    candidates = {
        d: [(ref, [Y.face_of(ref, *i) for i in Y.face_indices(d)]) for ref in Y.refs_of_dim(d)]
        for d in {X.cells[c] for c in order}
    }

    def rec(i):
        if i == len(order):
            yield dict(assign)
            return
        c = order[i]
        for ref, faces in candidates[X.cells[c]]:
            if _fits(X, Y, c, faces, assign):
                assign[c] = ref
                yield from rec(i + 1)
                del assign[c]

    return rec(0)


def reference_maps(X, Y) -> list:
    order = sorted(X.cells, key=lambda c: (X.cells[c], c))
    return [CubicalMap(X, Y, a) for a in _search(X, Y, {}, order)]


def reference_extension(whole, Y, partial_map, missing):
    order = sorted(missing, key=lambda c: (whole.cells[c], c))
    first = next(_search(whole, Y, dict(partial_map), order), None)
    return None if first is None else CubicalMap(whole, Y, first)


def reference_kan_check(X, max_dim: int) -> dict:
    """The `kan_check` report, from the vertex-first search."""
    report = {"max_dim": max_dim, "families": [], "pass": True, "witness": None}
    for n in range(1, max_dim + 1):
        cube_n = standard_cube(n)
        top = "*" * n
        for k in range(1, n + 1):
            for eps in (0, 1):
                box, _ = open_box(n, k, eps)
                removed = top[: k - 1] + str(1 - eps) + top[k:]
                maps = reference_maps(box, X)
                filled = 0
                failing = None
                for m in maps:
                    if reference_extension(cube_n, X, m.assignment, [removed, top]):
                        filled += 1
                    elif failing is None:
                        failing = {c: repr(ref) for c, ref in sorted(m.assignment.items())}
                report["families"].append(
                    {"n": n, "k": k, "eps": eps, "boxes": len(maps), "filled": filled}
                )
                if failing is not None and report["witness"] is None:
                    report["witness"] = {"n": n, "k": k, "eps": eps, "box_map": failing}
                if filled < len(maps):
                    report["pass"] = False
    return report


def extend_map(whole, Y, partial_map: dict, missing):
    """Find one extension of a partial assignment (on the subobject) to the
    listed missing cells of `whole`, or None.  Cell ids of the subobject must
    coincide with their images in `whole`.  Every cell of `whole` must be
    assigned or missing, and nothing else may be."""
    unknown = (partial_map.keys() | set(missing)) - whole.cells.keys()
    if unknown:
        raise ValidationError(f"cell {min(unknown)} is not a cell of the whole set")
    order = sorted(missing, key=lambda c: (whole.cells[c], c))
    for c in order:
        for fr in whole.faces_of(c):
            if fr.base not in partial_map and fr.base not in order:
                raise ValidationError(
                    f"face {fr.base} of missing cell {c} is neither assigned nor missing"
                )
    unplaced = whole.cells.keys() - partial_map.keys() - set(order)
    if unplaced:
        raise ValidationError(f"cell {min(unplaced)} is neither assigned nor missing")
    first = next(_extensions(whole, Y, partial_map, order, None, {}), None)
    return None if first is None else CubicalMap(whole, Y, first)
