"""The tensor as it was built before it was built by columns: pair by pair,
each row assembled by two generators over the faces of x and of y.  It is
the second route for `cubical.tensor`, compared cell for cell, row for row,
in order, and by name.  The cell budget and the collector pause are left
out."""

from cubeworks.cubical import CellRef, CubicalSet, _pair_id, nd
from cubeworks.errors import ValidationError


def tensor_by_pairs(X, Y):
    refs = {x: {y: nd(_pair_id(x, y)) for y in Y.cells} for x in X.cells}
    y_faces = [(y, dy, [(r.base, r.degens) for r in Y.rows[y]]) for y, dy in Y.cells.items()]
    cells, rows = {}, {}
    for x, dx in X.cells.items():
        x_faces = [(refs[r.base], r.degens) for r in X.rows[x]]
        row = refs[x]
        for y, dy, yf in y_faces:
            cid = row[y].base
            cells[cid] = dx + dy
            rows[cid] = (
                *(CellRef(w, pairs[y].base) if w else pairs[y] for pairs, w in x_faces),
                *(CellRef(tuple(i + dx for i in w), row[b].base) if w else row[b] for b, w in yf),
            )
    if len(cells) != len(X.cells) * len(Y.cells):
        raise ValidationError(
            f"tensor of {X.name} and {Y.name}: cell ids joined by '|' collide"
        )
    return CubicalSet(cells, name=f"{X.name}(x){Y.name}", rows=rows)
