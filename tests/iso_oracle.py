"""The map route to an isomorphism, kept as the second route for
`presented.is_isomorphism`.

`is_isomorphism` checks a bijection on non-degenerate cells by renaming the
face table of its source and comparing it with the target's.  The route
here checks the same bijection as a map: it wraps each image as a
non-degenerate `CellRef`, and `PresentedMap.validate` compares the stored
faces of each image with the images of the faces, through `apply`."""

from cubeworks.errors import ValidationError
from cubeworks.presented import PresentedMap, nd


def is_isomorphism_by_map(X, Y, bijection: dict) -> bool:
    """Whether ``bijection`` (cell id of X -> cell id of Y) is a bijection
    onto the cells of Y that, as a map of presented sets, passes
    `PresentedMap.validate`.  Both sets must have a full row of faces on
    every cell: a missing row raises KeyError here."""
    if type(X) is not type(Y):
        return False
    if bijection.keys() != X.cells.keys() or len(X.cells) != len(Y.cells):
        return False
    if set(bijection.values()) != Y.cells.keys():
        return False
    try:
        PresentedMap(X, Y, {c: nd(b) for c, b in bijection.items()}).validate()
    except ValidationError:
        return False
    return True
