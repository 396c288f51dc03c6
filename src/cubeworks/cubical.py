"""Finite cubical sets: presheaves on the cube category.

Only non-degenerate cells are stored.  Every presheaf element is a CellRef:
a strictly increasing word of degenerate coordinate directions applied to a
non-degenerate base cell (the unique Eilenberg-Zilber-style decomposition,
which holds for this cube category and is validated on representables in the
test suite).  The face of a degenerate element follows from the cubical
face-degeneracy identities, and the presheaf action of a cube-category
morphism is composed from faces and one degeneracy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .cubes import CubeMap
from .errors import CELL_BUDGET, GuardError, ValidationError, bulk
# find_isomorphism and is_isomorphism stay importable from here for callers
# of the cubical API
from .presented import (
    CellRef,
    PresentedMap,
    PresentedSet,
    degenerate,
    disjoint_union,
    divide,
    find_isomorphism,
    is_isomorphism,
    nd,
)


class CubicalSet(PresentedSet):
    """A finite cubical set presented by its non-degenerate cells and their
    faces.  Face indices are (k, eps): coordinate k from 1, side eps, so the
    face (k, eps) is at position 2k - 2 + eps of a face row."""

    kind = "cubical_set"
    face_fields = ("k", "eps")
    index_base = 1

    @staticmethod
    @lru_cache(maxsize=None)
    def face_indices(d: int) -> tuple:
        return tuple((k, eps) for k in range(1, d + 1) for eps in (0, 1))

    # -- faces and the presheaf action ----------------------------------------

    def face_of(self, ref: CellRef, *i) -> CellRef:
        """The face i = (k, eps) of an element, by the cubical identities.  A
        face across a collapsed direction k drops k from the degeneracy word;
        any other is the face of the base in its own direction k, under the
        word renumbered past k."""
        at = self.face_position(ref, i)
        degens, base = ref
        if not degens:
            return self.rows[base][at]
        k = i[0]
        word = tuple(t - 1 if t > k else t for t in degens if t != k)
        if k in degens:
            return CellRef(word, base)
        below = sum(t < k for t in degens)
        return degenerate(self.rows[base][at - 2 * below], word, self.dim_of(ref) - 1, 1)

    def act(self, ref: CellRef, f: CubeMap) -> CellRef:
        """The presheaf action of f on an element of dimension f.target_dim:
        the faces at f's constant slots, last first, then f's degeneracy."""
        if self.dim_of(ref) != f.target_dim:
            raise ValidationError("element dimension does not match map target")
        for k in reversed(range(1, f.target_dim + 1)):
            if f.slots[k - 1][0] == "c":
                ref = self.face_of(ref, k, f.slots[k - 1][1])
        return self.degenerate(ref, f.dropped_vars)


CubicalMap = PresentedMap


def identity_map(X: CubicalSet) -> CubicalMap:
    return CubicalMap(X, X, {c: nd(c) for c in X.cells})


# -- representables and their subobjects ------------------------------------


def standard_cube(n: int, guard: int = 8) -> CubicalSet:
    """The representable cubical set on the n-cube.  Non-degenerate k-cells are
    the face-type maps k-cube -> n-cube, named by their slots: ``*`` for each
    of the k free slots, in the order of their positions, and 0 or 1 for each
    constant; setting the i-th free slot to eps gives the face (i, eps)."""
    if n < 0:
        raise ValidationError(f"dimension {n} is negative")
    if n > guard:
        raise GuardError(f"dimension {n} exceeds guard {guard}")
    cells, rows = {}, {}
    for k in range(n + 1):
        for free in combinations(range(n), k):
            slots = "".join("*" if p in free else "{}" for p in range(n))
            for consts in product("01", repeat=n - k):
                cid = slots.format(*consts) or "pt"
                cells[cid] = k
                rows[cid] = tuple([nd(cid[:p] + eps + cid[p + 1 :]) for p in free for eps in "01"])
    return CubicalSet(cells, name=f"cube{n}", rows=rows)


def subobject(X: CubicalSet, keep, name: str = "") -> tuple:
    """The cubical subset on the given cells, with its inclusion map.  The set
    must be closed under taking face bases."""
    keep = set(keep)
    cells = {c: d for c, d in X.cells.items() if c in keep}
    rows = {c: row for c, row in X.rows.items() if c in keep}
    for c, row in rows.items():
        if any(ref.base not in keep for ref in row):
            raise ValidationError(f"{c} has face outside the subset")
    S = CubicalSet(cells, name=name, rows=rows)
    incl = CubicalMap(S, X, {c: nd(c) for c in cells})
    return S, incl


def empty_set() -> CubicalSet:
    return CubicalSet({}, name="empty", rows={})


def boundary(n: int) -> tuple:
    """The boundary of the n-cube with its inclusion: every cell except the top
    one.  (The acceptance suite independently re-derives this object as the
    n-fold pushout-product of the endpoint inclusions.)"""
    X = standard_cube(n)
    if n == 0:
        B = empty_set()
        return B, CubicalMap(B, X, {})
    return subobject(X, [c for c in X.cells if c != "*" * n], name=f"boundary{n}")


def open_box(n: int, k: int, eps: int) -> tuple:
    """The open box: the boundary of the n-cube with the face opposite to
    (k, eps) removed, i.e. the (k, 1-eps) face.  The removal convention is
    derived from the pushout-product computation in the tests, not assumed."""
    X = standard_cube(n)
    if not 1 <= k <= n or eps not in (0, 1):
        raise ValidationError(f"box index {(k, eps)} out of range")
    top = "*" * n
    removed = top[: k - 1] + str(1 - eps) + top[k:]
    keep = [c for c in X.cells if c not in (top, removed)]
    return subobject(X, keep, name=f"box{n}_{k}_{eps}")


# -- colimits ----------------------------------------------------------------


def coproduct(X: CubicalSet, Y: CubicalSet) -> tuple:
    Z = disjoint_union(X, Y)
    inl = CubicalMap(X, Z, {c: nd(f"l:{c}") for c in X.cells})
    inr = CubicalMap(Y, Z, {c: nd(f"r:{c}") for c in Y.cells})
    return Z, inl, inr


class UnionFind:
    """Disjoint classes keeping the least member as the root."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        p = parent.setdefault(x, x)
        while p != x:
            parent[x] = x = parent[p]  # path halving
            p = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def pushout(f: CubicalMap, g: CubicalMap) -> tuple:
    """Pushout of X <-f- A -g-> Y.

    Union-find identifies the images f(a) and g(a) of each cell a of A, once,
    in the dimension of a, and its classes are resolved in (dimension, least
    member) order.  A class with a degenerate member resolves to that
    member's base, resolved in a lower dimension, under the member's
    degeneracy word; any other class becomes a new cell named ``side:cell``
    after its least member.  The degenerate elements s.a of A need no
    identification of their own: by the Eilenberg-Zilber normal form
    f(s.a) = s.f(a) and g(s.a) = s.g(a) resolve through f(a) and g(a), which
    are identified one or more dimensions lower.  Both legs are validated
    first, so a span whose legs are not maps is refused.
    """
    if f.source is not g.source and (
        f.source.cells != g.source.cells or f.source.rows != g.source.rows
    ):
        raise ValidationError("pushout requires a shared source")
    f.validate()
    g.validate()
    X, Y = f.target, g.target
    sides = {"X": X, "Y": Y}
    uf = UnionFind()
    for side, Z in sides.items():
        for c in Z.cells:
            uf.find((side, nd(c)))
    for a in f.source.cells:
        uf.union(("X", f.assignment[a]), ("Y", g.assignment[a]))
    classes = {}
    for token in uf.parent:
        classes.setdefault(uf.find(token), []).append(token)

    cells = {}
    rows = {}
    resolve = {"X": {}, "Y": {}}  # side -> cell id -> CellRef over result

    def resolved_ref(side, ref: CellRef, ambient: int) -> CellRef:
        return degenerate(resolve[side][ref.base], ref.degens, ambient, 1)

    def dim(token) -> int:
        return sides[token[0]].dim_of(token[1])

    for root in sorted(classes, key=lambda t: (dim(t), t)):
        n = dim(root)
        targets = {resolved_ref(side, ref, n) for side, ref in classes[root] if ref.degens}
        # both legs are maps, so a class is one element of the pushout, whose
        # normal form is unique (Eilenberg-Zilber): its members resolve alike
        assert len(targets) <= 1, "pushout broke the unique degeneracy decomposition"
        if targets:
            (target,) = targets
        else:
            side0, ref0 = root
            target = nd(f"{side0}:{ref0.base}")
            cells[target.base] = n
            row = sides[side0].faces_of(ref0.base)
            rows[target.base] = tuple([resolved_ref(side0, fr, n - 1) for fr in row])
        for side, ref in classes[root]:
            if not ref.degens:
                resolve[side][ref.base] = target

    P = CubicalSet(cells, name=f"po({X.name},{Y.name})", rows=rows)
    leg_x = CubicalMap(X, P, {c: resolve["X"][c] for c in X.cells})
    leg_y = CubicalMap(Y, P, {c: resolve["Y"][c] for c in Y.cells})
    return P, leg_x, leg_y


# -- Day convolution tensor ---------------------------------------------------


def _pair_id(x: str, y: str) -> str:
    return f"{x}|{y}"


@bulk
def tensor(X: CubicalSet, Y: CubicalSet) -> CubicalSet:
    """Day convolution: non-degenerate cells are pairs, dimensions add, faces
    act blockwise with degeneracy words shifted into the correct block.

    Each pair id is rendered once, and the non-degenerate faces that point at
    the same pair share one reference.  Raises ValidationError when two pairs
    get the same id, which ids that contain ``|`` can cause, and GuardError,
    before building any cell, when there would be more than CELL_BUDGET."""
    total = len(X.cells) * len(Y.cells)
    if total > CELL_BUDGET:
        raise GuardError(f"tensor of {total} cells exceeds budget {CELL_BUDGET}")
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


def tensor_elements(X: CubicalSet, xref: CellRef, yref: CellRef) -> CellRef:
    """The element xref (x) yref of the tensor, in normal form: the
    degeneracy directions of yref move past the dimension of xref."""
    shifted = tuple(X.dim_of(xref) + i for i in yref.degens)
    return CellRef(xref.degens + shifted, _pair_id(xref.base, yref.base))


def tensor_maps(f: CubicalMap, g: CubicalMap, source=None, target=None) -> CubicalMap:
    TX = source if source is not None else tensor(f.source, g.source)
    TY = target if target is not None else tensor(f.target, g.target)
    assignment = {}
    for x in f.source.cells:
        for y in g.source.cells:
            assignment[_pair_id(x, y)] = tensor_elements(
                f.target, f.assignment[x], g.assignment[y]
            )
    return CubicalMap(TX, TY, assignment)


def pushout_product(f: CubicalMap, g: CubicalMap) -> CubicalMap:
    """The induced map  A1(x)B2  u_{A1(x)A2}  B1(x)A2  ->  B1(x)B2."""
    AA = tensor(f.source, g.source)
    AB = tensor(f.source, g.target)
    BA = tensor(f.target, g.source)
    BB = tensor(f.target, g.target)
    a_b = tensor_maps(identity_map(f.source), g, AA, AB)
    b_a = tensor_maps(f, identity_map(g.source), AA, BA)
    P, leg_ab, leg_ba = pushout(a_b, b_a)
    fb = tensor_maps(f, identity_map(g.target), AB, BB)
    bg = tensor_maps(identity_map(f.target), g, BA, BB)
    # each cell of P is the image of a cell of AB or BA under its leg, and
    # every such cell has the same image in BB, as the square commutes
    image = {}
    for leg, outer in ((leg_ab, fb), (leg_ba, bg)):
        for c, ref in leg.assignment.items():
            if not ref.degens:
                image[ref.base] = outer.assignment[c]
    return CubicalMap(P, BB, {c: image[c] for c in P.cells})


def interval_inclusion() -> CubicalMap:
    """The generating cofibration i: two points -> interval."""
    I = standard_cube(1)
    two, _, _ = coproduct(standard_cube(0), standard_cube(0))
    return CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})


def endpoint_inclusion(eps: int) -> CubicalMap:
    """The generating acyclic cofibration j^eps: point -> interval."""
    I = standard_cube(1)
    P = standard_cube(0)
    return CubicalMap(P, I, {"pt": nd(str(eps))})


def empty_to_point() -> CubicalMap:
    return CubicalMap(empty_set(), standard_cube(0), {})


# -- map enumeration, lifting, isomorphism ------------------------------------


def _extensions(X: CubicalSet, Y: CubicalSet, fixed: dict, unfixed, guard, memo: dict):
    """Every assignment of the cells ``unfixed`` of X that makes, with the
    images ``fixed``, a map X -> Y: fixed cells first, the rest in
    (dimension, id) order.  Only the cells that are no face of an unfixed
    cell get a chosen image, top dimension first.  By Yoneda a map out of a
    cube is one element, so the face CellRef(w, b) of a cell with image r
    sends b to that face of r divided by w, and clashes unless w is among
    its degeneracies.  ``memo`` holds the faces of elements of Y read so far.
    GuardError once more than ``guard`` (None: no bound) choices are tried."""
    order = sorted(unfixed, key=lambda c: (X.cells[c], c))
    x_faces = {c: X.faces_of(c) for c in order}
    below = {fr.base for faces in x_faces.values() for fr in faces}
    chosen = sorted((c for c in order if c not in below), key=lambda c: (-X.cells[c], c))
    candidates = {X.cells[c]: Y.refs_of_dim(X.cells[c]) for c in chosen}
    assign = dict(fixed)
    tried = 0

    def force(c, ref, trail) -> bool:
        stack = [(c, ref)]
        while stack:
            a, r = stack.pop()
            if a in assign:
                if assign[a] != r:
                    return False
                continue
            assign[a] = r
            trail.append(a)
            d = X.cells[a]
            if r not in memo:
                memo[r] = [Y.face_of(r, *i) for i in Y.face_indices(d)]
            for fr, s in zip(x_faces[a], memo[r]):
                if fr.degens:
                    if not set(fr.degens) <= set(s.degens):
                        return False
                    s = divide(s, fr.degens, d - 1, 1)
                stack.append((fr.base, s))
        return True

    def rec(i):
        nonlocal tried
        if i == len(chosen):
            yield {**fixed, **{c: assign[c] for c in order}}
            return
        c = chosen[i]
        for ref in candidates[X.cells[c]]:
            tried += 1
            if guard is not None and tried > guard:
                raise GuardError(f"map search tried more than {guard} choices")
            trail = []
            if force(c, ref, trail):
                yield from rec(i + 1)
            for a in trail:
                del assign[a]

    return rec(0)


def _sorted_maps(X: CubicalSet, Y: CubicalSet, guard: int, memo: dict) -> list:
    """Every map X -> Y as an assignment, ordered by the images of its cells,
    listed in (dimension, id) order and ranked by their places in Y.refs_of_dim."""
    rank = {d: {r: n for n, r in enumerate(Y.refs_of_dim(d))} for d in set(X.cells.values())}
    tables = [rank[X.cells[c]] for c in sorted(X.cells, key=lambda c: (X.cells[c], c))]
    return sorted(
        _extensions(X, Y, {}, X.cells, guard, memo),
        key=lambda a: tuple(map(dict.__getitem__, tables, a.values())),
    )


def enumerate_maps(X: CubicalSet, Y: CubicalSet, guard: int = 10**7):
    """All cubical maps X -> Y, searched from the top cells down.  The guard
    bounds the number of choices the search tries."""
    if guard < 0:
        raise ValidationError(f"guard {guard} must not be negative")
    return [CubicalMap(X, Y, a) for a in _sorted_maps(X, Y, guard, {})]


def kan_check(X: CubicalSet, max_dim: int, guard: int = 10**7) -> dict:
    """For each open box up to max_dim, test every map of the box into X for an
    extension to the full cube.  Returns a report with the first failing
    lifting problem as witness.  Every search is bounded by ``guard``
    choices, and all of them share one table of the faces of X."""
    for name, value in (("max_dim", max_dim), ("guard", guard)):
        if value < 0:
            raise ValidationError(f"{name} {value} must not be negative")
    memo = {}
    report = {"max_dim": max_dim, "families": [], "pass": True, "witness": None}
    for n in range(1, max_dim + 1):
        cube_n = standard_cube(n)
        for k in range(1, n + 1):
            for eps in (0, 1):
                box, _ = open_box(n, k, eps)
                missing = [c for c in cube_n.cells if c not in box.cells]
                maps = _sorted_maps(box, X, guard, memo)
                filled = 0
                failing = None
                for m in maps:
                    if next(_extensions(cube_n, X, m, missing, guard, memo), None) is not None:
                        filled += 1
                    elif failing is None:
                        failing = {c: repr(ref) for c, ref in sorted(m.items())}
                report["families"].append(
                    {"n": n, "k": k, "eps": eps, "boxes": len(maps), "filled": filled}
                )
                if failing is not None and report["witness"] is None:
                    report["witness"] = {"n": n, "k": k, "eps": eps, "box_map": failing}
                if filled < len(maps):
                    report["pass"] = False
    return report


def iterated_pushout_product(maps) -> CubicalMap:
    """Left-associated pushout-product of a list of maps."""
    out = maps[0]
    for m in maps[1:]:
        out = pushout_product(out, m)
    return out
