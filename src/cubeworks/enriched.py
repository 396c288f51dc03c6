"""Finitely presented categories enriched in cubical sets.

A presentation consists of objects, a cubical set of generating edges per
ordered object pair, and an ordered list of cell attachments (a subobject
inclusion A into B attached to a mapping space along boundary words).
Mapping spaces are only ever materialized as word-length truncations: cells
are alternating words of edge cells and attached cells; when a face of an
attached cell lands in A it is rewritten to its boundary word and the result
is path-normalized.  Localized edges are unit-labeled, carry zero word
weight, and cancel against their formal inverses.

A truncation is built once and in full: its words are counted, then
enumerated, and every word gets its cell id and its faces.  The homotopy
category builds at bound + 1 and reads the truncation at the bound off that
build as the cells of weight at most the bound.

Letters are plain tuples: ("e", src, tgt, cell) for an edge generator and
("a", attachment index, cell) for an attached cell.

A presentation is a frozen value.  Its constructor checks every invariant
and computes the letter table once; `attach`, `localize` and
`glue_presentations` each build their result in one constructor call.
Among the invariants, zero-weight letters are closed under faces and letter
tokens are distinct and free of the separator ``.``.  So no face of a word
weighs more than the word, every truncation is closed under faces, a build
capped in dimension is the subcomplex of a full build, and no two words
share a cell id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from math import inf
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .cubical import CellRef, CubicalSet, UnionFind, nd
from .errors import CELL_BUDGET, GuardError, ValidationError, bulk


# -- words ----------------------------------------------------------------------


def letter_token(letter) -> str:
    if letter[0] == "e":
        return f"{letter[3]}({letter[1]}>{letter[2]})"
    return f"@{letter[1]}:{letter[2]}"


def word_id(word) -> str:
    if not word:
        return "1"
    return ".".join(letter_token(l) for l in word)


class Letter(NamedTuple):
    """The facts of one letter.  ``faces`` lists its (k, eps)-faces in
    (k, eps) order, each as (local degeneracy word, replacement word)."""

    source: str
    target: str
    dim: int
    weight: int
    faces: tuple


def _word_faces(letters, word, cancel_pairs):
    """The (k, eps)-faces of a normal word cell (one without adjacent cancel
    pairs) in (k, eps) order, each as (degeneracy word, face word): the face
    of one letter replaces that letter and the result is path-normalized,
    leftmost pair first.

    The replacement is folded onto the prefix, and then only the junction
    with the suffix can cancel, because the suffix of a normal word has no
    cancel pair of its own.  Every word of a mapping space is normal, and so
    is every boundary word the constructor accepts."""
    n = len(word)
    off = 0
    for i, letter in enumerate(word):
        _, _, dim, _, faces = letters[letter]
        for local, repl in faces:
            stack = list(word[:i])
            for l in repl:
                if stack and (stack[-1], l) in cancel_pairs:
                    stack.pop()
                else:
                    stack.append(l)
            k = i + 1
            while stack and k < n and (stack[-1], word[k]) in cancel_pairs:
                stack.pop()
                k += 1
            shifted = tuple(s + off for s in local) if off and local else local
            yield shifted, tuple(stack) + word[k:]
        off += dim


@dataclass(frozen=True, eq=False)
class Attachment:
    space: CubicalSet      # B
    a_cells: frozenset     # the subobject A, as cell ids of B
    source: str
    target: str
    boundary_map: Mapping  # A-cell id -> word (tuple of letters)

    def __post_init__(self):
        words = {c: tuple(w) for c, w in self.boundary_map.items()}
        object.__setattr__(self, "a_cells", frozenset(self.a_cells))
        object.__setattr__(self, "boundary_map", MappingProxyType(words))


@dataclass(frozen=True, eq=False)
class EnrichedPresentation:
    """Objects, a cubical set of generating edges per ordered object pair,
    cell attachments in order, the adjacent letter pairs that delete, and
    the edge letters of word weight zero.  ``letters`` maps every letter to
    its `Letter` facts, in sorted letter order."""

    objects: tuple
    edges: Mapping = field(default_factory=dict)  # (src, tgt) -> CubicalSet
    name: str = ""
    attachments: tuple = ()
    cancel_pairs: frozenset = frozenset()
    zero_weight: frozenset = frozenset()
    letters: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        frozen = {
            "objects": tuple(self.objects),
            "edges": MappingProxyType(dict(self.edges)),
            "attachments": tuple(self.attachments),
            "cancel_pairs": frozenset(self.cancel_pairs),
            "zero_weight": frozenset(self.zero_weight),
        }
        for key, value in frozen.items():
            object.__setattr__(self, key, value)
        letters = self._edge_letters()
        for i, att in enumerate(self.attachments):
            letters.update(self._attachment_letters(i, att, letters))
        letters = dict(sorted(letters.items()))
        tokens = {}  # token -> letter, so that word ids are distinct
        for letter in letters:
            token = letter_token(letter)
            if "." in token:
                raise ValidationError(f"letter token {token!r} contains the separator '.'")
            if token in tokens:
                raise ValidationError(
                    f"letters {tokens[token]} and {letter} have the same token {token!r}"
                )
            tokens[token] = letter
        object.__setattr__(self, "letters", MappingProxyType(letters))

    def _edge_letters(self) -> dict:
        """The edge letters, after checking the endpoints of every edge set,
        that cancel pairs and zero-weight letters are edge letters, and that
        the faces of a zero-weight letter are zero-weight.  Edge letters are
        the only ones that could weigh less than a face: an attachment letter
        weighs as much as its heaviest boundary word."""
        letters = {}
        for (s, t), space in self.edges.items():
            if s not in self.objects or t not in self.objects:
                raise ValidationError(
                    f"edge set {(s, t)} has an endpoint that is not an object"
                )
            for c, d in space.cells.items():
                letter = ("e", s, t, c)
                faces = tuple((r.degens, (("e", s, t, r.base),)) for r in space.faces_of(c))
                letters[letter] = Letter(s, t, d, int(letter not in self.zero_weight), faces)
        unknown = self.zero_weight.union(*self.cancel_pairs) - letters.keys()
        if unknown:
            letter = min(unknown, key=repr)
            raise ValidationError(
                f"cancel pair or zero-weight letter {letter} is not an edge letter"
            )
        for letter in sorted(self.zero_weight):
            for _, (face,) in letters[letter].faces:  # an edge face is one letter
                if face not in self.zero_weight:
                    raise ValidationError(
                        f"zero-weight letter {letter} has the face {face}, "
                        "which is not zero-weight"
                    )
        return letters

    def _attachment_letters(self, i: int, att: Attachment, known: dict) -> dict:
        """The letters of attachment i, after checking its endpoints, that A is
        a face-closed subobject of B, and that the boundary words have no
        adjacent cancel pair, use known letters, compose, have the dimension
        of their cells and respect faces.  Its letters weigh as much as its
        heaviest boundary word."""
        space, a_cells, words = att.space, att.a_cells, att.boundary_map
        if att.source not in self.objects or att.target not in self.objects:
            raise ValidationError(f"attachment {i} has an endpoint that is not an object")
        if not a_cells <= space.cells.keys():
            raise ValidationError(f"A-cell {min(a_cells - space.cells.keys())} not in B")
        if any(ref.base not in a_cells for c in a_cells for ref in space.rows[c]):
            raise ValidationError("A is not closed under faces")
        if a_cells != words.keys():
            c = min(a_cells ^ words.keys())
            raise ValidationError(
                f"attachment {i} needs a boundary word on each A-cell only, not at {c}"
            )
        for a in sorted(a_cells):
            if words[a] != self.normalize_word(words[a]):
                raise ValidationError(f"boundary word of {a} has an adjacent cancel pair")
        weight = 1
        for a in sorted(a_cells):
            word = words[a]
            at, dim = att.source, 0
            for letter in word:
                info = known.get(letter)
                if info is None:
                    raise ValidationError(f"boundary word of {a} uses unknown letter {letter}")
                if info.source != at:
                    raise ValidationError(
                        f"boundary word of {a} is not composable at {letter}"
                    )
                at, dim = info.target, dim + info.dim
            if at != att.target or dim != space.cells[a]:
                raise ValidationError(
                    f"boundary word of {a} has the wrong target or dimension"
                )
            weight = max(weight, sum(known[l].weight for l in word))
            got = _word_faces(known, word, self.cancel_pairs)
            for n, (face, ref) in enumerate(zip(got, space.faces_of(a))):
                expected = (ref.degens, words[ref.base])
                if face != expected:
                    raise ValidationError(
                        f"boundary word of {a} breaks face ({n // 2 + 1},{n % 2}): "
                        f"{face} != {expected}"
                    )
        return {
            ("a", i, c): Letter(
                att.source,
                att.target,
                d,
                weight,
                tuple(
                    (r.degens, words[r.base] if r.base in a_cells else (("a", i, r.base),))
                    for r in space.faces_of(c)
                ),
            )
            for c, d in space.cells.items()
            if c not in a_cells
        }

    def normalize_word(self, letters):
        """Delete adjacent cancel pairs, leftmost first, until none is left.
        Each pair is deleted as it forms, which agrees with repeated leftmost
        deletion for any set of cancel pairs."""
        stack = []
        for letter in letters:
            if stack and (stack[-1], letter) in self.cancel_pairs:
                stack.pop()
            else:
                stack.append(letter)
        return tuple(stack)


def vertex_edge_set(*names) -> CubicalSet:
    return CubicalSet(dict.fromkeys(names, 0), rows=dict.fromkeys(names, ()))


def attach(
    pres: EnrichedPresentation,
    space: CubicalSet,
    a_cells,
    source: str,
    target: str,
    boundary_map: dict,
    name: str = "",
) -> EnrichedPresentation:
    """Append a cell attachment.  The A-part must be a genuine subobject of B
    (face-closed), and the boundary words must respect faces."""
    att = Attachment(space, a_cells, source, target, boundary_map)
    return replace(pres, attachments=(*pres.attachments, att), name=name or pres.name)


def interval_attachment_space() -> CubicalSet:
    cells = {"h": 1, "h0": 0, "h1": 0}
    return CubicalSet(cells, rows={"h": (nd("h0"), nd("h1")), "h0": (), "h1": ()})


def special_category(kind: str, label: CubicalSet = None) -> EnrichedPresentation:
    """The four special enriched categories: the empty one, the point, the
    directed interval on a label, and the chaotic interval."""
    if kind == "empty":
        return EnrichedPresentation((), name="empty")
    if kind == "point":
        return EnrichedPresentation(("0",), name="point")
    if kind == "interval":
        if label is None:
            label = vertex_edge_set("f")
        return EnrichedPresentation(("0", "1"), {("0", "1"): label}, "interval")
    if kind == "interval_tilde":
        f = ("e", "0", "1", "t01")
        g = ("e", "1", "0", "t10")
        return EnrichedPresentation(
            ("0", "1"),
            {("0", "1"): vertex_edge_set("t01"), ("1", "0"): vertex_edge_set("t10")},
            "interval~",
            cancel_pairs={(f, g), (g, f)},
            zero_weight={f, g},
        )
    raise ValidationError(f"unknown special category {kind!r}")


def build_P() -> EnrichedPresentation:
    return EnrichedPresentation(
        ("c", "c'"),
        {("c", "c'"): vertex_edge_set("u"), ("c'", "c"): vertex_edge_set("v")},
        "P",
    )


def build_H() -> EnrichedPresentation:
    """P with a homotopy cell from v.u to the identity of c."""
    P = build_P()
    u = ("e", "c", "c'", "u")
    v = ("e", "c'", "c", "v")
    return attach(
        P,
        interval_attachment_space(),
        {"h0", "h1"},
        "c",
        "c",
        {"h0": (u, v), "h1": ()},
        name="H",
    )


_PREFIX = "2:"  # marks the cells and objects that the second factor of a gluing adds


def _prefixed(space: CubicalSet, skip=()) -> tuple:
    """The cells and rows of a cubical set with every cell id prefixed,
    leaving out the cells in skip."""
    cells = {_PREFIX + c: d for c, d in space.cells.items() if c not in skip}
    rows = {}
    for c, row in space.rows.items():
        if c not in skip:
            if any(ref.base in skip for ref in row):
                raise ValidationError("cannot glue along a non-vertex edge")
            rows[_PREFIX + c] = tuple([CellRef(r.degens, _PREFIX + r.base) for r in row])
    return cells, rows


def glue_presentations(C1, edge1, C2, edge2, name: str = "") -> EnrichedPresentation:
    """Pushout of C1 and C2 over the walking arrow: identify the classified
    edges (and their endpoints) of the two presentations."""
    s1, t1 = edge1[1], edge1[2]
    s2, t2, c2 = edge2[1], edge2[2], edge2[3]

    def obj_map(o):
        if o == s2:
            return s1
        if o == t2:
            return t1
        return _PREFIX + o

    def letter_map2(letter):
        if letter[0] == "e":
            _, s, t, c = letter
            if (s, t, c) == (s2, t2, c2):
                return edge1
            return ("e", obj_map(s), obj_map(t), _PREFIX + c)
        return ("a", letter[1] + len(C1.attachments), _PREFIX + letter[2])

    objects = list(C1.objects) + [
        obj_map(o) for o in C2.objects if obj_map(o) not in C1.objects
    ]
    # edge sets: C1's plus C2's with the identified generator removed
    merged = {pair: (dict(space.cells), dict(space.rows)) for pair, space in C1.edges.items()}
    for (s, t), space in C2.edges.items():
        cells, rows = merged.setdefault((obj_map(s), obj_map(t)), ({}, {}))
        more_cells, more_rows = _prefixed(space, {c2} if (s, t) == (s2, t2) else ())
        cells.update(more_cells)
        rows.update(more_rows)
    attachments = list(C1.attachments)
    for att in C2.attachments:
        cells, rows = _prefixed(att.space)
        attachments.append(
            Attachment(
                CubicalSet(cells, rows=rows),
                {_PREFIX + c for c in att.a_cells},
                obj_map(att.source),
                obj_map(att.target),
                {
                    _PREFIX + c: tuple(letter_map2(l) for l in word)
                    for c, word in att.boundary_map.items()
                },
            )
        )
    return EnrichedPresentation(
        objects,
        {pair: CubicalSet(cells, rows=rows) for pair, (cells, rows) in merged.items()},
        name or f"{C1.name}+{C2.name}",
        attachments,
        C1.cancel_pairs | {(letter_map2(a), letter_map2(b)) for a, b in C2.cancel_pairs},
        C1.zero_weight | {letter_map2(l) for l in C2.zero_weight},
    )


def build_E() -> EnrichedPresentation:
    """The pushout of two copies of H over the walking arrow, gluing the map
    classifying u in the first copy to the map classifying v in the second.
    The result has one morphism f with separate left- and right-inverse
    homotopies (kept distinct on purpose)."""
    return glue_presentations(
        build_H(), ("e", "c", "c'", "u"), build_H(), ("e", "c'", "c", "v"), name="E"
    )


def localize(pres: EnrichedPresentation, edge, name: str = "") -> EnrichedPresentation:
    """Invert a vertex-level unit-labeled generating edge: push out along the
    walking arrow into the chaotic interval.  A reverse edge is added, the
    two composites cancel at the word level, and both letters carry zero
    word weight."""
    if edge[0] != "e":
        raise ValidationError("only generating edges can be localized")
    _, s, t, c = edge
    space = pres.edges.get((s, t))
    if space is None or c not in space.cells:
        raise ValidationError(f"edge {c} not found")
    if space.cells[c] != 0:
        raise ValidationError("only vertex-level edges can be localized")
    inv_cell = c + "_inv"
    rev = pres.edges.get((t, s), vertex_edge_set())
    if inv_cell in rev.cells:
        raise ValidationError(f"cell {inv_cell} already present")
    inv = ("e", t, s, inv_cell)
    rev = CubicalSet({**rev.cells, inv_cell: 0}, rows={**rev.rows, inv_cell: ()})
    return replace(
        pres,
        edges={**pres.edges, (t, s): rev},
        name=name or f"{pres.name}<{c}^-1>",
        cancel_pairs=pres.cancel_pairs | {(edge, inv), (inv, edge)},
        zero_weight=pres.zero_weight | {edge, inv},
    )


# -- mapping spaces --------------------------------------------------------------


@dataclass
class MappingSpaceTruncation:
    pair: tuple
    word_bound: int
    space: CubicalSet
    words: dict          # cell id -> word
    stable_dims: frozenset


def _outgoing(pres) -> dict:
    """object -> [(letter, target, weight, dim)] in letter order"""
    outgoing = {}
    for letter, i in pres.letters.items():
        outgoing.setdefault(i.source, []).append((letter, i.target, i.weight, i.dim))
    return outgoing


def _endless_weight(pres, x):
    """The least weight of a word from x, without adjacent cancel pairs, that
    zero-weight letters can continue forever, again without adjacent cancel
    pairs; infinity if there is none.  A build at bound b has finitely many
    words exactly when b is below it: a word of weight at most b holds at
    most b letters of positive weight, so infinitely many such words need an
    endless zero-weight tail.  The first letter of the tail weighs nothing,
    so the least such word may end in it.  It reads every letter, whatever
    dimensions a build keeps."""
    letters, cancel, outgoing = pres.letters, pres.cancel_pairs, _outgoing(pres)
    follow = {  # letter -> the letters that may come next
        letter: [l for l, *_ in outgoing.get(info.target, ()) if (letter, l) not in cancel]
        for letter, info in letters.items()
    }
    # prune each zero-weight letter with no successor left until none is
    # pruned: each one left starts an endless zero-weight walk
    endless = {letter for letter, info in letters.items() if info.weight == 0}
    while stuck := {letter for letter in endless if endless.isdisjoint(follow[letter])}:
        endless -= stuck
    # last letter -> least weight of a word ending in it
    least = {letter: weight for letter, _, weight, _ in outgoing.get(x, ())}
    todo = list(least)
    while todo:
        letter = todo.pop()
        for l in follow[letter]:
            weight = least[letter] + letters[l].weight
            if weight < least.get(l, inf):
                least[l] = weight
                todo.append(l)
    return min((w for letter, w in least.items() if letter in endless), default=inf)


def _count_words(pres, x, y, top: int, max_dim: int = None) -> Counter:
    """The cells of Map(x, y) at bound ``top`` by (weight, dimension),
    counted without building a word: one letter per step, it carries the
    number of words from x for each (last letter, object, weight,
    dimension), with the cap and cancel-pair rule of `_build`.  The
    word-length guard refuses exactly the tops at which a build of every
    dimension would not end, capped or not, so the walk ends."""
    if _endless_weight(pres, x) <= top:
        raise GuardError("word length guard exceeded; presentation rewrites do not terminate")
    cap = inf if max_dim is None else max_dim
    outgoing, cancel = _outgoing(pres), pres.cancel_pairs
    counts = Counter()
    frontier = {(None, x, 0, 0): 1}
    while frontier:
        step = Counter()
        for (last, at, weight, dim), n in frontier.items():
            if at == y:
                counts[weight, dim] += n
            for letter, tgt, w, dl in outgoing.get(at, ()):
                if weight + w <= top and dim + dl <= cap and (last, letter) not in cancel:
                    step[letter, tgt, weight + w, dim + dl] += n
        frontier = step
    return counts


@bulk
def _build(pres, x, y, bound: int, max_dim: int = None, counts: Counter = None) -> tuple:
    """Map(x, y) truncated at word weight ``bound``, as (cubical set, cell id
    -> word, cell id -> weight).

    The cells are the words in (length, word) order, and each word's faces
    are in (k, eps) order.  With ``max_dim`` only the words of dimension at
    most max_dim are built, which is the subcomplex of those dimensions.
    The words are counted first (``counts``: `_count_words` at ``bound`` or
    above), and more than CELL_BUDGET are refused before any word is made."""
    for obj in (x, y):
        if obj not in pres.objects:
            raise ValidationError(f"{obj!r} is not an object of {pres.name or 'the presentation'}")
    if counts is None:
        counts = _count_words(pres, x, y, bound, max_dim)
    total = sum(n for (weight, _), n in counts.items() if weight <= bound)
    if total > CELL_BUDGET:
        raise GuardError(f"Map({x},{y})@{bound} of {total} cells exceeds budget {CELL_BUDGET}")
    letters, cancel, outgoing = pres.letters, pres.cancel_pairs, _outgoing(pres)
    cap = inf if max_dim is None else max_dim
    found = []

    def rec(at, word, weight, dim):
        if at == y:
            found.append((tuple(word), weight, dim))
        for letter, tgt, w, dl in outgoing.get(at, ()):
            if weight + w > bound or dim + dl > cap:
                continue
            if word and (word[-1], letter) in cancel:
                continue
            word.append(letter)
            rec(tgt, word, weight + w, dim + dl)
            word.pop()

    rec(x, [], 0, 0)
    # depth-first search over sorted letters visits words in lexicographic
    # order, so a stable sort by length gives the (length, word) order
    found.sort(key=lambda entry: len(entry[0]))
    ids = {w: word_id(w) for w, _, _ in found}
    cells = {ids[w]: d for w, _, d in found}
    rows = {
        ids[w]: tuple([CellRef(degens, ids[fw]) for degens, fw in _word_faces(letters, w, cancel)])
        for w, _, _ in found
    }
    space = CubicalSet(cells, name=f"Map({x},{y})@{bound}", rows=rows)
    return space, {cid: w for w, cid in ids.items()}, {ids[w]: wt for w, wt, _ in found}


def _require_bound(bound: int):
    if bound < 0:
        raise ValidationError(f"word bound {bound} is negative")


def mapping_space(pres, x, y, bound: int) -> MappingSpaceTruncation:
    """Materialize the word-length truncation of Map(x, y) as a cubical set.

    stable_dims lists the dimensions in which raising the bound by one adds
    no cells.  The cells at bound + 1 are counted by `_count_words`, not
    built; stability is computed, never assumed."""
    _require_bound(bound)
    counts = _count_words(pres, x, y, bound + 1)
    space, words, _ = _build(pres, x, y, bound, counts=counts)
    stable = frozenset({d for _, d in counts} - {d for weight, d in counts if weight > bound})
    return MappingSpaceTruncation((x, y), bound, space, words, stable)


# -- homotopy category -----------------------------------------------------------


def _classes(space: CubicalSet, keep) -> dict:
    """Each 0-cell of the truncation in ``keep`` with the representative of
    its class modulo the relation generated by the 1-cells in ``keep``."""
    uf, rows = UnionFind(), space.rows
    for c in space.by_dim(1):
        if c in keep:
            uf.union(*(ref.base for ref in rows[c]))  # the faces (1, 0) and (1, 1)
    return {c: uf.find(c) for c in space.by_dim(0) if c in keep}


@dataclass
class HomotopyCategory:
    objects: list
    homs: dict        # (x, y) -> sorted list of class representative ids
    class_of: dict    # (x, y) -> {zero-cell id -> representative id}
    rep_words: dict   # (x, y, rep) -> word
    bound: int
    _pres: EnrichedPresentation

    def identity(self, x):
        return self.class_of[(x, x)][word_id(())]

    def compose(self, x, y, z, r1, r2):
        """Class of (r1: x->y) followed by (r2: y->z)."""
        w = self._pres.normalize_word(self.rep_words[(x, y, r1)] + self.rep_words[(y, z, r2)])
        table = self.class_of[(x, z)]
        wid = word_id(w)
        if wid not in table:
            raise GuardError(
                "composite left the truncation; increase the word bound"
            )
        return table[wid]

    def is_isomorphism(self, x, y, r):
        for r2 in self.homs.get((y, x), ()):
            if (
                self.compose(x, y, x, r, r2) == self.identity(x)
                and self.compose(y, x, y, r2, r) == self.identity(y)
            ):
                return True
        return False


def homotopy_category(pres, bound: int) -> HomotopyCategory:
    """Objects of the presentation with 0-cells-mod-1-cells as morphisms.

    Refuses unless the class structure in dimensions 0-1 is stable under
    raising the bound (no new classes appear and no existing classes merge);
    raw cell counts keep growing for free presentations, so stability is
    measured on the quotient that the homotopy category actually uses.
    Only the words of dimension 0 and 1 are built, once, at bound + 1."""
    _require_bound(bound)
    homs = {}
    class_of = {}
    rep_words = {}
    for x in pres.objects:
        for y in pres.objects:
            # the cells of weight at most bound are the build at bound
            large, words, weights = _build(pres, x, y, bound + 1, max_dim=1)
            small = {c for c, weight in weights.items() if weight <= bound}
            cs, cl = _classes(large, small), _classes(large, large.cells)
            small_reps = set(cs.values())
            if len({cl[r] for r in small_reps}) < len(small_reps):
                raise GuardError(
                    f"homotopy classes of Map({x},{y}) merge between bounds "
                    f"{bound} and {bound + 1}; increase the bound"
                )
            if {cl[c] for c in cs} != set(cl.values()):
                raise GuardError(
                    f"new homotopy class of Map({x},{y}) appears at bound "
                    f"{bound + 1}; increase the bound"
                )
            table = {}
            for c, r in cs.items():
                table.setdefault(r, set()).add(c)
            reps = sorted(table)
            homs[(x, y)] = reps
            class_of[(x, y)] = cs
            for rep in reps:
                best = min(table[rep], key=lambda c: (len(words[c]), c))
                rep_words[(x, y, rep)] = words[best]
    return HomotopyCategory(list(pres.objects), homs, class_of, rep_words, bound, pres)


# -- inverse extension search ------------------------------------------------------


def _find_homotopy(space: CubicalSet, from_word, to_word):
    """A 1-cell of a truncation whose (1,0)-face is from_word and whose
    (1,1)-face is to_word; degenerate candidates allowed."""
    fid, tid = word_id(from_word), word_id(to_word)
    if fid == tid and fid in space.cells:
        return ("degenerate", fid)
    for c in space.by_dim(1):
        if space.rows[c] == (nd(fid), nd(tid)):
            return ("cell", c)
    return None


def extend_inverse(pres, edge, bound: int) -> dict:
    """Search for the data of an extension along the homotopy-inverse
    category: a left inverse with a homotopy g.f => id and a right inverse
    with a homotopy f.g' => id.  Either side may come back inconclusive
    (a failure within the truncation is not a disproof: mapping spaces are
    not fibrant in general).  It reads only 0- and 1-cells, so only those
    are built."""
    if edge[0] != "e" or edge not in pres.letters:
        raise ValidationError(f"extend_inverse expects a generating edge, not {edge}")
    _, s, t, c = edge
    _require_bound(bound)
    f_word = (edge,)
    back, back_words, _ = _build(pres, t, s, bound, max_dim=1)
    loops_s, _, _ = _build(pres, s, s, bound, max_dim=1)
    loops_t, _, _ = _build(pres, t, t, bound, max_dim=1)
    inverses = [back_words[g] for g in back.by_dim(0)]

    report = {"edge": c, "bound": bound}
    left = None
    for g in inverses:
        gf = pres.normalize_word(f_word + g)  # f then g
        if word_id(gf) not in loops_s.cells:
            continue
        witness = _find_homotopy(loops_s, gf, ())
        if witness:
            left = {"inverse": g, "homotopy": witness}
            break
    right = None
    for g in inverses:
        fg = pres.normalize_word(g + f_word)  # g then f
        if word_id(fg) not in loops_t.cells:
            continue
        witness = _find_homotopy(loops_t, fg, ())
        if witness:
            right = {"inverse": g, "homotopy": witness}
            break
    report["left"] = left or "inconclusive"
    report["right"] = right or "inconclusive"
    report["extends"] = left is not None and right is not None
    return report
