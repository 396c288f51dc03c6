"""Finitely presented categories enriched in cubical sets.

A presentation consists of objects, a cubical set of generating edges per
ordered object pair, and an ordered list of cell attachments (a subobject
inclusion A into B attached to a mapping space along boundary words).
Mapping spaces are only ever materialized as word-length truncations: cells
are alternating words of edge cells and attached cells; when a face of an
attached cell lands in A it is rewritten to its boundary word and the result
is path-normalized.  Localized edges are unit-labeled, carry zero word
weight, and cancel against their formal inverses, which keeps every
truncation closed under faces.

Each call enumerates words once, at the largest bound it needs, and reads
every smaller bound off that build as its weight filtration: the words of
weight at most the bound.  Inside a build, words are keyed by their letter
tuples; the string cell id of a word is rendered once, when a level is
turned into a cubical set.

Letters are plain tuples: ("e", src, tgt, cell) for an edge generator and
("a", attachment index, cell) for an attached cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cubical import CellRef, CubicalSet, UnionFind, nd
from .errors import GuardError, ValidationError


# -- words ----------------------------------------------------------------------


def letter_token(letter) -> str:
    if letter[0] == "e":
        return f"{letter[3]}({letter[1]}>{letter[2]})"
    return f"@{letter[1]}:{letter[2]}"


def word_id(word) -> str:
    if not word:
        return "1"
    return ".".join(letter_token(l) for l in word)


def _cancel_onto(stack: list, letters, cancel_pairs) -> tuple:
    """Append letters to a word without adjacent cancel pairs, deleting each
    pair as it forms.  This deletes the leftmost pair first, so it agrees
    with repeated leftmost deletion for any set of cancel pairs."""
    for letter in letters:
        if stack and (stack[-1], letter) in cancel_pairs:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass
class Attachment:
    space: CubicalSet      # B
    a_cells: frozenset     # the subobject A, as cell ids of B
    source: str
    target: str
    boundary_map: dict     # A-cell id -> word (tuple of letters)


class EnrichedPresentation:
    def __init__(self, objects, edges=None, name: str = ""):
        self.objects = list(objects)
        self.edges = {}           # (src, tgt) -> CubicalSet
        if edges:
            for pair, space in edges.items():
                self.edges[pair] = space
        self.attachments = []     # list of Attachment
        self.cancel_pairs = set() # adjacent letter pairs that delete
        self.zero_weight = set()  # edge letters of word weight zero
        self.name = name

    # -- letters ---------------------------------------------------------------

    def copy(self, name=None):
        out = EnrichedPresentation(self.objects, None, name or self.name)
        out.edges = dict(self.edges)
        out.attachments = list(self.attachments)
        out.cancel_pairs = set(self.cancel_pairs)
        out.zero_weight = set(self.zero_weight)
        return out

    def edge_letters(self, src=None):
        out = []
        for (s, t), space in sorted(self.edges.items()):
            if src is not None and s != src:
                continue
            for c in sorted(space.cells):
                out.append(("e", s, t, c))
        return out

    def att_letters(self, src=None):
        out = []
        for i, att in enumerate(self.attachments):
            if src is not None and att.source != src:
                continue
            for c in sorted(att.space.cells):
                if c not in att.a_cells:
                    out.append(("a", i, c))
        return out

    def letters_from(self, src):
        return sorted(self.edge_letters(src) + self.att_letters(src))

    def letter_src(self, letter):
        return letter[1] if letter[0] == "e" else self.attachments[letter[1]].source

    def letter_tgt(self, letter):
        return letter[2] if letter[0] == "e" else self.attachments[letter[1]].target

    def letter_dim(self, letter):
        if letter[0] == "e":
            return self.edges[(letter[1], letter[2])].cells[letter[3]]
        att = self.attachments[letter[1]]
        return att.space.cells[letter[2]]

    def letter_weight(self, letter):
        if letter[0] == "e":
            return 0 if letter in self.zero_weight else 1
        att = self.attachments[letter[1]]
        w = 1
        for a in att.a_cells:
            w = max(w, self.word_weight(att.boundary_map[a]))
        return w

    def word_weight(self, word):
        return sum(self.letter_weight(l) for l in word)

    def word_dim(self, word):
        return sum(self.letter_dim(l) for l in word)

    def normalize_word(self, letters):
        """Delete adjacent cancel pairs, leftmost first, until none is left."""
        return _cancel_onto([], letters, self.cancel_pairs)

    def compose_words(self, u, v):
        """u then v (diagrammatic order), normalized."""
        return self.normalize_word(u + v)

    # -- word faces --------------------------------------------------------------

    def face_of_word(self, word, k: int, eps: int):
        """The (k, eps)-face of a word cell, as (degeneracy word, word)."""
        off = 0
        for idx, letter in enumerate(word):
            dl = self.letter_dim(letter)
            if off + dl >= k:
                break
            off += dl
        else:
            raise ValidationError(f"face index {k} out of range for word")
        local, repl = _letter_face(self, letter, k - off, eps)
        new_word = self.normalize_word(word[:idx] + repl + word[idx + 1 :])
        return tuple(s + off for s in local), new_word

    # -- construction ------------------------------------------------------------

    def add_edges(self, pair, space: CubicalSet):
        if pair[0] not in self.objects or pair[1] not in self.objects:
            raise ValidationError(f"unknown endpoints {pair}")
        if pair in self.edges:
            raise ValidationError(f"edge set for {pair} already present")
        self.edges[pair] = space

    def check_word(self, word, src, tgt, dim=None):
        at = src
        for letter in word:
            if self.letter_src(letter) != at:
                raise ValidationError(f"word not composable at {letter}")
            at = self.letter_tgt(letter)
        if at != tgt:
            raise ValidationError("word does not reach its target")
        if dim is not None and self.word_dim(word) != dim:
            raise ValidationError("word has wrong dimension")


def free_on_graph(objects, edges, name: str = "") -> EnrichedPresentation:
    """The free enriched category on labeled generating edges: mapping spaces
    are coproducts over directed paths of tensors of the edge labels."""
    pres = EnrichedPresentation(objects, None, name)
    for pair, space in edges.items():
        pres.add_edges(pair, space)
    return pres


def vertex_edge_set(*names) -> CubicalSet:
    return CubicalSet({n: 0 for n in names}, {})


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
    out = pres.copy(name=name or pres.name)
    a_cells = frozenset(a_cells)
    for c in a_cells:
        if c not in space.cells:
            raise ValidationError(f"A-cell {c} not in B")
    for (c, k, eps), ref in space.faces.items():
        if c in a_cells and ref.base not in a_cells:
            raise ValidationError("A is not closed under faces")
    att = Attachment(space, a_cells, source, target, dict(boundary_map))
    out.attachments.append(att)
    # validate the boundary words against the new presentation
    for a in a_cells:
        word = boundary_map.get(a)
        if word is None:
            raise ValidationError(f"no boundary word for {a}")
        out.check_word(word, source, target, dim=space.cells[a])
        d = space.cells[a]
        for k in range(1, d + 1):
            for eps in (0, 1):
                ref = space.faces[(a, k, eps)]
                expected = (ref.degens, out.normalize_word(boundary_map[ref.base]))
                got = out.face_of_word(word, k, eps)
                if got != expected:
                    raise ValidationError(
                        f"boundary word of {a} breaks face ({k},{eps}): "
                        f"{got} != {expected}"
                    )
    return out


def interval_attachment_space() -> CubicalSet:
    return CubicalSet(
        {"h": 1, "h0": 0, "h1": 0},
        {("h", 1, 0): nd("h0"), ("h", 1, 1): nd("h1")},
    )


def special_category(kind: str, label: CubicalSet = None) -> EnrichedPresentation:
    """The four special enriched categories: the empty one, the point, the
    directed interval on a label, and the chaotic interval."""
    if kind == "empty":
        return EnrichedPresentation([], None, "empty")
    if kind == "point":
        return EnrichedPresentation(["0"], None, "point")
    if kind == "interval":
        if label is None:
            label = vertex_edge_set("f")
        return free_on_graph(["0", "1"], {("0", "1"): label}, name="interval")
    if kind == "interval_tilde":
        pres = free_on_graph(
            ["0", "1"],
            {("0", "1"): vertex_edge_set("t01"), ("1", "0"): vertex_edge_set("t10")},
            name="interval~",
        )
        f = ("e", "0", "1", "t01")
        g = ("e", "1", "0", "t10")
        pres.cancel_pairs |= {(f, g), (g, f)}
        pres.zero_weight |= {f, g}
        return pres
    raise ValidationError(f"unknown special category {kind!r}")


def build_P() -> EnrichedPresentation:
    return free_on_graph(
        ["c", "c'"],
        {("c", "c'"): vertex_edge_set("u"), ("c'", "c"): vertex_edge_set("v")},
        name="P",
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


def glue_presentations(C1, edge1, C2, edge2, prefix: str = "2:") -> EnrichedPresentation:
    """Pushout of C1 and C2 over the walking arrow: identify the classified
    edges (and their endpoints) of the two presentations."""
    s1, t1, c1 = edge1[1], edge1[2], edge1[3]
    s2, t2, c2 = edge2[1], edge2[2], edge2[3]

    def obj_map(o):
        if o == s2:
            return s1
        if o == t2:
            return t1
        return prefix + o

    objects = list(C1.objects) + [
        obj_map(o) for o in C2.objects if obj_map(o) not in C1.objects
    ]
    out = EnrichedPresentation(objects, None, name=f"{C1.name}+{C2.name}")

    def letter_map2(letter):
        if letter[0] == "e":
            _, s, t, c = letter
            if (s, t, c) == (s2, t2, c2):
                return edge1
            return ("e", obj_map(s), obj_map(t), prefix + c)
        return ("a", letter[1] + len(C1.attachments), prefix + letter[2])

    # edge sets: C1's plus C2's with the identified generator removed
    merged = {}
    for pair, space in C1.edges.items():
        merged[pair] = ({c: space.cells[c] for c in space.cells}, dict(space.faces))
    for (s, t), space in C2.edges.items():
        pair = (obj_map(s), obj_map(t))
        cells, faces = merged.setdefault(pair, ({}, {}))
        for c, d in space.cells.items():
            if (s, t, c) == (s2, t2, c2):
                continue
            cells[prefix + c] = d
        for (c, k, eps), ref in space.faces.items():
            if (s, t, c) == (s2, t2, c2):
                continue
            base = ref.base
            if (s, t, base) == (s2, t2, c2):
                raise ValidationError("cannot glue along a non-vertex edge")
            faces[(prefix + c, k, eps)] = CellRef(ref.degens, prefix + base)
    for pair, (cells, faces) in merged.items():
        out.edges[pair] = CubicalSet(cells, faces)

    out.attachments = list(C1.attachments)
    for att in C2.attachments:
        cells = {prefix + c: d for c, d in att.space.cells.items()}
        faces = {
            (prefix + c, k, eps): CellRef(ref.degens, prefix + ref.base)
            for (c, k, eps), ref in att.space.faces.items()
        }
        out.attachments.append(
            Attachment(
                CubicalSet(cells, faces),
                frozenset(prefix + c for c in att.a_cells),
                obj_map(att.source),
                obj_map(att.target),
                {
                    prefix + c: tuple(letter_map2(l) for l in word)
                    for c, word in att.boundary_map.items()
                },
            )
        )
    out.cancel_pairs = set(C1.cancel_pairs) | {
        (letter_map2(a), letter_map2(b)) for a, b in C2.cancel_pairs
    }
    out.zero_weight = set(C1.zero_weight) | {
        letter_map2(l) for l in C2.zero_weight
    }
    return out


def build_E() -> EnrichedPresentation:
    """The pushout of two copies of H over the walking arrow, gluing the map
    classifying u in the first copy to the map classifying v in the second.
    The result has one morphism f with separate left- and right-inverse
    homotopies (kept distinct on purpose)."""
    H1 = build_H()
    H2 = build_H()
    E = glue_presentations(H1, ("e", "c", "c'", "u"), H2, ("e", "c'", "c", "v"))
    E.name = "E"
    return E


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
    out = pres.copy(name=name or f"{pres.name}<{c}^-1>")
    inv_cell = c + "_inv"
    rev = out.edges.get((t, s))
    if rev is None:
        out.edges[(t, s)] = vertex_edge_set(inv_cell)
    else:
        cells = dict(rev.cells)
        if inv_cell in cells:
            raise ValidationError(f"cell {inv_cell} already present")
        cells[inv_cell] = 0
        out.edges[(t, s)] = CubicalSet(cells, dict(rev.faces))
    inv = ("e", t, s, inv_cell)
    out.cancel_pairs |= {(edge, inv), (inv, edge)}
    out.zero_weight |= {edge, inv}
    return out


# -- mapping spaces --------------------------------------------------------------


@dataclass
class MappingSpaceTruncation:
    pair: tuple
    word_bound: int
    space: CubicalSet
    words: dict          # cell id -> word
    stable_dims: frozenset

    def zero_cells(self):
        return [self.words[c] for c in self.space.by_dim(0)]


class _WordFiltration:
    """Every cell word of Map(x, y) up to one word-weight bound, built once.

    Words are enumerated a single time at ``top``, each with its weight and
    dimension, and their faces are computed and resolved to word indices.
    The truncation at any bound b <= top is the subcomplex of words of weight
    at most b; ``level(b)`` renders it as a cubical set.  Letter tables live
    in this object only, so nothing is cached on the presentation, and the
    rendered levels hold no reference back to the build."""

    def __init__(self, pres, x, y, top: int):
        self.x, self.y = x, y
        cancel = pres.cancel_pairs
        outgoing = {}   # object -> [(letter, target, weight, dim)]
        # least[n]: the least weight of a partial word of n letters (top + 1
        # while none is seen), so the word-length guard of every level
        # b <= top can be replayed
        least = [top + 1] * (4 * top + 8)
        max_letters = 4 * top + 6
        found = []

        def letters_at(at):
            out = outgoing.get(at)
            if out is None:
                out = outgoing[at] = [
                    (l, pres.letter_tgt(l), pres.letter_weight(l), pres.letter_dim(l))
                    for l in pres.letters_from(at)
                ]
            return out

        def rec(at, word, weight, dim):
            n = len(word)
            if weight < least[n]:
                least[n] = weight
            if n > max_letters:
                raise GuardError(
                    "word length guard exceeded; presentation rewrites do not terminate"
                )
            if at == y:
                found.append((tuple(word), weight, dim))
            for letter, tgt, w, dl in letters_at(at):
                if weight + w > top:
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
        self.least = least
        self.words = [w for w, _, _ in found]
        self.weights = [wt for _, wt, _ in found]
        self.dims = [d for _, _, d in found]
        self._ids = [None] * len(self.words)  # cell ids, rendered on first use
        index = {w: i for i, w in enumerate(self.words)}

        letter_dims = {}
        letter_faces = {}  # letter -> [(local degens, replacement word)] in (k, eps) order
        for entries in outgoing.values():
            for letter, _, _, dl in entries:
                letter_dims[letter] = dl
                letter_faces[letter] = [
                    _letter_face(pres, letter, kk, eps)
                    for kk in range(1, dl + 1)
                    for eps in (0, 1)
                ]
        # faces[i]: the (k, eps)-faces of word i in (k, eps) order, each as
        # (degeneracy word, index of the face word)
        self.faces = []
        for w in self.words:
            out = []
            off = 0
            for i, letter in enumerate(w):
                rest = w[i + 1 :]
                for local, repl in letter_faces[letter]:
                    fw = _cancel_onto(list(w[:i]), repl + rest, cancel)
                    j = index.get(fw)
                    if j is None:
                        raise ValidationError(
                            f"face left the truncation: {word_id(fw)} from "
                            f"{word_id(w)}; word weights are not face-monotone"
                        )
                    out.append((tuple(s + off for s in local), j))
                off += letter_dims[letter]
            self.faces.append(out)

    def _check_guard(self, b: int):
        """The word-length guard of a standalone build at bound b."""
        if min(self.least[4 * b + 7 :]) <= b:
            raise GuardError(
                "word length guard exceeded; presentation rewrites do not terminate"
            )

    def cell_counts(self, b: int) -> dict:
        self._check_guard(b)
        counts = {}
        for wt, d in zip(self.weights, self.dims):
            if wt <= b:
                counts[d] = counts.get(d, 0) + 1
        return counts

    def level(self, b: int):
        """The truncation at bound b as (cubical set, cell id -> word)."""
        self._check_guard(b)
        keep = [i for i, wt in enumerate(self.weights) if wt <= b]
        ids = self._ids
        cells = {}
        index = {}
        for i in keep:
            w = self.words[i]
            cid = ids[i]
            if cid is None:
                cid = ids[i] = word_id(w)
            if cid in cells:
                raise ValidationError(
                    f"words {index[cid]} and {w} both have the cell id {cid!r}"
                )
            cells[cid] = self.dims[i]
            index[cid] = w
        faces = {}
        weights = self.weights
        for i in keep:
            cid = ids[i]
            for n, (degens, j) in enumerate(self.faces[i]):
                if weights[j] > b:
                    raise ValidationError(
                        f"face left the truncation: {word_id(self.words[j])} from "
                        f"{cid}; word weights are not face-monotone"
                    )
                faces[(cid, n // 2 + 1, n % 2)] = CellRef(degens, ids[j])
        space = CubicalSet(cells, faces, name=f"Map({self.x},{self.y})@{b}")
        return space, index


def _letter_face(pres, letter, kk: int, eps: int):
    """The (kk, eps)-face of a single letter as (local degens, word)."""
    if letter[0] == "e":
        ref = pres.edges[(letter[1], letter[2])].faces[(letter[3], kk, eps)]
        return ref.degens, (("e", letter[1], letter[2], ref.base),)
    att = pres.attachments[letter[1]]
    ref = att.space.faces[(letter[2], kk, eps)]
    if ref.base in att.a_cells:
        return ref.degens, att.boundary_map[ref.base]
    return ref.degens, (("a", letter[1], ref.base),)


def _require_bound(bound: int):
    if bound < 0:
        raise ValidationError(f"word bound {bound} is negative")


def mapping_space(pres, x, y, bound: int, with_stability: bool = True) -> MappingSpaceTruncation:
    """Materialize the word-length truncation of Map(x, y) as a cubical set.

    stable_dims lists the dimensions in which raising the bound by one adds
    no cells.  It is read off the weight filtration of one build at
    bound + 1, which also checks that every face of that build stays inside
    it; stability is computed, never assumed."""
    _require_bound(bound)
    if not with_stability:
        space, index = _WordFiltration(pres, x, y, bound).level(bound)
        return MappingSpaceTruncation((x, y), bound, space, index, frozenset())
    levels = _WordFiltration(pres, x, y, bound + 1)
    space, index = levels.level(bound)
    counts_small = space.cell_counts()
    counts_big = levels.cell_counts(bound + 1)
    dims = set(counts_small) | set(counts_big)
    stable = frozenset(
        d for d in dims if counts_small.get(d, 0) == counts_big.get(d, 0)
    )
    return MappingSpaceTruncation((x, y), bound, space, index, stable)


# -- homotopy category -----------------------------------------------------------


def _classes(space: CubicalSet) -> dict:
    """Each 0-cell of a truncation with the representative of its class
    modulo the relation generated by 1-cells."""
    uf = UnionFind()
    for c in space.by_dim(1):
        uf.union(space.faces[(c, 1, 0)].base, space.faces[(c, 1, 1)].base)
    return {c: uf.find(c) for c in space.by_dim(0)}


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
        w = self._pres.compose_words(
            self.rep_words[(x, y, r1)], self.rep_words[(y, z, r2)]
        )
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
    measured on the quotient that the homotopy category actually uses."""
    _require_bound(bound)
    spaces = {}
    for x in pres.objects:
        for y in pres.objects:
            levels = _WordFiltration(pres, x, y, bound + 1)
            small, words = levels.level(bound)
            large, _ = levels.level(bound + 1)
            cs, cl = _classes(small), _classes(large)
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
            spaces[(x, y)] = (words, cs)

    homs = {}
    class_of = {}
    rep_words = {}
    for (x, y), (words, cs) in spaces.items():
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


def _find_homotopy(pres, trunc: MappingSpaceTruncation, from_word, to_word):
    """A 1-cell of the truncation whose (1,0)-face is from_word and whose
    (1,1)-face is to_word; degenerate candidates allowed."""
    fid, tid = word_id(from_word), word_id(to_word)
    if fid == tid and fid in trunc.space.cells:
        return ("degenerate", fid)
    for c in trunc.space.by_dim(1):
        if (
            trunc.space.faces[(c, 1, 0)] == nd(fid)
            and trunc.space.faces[(c, 1, 1)] == nd(tid)
        ):
            return ("cell", c)
    return None


def extend_inverse(pres, edge, bound: int) -> dict:
    """Search for the data of an extension along the homotopy-inverse
    category: a left inverse with a homotopy g.f => id and a right inverse
    with a homotopy f.g' => id.  Either side may come back inconclusive
    (a failure within the truncation is not a disproof: mapping spaces are
    not fibrant in general)."""
    if edge[0] != "e":
        raise ValidationError("extend_inverse expects a generating edge")
    _, s, t, c = edge
    f_word = (edge,)
    back = mapping_space(pres, t, s, bound, with_stability=False)
    loops_s = mapping_space(pres, s, s, bound, with_stability=False)
    loops_t = mapping_space(pres, t, t, bound, with_stability=False)

    report = {"edge": c, "bound": bound}
    left = None
    for g in back.zero_cells():
        gf = pres.compose_words(f_word, g)  # f then g
        if word_id(gf) not in loops_s.space.cells:
            continue
        witness = _find_homotopy(pres, loops_s, gf, ())
        if witness:
            left = {"inverse": g, "homotopy": witness}
            break
    right = None
    for g in back.zero_cells():
        fg = pres.compose_words(g, f_word)  # g then f
        if word_id(fg) not in loops_t.space.cells:
            continue
        witness = _find_homotopy(pres, loops_t, fg, ())
        if witness:
            right = {"inverse": g, "homotopy": witness}
            break
    report["left"] = left or "inconclusive"
    report["right"] = right or "inconclusive"
    report["extends"] = left is not None and right is not None
    return report
