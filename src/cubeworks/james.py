"""The James construction: the free monoid on a based simplicial set, taken
degreewise and truncated by word length.

Non-degenerate d-cells are words of length at most L in the non-basepoint
elements of X_d whose degeneracy words have empty common intersection (the
basepoint acts as the unit, so basepoint letters are deleted)."""

from __future__ import annotations

import sys
from collections import Counter
from itertools import repeat

from .errors import CELL_BUDGET, GuardError, ValidationError, bulk
from .presented import divide
from .simplicial import SimplexRef, SimplicialSet


# words are strings of code points, so a dimension has at most this many letters
MAX_LETTERS = sys.maxunicode


def _letter_token(ref: SimplexRef) -> str:
    if not ref.degens:
        return ref.base
    return f"{ref.base}^{''.join(map(str, ref.degens))}"


def _join_tokens(tokens) -> str:
    """Cell id of a word from its already-rendered letter tokens."""
    return "J[" + ",".join(tokens) + "]"


def word_token(word) -> str:
    return _join_tokens(map(_letter_token, word))


def _count_cells(X, base: str, bound: int, max_dim: int) -> tuple:
    """(cells, letters): the number of cells of the truncation of the
    simplicial set X, counted without building a word, and letters[d], the
    sorted non-basepoint elements of X_d, which the build reads.  Each
    dimension's letters are taken once, and more than MAX_LETTERS are
    refused before that dimension is counted.  Per dimension the count
    carries, one letter per step, the number of words for each common
    degeneracy mask; a word is a cell once its mask is empty.  The count
    stops as soon as it passes CELL_BUDGET."""
    total = 0
    letters = []
    for d in range(max_dim + 1):
        refs = sorted(r for r in X.refs_of_dim(d) if r.base != base)
        if len(refs) > MAX_LETTERS:
            raise GuardError(
                f"James construction: dimension {d} has {len(refs)} letters, "
                f"more than the {MAX_LETTERS} codes of a string"
            )
        letters.append(refs)
        masks = Counter(sum(1 << t for t in r.degens) for r in refs)
        states = {(1 << d) - 1: 1}  # the empty word meets in every direction
        for _ in range(bound + 1):
            total += states.get(0, 0)
            if total > CELL_BUDGET:
                return total, letters
            step = {}
            for inter, n in states.items():
                for m, k in masks.items():
                    step[inter & m] = step.get(inter & m, 0) + n * k
            states = step
    return total, letters


@bulk
def james(X, base: str, bound: int, max_dim: int = None) -> SimplicialSet:
    """Truncated free monoid on (X, base); words longer than `bound` are cut
    off.  For a connected X the James splitting ΣJ_L X ≃ ⋁_(k≤L) ΣX^(∧k)
    gives H̃_d = ⊕_(k≤L) H̃_d(X^(∧k)) below the `max_dim` cap, and X^(∧k) is
    (k - 1)-connected, so degree d is that of the whole J X once bound >= d.

    Based cubical sets are accepted by triangulating first (the free monoid
    is taken degreewise, i.e. in the cartesian flavor).

    Words are strings of letter codes: the non-basepoint elements of X_d are
    numbered from 1 in sorted order (0 stands for the basepoint), a word is
    the string of the characters `chr` of its codes, and each letter carries
    its degeneracy set as a bitmask.  The face δ_j of a word is one
    `str.translate` through a table of the δ_j of its letters, which deletes
    the basepoint, and a dict probe; only a degenerate face ANDs the masks of
    its letters and divides them through `presented.divide`.  A cell id is
    one `str.translate` that renders each letter.  The cells are counted
    first, and more than CELL_BUDGET of them, or more letters in a
    dimension than MAX_LETTERS, are refused before any word is made."""
    from .cubical import CubicalSet

    if bound < 0 or (max_dim is not None and max_dim < 0):
        raise ValidationError(f"bound {bound} and max_dim {max_dim} must not be negative")
    if isinstance(X, CubicalSet):
        from .triangulate import triangulate

        X = triangulate(X)
        base = f"{base}#"
    if X.cells.get(base) != 0:
        raise ValidationError("basepoint must be a vertex")
    if max_dim is None:
        max_dim = bound
    total, refs = _count_cells(X, base, bound, max_dim)
    if total > CELL_BUDGET:
        raise GuardError(f"James construction of more than {CELL_BUDGET} cells exceeds budget")

    # letters[d][c] is the letter with code c >= 1; masks[d][c] its
    # degeneracy set as a bitmask (masks[d][0] = all directions, the unit of
    # AND, for the basepoint); code[d] maps a letter to its character
    letters = [[None] + rs for rs in refs]
    masks = [
        [(1 << d) - 1] + [sum(1 << t for t in r.degens) for r in rs] for d, rs in enumerate(refs)
    ]
    code = [{r: chr(c) for c, r in enumerate(ls) if c} for ls in letters]

    cells = {}
    words = []  # words[d]: the words of dimension d, in cell order
    ids = []  # ids[d]: their cell ids
    nd_of = []  # nd_of[d]: word -> non-degenerate ref of its cell, below max_dim
    for d in range(max_dim + 1):
        mask_d = masks[d]
        max_gap = max((d - m.bit_count() for m in mask_d[1:]), default=0)
        alphabet = [(chr(c), m) for c, m in enumerate(mask_d) if c]
        found = []

        def rec(word, inter, budget):
            if not inter:
                found.append(word)
            if budget == 0:
                return
            limit = (budget - 1) * max_gap
            for ch, m in alphabet:
                new_inter = inter & m
                if new_inter.bit_count() <= limit:
                    rec(word + ch, new_inter, budget - 1)

        rec("", mask_d[0], bound)
        render = [None] + [_letter_token(r) + "," for r in letters[d][1:]]
        wids = ["J[" + w.translate(render)[:-1] + "]" for w in found]
        cells.update(dict.fromkeys(wids, d))
        words.append(found)
        ids.append(wids)
        # cells of the top dimension are never faces
        nd_of.append(dict(zip(found, map(SimplexRef, repeat(()), wids))) if d < max_dim else {})

    rows = dict.fromkeys(ids[0], ())
    unit = word_token(())
    for d in range(1, max_dim + 1):
        if not words[d]:
            continue
        e = d - 1
        mask_e = masks[e]
        lower = nd_of[e]
        empty = SimplexRef(tuple(range(e)), unit)

        def degenerate_face(fw):
            """The face fw of a cell when fw is no cell: the empty word, or a
            word whose letters share the degeneracy directions T.  Dividing
            T out keeps the word's length and its non-basepoint letters and
            leaves an empty common mask, so for a valid X the divided word
            is a cell of dimension e - len(T), below max_dim."""
            if not fw:
                return empty
            common = mask_e[0]
            for ch in fw:
                common &= mask_e[ord(ch)]
            T = tuple(t for t in range(e) if common >> t & 1)
            low = e - len(T)
            divided = (divide(letters[e][ord(ch)], T, e, 0) for ch in fw)
            return SimplexRef(T, nd_of[low]["".join(map(code[low].__getitem__, divided))].base)

        columns = []  # columns[j][i]: the face δ_j of words[d][i]
        for j in range(d + 1):
            table = [None]
            for r in letters[d][1:]:
                img = X.face_of(r, j)
                table.append(None if img.base == base else code[e][img])
            face_words = [w.translate(table) for w in words[d]]
            column = list(map(lower.get, face_words))
            for i, ref in enumerate(column):
                if ref is None:
                    column[i] = degenerate_face(face_words[i])
            columns.append(column)
        rows.update(zip(ids[d], zip(*columns)))
    return SimplicialSet(cells, name=f"J({X.name})@{bound}", rows=rows)
