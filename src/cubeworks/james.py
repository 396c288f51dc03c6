"""The James construction: the free monoid on a based simplicial set, taken
degreewise and truncated by word length.

Non-degenerate d-cells are words of length at most L in the non-basepoint
elements of X_d whose degeneracy words have empty common intersection (the
basepoint acts as the unit, so basepoint letters are deleted)."""

from __future__ import annotations

from collections import Counter

from .errors import CELL_BUDGET, GuardError, ValidationError
from .presented import divide
from .simplicial import SimplexRef, SimplicialSet, delta_face


def _letter_token(ref: SimplexRef) -> str:
    if not ref.degens:
        return ref.base
    return f"{ref.base}^{''.join(map(str, ref.degens))}"


def _join_tokens(tokens) -> str:
    """Cell id of a word from its already-rendered letter tokens."""
    return "J[" + ",".join(tokens) + "]"


def word_token(word) -> str:
    return _join_tokens(map(_letter_token, word))


def _count_cells(X, base: str, bound: int, max_dim: int) -> int:
    """The cells of the truncation of the simplicial set X, counted without
    building a word: per dimension, one letter per step, the number of words
    for each common degeneracy mask; a word is a cell once its mask is empty.
    The count stops as soon as it passes CELL_BUDGET."""
    total = 0
    for d in range(max_dim + 1):
        letters = Counter(
            sum(1 << t for t in r.degens) for r in X.refs_of_dim(d) if r.base != base
        )
        states = {(1 << d) - 1: 1}  # the empty word meets in every direction
        for _ in range(bound + 1):
            total += states.get(0, 0)
            if total > CELL_BUDGET:
                return total
            step = {}
            for inter, n in states.items():
                for m, k in letters.items():
                    step[inter & m] = step.get(inter & m, 0) + n * k
            states = step
    return total


def james(X, base: str, bound: int, max_dim: int = None) -> SimplicialSet:
    """Truncated free monoid on (X, base); words longer than `bound` are cut
    off.  For a connected X the James splitting ΣJ_L X ≃ ⋁_(k≤L) ΣX^(∧k)
    gives H̃_d = ⊕_(k≤L) H̃_d(X^(∧k)) below the `max_dim` cap, and X^(∧k) is
    (k - 1)-connected, so degree d is that of the whole J X once bound >= d.

    Based cubical sets are accepted by triangulating first (the free monoid
    is taken degreewise, i.e. in the cartesian flavor).

    Words are tuples of letter codes: the non-basepoint elements of X_d are
    numbered from 1 in sorted order (0 stands for the basepoint) and each
    carries its degeneracy set as a bitmask.  The faces of letters are
    tabulated once, so a face of a word costs table lookups and a dict
    probe; only a degenerate face ANDs the masks of its letters and divides
    them through `presented.divide`.  Each cell id is rendered once.  The
    cells are counted first, and more than CELL_BUDGET of them are refused
    before any word is made."""
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
    if _count_cells(X, base, bound, max_dim) > CELL_BUDGET:
        raise GuardError(f"James construction of more than {CELL_BUDGET} cells exceeds budget")

    # letters[d][c] is the letter with code c >= 1; masks[d][c] its
    # degeneracy set as a bitmask (masks[d][0] = all directions, the unit of
    # AND, for the basepoint)
    letters = []
    masks = []
    for d in range(max_dim + 1):
        refs = sorted(r for r in X.refs_of_dim(d) if r.base != base)
        letters.append([None] + refs)
        masks.append([(1 << d) - 1] + [sum(1 << t for t in r.degens) for r in refs])
    code = [{r: c for c, r in enumerate(ls) if c} for ls in letters]

    cells = {}
    words = []  # words[d]: [(word, cell id)] in cell order
    nd_of = []  # nd_of[d]: word -> non-degenerate ref of its cell, below max_dim
    for d in range(max_dim + 1):
        mask_d = masks[d]
        max_gap = max((d - m.bit_count() for m in mask_d[1:]), default=0)
        found = []

        def rec(word, inter, budget):
            if not inter:
                found.append(word)
            if budget == 0:
                return
            limit = (budget - 1) * max_gap
            for c in range(1, len(mask_d)):
                new_inter = inter & mask_d[c]
                if new_inter.bit_count() <= limit:
                    rec(word + (c,), new_inter, budget - 1)

        rec((), mask_d[0], bound)
        tokens = [None] + [_letter_token(r) for r in letters[d][1:]]
        listed = []
        refs = {}
        for w in found:
            wid = _join_tokens([tokens[c] for c in w])
            cells[wid] = d
            listed.append((w, wid))
            if d < max_dim:  # cells of the top dimension are never faces
                refs[w] = SimplexRef((), wid)
        words.append(listed)
        nd_of.append(refs)

    faces = {}
    unit = word_token(())
    for d in range(1, max_dim + 1):
        if not words[d]:
            continue
        e = d - 1
        mask_e = masks[e]
        full = mask_e[0]
        lower = nd_of[e]
        empty = SimplexRef(tuple(range(e)), unit)
        tables = []
        for j in range(d + 1):
            f = delta_face(d, j)
            table = [0]
            for r in letters[d][1:]:
                img = X.act(r, f)
                table.append(0 if img.base == base else code[e][img])
            tables.append(table)
        for w, wid in words[d]:
            for j, table in enumerate(tables):
                fw = tuple(filter(None, map(table.__getitem__, w)))
                ref = lower.get(fw) if fw else empty
                if ref is None:
                    # a degenerate face: divide out the common degeneracy
                    common = full
                    for c in fw:
                        common &= mask_e[c]
                    T = tuple(t for t in range(e) if common >> t & 1)
                    hit = None
                    if T:
                        low = e - len(T)
                        divided = (divide(letters[e][c], T, e, 0) for c in fw)
                        hit = nd_of[low].get(tuple(code[low][r] for r in divided))
                    if hit is None:
                        raise ValidationError(f"face of {wid} left the truncation window")
                    ref = SimplexRef(T, hit.base)
                faces[(wid, j)] = ref
    return SimplicialSet(cells, faces, name=f"J({X.name})@{bound}")
