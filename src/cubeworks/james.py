"""The James construction: the free monoid on a based simplicial set, taken
degreewise and truncated by word length.

Non-degenerate d-cells are words of length at most L in the non-basepoint
elements of X_d whose degeneracy words have empty common intersection (the
basepoint acts as the unit, so basepoint letters are deleted)."""

from __future__ import annotations

from .errors import ValidationError
from .simplicial import (
    SimplexRef,
    SimplicialSet,
    collapse_of_surj,
    delta_face,
    mono_compose,
    surj_from_collapse,
)


def _letter_token(ref: SimplexRef) -> str:
    if not ref.degens:
        return ref.base
    return f"{ref.base}^{''.join(map(str, ref.degens))}"


def word_token(word) -> str:
    if not word:
        return "J[]"
    return "J[" + ",".join(_letter_token(l) for l in word) + "]"


def _section(surj):
    """First-occurrence section of a surjection tuple."""
    sec = []
    seen = set()
    for i, v in enumerate(surj):
        if v not in seen:
            seen.add(v)
            sec.append(i)
    return tuple(sec)


def divide_letter(ref: SimplexRef, T, d: int) -> SimplexRef:
    """Factor the degeneracy of ref through the common surjection s_T:
    returns ref' with s_{ref} = s_{ref'} o s_T (ambient dimension d)."""
    if not T:
        return ref
    s = surj_from_collapse(ref.degens, d)
    sec = _section(surj_from_collapse(T, d))
    s_rest = mono_compose(s, sec)
    return SimplexRef(collapse_of_surj(s_rest), ref.base)


def normalize_word(word, d: int):
    """EZ normal form of a word of X_d elements: (common collapse set,
    divided word).  Empty words normalize to the basepoint convention of the
    caller."""
    common = set(range(d))
    for ref in word:
        common &= set(ref.degens)
    T = tuple(sorted(common))
    return T, tuple(divide_letter(r, T, d) for r in word)


def james(X, base: str, bound: int, max_dim: int = None) -> SimplicialSet:
    """Truncated free monoid on (X, base).  Words longer than `bound` are cut
    off; homology in degree d is reliable once bound >= d + 1 for the wedge
    and circle families (validated empirically in the acceptance suite).

    Based cubical sets are accepted by triangulating first (the free monoid
    is taken degreewise, i.e. in the cartesian flavor)."""
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

    cells = {}
    words_of = {}
    for d in range(max_dim + 1):
        letters = sorted(r for r in X.refs_of_dim(d) if r.base != base)
        if d and not letters:
            continue
        max_gap = max((d - len(r.degens) for r in letters), default=0)
        found = []

        def rec(word, inter, budget):
            if not inter:
                found.append(tuple(word))
            if budget == 0:
                return
            for ref in letters:
                new_inter = inter & set(ref.degens) if inter else inter
                if len(new_inter) > (budget - 1) * max_gap:
                    continue
                word.append(ref)
                rec(word, new_inter, budget - 1)
                word.pop()

        rec([], set(range(d)), bound)
        for w in found:
            if d > 0 and not w:
                continue
            wid = word_token(w)
            cells[wid] = d
            words_of[wid] = w

    faces = {}
    for wid, w in words_of.items():
        d = cells[wid]
        if d == 0:
            continue
        for j in range(d + 1):
            f = delta_face(d, j)
            new_letters = []
            for ref in w:
                img = X.act(ref, f)
                if img.base != base:
                    new_letters.append(img)
            if not new_letters:
                faces[(wid, j)] = SimplexRef(tuple(range(d - 1)), word_token(()))
                continue
            T, divided = normalize_word(new_letters, d - 1)
            fid = word_token(divided)
            if fid not in cells:
                raise ValidationError(f"face of {wid} left the truncation window")
            faces[(wid, j)] = SimplexRef(T, fid)
    return SimplicialSet(cells, faces, name=f"J({X.name})@{bound}")
