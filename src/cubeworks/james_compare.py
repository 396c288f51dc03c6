"""Comparison of the localized mapping monoid with the James construction.

After inverting the canonical morphism of the homotopy-inverse-pair category,
the loop words at the source object reduce to products of two generating
loops with contracting homotopies; triangulation turns the word tensor into
the degreewise free monoid, so the triangulated truncation must match the
independently built James construction on two wedged intervals, window for
window.  This module constructs that bijection explicitly, cell id to cell
id, and verifies it by renaming faces with `is_isomorphism` (search would be
hopeless at tens of thousands of simplices; the verified constructed
bijection is the reported witness)."""

from __future__ import annotations

from .enriched import build_E, localize, mapping_space
from .errors import ValidationError
from .james import _join_tokens, _letter_token, james
from .presented import is_isomorphism
from .simplicial import SimplexRef
from .triangulate import triangulate


F = ("e", "c", "c'", "u")
F_INV = ("e", "c'", "c", "u_inv")
G1 = ("e", "c'", "c", "v")
G2 = ("e", "c'", "c", "2:u")
H1 = ("a", 0, "h")
H2 = ("a", 1, "2:h")


def localized_E():
    return localize(build_E(), F)


def parse_loop_word(word):
    """Split a reduced loop word at c into James letter groups, each with the
    index of the wedge interval it uses and, for one-dimensional groups, the
    block offset of its coordinate."""
    groups = []
    offset = 0
    i = 0
    n = len(word)
    while i < n:
        letter = word[i]
        if letter == H1:
            groups.append(("h", 1, offset))
            offset += 1
            i += 1
        elif letter == F:
            i += 1
            closed = False
            while i < n and word[i] == H2:
                groups.append(("h", 2, offset))
                offset += 1
                i += 1
            if i < n and word[i] == F_INV:
                i += 1
                closed = True
            elif i < n and word[i] in (G1, G2):
                groups.append(("v", 1 if word[i] == G1 else 2))
                i += 1
                closed = True
            if not closed:
                raise ValidationError(f"unparseable loop word {word}")
        else:
            raise ValidationError(f"unparseable loop word {word}")
    return groups


def letter_token(group, chain):
    """The token of the James letter that one group of a loop word gives on
    a simplex (spanning chain of bit tuples) of its word cell; None for a
    basepoint letter, which the James construction deletes."""
    k = len(chain) - 1
    if group[0] == "v":
        return _letter_token(SimplexRef(tuple(range(k)), f"a{group[1]}"))
    _, idx, t = group
    bits = tuple(v[t] for v in chain)
    if bits == (1,) * (k + 1):
        return None
    if bits == (0,) * (k + 1):
        return _letter_token(SimplexRef(tuple(range(k)), f"a{idx}"))
    degens = tuple(j for j in range(k) if bits[j] == bits[j + 1])
    return _letter_token(SimplexRef(degens, f"e{idx}"))


def translate_simplex(groups, chain, tokens):
    """The James cell id matching a simplex (spanning chain of bit tuples) of
    the triangulated word cell whose loop word parses into groups.  `tokens`
    holds the letter token of each group already met on this chain."""
    out = []
    for group in groups:
        if group not in tokens:
            tokens[group] = letter_token(group, chain)
        token = tokens[group]
        if token is not None:
            out.append(token)
    return _join_tokens(out)


def _parse_chain(suffix: str) -> tuple:
    """The vertex chain of a simplex id's `#...` suffix, as bit tuples."""
    return tuple(tuple(map(int, v)) for v in suffix.split(";"))


def james_translation(bound: int):
    """Build the localized mapping space at c, its triangulation and the
    James construction at the same window, and translate every simplex into
    a James cell.  Returns (truncation, triangulation, James construction,
    assignment), the assignment from simplex id to James cell id; raises if
    a translated cell is missing, has another dimension or is hit twice."""
    from .simplicial import wedge_of_intervals

    EL = localized_E()
    trunc = mapping_space(EL, "c", "c", bound)
    tri = triangulate(trunc.space)
    J = james(wedge_of_intervals(2), "w", bound)

    # each chain suffix is parsed once, each loop word once per cell, and
    # each letter token once per chain
    chains = {}  # suffix -> (chain, {group: letter token})
    groups_of = {}
    assignment = {}
    used = set()
    for sid, d in tri.cells.items():
        cell, suffix = sid.split("#", 1)
        parsed = chains.get(suffix)
        if parsed is None:
            parsed = chains[suffix] = (_parse_chain(suffix), {})
        groups = groups_of.get(cell)
        if groups is None:
            groups = groups_of[cell] = parse_loop_word(trunc.words[cell])
        target = translate_simplex(groups, *parsed)
        if target not in J.cells:
            raise ValidationError(f"translated simplex {target} missing from James side")
        if J.cells[target] != d:
            raise ValidationError(f"dimension clash translating {sid}")
        if target in used:
            raise ValidationError(f"translation not injective at {target}")
        used.add(target)
        assignment[sid] = target
    return trunc, tri, J, assignment


def compare_with_james(bound: int):
    """Construct the translation at window `bound` and, if it reaches every
    James cell, check it with `is_isomorphism` or raise ValidationError.
    Returns a report with the cell counts and the verified bijection size."""
    trunc, tri, J, assignment = james_translation(bound)
    surjective = len(assignment) == len(J.cells)
    if surjective and not is_isomorphism(tri, J, assignment):
        raise ValidationError("the James translation does not commute with faces")
    return {
        "bound": bound,
        "mapping_space_cells": trunc.space.cell_counts(),
        "triangulated_cells": tri.cell_counts(),
        "james_cells": J.cell_counts(),
        "bijective": surjective,
        "isomorphism_size": len(assignment),
        "pass": surjective,
    }
