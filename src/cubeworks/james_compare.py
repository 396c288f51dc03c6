"""Comparison of the localized mapping monoid with the James construction.

After inverting the canonical morphism of the homotopy-inverse-pair category,
the loop words at the source object reduce to products of two generating
loops with contracting homotopies; triangulation turns the word tensor into
the degreewise free monoid, so the triangulated truncation must match the
independently built James construction on two wedged intervals, window for
window.  This module constructs that bijection explicitly, cell id to cell
id, from the builders' own structure: a simplex is a spanning chain of a
word cell, and the James letter that a group of the cell's loop word gives
on it depends on the dimension, the group and the chain's position alone,
so its tokens are tabled once per (dimension, group) as a column over the
chains.  The bijection is verified by renaming faces with `is_isomorphism`
(search would be hopeless at tens of thousands of simplices; the verified
constructed bijection is the reported witness)."""

from __future__ import annotations

from .enriched import build_E, localize, mapping_space
from .errors import ValidationError, bulk
from .james import _letter_token, james
from .presented import is_isomorphism
from .simplicial import SimplexRef
from .triangulate import spanning_chains, triangulate


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


def _token_column(d: int, group) -> tuple:
    """The token, with its comma, of the James letter that one group of a
    loop word gives on each spanning chain of its d-dimensional word cell,
    in chain order: for an `h` group, by the a vertices where its coordinate
    is 0, the edge unless a is 0 (the deleted basepoint, an empty token) or
    every vertex (the free end); for a `v` group, the free end."""
    column, tokens = [], {}
    for chain in spanning_chains(d):
        k = len(chain) - 1
        a = k + 1 if group[0] == "v" else sum(not v >> (d - 1 - group[2]) & 1 for v in chain)
        if (k, a) not in tokens:  # a vertices at 0: repeats everywhere but at a - 1
            word = tuple(j for j in range(k) if j != a - 1)
            letter = SimplexRef(word, ("e" if a <= k else "a") + str(group[1]))
            tokens[k, a] = _letter_token(letter) + "," if a else ""
        column.append(tokens[k, a])
    return tuple(column)


@bulk
def translate(trunc, tri, J) -> dict:
    """The James cell id of each simplex of `tri`, the triangulation of the
    truncation `trunc`, by simplex id.  `triangulate` lists a cell's
    simplices in spanning-chain order, cell by cell, so its ids are read
    along the cells of `trunc`, not parsed.  A simplex's James word is, group
    by group of its cell's loop word, the token the group gives on its
    chain; each (dimension, group) column of tokens is tabled once.  Raises
    if a translated cell is missing from J, has another dimension than its
    simplex, or is hit twice; `is_isomorphism` checks the rest."""
    columns = {}  # (d, group) -> `_token_column(d, group)`
    targets = []
    for c, d in trunc.space.cells.items():
        groups = parse_loop_word(trunc.words[c])
        for g in groups:
            if (d, g) not in columns:
                columns[d, g] = _token_column(d, g)
        if groups:
            words = map("".join, zip(*[columns[d, g] for g in groups]))
            targets += ["J[" + w[:-1] + "]" for w in words]
        else:
            targets += ["J[]"] * len(spanning_chains(d))
    sids, dims = list(tri.cells), list(tri.cells.values())
    if list(map(J.cells.get, targets)) != dims or len(set(targets)) != len(targets):
        used = set()
        for sid, target, k in zip(sids, targets, dims):
            if target not in J.cells:
                raise ValidationError(f"translated simplex {target} missing from James side")
            if J.cells[target] != k:
                raise ValidationError(f"dimension clash translating {sid}")
            if target in used:
                raise ValidationError(f"translation not injective at {target}")
            used.add(target)
    return dict(zip(sids, targets))


def james_translation(bound: int):
    """Build the localized mapping space at c, its triangulation and the
    James construction at the same window, and translate every simplex
    into a James cell.  Returns (truncation, triangulation, James
    construction, assignment from simplex id to James cell id)."""
    from .simplicial import wedge_of_intervals

    trunc = mapping_space(localized_E(), "c", "c", bound)
    tri = triangulate(trunc.space)
    J = james(wedge_of_intervals(2), "w", bound)
    return trunc, tri, J, translate(trunc, tri, J)


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
