"""Triangulation of cubical sets: the colimit-preserving extension of the
functor sending the n-cube to the n-fold product of the 1-simplex.

Each non-degenerate d-cell contributes one simplex per strictly increasing
vertex chain through {0,1}^d that spans from the bottom corner to the top
corner (the simplices interior to the product triangulation); everything
else is glued along the cubical face data by rewriting chains into the face
cube, so gluing is name-based, never search-based.

A vertex of the d-cube is coded as a d-bit integer whose most significant
bit is coordinate 1, so product order is numeric order, v <= w
coordinatewise exactly when v | w == w, and a simplex id renders the chain
as its bit strings (`c#00;01;11`).

What depends on d alone is tabled once (`chain_table`).  Deleting an
interior vertex leaves a chain that still spans and still increases
strictly, so an interior face is another spanning chain of the same cell,
shared as one SimplexRef.  Only the end faces ch[1:] and ch[:-1] leave the
cell: `resolve` projects them into face cubes, one table of size 2^d per
(d, constant coordinate, face degeneracies), and memoizes each (face cell,
chain) for the call, so a face cell's chains resolve once however many
cells share it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

from .cubical import CubicalSet
from .errors import CELL_BUDGET, GuardError
from .simplicial import SimplexRef, SimplicialSet


@lru_cache(maxsize=None)
def spanning_chains(d: int):
    """Strictly increasing chains of vertex codes in {0,1}^d from the all-0
    to the all-1 corner, in the order of a depth-first search that tries the
    next vertex in product order.  The maximal ones are the d! lattice
    paths."""
    top = (1 << d) - 1
    chains = []

    def extend(chain):
        last = chain[-1]
        if last == top:
            chains.append(tuple(chain))
            return
        # any strictly larger vertex can come next
        for v in range(last + 1, top + 1):
            if last | v == v:
                chain.append(v)
                extend(chain)
                chain.pop()

    extend([0])
    return tuple(chains)


@lru_cache(maxsize=None)
def chain_table(d: int) -> tuple:
    """(rows, index) for the spanning chains of the d-cube: index gives each
    chain's position, and each row, in that order, is (`#...` suffix, k,
    ch[1:], the positions of the interior faces, ch[:-1]) for a chain ch of
    k + 1 vertices."""
    chains = spanning_chains(d)
    index = {ch: n for n, ch in enumerate(chains)}
    bits = [format(v, f"0{d}b") if d else "" for v in range(1 << d)]
    rows = tuple(
        (
            "#" + ";".join(bits[v] for v in ch),
            len(ch) - 1,
            ch[1:],
            tuple(index[ch[:j] + ch[j + 1 :]] for j in range(1, len(ch) - 1)),
            ch[:-1],
        )
        for ch in chains
    )
    return rows, MappingProxyType(index)


def simplex_count(X: CubicalSet) -> int:
    """Simplices of the triangulation of X: a d-cell contributes one per
    ordered set partition of its d coordinates (the Fubini number)."""
    fubini = [1]
    for n in range(1, X.dim_bound + 1):
        fubini.append(sum(comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    return sum(fubini[d] for d in X.cells.values())


@lru_cache(maxsize=None)
def _projection(d: int, i: int, drop: tuple) -> tuple:
    """Vertex codes of the d-cube carried to the face cube that remains after
    deleting coordinate i (from 0) and then the directions in drop (from 1)
    of the (d-1)-cube; returns (table, dimension of the face cube)."""
    rest = [t for t in range(d) if t != i]
    shifts = [d - 1 - t for s, t in enumerate(rest, 1) if s not in drop]
    table = []
    for v in range(1 << d):
        w = 0
        for sh in shifts:
            w = w << 1 | v >> sh & 1
        table.append(w)
    return tuple(table), len(shifts)


def triangulate(X: CubicalSet) -> SimplicialSet:
    total = simplex_count(X)
    if total > CELL_BUDGET:
        raise GuardError(f"triangulation into {total} simplices exceeds budget {CELL_BUDGET}")

    refs = {}  # cell -> one SimplexRef per simplex, in spanning-chain order
    cells = {}
    for c, d in X.cells.items():
        refs[c] = row = []
        for suffix, k, _, _, _ in chain_table(d)[0]:
            sid = c + suffix
            cells[sid] = k
            row.append(SimplexRef((), sid))

    X_faces = X.faces
    memo = {}  # (face cell, chain in its cube) -> resolved SimplexRef

    def resolve(cell, d, chain):
        """Normal form of a monotone vertex chain drawn in the cube of a
        non-degenerate cell: a SimplexRef onto some cell's spanning chain."""
        top = (1 << d) - 1
        if chain[0] or chain[-1] != top:
            # pass to the face cube of the first constant coordinate
            i = d - (~(chain[0] ^ chain[-1]) & top).bit_length()
            ref = X_faces[(cell, i + 1, chain[0] >> (d - 1 - i) & 1)]
            table, d = _projection(d, i, ref.degens)
            key = (ref.base, tuple([table[v] for v in chain]))
            out = memo.get(key)
            if out is None:
                out = memo[key] = resolve(ref.base, d, key[1])
            return out
        degens = tuple(t for t in range(len(chain) - 1) if chain[t] == chain[t + 1])
        if degens:
            chain = tuple(v for t, v in enumerate(chain) if t == 0 or v != chain[t - 1])
        out = refs[cell][chain_table(d)[1][chain]]
        return SimplexRef(degens, out.base) if degens else out

    faces = {}
    for c, d in X.cells.items():
        if d == 0:
            continue
        row = refs[c]
        for ref, (_, k, head, inner, tail) in zip(row, chain_table(d)[0]):
            sid = ref.base
            faces[(sid, 0)] = resolve(c, d, head)
            for j, n in enumerate(inner, 1):
                faces[(sid, j)] = row[n]
            faces[(sid, k)] = resolve(c, d, tail)
    return SimplicialSet(cells, faces, name=f"tri({X.name})")
