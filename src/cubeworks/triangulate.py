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

What depends on d alone is tabled once per process, on first use.
Deleting an interior vertex leaves a chain that still spans and still
increases strictly, so an interior face is another spanning chain of the
same cell, shared as one SimplexRef (`chain_table`).  Only the end faces
ch[1:] and ch[:-1] leave the cell, each through one of its 2d faces:
`landing_table` says, per face and degeneracy word of the face ref, where
each lands in the face cube, as a spanning chain of the face cell and a
degeneracy word, or as a chain in a smaller face.  Only those last ones
take `resolve`, which carries a chain down and memoizes each (face cell,
chain) for the call, so it resolves once however many cells share it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

from .cubical import CubicalSet
from .errors import CELL_BUDGET, GuardError, bulk
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
    chain's position, and each row, in that order, is (`#...` suffix, k, the
    positions of the interior faces) for a chain ch of k + 1 vertices."""
    chains = spanning_chains(d)
    index = {ch: n for n, ch in enumerate(chains)}
    bits = [format(v, f"0{d}b") if d else "" for v in range(1 << d)]
    rows = tuple(
        (
            "#" + ";".join(bits[v] for v in ch),
            len(ch) - 1,
            tuple(index[ch[:j] + ch[j + 1 :]] for j in range(1, len(ch) - 1)),
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
def _land(d: int, i: int, drop: tuple, chain: tuple) -> tuple:
    """Carry a chain of the d-cube that holds coordinate i (from 0) constant
    into the e-cube that remains after deleting i and then the directions in
    drop (from 1) of the (d-1)-cube: (e, the position of the carried chain
    among the e-cube's spanning chains once repeated vertices are merged,
    the degeneracy word of the repeats), or (e, None, the carried chain)
    when it does not span the e-cube."""
    # coordinate t is direction t + (t < i) of the (d-1)-cube; the last one kept is bit 0
    shifts = [d - 1 - t for t in range(d) if t != i and t + (t < i) not in drop][::-1]
    e = len(shifts)
    carried = [sum((v >> sh & 1) << n for n, sh in enumerate(shifts)) for v in chain]
    if carried[0] or carried[-1] != (1 << e) - 1:
        return e, None, tuple(carried)
    word = tuple(t for t in range(len(chain) - 1) if carried[t] == carried[t + 1])
    merged = tuple(v for t, v in enumerate(carried) if t == 0 or v != carried[t - 1])
    return e, chain_table(e)[1][merged], word


@lru_cache(maxsize=None)
def landing_table(d: int, k: int, eps: int, degens: tuple) -> tuple:
    """Where the end faces of the d-cube's spanning chains that lie in its
    face (k, eps) land in the face cube of a face ref with degeneracy word
    degens: (chain position, landing position, degeneracy word) per end face
    in chain order, or (chain position, None, carried chain).  A head ch[1:]
    lies in the face (k, 1), and a tail ch[:-1] in the face (k, 0), of the
    first coordinate it holds constant."""
    top = (1 << d) - 1
    ends = ((p, ch[1:] if eps else ch[:-1]) for p, ch in enumerate(spanning_chains(d)))
    return tuple(  # the table keeps its entries, so they bypass the cache of `_land`
        (p, *_land.__wrapped__(d, k - 1, degens, end)[1:])
        for p, end in ends
        if d + 1 - (end[0] if eps else ~end[-1] & top).bit_length() == k
    )


@bulk
def triangulate(X: CubicalSet) -> SimplicialSet:
    total = simplex_count(X)
    if total > CELL_BUDGET:
        raise GuardError(f"triangulation into {total} simplices exceeds budget {CELL_BUDGET}")

    refs = {}  # cell -> one SimplexRef per simplex, in spanning-chain order
    cells = {}
    for c, d in X.cells.items():
        refs[c] = row = []
        for suffix, k, _ in chain_table(d)[0]:
            sid = c + suffix
            cells[sid] = k
            row.append(SimplexRef((), sid))

    X_cells, X_rows = X.cells, X.rows
    memo = {}  # (cell, chain in a proper face of its cube) -> resolved SimplexRef

    def resolve(cell, d, chain):
        """Normal form of a monotone vertex chain that lies in a proper face
        of a non-degenerate cell's cube, by descent into the face of the
        first coordinate it holds constant until the chain spans."""
        out = memo.get((cell, chain))
        if out is None:
            i = d - (~(chain[0] ^ chain[-1]) & (1 << d) - 1).bit_length()
            ref = X_rows[cell][2 * i + (chain[0] >> (d - 1 - i) & 1)]
            e, pos, word = _land(d, i, ref.degens, chain)
            if pos is None:
                out = resolve(ref.base, e, word)
            else:
                out = SimplexRef(word, refs[ref.base][pos].base) if word else refs[ref.base][pos]
            memo[cell, chain] = out
        return out

    rows = {}
    for c, d in X.cells.items():
        row = refs[c]
        if d == 0:
            rows[row[0].base] = ()
            continue
        heads, tails = [None] * len(row), [None] * len(row)
        for k in range(1, d + 1):
            for eps, ends in ((0, tails), (1, heads)):
                ref = X_rows[c][2 * k - 2 + eps]
                landed = refs[ref.base]
                for p, pos, word in landing_table(d, k, eps, ref.degens):
                    if pos is None:
                        ends[p] = resolve(ref.base, X_cells[ref.base], word)
                    else:
                        ends[p] = SimplexRef(word, landed[pos].base) if word else landed[pos]
        for ref, (_, _, inner), head, tail in zip(row, chain_table(d)[0], heads, tails):
            rows[ref.base] = (head, *map(row.__getitem__, inner), tail)
    return SimplicialSet(cells, name=f"tri({X.name})", rows=rows)
