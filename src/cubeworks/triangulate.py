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
as its bit strings (`c#00;01;11`).  Passing to a face cube maps every vertex
of a chain through a projection table of size 2^d, built once per call for
each (d, constant coordinate, face degeneracies) it meets; each spanning
chain's `#...` suffix is rendered once per call.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .cubical import CubicalSet
from .errors import GuardError
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


def simplex_count(X: CubicalSet) -> int:
    """Simplices of the triangulation of X: a d-cell contributes one per
    ordered set partition of its d coordinates (the Fubini number)."""
    fubini = [1]
    for n in range(1, X.dim_bound + 1):
        fubini.append(sum(comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    return sum(fubini[d] for d in X.cells.values())


def _projection(d: int, i: int, drop) -> tuple:
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
    return table, len(shifts)


def triangulate(X: CubicalSet, guard: int = 10**6) -> SimplicialSet:
    total = simplex_count(X)
    if total > guard:
        raise GuardError(f"triangulation into {total} simplices exceeds guard {guard}")

    position = {}  # d -> {chain: its index in spanning_chains(d)}
    suffixes = {}  # d -> the `#...` suffix of each spanning chain
    ids = {}  # cell -> its simplex ids, in spanning-chain order
    cells = {}
    for c, d in X.cells.items():
        chains = spanning_chains(d)
        if d not in position:
            position[d] = {chain: n for n, chain in enumerate(chains)}
            bits = [format(v, f"0{d}b") if d else "" for v in range(1 << d)]
            suffixes[d] = ["#" + ";".join(bits[v] for v in ch) for ch in chains]
        ids[c] = sids = [c + s for s in suffixes[d]]
        for chain, sid in zip(chains, sids):
            cells[sid] = len(chain) - 1

    X_faces = X.faces
    projections = {}

    def resolve(cell, d, chain):
        """Normal form of a monotone vertex chain drawn in the cube of a
        non-degenerate cell: a SimplexRef onto some cell's spanning chain."""
        top = (1 << d) - 1
        while chain[0] or chain[-1] != top:
            # pass to the face cube of the first constant coordinate
            i = d - (~(chain[0] ^ chain[-1]) & top).bit_length()
            ref = X_faces[(cell, i + 1, chain[0] >> (d - 1 - i) & 1)]
            key = (d, i, ref.degens)
            proj = projections.get(key)
            if proj is None:
                proj = projections[key] = _projection(d, i, set(ref.degens))
            table, d = proj
            chain = tuple([table[v] for v in chain])
            cell = ref.base
            top = (1 << d) - 1
        degens = tuple(t for t in range(len(chain) - 1) if chain[t] == chain[t + 1])
        if degens:
            chain = tuple(v for t, v in enumerate(chain) if t == 0 or v != chain[t - 1])
        return SimplexRef(degens, ids[cell][position[d][chain]])

    faces = {}
    for c, d in X.cells.items():
        if d == 0:
            continue
        for chain, sid in zip(spanning_chains(d), ids[c]):
            for j in range(len(chain)):
                faces[(sid, j)] = resolve(c, d, chain[:j] + chain[j + 1 :])
    return SimplicialSet(cells, faces, name=f"tri({X.name})")
