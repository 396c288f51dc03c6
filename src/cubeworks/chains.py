"""Free integer chain complexes, chain maps and Smith-normal-form homology.

Every matrix, a boundary or a chain map, is a list of columns aligned with
its source basis; a column maps the position of a target basis element to
its non-zero coefficient.  Basis labels live only in the `basis` lists, and
`sparse_entries` hands one matrix to the elimination, less the rows that
`homology` has already paired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, bulk
from .snf import invariant_factors_sparse


class ChainComplex:
    """Non-negatively graded free integer chain complex with named bases.

    `basis[d]` lists the degree-d basis labels and `boundary[d]` holds one
    column per label, over the positions of `basis[d - 1]`.  Degree 0, and
    a degree given no boundary, gets empty columns.
    """

    def __init__(self, basis: dict, boundary: dict, name: str = ""):
        self.basis = {d: list(b) for d, b in basis.items() if b}
        self.boundary = {
            d: boundary.get(d) or [{} for _ in b] for d, b in self.basis.items()
        }
        self.name = name

    @property
    def top_degree(self) -> int:
        return max(self.basis, default=-1)

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def validate(self):
        for d, columns in self.boundary.items():
            _check_columns(columns, self.basis[d], self.rank(d - 1), "boundary")
            if d >= 2:
                for b, dd in zip(self.basis[d], _product(self.boundary.get(d - 1), columns)):
                    if dd:
                        raise ValidationError(f"d∘d != 0 at {b} in degree {d}")
        return True

    def __repr__(self):
        ranks = ", ".join(f"{d}:{self.rank(d)}" for d in sorted(self.basis))
        return f"ChainComplex({self.name or 'anon'}; ranks {{{ranks}}})"


def _check_columns(columns, labels, rows: int, what: str):
    """One column per label, each with positions among `rows`."""
    if len(columns) != len(labels):
        raise ValidationError(f"{what} has {len(columns)} columns for {len(labels)} labels")
    for b, column in zip(labels, columns):
        for i in column:
            if i not in range(rows):
                raise ValidationError(f"{what} of {b} hits position {i!r} outside 0..{rows - 1}")


def _product(A, B) -> list:
    """The columns of A∘B, for B's columns indexing A's columns."""
    out = []
    for column in B:
        acc = {}
        for m, v in column.items():
            for i, w in A[m].items():
                acc[i] = acc.get(i, 0) + v * w
        out.append({i: v for i, v in acc.items() if v})
    return out


def sparse_entries(columns, dropped=()) -> dict:
    """One matrix as {(row, col): value}, the input of the elimination,
    without the rows in `dropped`."""
    return {
        (i, j): v
        for j, column in enumerate(columns)
        for i, v in column.items()
        if v and i not in dropped
    }


@dataclass(frozen=True)
class HomologyReport:
    """Betti numbers and torsion coefficients per degree, as (degree, betti,
    torsion-tuple) entries; degrees beyond the top dimension are absent."""

    entries: tuple

    def betti(self, d: int) -> int:
        for deg, b, _ in self.entries:
            if deg == d:
                return b
        return 0

    def torsion(self, d: int) -> tuple:
        for deg, _, t in self.entries:
            if deg == d:
                return t
        return ()

    def as_dict(self):
        return [
            {"degree": d, "betti": b, "torsion": list(t)} for d, b, t in self.entries
        ]

    def __repr__(self):
        parts = []
        for d, b, t in self.entries:
            desc = f"Z^{b}" if b else "0"
            if t:
                desc += " + " + " + ".join(f"Z/{k}" for k in t)
            parts.append(f"H{d}={desc}")
        return "HomologyReport(" + ", ".join(parts) + ")"


@bulk
def homology(C: ChainComplex) -> HomologyReport:
    """Betti numbers and torsion from the invariant factors of each boundary,
    in one sweep up the degrees that eliminates ∂_d without the rows its
    predecessor paired.

    Eliminating ∂_d pairs a set J of d-cells, its sparse pivot columns (see
    `invariant_factors_sparse`): on ker ∂_d the coordinates in J are
    integer functions of the others.  So forgetting them maps ker ∂_d
    isomorphically onto a saturated sublattice, and as im ∂_(d+1) lies in
    ker ∂_d, ∂_(d+1) without the rows J has the same kernel and the same
    invariant factors as ∂_(d+1).  This is the reduction of Kaczynski,
    Mrozek & Ślusarek ("Homology computation by reduction of chain
    complexes", 1998); with it, the zero-fill pivots of the elimination
    pair cells the way coreduction does (Mrozek & Batko, "Coreduction
    homology algorithm", 2009).
    """
    top = C.top_degree
    factors = {}
    cleared = set()  # positions of the (d - 1)-cells that ∂_(d-1) paired
    for d in range(1, top + 1):
        paired = set()
        if C.rank(d) and C.rank(d - 1):
            factors[d] = invariant_factors_sparse(sparse_entries(C.boundary[d], cleared), paired)
        cleared = paired
    entries = []
    for d in range(top + 1):
        rank_d = len(factors.get(d, ()))
        rank_d1 = len(factors.get(d + 1, ()))
        betti = C.rank(d) - rank_d - rank_d1
        torsion = tuple(sorted(f for f in factors.get(d + 1, ()) if f > 1))
        entries.append((d, betti, torsion))
    return HomologyReport(tuple(entries))


class ChainMap:
    """A degree-0 map of complexes in the boundary's format: `matrices[d]`
    holds one column per degree-d source basis element, over the positions
    of the degree-d target basis.  A degree given no matrix maps to zero."""

    def __init__(self, source: ChainComplex, target: ChainComplex, matrices: dict):
        self.source = source
        self.target = target
        self.matrices = {
            d: matrices.get(d) or [{} for _ in b] for d, b in source.basis.items()
        }

    def validate(self):
        S, T = self.source, self.target
        for d, columns in self.matrices.items():
            _check_columns(columns, S.basis[d], T.rank(d), "chain map")
            left = _product(self.matrices.get(d - 1), S.boundary[d])
            right = _product(T.boundary.get(d), columns)
            for b, l, r in zip(S.basis[d], left, right):
                if l != r:
                    raise ValidationError(f"chain map fails to commute at {b}")
        return True


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)_d = A_{d-1} + B_d with d(a, b) = (-d_A a, d_B b - f a); in each
    degree the A part comes first, so B's rows are shifted by A's rank."""
    A, B = f.source, f.target
    degrees = sorted({d + 1 for d in A.basis} | set(B.basis))
    basis = {
        d: [("A", a) for a in A.basis.get(d - 1, ())] + [("B", b) for b in B.basis.get(d, ())]
        for d in degrees
    }
    boundary = {}
    for d in degrees:
        shift = A.rank(d - 2)
        columns = [
            {**{i: -v for i, v in da.items()}, **{shift + i: -v for i, v in fa.items()}}
            for da, fa in zip(A.boundary.get(d - 1, ()), f.matrices.get(d - 1, ()))
        ]
        columns += [{shift + i: v for i, v in db.items()} for db in B.boundary.get(d, ())]
        boundary[d] = columns
    return ChainComplex(basis, boundary, name="cone")


def is_acyclic(C: ChainComplex) -> bool:
    rep = homology(C)
    return all(b == 0 and not t for _, b, t in rep.entries)


def point_complex() -> ChainComplex:
    return ChainComplex({0: ["g"]}, {}, name="Z[0]")


# -- chains of cubical and simplicial sets -------------------------------------


@bulk
def _cell_chains(X, sign) -> ChainComplex:
    """Normalized chains of a presented set: basis the non-degenerate cells,
    boundary the sum of the faces weighted by sign(*face index), degenerate
    faces contributing zero."""
    rows = X.rows
    basis = {d: list(X.by_dim(d)) for d in range(X.dim_bound + 1) if X.by_dim(d)}
    boundary = {}
    for d, cells in basis.items():
        if d == 0:
            continue
        at = {c: i for i, c in enumerate(basis.get(d - 1, ()))}
        signs = [sign(*i) for i in X.face_indices(d)]
        columns = []
        for c in cells:
            out = {}
            for ref, s in zip(rows[c], signs):
                if not ref.degens:
                    r = at[ref.base]
                    out[r] = out.get(r, 0) + s
            # keep the accumulating dict unless a coefficient cancelled: one
            # dict per cell instead of two leaves the heap less fragmented
            columns.append(out if all(out.values()) else {k: v for k, v in out.items() if v})
        boundary[d] = columns
    return ChainComplex(basis, boundary, name=f"C({X.name})")


def cubical_chains(X) -> ChainComplex:
    """Normalized cubical chains with boundary sum_k (-1)^k (top face -
    bottom face)."""
    return _cell_chains(X, lambda k, eps: (-1) ** k * (1 if eps else -1))


def simplicial_chains(S) -> ChainComplex:
    """Normalized simplicial chains with the alternating-sign boundary."""
    return _cell_chains(S, lambda j: (-1) ** j)
