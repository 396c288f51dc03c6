"""Free integer chain complexes and Smith-normal-form homology."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .snf import invariant_factors_sparse


class ChainComplex:
    """Non-negatively graded free integer chain complex with named bases.

    `basis[d]` lists the degree-d basis ids; `boundary[d]` maps a degree-d
    basis id to {degree-(d-1) basis id: coefficient}.
    """

    def __init__(self, basis: dict, boundary: dict, name: str = ""):
        self.basis = {d: list(b) for d, b in basis.items() if b}
        self.boundary = boundary
        self.name = name
        self._index = None

    @property
    def top_degree(self) -> int:
        return max(self.basis, default=-1)

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def index(self, d: int) -> dict:
        if self._index is None:
            self._index = {}
        if d not in self._index:
            self._index[d] = {b: i for i, b in enumerate(self.basis.get(d, ()))}
        return self._index[d]

    def matrix_entries(self, d: int) -> dict:
        """The degree-d boundary matrix as {(row, col): value} over basis indices."""
        rows = self.index(d - 1)
        cols = self.index(d)
        entries = {}
        for b in self.basis.get(d, ()):
            for target, v in self.boundary.get(d, {}).get(b, {}).items():
                if v:
                    entries[(rows[target], cols[b])] = v
        return entries

    def differential_of(self, d: int, chain: dict) -> dict:
        """Apply the boundary to a chain {basis id: coeff} in degree d."""
        out = {}
        bnd = self.boundary.get(d, {})
        for b, c in chain.items():
            for target, v in bnd.get(b, {}).items():
                out[target] = out.get(target, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def validate(self):
        for d in sorted(self.basis):
            idx = set(self.basis.get(d - 1, ()))
            for b in self.basis[d]:
                for target, v in self.boundary.get(d, {}).get(b, {}).items():
                    if target not in idx:
                        raise ValidationError(
                            f"boundary of {b} hits unknown basis element {target}"
                        )
            if d >= 1:
                for b in self.basis[d]:
                    dd = self.differential_of(
                        d - 1, self.boundary.get(d, {}).get(b, {})
                    )
                    if dd:
                        raise ValidationError(f"d∘d != 0 at {b} in degree {d}")
        return True

    def __repr__(self):
        ranks = ", ".join(f"{d}:{self.rank(d)}" for d in sorted(self.basis))
        return f"ChainComplex({self.name or 'anon'}; ranks {{{ranks}}})"


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


def homology(C: ChainComplex) -> HomologyReport:
    top = C.top_degree
    if top < 0:
        return HomologyReport(())
    factors = {}
    for d in range(top + 2):
        if C.rank(d) and C.rank(d - 1):
            factors[d] = invariant_factors_sparse(
                C.matrix_entries(d), C.rank(d - 1), C.rank(d)
            )
        else:
            factors[d] = []
    entries = []
    for d in range(top + 1):
        rank_d = len(factors.get(d, ()))
        rank_d1 = len(factors.get(d + 1, ()))
        betti = C.rank(d) - rank_d - rank_d1
        torsion = tuple(sorted(f for f in factors.get(d + 1, ()) if f > 1))
        entries.append((d, betti, torsion))
    return HomologyReport(tuple(entries))


def tensor_complexes(A: ChainComplex, B: ChainComplex, name: str = "") -> ChainComplex:
    """Tensor product with the Koszul sign: d(a@b) = da@b + (-1)^|a| a@db."""
    basis = {}
    boundary = {}
    for p, abasis in A.basis.items():
        sign = -1 if p % 2 else 1
        for q, bbasis in B.basis.items():
            d = p + q
            basis.setdefault(d, [])
            bnd = boundary.setdefault(d, {})
            for a in abasis:
                da = A.boundary.get(p, {}).get(a, {})
                for b in bbasis:
                    basis[d].append((a, b))
                    out = {}
                    for ta, v in da.items():
                        out[(ta, b)] = out.get((ta, b), 0) + v
                    for tb, v in B.boundary.get(q, {}).get(b, {}).items():
                        out[(a, tb)] = out.get((a, tb), 0) + sign * v
                    bnd[(a, b)] = {k: v for k, v in out.items() if v}
    return ChainComplex(basis, boundary, name=name)


class ChainMap:
    """A degree-0 map of complexes given on basis elements."""

    def __init__(self, source: ChainComplex, target: ChainComplex, images: dict):
        self.source = source
        self.target = target
        self.images = images  # degree -> {source basis id: {target basis id: coeff}}

    def image_of(self, d: int, chain: dict) -> dict:
        out = {}
        img = self.images.get(d, {})
        for b, c in chain.items():
            for t, v in img.get(b, {}).items():
                out[t] = out.get(t, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def matrix_entries(self, d: int) -> dict:
        rows = self.target.index(d)
        cols = self.source.index(d)
        entries = {}
        for b in self.source.basis.get(d, ()):
            for t, v in self.images.get(d, {}).get(b, {}).items():
                if v:
                    entries[(rows[t], cols[b])] = v
        return entries

    def validate(self):
        for d in self.source.basis:
            for b in self.source.basis[d]:
                left = self.image_of(d - 1, self.source.boundary.get(d, {}).get(b, {}))
                right = self.target.differential_of(
                    d, self.images.get(d, {}).get(b, {})
                )
                if left != right:
                    raise ValidationError(f"chain map fails to commute at {b}")
        return True


def mapping_cone(f: ChainMap, name: str = "") -> ChainComplex:
    """cone(f)_d = A_{d-1} + B_d with d(a, b) = (-d_A a, d_B b - f a)."""
    A, B = f.source, f.target
    basis = {}
    boundary = {}
    degrees = set()
    for d in A.basis:
        degrees.add(d + 1)
    degrees.update(B.basis)
    for d in sorted(degrees):
        items = [("A", a) for a in A.basis.get(d - 1, ())] + [
            ("B", b) for b in B.basis.get(d, ())
        ]
        if items:
            basis[d] = items
    for d in basis:
        bnd = {}
        for tag, x in basis[d]:
            out = {}
            if tag == "A":
                for t, v in A.boundary.get(d - 1, {}).get(x, {}).items():
                    out[("A", t)] = out.get(("A", t), 0) - v
                for t, v in f.images.get(d - 1, {}).get(x, {}).items():
                    out[("B", t)] = out.get(("B", t), 0) - v
            else:
                for t, v in B.boundary.get(d, {}).get(x, {}).items():
                    out[("B", t)] = out.get(("B", t), 0) + v
            bnd[(tag, x)] = {k: v for k, v in out.items() if v}
        boundary[d] = bnd
    return ChainComplex(basis, boundary, name=name or "cone")


def is_acyclic(C: ChainComplex) -> bool:
    rep = homology(C)
    return all(b == 0 and not t for _, b, t in rep.entries)


def point_complex(generator: str = "g") -> ChainComplex:
    return ChainComplex({0: [generator]}, {}, name="Z[0]")


# -- chains of cubical and simplicial sets -------------------------------------


def _cell_chains(X, sign) -> ChainComplex:
    """Normalized chains of a presented set: basis the non-degenerate cells,
    boundary the sum of the faces weighted by sign(*face index), degenerate
    faces contributing zero."""
    faces = X.faces
    basis = {d: list(X.by_dim(d)) for d in range(X.dim_bound + 1) if X.by_dim(d)}
    boundary = {}
    for d, cells in basis.items():
        if d == 0:
            continue
        signed = [(i, sign(*i)) for i in X.face_indices(d)]
        bnd = {}
        for c in cells:
            out = {}
            for i, s in signed:
                ref = faces[(c, *i)]
                if not ref.degens:
                    out[ref.base] = out.get(ref.base, 0) + s
            bnd[c] = {k: v for k, v in out.items() if v}
        boundary[d] = bnd
    return ChainComplex(basis, boundary, name=f"C({X.name})")


def cubical_chains(X) -> ChainComplex:
    """Normalized cubical chains with boundary sum_k (-1)^k (top face -
    bottom face)."""
    return _cell_chains(X, lambda k, eps: (-1) ** k * (1 if eps else -1))


def simplicial_chains(S) -> ChainComplex:
    """Normalized simplicial chains with the alternating-sign boundary."""
    return _cell_chains(S, lambda j: (-1) ** j)
