"""Realization of cubical sets in integer chain complexes.

A choice of cylinder object for the unit complex extends to a monoidal,
colimit-preserving functor on finite cubical sets; this module materializes
that extension and machine-checks the left-Quillen conditions on the two
generator families (boundary inclusions and open-box inclusions).

Cofibrations of complexes are operationalized as degreewise split injections
with degreewise free cokernel, which is decidable by Smith normal form;
acyclicity is decided through mapping cones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    ChainComplex,
    ChainMap,
    HomologyReport,
    homology,
    is_acyclic,
    mapping_cone,
    point_complex,
    sparse_entries,
)
from .cubical import (
    CubicalMap,
    CubicalSet,
    boundary,
    open_box,
    standard_cube,
)
from .errors import ValidationError
from .snf import invariant_factors_sparse


@dataclass
class CylinderDatum:
    """An interval-shaped complex with two unit inclusions and a collapse.

    complex: degrees 0 and 1 only; degree 0 has rank 2 (the two marked
    endpoint generators), degree 1 is arbitrary.
    """

    complex: ChainComplex
    end0: str
    end1: str
    collapse_coeffs: dict  # degree-0 basis id -> integer image in the unit

    def validate(self, require: bool = True):
        """Check the cylinder-object axioms; returns a detail dict.

        fold factorization: (incl0, incl1) must be a cofibration and the
        collapse a weak equivalence with collapse o incl_eps = id.
        """
        C = self.complex
        details = {}
        ok = True

        if set(C.basis) - {0, 1}:
            raise ValidationError("cylinder complex must live in degrees 0 and 1")
        if len(C.basis.get(0, ())) != 2 or {self.end0, self.end1} != set(C.basis[0]):
            raise ValidationError("degree 0 must be spanned by the two endpoints")

        details["boundary_squares_to_zero"] = True  # degree <= 1, automatic

        # collapse must be a chain map to the unit complex
        coeffs = [self.collapse_coeffs.get(b, 0) for b in C.basis[0]]
        collapse_is_chain_map = all(
            sum(v * coeffs[i] for i, v in column.items()) == 0
            for column in C.boundary.get(1, ())
        )
        details["collapse_chain_map"] = collapse_is_chain_map
        ok &= collapse_is_chain_map

        details["collapse_retracts_ends"] = (
            self.collapse_coeffs.get(self.end0, 0) == 1
            and self.collapse_coeffs.get(self.end1, 0) == 1
        )
        ok &= details["collapse_retracts_ends"]

        # the combined inclusion Z^2 -> C_0 is the identity on the chosen
        # basis, hence split injective with free cokernel
        details["ends_injective"] = self.end0 != self.end1
        ok &= details["ends_injective"]

        unit = point_complex()
        cones_acyclic = True
        for end in (self.end0, self.end1):
            incl = ChainMap(unit, C, {0: [{C.basis[0].index(end): 1}]})
            try:
                incl.validate()
            except ValidationError:
                cones_acyclic = False
                continue
            if not is_acyclic(mapping_cone(incl)):
                cones_acyclic = False
        details["end_inclusions_acyclic_cofibrations"] = cones_acyclic
        ok &= cones_acyclic

        if collapse_is_chain_map:
            collapse = ChainMap(C, unit, {0: [{0: c} if c else {} for c in coeffs]})
            details["collapse_weak_equivalence"] = is_acyclic(mapping_cone(collapse))
        else:
            details["collapse_weak_equivalence"] = False
        ok &= details["collapse_weak_equivalence"]

        details["valid"] = bool(ok)
        if require and not ok:
            raise ValidationError(f"not a cylinder object: {details}")
        return details


def standard_cylinder() -> CylinderDatum:
    C = ChainComplex(
        {0: ["[0]", "[1]"], 1: ["e"]},
        {1: [{1: 1, 0: -1}]},
        name="interval-complex",
    )
    return CylinderDatum(C, "[0]", "[1]", {"[0]": 1, "[1]": 1})


def broken_cylinder() -> CylinderDatum:
    """Negative control: boundary e -> [1] + [0] admits no collapse making a
    cylinder (the fold factorization cannot exist)."""
    C = ChainComplex(
        {0: ["[0]", "[1]"], 1: ["e"]},
        {1: [{1: 1, 0: 1}]},
        name="broken-interval",
    )
    return CylinderDatum(C, "[0]", "[1]", {"[0]": 1, "[1]": 1})


def chain_realize(X: CubicalSet, cyl: CylinderDatum) -> ChainComplex:
    """The monoidal colimit-preserving extension applied to X.

    With a rank-r degree-1 part, the degree-d basis consists of a
    non-degenerate d-cell together with a word of degree-1 generators, one
    per coordinate direction (tensor powers of the cylinder, with
    degeneracies killed by the collapse).  Boundaries follow the Leibniz
    rule with the Koszul sign.
    """
    from itertools import product as iproduct

    C = cyl.complex
    gens1 = C.basis.get(1, [])
    i0, i1 = C.basis[0].index(cyl.end0), C.basis[0].index(cyl.end1)
    # each generator's coefficients on the ends, as (eps, coefficient)
    d_of = {
        e: ((1, column.get(i1, 0)), (0, column.get(i0, 0)))
        for e, column in zip(gens1, C.boundary.get(1, ()))
    }

    basis = {
        d: [(c, w) for c in X.by_dim(d) for w in iproduct(gens1, repeat=d)]
        for d in range(X.dim_bound + 1)
    }
    boundary = {}
    for d in range(1, X.dim_bound + 1):
        row = {b: i for i, b in enumerate(basis[d - 1])}
        columns = []
        for (c, w) in basis[d]:
            out = {}
            for k in range(1, d + 1):
                sign = -1 if (k - 1) % 2 else 1
                rest = w[: k - 1] + w[k:]
                for eps, cf in d_of[w[k - 1]]:
                    if not cf:
                        continue
                    ref = X.rows[c][2 * k - 2 + eps]
                    if ref.degens:
                        continue  # degenerate directions die under the collapse
                    r = row[(ref.base, rest)]
                    out[r] = out.get(r, 0) + sign * cf
            columns.append({k: v for k, v in out.items() if v})
        boundary[d] = columns
    return ChainComplex(basis, boundary, name=f"F({X.name})")


def chain_realize_map(f: CubicalMap, cyl: CylinderDatum,
                      source: ChainComplex = None, target: ChainComplex = None) -> ChainMap:
    """The realization applied to a cubical map: basis elements go to the
    image cell with the same generator word, or to zero when the image is
    degenerate."""
    FS = source if source is not None else chain_realize(f.source, cyl)
    FT = target if target is not None else chain_realize(f.target, cyl)
    matrices = {}
    for d, items in FS.basis.items():
        row = {b: i for i, b in enumerate(FT.basis.get(d, ()))}
        columns = []
        for (c, w) in items:
            ref = f.assignment[c]
            columns.append({} if ref.degens else {row[(ref.base, w)]: 1})
        matrices[d] = columns
    return ChainMap(FS, FT, matrices)


def cofibration_check(f: ChainMap) -> dict:
    """Degreewise: injective with free cokernel, decided by invariant factors."""
    degrees = sorted(set(f.source.basis) | set(f.target.basis))
    injective = True
    cokernel_free = True
    for d in degrees:
        factors = invariant_factors_sparse(sparse_entries(f.matrices.get(d, ())))
        if len(factors) != f.source.rank(d):
            injective = False
        if any(v != 1 for v in factors):
            cokernel_free = False
    return {"injective": injective, "cokernel_free": cokernel_free}


def cokernel_homology(f: ChainMap) -> HomologyReport:
    """Homology of the cokernel complex.  For a degreewise injective map this
    agrees with the homology of the mapping cone, which is how it is
    computed (no basis choices needed)."""
    return homology(mapping_cone(f))


def generating_cofibrations(max_dim: int):
    """The boundary inclusions for n = 0..max_dim (n = 0 is empty -> point)."""
    from .cubical import empty_to_point

    out = [("bd0", empty_to_point())]
    for n in range(1, max_dim + 1):
        B, incl = boundary(n)
        out.append((f"bd{n}", incl))
    return out

def generating_acyclic_cofibrations(max_dim: int):
    out = []
    for n in range(1, max_dim + 1):
        for k in range(1, n + 1):
            for eps in (0, 1):
                B, incl = open_box(n, k, eps)
                out.append((f"box{n}_{k}_{eps}", incl))
    return out


def check_quillen(cyl: CylinderDatum, max_dim: int) -> dict:
    """Verify the left-Quillen conditions on the generator families.

    The cylinder axioms themselves are part of the verdict: a datum that is
    not a cylinder object cannot induce a left Quillen functor, whatever the
    per-generator checks say.
    """
    if max_dim < 0:
        raise ValidationError(f"max_dim {max_dim} must not be negative")
    report = {"max_dim": max_dim}
    cyl_details = cyl.validate(require=False)
    report["cylinder"] = cyl_details

    unit = chain_realize(standard_cube(0), cyl)
    report["unit_cofibrant"] = all(
        isinstance(b, tuple) for items in unit.basis.values() for b in items
    ) and unit.rank(0) == 1  # free on one generator by construction

    gens = []
    for name, incl in generating_cofibrations(max_dim):
        f = chain_realize_map(incl, cyl)
        entry = {"name": name, "kind": "cofibration"}
        entry.update(cofibration_check(f))
        entry["cokernel_homology"] = cokernel_homology(f).as_dict()
        entry["pass"] = entry["injective"] and entry["cokernel_free"]
        gens.append(entry)
    for name, incl in generating_acyclic_cofibrations(max_dim):
        f = chain_realize_map(incl, cyl)
        entry = {"name": name, "kind": "acyclic cofibration"}
        entry.update(cofibration_check(f))
        rep = cokernel_homology(f)
        entry["cokernel_homology"] = rep.as_dict()
        entry["acyclic"] = all(b == 0 and not t for _, b, t in rep.entries)
        entry["pass"] = entry["injective"] and entry["cokernel_free"] and entry["acyclic"]
        gens.append(entry)
    report["generators"] = gens
    report["pass"] = (
        bool(cyl_details["valid"])
        and report["unit_cofibrant"]
        and all(g["pass"] for g in gens)
    )
    return report
