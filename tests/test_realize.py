import pytest

from cubeworks.chains import (
    ChainComplex,
    ChainMap,
    cubical_chains,
    homology,
    is_acyclic,
    mapping_cone,
    point_complex,
)
from cubeworks.cubical import (
    boundary,
    coproduct,
    CubicalMap,
    endpoint_inclusion,
    interval_inclusion,
    iterated_pushout_product,
    nd,
    open_box,
    pushout,
    standard_cube,
    tensor,
)
from cubeworks.errors import ValidationError
from test_homology import by_label, tensor_complexes
from cubeworks.realize import (
    CylinderDatum,
    broken_cylinder,
    chain_realize,
    chain_realize_map,
    check_quillen,
    cofibration_check,
    cokernel_homology,
    standard_cylinder,
)


def test_standard_cylinder_validates():
    details = standard_cylinder().validate()
    assert details["valid"]
    assert details["collapse_chain_map"]
    assert details["end_inclusions_acyclic_cofibrations"]


def test_standard_cylinder_homology():
    C = standard_cylinder().complex
    rep = homology(C)
    assert rep.betti(0) == 1 and rep.betti(1) == 0


def test_collapse_retracts_inclusions():
    cyl = standard_cylinder()
    assert cyl.collapse_coeffs[cyl.end0] == 1
    assert cyl.collapse_coeffs[cyl.end1] == 1


def test_mapping_cone_of_end_inclusion_vanishes():
    cyl = standard_cylinder()
    unit = point_complex()
    incl = ChainMap(unit, cyl.complex, {0: [{cyl.complex.basis[0].index(cyl.end0): 1}]})
    incl.validate()
    assert is_acyclic(mapping_cone(incl))


def test_broken_cylinder_fails_validation():
    details = broken_cylinder().validate(require=False)
    assert not details["valid"]
    assert not details["collapse_chain_map"]
    with pytest.raises(ValidationError):
        broken_cylinder().validate()


def test_chain_realize_interval_is_interval_complex():
    cyl = standard_cylinder()
    F = chain_realize(standard_cube(1), cyl)
    F.validate()
    assert F.rank(0) == 2 and F.rank(1) == 1
    (edge,) = F.basis[1]
    bnd = by_label(F.boundary[1], F.basis[1], F.basis[0])[edge]
    assert bnd == {("1", ()): 1, ("0", ()): -1}


def test_chain_realize_matches_cubical_chains_homology():
    cyl = standard_cylinder()
    corpus = [standard_cube(n) for n in range(4)]
    corpus += [boundary(n)[0] for n in range(1, 4)]
    corpus += [open_box(2, 1, 0)[0], open_box(3, 2, 1)[0]]
    I = standard_cube(1)
    P = standard_cube(0)
    two, _, _ = coproduct(P, P)
    f = CubicalMap(two, I, {"l:pt": nd("0"), "r:pt": nd("1")})
    g = CubicalMap(two, P, {"l:pt": nd("pt"), "r:pt": nd("pt")})
    loop, _, _ = pushout(f, g)
    corpus.append(loop)
    for X in corpus:
        F = chain_realize(X, cyl)
        F.validate()
        assert homology(F) == homology(cubical_chains(X))


def test_chain_realize_tensor_compatibility():
    cyl = standard_cylinder()
    gens = [standard_cube(0), standard_cube(1), standard_cube(2), boundary(1)[0], boundary(2)[0]]
    for X in gens:
        for Y in gens:
            if X.dim_bound + Y.dim_bound > 3:
                continue
            FT = chain_realize(tensor(X, Y), cyl)
            TF = tensor_complexes(chain_realize(X, cyl), chain_realize(Y, cyl))
            # the based isomorphism pairs (x|y, w) with ((x,wx),(y,wy))
            for d in set(FT.basis) | set(TF.basis):
                assert FT.rank(d) == TF.rank(d)
            pairing = {}
            for d, items in TF.basis.items():
                for ((x, wx), (y, wy)) in items:
                    pairing[((x, wx), (y, wy))] = (f"{x}|{y}", wx + wy)
            for d, items in TF.basis.items():
                TB = by_label(TF.boundary[d], items, TF.basis.get(d - 1, []))
                FB = by_label(FT.boundary[d], FT.basis[d], FT.basis.get(d - 1, []))
                for b in items:
                    lhs = {pairing[t]: v for t, v in TB[b].items()}
                    rhs = FB[pairing[b]]
                    assert lhs == rhs, (b, lhs, rhs)


def test_realized_boundary2_cokernel():
    cyl = standard_cylinder()
    B, incl = boundary(2)
    f = chain_realize_map(incl, cyl)
    f.validate()
    checks = cofibration_check(f)
    assert checks["injective"] and checks["cokernel_free"]
    rep = cokernel_homology(f)
    assert rep.betti(2) == 1
    assert all(rep.betti(d) == 0 for d in (0, 1))


def test_realized_open_box_acyclic():
    cyl = standard_cylinder()
    B, incl = open_box(2, 1, 0)
    f = chain_realize_map(incl, cyl)
    rep = cokernel_homology(f)
    assert all(b == 0 and not t for _, b, t in rep.entries)


def test_realized_unit_free():
    cyl = standard_cylinder()
    F = chain_realize(standard_cube(0), cyl)
    assert F.rank(0) == 1 and F.top_degree == 0


def test_check_quillen_standard_passes():
    report = check_quillen(standard_cylinder(), 3)
    assert report["pass"]
    for g in report["generators"]:
        assert g["pass"], g


def test_check_quillen_broken_fails():
    report = check_quillen(broken_cylinder(), 2)
    assert not report["pass"]
    assert not report["cylinder"]["valid"]


@pytest.mark.parametrize("cylinder", [standard_cylinder, broken_cylinder])
@pytest.mark.parametrize("max_dim", [-1, -3])
def test_check_quillen_negative_max_dim_refused(cylinder, max_dim):
    with pytest.raises(ValidationError):
        check_quillen(cylinder(), max_dim)


# -- chain-level pushout-product (reference oracle for the transport property) --


def subcomplex_union_pushout_product(f: ChainMap, g: ChainMap):
    """For basis-aligned injections (every basis element goes to a single
    basis element with coefficient 1), the pushout-product's source is the
    union of the two tensor subcomplexes inside target(x)target.

    Returns (source complex, chain map into the target tensor complex),
    with basis names matching the tensor pairing.
    """
    def image_pairs(h: ChainMap):
        pairs = {}
        for d, columns in h.matrices.items():
            images = by_label(columns, h.source.basis[d], h.target.basis.get(d, []))
            for b, img in images.items():
                if len(img) > 1 or any(v != 1 for v in img.values()):
                    raise ValidationError("pushout-product helper needs basis-aligned maps")
                if img:
                    pairs[b] = next(iter(img))
        return pairs

    fa = image_pairs(f)
    ga = image_pairs(g)
    BB = tensor_complexes(f.target, g.target, name="BB")
    keep = set()
    for d, items in f.source.basis.items():
        for a in items:
            for q, bitems in g.target.basis.items():
                for b in bitems:
                    keep.add((fa[a], b))
    for d, items in g.source.basis.items():
        for c in items:
            for p, bitems in f.target.basis.items():
                for b in bitems:
                    keep.add((b, ga[c]))
    basis = {}
    for d, items in BB.basis.items():
        sub = [b for b in items if b in keep]
        if sub:
            basis[d] = sub
    row = {d: {b: i for i, b in enumerate(items)} for d, items in basis.items()}
    boundary = {}
    for d in basis:
        images = by_label(BB.boundary[d], BB.basis[d], BB.basis.get(d - 1, []))
        if any(t not in keep for b in basis[d] for t in images[b]):
            raise ValidationError("union of subcomplexes not closed under d")
        boundary[d] = [{row[d - 1][t]: v for t, v in images[b].items()} for b in basis[d]]
    S = ChainComplex(basis, boundary, name="pp-source")
    into = {d: {b: i for i, b in enumerate(items)} for d, items in BB.basis.items()}
    incl = ChainMap(S, BB, {d: [{into[d][b]: 1} for b in basis[d]] for d in basis})
    return S, incl


def test_pushout_product_transport():
    # realizing the cubical pushout-product equals the chain-level
    # pushout-product of the realizations, as based subcomplexes of the
    # realized total cube
    cyl = standard_cylinder()
    i = interval_inclusion()
    j0 = endpoint_inclusion(0)
    cases = [
        ([i, i], 2),
        ([i, j0], 2),
        ([j0, i], 2),
        ([i, i, i], 3),
        ([i, j0, i], 3),
    ]
    for factors, n in cases:
        pp = iterated_pushout_product(factors)
        realized = chain_realize_map(pp, cyl)
        realized.validate()
        chain_factors = [chain_realize_map(m, cyl) for m in factors]
        # fold the chain-level pushout-product as iterated subcomplex unions
        left = chain_factors[0]
        for nxt in chain_factors[1:]:
            src, incl = subcomplex_union_pushout_product(left, nxt)
            left = incl
        # compare image bases inside the realized total cube: flatten the
        # nested tensor names to match the realized pair ids
        def flatten(b):
            if isinstance(b, tuple) and len(b) == 2 and isinstance(b[1], tuple) and all(
                not isinstance(x, tuple) for x in b[1]
            ) and isinstance(b[0], str):
                return b  # (cell, word)
            (lb, rb) = b
            lc, lw = flatten(lb)
            rc, rw = flatten(rb)
            return (f"{lc}|{rc}", lw + rw)

        lhs = {
            flatten(b)
            for items in left.source.basis.values()
            for b in items
        }
        images = {
            d: by_label(columns, realized.source.basis[d], realized.target.basis[d])
            for d, columns in realized.matrices.items()
        }
        rhs = {
            next(iter(images[d][b]))
            for d, items in realized.source.basis.items()
            for b in items
            if images[d][b]
        }
        assert lhs == rhs
        # no basis element of the realized source dies (the map is injective)
        assert all(
            images[d][b]
            for d, items in realized.source.basis.items()
            for b in items
        )
