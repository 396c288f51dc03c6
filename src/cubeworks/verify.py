"""The acceptance suite: one callable per criterion, each returning a result
record, plus a deterministic table runner used by `cubeworks verify all`.

Every check here is exact (integer equality, explicit isomorphisms, literal
witnesses); nothing is tuned or tolerance-based.
"""

from __future__ import annotations

import time

from . import cubes
from .chains import cubical_chains, homology, simplicial_chains
from .cubical import (
    CubicalMap,
    _pair_id,
    boundary,
    endpoint_inclusion,
    find_isomorphism,
    interval_inclusion,
    is_isomorphism,
    iterated_pushout_product,
    nd,
    open_box,
    pushout,
    standard_cube,
    tensor,
)
from .enriched import (
    build_E,
    build_H,
    extend_inverse,
    homotopy_category,
    special_category,
)
from .james import james
from .james_compare import compare_with_james, localized_E
from .realize import broken_cylinder, check_quillen, standard_cylinder
from .simplicial import circle, wedge_of_intervals
from .triangulate import triangulate


def _result(cid, name, passed, detail):
    return {"id": cid, "name": name, "pass": bool(passed), "detail": detail}


def _glued_loop():
    f = interval_inclusion()
    g = CubicalMap(f.source, standard_cube(0), {"l:pt": nd("pt"), "r:pt": nd("pt")})
    Q, _, _ = pushout(f, g)
    return Q


def criterion_1():
    """Cube-category soundness: generator closure equals normal-form
    enumeration for all hom sets with dimensions <= 3, and the interval
    retraction relations hold exactly."""
    closure = cubes.generator_closure(3)
    by_pair = {}
    for f in closure:
        by_pair.setdefault((f.source_dim, f.target_dim), set()).add(f)
    mismatches = []
    for n in range(4):
        for m in range(4):
            want = set(cubes.enumerate_hom(n, m))
            got = by_pair.get((n, m), set())
            if want != got:
                mismatches.append((n, m, len(got), len(want)))
    relations = (
        cubes.compose(cubes.r(), cubes.j0()) == cubes.identity(0)
        and cubes.compose(cubes.r(), cubes.j1()) == cubes.identity(0)
    )
    counts = {
        "hom(1,1)": len(by_pair[(1, 1)]),
        "hom(0,1)": len(by_pair[(0, 1)]),
        "hom(1,0)": len(by_pair[(1, 0)]),
    }
    passed = not mismatches and relations and counts == {
        "hom(1,1)": 3,
        "hom(0,1)": 2,
        "hom(1,0)": 1,
    }
    return _result(
        1,
        "cube-category soundness",
        passed,
        {"mismatches": mismatches, "retraction_relations": relations, **counts},
    )


def criterion_2():
    """Generator geometry: iterated pushout-products rebuild the boundaries
    and open boxes, n <= 4, as explicit isomorphisms."""
    i = interval_inclusion()
    detail = {"boundaries": [], "boxes": [], "removed_face_convention": []}
    ok = True
    for n in range(1, 5):
        pp = iterated_pushout_product([i] * n)
        iso = find_isomorphism(pp.source, boundary(n)[0])
        detail["boundaries"].append({"n": n, "isomorphic": iso is not None})
        ok &= iso is not None
    for n in range(1, 5):
        for k in range(1, n + 1):
            for eps in (0, 1):
                factors = [i] * n
                factors[k - 1] = endpoint_inclusion(eps)
                pp = iterated_pushout_product(factors)
                iso = find_isomorphism(pp.source, open_box(n, k, eps)[0])
                detail["boxes"].append(
                    {"n": n, "k": k, "eps": eps, "isomorphic": iso is not None}
                )
                ok &= iso is not None
                # derived convention: the (k, eps) face is hit, (k, 1-eps) is not
                images = {
                    ref.base for ref in pp.assignment.values() if not ref.degens
                }
                face_id = ["*"] * n
                face_id[k - 1] = str(eps)
                opposite = ["*"] * n
                opposite[k - 1] = str(1 - eps)
                hit = "|".join(face_id) if n > 1 else str(eps)
                missed = "|".join(opposite) if n > 1 else str(1 - eps)
                good = hit in images and missed not in images
                detail["removed_face_convention"].append(
                    {"n": n, "k": k, "eps": eps, "ok": good}
                )
                ok &= good
    return _result(2, "generator geometry (pushout-products)", ok, detail)


def _cube_word(cell: str) -> str:
    """The slot word of a cell of a standard cube; the point's word is empty."""
    return "" if cell == "pt" else cell


def _both_routes(T, X, bijection) -> bool:
    """An isomorphism T -> X by two independent routes: the explicit
    structure map checked face by face, and search alone."""
    witness = is_isomorphism(T, X, bijection)
    return find_isomorphism(T, X) is not None and witness


def criterion_3():
    """Tensor unit and associativity, and the cube addition law, total
    dimension <= 4.  Each row writes its structure map down as a cell
    bijection and checks it face by face:

    - cube addition cube(p) (x) cube(q) -> cube(p+q) concatenates the slot
      words, a|b -> ab, with the point as the empty word;
    - the left and right unitors drop the point, pt|x -> x and x|pt -> x;
    - the associator sends (x|y)|z to x|(y|z), and both render as x|y|z: it
      is the identity on cell ids, an isomorphism exactly when the two
      bracketings have equal cell and face tables, which those rows compare.

    The cube-addition and unit rows check their bijections with
    `is_isomorphism` and need `find_isomorphism` to succeed as a second,
    independent route.  Each inner tensor of two generators is built once."""
    ok = True
    detail = {"cube_addition": [], "unit": [], "associativity": []}
    cube = [standard_cube(n) for n in range(5)]
    for p in range(5):
        for q in range(5 - p):
            addition = {
                _pair_id(a, b): _cube_word(a) + _cube_word(b) or "pt"
                for a in cube[p].cells
                for b in cube[q].cells
            }
            iso = _both_routes(tensor(cube[p], cube[q]), cube[p + q], addition)
            detail["cube_addition"].append({"p": p, "q": q, "isomorphic": iso})
            ok &= iso
    unit = cube[0]
    probes = [cube[2], boundary(2)[0], open_box(2, 1, 0)[0], _glued_loop()]
    for X in probes:
        left_unitor = {_pair_id(u, x): x for u in unit.cells for x in X.cells}
        right_unitor = {_pair_id(x, u): x for x in X.cells for u in unit.cells}
        left = _both_routes(tensor(unit, X), X, left_unitor)
        right = _both_routes(tensor(X, unit), X, right_unitor)
        detail["unit"].append({"space": X.name, "left": left, "right": right})
        ok &= left and right
    gens = [
        cube[0],
        cube[1],
        cube[2],
        boundary(1)[0],
        boundary(2)[0],
        boundary(3)[0],
        open_box(2, 2, 1)[0],
        open_box(3, 1, 0)[0],
    ]
    inner = {(i, j): tensor(X, Y) for i, X in enumerate(gens) for j, Y in enumerate(gens)}
    for i, X in enumerate(gens):
        for j, Y in enumerate(gens):
            for k, Z in enumerate(gens):
                if X.dim_bound + Y.dim_bound + Z.dim_bound > 4:
                    continue
                L, R = tensor(inner[(i, j)], Z), tensor(X, inner[(j, k)])
                iso = L.cells == R.cells and L.rows == R.rows
                detail["associativity"].append(
                    {"triple": (X.name, Y.name, Z.name), "isomorphic": iso}
                )
                ok &= iso
    return _result(3, "tensor unit/associativity and cube addition", ok, detail)


def criterion_4():
    """Cross-pipeline homology agreement on the corpus, n <= 4, including the
    sphere homology of the cube boundaries."""
    ok = True
    rows = []
    corpus = [("cube%d" % n, standard_cube(n)) for n in range(5)]
    corpus += [("boundary%d" % n, boundary(n)[0]) for n in range(1, 5)]
    corpus += [
        (f"box{n}_{k}_{eps}", open_box(n, k, eps)[0])
        for n in range(1, 5)
        for k in range(1, n + 1)
        for eps in (0, 1)
    ]
    loop = _glued_loop()
    corpus.append(("loop", loop))
    corpus.append(("torus", tensor(loop, loop)))
    for name, X in corpus:
        cub = homology(cubical_chains(X))
        tri = homology(simplicial_chains(triangulate(X)))
        rows.append({"space": name, "agree": cub == tri})
        ok &= cub == tri
    rep0 = homology(cubical_chains(boundary(1)[0]))
    s0 = rep0.betti(0) == 2 and not rep0.torsion(0)
    rows.append({"space": "boundary1 is S^0", "agree": s0})
    ok &= s0
    for n in range(2, 5):
        rep = homology(cubical_chains(boundary(n)[0]))
        sphere = all(
            rep.betti(d) == (1 if d in (0, n - 1) else 0) and not rep.torsion(d)
            for d in range(n)
        )
        rows.append({"space": f"boundary{n} is S^{n-1}", "agree": sphere})
        ok &= sphere
    return _result(4, "homology pipeline agreement", ok, rows)


def criterion_5():
    """Quillen generator checks with the standard cylinder up to n = 4, and
    the broken-cylinder negative control."""
    good = check_quillen(standard_cylinder(), 4)
    bad = check_quillen(broken_cylinder(), 2)
    ok = good["pass"] and not bad["pass"]
    return _result(
        5,
        "left-Quillen generator checks",
        ok,
        {
            "standard": {
                "pass": good["pass"],
                "generators": [(g["name"], g["pass"]) for g in good["generators"]],
            },
            "broken": {
                "pass": bad["pass"],
                "cylinder_valid": bad["cylinder"]["valid"],
            },
        },
    )


def criterion_6():
    """James contractibility at window 5: reduced homology vanishes in
    degrees 1..4."""
    J = james(wedge_of_intervals(2), "w", 5)
    rep = homology(simplicial_chains(J))
    ok = rep.betti(0) == 1 and not rep.torsion(0)
    rows = {"H0": rep.betti(0)}
    for d in range(1, 5):
        rows[f"H{d}"] = rep.betti(d)
        ok &= rep.betti(d) == 0 and not rep.torsion(d)
    return _result(6, "James construction contractibility (L=5)", ok, rows)


def criterion_7():
    """Negative control for the distinct-inverses design: the James
    construction on the circle has a copy of the integers in every degree
    0..4 (the loops on the 2-sphere)."""
    J = james(circle(), "v", 5)
    rep = homology(simplicial_chains(J))
    ok = True
    rows = {}
    for d in range(5):
        rows[f"H{d}"] = rep.betti(d)
        ok &= rep.betti(d) == 1 and not rep.torsion(d)
    return _result(7, "James on the circle (loops of S^2)", ok, rows)


def criterion_8():
    """Localization shadow: the homotopy category of the localized
    homotopy-inverse-pair category matches the chaotic interval, and the
    triangulated loop space matches the James construction window for
    window, L <= 5."""
    EL = localized_E()
    h = homotopy_category(EL, 3)
    singleton = all(len(reps) == 1 for reps in h.homs.values())
    f_rep = h.homs[("c", "c'")][0]
    iso = h.is_isomorphism("c", "c'", f_rep)
    tilde = homotopy_category(special_category("interval_tilde"), 3)
    same_shape = sorted(len(v) for v in h.homs.values()) == sorted(
        len(v) for v in tilde.homs.values()
    )
    rows = {"hcat_singleton_homs": singleton, "f_iso": iso, "matches_tilde": same_shape}
    ok = singleton and iso and same_shape
    for L in range(1, 6):
        rep = compare_with_james(L)
        rows[f"james_window_{L}"] = rep["pass"]
        ok &= rep["pass"]
    return _result(8, "localization shadow and James comparison", ok, rows)


def criterion_9():
    """Inverse-extension search: both sides on the chaotic interval and on
    the homotopy-inverse-pair category; only the left side on H."""
    rows = {}
    T = special_category("interval_tilde")
    rep_t = extend_inverse(T, ("e", "0", "1", "t01"), 3)
    rows["tilde_extends"] = rep_t["extends"]
    E = build_E()
    rep_e = extend_inverse(E, ("e", "c", "c'", "u"), 4)
    rows["E_extends"] = rep_e["extends"]
    rows["E_left_inverse"] = rep_e["left"] != "inconclusive" and rep_e["left"]["inverse"]
    rows["E_right_inverse"] = (
        rep_e["right"] != "inconclusive" and rep_e["right"]["inverse"]
    )
    H = build_H()
    left_found = []
    right_inconclusive = []
    for L in (3, 4, 5):
        rep_h = extend_inverse(H, ("e", "c", "c'", "u"), L)
        left_found.append(rep_h["left"] != "inconclusive")
        right_inconclusive.append(rep_h["right"] == "inconclusive")
    rows["H_left_found_all_bounds"] = all(left_found)
    rows["H_right_inconclusive_all_bounds"] = all(right_inconclusive)
    ok = (
        rep_t["extends"]
        and rep_e["extends"]
        and all(left_found)
        and all(right_inconclusive)
    )
    return _result(9, "inverse-extension search", ok, rows)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


def _run_one(index: int):
    fn = CRITERIA[index]
    start = time.perf_counter()
    try:
        res = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        res = _result(index + 1, fn.__name__, False, {"error": repr(exc)})
    res["seconds"] = round(time.perf_counter() - start, 2)
    return res


def run_all(jobs: int = 1):
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # under the fork start method the pool forks all its workers at once
        with ProcessPoolExecutor(max_workers=min(jobs, len(CRITERIA))) as pool:
            results = list(pool.map(_run_one, range(len(CRITERIA))))
    else:
        results = [_run_one(i) for i in range(len(CRITERIA))]
    results.sort(key=lambda r: r["id"])
    return results, all(r["pass"] for r in results)


def format_table(results) -> str:
    lines = []
    width = max(len(r["name"]) for r in results)
    for r in results:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"  {r['id']}. {r['name']:<{width}}  {status}  ({r['seconds']}s)")
    return "\n".join(lines)
