"""The benchmark's workloads: inputs made from a seed, the tasks of one
pass, and the independent oracle each task's answer is checked against.

Every task returns an answer whose `counts` entry holds the exact counts it
produced (cells per dimension of each object it built, homology).  Those
counts are part of the answer: the oracles compare them with the values
below, so a drift is reported as an output change, never as noise.

`james` and `torsion` relabel the cell ids of their inputs with a
permutation drawn from the seed before handing them to cubeworks; cell ids
set the order of every basis and so of every elimination.  `acceptance` and
`loopspace` build their inputs inside cubeworks and ignore the seed.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

from cubeworks import verify
from cubeworks.chains import cubical_chains, homology, simplicial_chains
from cubeworks.cubical import CellRef, CubicalSet, boundary, tensor
from cubeworks.enriched import homotopy_category, mapping_space
from cubeworks.io_json import Workspace
from cubeworks.james import james
from cubeworks.james_compare import localized_E
from cubeworks.simplicial import SimplexRef, SimplicialSet, circle, wedge_of_intervals
from cubeworks.triangulate import triangulate


@dataclass(frozen=True)
class Task:
    """`run(inputs, state)` returns the answer; `check(answer)` returns
    None when the oracle accepts it and a one-line reason otherwise.
    `state` is shared by the tasks of one pass."""

    name: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, scratch directory) -> inputs
    tasks: tuple
    uses_seed: bool


# -- shared helpers ---------------------------------------------------------------


def cell_counts(X) -> list:
    """Non-degenerate cells per dimension, dimension 0 first."""
    counts = X.cell_counts()
    return [counts.get(d, 0) for d in range(X.dim_bound + 1)]


def groups(rep) -> list:
    """A homology report as [betti, [[torsion order, multiplicity], ...]]
    per degree."""
    return [[b, [[q, t.count(q)] for q in sorted(set(t))]] for _, b, t in rep.entries]


def _shuffled_names(cells, rng) -> dict:
    order = sorted(cells)
    rng.shuffle(order)
    return {c: f"q{i:05d}" for i, c in enumerate(order)}


def relabel_simplicial(S: SimplicialSet, rng) -> tuple:
    names = _shuffled_names(S.cells, rng)
    cells = {names[c]: d for c, d in S.cells.items()}
    faces = {
        (names[c], j): SimplexRef(r.degens, names[r.base]) for (c, j), r in S.faces.items()
    }
    return SimplicialSet(cells, faces, name=S.name), names


def relabel_cubical(X: CubicalSet, rng) -> tuple:
    names = _shuffled_names(X.cells, rng)
    cells = {names[c]: d for c, d in X.cells.items()}
    faces = {
        (names[c], k, eps): CellRef(r.degens, names[r.base])
        for (c, k, eps), r in X.faces.items()
    }
    return CubicalSet(cells, faces, name=X.name), names


def first_problem(*pairs) -> str | None:
    """The first `(ok, reason)` pair that is not ok, as its reason."""
    for ok, reason in pairs:
        if not ok:
            return reason
    return None


def free_groups(ranks) -> list:
    return [[r, []] for r in ranks]


# -- james ------------------------------------------------------------------------

# Exact cell counts of the James constructions; the homology oracles below
# are the mathematical ones (contractibility, loops of the 2-sphere).
WEDGE5_CELLS = [63, 1302, 6664, 13488, 11904, 3840]
CIRCLE7_CELLS = [1, 7, 240, 2538, 10224]


def james_setup(seed, scratch):
    rng = random.Random(seed)
    wedge, wnames = relabel_simplicial(wedge_of_intervals(2), rng)
    loop, cnames = relabel_simplicial(circle(), rng)
    return {"wedge": (wedge, wnames["w"]), "circle": (loop, cnames["v"])}


def james_homology(X, base, bound, max_dim=None) -> dict:
    J = james(X, base, bound, max_dim)
    rep = homology(simplicial_chains(J))
    return {"counts": {"cells": cell_counts(J), "homology": groups(rep)}}


def expect_james(cells, homology_below) -> Callable:
    """Oracle: exact cell counts, and the given groups in the degrees below
    the window (the top degree of a truncation is not yet stable)."""

    def check(answer):
        c = answer["counts"]
        low = c["homology"][: len(homology_below)]
        return first_problem(
            (c["cells"] == cells, f"cells {c['cells']} != {cells}"),
            (low == homology_below, f"homology {low} != {homology_below}"),
        )

    return check


JAMES = Workload(
    "james",
    james_setup,
    (
        Task(
            "wedge_window5",
            lambda inp, st: james_homology(*inp["wedge"], 5),
            expect_james(WEDGE5_CELLS, free_groups([1, 0, 0, 0, 0])),
        ),
        Task(
            "circle_window7_dim4",
            lambda inp, st: james_homology(*inp["circle"], 7, 4),
            expect_james(CIRCLE7_CELLS, free_groups([1, 1, 1, 1])),
        ),
    ),
    uses_seed=True,
)


# -- torsion ----------------------------------------------------------------------

RP2_CUBE_TRIANGULATED_CELLS = [1, 26, 290, 1248, 2424, 2160, 720]
S5_TRIANGULATED_CELLS = [64, 664, 2640, 4920, 4320, 1440]


def projective_plane() -> CubicalSet:
    """The three-cell cubical projective plane: a vertex v, a loop a at v,
    and a square whose (1,0) and (2,1) faces are both a and whose other two
    faces are degenerate on v."""
    v = CellRef((), "v")
    a = CellRef((), "a")
    sv = CellRef((1,), "v")
    return CubicalSet(
        {"v": 0, "a": 1, "s": 2},
        {
            ("a", 1, 0): v,
            ("a", 1, 1): v,
            ("s", 1, 0): a,
            ("s", 2, 1): a,
            ("s", 1, 1): sv,
            ("s", 2, 0): sv,
        },
        name="RP2",
    )


def poly_power(base, k) -> list:
    out = [1]
    for _ in range(k):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        out = nxt
    return out


def rp2_power_homology(k) -> list:
    """Integral homology of the k-fold tensor power of RP2 from its mod-2
    Poincare polynomial (1 + t + t^2)^k: H0 = Z and every other group is a
    sum of Z/2, so by universal coefficients dim H_d(-; F2) = b_d + t_d +
    t_(d-1), where t_d counts the Z/2 summands of H_d."""
    mod2 = poly_power([1, 1, 1], k)
    out = []
    prev = 0
    for d, p in enumerate(mod2):
        betti = 1 if d == 0 else 0
        t = p - betti - prev
        out.append([betti, [[2, t]] if t else []])
        prev = t
    return out


def sphere_homology(n) -> list:
    return free_groups([1 if d in (0, n) else 0 for d in range(n + 1)])


def torsion_setup(seed, scratch):
    rng = random.Random(seed)
    rp2, _ = relabel_cubical(projective_plane(), rng)
    rp2.validate()
    s5, _ = relabel_cubical(boundary(6)[0], rng)
    return {"rp2": rp2, "s5": s5}


def tensor_power(X, k):
    T = X
    for _ in range(k - 1):
        T = tensor(T, X)
    return T


def both_pipelines(X) -> dict:
    S = triangulate(X)
    return {
        "counts": {
            "cells": cell_counts(X),
            "triangulated_cells": cell_counts(S),
            "cubical": groups(homology(cubical_chains(X))),
            "triangulated": groups(homology(simplicial_chains(S))),
        }
    }


def rp2_power(inp, k) -> dict:
    T = tensor_power(inp["rp2"], k)
    rep = homology(cubical_chains(T))
    return {"counts": {"cells": cell_counts(T), "cubical": groups(rep)}}


def expect_rp2_power(k) -> Callable:
    def check(answer):
        c = answer["counts"]
        want = rp2_power_homology(k)
        cells = poly_power([1, 1, 1], k)
        return first_problem(
            (c["cells"] == cells, f"cells {c['cells']} != {cells}"),
            (c["cubical"] == want, f"RP2^{k} homology disagrees with (1+t+t^2)^{k}"),
        )

    return check


def expect_pipelines(cells, triangulated_cells, want) -> Callable:
    def check(answer):
        c = answer["counts"]
        return first_problem(
            (c["cells"] == cells, f"cells {c['cells']} != {cells}"),
            (
                c["triangulated_cells"] == triangulated_cells,
                f"triangulated cells {c['triangulated_cells']} != {triangulated_cells}",
            ),
            (c["cubical"] == c["triangulated"], "pipelines disagree"),
            (c["cubical"] == want, f"homology {c['cubical']} != {want}"),
        )

    return check


TORSION = Workload(
    "torsion",
    torsion_setup,
    (
        Task("rp2_tensor7_cubical", lambda inp, st: rp2_power(inp, 7), expect_rp2_power(7)),
        Task(
            "rp2_tensor3_both",
            lambda inp, st: both_pipelines(tensor_power(inp["rp2"], 3)),
            expect_pipelines(
                poly_power([1, 1, 1], 3), RP2_CUBE_TRIANGULATED_CELLS, rp2_power_homology(3)
            ),
        ),
        Task(
            "cube6_boundary_both",
            lambda inp, st: both_pipelines(inp["s5"]),
            expect_pipelines(
                [64, 192, 240, 160, 60, 12], S5_TRIANGULATED_CELLS, sphere_homology(5)
            ),
        ),
    ),
    uses_seed=True,
)


# -- loopspace --------------------------------------------------------------------

MAP6_CELLS = [127, 642, 1404, 1672, 1136, 416, 64]


def loopspace_setup(seed, scratch):
    return {"EL": localized_E(), "scratch": scratch}


def map_space(inp, st, x, y) -> dict:
    trunc = mapping_space(inp["EL"], x, y, 6)
    st[(x, y)] = trunc
    return {
        "counts": {
            "cells": cell_counts(trunc.space),
            "stable_dims": sorted(trunc.stable_dims),
        }
    }


def expect_map6(answer):
    c = answer["counts"]
    return first_problem(
        (c["cells"] == MAP6_CELLS, f"cells {c['cells']} != {MAP6_CELLS}"),
        (c["stable_dims"] == [], f"stable dims {c['stable_dims']} != []"),
    )


def homotopy_classes(inp, st) -> dict:
    h = homotopy_category(inp["EL"], 5)
    f_rep = h.homs[("c", "c'")][0]
    return {
        "counts": {
            "classes": {f"{x}->{y}": len(reps) for (x, y), reps in sorted(h.homs.items())},
            "f_iso": h.is_isomorphism("c", "c'", f_rep),
        }
    }


def expect_singletons(answer):
    c = answer["counts"]
    return first_problem(
        (len(c["classes"]) == 4, f"hom sets {sorted(c['classes'])}"),
        (all(n == 1 for n in c["classes"].values()), f"classes {c['classes']}"),
        (c["f_iso"] is True, "f is not an isomorphism in h(EL)"),
    )


def save_and_load(inp, st) -> dict:
    """Save each truncation of this pass into a fresh workspace, load it
    through a second Workspace object, and compare cell for cell."""
    path = tempfile.mkdtemp(prefix="ws-", dir=inp["scratch"])
    try:
        writer = Workspace(path)
        spaces = {f"map_{x}_{y}".replace("'", "p"): t.space for (x, y), t in st.items()}
        for name, space in spaces.items():
            writer.save(name, space)
        reader = Workspace(path)
        same = {}
        for name, space in spaces.items():
            back = reader.load(name)
            same[name] = back.cells == space.cells and back.faces == space.faces
    finally:
        shutil.rmtree(path)
    return {"counts": {"round_trip": same}}


def expect_round_trip(answer):
    same = answer["counts"]["round_trip"]
    return first_problem(
        (len(same) == 2, f"saved {sorted(same)}"),
        (all(same.values()), f"artifacts changed on load: {same}"),
    )


LOOPSPACE = Workload(
    "loopspace",
    loopspace_setup,
    (
        Task("map_c_c_bound6", lambda inp, st: map_space(inp, st, "c", "c"), expect_map6),
        Task("map_c_c'_bound6", lambda inp, st: map_space(inp, st, "c", "c'"), expect_map6),
        Task("homotopy_category_bound5", homotopy_classes, expect_singletons),
        Task("workspace_round_trip", save_and_load, expect_round_trip),
    ),
    uses_seed=False,
)


# -- acceptance -------------------------------------------------------------------


def _criterion_task(fn) -> Task:
    def run(inp, st):
        res = fn()
        return {"counts": {"pass": res["pass"]}, "detail": res["detail"]}

    def check(answer):
        return None if answer["counts"]["pass"] is True else f"{fn.__name__} failed"

    return Task(fn.__name__, run, check)


ACCEPTANCE = Workload(
    "acceptance",
    lambda seed, scratch: {},
    tuple(_criterion_task(fn) for fn in verify.CRITERIA),
    uses_seed=False,
)


WORKLOADS = {w.name: w for w in (ACCEPTANCE, JAMES, TORSION, LOOPSPACE)}
