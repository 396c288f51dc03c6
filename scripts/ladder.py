#!/usr/bin/env python3
"""One rung of the ladder of runs beyond the acceptance sizes, in a fresh
process.

    python3 scripts/ladder.py --rung NAME [--hash]

The rungs are:

- `james_wedge_w6`: the James construction on two wedged intervals at
  window 6, its chains and its homology (the set is dropped once its chains
  are built, as `cubeworks james ... --homology` does);
- `tri_cube6_boundary`: the triangulated boundary of the 6-cube, its chains
  and its homology;
- `map_cc6`: the mapping space Map(c, c) of the localized E at window 6;
- `tri_map_cc6`: that mapping space and its triangulation;
- `james_rp2_l4`: the James construction on the three-cell cubical
  projective plane at window 4, its chains and its homology (37,208 of its
  faces are degenerate, so faces are divided out at scale);
- `compare_w6`: the steps of `compare_with_james(6)`: the translation of
  the triangulated Map(c, c) at window 6 onto James at window 6, and the
  check by renaming (`is_isomorphism`) that it is an isomorphism;
  `bijective` reports whether the translation reaches every James cell,
  and the last set is the James one.

The rung runs in a child process, so its max RSS is its own.  One JSON line
is printed: the rung, the cells per dimension of what it built last, the
wall seconds of its work and of each stage, the child's max RSS in MB, the
homology where the rung computes it, and with `--hash` the SHA-256 of the
repr of each (face, reference) item of that last set, in order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

RUNGS = (
    "james_wedge_w6",
    "tri_cube6_boundary",
    "map_cc6",
    "tri_map_cc6",
    "james_rp2_l4",
    "compare_w6",
)


def projective_plane():
    """The three-cell cubical projective plane: a loop a at v and a square
    whose (1,0) and (2,1) faces are a and whose other faces are degenerate
    on v."""
    from cubeworks.cubical import CubicalSet
    from cubeworks.presented import CellRef, nd

    v, a, sv = nd("v"), nd("a"), CellRef((1,), "v")
    faces = {("a", 1, 0): v, ("a", 1, 1): v, ("s", 1, 0): a, ("s", 2, 1): a}
    faces.update({("s", 1, 1): sv, ("s", 2, 0): sv})
    return CubicalSet({"v": 0, "a": 1, "s": 2}, faces, name="RP2")


def run_rung(name: str, want_hash: bool) -> dict:
    from cubeworks.chains import homology, simplicial_chains
    from cubeworks.cubical import boundary
    from cubeworks.enriched import mapping_space
    from cubeworks.errors import ValidationError
    from cubeworks.james import james
    from cubeworks.james_compare import james_translation, localized_E
    from cubeworks.presented import is_isomorphism
    from cubeworks.simplicial import wedge_of_intervals
    from cubeworks.triangulate import triangulate

    stages = {}

    def stage(label, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        stages[label] = round(time.perf_counter() - start, 3)
        return out

    out = {"rung": name}

    def describe(X):
        out["cells"] = X.cell_counts()
        if want_hash:
            out["faces_sha256"] = _faces_sha256(X)

    report = None
    if name in ("james_wedge_w6", "james_rp2_l4"):
        if name == "james_wedge_w6":
            X = stage("james", james, wedge_of_intervals(2), "w", 6)
        else:
            X = stage("james", james, projective_plane(), "v", 4)
        chains = stage("chains", simplicial_chains, X)
        describe(X)
        del X
        report = stage("homology", homology, chains)
    elif name == "compare_w6":
        _, tri, X, assignment = stage("translation", james_translation, 6)
        out["bijective"] = len(assignment) == len(X.cells)
        if not stage("map_check", is_isomorphism, tri, X, assignment):
            raise ValidationError("the James translation is not an isomorphism")
        describe(X)
    elif name == "tri_cube6_boundary":
        X = stage("triangulate", triangulate, boundary(6)[0])
        describe(X)
        report = stage("homology", lambda T: homology(simplicial_chains(T)), X)
    else:
        X = stage("mapping_space", mapping_space, localized_E(), "c", "c", 6).space
        if name == "tri_map_cc6":
            X = stage("triangulate", triangulate, X)
        describe(X)
    out["wall_s"] = round(sum(stages.values()), 3)
    out["stages"] = stages
    if report is not None:
        out["homology"] = [[betti, list(torsion)] for _, betti, torsion in report.entries]
    return out


def _faces_sha256(X) -> str:
    """The digest of the (face, reference) items of ``X.faces``, rendered
    from the rows in the same order, without building the keyed view."""
    digest = hashlib.sha256()
    for c, row in X.rows.items():
        for i, ref in zip(X.face_indices(X.cells[c]), row):
            digest.update(repr(((c, *i), ref)).encode())
    return digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rung", required=True, choices=RUNGS)
    p.add_argument("--hash", action="store_true", help="hash the faces of the last set built")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(run_rung(args.rung, args.hash)))
        return 0
    argv = [sys.executable, __file__, "--child", "--rung", args.rung]
    proc = subprocess.run(argv + ["--hash"] * args.hash, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    out = json.loads(proc.stdout)
    # ru_maxrss is in KiB on Linux; the child is the only one this process waits for
    out["max_rss_mb"] = round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
