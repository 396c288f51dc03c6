"""JSON interchange (schema tag "cubeworks/1") and the named workspace.

Degeneracy words and face coordinates are 0-indexed on the wire; the
in-memory cubical structures are 1-indexed to match coordinate notation.
Emission is canonical (sorted keys and cell lists), so parse o emit is the
identity on canonical form.
"""

from __future__ import annotations

import json
import os

from .chains import HomologyReport
from .cubical import CellRef, CubicalSet
from .enriched import Attachment, EnrichedPresentation
from .errors import ValidationError
from .simplicial import SimplexRef, SimplicialSet

SCHEMA = "cubeworks/1"


def cubical_to_json(X: CubicalSet) -> dict:
    faces = []
    for (c, k, eps), ref in sorted(X.faces.items()):
        faces.append(
            {
                "cell": c,
                "k": k - 1,
                "eps": eps,
                "degens": [s - 1 for s in ref.degens],
                "base": ref.base,
            }
        )
    return {
        "schema": SCHEMA,
        "kind": "cubical_set",
        "name": X.name,
        "cells": {c: d for c, d in sorted(X.cells.items())},
        "faces": faces,
    }


def cubical_from_json(data: dict) -> CubicalSet:
    if data.get("schema") != SCHEMA or data.get("kind") != "cubical_set":
        raise ValidationError("not a cubeworks/1 cubical set")
    faces = {}
    for f in data["faces"]:
        faces[(f["cell"], f["k"] + 1, f["eps"])] = CellRef(
            tuple(s + 1 for s in f["degens"]), f["base"]
        )
    return CubicalSet(dict(data["cells"]), faces, name=data.get("name", ""))


def simplicial_to_json(S: SimplicialSet) -> dict:
    faces = []
    for (c, j), ref in sorted(S.faces.items()):
        faces.append(
            {"cell": c, "j": j, "degens": list(ref.degens), "base": ref.base}
        )
    return {
        "schema": SCHEMA,
        "kind": "simplicial_set",
        "name": S.name,
        "cells": {c: d for c, d in sorted(S.cells.items())},
        "faces": faces,
    }


def simplicial_from_json(data: dict) -> SimplicialSet:
    if data.get("schema") != SCHEMA or data.get("kind") != "simplicial_set":
        raise ValidationError("not a cubeworks/1 simplicial set")
    faces = {}
    for f in data["faces"]:
        faces[(f["cell"], f["j"])] = SimplexRef(tuple(f["degens"]), f["base"])
    return SimplicialSet(dict(data["cells"]), faces, name=data.get("name", ""))


def _letter_to_json(letter) -> dict:
    if letter[0] == "e":
        return {"kind": "edge", "source": letter[1], "target": letter[2], "cell": letter[3]}
    return {"kind": "att", "index": letter[1], "cell": letter[2]}


def _letter_from_json(data) -> tuple:
    if data["kind"] == "edge":
        return ("e", data["source"], data["target"], data["cell"])
    return ("a", data["index"], data["cell"])


def presentation_to_json(P: EnrichedPresentation) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "presentation",
        "name": P.name,
        "objects": list(P.objects),
        "edges": [
            {"source": s, "target": t, "space": cubical_to_json(space)}
            for (s, t), space in sorted(P.edges.items())
        ],
        "attachments": [
            {
                "space": cubical_to_json(att.space),
                "a_cells": sorted(att.a_cells),
                "source": att.source,
                "target": att.target,
                "boundary": {
                    c: [_letter_to_json(l) for l in w]
                    for c, w in sorted(att.boundary_map.items())
                },
            }
            for att in P.attachments
        ],
        "cancel_pairs": [
            [_letter_to_json(a), _letter_to_json(b)]
            for a, b in sorted(P.cancel_pairs)
        ],
        "zero_weight": [_letter_to_json(l) for l in sorted(P.zero_weight)],
    }


def presentation_from_json(data: dict) -> EnrichedPresentation:
    if data.get("schema") != SCHEMA or data.get("kind") != "presentation":
        raise ValidationError("not a cubeworks/1 presentation")
    P = EnrichedPresentation(data["objects"], None, data.get("name", ""))
    for e in data["edges"]:
        P.edges[(e["source"], e["target"])] = cubical_from_json(e["space"])
    for a in data["attachments"]:
        P.attachments.append(
            Attachment(
                cubical_from_json(a["space"]),
                frozenset(a["a_cells"]),
                a["source"],
                a["target"],
                {
                    c: tuple(_letter_from_json(l) for l in w)
                    for c, w in a["boundary"].items()
                },
            )
        )
    P.cancel_pairs = {
        (_letter_from_json(a), _letter_from_json(b))
        for a, b in data.get("cancel_pairs", [])
    }
    P.zero_weight = {_letter_from_json(l) for l in data.get("zero_weight", [])}
    return P


def report_to_json(rep: HomologyReport) -> dict:
    return {"schema": SCHEMA, "kind": "homology_report", "groups": rep.as_dict()}


def report_from_json(data: dict) -> HomologyReport:
    if data.get("kind") != "homology_report":
        raise ValidationError("not a homology report")
    return HomologyReport(
        tuple((g["degree"], g["betti"], tuple(g["torsion"])) for g in data["groups"])
    )


_EMITTERS = {
    CubicalSet: ("cubical_set", cubical_to_json),
    SimplicialSet: ("simplicial_set", simplicial_to_json),
    EnrichedPresentation: ("presentation", presentation_to_json),
    HomologyReport: ("homology_report", report_to_json),
}

_PARSERS = {
    "cubical_set": cubical_from_json,
    "simplicial_set": simplicial_from_json,
    "presentation": presentation_from_json,
    "homology_report": report_from_json,
}


def to_json(obj) -> dict:
    for cls, (kind, emit) in _EMITTERS.items():
        if isinstance(obj, cls):
            return emit(obj)
    if isinstance(obj, dict):  # raw report payloads
        return obj
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def from_json(data: dict):
    kind = data.get("kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        return data
    return parser(data)


def dumps(obj) -> str:
    return json.dumps(to_json(obj), indent=2, sort_keys=True)


def _dump_atomic(data, path: str):
    """Stream canonical JSON into a new file beside path, then rename it onto
    path, so that a reader sees the old file or the whole new one."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class Workspace:
    """A directory of JSON artifacts with a manifest; names are unique."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.manifest_path = os.path.join(path, "manifest.json")
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as fh:
                self.manifest = json.load(fh)
        else:
            self.manifest = {"schema": SCHEMA, "entries": {}}

    def _flush(self):
        _dump_atomic(self.manifest, self.manifest_path)

    def save(self, name: str, obj, kind: str = None) -> str:
        data = to_json(obj)
        if kind:
            data.setdefault("kind", kind)
        fname = f"{name}.json"
        _dump_atomic(data, os.path.join(self.path, fname))
        self.manifest["entries"][name] = {"kind": data.get("kind", "raw"), "file": fname}
        self._flush()
        return fname

    def load_raw(self, name: str) -> dict:
        entry = self.manifest["entries"].get(name)
        if entry is None:
            raise ValidationError(f"no workspace entry named {name!r}")
        with open(os.path.join(self.path, entry["file"])) as fh:
            return json.load(fh)

    def load(self, name: str):
        return from_json(self.load_raw(name))

    def names(self):
        return sorted(self.manifest["entries"])
