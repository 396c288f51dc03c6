"""JSON interchange (schema tag "cubeworks/1") and the named workspace.

Degeneracy words and face coordinates are 0-indexed on the wire; the
in-memory cubical structures are 1-indexed to match coordinate notation.
Emission is canonical (sorted keys and cell lists), so parse o emit is the
identity on canonical form.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .chains import HomologyReport
from .cubical import CubicalSet
from .enriched import Attachment, EnrichedPresentation
from .errors import ValidationError, bulk
from .presented import CellRef, PresentedSet, nd
from .simplicial import SimplicialSet

SCHEMA = "cubeworks/1"


def presented_to_json(X: PresentedSet) -> dict:
    """A cubical or simplicial set on the wire: the first face index and the
    degeneracy directions are shifted to start at 0."""
    base, fields = X.index_base, X.face_fields
    faces = []
    for c, d in sorted(X.cells.items()):
        for i, ref in zip(X.face_indices(d), X.rows[c]):
            entry = {"cell": c, "degens": [s - base for s in ref.degens], "base": ref.base}
            entry.update(zip(fields, (i[0] - base, *i[1:])))
            faces.append(entry)
    return {
        "schema": SCHEMA,
        "kind": X.kind,
        "name": X.name,
        "cells": {c: d for c, d in sorted(X.cells.items())},
        "faces": faces,
    }


def _write_presented(X: PresentedSet, fh):
    """Write ``json.dump(presented_to_json(X), fh, indent=2, sort_keys=True)``
    byte for byte without building the face objects, for an X that passes
    `check_shape`.  Each dimension has a template per face position, keys
    sorted and index rendered, that a face fills with its base, its cell
    (each id quoted once, by the encoder of `json.dump`) and its degeneracy
    word (each rendered once); each cell is written as one string."""
    base = X.index_base
    names = ("base", "cell", "degens", *X.face_fields)
    order = sorted(range(len(names)), key=names.__getitem__)
    face = ",\n    {\n%s\n    }" % ",\n".join(f"      {_quote(names[i])}: %s" for i in order)
    quoted = {c: _quote(c) for c in X.cells}
    ordered = sorted(X.cells.items())
    fh.write("{\n  \"cells\": {")
    for n, (c, d) in enumerate(ordered):
        fh.write(f"{',' if n else ''}\n    {quoted[c]}: {d}")
    fh.write("\n  },\n  \"faces\": [" if ordered else "},\n  \"faces\": [")
    rows = X.rows
    words = {(): "[]"}  # each degeneracy word rendered once
    for w in {r.degens for row in rows.values() for r in row} - {()}:
        words[w] = "[\n%s\n      ]" % ",\n".join(f"        {s - base}" for s in w)
    pick = itemgetter(*order)
    templates = {  # dimension -> a template per face position, %s in key order
        d: [face % pick(("%s", "%s", "%s", i[0] - base, *i[1:])) for i in X.face_indices(d)]
        for d in set(X.cells.values())
    }
    fill = ((templates[d], quoted[c], rows[c]) for c, d in ordered if rows[c])
    for n, (ts, cell, row) in enumerate(fill):
        entries = "".join([t % (quoted[r.base], cell, words[r.degens]) for t, r in zip(ts, row)])
        fh.write(entries if n else entries[1:])  # the first entry has no comma
    fh.write("\n  ]" if any(rows.values()) else "]")
    fh.write(
        f",\n  \"kind\": {_quote(X.kind)},\n  \"name\": {_quote(X.name)},"
        f"\n  \"schema\": {_quote(SCHEMA)}\n}}"
    )


def _index(x) -> bool:
    """A dimension, face index or degeneracy direction on the wire."""
    return type(x) is int and x >= 0


def presented_from_json(data: dict, cls):
    """Parse a cubical or simplicial set.  The types are checked here (cells
    map ids to non-negative integers; each face is an object with the
    expected fields and integer indices), each face fills its slot of a row
    as it is parsed (`PresentedSet.fill_rows`), then `PresentedSet.validate`
    checks the shape of the rows and the face identities."""
    what = cls.kind.replace("_", " ")
    if data.get("schema") != SCHEMA or data.get("kind") != cls.kind:
        raise ValidationError(f"not a cubeworks/1 {what}")
    cells, entries, name = data.get("cells"), data.get("faces"), data.get("name", "")
    if not isinstance(cells, dict) or not all(map(_index, cells.values())):
        raise ValidationError(f"{what} cells must map cell ids to non-negative integers")
    if not isinstance(entries, list) or not isinstance(name, str):
        raise ValidationError(f"{what} needs a list of faces and a string name")
    if sum(cells.values()) > len(entries):  # a d-cell has at least d faces
        raise ValidationError(f"{what} has {len(entries)} faces, too few for its cells")
    base, fields = cls.index_base, cls.face_fields
    refs = {c: nd(c) for c in cells}  # one non-degenerate ref per base cell

    def items():
        for f in entries:
            if type(f) is not dict:
                raise ValidationError(f"malformed {what} face {repr(f):.80}")
            cell, ref, degens = f.get("cell"), f.get("base"), f.get("degens")
            index = [f.get(k) for k in fields]
            if not (
                type(cell) is str
                and type(ref) is str
                and type(degens) is list
                and all(map(_index, index))
                and (not degens or all(map(_index, degens)))
            ):
                raise ValidationError(f"malformed {what} face {repr(f):.80}")
            index[0] += base
            if degens:
                yield (cell, *index), CellRef(tuple([s + base for s in degens]), ref)
            else:
                yield (cell, *index), refs.get(ref) or nd(ref)

    X = cls(cells, name=name, rows=cls.fill_rows(cells, items()))
    X.validate()
    return X


def _letter_to_json(letter) -> dict:
    if letter[0] == "e":
        return {"kind": "edge", "source": letter[1], "target": letter[2], "cell": letter[3]}
    return {"kind": "att", "index": letter[1], "cell": letter[2]}


def _fields(data, what: str, **types) -> list:
    """The named fields of a wire object, each required and of its type."""
    if type(data) is not dict or not all(type(data.get(k)) is t for k, t in types.items()):
        raise ValidationError(f"malformed {what} {repr(data):.80}")
    return [data[k] for k in types]


def _letter_from_json(data) -> tuple:
    kind = data.get("kind") if type(data) is dict else None
    if kind == "edge":
        return ("e", *_fields(data, "letter", source=str, target=str, cell=str))
    if kind == "att":
        return ("a", *_fields(data, "letter", index=int, cell=str))
    raise ValidationError(f"malformed letter {repr(data):.80}")


def _letters(data, what: str) -> list:
    if type(data) is not list:
        raise ValidationError(f"malformed {what} {repr(data):.80}")
    return [_letter_from_json(l) for l in data]


def presentation_to_json(P: EnrichedPresentation) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "presentation",
        "name": P.name,
        "objects": list(P.objects),
        "edges": [
            {"source": s, "target": t, "space": presented_to_json(space)}
            for (s, t), space in sorted(P.edges.items())
        ],
        "attachments": [
            {
                "space": presented_to_json(att.space),
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
    """Parse a presentation, checking the shape of every field; the cubical
    spaces get the shape check of `presented_from_json`, and the constructor
    checks the presentation itself."""
    if data.get("schema") != SCHEMA or data.get("kind") != "presentation":
        raise ValidationError("not a cubeworks/1 presentation")
    objects, edges, attachments = _fields(
        data, "presentation", objects=list, edges=list, attachments=list
    )
    name = data.get("name", "")
    if not all(type(x) is str for x in (*objects, name)):
        raise ValidationError("presentation objects and name must be strings")
    spaces = {}
    for e in edges:
        source, target, space = _fields(e, "edge", source=str, target=str, space=dict)
        if (source, target) in spaces:
            raise ValidationError(f"edge set for {(source, target)} given twice")
        spaces[(source, target)] = presented_from_json(space, CubicalSet)
    atts = []
    for a in attachments:
        space, a_cells, source, target, words = _fields(
            a, "attachment", space=dict, a_cells=list, source=str, target=str, boundary=dict
        )
        if not all(type(c) is str for c in a_cells):
            raise ValidationError(f"malformed attachment cells {repr(a_cells):.80}")
        words = {c: _letters(w, "word") for c, w in words.items()}
        atts.append(
            Attachment(presented_from_json(space, CubicalSet), a_cells, source, target, words)
        )
    pairs = data.get("cancel_pairs", [])
    if type(pairs) is not list or not all(type(p) is list and len(p) == 2 for p in pairs):
        raise ValidationError(f"cancel_pairs must be a list of letter pairs, not {repr(pairs):.80}")
    return EnrichedPresentation(
        objects,
        spaces,
        name,
        atts,
        {(_letter_from_json(a), _letter_from_json(b)) for a, b in pairs},
        _letters(data.get("zero_weight", []), "zero_weight"),
    )


def report_to_json(rep: HomologyReport) -> dict:
    return {"schema": SCHEMA, "kind": "homology_report", "groups": rep.as_dict()}


def report_from_json(data: dict) -> HomologyReport:
    """Parse a report: non-negative int degree and betti, torsion ints above 1."""
    if data.get("schema") != SCHEMA or data.get("kind") != "homology_report":
        raise ValidationError("not a cubeworks/1 homology report")
    entries = []
    for g in _fields(data, "homology report", groups=list)[0]:
        d, b, t = _fields(g, "homology group", degree=int, betti=int, torsion=list)
        if d < 0 or b < 0 or not all(type(k) is int and k > 1 for k in t):
            raise ValidationError(f"malformed homology group {repr(g):.80}")
        entries.append((d, b, tuple(t)))
    return HomologyReport(tuple(entries))


_EMITTERS = {
    PresentedSet: presented_to_json,
    EnrichedPresentation: presentation_to_json,
    HomologyReport: report_to_json,
}

_PARSERS = {
    "cubical_set": partial(presented_from_json, cls=CubicalSet),
    "simplicial_set": partial(presented_from_json, cls=SimplicialSet),
    "presentation": presentation_from_json,
    "homology_report": report_from_json,
}


def to_json(obj) -> dict:
    for cls, emit in _EMITTERS.items():
        if isinstance(obj, cls):
            return emit(obj)
    if isinstance(obj, dict):  # raw report payloads
        return obj
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def from_json(data: dict):
    if not isinstance(data, dict):
        raise ValidationError(f"artifact is {type(data).__name__}, not a JSON object")
    kind = data.get("kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        return data
    return parser(data)


def _dump_atomic(data, path: str):
    """Stream the canonical JSON of data, a JSON value or a presented set,
    into a new file beside path, then rename it onto path, so that a reader
    sees the old file or the whole new one."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            if isinstance(data, PresentedSet):
                _write_presented(data, fh)
            else:
                json.dump(data, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def _check_name(name: str):
    """Artifact names become file names inside the workspace directory, so
    they may not contain path separators or start with a dot, and may not
    shadow the manifest."""
    if not _NAME.fullmatch(name) or name == "manifest":
        raise ValidationError(f"bad artifact name {name!r}")


def _read_json(path: str):
    """Parse one workspace file; a missing, unreadable or corrupt file is bad
    input named by its path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


class Workspace:
    """A directory of JSON artifacts with a manifest; names are unique."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.manifest_path = os.path.join(path, "manifest.json")
        if os.path.exists(self.manifest_path):
            self.manifest = _read_json(self.manifest_path)
            if not isinstance(self.manifest, dict) or not isinstance(
                self.manifest.get("entries"), dict
            ):
                raise ValidationError(f"{self.manifest_path} is not a workspace manifest")
        else:
            self.manifest = {"schema": SCHEMA, "entries": {}}

    def _flush(self):
        _dump_atomic(self.manifest, self.manifest_path)

    def save(self, name: str, obj) -> str:
        _check_name(name)
        if isinstance(obj, PresentedSet):
            obj.check_shape()  # the writer reads every row as a full one
            data, kind = obj, obj.kind
        else:
            data = to_json(obj)
            kind = data.get("kind", "raw")
        fname = f"{name}.json"
        _dump_atomic(data, os.path.join(self.path, fname))
        self.manifest["entries"][name] = {"kind": kind, "file": fname}
        self._flush()
        return fname

    def load_raw(self, name: str) -> dict:
        _check_name(name)
        if name not in self.manifest["entries"]:
            raise ValidationError(f"no workspace entry named {name!r}")
        return _read_json(os.path.join(self.path, f"{name}.json"))

    @bulk
    def load(self, name: str):
        return from_json(self.load_raw(name))

    def names(self):
        return sorted(self.manifest["entries"])
