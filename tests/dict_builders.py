"""The face-table loops of `standard_cube`, `tensor`, `triangulate` and
`james` as they were before the builders emitted rows: each stores every
face under its own ``(cell, *index)`` key, in the order the builder makes
them.  They are the oracle for the rows and the derived ``faces`` of the
row builders, item for item and in order.  The cell budgets, the guards and
the collector pause are left out."""

from itertools import chain, combinations, product, repeat

from cubeworks.cubes import CubeMap
from cubeworks.cubical import CellRef, CubicalSet, _pair_id, nd
from cubeworks.errors import ValidationError
from cubeworks.james import _count_cells, _letter_token, word_token
from cubeworks.presented import divide
from cubeworks.simplicial import SimplexRef, SimplicialSet
from cubeworks.triangulate import _land, chain_table, landing_table
from action_oracle import delta_face, simplicial_act


def face_type_maps(k: int, n: int):
    """All composites of face inclusions k-cube -> n-cube (every variable used)."""
    maps = []
    for slots_used in combinations(range(n), k):
        free = [j for j in range(n) if j not in slots_used]
        for consts in product((0, 1), repeat=n - k):
            slots = [None] * n
            for pos, v in zip(slots_used, range(1, k + 1)):
                slots[pos] = ("v", v)
            for pos, eps in zip(free, consts):
                slots[pos] = ("c", eps)
            maps.append(CubeMap(k, n, tuple(slots)))
    return maps


def _slot_id(m: CubeMap) -> str:
    return "".join("*" if k == "v" else str(v) for k, v in m.slots) or "pt"


def standard_cube_by_keys(n):
    """The n-cube with a cell per face-type map, named by its slots."""
    cells = {_slot_id(m): k for k in range(n + 1) for m in face_type_maps(k, n)}
    faces = {}
    for cid in cells:
        free = [p for p, slot in enumerate(cid) if slot == "*"]
        for i, p in enumerate(free, 1):
            for eps in "01":
                faces[(cid, i, int(eps))] = nd(cid[:p] + eps + cid[p + 1 :])
    return CubicalSet(cells, faces, name=f"cube{n}")


def tensor_by_keys(X, Y):
    refs = {x: {y: nd(_pair_id(x, y)) for y in Y.cells} for x in X.cells}
    y_faces = [
        (y, dy, tuple(zip(CubicalSet.face_indices(dy), Y.faces_of(y))))
        for y, dy in Y.cells.items()
    ]
    cells = {}
    faces = {}
    for x, dx in X.cells.items():
        x_faces = tuple(zip(CubicalSet.face_indices(dx), X.faces_of(x)))
        row = refs[x]
        for y, dy, yf in y_faces:
            cid = row[y].base
            cells[cid] = dx + dy
            for (k, eps), ref in x_faces:
                pair = refs[ref.base][y]
                if ref.degens:
                    pair = CellRef(ref.degens, pair.base)
                faces[(cid, k, eps)] = pair
            for (k, eps), ref in yf:
                pair = row[ref.base]
                if ref.degens:
                    pair = CellRef(tuple(i + dx for i in ref.degens), pair.base)
                faces[(cid, dx + k, eps)] = pair
    return CubicalSet(cells, faces, name=f"{X.name}(x){Y.name}")


def triangulate_by_keys(X):
    refs = {}  # cell -> one SimplexRef per simplex, in spanning-chain order
    cells = {}
    for c, d in X.cells.items():
        refs[c] = row = []
        for suffix, k, _ in chain_table(d)[0]:
            sid = c + suffix
            cells[sid] = k
            row.append(SimplexRef((), sid))

    X_cells, X_faces = X.cells, X.faces
    memo = {}

    def resolve(cell, d, chain):
        out = memo.get((cell, chain))
        if out is None:
            i = d - (~(chain[0] ^ chain[-1]) & (1 << d) - 1).bit_length()
            ref = X_faces[(cell, i + 1, chain[0] >> (d - 1 - i) & 1)]
            e, pos, word = _land(d, i, ref.degens, chain)
            if pos is None:
                out = resolve(ref.base, e, word)
            else:
                out = SimplexRef(word, refs[ref.base][pos].base) if word else refs[ref.base][pos]
            memo[cell, chain] = out
        return out

    faces = {}
    for c, d in X.cells.items():
        if d == 0:
            continue
        row = refs[c]
        heads, tails = [None] * len(row), [None] * len(row)
        for k in range(1, d + 1):
            for eps, ends in ((0, tails), (1, heads)):
                ref = X_faces[(c, k, eps)]
                landed = refs[ref.base]
                for p, pos, word in landing_table(d, k, eps, ref.degens):
                    if pos is None:
                        ends[p] = resolve(ref.base, X_cells[ref.base], word)
                    else:
                        ends[p] = SimplexRef(word, landed[pos].base) if word else landed[pos]
        for ref, (_, k, inner), head, tail in zip(row, chain_table(d)[0], heads, tails):
            sid = ref.base
            faces[(sid, 0)] = head
            for j, n in enumerate(inner, 1):
                faces[(sid, j)] = row[n]
            faces[(sid, k)] = tail
    return SimplicialSet(cells, faces, name=f"tri({X.name})")


def james_by_keys(X, base, bound, max_dim=None):
    if isinstance(X, CubicalSet):
        X = triangulate_by_keys(X)
        base = f"{base}#"
    if max_dim is None:
        max_dim = bound
    _, refs = _count_cells(X, base, bound, max_dim)
    letters = [[None] + rs for rs in refs]
    masks = [
        [(1 << d) - 1] + [sum(1 << t for t in r.degens) for r in rs] for d, rs in enumerate(refs)
    ]
    code = [{r: chr(c) for c, r in enumerate(ls) if c} for ls in letters]

    cells = {}
    words, ids, nd_of = [], [], []
    for d in range(max_dim + 1):
        mask_d = masks[d]
        max_gap = max((d - m.bit_count() for m in mask_d[1:]), default=0)
        alphabet = [(chr(c), m) for c, m in enumerate(mask_d) if c]
        found = []

        def rec(word, inter, budget):
            if not inter:
                found.append(word)
            if budget == 0:
                return
            limit = (budget - 1) * max_gap
            for ch, m in alphabet:
                new_inter = inter & m
                if new_inter.bit_count() <= limit:
                    rec(word + ch, new_inter, budget - 1)

        rec("", mask_d[0], bound)
        render = [None] + [_letter_token(r) + "," for r in letters[d][1:]]
        wids = ["J[" + w.translate(render)[:-1] + "]" for w in found]
        cells.update(dict.fromkeys(wids, d))
        words.append(found)
        ids.append(wids)
        nd_of.append(dict(zip(found, map(SimplexRef, repeat(()), wids))) if d < max_dim else {})

    faces = {}
    unit = word_token(())
    for d in range(1, max_dim + 1):
        if not words[d]:
            continue
        e = d - 1
        mask_e = masks[e]
        lower = nd_of[e]
        empty = SimplexRef(tuple(range(e)), unit)

        def degenerate_face(fw, wid):
            if not fw:
                return empty
            common = mask_e[0]
            for ch in fw:
                common &= mask_e[ord(ch)]
            T = tuple(t for t in range(e) if common >> t & 1)
            hit = None
            if T:
                low = e - len(T)
                divided = (divide(letters[e][ord(ch)], T, e, 0) for ch in fw)
                hit = nd_of[low].get("".join(map(code[low].__getitem__, divided)))
            if hit is None:
                raise ValidationError(f"face of {wid} left the truncation window")
            return SimplexRef(T, hit.base)

        columns = []
        for j in range(d + 1):
            f = delta_face(d, j)
            table = [None]
            for r in letters[d][1:]:
                img = simplicial_act(X, r, f)
                table.append(None if img.base == base else code[e][img])
            face_words = [w.translate(table) for w in words[d]]
            column = list(map(lower.get, face_words))
            for i, ref in enumerate(column):
                if ref is None:
                    column[i] = degenerate_face(face_words[i], ids[d][i])
            columns.append(column)
        keys = [(wid, j) for wid in ids[d] for j in range(d + 1)]
        faces.update(zip(keys, chain.from_iterable(zip(*columns))))
    return SimplicialSet(cells, faces, name=f"J({X.name})@{bound}")
