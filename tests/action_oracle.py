"""The general presheaf action, kept as the second route for `face_of` and
`act` of cubical and simplicial sets.

The library reads the face of a degenerate element off the face-degeneracy
identities, and its `act` is built from those faces.  The route here is the
one the library used before: it acts by an arbitrary morphism of the site
through normal forms, reads only the stored face rows, and never calls
`face_of` or `act`.

- Cubes: a `CubeMap` f acting on s_W(x) is rewritten through cube-category
  composition as p o delta (a projection after a face-type map), the
  face-type part is peeled off the stored faces one constant slot at a
  time, and the projections are composed back into one degeneracy word.
- Simplices: a monotone map (a value tuple) acting on s_D(x) is composed
  with the collapse surjection of D and factored as an injection after a
  surjection; the injection is peeled off the stored faces one missed
  vertex at a time, and the surjections are composed into one collapse set.
"""

from cubeworks.cubes import CubeMap, compose, face
from cubeworks.cubical import CubicalSet
from cubeworks.errors import ValidationError
from cubeworks.presented import CellRef, nd

# -- the cube category ------------------------------------------------------------


def projection_dropping(n: int, dropped) -> CubeMap:
    """The composite projection out of the n-cube dropping the given coordinate set."""
    dropped = set(dropped)
    slots = tuple(("v", i) for i in range(1, n + 1) if i not in dropped)
    return CubeMap(n, n - len(dropped), slots)


def is_face_type(f: CubeMap) -> bool:
    """True when every input variable is used (a composite of face inclusions)."""
    return len(f.used_vars) == f.source_dim


def split_projection_face(f: CubeMap):
    """Factor f as (face-type map) o (projection dropping unused variables)."""
    used = f.used_vars
    position = {v: i + 1 for i, v in enumerate(used)}
    proj = projection_dropping(f.source_dim, f.dropped_vars)
    delta = CubeMap(
        len(used),
        f.target_dim,
        tuple(s if s[0] == "c" else ("v", position[s[1]]) for s in f.slots),
    )
    return delta, proj


def cubical_act(X, ref: CellRef, f: CubeMap) -> CellRef:
    """The presheaf action of f on an element of dimension f.target_dim."""
    if X.dim_of(ref) != f.target_dim:
        raise ValidationError("element dimension does not match map target")
    p_w = projection_dropping(f.target_dim, ref.degens)
    g = compose(p_w, f)
    delta, proj = split_projection_face(g)
    z = _apply_face_part(X, ref.base, delta)
    p_z = projection_dropping(proj.target_dim, z.degens)
    total = compose(p_z, proj)
    return CellRef(total.dropped_vars, z.base)


def _apply_face_part(X, cell: str, delta: CubeMap) -> CellRef:
    """Action of a face-type map (every variable used) on a non-degenerate cell."""
    if is_face_type(delta) and delta.source_dim == delta.target_dim:
        return nd(cell)
    for pos, slot in enumerate(delta.slots):
        if slot[0] == "c":
            k, eps = pos + 1, slot[1]
            break
    rest = CubeMap(
        delta.source_dim,
        delta.target_dim - 1,
        delta.slots[: k - 1] + delta.slots[k:],
    )
    step = X.rows[cell][2 * k - 2 + eps]
    return cubical_act(X, step, rest)


# -- monotone maps ----------------------------------------------------------------


def mono_compose(outer, inner):
    """outer o inner as value tuples."""
    return tuple(outer[v] for v in inner)


def delta_face(n, j):
    """The injection [n-1] -> [n] missing j."""
    return tuple(v for v in range(n + 1) if v != j)


def surj_from_collapse(D, n):
    """The surjection [n] ->> [n - |D|] collapsing at the positions in D
    (0-indexed: s(i) = s(i+1) exactly for i in D)."""
    vals = [0]
    for i in range(n):
        vals.append(vals[-1] if i in D else vals[-1] + 1)
    return tuple(vals)


def collapse_of_surj(s):
    return tuple(i for i in range(len(s) - 1) if s[i] == s[i + 1])


def epi_mono_factor(f):
    """Factor a monotone map as injection o surjection; returns (mono, epi)."""
    image = sorted(set(f))
    rank = {v: i for i, v in enumerate(image)}
    epi = tuple(rank[v] for v in f)
    return tuple(image), epi


def simplicial_act(X, ref: CellRef, f) -> CellRef:
    """Presheaf action of the monotone map f (a value tuple into
    [dim_of(ref)]) on the element ref."""
    n = X.dim_of(ref)
    if max(f, default=0) > n or len(f) == 0:
        raise ValidationError("monotone map does not match element dimension")
    s = surj_from_collapse(ref.degens, n)
    g = mono_compose(s, f)
    mono, epi = epi_mono_factor(g)
    z = _apply_injection(X, ref.base, mono)
    total = mono_compose(surj_from_collapse(z.degens, max(epi)), epi)
    return CellRef(collapse_of_surj(total), z.base)


def _apply_injection(X, cell: str, mono) -> CellRef:
    """Action of an injective monotone map [k] -> [m] on a non-degenerate
    m-simplex, peeling elementary faces through the stored data."""
    m = X.cells[cell]
    if len(mono) == m + 1:
        return nd(cell)
    missed = max(v for v in range(m + 1) if v not in set(mono))
    step = X.rows[cell][missed]
    rest = tuple(v if v < missed else v - 1 for v in mono)
    return simplicial_act(X, step, rest)


# -- either kind ------------------------------------------------------------------


def act(X, ref: CellRef, f) -> CellRef:
    """The presheaf action of f on ref, by the route of X's kind."""
    if isinstance(X, CubicalSet):
        return cubical_act(X, ref, f)
    return simplicial_act(X, ref, f)


def face_map(X, n: int, *i):
    """The face morphism into dimension n at face index i, for X's kind."""
    if isinstance(X, CubicalSet):
        return face(n, *i)
    return delta_face(n, *i)


def face_of(X, ref: CellRef, *i) -> CellRef:
    """The face i of an element through the general action."""
    return act(X, ref, face_map(X, X.dim_of(ref), *i))
