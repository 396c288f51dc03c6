"""The base cube category.

Objects are the combinatorial cubes, indexed by their dimension.  A morphism
from the n-cube to the m-cube is stored in normal form: one slot per output
coordinate, holding either a constant 0/1 or a distinct input variable, with
variable indices strictly increasing across the slots.  These normal forms
are in bijection with the maps [0,1]^n -> [0,1]^m generated by coordinate
projections and face inclusions, which is how the whole category is
presented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import GuardError, ValidationError

# Slot encodings: ('c', eps) for a constant, ('v', i) for the i-th input
# variable (1-indexed, matching coordinate notation).
CONST0 = ("c", 0)
CONST1 = ("c", 1)


@dataclass(frozen=True)
class CubeMap:
    """Normal form of a morphism source_dim -> target_dim in the cube category."""

    source_dim: int
    target_dim: int
    slots: tuple

    def __post_init__(self):
        if self.source_dim < 0 or self.target_dim < 0:
            raise ValidationError("dimensions must be non-negative")
        if len(self.slots) != self.target_dim:
            raise ValidationError("slot count must equal target dimension")
        last = 0
        for slot in self.slots:
            kind, val = slot
            if kind == "c":
                if val not in (0, 1):
                    raise ValidationError(f"bad constant {val!r}")
            elif kind == "v":
                if not 1 <= val <= self.source_dim:
                    raise ValidationError(f"variable {val} out of range")
                if val <= last:
                    raise ValidationError("variables must strictly increase")
                last = val
            else:
                raise ValidationError(f"bad slot {slot!r}")

    @property
    def used_vars(self) -> tuple:
        return tuple(v for k, v in self.slots if k == "v")

    @property
    def dropped_vars(self) -> tuple:
        used = set(self.used_vars)
        return tuple(i for i in range(1, self.source_dim + 1) if i not in used)

    def __repr__(self):
        body = ",".join(str(v) if k == "c" else f"x{v}" for k, v in self.slots)
        return f"CubeMap({self.source_dim}->{self.target_dim}: [{body}])"


def identity(n: int) -> CubeMap:
    return CubeMap(n, n, tuple(("v", i) for i in range(1, n + 1)))


def face(n: int, k: int, eps: int) -> CubeMap:
    """Face inclusion (n-1)-cube -> n-cube inserting eps at coordinate k."""
    if not 1 <= k <= n:
        raise ValidationError(f"face index {k} out of range for dimension {n}")
    slots = [("v", i) for i in range(1, k)]
    slots.append(("c", eps))
    slots.extend(("v", i) for i in range(k, n))
    return CubeMap(n - 1, n, tuple(slots))


def projection(n: int, k: int) -> CubeMap:
    """Coordinate projection n-cube -> (n-1)-cube dropping coordinate k."""
    if not 1 <= k <= n:
        raise ValidationError(f"projection index {k} out of range for dimension {n}")
    slots = tuple(("v", i) for i in range(1, n + 1) if i != k)
    return CubeMap(n, n - 1, slots)


# The three distinguished low-dimensional generators.
def j0() -> CubeMap:
    return face(1, 1, 0)


def j1() -> CubeMap:
    return face(1, 1, 1)


def r() -> CubeMap:
    return projection(1, 1)


def compose(g: CubeMap, f: CubeMap) -> CubeMap:
    """Normal form of g after f.  Substitution keeps variables in order, so no
    renumbering pass is needed."""
    if f.target_dim != g.source_dim:
        raise ValidationError(
            f"cannot compose: {f.target_dim} != {g.source_dim}"
        )
    slots = tuple(slot if slot[0] == "c" else f.slots[slot[1] - 1] for slot in g.slots)
    return CubeMap(f.source_dim, g.target_dim, slots)


def hom_count(n: int, m: int) -> int:
    """Number of maps n-cube -> m-cube: sum_k C(n,k) C(m,k) 2^(m-k)."""
    from math import comb

    return sum(comb(n, k) * comb(m, k) * 2 ** (m - k) for k in range(min(n, m) + 1))


def enumerate_hom(n: int, m: int, guard: int = 10**6):
    """All normal forms n-cube -> m-cube, without duplicates."""
    total = hom_count(n, m)
    if total > guard:
        raise GuardError(f"hom set of size {total} exceeds guard {guard}")
    maps = []
    for k in range(min(n, m) + 1):
        for vars_used in combinations(range(1, n + 1), k):
            for slots_used in combinations(range(m), k):
                free = [j for j in range(m) if j not in slots_used]
                for consts in product((0, 1), repeat=m - k):
                    slots = [None] * m
                    for pos, v in zip(slots_used, vars_used):
                        slots[pos] = ("v", v)
                    for pos, eps in zip(free, consts):
                        slots[pos] = ("c", eps)
                    maps.append(CubeMap(n, m, tuple(slots)))
    return maps


def generator_closure(max_dim: int):
    """Close identities, faces and projections between dimensions <= max_dim
    under composition.  Test oracle for the normal-form enumeration."""
    gens = [identity(n) for n in range(max_dim + 1)]
    for n in range(1, max_dim + 1):
        for k in range(1, n + 1):
            gens.append(projection(n, k))
            for eps in (0, 1):
                gens.append(face(n, k, eps))
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for f in frontier:
            for g in closure:
                if g.source_dim == f.target_dim:
                    h = compose(g, f)
                    if h not in closure and h not in new:
                        new.add(h)
                if f.source_dim == g.target_dim:
                    h = compose(f, g)
                    if h not in closure and h not in new:
                        new.add(h)
        closure |= new
        frontier = new
    return closure
