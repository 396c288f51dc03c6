"""The James splitting, a second route for the homology of `james`.

For a connected pointed X, ΣJ_L X ≃ ⋁_(k=1..L) ΣX^(∧k) (James, "Reduced
product spaces", Ann. Math. 1955), so

    H̃_d(J_L X) ≅ ⊕_(k=1..L) H̃_d(X^(∧k)).

Each smash power comes from H̃(X) by the reduced Künneth formula over Z:

    H̃_n(A ∧ B) ≅ ⊕_(i+j=n) H̃_i(A) ⊗ H̃_j(B)  ⊕  ⊕_(i+j=n-1) Tor(H̃_i(A), H̃_j(B)).

A finitely generated abelian group is held as (rank, orders of cyclic
summands); Z/m ⊗ Z/n and Tor(Z/m, Z/n) are both Z/gcd(m, n), and Tor
vanishes on free summands.
"""

from __future__ import annotations

from math import gcd


def _tensor(a, b):
    (ra, ta), (rb, tb) = a, b
    return ra * rb, [*ta * rb, *tb * ra, *(gcd(m, n) for m in ta for n in tb)]


def _tor(a, b):
    return 0, [gcd(m, n) for m in a[1] for n in b[1]]


def _add(a, b):
    return a[0] + b[0], [*a[1], *b[1]]


def _smash(A, B, top):
    """H̃(A ∧ B) in degrees below top, from H̃(A) and H̃(B) in those degrees."""
    out = [(0, [])] * top
    for i, ga in enumerate(A):
        for j, gb in enumerate(B):
            if i + j < top:
                out[i + j] = _add(out[i + j], _tensor(ga, gb))
            if i + j + 1 < top:
                out[i + j + 1] = _add(out[i + j + 1], _tor(ga, gb))
    return out


def _prime_powers(m):
    out, p = [], 2
    while m > 1:
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def invariant_factors(orders) -> tuple:
    """The invariant factors d_1 | d_2 | ... > 1 of ⊕ Z/m over the orders m,
    ascending, as the homology report lists torsion."""
    by_prime = {}
    for m in orders:
        for p, q in _prime_powers(m):
            by_prime.setdefault(p, []).append(q)
    count = max((len(qs) for qs in by_prime.values()), default=0)
    factors = [1] * count
    for qs in by_prime.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return tuple(sorted(factors))


def james_splitting_groups(groups, L: int, top: int) -> list:
    """[(betti, torsion)] of J_L X in degrees 0..top-1, from the homology of
    X given the same way (degree 0 first).  X must be connected."""
    assert groups[0] == (1, ()), "the splitting needs a connected X"
    reduced = [(0, [])] + [(b, list(t)) for b, t in groups[1:top]]
    reduced += [(0, [])] * (top - len(reduced))
    total = [(0, [])] * top
    power = reduced
    for _ in range(L):
        total = [_add(g, h) for g, h in zip(total, power)]
        power = _smash(power, reduced, top)
    total[0] = _add(total[0], (1, []))
    return [(b, invariant_factors(t)) for b, t in total]
