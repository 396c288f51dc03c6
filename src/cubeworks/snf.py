"""Smith normal form over the integers, with exact arbitrary-precision
arithmetic throughout.

Two entry points: `smith_normal_form` computes D together with unimodular
R, C such that M = R * D * C (diagonal d1 | d2 | ...), pivoting by minimal
absolute value to control coefficient growth; `invariant_factors_sparse`
is a transform-free fast path that eliminates on a sparse representation
and only densifies what is left.  It pivots first on a unit that is alone
in its column, which makes no fill (the coreduction step of Mrozek &
Batko, "Coreduction homology algorithm", 2009), then takes the shortest
row and pivots on a unit or, failing one, on an entry that divides its
whole row and column.  It can report the columns it pivoted on, which
`chains.homology` uses to delete rows of the next boundary matrix before
eliminating it (the reduction step of Kaczynski, Mrozek & Ślusarek,
"Homology computation by reduction of chain complexes", 1998).
`smith_normal_form` is its fallback for the remainder and its oracle in
the tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass
class SNFResult:
    diag: list          # invariant factors, divisibility-chained, > 0
    D: list             # m x n diagonal matrix
    R: list             # m x m unimodular
    C: list             # n x n unimodular


def smith_normal_form(M) -> SNFResult:
    m = len(M)
    n = len(M[0]) if m else 0
    D = [list(row) for row in M]
    R = _identity(m)
    C = _identity(n)

    # Row ops on D are compensated on R's columns and col ops on C's rows by
    # the inverse elementary operation, keeping M = R * D * C throughout.
    def row_swap(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            for row in R:
                row[i], row[j] = row[j], row[i]

    def row_add(i, j, q):  # row i += q * row j
        Di, Dj = D[i], D[j]
        for t in range(n):
            Di[t] += q * Dj[t]
        for row in R:
            row[j] -= q * row[i]

    def row_negate(i):
        D[i] = [-v for v in D[i]]
        for row in R:
            row[i] = -row[i]

    def col_swap(i, j):
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            C[i], C[j] = C[j], C[i]

    def col_add(i, j, q):  # col i += q * col j
        for row in D:
            row[i] += q * row[j]
        Cj, Ci = C[j], C[i]
        for t in range(n):
            Cj[t] -= q * Ci[t]

    def eliminate(t, rend, cend):
        """Clear row and column t within the window [t:rend, t:cend]."""
        while True:
            best = None
            for i in range(t, rend):
                Di = D[i]
                for j in range(t, cend):
                    v = Di[j]
                    if v and (best is None or abs(v) < best[0]):
                        best = (abs(v), i, j)
            if best is None:
                return False
            row_swap(best[1], t)
            col_swap(best[2], t)
            clean = True
            for i in range(t + 1, rend):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    row_add(i, t, -q)
                    if D[i][t]:
                        clean = False
            for j in range(t + 1, cend):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    col_add(j, t, -q)
                    if D[t][j]:
                        clean = False
            if clean and not any(D[i][t] for i in range(t + 1, rend)):
                if D[t][t] < 0:
                    row_negate(t)
                return True

    limit = min(m, n)
    rank = 0
    for t in range(limit):
        if not eliminate(t, m, n):
            break
        rank += 1

    # enforce the divisibility chain d1 | d2 | ...; each fix works inside a
    # self-contained 2x2 block since the rest of the matrix is diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a != 0:
                col_add(i, i + 1, 1)
                eliminate(i, i + 2, i + 2)
                if D[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True

    diag = [D[i][i] for i in range(rank)]
    return SNFResult(diag, D, R, C)


# -- sparse invariant factors --------------------------------------------------


def invariant_factors_sparse(entries, paired=None):
    """Invariant factors of a sparse integer matrix given as {(i, j): v}.

    Pivots are eliminated on the sparse structure.  A column with a single
    entry, a unit, is pivoted on at once: no other row holds the column, so
    the pivot deletes a row and a column and makes no fill.  A worklist
    holds each column whose entry count has dropped to 1, and is drained
    before every heap pop.  Otherwise the shortest row goes next
    (Markowitz's rule): a heap holds (row length, row), and only the rows a
    pivot modified are pushed again.  The popped row pivots on its unit
    entry in the column with fewest entries; failing a unit, on a divisible
    pivot (see `_divisible_pivot`), whose column is then cleared by exact
    row operations and which splits off the summand |v|.  A row with
    neither is parked.  Since a row can become eligible when only its
    column changes, the parked rows are revisited after each round of the
    heap until a round makes no pivot.  Whatever remains is handed to the
    dense routine, and the split-off summands join its factors in one
    divisibility chain.

    `paired`, if given, is a set that receives the column of every sparse
    pivot; the pivot order does not depend on it.  Each pivot row, as it
    stands when pivoted, is an integer combination of the given rows, is
    zero in the columns of all earlier pivots, and is divisible by its
    pivot v.  Divided by v, these rows vanish on the kernel of the matrix
    and form a unitriangular block on the paired columns, so on a kernel
    vector the paired coordinates are integer functions of the others.
    """
    rows = {}
    cols = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    if paired is None:
        paired = set()
    lone = [j for j, col in cols.items() if len(col) == 1]

    def release(i, row):
        """Take the pivot row i out of the columns of its other entries."""
        for jj in row:
            col = cols[jj]
            col.discard(i)
            if len(col) == 1:
                lone.append(jj)
            elif not col:
                del cols[jj]

    heap = [(len(row), i) for i, row in rows.items()]
    ones = 0
    split = []  # |v| of each non-unit pivot
    while heap:
        heapq.heapify(heap)
        parked = set()
        progress = False
        while True:
            while lone:
                j = lone.pop()
                col = cols.get(j)
                if col is None or len(col) != 1:
                    continue
                (i,) = col
                pivot_row = rows[i]
                if pivot_row[j] not in (1, -1):
                    continue
                del rows[i], cols[j], pivot_row[j]
                release(i, pivot_row)
                paired.add(j)
                ones += 1
                progress = True
            if not heap:
                break
            length, i = heapq.heappop(heap)
            pivot_row = rows.get(i)
            if pivot_row is None or len(pivot_row) != length:
                continue  # deleted, or a newer entry holds its current length
            j = None
            best = 0
            for jj, v in pivot_row.items():
                if v == 1 or v == -1:
                    count = len(cols[jj])
                    if j is None or count < best:
                        j, best = jj, count
                        if count == 1:
                            break
            if j is None:
                j = _divisible_pivot(pivot_row, rows, cols)
                if j is None:
                    parked.add(i)
                    continue
            del rows[i]
            piv = pivot_row.pop(j)
            others = cols.pop(j)
            others.discard(i)
            for i2 in others:
                row2 = rows[i2]
                factor = row2.pop(j) // piv  # exact: the pivot divides its column
                for jj, vv in pivot_row.items():
                    delta = factor * vv
                    old = row2.get(jj)
                    if old is None:
                        row2[jj] = -delta
                        cols[jj].add(i2)
                    elif old != delta:
                        row2[jj] = old - delta
                    else:
                        del row2[jj]
                        cols[jj].discard(i2)
                if row2:
                    heapq.heappush(heap, (len(row2), i2))
                else:
                    del rows[i2]
            release(i, pivot_row)
            paired.add(j)
            if piv == 1 or piv == -1:
                ones += 1
            else:
                split.append(abs(piv))
            progress = True
        heap = [(len(rows[i]), i) for i in parked if i in rows] if progress else []

    rest = []
    if rows:
        row_ids = sorted(rows)
        col_ids = sorted({j for row in rows.values() for j in row})
        col_index = {j: t for t, j in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in row_ids]
        for t, i in enumerate(row_ids):
            for j, v in rows[i].items():
                dense[t][col_index[j]] = v
        rest = smith_normal_form(dense).diag
    if split:
        rest = _divisibility_chain(split + rest)
    return [1] * ones + rest


def _divisible_pivot(row, rows, cols):
    """The column of an entry of `row` that divides every live entry of its
    row and of its column, on the shortest such column, or None.  Only an
    entry of least absolute value can divide the whole row."""
    least = min(abs(v) for v in row.values())
    if any(v % least for v in row.values()):
        return None
    candidates = [j for j, v in row.items() if v == least or v == -least]
    candidates.sort(key=lambda j: len(cols[j]))
    for j in candidates:
        if all(rows[i][j] % least == 0 for i in cols[j]):
            return j
    return None


def _divisibility_chain(values):
    """The invariant factors of diag(values), all positive: adjacent gcd/lcm
    exchanges keep the product and, for each prime, the multiset of
    exponents, and sort those exponents until each value divides the next."""
    d = sorted(values)
    changed = True
    while changed:
        changed = False
        for t in range(len(d) - 1):
            a, b = d[t], d[t + 1]
            if b % a:
                g = gcd(a, b)
                d[t], d[t + 1] = g, a // g * b
                changed = True
    return d
