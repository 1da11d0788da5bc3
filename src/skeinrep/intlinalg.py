"""Exact integer linear algebra helpers.

The lattice helpers work on plain lists of Python ints: their sizes are tiny
(at most a few dozen rows of the balanced lattice), so clarity beats
vectorization.  `solve_mod` works on residues mod its modulus throughout, so
no entry grows.

The array routines serve representation-sized matrices (hundreds or
thousands of rows) and the array form of cyclotomic elements.  `rref_mod`
(and `rank_mod`, the length of its pivots) row-reduces over F_p as int64
arrays, with p < 2^31 so that a product of two residues stays below 2^62;
`rational_reconstruction` lifts residues mod p back to small fractions by
the extended Euclidean algorithm, one array step for all of them.  Integer
arrays are int64 only where a bound proves that no value or partial sum
overflows (`exact_ints`), and object arrays of Python ints otherwise, on
the same code; numpy raises rather than wraps when a Python int does not
fit an int64 (`as_ints`), and nothing is a float.
"""

from __future__ import annotations

import math

import numpy as np


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transpose(A):
    return [list(row) for row in zip(*A)]


def alternating_normal_form(P):
    """Congruence-reduce an antisymmetric integer matrix.

    Returns (C, C_inv, pairs, radical) with C unimodular and C_inv its
    inverse such that, for B = C^T P C, pairs is a list of (i, j, d) meaning
    B[i][j] = d > 0 (and B[j][i] = -d) with all other entries in rows/cols
    i, j zero, and radical lists the indices of identically-zero rows of B.
    Columns of C are the new basis expressed in the old one.
    """
    n = len(P)
    B = [list(row) for row in P]
    C = identity(n)
    C_inv = identity(n)

    def col_op(i, j, q):  # col_i += q * col_j, symmetric row op
        for r in range(n):
            B[r][i] += q * B[r][j]
        for r in range(n):
            B[i][r] += q * B[j][r]
        for r in range(n):
            C[r][i] += q * C[r][j]
        C_inv[j] = [a - q * b for a, b in zip(C_inv[j], C_inv[i])]

    def swap(i, j):
        for r in range(n):
            B[r][i], B[r][j] = B[r][j], B[r][i]
        B[i], B[j] = B[j], B[i]
        for r in range(n):
            C[r][i], C[r][j] = C[r][j], C[r][i]
        C_inv[i], C_inv[j] = C_inv[j], C_inv[i]

    pairs = []
    t = 0
    while True:
        best = None
        for i in range(t, n):
            for j in range(i + 1, n):
                if B[i][j] != 0 and (best is None or abs(B[i][j]) < abs(best[2])):
                    best = (i, j, B[i][j])
        if best is None:
            break
        i0, j0, _ = best
        swap(t, i0)
        swap(t + 1, j0 if j0 != t else i0)
        if B[t][t + 1] < 0:
            swap(t, t + 1)
        reduced = False
        while not reduced:
            reduced = True
            d = B[t][t + 1]
            for k in range(t + 2, n):
                if B[t][k] != 0:
                    q = B[t][k] // d
                    col_op(k, t + 1, -q)
                    if B[t][k] != 0:  # remainder became a smaller pivot
                        swap(t + 1, k)
                        if B[t][t + 1] < 0:
                            swap(t, t + 1)
                        reduced = False
                        break
                if B[t + 1][k] != 0:
                    q = B[t + 1][k] // d
                    col_op(k, t, q)
                    if B[t + 1][k] != 0:
                        swap(t, k)
                        if B[t][t + 1] < 0:
                            swap(t, t + 1)
                        reduced = False
                        break
        pairs.append((t, t + 1, B[t][t + 1]))
        t += 2
    radical = list(range(t, n))
    return C, C_inv, pairs, radical


def solve_mod(A, b, modulus):
    """A solution x of A x = b (mod modulus), entries in [0, modulus), or None.

    A is an integer matrix (rows = constraints), b an integer vector.  The
    augmented matrix [A | b] is reduced mod modulus and diagonalized over
    Z/modulus by Euclidean row and column operations on the smallest nonzero
    residue; V keeps the column operations, so x = V y for the diagonal
    solution y.
    """
    m, n = len(A), len(A[0])
    M = [[a % modulus for a in row] + [c % modulus] for row, c in zip(A, b, strict=True)]
    V = identity(n)
    for t in range(min(m, n)):
        while True:
            pivot = min(((M[i][j], i, j) for i in range(t, m) for j in range(t, n)
                         if M[i][j]), default=None)
            if pivot is None:
                break
            d, i0, j0 = pivot
            M[t], M[i0] = M[i0], M[t]
            for row in (*M, *V):
                row[t], row[j0] = row[j0], row[t]
            for i in range(t + 1, m):
                q = M[i][t] // d
                M[i] = [(a - q * p) % modulus for a, p in zip(M[i], M[t])]
            for j in range(t + 1, n):
                q = M[t][j] // d
                for row in (*M, *V):
                    row[j] = (row[j] - q * row[t]) % modulus
            # remainders below or right of the pivot are smaller pivots
            if not any(M[i][t] for i in range(t + 1, m)) and not any(M[t][t + 1:n]):
                break
    y = [0] * n
    for i, row in enumerate(M):
        d, c = (row[i] if i < n else 0), row[n]
        g = math.gcd(d, modulus)  # g = modulus when d = 0
        if c % g:
            return None
        if i < n:
            y[i] = c // g * pow(d // g, -1, modulus // g) % (modulus // g)
    return [sum(v * yj for v, yj in zip(row, y)) % modulus for row in V]


# An int64 array is used only where every value and partial sum is proven to
# stay within this bound; otherwise the same code runs on Python ints.
INT64_MAX = 2 ** 63 - 1


def top(values) -> int:
    """max |value|, and at least 1."""
    return int(np.abs(values).max(initial=1))


def exact_ints(values, bound: int):
    """values as int64 while bound holds every value and partial sum made
    from them, else as an object array of Python ints."""
    return values if values.dtype == object or bound <= INT64_MAX else values.astype(object)


def as_ints(rows, shape):
    """Integer rows as an int64 array of the given shape, or as an object
    array of Python ints when one of them does not fit an int64."""
    try:
        return np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(shape)


def _row_reduce(M, p: int, above: bool):
    """(pivots, R): M row-reduced over F_p to echelon form, its rank rows
    R, and reduced (zero above each pivot too) when above holds.

    One column at a time: the first row at or below the current rank with
    a nonzero entry there becomes the pivot row, scaled to pivot 1, and is
    subtracted from the other rows (those below it only, unless above)
    that are nonzero in that column, on the columns from the pivot on (the
    pivot row is zero to its left).  Every product is of two residues, so
    below 2^62.  M is not modified."""
    M = np.array(M, dtype=np.int64)
    rank, pivots = 0, []
    for col in range(M.shape[1]):
        rows = M[:, col].nonzero()[0]
        below = rows[rows >= rank]
        if not len(below):
            continue
        piv = below[0]
        if piv != rank:
            M[[rank, piv]] = M[[piv, rank]]
        M[rank, col:] = pivot_row = M[rank, col:] * pow(int(M[rank, col]), -1, p) % p
        # the row swapped to piv is zero here, and every other row kept its place
        others = rows[rows != piv] if above else below[1:]
        if len(others):
            M[others, col:] = (M[others, col:] - M[others, col, None] * pivot_row) % p
        pivots.append(col)
        rank += 1
        if rank == M.shape[0]:
            break
    return pivots, M[:rank]


def rref_mod(M, p: int):
    """(pivots, R) for an int64 array M with entries in [0, p), p < 2^31:
    R is the reduced row echelon form of M over F_p, its rank rows, and
    pivots the list of its pivot columns in order (Gauss-Jordan
    elimination)."""
    return _row_reduce(M, p, above=True)


def rank_mod(M, p: int) -> int:
    """Rank over F_p of an int64 array with entries in [0, p), p < 2^31, by
    reduction to echelon form alone."""
    return len(_row_reduce(M, p, above=False)[0])


def rational_reconstruction(a, p: int):
    """(num, den) for an int64 array a of residues in [0, p): int64 arrays
    of a's shape with num = a den (mod p), |num| <= B and 0 < den <= B, B =
    isqrt((p - 1) / 2), so that 2 B^2 < p and the fraction is unique; None
    when some residue has no such fraction.

    The extended Euclidean algorithm on (p, a), run on all residues at once
    and stopped per residue at the first remainder r <= B: with its
    cofactor t, a t = r (mod p), so num, den = r sign(t), |t| when |t| <= B
    and gcd(r, t) = 1 (Wang's rule; von zur Gathen and Gerhard, Modern
    Computer Algebra, section 5.10).  Each cofactor is at most p divided by
    the remainder before it, so nothing leaves the int64 range.
    """
    bound = math.isqrt((p - 1) // 2)
    r0, r1 = np.full(a.shape, p, dtype=np.int64), np.array(a, dtype=np.int64)
    t0, t1 = np.zeros(a.shape, dtype=np.int64), np.ones(a.shape, dtype=np.int64)
    while True:
        active = r1 > bound
        if not active.any():
            break
        q = np.where(active, r0 // np.where(active, r1, 1), 0)
        r0, r1 = np.where(active, r1, r0), np.where(active, r0 - q * r1, r1)
        t0, t1 = np.where(active, t1, t0), np.where(active, t0 - q * t1, t1)
    if np.any((np.abs(t1) > bound) | (np.gcd(r1, t1) != 1)):
        return None
    return np.sign(t1) * r1, np.abs(t1)
