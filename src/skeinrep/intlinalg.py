"""Exact integer and rational linear algebra helpers.

Everything here works on plain lists of Python ints / Fractions; sizes are
tiny (at most a few dozen rows), so clarity beats vectorization.
"""

from __future__ import annotations

import math
from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][t] * v[t] for t in range(len(v))) for i in range(len(A))]


def transpose(A):
    return [list(row) for row in zip(*A)]


def smith_normal_form(A):
    """Return (D, U, V) with D = U A V diagonal, U and V unimodular."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = identity(m)
    V = identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            D[r][i] -= q * D[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        # find minimal nonzero entry in D[t:, t:]
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        t += 1

    # divisibility chain: diag(a, b) -> diag(g, ab/g) with g = sa + tb, by
    # [[s, t], [-b/g, a/g]] on rows i, j and [[1, -tb/g], [1, sa/g]] on columns
    for i in range(t):
        for j in range(i + 1, t):
            a, b = D[i][i], D[j][j]
            if b % a == 0:
                continue
            g, s, tt = xgcd(a, b)
            for M in (D, U):
                M[i], M[j] = ([s * x + tt * y for x, y in zip(M[i], M[j])],
                              [(a * y - b * x) // g for x, y in zip(M[i], M[j])])
            for M in (D, V):
                for row in M:
                    x, y = row[i], row[j]
                    row[i], row[j] = x + y, (s * a * y - tt * b * x) // g
    for i in range(t):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return D, U, V


def alternating_normal_form(P):
    """Congruence-reduce an antisymmetric integer matrix.

    Returns (C, pairs, radical) with C unimodular such that, for B = C^T P C,
    pairs is a list of (i, j, d) meaning B[i][j] = d > 0 (and B[j][i] = -d)
    with all other entries in rows/cols i, j zero, and radical lists the
    indices of identically-zero rows of B.  Columns of C are the new basis
    expressed in the old one.
    """
    n = len(P)
    B = [list(row) for row in P]
    C = identity(n)

    def col_op(i, j, q):  # col_i += q * col_j, symmetric row op
        for r in range(n):
            B[r][i] += q * B[r][j]
        for r in range(n):
            B[i][r] += q * B[j][r]
        for r in range(n):
            C[r][i] += q * C[r][j]

    def swap(i, j):
        for r in range(n):
            B[r][i], B[r][j] = B[r][j], B[r][i]
        B[i], B[j] = B[j], B[i]
        for r in range(n):
            C[r][i], C[r][j] = C[r][j], C[r][i]

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
    return C, pairs, radical


def fraction_inverse(B):
    """Exact inverse of an integer matrix, as Fractions."""
    n = len(B)
    M = [[Fraction(B[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix not invertible")
        M[col], M[piv] = M[piv], M[col]
        f = M[col][col]
        M[col] = [x / f for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                g = M[r][col]
                M[r] = [a - g * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def solve_mod(A, b, modulus):
    """Smallest-entry solution x of A x = b (mod modulus), or None.

    A is an integer matrix (rows = constraints), b an integer vector.
    """
    D, U, V = smith_normal_form(A)
    m, n = len(A), len(A[0])
    c = mat_vec(U, b)
    y = [0] * n
    for i in range(min(m, n)):
        d = D[i][i]
        if d == 0:
            if c[i] % modulus != 0:
                return None
            continue
        g = math.gcd(d, modulus)
        if c[i] % g != 0:
            return None
        # solve d * y = c[i] mod modulus
        d_, m_, c_ = d // g, modulus // g, c[i] // g
        y[i] = (c_ * pow(d_, -1, m_)) % m_ if m_ > 1 else 0
    for i in range(min(m, n), m):
        if c[i] % modulus != 0:
            return None
    x = mat_vec(V, y)
    return [xi % modulus for xi in x]


def xgcd(a, b):
    """(g, s, t) with g = s*a + t*b a greatest common divisor of a and b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0
