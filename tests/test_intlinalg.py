import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from skeinrep import intlinalg as il


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def residues(A, x, mod):
    return [sum(a * b for a, b in zip(row, x)) % mod for row in A]


def test_alternating_normal_form_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 7)
        P = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                P[i][j] = rng.randint(-5, 5)
                P[j][i] = -P[i][j]
        C, C_inv, pairs, radical = il.alternating_normal_form(P)
        B = il.mat_mul(il.transpose(C), il.mat_mul(P, C))
        expected = [[0] * n for _ in range(n)]
        for i, j, d in pairs:
            assert d > 0
            expected[i][j] = d
            expected[j][i] = -d
        assert B == expected
        assert len(pairs) * 2 + len(radical) == n
        assert il.mat_mul(C, C_inv) == il.identity(n)


def test_solve_mod():
    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(rng, m, n, -9, 9)
        mod = rng.choice([12, 20, 28, 36, 8, 1])
        b = residues(A, [rng.randrange(mod) for _ in range(n)], mod)
        x = il.solve_mod(A, b, mod)
        assert x is not None
        assert all(0 <= v < mod for v in x)
        assert residues(A, x, mod) == b


def test_solve_mod_inconsistent_exactly_when_brute_force_finds_nothing():
    rng = random.Random(8)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = rand_matrix(rng, m, n)
        mod = rng.choice([2, 4, 6, 8, 9, 12])
        b = [rng.randrange(mod) for _ in range(m)]
        solvable = any(residues(A, list(x), mod) == b
                       for x in itertools.product(range(mod), repeat=n))
        x = il.solve_mod(A, b, mod)
        assert (x is not None) == solvable
        if x is not None:
            assert residues(A, x, mod) == b
    assert il.solve_mod([[2]], [1], 12) is None


def test_solve_mod_entries_stay_bounded():
    # over Z, min-pivot Smith reduction of this matrix grows multipliers
    # past 4,300 digits
    A = [[-9, 3, 7, -5, 7, 8], [-3, 4, -8, 6, 2, 9], [8, -3, 7, 4, 6, 2],
         [4, 2, -9, 8, 8, 1], [5, -9, -2, -4, 8, 9]]
    b = residues(A, [1, 2, 3, 4, 5, 6], 12)
    start = time.perf_counter()
    x = il.solve_mod(A, b, 12)
    assert time.perf_counter() - start < 0.5
    assert residues(A, x, 12) == b


# ---- rank over F_p ----

def rank_mod_reference(A, p):
    """Gauss-Jordan elimination over F_p on Python ints."""
    rows = [[a % p for a in row] for row in A]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [7, 2147483629])
def test_rank_mod_matches_python_elimination(p):
    # residues up to p - 1 < 2^31, so the large prime's products come close
    # to 2^62 and an int64 overflow would show
    rng = random.Random(p)
    for _ in range(40):
        m, n, r = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 6)
        X = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(r)]
             for _ in range(m)]
        Y = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        A = [[sum(X[i][t] * Y[t][j] for t in range(r)) % p for j in range(n)]
             for i in range(m)]
        M = np.array(A, dtype=np.int64).reshape(m, n)
        before = M.copy()
        assert il.rank_mod(M, p) == rank_mod_reference(A, p) <= r
        assert np.array_equal(M, before)


def rref_reference(A, p):
    """(pivots, rows) of Gauss-Jordan elimination over F_p on Python ints,
    each pivot row scaled to pivot 1."""
    rows = [[a % p for a in row] for row in A]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


@pytest.mark.parametrize("p", [7, 2147483629])
def test_rref_mod_matches_python_elimination(p):
    rng = random.Random(p + 1)
    for _ in range(40):
        m, n, r = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 6)
        X = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(r)]
             for _ in range(m)]
        Y = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(r)]
        A = [[sum(X[i][t] * Y[t][j] for t in range(r)) % p for j in range(n)]
             for i in range(m)]
        M = np.array(A, dtype=np.int64).reshape(m, n)
        before = M.copy()
        pivots, rows = il.rref_mod(M, p)
        want_pivots, want_rows = rref_reference(A, p)
        assert pivots == want_pivots
        assert rows.shape == (len(pivots), n) and rows.tolist() == want_rows
        assert np.array_equal(M, before)


@pytest.mark.parametrize("p", [101, 2147483629])
def test_rational_reconstruction_lifts_every_small_fraction(p):
    bound = math.isqrt((p - 1) // 2)
    rng = random.Random(p)
    fractions = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(300)]
    fractions += [Fraction(0), Fraction(bound), Fraction(-bound), Fraction(1, bound),
                  Fraction(-1, bound)]
    fractions = [f for f in fractions if abs(f.numerator) <= bound and f.denominator <= bound]
    a = np.array([f.numerator * pow(f.denominator, -1, p) % p for f in fractions],
                 dtype=np.int64).reshape(-1, 1)
    num, den = il.rational_reconstruction(a, p)
    assert [Fraction(int(x), int(y)) for x, y in zip(num[:, 0], den[:, 0])] == fractions
    assert (den > 0).all()


def test_rational_reconstruction_refuses_a_residue_of_no_small_fraction():
    p = 101  # bound 7: 1/2 lifts, but 8 and 1/8 do not
    assert il.rational_reconstruction(np.array([51]), p)[1].tolist() == [2]
    for a in (8, pow(8, -1, p)):
        assert il.rational_reconstruction(np.array([1, a]), p) is None
    empty = il.rational_reconstruction(np.zeros((0, 3), dtype=np.int64), p)
    assert empty[0].shape == empty[1].shape == (0, 3)


def test_int64_arrays_only_where_they_fit():
    assert il.as_ints([[1, 2]], (1, 2)).dtype == np.int64
    big = il.as_ints([[2 ** 63, 1]], (1, 2))
    assert big.dtype == object and big.tolist() == [[2 ** 63, 1]]
    small = np.array([3], dtype=np.int64)
    assert il.exact_ints(small, il.INT64_MAX) is small
    assert il.exact_ints(small, il.INT64_MAX + 1).dtype == object
