import random

from skeinrep import intlinalg as il


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_smith_normal_form_random():
    rng = random.Random(11)
    cases = [rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    for A in cases + [[[2, 0], [0, 3]]]:
        m, n = len(A), len(A[0])
        D, U, V = il.smith_normal_form(A)
        assert il.mat_mul(il.mat_mul(U, A), V) == D
        # diagonal, nonnegative, divisibility chain
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        nz = [d for d in diag if d != 0]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # unimodularity via exact inverse
        il.fraction_inverse(U)
        il.fraction_inverse(V)


def test_alternating_normal_form_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 7)
        P = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                P[i][j] = rng.randint(-5, 5)
                P[j][i] = -P[i][j]
        C, pairs, radical = il.alternating_normal_form(P)
        B = il.mat_mul(il.transpose(C), il.mat_mul(P, C))
        expected = [[0] * n for _ in range(n)]
        for i, j, d in pairs:
            assert d > 0
            expected[i][j] = d
            expected[j][i] = -d
        assert B == expected
        assert len(pairs) * 2 + len(radical) == n
        il.fraction_inverse(C)


def test_solve_mod():
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, m, n, -4, 4)
        mod = rng.choice([12, 20, 8])
        x0 = [rng.randrange(mod) for _ in range(n)]
        b = [v % mod for v in il.mat_vec(A, x0)]
        x = il.solve_mod(A, b, mod)
        assert x is not None
        assert all(v % mod == bv for v, bv in zip(il.mat_vec(A, x), b))
    # an inconsistent system
    assert il.solve_mod([[2]], [1], 12) is None
