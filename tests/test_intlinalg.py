import itertools
import random
import time

from skeinrep import intlinalg as il


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def residues(A, x, mod):
    return [v % mod for v in il.mat_vec(A, x)]


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
