"""The exact and float backends against each other, float rank, the
multiplicities and the block-form joint eigenspaces against dense LAPACK, the
omega-exponent commutant count against field-arithmetic orbit propagation,
the exact rank bound modulo a prime against elimination, the exact image and
operator sums on integer arrays against CycloScalar arithmetic, and the
certified modular kernel against Gauss-Jordan elimination."""

import copy
import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinrep import intlinalg, kernels, scalars, verify
from skeinrep.cfalgebra import CFAlgebra, SignReversalClass
from skeinrep.cyclotomic import CycloField
from skeinrep.errors import NotDiagonalizable
from skeinrep.kernels import (eigen_analysis, eigenspace_kernel, pants_spaces,
                              sample_generic_weights, total_kernel)
from skeinrep.qtrace import LoopSpec, pushoff_pair, sweep_check, threading_check
from skeinrep.representation import CFRep, WeightSystem, build_rep
from skeinrep.triangulation import standard_library
from skeinrep.verify import (exact_genus2_weights, exact_sphere_weights,
                             exact_torus_weights)

from conftest import dense_bases, diagonals, exact_operator, random_balanced_monomial

RANK_TOL = 1e-8


def exact_weights(name, alg):
    return {"torus1": exact_torus_weights, "sphere2": exact_sphere_weights,
            "genus2_sep": exact_genus2_weights}[name](alg)


def to_complex(M):
    return np.array([[complex(z) for z in row] for row in M])


@pytest.mark.parametrize("name", ["torus1", "sphere2", "genus2_sep"])
def test_exact_and_float_agree_on_roots_of_unity(name):
    T = standard_library(name)
    alg = CFAlgebra(T, 3)
    W = exact_weights(name, alg)
    Wf = WeightSystem(T, 3, u=[complex(ui) for ui in W.u])
    rep = build_rep(T, 3, W, algebra=alg)
    repf = build_rep(T, 3, Wf, algebra=alg)
    assert rep.dim == repf.dim
    assert total_kernel(rep).dim == total_kernel(repf, RANK_TOL).dim
    assert rep.commutant_dim() == repf.commutant_dim()
    Q = alg.offdiag_Q(0)
    assert np.abs(to_complex(rep.apply(Q)) - repf.apply(Q)).max() < 1e-9
    if T.designated_edge is not None:
        for side in (1, 2):
            loop = LoopSpec.edge_parallel(T.designated_edge, side)
            s = threading_check(rep, loop)["scalar"]
            sf = threading_check(repf, loop)["scalar"]
            assert abs(complex(s) - sf) < 1e-9


# ---- float rank and block-structured eigenspaces ----

FLOAT = scalars.FloatArithmetic()


def dense_rank(M, tol):
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0


def dense_clusters(M, tol):
    vals = np.linalg.eigvals(M)
    order = np.lexsort((vals.imag.round(8), vals.real.round(8)))
    groups = []
    for z in vals[order]:
        if groups and abs(z - groups[-1][0]) < tol:
            groups[-1][1] += 1
        else:
            groups.append([z, 1])
    return [(complex(z), m) for z, m in groups]


def block_diagonal(blocks, rng):
    """The blocks on the diagonal, rows and columns then permuted alike."""
    n = sum(len(B) for B in blocks)
    M = np.zeros((n, n), dtype=complex)
    at = 0
    for B in blocks:
        M[at:at + len(B), at:at + len(B)] = B
        at += len(B)
    p = rng.permutation(n)
    return M[np.ix_(p, p)]


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def diagonalizable(rng, eigenvalues):
    S = random_complex(rng, len(eigenvalues), len(eigenvalues)) + 3 * np.eye(len(eigenvalues))
    return S @ np.diag(eigenvalues) @ np.linalg.inv(S)


@pytest.mark.parametrize("seed", range(5))
def test_block_rank_matches_dense(seed):
    rng = np.random.default_rng(seed)
    # rank-deficient blocks A B with inner dimension below the block size
    blocks = [random_complex(rng, s, r) @ random_complex(rng, r, s)
              for s, r in ((1, 1), (3, 1), (4, 4), (5, 2), (5, 3), (2, 1))]
    M = block_diagonal(blocks, rng)
    assert len(scalars._pattern_blocks(M)) == 5  # sizes 1, 2, 3, 4 and 5
    for tol in (1e-9, 1e-6):
        assert FLOAT.rank(M, tol) == dense_rank(M, tol) == 12


def on_cosets(blocks):
    """The square blocks, all of one size k, on the cosets c + len(blocks) Z
    of Z_n, n = k len(blocks): M[c + len(blocks) a, c + len(blocks) b] =
    blocks[c][a, b]."""
    step, k = len(blocks), len(blocks[0])
    M = np.zeros((step * k, step * k), dtype=complex)
    for c, B in enumerate(blocks):
        M[c::step, c::step] = B
    return M


def nonzero_diagonals(M):
    """M as an operator of its nonzero cyclic diagonals alone, so that its
    translations are those of M's pattern."""
    op = diagonals(M)
    keep = op.scales.any(axis=1)
    return scalars.Operator(op.perms[keep], op.scales[keep])


def uneven_blocks(rng):
    """Blocks of sizes 1, 3, 3, 4 and 6 with eigenvalues drawn from three,
    permuted together: eigenspaces of unequal dimensions, and one coset, as
    the translations of the 17 indices generate Z_17."""
    spectrum = [1.0, 2j, -1.5 + 0.5j]
    blocks = [diagonalizable(rng, rng.choice(spectrum, size=s)) for s in (1, 3, 3, 4, 6)]
    M = block_diagonal(blocks, rng)
    assert len(scalars._pattern_blocks(M)) == 4
    return M, [tuple(range(len(M)))]


def uneven_cosets(rng):
    """Blocks on the cosets of 3 Z_18, each with the eigenvalues 1, 2j and
    -1.5 + 0.5j three, two and one times: eigenspaces of dimensions 9, 6
    and 3, each with columns on all three cosets."""
    spectrum = [1.0] * 3 + [2j] * 2 + [-1.5 + 0.5j]
    M = on_cosets([diagonalizable(rng, rng.permutation(spectrum)) for _ in range(3)])
    return M, [tuple(range(c, 18, 3)) for c in range(3)]


def eigenspaces(spaces, M):
    """(lam, dimension, dense basis) of each of the joint spaces of the
    family [M], lam read off the basis D as tr(D^H M D) / dimension, in the
    order of dense_clusters."""
    out = [(np.trace(D.conj().T @ M @ D) / spaces.dim, spaces.dim, D)
           for D in np.moveaxis(dense_bases(spaces), -1, 0)]
    return sorted(out, key=lambda t: (t[0].real.round(8), t[0].imag.round(8)))


def assert_eigenspaces_match_dense(M, cosets):
    """The joint spaces of the family [M] are its eigenspaces in block
    form on the cosets of its translations when they all have one
    dimension.  Otherwise there are none, and eigenspace_kernel takes each
    eigenspace as the dense kernel of M - lam."""
    spaces = scalars.joint_spaces([nonzero_diagonals(M)], 1e-6, 1e-9)
    want = dense_clusters(M, 1e-6)
    assert sum(m for _, m in eigen_analysis(M, "float")) == len(M)
    if len({m for _, m in want}) > 1:
        assert spaces is None
        for lam, m in want:
            shifted = M - lam * np.eye(len(M))
            K = eigenspace_kernel(spaces, nonzero_diagonals(shifted), 1e-9)
            assert K.dim == m == len(M) - dense_rank(shifted, 1e-9)
            assert K.equals(kernels.matrix_kernel(shifted, 1e-9), 1e-9)
        return
    got = eigenspaces(spaces, M)
    assert [m for _, m, _ in got] == [m for _, m in want]  # diagonalizable
    # the clustered restrictions give the dense kernel dimension of every shift
    assert [m for _, m, _ in got] == [
        len(M) - dense_rank(M - lam * np.eye(len(M)), 1e-9) for lam, _, _ in got]
    # each basis is orthonormal and spans eigenvectors, with its columns on
    # single cosets
    for lam, m, D in got:
        assert np.abs(D.conj().T @ D - np.eye(m)).max() < 1e-9
        assert np.abs(M @ D - lam * D).max() < 1e-6
    assert sorted(tuple(sorted(c)) for c in spaces.comps) == cosets
    assert all(abs(a - b) < 1e-9 for (a, _, _), (b, _) in zip(got, want))


@pytest.mark.parametrize("seed", range(5))
def test_block_eigen_candidates_match_dense(seed):
    assert_eigenspaces_match_dense(*uneven_blocks(np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", range(3))
def test_eigenspaces_of_unequal_dimensions_on_cosets_match_dense(seed):
    assert_eigenspaces_match_dense(*uneven_cosets(np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", range(3))
def test_eigenspaces_of_equal_dimensions_on_cosets_match_dense(seed):
    rng = np.random.default_rng(seed)
    spectrum = [1.0, 2j, -1.5 + 0.5j] * 2
    M = on_cosets([diagonalizable(rng, rng.permutation(spectrum)) for _ in range(3)])
    assert_eigenspaces_match_dense(M, [tuple(range(c, 18, 3)) for c in range(3)])


def assert_a_refused_split_leaves_no_spaces(M, kernel_dim):
    """The identity splits off the one whole space, but the joint spaces of
    the identity and then M, whose split is refused, are none, and
    ker (M - 1) is found as the dense kernel."""
    ops = [scalars.Operator(np.arange(18)[None], np.ones((1, 18), dtype=complex)),
           nonzero_diagonals(M)]
    first = scalars.joint_spaces(ops[:1], 1e-6, 1e-9)
    assert (first.count, first.dim) == (1, 18)
    spaces = scalars.joint_spaces(ops, 1e-6, 1e-9)
    assert spaces is None
    shifted = M - np.eye(18)
    with mock.patch.object(kernels, "matrix_kernel", wraps=kernels.matrix_kernel) as mk:
        K = eigenspace_kernel(spaces, nonzero_diagonals(shifted), 1e-8)
    assert mk.call_count == 1  # the dense fallback, one kernel
    assert K.dim == kernel_dim and K.equals(kernels.matrix_kernel(shifted, 1e-8), 1e-8)


def test_a_split_that_is_not_uniform_stops_at_the_level_before():
    # blocks on the cosets of 3 Z_18 with the eigenvalues 1, 2j and
    # -1.5 + 0.5j three, two and one times on two cosets but twice each on
    # the third: the eigenspace of 1 would meet the cosets in 3, 3 and 2
    # columns, which no JointSpaces holds
    rng = np.random.default_rng(0)
    uneven, even = [1.0] * 3 + [2j] * 2 + [-1.5 + 0.5j], [1.0, 2j, -1.5 + 0.5j] * 2
    M = on_cosets([diagonalizable(rng, rng.permutation(s)) for s in (uneven, uneven, even)])
    assert_a_refused_split_leaves_no_spaces(M, 8)


def test_a_split_into_unequal_dimensions_stops_at_the_level_before():
    # blocks on the cosets of 3 Z_18 whose eigenspaces meet every coset
    # evenly, in 3, 2 and 1 columns: spaces of dimensions 9, 6 and 3, which
    # one JointSpaces does not hold
    M, _ = uneven_cosets(np.random.default_rng(0))
    assert scalars.joint_spaces([nonzero_diagonals(M)], 1e-6, 1e-9) is None
    assert_a_refused_split_leaves_no_spaces(M, 9)


def test_block_rank_cuts_at_the_global_largest_singular_value():
    rng = np.random.default_rng(7)
    big = 1e6 * random_complex(rng, 3, 3)
    small = 1e-3 * np.linalg.qr(random_complex(rng, 4, 4))[0]  # singular values 1e-3
    M = block_diagonal([big, small], rng)
    assert len(scalars._pattern_blocks(M)) == 2
    # a cut per block would keep the small block: 1e-3 > 1e-8 max(1e-3, 1)
    assert FLOAT.rank(M, 1e-8) == dense_rank(M, 1e-8) == 3


def test_block_eigen_analysis_rejects_a_jordan_block():
    rng = np.random.default_rng(3)
    jordan = np.array([[2, 1], [0, 2]], dtype=complex)
    M = block_diagonal([jordan, diagonalizable(rng, [2, -1, 1j]), np.diag([3, 4])], rng)
    assert len(scalars._pattern_blocks(M)) > 1
    with pytest.raises(NotDiagonalizable):
        eigen_analysis(M, "float")


@pytest.mark.parametrize("seed", range(3))
def test_multiplicities_are_the_eigenspace_dimensions(seed):
    # values-only counts against the column counts of eigenspaces' bases,
    # with a Jordan block whose geometric multiplicity falls short
    rng = np.random.default_rng(seed)
    jordan = np.array([[2, 1], [0, 2]], dtype=complex)
    blocks = [jordan, diagonalizable(rng, [2, -1, 1j]), np.diag([3, 3, 4]).astype(complex),
              diagonalizable(rng, rng.choice([1.0, 2j], size=4))]
    M = block_diagonal(blocks, rng)
    got = scalars.multiplicities(M, 1e-6, 1e-9)
    want = dense_clusters(M, 1e-6)
    assert [(m, geo) for _, m, geo in got] == [
        (m, len(M) - dense_rank(M - lam * np.eye(len(M)), 1e-9)) for lam, m in want]
    assert all(abs(a - b) < 1e-9 for (a, _, _), (b, _) in zip(got, want))
    assert any(geo < m for _, m, geo in got)


def float_genus2_operators():
    """The joint spaces of a float genus-2 representation at N=3, with
    mu(Q_v) and D = rho[K1] - rho[K2]."""
    T = standard_library("genus2_sep")
    rep = build_rep(T, 3, sample_generic_weights(T, 3, random.Random(0)))
    tr1, tr2 = pushoff_pair(rep.algebra, T.designated_edge)
    return (pants_spaces(rep, T.designated_edge, 1e-8),
            [rep.operator(rep.algebra.offdiag_Q(0)), rep.operator(tr1 - tr2)])


def block_diagonal_operators():
    """The joint spaces of an operator with blocks on the cosets of 3 Z_18,
    with the cyclic diagonals of a dense and of a sparse random matrix."""
    rng = np.random.default_rng(5)
    spectrum = [1.0, 2j, -1.5 + 0.5j] * 2
    M = on_cosets([diagonalizable(rng, rng.permutation(spectrum)) for _ in range(3)])
    X = random_complex(rng, len(M), len(M))
    return (scalars.joint_spaces([nonzero_diagonals(M)], 1e-6, 1e-9),
            [diagonals(X), diagonals(X * (abs(X) > 1.5))])


@pytest.mark.parametrize("case", [float_genus2_operators, block_diagonal_operators])
def test_block_image_matches_the_dense_image(case):
    spaces, ops = case()
    U = dense_bases(spaces)
    for op in ops:
        bound = 4 * np.finfo(float).eps * np.abs(op.scales).max(axis=1).sum()
        want = FLOAT.image(op, U.reshape(spaces.n, -1)).reshape(U.shape)
        slices = [slice(None)] + spaces.chunks()
        for js, got in zip(slices, spaces.images(op, slices)):
            assert np.abs(got - want[..., js]).max() <= bound


def test_exact_eigen_analysis_is_not_available():
    alg = CFAlgebra(standard_library("torus1"), 3)
    rep = build_rep(alg.T, 3, exact_torus_weights(alg), algebra=alg)
    M = rep.apply(alg.offdiag_Q(0))
    with pytest.raises(ValueError, match="not available"):
        eigen_analysis(M, "exact")
    # nor in any mode but "float" itself
    with pytest.raises(ValueError):
        eigen_analysis(np.eye(3, dtype=complex), "bogus")
    # nor joint eigenspaces, and no pants family is built for them
    T = standard_library("genus2_sep")
    alg2 = CFAlgebra(T, 3)
    rep2 = build_rep(T, 3, exact_genus2_weights(alg2), algebra=alg2)
    assert pants_spaces(rep2, T.designated_edge, 1e-9) is None
    assert alg2.pants_families == {} and rep2.spectra == {}


def test_dense_fallbacks_give_the_dense_answer():
    def clusters(M):
        return [(lam, m) for lam, m, _ in scalars.multiplicities(M, 1e-6, 1e-9)]

    rng = np.random.default_rng(11)
    connected = random_complex(rng, 6, 2) @ random_complex(rng, 2, 6)
    assert FLOAT.rank(connected, 1e-9) == dense_rank(connected, 1e-9) == 2
    assert clusters(connected) == dense_clusters(connected, 1e-6)
    zero = np.zeros((5, 5), dtype=complex)
    assert FLOAT.rank(zero, 1e-9) == dense_rank(zero, 1e-9) == 0
    assert clusters(zero) == dense_clusters(zero, 1e-6) == [(0j, 5)]
    empty = np.zeros((0, 0), dtype=complex)
    assert FLOAT.rank(empty, 1e-9) == 0
    assert clusters(empty) == dense_clusters(empty, 1e-6) == []
    wide = np.hstack([connected, np.zeros((6, 3))])
    assert FLOAT.rank(wide, 1e-9) == dense_rank(wide, 1e-9) == 2
    with pytest.raises(np.linalg.LinAlgError):
        clusters(wide)


# ---- commutant ----

def orbit_commutant_dim(rep):
    """The orbit walk over all D^2 positions (i, j) of X, with the
    generators' integer omega-exponents: A_b e_i = omega^(e_i) e_(p(i))
    forces X[p(i), p(j)] = omega^(e_i - e_j) X[i, j] on a commuting X, and
    each orbit whose phases agree carries one free entry.  The reference
    for the shift-subgroup count of CFRep.commutant_dim."""
    gens = [rep.intertwiner_part(b) for b in rep.lattice.basis]
    mod = 4 * rep.N
    D = rep.dim
    phase = [None] * (D * D)
    dim = 0
    for root in range(D * D):
        if phase[root] is not None:
            continue
        phase[root] = 0
        stack = [root]
        consistent = True
        while stack:
            pos = stack.pop()
            i, j = divmod(pos, D)
            for perm, expo in gens:
                npos = perm[i] * D + perm[j]
                val = (phase[pos] + expo[i] - expo[j]) % mod
                if phase[npos] is None:
                    phase[npos] = val
                    stack.append(npos)
                elif phase[npos] != val:
                    consistent = False
        if consistent:
            dim += 1
    return dim


def field_commutant_dim(rep, tol=1e-8):
    """Orbit-phase propagation with the generator scales themselves: each
    generator forces X[p(i), p(j)] = s_i / s_j X[i, j] on a commuting X."""
    gens = [rep.weyl_image(b).terms()[0] for b in rep.lattice.basis]
    D = rep.dim
    seen = [False] * (D * D)
    dim = 0
    for root in range(D * D):
        if seen[root]:
            continue
        phases = {root: rep.ctx.one()}
        stack = [root]
        seen[root] = True
        consistent = True
        while stack:
            pos = stack.pop()
            i, j = divmod(pos, D)
            for perm, scale in gens:
                npos = perm[i] * D + perm[j]
                sj = scale[j]
                inv = 1.0 / sj if isinstance(sj, complex) else sj.inv()
                val = phases[pos] * scale[i] * inv
                if npos in phases:
                    diff = phases[npos] - val
                    if abs(diff) > tol if isinstance(diff, complex) else not diff.is_zero():
                        consistent = False
                else:
                    phases[npos] = val
                    seen[npos] = True
                    stack.append(npos)
        if consistent:
            dim += 1
    return dim


def assert_commutant_matches_references(rep, expected):
    assert rep.commutant_dim() == orbit_commutant_dim(rep) == field_commutant_dim(rep) == expected


def with_basis_prefix(rep, m):
    """A copy of rep generated by the first m balanced-lattice basis vectors."""
    cut = copy.copy(rep)
    cut.lattice = copy.copy(rep.lattice)
    cut.lattice.basis = rep.lattice.basis[:m]
    return cut


@functools.lru_cache(maxsize=None)
def library_rep(name, N):
    """The library triangulation at N with its exact weights, or with
    generic float weights for genus2_float and for genus2_sep at N=5 (whose
    exact field walk over D^2 = 390,625 positions would take minutes)."""
    T = standard_library("genus2_sep" if name == "genus2_float" else name)
    if name == "genus2_float" or (name, N) == ("genus2_sep", 5):
        return build_rep(T, N, sample_generic_weights(T, N, random.Random(101)))
    alg = CFAlgebra(T, N)
    return build_rep(T, N, exact_weights(name, alg), algebra=alg)


@pytest.mark.parametrize("name,N", [("genus2_sep", 3), ("torus1", 5), ("sphere2", 5),
                                    ("genus2_sep", 5)])
def test_commutant_matches_both_references_on_the_library(name, N):
    # the library at N=3 and 5, with test_commutant_matches_field_reference
    assert_commutant_matches_references(library_rep(name, N), 1)


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("name", ["torus1", "sphere2", "genus2_sep", "genus2_float"])
def test_generators_translate_times_an_additive_character(name, N):
    # the structure the shift-subgroup count rests on: A_b e_i = omega^(e(i))
    # e_(i + s), with e(i) - e(0) additive on the index group
    rep = library_rep(name, N)
    digits, radix, strides = rep.digits, rep.radix, rep.strides
    total = (digits[:, None] + digits[None]) % radix @ strides  # total[i, j] = index of i + j
    for b in rep.lattice.basis:
        perm, expo = (np.array(x) for x in rep.intertwiner_part(b))
        assert np.array_equal(perm, total[:, perm[0]])
        chi = (expo - expo[0]) % (4 * N)
        assert np.array_equal(chi[total], (chi[:, None] + chi[None]) % (4 * N))


@pytest.mark.parametrize("name", ["torus1", "sphere2", "genus2_float"])
def test_commutant_matches_field_reference(name):
    assert_commutant_matches_references(library_rep(name, 3), 1)


@pytest.mark.parametrize("name,prefix,expected", [
    ("torus1", 0, 9), ("torus1", 1, 3), ("torus1", 2, 1),
    ("genus2_float", 2, 729), ("genus2_float", 5, 27), ("genus2_float", 8, 1),
])
def test_commutant_of_reducible_generator_sets(name, prefix, expected):
    assert_commutant_matches_references(with_basis_prefix(library_rep(name, 3), prefix),
                                        expected)


@pytest.mark.parametrize("prefix,expected", [(0, 390625), (1, 78125), (2, 15625),
                                             (5, 125), (8, 1)])
def test_commutant_of_genus2_float_cuts_at_N5(prefix, expected):
    assert_commutant_matches_references(with_basis_prefix(library_rep("genus2_sep", 5), prefix),
                                        expected)


def test_commutant_of_exact_genus2_systems_and_a_sign_reversal():
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    reps = [build_rep(alg.T, 3, W, algebra=alg) for W in genus2_systems(alg, 10)]
    rng = random.Random(3)
    while True:
        eps = SignReversalClass(alg.T, [rng.randint(0, 1) for _ in range(alg.n)])
        if any(eps.c) and eps.is_admissible():
            break
    for rep in reps + [reps[0].precompose_sign_reversal(eps),
                       library_rep("torus1", 3).precompose_sign_reversal(
                           SignReversalClass(standard_library("torus1"), (1, 1, 0)))]:
        assert_commutant_matches_references(rep, 1)


# ---- float kernel and dense matrices ----

@pytest.mark.parametrize("rows,cols,rank", [(40, 12, 7), (30, 30, 11), (9, 20, 4),
                                            (50, 6, 6), (25, 10, 0)])
def test_kernel_of_tall_matrices_matches_full_svd(rows, cols, rank):
    rng = np.random.default_rng(rows + cols + rank)
    M = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    u, s, vh = np.linalg.svd(M)
    r = int(np.sum(s > RANK_TOL * max(s[0], 1.0)))
    want = vh.conj().T[:, r:]
    got = FLOAT.kernel(M, RANK_TOL)
    assert got.shape == want.shape == (cols, cols - rank)
    assert np.abs(M @ got).max(initial=0.0) < 1e-9
    assert FLOAT.spans(want, got, RANK_TOL) and FLOAT.spans(got, want, RANK_TOL)


def dense_loop(dim, terms):
    M = np.zeros((dim, dim), dtype=complex)
    for c, (perm, scale) in terms:
        cc = complex(c)
        for i in range(dim):
            M[perm[i], i] += cc * scale[i]
    return M


def test_dense_matches_the_index_loop():
    rng = np.random.default_rng(5)
    dim, ctx = 12, scalars.FloatScalars(3)
    perm_a, perm_b = rng.permutation(dim), rng.permutation(dim)

    def factors():
        return complex(*rng.normal(size=2)), rng.integers(0, 12, (1, dim))

    (ua, ea), (ub, eb), (uc, ec) = factors(), factors(), factors()
    # two terms share a permutation, so their entries add
    groups = [(perm_a, [1.5 - 2j, -3 + 0j], [ua, uc], np.vstack([ea, ec])),
              (perm_b, [0.25j], [ub], eb)]
    terms = [(c, (perm, [u * ctx.omega(int(j)) for j in e]))
             for perm, cs, us, es in groups for c, u, e in zip(cs, us, es)]
    got, want = ctx.dense(ctx.operator(dim, groups)), dense_loop(dim, terms)
    # the same sums in the same order; numpy may round a complex product
    # differently from Python (a fused multiply-add), by a few ulps
    scale = sum(abs(c) * max(map(abs, s)) for c, (_, s) in terms)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * scale
    assert np.array_equal(got != 0, want != 0)


# ---- exact rank bound modulo the field's prime ----

EXACT = scalars.ExactArithmetic()


def dot(us, vs, field):
    """sum u v by CycloScalar products and sums: the reference for the
    array forms of images and operators."""
    out = field.zero()
    for u, v in zip(us, vs):
        out = out + u * v
    return out


@st.composite
def planted_rank_matrices(draw):
    """(field, M, r): an m x n matrix X Y over Q(zeta_L), L in {12, 20},
    with X m x r and Y r x n, so rank M <= r."""
    field = CycloField(draw(st.sampled_from((12, 20))))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    entry = st.one_of(st.lists(coeff, min_size=field.degree, max_size=field.degree)
                      .map(field.from_coeffs), st.just(field.zero()))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    X = [[draw(entry) for _ in range(r)] for _ in range(m)]
    Y = [[draw(entry) for _ in range(n)] for _ in range(r)]
    M = [[dot(X[i], [Y[t][j] for t in range(r)], field) for j in range(n)]
         for i in range(m)]
    return field, M, r


@given(planted_rank_matrices())
def test_rank_bound_is_never_above_the_rank(fMr):
    field, M, r = fMr
    bound, p = EXACT.rank_bound(diagonals(M))
    assert p == field.prime
    assert bound <= EXACT.rank(M) <= r


def test_a_bad_prime_only_lowers_the_bound():
    field = CycloField(12)
    p, one, zero = field.prime, field.one(), field.zero()
    # p vanishes modulo p, and 1/p has no image there; both matrices have rank 2
    vanishing = [[field.from_rational(p), zero], [zero, one]]
    no_image = [[field.from_rational(Fraction(1, p)), zero], [zero, one]]
    assert EXACT.rank(vanishing) == EXACT.rank(no_image) == 2
    assert EXACT.rank_bound(diagonals(vanishing)) == (1, p)
    assert EXACT.rank_bound(diagonals(no_image)) == (0, None)


def test_float_rank_bound_is_trivial():
    assert FLOAT.rank_bound(diagonals(np.eye(3))) == (0, None)


# ---- exact image and operator sums on integer arrays ----

def dense_image(M, basis):
    """M B, each entry a sum of CycloScalar products over a row."""
    field = M[0][0].field
    return [[dot(row, col, field) for row in M] for col in basis]


@pytest.mark.parametrize("case", ["sparse", "all-zero-matrix", "empty-basis",
                                  "big-coefficients"])
def test_exact_image_matches_the_dense_dot_loop(case):
    field = CycloField(12)
    rng = random.Random(3)
    zero = field.zero()
    # coefficients of 2^40 make products past int64: the Python-int path
    size = 2 ** 40 if case == "big-coefficients" else 1

    def entry(density):
        if rng.random() >= density:
            return zero
        return field.from_coeffs([Fraction(size * rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(field.degree)])

    M = [[entry(0.3) for _ in range(7)] for _ in range(6)]
    M[2] = [zero] * 7  # a zero row
    for row in M:
        row[4] = zero  # a zero column
    basis = [[entry(0.5) for _ in range(7)] for _ in range(4)] + [[zero] * 7]
    if case == "all-zero-matrix":
        M = [[zero] * 7 for _ in range(6)]
    if case == "empty-basis":
        basis = []
    # the operator of M is M padded with a zero row to 7 x 7
    op, X = diagonals(M), scalars.Columns(field, *field.pack(basis))
    if case == "big-coefficients":
        G = scalars._multipliers(field, op.scales)
        assert op.scales.dtype == np.int64 and scalars._image_nums(op, G, X.nums).dtype == object
    got = EXACT.image(op, X).elements()
    assert got == dense_image(M + [[zero] * 7], basis)
    assert [len(col) for col in got] == [7] * len(basis)
    assert all(v is zero for col in got for v in col if v.is_zero())


@pytest.mark.parametrize("size", [1, 2 ** 40], ids=["small", "big-coefficients"])
def test_exact_operator_sums_match_the_scalar_reference(size):
    # three terms on two translations, with coefficients and weight factors
    # over several denominators, summed by CycloScalar arithmetic in the
    # reference; the big ones take Python ints
    ctx = scalars.ExactScalars(3)
    field, n = ctx.field, 6
    rng = random.Random(size)

    def element():
        return field.from_coeffs([Fraction(size * rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(field.degree)])

    perm_a, perm_b = np.array(rng.sample(range(n), n)), np.array(rng.sample(range(n), n))
    terms = [(perm, element(), element(), np.array([rng.randrange(12) for _ in range(n)]))
             for perm in (perm_a, perm_b, perm_a)]
    want = {}
    for perm, c, u, e in terms:
        old = want.get(tuple(perm), [field.zero()] * n)
        want[tuple(perm)] = [b + c * (u * ctx.omega(int(j))) for b, j in zip(old, e)]
    (_, c0, u0, e0), (_, c1, u1, e1), (_, c2, u2, e2) = terms
    got = ctx.operator(n, [(perm_a, [c0, c2], [u0, u2], np.stack([e0, e2])),
                           (perm_b, [c1], [u1], e1[None])])
    assert got.terms() == [(list(perm), scale) for perm, scale in want.items()]
    # a term and its negative cancel to no term at all
    assert len(ctx.operator(n, [(perm_a, [c0, -c0], [u0, u0], np.stack([e0, e0]))])) == 0


# ---- certified modular kernel ----

def eliminated(op):
    """The Gauss-Jordan kernel basis of the dense op, as element columns:
    the reference."""
    return EXACT.kernel(EXACT.dense(op)).elements()


def genus2_systems(alg, count):
    """The first count +-1 weight systems of genus2_sep that satisfy the
    vertex relations, as in verify.exact_genus2_weights."""
    T = alg.T
    one, w = alg.scalars.one(), alg.scalars.omega(1)
    two = alg.scalars.from_rational(2)
    tr = pushoff_pair(alg, T.designated_edge)[0]
    out = []
    for signs in itertools.product([1, -1], repeat=T.num_edges):
        if signs.count(-1) % 2 == 0:
            continue
        prefix, tot = 1, 0
        for e in T.fans[0].edges:
            tot += prefix
            prefix *= signs[e]
        if tot or prefix != 1:
            continue
        W = WeightSystem(T, alg.N, u=[w if s < 0 else one for s in signs])
        tau = verify.classical_trace(alg, tr, W)
        if tau != two and tau != -two:
            out.append(W)
        if len(out) == count:
            return out


@pytest.fixture(scope="module")
def genus2_exact_offdiag():
    """mu(Q_v) on ten exact genus2_sep systems at N=3."""
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    return [build_rep(alg.T, 3, W, algebra=alg).operator(alg.offdiag_Q(0))
            for W in genus2_systems(alg, 10)]


def test_modular_kernel_is_the_eliminated_basis_on_genus2(genus2_exact_offdiag):
    for op in genus2_exact_offdiag:
        got = EXACT.certified_kernel(op)
        assert got is not None and len(got.dens) == 27
        assert got.elements() == eliminated(op)


def test_exact_genus2_kernels_eliminate_nothing(genus2_exact_offdiag):
    with mock.patch.object(scalars.ExactArithmetic, "_eliminate",
                           wraps=EXACT._eliminate) as spy:
        dims = [eigenspace_kernel(None, op, 0.0).dim for op in genus2_exact_offdiag]
    assert dims == [27] * 10 and spy.call_count == 0


@pytest.mark.parametrize("name", ["torus1", "sphere2"])
def test_modular_kernel_is_the_eliminated_basis_on_exact_weights(name):
    rep = contract_rep(name, "exact")
    for v in range(rep.T.num_vertices):
        for a in (rep.algebra.offdiag_Q(v), random_element(rep.algebra, random.Random(v))):
            op = rep.operator(a)
            if op:
                assert EXACT.certified_kernel(op).elements() == eliminated(op)


@given(planted_rank_matrices())
def test_modular_kernel_is_the_eliminated_basis_or_none(fMr):
    field, M, _ = fMr
    op = diagonals(M)
    got = EXACT.certified_kernel(op)
    assert got is None or got.elements() == eliminated(op)
    assert eigenspace_kernel(None, op, 0.0).basis.elements() == eliminated(op)


def test_modular_kernel_of_zero_and_full_rank_operators():
    field = CycloField(12)
    zero, one = field.zero(), field.one()
    n = 5
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    # a zero operator has every column free, a full-rank one none
    zero_op = diagonals([[zero] * n for _ in range(n)])
    assert EXACT.certified_kernel(zero_op).elements() == identity == eliminated(zero_op)
    unit = [[field.root_pow(i * j) + (2 if i == j else 0) for j in range(n)] for i in range(n)]
    assert EXACT.rank(unit) == n
    assert EXACT.certified_kernel(diagonals(unit)).elements() == [] == \
        eliminated(diagonals(unit))


def test_lifted_columns_past_int64_take_python_ints():
    # reduced-row entries with coefficients 1/q for 12 primes q near 2^15:
    # their column denominator, the lcm, is past int64
    field = CycloField(12)
    primes = [q for q in range(32400, 32768) if all(q % t for t in range(2, 182))][:12]
    entries = [field.from_coeffs([Fraction(1, q) for q in primes[i:i + 4]]) for i in (0, 4, 8)]
    nums, dens = field.pack([entries])
    images = field.embed_mod_prime(nums[0], dens[0])[:, :, None]
    K, col_dens = scalars._lifted_columns(field, 4, [0, 1, 2], np.array([3]), images)
    assert K.dtype == object and col_dens[0] > intlinalg.INT64_MAX
    assert field.unpack(K[0], col_dens[0]) == [-a for a in entries] + [field.one()]


def offdiag_with_a_planted_failure(genus2_exact_offdiag, monkeypatch, plant):
    """mu(Q_v) of the first system, or a copy that the modular kernel must
    refuse: over a denominator p, with reconstructed fractions one off, or
    with an entry zero modulo p under the first embedding alone."""
    op = genus2_exact_offdiag[0]
    field = op.field
    p = field.prime
    if plant == "denominator":
        return scalars.Operator(op.perms, op.scales, field, op.den * p)
    if plant == "reconstruction":
        original = intlinalg.rational_reconstruction

        def off_by_one(a, q):
            num, den = original(a, q)
            return num + 1, den
        monkeypatch.setattr(intlinalg, "rational_reconstruction", off_by_one)
        return op
    # zeta - z vanishes under zeta -> z alone: column 0 times it is zero
    # modulo p there, and a pivot under the other embeddings
    z = int(field.embed_mod_prime(np.array(field.root_pow(1).num), 1)[0])
    planted = field.root_pow(1) - z
    assert (field.embed_mod_prime(np.array(planted.num), 1)[1:] != 0).all()
    return exact_operator(field, [(perm, [scale[0] * planted] + scale[1:])
                                  for perm, scale in op.terms()])


@pytest.mark.parametrize("plant", ["denominator", "reconstruction", "pivots"])
def test_planted_failures_fall_back_to_elimination(genus2_exact_offdiag, monkeypatch, plant):
    op = offdiag_with_a_planted_failure(genus2_exact_offdiag, monkeypatch, plant)
    assert EXACT.certified_kernel(op) is None
    with mock.patch.object(scalars.ExactArithmetic, "_eliminate",
                           wraps=EXACT._eliminate) as spy:
        K = eigenspace_kernel(None, op, 0.0)
    assert spy.call_count == 1
    assert K.basis.elements() == eliminated(op)
    if plant != "pivots":  # the same operator, or p^-1 times it
        assert K.basis.elements() == eliminated(genus2_exact_offdiag[0])


def test_an_exact_job_makes_no_elements_inside_its_array_steps(monkeypatch):
    # the exact_g2_n3 job on one +-1 system: operators, F, D F and the rank
    # bound run on the array form alone, with no element packed or unpacked
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    rep = build_rep(alg.T, 3, exact_genus2_weights(alg), algebra=alg)
    inside, seen, calls = [], set(), []

    def watch(owner, name):
        original = getattr(owner, name)

        def watched(*args, **kwargs):
            inside.append(name)
            seen.add(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, watched)

    def spy(name):
        original = getattr(CycloField, name)

        def spied(*args, **kwargs):
            calls.extend([(inside[-1], name)] if inside else [])
            return original(*args, **kwargs)
        monkeypatch.setattr(CycloField, name, spied)

    watch(CFRep, "operator")
    for name in ("image_norm", "certified_kernel", "rank_bound"):
        watch(scalars.ExactArithmetic, name)
    spy("pack")
    spy("unpack")
    e = alg.T.designated_edge
    assert total_kernel(rep).dim == 27
    assert all(threading_check(rep, LoopSpec.edge_parallel(e, side))["passed"] for side in (1, 2))
    assert rep.commutant_dim() == 1
    assert sweep_check(rep, e)["passed"]
    assert seen == {"operator", "image_norm", "certified_kernel", "rank_bound"}
    assert calls == []


# ---- operators: representation images as translation terms ----

@functools.lru_cache(maxsize=None)
def contract_weights(name):
    """The algebra at N=3 and its exact weights."""
    alg = CFAlgebra(standard_library(name), 3)
    return alg, exact_weights(name, alg)


@functools.lru_cache(maxsize=None)
def contract_rep(name, mode):
    alg, W = contract_weights(name)
    if mode == "float":
        W = WeightSystem(alg.T, 3, u=[complex(ui) for ui in W.u])
    return build_rep(alg.T, 3, W, algebra=alg)


def accumulated(rep, a):
    """mu(a) by the per-term accumulation loop that builds a dense matrix
    monomial by monomial, in a.terms order: the reference for operators."""
    n, terms = rep.dim, [(c, rep.monomial_image(k).terms()[0]) for k, c in a.terms.items()]
    if rep.ctx.mode == "float":
        M = np.zeros((n, n), dtype=complex)
        for c, (perm, scale) in terms:
            M[perm, np.arange(n)] += complex(c) * np.asarray(scale, dtype=complex)
        return M
    M = [[rep.ctx.zero()] * n for _ in range(n)]
    for c, (perm, scale) in terms:
        for i in range(n):
            M[perm[i]][i] = M[perm[i]][i] + c * scale[i]
    return M


def random_element(alg, rng):
    """Three random balanced monomials with small rational coefficients, and
    the first again times the central Z_i^(2N), so two terms share a
    permutation."""
    ms = [random_balanced_monomial(alg, rng).scale(alg.scalars.from_rational(
        Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))) for _ in range(3)]
    return ms[0] + ms[1] + ms[2] + ms[0] * alg.gen(rng.randrange(alg.n), 2 * alg.N)


def random_columns(ctx, n, rng):
    if ctx.mode == "float":
        return random_complex(np.random.default_rng(rng.randrange(2 ** 32)), n, 3)
    zero = ctx.zero()
    return scalars.Columns(ctx.field, *ctx.field.pack([
        [ctx.omega(rng.randrange(12)) * rng.randint(1, 3) if rng.random() < 0.3 else zero
         for _ in range(n)] for _ in range(3)]))


def dense_scalar_of(ctx, M, tol):
    """The dense scalar test, kept as the reference for scalar_of of an
    operator: c = trace / n, and the largest entry of M - c Id."""
    if ctx.mode == "float":
        c = complex(np.trace(M) / len(M))
        off = np.abs(M - c * np.eye(len(M))).max()
        return c if off <= max(tol, 1e-9 * max(abs(c), 1)) else None
    c = M[0][0]
    ok = all((M[i][j] - c if i == j else M[i][j]).is_zero()
             for i in range(len(M)) for j in range(len(M)))
    return c if ok else None


def dense_is_zero(ctx, M, tol):
    """The dense zero test, kept as the reference: every entry of M."""
    if ctx.mode == "float":
        return np.abs(M).max() <= tol
    return all(v.is_zero() for row in M for v in row)


def assert_decisions_match_dense(rep, a, tol):
    """scalar_of of mu(a) as an operator, and the zero test of its scale
    vectors, decide as the dense tests of rep.apply(a) do; returns the
    reference scalar."""
    ctx, op, M = rep.ctx, rep.operator(a), rep.apply(a)
    got, want = ctx.scalar_of(op, tol), dense_scalar_of(ctx, M, tol)
    assert (got is None) == (want is None)
    if ctx.mode == "float" and want is not None:
        assert abs(got - want) <= 1e-12 * max(abs(want), 1)
    elif want is not None:
        assert got == want
    assert verify.image_is_zero(rep, a, tol) == dense_is_zero(ctx, M, tol)
    return want


def assert_operator_decisions(name, rep, a, rng):
    """Scalar and zero decisions on a random element, central elements, the
    zero element, an element whose terms cancel in the representation, and
    a central element plus 1e-10 or 1e-8 times a monomial (float: a scalar
    under every tol, and one only under tol = 1e-6 unless m is central)."""
    alg, (_, W) = rep.algebra, contract_weights(name)
    i, m = rng.randrange(alg.n), random_balanced_monomial(alg, rng)
    # mu(m Z_i^(2N)) = x_i mu(m), and both images share one permutation
    cancel = m * alg.gen(i, 2 * alg.N) - m.scale(W.x[i])
    tiny = [alg.scalars.from_rational(Fraction(1, 10 ** e)) for e in (10, 8)]
    assert len(rep.operator(alg.zero())) == 0
    k = tuple(2 * alg.N * (j == i) for j in range(alg.n))
    assert rep.ctx.scalar_of(rep.monomial_image(k), 1e-9) == \
        rep.ctx.scalar_of(rep.operator(alg.gen(i, 2 * alg.N)), 1e-9)
    assert rep.ctx.mode == "float" or len(rep.operator(cancel)) == 0
    for tol in (1e-12, 1e-9, 1e-6):
        assert_decisions_match_dense(rep, a, tol)
        central = [alg.central_H(v) for v in range(alg.T.num_vertices)] + \
            [alg.gen(i, 2 * alg.N)]
        assert all(assert_decisions_match_dense(rep, c, tol) is not None
                   for c in central)
        assert assert_decisions_match_dense(rep, alg.zero(), tol) == 0
        assert assert_decisions_match_dense(rep, cancel, tol) is not None
        for t in tiny:
            assert_decisions_match_dense(rep, alg.central_H(0) + m.scale(t), tol)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_of_reads_a_term_as_its_representation(mode):
    # a one-term operator, as monomial_image gives, goes by its type
    rep = contract_rep("torus1", mode)
    term = rep.monomial_image(rep.lattice.basis[0])
    assert scalars.of(term) is scalars.of(rep.operator(rep.algebra.monomial(rep.lattice.basis[0])))
    assert scalars.of(term).mode == mode
    assert type(scalars.of(term, 3)) is type(rep.ctx)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_image_reads_a_term_as_its_representation(mode):
    # a one-term operator maps a basis as the operator of that monomial
    rep = contract_rep("torus1", mode)
    term = rep.monomial_image(rep.lattice.basis[0])
    X = random_columns(rep.ctx, rep.dim, random.Random(5))
    got = rep.ctx.image(term, X)
    want = rep.ctx.image(rep.operator(rep.algebra.monomial(rep.lattice.basis[0])), X)
    assert np.array_equal(got, want) if mode == "float" else got.elements() == want.elements()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_image_norm_is_the_norm_of_the_image_in_chunks(mode, monkeypatch):
    rep = contract_rep("genus2_sep", mode)
    ctx, n = rep.ctx, rep.dim
    op = rep.operator(rep.algebra.offdiag_Q(0))
    F = total_kernel(rep, RANK_TOL).basis
    X = random_columns(ctx, n, random.Random(1))
    # a few columns per chunk, so that the norm is taken over several
    monkeypatch.setattr(scalars, "CHUNK", 2 * n)
    monkeypatch.setattr(scalars, "EXACT_CHUNK", 2 * n * 4 * len(op))
    for B in (F, X):
        image = ctx.image(op, B)
        assert ctx.image_norm(op, B) == ctx.norm(image.nums if mode == "exact" else image)
    assert ctx.image_norm(op, F) <= kernels.residual_bound(op) < ctx.image_norm(op, X)
    empty = (scalars.Columns(ctx.field, *ctx.field.pack([])) if mode == "exact"
             else np.zeros((n, 0), dtype=complex))
    assert ctx.image_norm(op, empty) == 0.0


@given(st.sampled_from(["torus1", "sphere2", "genus2_sep"]),
       st.sampled_from(["exact", "float"]), st.integers(0, 2 ** 32 - 1))
def test_operator_contract(name, mode, seed):
    rep = contract_rep(name, mode)
    ctx, n, rng = rep.ctx, rep.dim, random.Random(seed)
    a, b = random_element(rep.algebra, rng), random_element(rep.algebra, rng)
    op = rep.operator(a)
    # distinct permutations share no entry
    for p, q in itertools.combinations(op.perms, 2):
        assert not (p == q).any()
    M = ctx.dense(op)
    want = accumulated(rep, a)
    X = random_columns(ctx, n, rng)
    diff = ctx.dense(rep.operator(a - b))
    assert_operator_decisions(name, rep, a, rng)
    if mode == "float":
        assert np.array_equal(M, want)
        assert np.abs(ctx.image(op, X) - M @ X).max() <= 1e-12 * max(np.abs(M).max(), 1)
        assert ctx.rank_bound(op) == (0, None)
        assert np.abs(diff - (M - accumulated(rep, b))).max() <= 1e-12 * max(
            np.abs(M).max(), 1)
        return
    assert M == want
    assert ctx.image(op, X).elements() == dense_image(M, X.elements())
    p = ctx.field.prime
    nums, dens = ctx.field.pack(M)
    reduced = np.array([ctx.field.embed_mod_prime(x, d)[0] for x, d in zip(nums, dens)])
    assert ctx.rank_bound(op) == (intlinalg.rank_mod(reduced, p), p)
    assert diff == [[x - y for x, y in zip(r, s)] for r, s in zip(M, accumulated(rep, b))]
