import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinrep import kernels, qtrace, scalars
from skeinrep.cfalgebra import CFAlgebra, SignReversalClass
from skeinrep.errors import (NotCommuting, NotDiagonalizable, NotOneVertex,
                             NotSeparating, SamplerExhausted)
from skeinrep.kernels import (Subspace, eigen_analysis, eigenspace_kernel,
                              matrix_kernel, offdiag_kernel,
                              sample_generic_weights, total_kernel)
from skeinrep.qtrace import LoopSpec, edge_parallel_trace, sweep_check
from skeinrep.representation import WeightSystem, build_rep
from skeinrep.triangulation import standard_library
from skeinrep.verify import exact_genus2_weights

from conftest import (dense_bases, diagonals, random_balanced_monomial,
                      record_float_kernels)


@pytest.fixture(scope="module")
def torus_rep():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    W = WeightSystem(T, 3, u=[one, one, alg.scalars.omega(1)])
    return build_rep(T, 3, W, algebra=alg)


@pytest.fixture(scope="module")
def sphere_rep():
    T = standard_library("sphere2")
    alg = CFAlgebra(T, 3)
    w = alg.scalars.omega(1)
    return build_rep(T, 3, WeightSystem(T, 3, u=[w, w, w]), algebra=alg)


@pytest.fixture(scope="module")
def genus2_rep():
    T = standard_library("genus2_sep")
    W = sample_generic_weights(T, 3, random.Random(11))
    return build_rep(T, 3, W)


# ---- off-diagonal kernels ----

def test_torus_kernel_full(torus_rep):
    # mu(Q_v) = 0, so the kernel is everything
    M = torus_rep.apply(torus_rep.algebra.offdiag_Q(0))
    assert all(v.is_zero() for row in M for v in row)
    F = total_kernel(torus_rep)
    assert F.dim == 3 == torus_rep.N


def test_sphere_kernel_full(sphere_rep):
    for v in range(3):
        M = sphere_rep.apply(sphere_rep.algebra.offdiag_Q(v))
        assert all(x.is_zero() for row in M for x in row)
    assert total_kernel(sphere_rep).dim == 1


def test_genus2_kernel_dims(genus2_rep):
    F = total_kernel(genus2_rep)
    assert F.dim == 27  # N^(3(g-1)) at N=3, g=2
    Fv = offdiag_kernel(genus2_rep, 0)
    assert Fv.dim == 27
    assert F.equals(Fv)


def test_total_kernel_computed_once_per_rep_and_tol(genus2_rep):
    F = total_kernel(genus2_rep)
    assert total_kernel(genus2_rep) is F
    assert total_kernel(genus2_rep, 1e-6) is not F
    flipped = genus2_rep.precompose_sign_reversal(
        SignReversalClass(genus2_rep.T, (1, 0, 1, 1, 0, 1, 0, 0, 1)))
    assert total_kernel(flipped) is not F
    assert total_kernel(genus2_rep) is F


SIGN_CLASS = (1, 0, 1, 1, 0, 1, 0, 0, 1)


def float_genus2_rep(N, seed):
    T = standard_library("genus2_sep")
    return build_rep(T, N, sample_generic_weights(T, N, random.Random(seed)))


@pytest.mark.parametrize("N,seed", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1)])
def test_total_kernel_matches_the_dense_offdiag_kernel(N, seed):
    rep = float_genus2_rep(N, seed)
    for r in (rep, rep.precompose_sign_reversal(SignReversalClass(rep.T, SIGN_CLASS))):
        F = total_kernel(r, 1e-8)
        assert F.dim == N ** 3
        assert F.equals(offdiag_kernel(r, 0, tol=1e-8), 1e-8)


def test_float_genus2_total_kernel_takes_no_square_kernel(monkeypatch):
    # one thin n x N kernel per joint space, none of the n x n mu(Q_v)
    rep = float_genus2_rep(3, 4)
    shapes = record_float_kernels(monkeypatch)
    assert total_kernel(rep, 1e-8).dim == 27
    assert shapes and all(shape[0] == 81 and shape[1] < 81 for shape in shapes)
    assert shapes == [(81, 3)] * 27


def record_joint_spaces(monkeypatch) -> list:
    """The operator families passed to scalars.joint_spaces from now on."""
    calls = []
    original = scalars.joint_spaces

    def joint_spaces(ops, *args):
        calls.append(ops)
        return original(ops, *args)

    monkeypatch.setattr(scalars, "joint_spaces", joint_spaces)
    return calls


@pytest.mark.parametrize("N", [3, 5])
def test_total_kernel_and_sweep_check_share_one_spectrum(monkeypatch, N):
    rep = float_genus2_rep(N, 6)
    calls = record_joint_spaces(monkeypatch)
    dense = []
    monkeypatch.setattr(scalars.FloatArithmetic, "dense",
                        lambda self, *args: dense.append(args) or math.nan)
    assert total_kernel(rep, 1e-8).dim == N ** 3
    assert sweep_check(rep, rep.T.designated_edge, 1e-8)["passed"]
    assert len(calls) == 1 and dense == []
    # kept in block form: N^3 joint spaces of dim N, each with one column of
    # N^3 entries on each of the N cosets, no dense n x N basis
    spaces = rep.spectra[rep.T.designated_edge, 1e-8]
    assert (spaces.count, spaces.dim, spaces.local.shape) == \
        (N ** 3, N, (N, N ** 3, 1, N ** 3))


def test_sign_reversed_copy_builds_its_own_spectrum(monkeypatch):
    # a sign reversal changes rho[K1], so the copy's F comes from its own
    # joint spaces, which leave no dense fallback to take
    rep = float_genus2_rep(3, 7)
    total_kernel(rep, 1e-8)
    flipped = rep.precompose_sign_reversal(SignReversalClass(rep.T, SIGN_CLASS))
    calls = record_joint_spaces(monkeypatch)
    shapes = record_float_kernels(monkeypatch)
    F = total_kernel(flipped, 1e-8)
    assert len(calls) == 1 and (81, 81) not in shapes
    assert flipped.spectra is not rep.spectra
    assert F.dim == 27 and F.equals(offdiag_kernel(flipped, 0, tol=1e-8), 1e-8)


def drop_last_space(spaces):
    return spaces._replace(local=spaces.local[..., :-1], values=spaces.values[:-1])


def perturb_bases(spaces):
    rng = np.random.default_rng(0)
    return spaces._replace(local=spaces.local + 1e-5 * rng.normal(size=spaces.local.shape))


@pytest.mark.parametrize("plant,thin_kernels", [(drop_last_space, 0), (perturb_bases, 27)],
                         ids=["eigenspaces-do-not-fill", "residual-check"])
def test_total_kernel_falls_back_to_the_dense_kernel(monkeypatch, plant, thin_kernels):
    # with a joint space missing, or with bases 1e-5 off, so that the thin
    # kernels (cut at 1e-3) keep vectors that mu(Q_v) moves by far more
    # than the residual bound, F is the dense kernel of mu(Q_v)
    rep = float_genus2_rep(3, 5)
    original = scalars.joint_spaces
    planted = []

    def planted_spaces(*args):
        planted.append(plant(original(*args)))
        return planted[-1]

    monkeypatch.setattr(scalars, "joint_spaces", planted_spaces)
    shapes = record_float_kernels(monkeypatch)
    F = total_kernel(rep, 1e-3)
    assert shapes == [(81, 3)] * thin_kernels + [(81, 81)]
    assert planted and all(sum(mult for _, mult in spaces.spectrum()) == spaces.count * spaces.dim
                           for spaces in planted)
    assert F.dim == 27 and F.equals(offdiag_kernel(rep, 0, tol=1e-3), 1e-3)


def test_exact_total_kernel_makes_no_dense_matrix():
    # exact eigenvalues are not computed, so only mu(Q_v) is built, and its
    # kernel is certified modulo the field's prime from its scales
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, 3)
    rep = build_rep(T, 3, exact_genus2_weights(alg), algebra=alg)
    with mock.patch.object(scalars.ExactArithmetic, "dense", autospec=True,
                           side_effect=scalars.ExactArithmetic.dense) as dense, \
            mock.patch.object(type(rep), "operator", autospec=True,
                              side_effect=type(rep).operator) as operator:
        assert total_kernel(rep).dim == 27
    assert dense.call_count == 0
    assert [call.args[1] for call in operator.call_args_list] == [alg.offdiag_Q(0)]


def test_exact_total_kernel_is_computed_once_for_every_tol():
    # no tolerance enters exact elimination: a second tol, and the sweep
    # check at it, share F and build no second dense mu(Q_v)
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, 3)
    rep = build_rep(T, 3, exact_genus2_weights(alg), algebra=alg)
    F = total_kernel(rep)
    with mock.patch.object(scalars.ExactArithmetic, "dense", autospec=True,
                           side_effect=scalars.ExactArithmetic.dense) as dense:
        assert total_kernel(rep, 1e-3) is F
        assert sweep_check(rep, T.designated_edge, 1e-8)["passed"]
    assert dense.call_count == 0


def test_kernel_start_independent(genus2_rep):
    alg = genus2_rep.algebra
    base = matrix_kernel(genus2_rep.apply(alg.offdiag_Q(0, start=0)))
    for start in (3, 7, 11, 17):
        assert matrix_kernel(genus2_rep.apply(alg.offdiag_Q(0, start=start))).equals(base)


def test_kernel_not_invariant_under_whole_algebra(genus2_rep):
    # irreducibility: some Z_j^2 image moves F_v off itself
    rep = genus2_rep
    F = offdiag_kernel(rep, 0)
    moved = [j for j in range(rep.algebra.n)
             if not F.is_invariant_under(rep.operator(rep.algebra.gen(j, 2)))]
    assert moved


# ---- eigen analysis ----

def test_eigen_scalar_matrix(torus_rep):
    rep = torus_rep
    M = np.eye(5, dtype=complex) * (2 - 1j)
    out = eigen_analysis(M, "float")
    assert out == [((2 - 1j), 5)]


def test_eigen_rejects_nilpotent():
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotDiagonalizable):
        eigen_analysis(M, "float")


def test_eigen_clusters_join_values_closer_than_tol_whatever_sorts_between_them():
    # a and c are 2e-12 apart, but their real parts round to different 8th
    # decimals, and b, 1j away, sorts between them
    a, b, c = 0.100000004999, 0.1000000049 + 1j, 0.100000005001
    assert eigen_analysis(np.diag([a, b, c]), "float") == [(a, 2), (b, 1)]


def test_eigen_exact_candidates(torus_rep):
    rep = torus_rep
    alg = rep.algebra
    # mu(Z_0^2)^N = x_0 = 1, so eigenvalues are cube roots of unity, and the
    # eigenspace at lam is ker mu(Z_0^2 - lam)
    cands = [alg.scalars.omega(4 * k) for k in range(3)]
    dims = [matrix_kernel(rep.apply(alg.gen(0, 2) - alg.one().scale(lam))).dim
            for lam in cands]
    assert sorted(dims) == [1, 1, 1]


def test_balanced_monomial_sep_exponent_even(genus2_rep):
    # parity: any balanced exponent vector is even on the separating edge
    alg = genus2_rep.algebra
    e = alg.T.designated_edge
    rng = random.Random(19)
    for _ in range(100):
        k, _ = random_balanced_monomial(alg, rng, bound=2).monomial_data()
        assert k[e] % 2 == 0


# ---- sweep kernel equality ----

def test_sweep_kernel_equals_total(genus2_rep):
    e = genus2_rep.T.designated_edge
    assert sweep_check(genus2_rep, e)["kernel_equals_total"]


def pushoff_traces(rep):
    return qtrace.pushoff_pair(rep.algebra, rep.T.designated_edge)


@pytest.mark.parametrize("N,seed", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_difference_kernel_matches_dense_float(N, seed):
    T = standard_library("genus2_sep")
    rep = build_rep(T, N, sample_generic_weights(T, N, random.Random(seed)))
    tr1, tr2 = pushoff_traces(rep)
    A, B = rep.apply(tr1), rep.apply(tr2)
    spaces = kernels.pants_spaces(rep, T.designated_edge, 1e-8)
    K = eigenspace_kernel(spaces, rep.operator(tr1 - tr2), 1e-8)
    assert K.dim == N ** 3
    assert K.equals(matrix_kernel(A - B, 1e-8), 1e-8)
    assert np.abs((A - B) @ K.basis).max() < 1e-9


def test_difference_kernel_matches_dense_exact():
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, 3)
    rep = build_rep(T, 3, exact_genus2_weights(alg), algebra=alg)
    tr1, tr2 = pushoff_traces(rep)
    spaces = kernels.pants_spaces(rep, T.designated_edge, kernels.DEFAULT_RANK_TOL)
    # exact eigenvalues are not computed, and no pants family is built
    assert spaces is None and alg.pants_families == {}
    K = eigenspace_kernel(spaces, rep.operator(tr1 - tr2), kernels.DEFAULT_RANK_TOL)
    diff = [[a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(rep.apply(tr1), rep.apply(tr2))]
    assert K.dim == 27
    assert K.equals(matrix_kernel(diff))


def float_eigenspaces(A, tol):
    """The eigenspaces of a dense A as the joint spaces of the family [A]."""
    return scalars.joint_spaces([diagonals(A)], kernels.EIGEN_TOL, tol)


@pytest.mark.parametrize("A,diff,tol,dim,spectral_calls", [
    # a Jordan block: A's eigenspaces do not fill the space, so there are
    # no joint spaces to try
    (np.array([[1, 1], [0, 1]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex),
     1e-9, 1, 0),
    # A = 0 is one eigenspace, and D's singular values 0 and 5e-7 both pass
    # its rank cut at 1e-6, but the basis fails the residual check at 1e-7
    (np.zeros((2, 2), dtype=complex), np.diag([0, 5e-7]).astype(complex), 1e-6, 2, 1),
], ids=["jordan-block", "residual-check"])
def test_difference_kernel_falls_back_to_the_dense_kernel(monkeypatch, A, diff, tol, dim,
                                                          spectral_calls):
    calls = []

    def recording_kernel(M, tol=kernels.DEFAULT_RANK_TOL):
        calls.append(M)
        return matrix_kernel(M, tol)

    monkeypatch.setattr(kernels, "matrix_kernel", recording_kernel)
    assert eigenspace_kernel(float_eigenspaces(A, tol), diagonals(diff), tol).dim == dim
    assert len(calls) == spectral_calls + 1
    assert np.array_equal(calls[-1], diff)


def loop_traces(alg, loops):
    return [edge_parallel_trace(alg, LoopSpec.edge_parallel(e, side)) for e, side in loops]


@pytest.mark.parametrize("N,seed", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_pants_family_splits_F_into_one_dimension_per_joint_space(N, seed):
    rep = float_genus2_rep(N, seed)
    e = rep.T.designated_edge
    family = qtrace.pants_family(rep, e)
    assert family == loop_traces(rep.algebra, [(1, 1), (5, 1), (e, 1)])
    spaces = kernels.pants_spaces(rep, e, 1e-8)
    assert (spaces.count, spaces.dim) == (N ** 3, N)
    U = dense_bases(spaces)
    # each basis is orthonormal, and together they fill C^n
    assert np.abs(np.einsum("idj,iej->jde", U.conj(), U) - np.eye(N)).max() < 1e-9
    assert scalars.FloatArithmetic().rank(U.reshape(rep.dim, -1), 1e-8) == rep.dim
    # every family operator maps each space into itself
    for a in family:
        A = rep.apply(a)
        AU = np.einsum("ik,kdj->idj", A, U)
        restricted = np.einsum("idj,iej->jde", U.conj(), AU)
        assert np.abs(AU - np.einsum("idj,jde->iej", U, restricted)).max() < 1e-9
    # each space meets F in exactly one dimension: one principal angle 0
    F = np.linalg.qr(total_kernel(rep, 1e-8).basis)[0]
    cosines = np.linalg.svd(np.einsum("if,idj->jfd", F.conj(), U), compute_uv=False)
    assert np.all(np.sum(cosines > 1 - 1e-8, axis=1) == 1)


@pytest.mark.parametrize("N", [3, 5])
def test_each_pants_level_is_one_joint_spaces(N):
    # refined one family operator at a time, each level is one JointSpaces:
    # N spaces of dim N^3, then N^2 of dim N^2, then N^3 of dim N
    rep = float_genus2_rep(N, 0)
    ops = [rep.operator(a) for a in qtrace.pants_family(rep, rep.T.designated_edge)]
    levels = [scalars.joint_spaces(ops[:k], kernels.EIGEN_TOL, 1e-8) for k in (1, 2, 3)]
    assert all(isinstance(spaces, scalars.JointSpaces) for spaces in levels)
    assert [(spaces.count, spaces.dim) for spaces in levels] == \
        [(N, N ** 3), (N ** 2, N ** 2), (N ** 3, N)]


def test_a_loop_that_adds_no_translation_leaves_the_spaces_as_they_are():
    # (3,2) commutes with the family but adds no translation to (1,1): it is
    # a different scalar on each (1,1) space, so its level splits none of
    # them, and the family goes on to the spaces of (1,1), (5,1), K1, which
    # still give F
    rep = float_genus2_rep(3, 2)
    alg, e = rep.algebra, rep.T.designated_edge
    ops = [rep.operator(a) for a in loop_traces(alg, [(1, 1), (3, 2), (5, 1), (e, 1)])]
    first = scalars.joint_spaces(ops[:1], kernels.EIGEN_TOL, 1e-8)
    second = scalars.joint_spaces(ops[:2], kernels.EIGEN_TOL, 1e-8)
    assert (second.count, second.dim) == (first.count, first.dim) == (3, 27)
    assert np.array_equal(second.local, first.local)
    spaces = scalars.joint_spaces(ops, kernels.EIGEN_TOL, 1e-8)
    pants = scalars.joint_spaces(ops[:1] + ops[2:], kernels.EIGEN_TOL, 1e-8)
    assert (spaces.count, spaces.dim) == (27, 3)
    assert np.array_equal(spaces.local, pants.local)
    F = kernels.eigenspace_kernel(spaces, rep.operator(alg.offdiag_Q(0)), 1e-8)
    assert F.dim == 27 and F.equals(offdiag_kernel(rep, 0, tol=1e-8), 1e-8)


@pytest.mark.parametrize("N", [3, 5])
def test_the_family_of_K1_alone_gives_the_eigenspaces_of_rho_K1(N):
    # N eigenspaces of dim N^3, each with N columns on each of the N^2
    # cosets of size N^2 of K1's translations, as the pattern blocks of the
    # dense rho[K1] give
    rep = float_genus2_rep(N, 3)
    tr1, _ = qtrace.pushoff_pair(rep.algebra, rep.T.designated_edge)
    spaces = scalars.joint_spaces([rep.operator(tr1)], kernels.EIGEN_TOL, 1e-8)
    assert spaces.local.shape == (N ** 2, N ** 2, N, N)
    A = rep.apply(tr1)
    clusters = eigen_analysis(A, "float")
    for (lam, m), V in zip(clusters, np.moveaxis(dense_bases(spaces), -1, 0)):
        assert m == spaces.dim == N ** 3
        assert np.abs(A @ V - lam * V).max() < 1e-9


@pytest.mark.parametrize("N,seed", [(3, 0), (3, 1), (3, 2), (3, 3), (5, 0)])
def test_the_pants_spectrum_is_the_dense_spectrum_of_rho_K1(N, seed):
    # the eigenvalues kept on the last level of the pants spaces, against
    # the dense eigen-analysis of rho[K1]: the same clusters in the same
    # order, with the same multiplicities
    rep = float_genus2_rep(N, seed)
    edge = rep.T.designated_edge
    got = kernels.pants_spaces(rep, edge, 1e-8).spectrum()
    want = eigen_analysis(rep.apply(qtrace.pushoff_pair(rep.algebra, edge)[0]), "float")
    assert [m for _, m in got] == [m for _, m in want] == [N ** 3] * N
    assert all(abs(a - b) < 1e-12 for (a, _), (b, _) in zip(got, want))


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(st.lists(st.integers(1, 4).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(0, m))), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_difference_kernel_finds_a_planted_kernel(blocks, seed):
    # A = S diag(lam_j Id) S^-1 and B = S diag(lam_j Id - U_j diag(0..0, d) U_j^H) S^-1
    # commute, and A - B has kernel dimension sum_j (m_j - rank d_j)
    rng = np.random.default_rng(seed)
    n = sum(m for m, _ in blocks)
    S = random_unitary(rng, n) @ np.diag(rng.uniform(0.5, 2, n)) @ random_unitary(rng, n)
    lam = np.concatenate([np.full(m, j + 1j * (j % 2)) for j, (m, _) in enumerate(blocks)])
    cut = np.zeros((n, n), dtype=complex)
    at = 0
    for m, r in blocks:
        d = rng.uniform(0.5, 2, r) * np.exp(2j * np.pi * rng.random(r))
        U = random_unitary(rng, m)
        cut[at:at + m, at:at + m] = U @ np.diag(np.r_[np.zeros(m - r), d]) @ U.conj().T
        at += m
    S_inv = np.linalg.inv(S)
    A = S @ np.diag(lam) @ S_inv
    B = S @ (np.diag(lam) - cut) @ S_inv
    with mock.patch.object(kernels, "matrix_kernel", wraps=kernels.matrix_kernel) as mk:
        K = eigenspace_kernel(float_eigenspaces(A, 1e-8), diagonals(A - B), 1e-8)
    # one per eigenspace, no dense fallback, when the eigenspaces have one
    # dimension; otherwise there are no joint spaces, and one dense kernel
    assert mk.call_count == (len(blocks) if len({m for m, _ in blocks}) == 1 else 1)
    assert K.dim == sum(m - r for m, r in blocks)
    assert K.equals(matrix_kernel(A - B, 1e-8), 1e-8)


@pytest.mark.parametrize("density", [0.0, 0.1, 1.0])
def test_float_image_matches_matmul(density):
    rng = np.random.default_rng(int(10 * density))
    n, d = 30, 7
    M = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (rng.random((n, n)) < density)
    M[3] = 0  # a row with no nonzeros
    X = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    assert np.abs(scalars.FloatArithmetic().image(diagonals(M), X) - M @ X).max() < 1e-12


def test_sweep_check_builds_and_checks_the_pushoff_traces_once(monkeypatch):
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, 3)
    reps = [build_rep(T, 3, sample_generic_weights(T, 3, random.Random(s)), algebra=alg)
            for s in (0, 1)]
    built = []
    original = qtrace.edge_parallel_trace

    def counting_trace(algebra, loop):
        built.append(loop)
        return original(algebra, loop)

    monkeypatch.setattr(qtrace, "edge_parallel_trace", counting_trace)
    assert all(sweep_check(rep, T.designated_edge)["passed"] for rep in reps)
    # the two push-offs, then the 16 loops that the pants family scans, each
    # once for both representations
    assert built[:2] == [LoopSpec(T.designated_edge, side) for side in (1, 2)]
    assert len(built) == 2 + 16 and len(set(built)) == len(built)


def test_sweep_check_rejects_pushoffs_that_do_not_commute(monkeypatch):
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, 3)
    rep = build_rep(T, 3, sample_generic_weights(T, 3, random.Random(0)), algebra=alg)
    i, j = next((i, j) for i in range(alg.n) for j in range(alg.n)
                if alg.sigma[i][j] % 3)
    # Z_i^2 Z_j^2 = omega^(8 sigma_ij) Z_j^2 Z_i^2, and 8 sigma_ij != 0 mod 12
    monkeypatch.setattr(qtrace, "edge_parallel_trace",
                        lambda algebra, loop: algebra.gen(i if loop.side == 1 else j, 2))
    with pytest.raises(NotCommuting):
        sweep_check(rep, T.designated_edge)
    assert alg.pushoff_traces == {}


def test_kernel_equality_requires_separating(torus_rep):
    with pytest.raises(NotSeparating):
        sweep_check(torus_rep, 0)


# ---- sampler ----

def test_sampler_deterministic():
    T = standard_library("genus2_sep")
    W1 = sample_generic_weights(T, 3, random.Random(5))
    W2 = sample_generic_weights(T, 3, random.Random(5))
    assert W1.u == W2.u
    assert W1.validate()["valid"]


def test_sampler_builds_the_separating_trace_once_per_triangulation(monkeypatch):
    T = standard_library("genus2_sep")
    built = []
    original = qtrace.edge_parallel_trace

    def counting_trace(algebra, loop):
        built.append(loop)
        return original(algebra, loop)

    monkeypatch.setattr(qtrace, "edge_parallel_trace", counting_trace)
    for seed in range(3):
        sample_generic_weights(T, 3, random.Random(seed))
    assert len(built) == 1


def test_sampler_needs_one_vertex():
    with pytest.raises(NotOneVertex):
        sample_generic_weights(standard_library("sphere2"), 3, random.Random(0))


def test_sampler_gives_up_when_every_draw_is_rejected(monkeypatch):
    monkeypatch.setattr(kernels, "TRACE_MARGIN", math.inf)
    start = time.monotonic()
    with pytest.raises(SamplerExhausted):
        sample_generic_weights(standard_library("genus2_sep"), 3, random.Random(0))
    assert time.monotonic() - start < 1.0


# ---- subspace utilities ----

def test_subspace_equality_float():
    rng = np.random.default_rng(0)
    B = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    S1 = Subspace(6, B)
    S2 = Subspace(6, B @ (rng.normal(size=(3, 3)) + np.eye(3) * 5))
    assert S1.equals(S2)
    S3 = Subspace(6, rng.normal(size=(6, 3)))
    assert not S1.equals(S3)


def test_matrix_kernel_exact(torus_rep):
    field = torus_rep.ctx.field
    one, zero = field.one(), field.zero()
    M = [[one, one, zero], [zero, zero, zero], [one, one, zero]]
    K = matrix_kernel(M)
    assert K.dim == 2
