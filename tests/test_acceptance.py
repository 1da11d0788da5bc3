"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here: exact checks use field equality (zero tolerance),
float rank decisions use 1e-8, eigenvalue/threading residuals use 1e-6.
Criteria 1-6, 8, 9 and 11 run the named checks of skeinrep.verify, which
`skeinrep verify` runs too, and assert which checks ran.
"""

import random
import time

import pytest

from skeinrep import verify
from skeinrep.cfalgebra import CFAlgebra, SignReversalClass
from skeinrep.kernels import offdiag_kernel, sample_generic_weights, total_kernel
from skeinrep.qtrace import corner_arc_factor
from skeinrep.representation import WeightSystem, build_rep
from skeinrep.holonomy import vertex_holonomy
from skeinrep.triangulation import octahedron, standard_library

RANK_TOL = 1e-8
EIGEN_TOL = 1e-6


def compose(a, b):
    """The term (perm, scale) of the product of two one-term operators: b
    sends e_i to t_i e_(q(i)), which a sends to t_i s_(q(i)) e_(p(q(i)))."""
    ((p, s),), ((q, t),) = a.terms(), b.terms()
    return [p[j] for j in q], [ti * s[j] for ti, j in zip(t, q)]


def report(number, passed, text):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {status}: {text}")
    assert passed, f"criterion {number}: {text}"


def all_pass(checks, *names):
    """Exactly the named checks ran, in this order, and all passed."""
    return [c.name for c in checks] == list(names) and all(c.passed for c in checks)


def octahedron_weights(alg):
    w = alg.scalars.omega(1)
    return WeightSystem(alg.T, 3, u=[w] * alg.T.num_edges)


def genus2_samples():
    """Twenty generic float weight systems at N=3."""
    T = standard_library("genus2_sep")
    rng = random.Random(2026)
    return [sample_generic_weights(T, 3, rng) for _ in range(20)]


def signrev_sample():
    return sample_generic_weights(standard_library("genus2_sep"), 3, random.Random(3))


@pytest.fixture(scope="module")
def genus2_runs():
    """The genus-2 samples with their representations."""
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    return [build_rep(alg.T, 3, W, algebra=alg) for W in genus2_samples()]


@pytest.fixture(scope="module")
def weight_systems():
    """Every distinct weight system the criteria use, drawn as they draw it."""
    torus, sphere, genus2 = (standard_library(name)
                             for name in ("torus1", "sphere2", "genus2_sep"))
    rng = random.Random(11)
    systems = [W for N in (3, 5)
               for W in verify.torus_weight_systems(CFAlgebra(torus, N), rng)]
    systems += [verify.exact_sphere_weights(CFAlgebra(sphere, 3)),
                verify.exact_genus2_weights(CFAlgebra(genus2, 3)),
                octahedron_weights(CFAlgebra(octahedron(), 3))]
    return systems + genus2_samples() + [signrev_sample()]


def test_criterion_1_torus_dimension_theorem():
    start = time.monotonic()
    rng = random.Random(11)
    checks = verify.torus_checks(3, rng, RANK_TOL) + verify.torus_checks(5, rng, RANK_TOL)
    ok = all_pass(checks, *["torus-weights-valid", "torus-annihilates-offdiag",
                            "torus-kernel-dim"] * 2)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(1, ok, f"torus: mu(Q_v) = 0 and dim F = N for N in (3,5), "
                  f"x = (1,1,-1) plus 10 random systems [{elapsed:.2f}s < 5s]")


def test_criterion_2_sphere_dimension_theorem():
    start = time.monotonic()
    ok = all_pass(verify.sphere_checks(3), "sphere-rep-dim", "sphere-kernel-dim",
                  "sphere-annihilates-offdiag")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"sphere: dim E = 1 and dim F = 1 [{elapsed:.2f}s < 1s]")


def test_criterion_3_genus2_dimension_theorem(genus2_runs):
    start = time.monotonic()
    ok = all_pass(verify.genus2_checks(genus2_runs, RANK_TOL)[:2],
                  "genus2-rep-dim", "genus2-kernel-dim")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(3, ok, f"genus 2, N=3: dim E = 81 and dim F = 27 at rank tol 1e-8, "
                  f"20 generic samples [{elapsed:.1f}s < 60s]")


def test_criterion_4_eigen_structure(genus2_runs):
    # genus2_checks bounds the eigenvalue residuals by verify.EIGEN_TOL
    ok = verify.EIGEN_TOL == EIGEN_TOL and all_pass(
        verify.genus2_checks(genus2_runs, RANK_TOL)[2:], "genus2-eigen-structure")
    report(4, ok, "genus 2: rho[K1] diagonalizable, N eigenvalues of "
                  "multiplicity dim E / N solving T_N(x) = -trace, residual < 1e-6")


def test_criterion_5_sweep_identity(genus2_runs):
    checks = [c for rep in genus2_runs[:5] for c in verify.sweep_checks(rep, RANK_TOL)]
    ok = all_pass(checks, *["sweep-restriction-agrees", "sweep-kernel-equality",
                            "sweep-offdiag-identity"] * 5)
    report(5, ok, "genus 2: ker(rho[K1] - rho[K2]) = total off-diagonal "
                  "kernel, mutual containment at 1e-8")


def test_criterion_6_symbolic_algebra_suite():
    ok = all_pass(verify.algebra_checks(3, random.Random(6)),
                  "weyl-product-law", "central-element-coefficient",
                  "central-element-commutes", "prefix-order-cases",
                  "torus-offdiag-factorization", "offdiag-start-rotation-recursion")
    report(6, ok, "exact symbolic suite: Weyl law (200 pairs), central "
                  "coefficient and centrality, prefix cases, torus "
                  "factorization, start-rotation recursion; zero tolerance")


def test_criterion_7_representation_contract():
    ok = True
    for name, wfun in (("torus1", verify.exact_torus_weights),
                       ("sphere2", verify.exact_sphere_weights),
                       ("genus2_sep", verify.exact_genus2_weights)):
        T = standard_library(name)
        alg = CFAlgebra(T, 3)
        rep = build_rep(T, 3, wfun(alg), algebra=alg)
        expected = 3 ** (3 * T.genus + T.num_vertices - 3)
        ok = ok and rep.dim == expected
        lat = rep.lattice
        for k in lat.basis:
            for l in lat.basis:
                perm, scale = compose(rep.weyl_image(k), rep.weyl_image(l))
                kl = tuple(a + b for a, b in zip(k, l))
                ((want_perm, want_scale),) = rep.weyl_image(kl).terms()
                w = rep.ctx.omega(alg.pairing(k, l))
                ok = ok and perm == want_perm and \
                    all((a - b * w).is_zero() for a, b in zip(scale, want_scale))
        for i in range(alg.n):
            M = rep.apply(alg.gen(i, 6))
            ok = ok and all((M[a][b] - (rep.weights.x[i] if a == b
                                        else rep.ctx.zero())).is_zero()
                            for a in range(rep.dim) for b in range(rep.dim))
        for v in range(T.num_vertices):
            M = rep.apply(alg.central_H(v))
            ok = ok and all((M[a][b] - (rep.hv_scalar() if a == b
                                        else rep.ctx.zero())).is_zero()
                            for a in range(rep.dim) for b in range(rep.dim))
        ok = ok and rep.commutant_dim() == 1
    report(7, ok, "contract at N=3 on all library triangulations, exact: "
                  "relations, mu(Z_i^2N) = x_i, mu(H_v) = -w^4, "
                  "dim = N^(3g+p-3), commutant dimension 1")


def test_criterion_8_subdivision_suite():
    ok = all_pass(verify.subdivision_checks(3, random.Random(8)),
                  "quantum-binomial-N3", "quantum-binomial-N5",
                  "subdivision-homomorphism", "subdivision-weights-valid",
                  "subdivision-kernel-dim", "subdivision-eigenvalues",
                  "subdivision-restriction-identity")
    report(8, ok, "subdivision: homomorphism (100 pairs), quantum binomial "
                  "exact at N=3,5, kernel dimension, root-of-minus-one "
                  "eigenvalues, restriction identity on the new kernel")


def test_criterion_9_flip_suite():
    ok = all_pass(verify.flip_checks(3), "flip-coordinate-change",
                  "flip-preserves-central-elements", "flip-offdiag-transfer",
                  "flip-weights-involutive", "flip-double-isomorphic",
                  "flip-classical-table")
    report(9, ok, "flip: six coordinate-change formulas, Theta(H') = H, "
                  "two-corner off-diagonal transfer, classical table, "
                  "double-flip involutivity; all exact")


def test_criterion_10_corner_arc_invariance():
    T = octahedron()
    alg = CFAlgebra(T, 3)
    W = octahedron_weights(alg)
    rep = build_rep(T, 3, W, algebra=alg)
    ok = rep.dim == 27 and T.is_combinatorial() and W.validate()["valid"]
    for v in range(T.num_vertices):
        F = offdiag_kernel(rep, v)
        ok = ok and 0 < F.dim < rep.dim
        for corner in range(len(T.fans[v])):
            for state in ("++", "--", "+-"):
                A = rep.operator(corner_arc_factor(alg, v, corner, state))
                ok = ok and F.is_invariant_under(A)
    report(10, ok, "corner-arc operators preserve every off-diagonal kernel "
                   "of a combinatorial triangulation, exact rank checks")


def test_criterion_11_sign_reversal():
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, 3)
    eps = SignReversalClass(T, (1, 0, 1, 1, 0, 1, 0, 0, 1))
    rep = build_rep(T, 3, signrev_sample(), algebra=alg)
    ok = all_pass(verify.signrev_checks(rep, eps, RANK_TOL), "chebyshev-odd-degrees",
                  "signrev-fixes-offdiag", "signrev-invariants",
                  "signrev-flips-odd-monomials")
    report(11, ok, "T_N odd for odd N; admissible sign reversal fixes Q_v, "
                   "the total kernel, the x_i and the H_v scalar")


def test_criterion_12_holonomy_cross_check(weight_systems):
    ok = True
    exact_count = float_count = 0
    for W in weight_systems:
        if not W.has_roots() or not W.validate()["valid"]:
            continue
        for v in range(W.T.num_vertices):
            M = vertex_holonomy(W, v)
            if W.mode == "exact":
                ok = ok and M.is_plus_minus_identity()
                exact_count += 1
            else:
                ok = ok and M.is_plus_minus_identity(tol=1e-7)
                float_count += 1
    ok = ok and exact_count > 0 and float_count > 0
    report(12, ok, f"vertex holonomy = +-Id on every vertex-valid weight "
                   f"system used above ({exact_count} exact, "
                   f"{float_count} float checks)")


@pytest.mark.slow
def test_optional_genus2_N5():
    start = time.monotonic()
    T = standard_library("genus2_sep")
    rng = random.Random(55)
    W = sample_generic_weights(T, 5, rng)
    rep = build_rep(T, 5, W)
    ok = rep.dim == 625
    ok = ok and total_kernel(rep, RANK_TOL).dim == 125
    elapsed = time.monotonic() - start
    report("3b", ok and elapsed < 600,
           f"genus 2 at N=5: dim E = 625, dim F = 125 [{elapsed:.1f}s < 600s]")
