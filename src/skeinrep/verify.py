"""The catalogue of checks behind `skeinrep verify` and the acceptance criteria.

A check returns Check(name, passed, detail). A suite in SUITES is a thin
driver: it draws its inputs from one random.Random and calls the per-input
checks, which tests/test_acceptance.py calls on its pinned inputs.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from typing import NamedTuple

from .cfalgebra import CFAlgebra, SignReversalClass
from .errors import SamplerExhausted
from .kernels import (EIGEN_TOL, matrix_kernel, pants_spaces,
                      sample_generic_weights, total_kernel)
from .moves import (LocalizedElement, are_isomorphic, flip, flip_weights, phi,
                    subdivide, subdivision_weights, theta)
from .qtrace import (LoopSpec, chebyshev, classical_trace, edge_parallel_trace,
                     element_chebyshev, fan_segment, pushoff_pair, segment_weyl,
                     sweep_check, threading_check)
from .representation import WeightSystem, build_rep
from .triangulation import build, octahedron, standard_library

# Sign-reversal classes suite_signrev may draw before SamplerExhausted. On
# genus2_sep 32 of the 512 classes vanish on the whole balanced lattice.
MAX_CLASS_DRAWS = 100


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def image_is_zero(rep, a, tol: float = 0.0) -> bool:
    """mu(a) = 0 within tol, read from the scales of its operator: its terms
    share no entry, so their largest entry is that of mu(a)."""
    return rep.ctx.is_zero(rep.operator(a).scales, tol)


# ---- inputs ----

def exact_torus_weights(alg):
    one = alg.scalars.one()
    return WeightSystem(alg.T, alg.N, u=[one, one, alg.scalars.omega(1)])


def exact_sphere_weights(alg):
    w = alg.scalars.omega(1)
    return WeightSystem(alg.T, alg.N, u=[w, w, w])


def exact_genus2_weights(alg):
    """A +-1 weight system compatible with the center and a non-degenerate
    separating-edge trace."""
    T = alg.T
    one, w = alg.scalars.one(), alg.scalars.omega(1)
    fan = T.fans[0].edges
    two = alg.scalars.from_rational(2)
    tr = edge_parallel_trace(alg, LoopSpec.edge_parallel(T.designated_edge, 1))
    for signs in itertools.product([1, -1], repeat=T.num_edges):
        if signs.count(-1) % 2 == 0:
            continue
        prefix, tot = 1, 0
        for j in range(len(fan)):
            tot += prefix
            prefix *= signs[fan[j]]
        if tot != 0 or prefix != 1:
            continue
        W = WeightSystem(T, alg.N, u=[w if s < 0 else one for s in signs])
        tau = classical_trace(alg, tr, W)
        if tau == two or tau == -two:
            continue
        return W
    raise RuntimeError("no exact genus-2 weight system found")


def random_torus_weights(T, N, rng):
    s = cmath.exp(2j * cmath.pi * rng.random())
    t = cmath.exp(2j * cmath.pi * rng.random())
    return WeightSystem(T, N, u=[cmath.exp(cmath.log(v) / (2 * N))
                                 for v in (s, t, -1 / (s * t))])


def torus_weight_systems(alg, rng):
    """x = (1, 1, -1) exactly, then ten random float systems."""
    return [exact_torus_weights(alg)] + [random_torus_weights(alg.T, alg.N, rng)
                                         for _ in range(10)]


def balanced_exponent(lat, rng):
    """Random balanced exponent with coefficients in [-2, 2] on the basis."""
    k = [0] * lat.algebra.n
    for b in lat.basis:
        c = rng.randint(-2, 2)
        if c:
            k = [a + c * x for a, x in zip(k, b)]
    return tuple(k)


# ---- exact identities ----

def algebra_checks(N, rng):
    """Exact symbolic identities for the quantum torus."""
    algs = {name: CFAlgebra(standard_library(name), N)
            for name in ("torus1", "sphere2", "genus2_sep")}
    checks = []

    ok = True
    for name in ("torus1", "genus2_sep"):
        alg = algs[name]
        for _ in range(100):
            k, l = balanced_exponent(alg.lattice, rng), balanced_exponent(alg.lattice, rng)
            rhs = alg.weyl([a + b for a, b in zip(k, l)]).scale(
                alg.omega(alg.pairing(k, l)))
            ok = ok and alg.weyl(k) * alg.weyl(l) == rhs
    checks.append(Check("weyl-product-law", ok, "200 random balanced pairs, exact"))

    ok = all(alg.central_H(v) == alg.ordered_product(fan.edges).scale(
                 alg.omega(2 - len(fan.edges)))
             for alg in algs.values() for v, fan in enumerate(alg.T.fans))
    checks.append(Check("central-element-coefficient", ok,
                        "H_v = w^(2-u) * fan product, all library triangulations"))

    ok = True
    for alg in algs.values():
        for v in range(alg.T.num_vertices):
            H = alg.central_H(v)
            for _ in range(50):
                m = alg.monomial(balanced_exponent(alg.lattice, rng))
                ok = ok and (H * m - m * H).is_zero()
    checks.append(Check("central-element-commutes", ok,
                        "50 random balanced monomials at every vertex of "
                        "all library triangulations"))

    alg = algs["torus1"]
    ok = alg.weyl_prefix(0, 4) == -4 + 2 and alg.weyl_prefix(0, 2) == -2
    oct_alg = CFAlgebra(octahedron(), N)
    for v, fan in enumerate(oct_alg.T.fans):
        f = fan.edges
        for k0 in range(2, len(f)):
            if f[k0 - 1] != f[0] and f[k0] != f[-1]:
                ok = ok and oct_alg.weyl_prefix(v, k0) == -k0 + 1
    checks.append(Check("prefix-order-cases", ok,
                        "loop, wrap and plain cases of the ordering exponent"))

    inner = (alg.one() + alg.gen(0, 2).scale(alg.omega(-4))
             + (alg.gen(0, 2) * alg.gen(1, 2)).scale(alg.omega(-8)))
    outer = alg.one() + alg.central_H(0).scale(alg.omega(-4))
    checks.append(Check("torus-offdiag-factorization",
                        alg.offdiag_Q(0) == outer * inner,
                        "Q_v = (1 + w^-4 H_v)(1 + w^-4 Z1^2 + w^-8 Z1^2 Z2^2)"))

    ok = True
    for alg in algs.values():
        for v, fan in enumerate(alg.T.fans):
            f = fan.edges
            u = len(f)
            for start in range(u):
                Qv = alg.offdiag_Q(v, start=start)
                Qp = alg.offdiag_Q(v, start=(start - 1) % u)
                last = alg.gen(f[(start - 1) % u], 2)
                tail = alg.one()
                for j in range(u - 1):
                    tail = tail * alg.gen(f[(start + j) % u], 2)
                ok = ok and Qp == (alg.one() + (last * Qv).scale(alg.omega(-4))
                                   - (last * tail).scale(alg.omega(-4 * u)))
    checks.append(Check("offdiag-start-rotation-recursion", ok,
                        "all vertices, all starts"))
    return checks


def subdivision_checks(N, rng):
    T = standard_library("torus1")
    T2, rec = subdivide(T, 0)
    v0 = rec.new_vertex
    m1, m2 = rec.new_edges[0], rec.new_edges[1]
    checks = []
    for NN in (3, 5):
        alg2 = CFAlgebra(T2, NN)
        Q = alg2.offdiag_Q(v0, start=T2.fans[v0].edges.index(m1))
        rhs = alg2.gen(m1, 2 * NN) + alg2.gen(m1, 2 * NN) * alg2.gen(m2, 2 * NN)
        checks.append(Check(f"quantum-binomial-N{NN}", (Q - alg2.one()) ** NN == rhs,
                            "(Q_v0 - 1)^N = Z^2N + Z^2N Z^2N, exact"))

    alg, alg2 = CFAlgebra(T, N), CFAlgebra(T2, N)

    def rand_mono():
        return alg.monomial(balanced_exponent(alg.lattice, rng),
                            alg.omega(rng.randrange(4 * N)))

    ok = True
    for _ in range(100):
        a, b = rand_mono(), rand_mono()
        ok = ok and phi(rec, a * b, alg2) == phi(rec, a, alg2) * phi(rec, b, alg2)
    checks.append(Check("subdivision-homomorphism", ok,
                        "100 random monomial pairs, exact"))

    # representation-level checks over Q(zeta_36) at N=3
    algE = CFAlgebra(T, 3, field_order=36)
    alg2E = CFAlgebra(T2, 3, field_order=36)
    field = alg2E.scalars.field
    W = WeightSystem(T, 3, u=[field.root_pow(0), field.root_pow(0),
                              field.root_pow(3)])
    ulift = []
    for xi in subdivision_weights(rec, W, field.root_pow(12)).x:
        k = next(k for k in range(36) if xi == field.root_pow(k))
        ulift.append(field.root_pow(next(r for r in range(36) if (6 * r - k) % 36 == 0)))
    W2 = WeightSystem(T2, 3, u=ulift)
    rep2 = build_rep(T2, 3, W2, algebra=alg2E)
    checks.append(Check("subdivision-weights-valid", W2.validate()["valid"],
                        "transported weights satisfy the vertex relations"))
    Q = alg2E.offdiag_Q(v0)
    K = matrix_kernel(rep2.apply(Q))
    checks.append(Check("subdivision-kernel-dim", K.dim == 3 and rep2.dim == 9,
                        "dim ker mu'(Q_v0) = dim E = dim E'/N"))
    # the eigenspace of mu'(Q_v0 - 1) at lam is ker mu'(Q_v0 - 1 - lam)
    one = alg2E.one()
    dims = [matrix_kernel(rep2.apply(Q - one - one.scale(-alg2E.omega(8 * k)))).dim
            for k in range(3)]
    checks.append(Check("subdivision-eigenvalues", sorted(dims) == [3, 3, 3],
                        "mu'(Q_v0 - 1) has the N-th roots of -1, equal multiplicities"))
    diff = alg2E.offdiag_Q(rec.vertex_map[0]) - phi(rec, algE.offdiag_Q(0), alg2E)
    checks.append(Check("subdivision-restriction-identity",
                        rep2.ctx.is_zero(rep2.ctx.image_norm(rep2.operator(diff), K.basis)),
                        "mu'(Q'_v) = mu'(Phi(Q_v)) on ker mu'(Q_v0)"))
    return checks


def flip_checks(N):
    T0 = standard_library("sphere2")
    T1, rec_sub = subdivide(T0, 0)
    edge = rec_sub.edge_map[rec_sub.side_edges[0]]
    T2, rec = flip(T1, edge)
    alg1 = CFAlgebra(T1, N)
    alg2 = CFAlgebra(T2, N)
    emap, sq = rec.edge_map, rec.square
    d_old = sq[1]
    w4 = alg1.omega(4)
    checks = []

    def TH(el):
        return theta(rec, el, alg1)

    def loc(el):
        return LocalizedElement(alg1, d_old, el)

    ok = TH(alg2.gen(emap[sq[1]], 2)) == loc(alg1.gen(d_old, -2))
    for role in (2, 4):
        ok = ok and TH(alg2.gen(emap[sq[role]], 2)) == loc(
            (alg1.one() + alg1.gen(d_old, 2).scale(w4)) * alg1.gen(sq[role], 2))
    for role in (3, 5):
        lhs = loc(alg1.one() + alg1.gen(d_old, -2).scale(w4))
        ok = ok and lhs * TH(alg2.gen(emap[sq[role]], 2)) == loc(alg1.gen(sq[role], 2))
    ok = ok and all(TH(alg2.gen(emap[e], 2)) == loc(alg1.gen(e, 2))
                    for e in range(T1.num_edges) if e not in sq.values())
    checks.append(Check("flip-coordinate-change", ok,
                        "all six generator formulas, exact"))

    ok = all(TH(alg2.central_H(rec.vertex_map[v])) == loc(alg1.central_H(v))
             for v in range(T1.num_vertices))
    checks.append(Check("flip-preserves-central-elements", ok, "Theta(H'_v) = H_v"))

    two_corner = [(1, 0), (4, 2), (5, 1), (0, 0), (2, 0), (3, 0), (1, 1),
                  (3, 2), (4, 0), (1, 2), (5, 0), (2, 1), (2, 2), (5, 2),
                  (0, 1), (3, 1), (0, 2), (4, 1)]
    Tc = build(6, two_corner)
    algc = CFAlgebra(Tc, N)
    ok = True
    for d, v in ((1, 0), (7, 0)):
        Tc2, recc = flip(Tc, d)
        algc2 = CFAlgebra(Tc2, N)
        n_old = recc.square[2]
        v_new = recc.vertex_map[v]
        rhs = [LocalizedElement(algc, d, algc.gen(n_old, 2) * algc.offdiag_Q(v, start=s))
               for s in range(len(Tc.fans[v]))]
        ok = ok and any(
            theta(recc, algc2.gen(recc.edge_map[n_old], 2)
                  * algc2.offdiag_Q(v_new, start=s_new), algc) in rhs
            for s_new in range(len(Tc2.fans[v_new])))
    checks.append(Check("flip-offdiag-transfer", ok,
                        "Theta(Z_N'^2 Q'_v) = Z_N^2 Q_v in the two-corner configuration"))

    one = alg1.scalars.one()
    W0 = WeightSystem(T0, N, x=[-one, -one, -one])
    W1 = subdivision_weights(rec_sub, W0, alg1.scalars.from_rational(Fraction(-2)))
    W2 = flip_weights(rec, W1)
    T3, rec2 = flip(T2, rec.edge_map[edge])
    W3 = flip_weights(rec2, W2)
    ok = W2.validate()["valid"] and all(
        W3.x[rec2.edge_map[rec.edge_map[e]]] == W1.x[e]
        for e in range(T1.num_edges))
    checks.append(Check("flip-weights-involutive", ok,
                        "vertex relations preserved; double flip returns x exactly"))
    checks.append(Check("flip-double-isomorphic", are_isomorphic(T1, T3),
                        "flipping twice gives an isomorphic triangulation"))

    xd = W1.x[sq[1]]
    ok = (W2.x[emap[sq[1]]] == xd.inv()
          and all(W2.x[emap[sq[r]]] == (one + xd) * W1.x[sq[r]] for r in (2, 4))
          and all(W2.x[emap[sq[r]]] == (one + xd.inv()).inv() * W1.x[sq[r]]
                  for r in (3, 5)))
    checks.append(Check("flip-classical-table", ok,
                        "shear coordinate change matches the specialized formulas"))
    return checks


# ---- dimension theorems ----

def torus_checks(N, rng, tol):
    alg = CFAlgebra(standard_library("torus1"), N)
    ok_zero = ok_dim = ok_valid = True
    for W in torus_weight_systems(alg, rng):
        ok_valid = ok_valid and W.validate()["valid"]
        rep = build_rep(alg.T, N, W, algebra=alg)
        ok_zero = ok_zero and image_is_zero(rep, alg.offdiag_Q(0), 1e-9)
        ok_dim = ok_dim and total_kernel(rep, tol).dim == N
    return [Check("torus-weights-valid", ok_valid, "x=(1,1,-1) and 10 random systems"),
            Check("torus-annihilates-offdiag", ok_zero, "mu(Q_v) = 0"),
            Check("torus-kernel-dim", ok_dim, f"dim F = {N}")]


def sphere_checks(N):
    T = standard_library("sphere2")
    alg = CFAlgebra(T, N)
    rep = build_rep(T, N, exact_sphere_weights(alg), algebra=alg)
    ok = all(image_is_zero(rep, alg.offdiag_Q(v)) for v in range(3))
    return [Check("sphere-rep-dim", rep.dim == 1, "dim E = 1"),
            Check("sphere-kernel-dim", total_kernel(rep).dim == 1, "dim F = 1"),
            Check("sphere-annihilates-offdiag", ok, "mu(Q_v) = 0 at all three vertices")]


def genus2_checks(reps, tol):
    """dim E = N^4, dim F = N^3 and rho[K1] with N eigenvalues of multiplicity
    dim E / N solving T_N(x) = -trace within EIGEN_TOL, on every
    representation of reps, an iterable read once.  The spectrum is that of
    the pants spaces F was taken in, which fill the space, so rho[K1] is
    diagonalizable; with no spaces the eigen check fails."""
    dims, eigen_ok = [], True
    for rep in reps:
        alg, N, edge = rep.algebra, rep.N, rep.T.designated_edge
        dims.append((rep.dim, total_kernel(rep, tol).dim))
        spaces = pants_spaces(rep, edge, tol)
        eig = [] if spaces is None else spaces.spectrum()
        tau = classical_trace(alg, pushoff_pair(alg, edge)[0], rep.weights)
        eigen_ok = eigen_ok and sorted(m for _, m in eig) == [N ** 3] * N and \
            all(abs(chebyshev(N).eval_scalar(lam) + tau) < EIGEN_TOL for lam, _ in eig)
        del rep, spaces  # so that one F (N^4 x N^3) is alive at a time
    return [Check("genus2-rep-dim", all(d == N ** 4 for d, _ in dims),
                  f"dim E = {N ** 4}, {len(dims)} samples"),
            Check("genus2-kernel-dim", all(f == N ** 3 for _, f in dims),
                  f"dim F = {N ** 3}"),
            Check("genus2-eigen-structure", eigen_ok,
                  f"{N} eigenvalues solving T_N(x) = -trace, multiplicity {N ** 3}")]


def suite_genus2(N, rng, tol):
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, N)
    weights = [sample_generic_weights(T, N, rng) for _ in range(20)]
    return genus2_checks((build_rep(T, N, W, algebra=alg) for W in weights), tol)


# ---- sweep and threading ----

def sweep_checks(rep, tol):
    """The sweep identity for the separating loop of a genus-2
    representation.  [Z^seg](rho K1 - rho K2) = mu(Q_v) is checked as
    mu([Z^seg](K1 - K2) - Q_v) = 0, since mu is multiplicative."""
    T, alg = rep.T, rep.algebra
    edge = T.designated_edge
    report = sweep_check(rep, edge, tol)
    tr1, tr2 = pushoff_pair(alg, edge)
    fan = T.fans[0].edges
    Q = alg.offdiag_Q(0, start=(fan.index(edge) + 1) % len(fan))
    identity = segment_weyl(alg, fan_segment(T, edge, 1)) * (tr1 - tr2) - Q
    return [Check("sweep-restriction-agrees", report["restriction_zero"],
                  "the two push-offs coincide on the total kernel"),
            Check("sweep-kernel-equality",
                  report["kernel_equals_total"] and report["kernel_dim"] == rep.N ** 3,
                  f"ker difference = total kernel, dim {report['kernel_dim']}"),
            Check("sweep-offdiag-identity", image_is_zero(rep, identity, 1e-7),
                  "[Z^seg](rho K1 - rho K2) = mu(Q_v)")]


def suite_sweep(N, rng, tol):
    T = standard_library("genus2_sep")
    return sweep_checks(build_rep(T, N, sample_generic_weights(T, N, rng)), tol)


def threading_checks(N, rng):
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, N)
    checks = []
    rep = build_rep(T, N, exact_genus2_weights(alg), algebra=alg)
    ok = all(threading_check(rep, LoopSpec.edge_parallel(T.designated_edge, side))["passed"]
             for side in (1, 2))
    checks.append(Check("threading-exact", ok,
                        "T_N(rho[K]) = -trace * Id exactly, both push-offs"))
    ok = True
    worst = 0.0
    for _ in range(20):
        rep = build_rep(T, N, sample_generic_weights(T, N, rng), algebra=alg)
        r = threading_check(rep, LoopSpec.edge_parallel(T.designated_edge, 1),
                            tol=EIGEN_TOL)
        ok = ok and r["passed"]
        worst = max(worst, r["residual"])
    checks.append(Check("threading-float", ok,
                        f"20 random weight systems, residual <= {worst:.2e}"))
    algT = CFAlgebra(standard_library("torus1"), N)
    repT = build_rep(algT.T, N, exact_torus_weights(algT), algebra=algT)
    TN = repT.operator(element_chebyshev(algT.central_H(0), N))
    ok = repT.ctx.scalar_of(TN) == chebyshev(N).eval_scalar(-algT.omega(4))
    checks.append(Check("threading-central-scalar", ok,
                        "T_N of a central image is the expected scalar, exact"))
    return checks


# ---- sign reversal ----

def signrev_checks(rep, eps, tol):
    """An admissible sign-reversal class eps against a representation."""
    alg, ctx = rep.algebra, rep.ctx
    Q, H = alg.offdiag_Q(0), alg.central_H(0)
    rep2 = rep.precompose_sign_reversal(eps)
    s, s2 = ctx.scalar_of(rep.operator(H), 1e-12), ctx.scalar_of(rep2.operator(H), 1e-12)
    ok = (rep2.weights.x == rep.weights.x
          and s is not None and s2 is not None and ctx.is_zero(s - s2, 1e-12)
          and total_kernel(rep, tol).equals(total_kernel(rep2, tol), tol))
    k = next((tuple(b) for b in rep.lattice.basis if eps.value(b)), None)
    flips = k is not None and ctx.is_zero(rep2.cocycle(k) + rep.cocycle(k), 1e-12)
    return [Check("chebyshev-odd-degrees",
                  all(chebyshev(n).eval_scalar(-x) == -chebyshev(n).eval_scalar(x)
                      for n in range(1, 12, 2) for x in range(n + 1)),
                  "T_N has only odd-degree terms for odd N"),
            Check("signrev-fixes-offdiag", eps.is_admissible() and eps.apply(Q) == Q,
                  "admissible class fixes Q_v"),
            Check("signrev-invariants", bool(ok),
                  "x_i, H_v scalar and total kernel unchanged under precomposition"),
            Check("signrev-flips-odd-monomials", flips,
                  "cocycle negated on a class-odd monomial")]


def suite_signrev(N, rng, tol):
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, N)
    basis = alg.lattice.basis
    for _ in range(MAX_CLASS_DRAWS):
        eps = SignReversalClass(T, [rng.randint(0, 1) for _ in range(T.num_edges)])
        if any(eps.value(b) for b in basis):
            break
    else:
        raise SamplerExhausted(
            f"no class odd on the balanced lattice in {MAX_CLASS_DRAWS} draws")
    rep = build_rep(T, N, sample_generic_weights(T, N, rng), algebra=alg)
    return signrev_checks(rep, eps, tol)


SUITES = {
    "algebra": lambda N, rng, tol: algebra_checks(N, rng),
    "torus": torus_checks,
    "sphere": lambda N, rng, tol: sphere_checks(N),
    "genus2": suite_genus2,
    "subdivision": lambda N, rng, tol: subdivision_checks(N, rng),
    "flip": lambda N, rng, tol: flip_checks(N),
    "sweep": suite_sweep,
    "threading": lambda N, rng, tol: threading_checks(N, rng),
    "signrev": suite_signrev,
}
