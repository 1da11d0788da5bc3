"""Command-line front end: triangulation info, kernel reports, named suites.

Exit codes: 0 = all checks pass, 1 = a check failed, 2 = input error.
Reports are deterministic for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

import numpy as np

from . import __version__
from .cfalgebra import BalancedLattice, CFAlgebra, SignReversalClass
from .errors import ParseError, SkeinrepError
from .kernels import (eigen_analysis, matrix_kernel, offdiag_kernel,
                      sample_generic_weights, total_kernel)
from .moves import (LocalizedElement, are_isomorphic, flip, flip_weights,
                    make_combinatorial, phi, subdivide, subdivision_weights,
                    theta)
from .qtrace import (LoopSpec, chebyshev, classical_trace, corner_arc_factor,
                     edge_parallel_trace, element_chebyshev, fan_segment,
                     segment_weyl, sweep_check, threading_check)
from .representation import WeightSystem, build_rep
from .triangulation import Triangulation, octahedron, standard_library


SUITES = ("algebra", "torus", "sphere", "genus2", "subdivision", "flip",
          "sweep", "threading", "signrev")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skeinrep",
        description="balanced quantum-torus algebras of triangulated surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="triangulation report")
    p_info.add_argument("--triangulation", required=False,
                        help="triangulation JSON file")
    p_info.add_argument("--name", choices=("sphere2", "torus1", "genus2_sep"),
                        help="standard library triangulation")
    p_info.add_argument("--N", type=int, default=3)
    p_info.add_argument("--out", help="write the JSON report here")

    p_ker = sub.add_parser("kernels", help="off-diagonal kernel dimensions")
    p_ker.add_argument("--triangulation")
    p_ker.add_argument("--name", choices=("sphere2", "torus1", "genus2_sep"))
    p_ker.add_argument("--weights", help="weights JSON file; random if omitted")
    p_ker.add_argument("--N", type=int, default=3)
    p_ker.add_argument("--mode", choices=("exact", "float"),
                       help="must match the weights file; float without one")
    p_ker.add_argument("--tol", type=float, default=1e-8)
    p_ker.add_argument("--seed", type=int, default=0)
    p_ker.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--N", type=int, default=3)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=float, default=1e-8)
    p_ver.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.N % 2 == 0 or args.N < 3:
            raise ParseError("N must be odd and >= 3")
        if args.command == "info":
            return cmd_info(args)
        if args.command == "kernels":
            return cmd_kernels(args)
        return cmd_verify(args)
    except SkeinrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load_triangulation(args) -> Triangulation:
    if getattr(args, "name", None):
        return standard_library(args.name)
    if getattr(args, "triangulation", None):
        with open(args.triangulation) as fh:
            return Triangulation.from_json(fh.read())
    raise ParseError("provide --triangulation FILE or --name NAME")


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, sort_keys=True, indent=1)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_info(args) -> int:
    T = _load_triangulation(args)
    alg = CFAlgebra(T, args.N)
    lat = BalancedLattice(alg)
    report = {
        "genus": T.genus,
        "vertices": T.num_vertices,
        "edges": T.num_edges,
        "faces": T.num_faces,
        "combinatorial": T.is_combinatorial(),
        "sigma": [list(r) for r in T.sigma_matrix()],
        "fans": [list(f.edges) for f in T.vertex_fans()],
        "balanced_rank": lat.rank,
        "balanced_index": lat.index_in_ZE,
    }
    print(f"g={T.genus} p={T.num_vertices} E={T.num_edges} F={T.num_faces} "
          f"combinatorial={T.is_combinatorial()}")
    print("sigma:")
    for row in T.sigma_matrix():
        print("  " + " ".join(f"{v:3d}" for v in row))
    for fan in T.vertex_fans():
        print(f"fan v{fan.vertex}: {list(fan.edges)}")
    print(f"balanced lattice: rank {lat.rank}, index {lat.index_in_ZE} in Z^E")
    _emit(report, args.out)
    return 0


def cmd_kernels(args) -> int:
    T = _load_triangulation(args)
    N = args.N
    if args.weights:
        with open(args.weights) as fh:
            W = WeightSystem.from_json(T, fh.read())
        if W.N != N:
            raise ParseError(f"weights file has N={W.N} but --N is {N}")
        if args.mode is not None and args.mode != W.mode:
            raise ParseError(f"weights file is {W.mode} but --mode is {args.mode}")
    elif args.mode == "exact":
        raise ParseError("--mode exact needs --weights")
    elif T.num_vertices == 1:
        W = sample_generic_weights(T, N, random.Random(args.seed))
    else:
        raise ParseError("provide --weights for triangulations with several vertices")
    vrep = W.validate()
    if not vrep["valid"]:
        report = {"weights_valid": False,
                  "residuals": [v["sum_residual"] for v in vrep["vertices"]]}
        _emit(report, args.out)
        return 1
    rep = build_rep(T, N, W)
    per_vertex = [offdiag_kernel(rep, v, tol=args.tol).dim
                  for v in range(T.num_vertices)]
    F = total_kernel(rep, tol=args.tol)
    g = T.genus
    bound = N ** (3 * (g - 1)) if g >= 2 else (N if g == 1 else 1)
    eigen = []
    if T.designated_edge is not None and rep.weights.mode == "float":
        tr = edge_parallel_trace(rep.algebra,
                                 LoopSpec.edge_parallel(T.designated_edge, 1))
        for lam, mult in eigen_analysis(rep.apply(tr), "float"):
            eigen.append({"value": [lam.real, lam.imag], "multiplicity": mult})
    report = {
        "dim": rep.dim,
        "per_vertex_dims": per_vertex,
        "total_dim": F.dim,
        "bound": bound,
        "eigen": eigen,
        "checks": {
            "weights_valid": True,
            "dimension_bound": F.dim >= bound,
        },
    }
    _emit(report, args.out)
    return 0 if report["checks"]["dimension_bound"] else 1


# ---- verification suites ----

class Log:
    def __init__(self):
        self.checks = []

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append({"name": name, "passed": bool(passed),
                            "detail": detail})
        status = "PASS" if passed else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)


def exact_torus_weights(alg):
    one = alg.scalars.one()
    return WeightSystem(alg.T, alg.N, u=[one, one, alg.scalars.omega(1)])


def exact_genus2_weights(alg):
    """A +-1 weight system compatible with the center and a non-degenerate
    separating-edge trace."""
    T = alg.T
    one, w = alg.scalars.one(), alg.scalars.omega(1)
    fan = T.fans[0].edges
    two = alg.scalars.from_rational(2)
    loop = LoopSpec.edge_parallel(T.designated_edge, 1)
    tr = edge_parallel_trace(alg, loop)
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
    raise RuntimeError("no exact weight system found")


def suite_algebra(N: int, seed: int, tol: float, log: Log):
    """Exact symbolic identities for the quantum torus."""
    rng = random.Random(seed)
    algs = {name: CFAlgebra(standard_library(name), N)
            for name in ("torus1", "sphere2", "genus2_sep")}

    def rand_mono(alg, lat):
        k = [0] * alg.n
        for b in lat.basis:
            c = rng.randint(-2, 2)
            if c:
                k = [a + c * x for a, x in zip(k, b)]
        return tuple(k)

    ok = True
    for name in ("torus1", "genus2_sep"):
        alg = algs[name]
        lat = BalancedLattice(alg)
        for _ in range(100):
            k, l = rand_mono(alg, lat), rand_mono(alg, lat)
            lhs = alg.weyl(k) * alg.weyl(l)
            rhs = alg.weyl([a + b for a, b in zip(k, l)]).scale(
                alg.omega(alg.pairing(k, l)))
            ok = ok and lhs == rhs
    log.add("weyl-product-law", ok, "200 random balanced pairs, exact")

    ok = True
    for alg in algs.values():
        for v in range(alg.T.num_vertices):
            fan = alg.T.fans[v].edges
            prod = alg.ordered_product(fan)
            ok = ok and alg.central_H(v) == prod.scale(alg.omega(2 - len(fan)))
    log.add("central-element-coefficient", ok,
            "H_v = w^(2-u) * fan product, all library triangulations")

    ok = True
    for name in ("torus1", "genus2_sep"):
        alg = algs[name]
        lat = BalancedLattice(alg)
        H = alg.central_H(0)
        for _ in range(50):
            m = alg.monomial(rand_mono(alg, lat))
            ok = ok and (H * m - m * H).is_zero()
    log.add("central-element-commutes", ok, "100 random balanced monomials")

    alg = algs["torus1"]
    fan = alg.T.fans[0].edges
    ok = alg.weyl_prefix(0, 4) == -4 + 2 and alg.weyl_prefix(0, 2) == -2
    oct_alg = CFAlgebra(octahedron(), N)
    for v in range(oct_alg.T.num_vertices):
        f = oct_alg.T.fans[v].edges
        for k0 in range(2, len(f)):
            if f[k0 - 1] != f[0] and f[k0 % len(f)] != f[-1]:
                ok = ok and oct_alg.weyl_prefix(v, k0) == -k0 + 1
    log.add("prefix-order-cases", ok,
            "loop, wrap and plain cases of the ordering exponent")

    Q = alg.offdiag_Q(0)
    inner = (alg.one() + alg.gen(0, 2).scale(alg.omega(-4))
             + (alg.gen(0, 2) * alg.gen(1, 2)).scale(alg.omega(-8)))
    outer = alg.one() + alg.central_H(0).scale(alg.omega(-4))
    log.add("torus-offdiag-factorization", Q == outer * inner,
            "Q_v = (1 + w^-4 H_v)(1 + w^-4 Z1^2 + w^-8 Z1^2 Z2^2)")

    ok = True
    for name, alg in algs.items():
        for v in range(alg.T.num_vertices):
            f = alg.T.fans[v].edges
            u = len(f)
            for start in range(u):
                Qv = alg.offdiag_Q(v, start=start)
                Qp = alg.offdiag_Q(v, start=(start - 1) % u)
                last = alg.gen(f[(start - 1) % u], 2)
                tail = alg.one()
                for j in range(u - 1):
                    tail = tail * alg.gen(f[(start + j) % u], 2)
                rhs = (alg.one() + (last * Qv).scale(alg.omega(-4))
                       - (last * tail).scale(alg.omega(-4 * u)))
                ok = ok and Qp == rhs
    log.add("offdiag-start-rotation-recursion", ok, "all vertices, all starts")


def suite_torus(N: int, seed: int, tol: float, log: Log):
    T = standard_library("torus1")
    alg = CFAlgebra(T, N)
    rng = random.Random(seed)
    systems = [exact_torus_weights(alg)]
    import cmath
    for _ in range(10):
        s = cmath.exp(2j * cmath.pi * rng.random())
        t = cmath.exp(2j * cmath.pi * rng.random())
        systems.append(WeightSystem(T, N, u=[
            cmath.exp(cmath.log(v) / (2 * N)) for v in (s, t, -1 / (s * t))],
            mode="float"))
    ok_zero = ok_dim = ok_valid = True
    for W in systems:
        ok_valid = ok_valid and W.validate()["valid"]
        rep = build_rep(T, N, W, algebra=alg if W.mode == "exact" else None)
        ok_zero = ok_zero and rep.ctx.is_zero(rep.apply(alg.offdiag_Q(0)), 1e-9)
        ok_dim = ok_dim and total_kernel(rep, tol).dim == N
    log.add("torus-weights-valid", ok_valid, "x=(1,1,-1) and 10 random systems")
    log.add("torus-annihilates-offdiag", ok_zero, "mu(Q_v) = 0")
    log.add("torus-kernel-dim", ok_dim, f"dim F = {N}")


def suite_sphere(N: int, seed: int, tol: float, log: Log):
    T = standard_library("sphere2")
    alg = CFAlgebra(T, N)
    w = alg.scalars.omega(1)
    rep = build_rep(T, N, WeightSystem(T, N, u=[w, w, w]), algebra=alg)
    log.add("sphere-rep-dim", rep.dim == 1, "dim E = 1")
    log.add("sphere-kernel-dim", total_kernel(rep).dim == 1, "dim F = 1")
    ok = all(rep.ctx.is_zero(rep.apply(alg.offdiag_Q(u))) for u in range(3))
    log.add("sphere-annihilates-offdiag", ok, "mu(Q_v) = 0 at all three vertices")


def suite_genus2(N: int, seed: int, tol: float, log: Log,
                 samples: int = 20):
    T = standard_library("genus2_sep")
    rng = random.Random(seed)
    dims_ok = kernel_ok = eigen_ok = True
    expected_dim = N ** 4
    expected_kernel = N ** 3
    for _ in range(samples):
        W = sample_generic_weights(T, N, rng)
        rep = build_rep(T, N, W)
        dims_ok = dims_ok and rep.dim == expected_dim
        F = total_kernel(rep, tol)
        kernel_ok = kernel_ok and F.dim == expected_kernel
        tr = edge_parallel_trace(rep.algebra,
                                 LoopSpec.edge_parallel(T.designated_edge, 1))
        tau = classical_trace(rep.algebra, tr, W)
        try:
            eig = eigen_analysis(rep.apply(tr), "float", tol=1e-6)
        except SkeinrepError:
            eigen_ok = False
            continue
        mults = sorted(m for _, m in eig)
        vals_ok = all(abs(chebyshev(N).eval_scalar(lam) + tau) < 1e-6
                      for lam, _ in eig)
        eigen_ok = eigen_ok and len(eig) == N and \
            mults == [expected_dim // N] * N and vals_ok
    log.add("genus2-rep-dim", dims_ok, f"dim E = {expected_dim}, {samples} samples")
    log.add("genus2-kernel-dim", kernel_ok, f"dim F = {expected_kernel}")
    log.add("genus2-eigen-structure", eigen_ok,
            f"{N} eigenvalues solving T_N(x) = -trace, multiplicity {expected_dim // N}")


def suite_subdivision(N: int, seed: int, tol: float, log: Log):
    rng = random.Random(seed)
    T = standard_library("torus1")
    T2, rec = subdivide(T, 0)
    for NN in (3, 5):
        alg2 = CFAlgebra(T2, NN)
        v0 = rec.new_vertex
        start = T2.fans[v0].edges.index(rec.new_edges[0])
        Q = alg2.offdiag_Q(v0, start=start)
        m1, m2 = rec.new_edges[0], rec.new_edges[1]
        lhs = (Q - alg2.one()) ** NN
        rhs = alg2.gen(m1, 2 * NN) + alg2.gen(m1, 2 * NN) * alg2.gen(m2, 2 * NN)
        log.add(f"quantum-binomial-N{NN}", lhs == rhs,
                "(Q_v0 - 1)^N = Z^2N + Z^2N Z^2N, exact")

    alg = CFAlgebra(T, N)
    alg2 = CFAlgebra(T2, N)
    ok = True
    lat = BalancedLattice(alg)

    def rand_mono():
        k = [0] * alg.n
        for b in lat.basis:
            c = rng.randint(-2, 2)
            if c:
                k = [a + c * x for a, x in zip(k, b)]
        return alg.monomial(k, alg.omega(rng.randrange(4 * N)))

    for _ in range(100):
        a, b = rand_mono(), rand_mono()
        ok = ok and phi(rec, a * b, alg2) == phi(rec, a, alg2) * phi(rec, b, alg2)
    log.add("subdivision-homomorphism", ok, "100 random monomial pairs, exact")

    # representation-level checks over Q(zeta_36) at N=3
    algE = CFAlgebra(T, 3, field_order=36)
    alg2E = CFAlgebra(T2, 3, field_order=36)
    field = alg2E.scalars.field
    W = WeightSystem(T, 3, u=[field.root_pow(0), field.root_pow(0),
                              field.root_pow(3)])
    W2x = subdivision_weights(rec, W, field.root_pow(12))
    ulift = []
    for xi in W2x.x:
        k = next(k for k in range(36) if xi == field.root_pow(k))
        r = next(r for r in range(36) if (6 * r - k) % 36 == 0)
        ulift.append(field.root_pow(r))
    W2 = WeightSystem(T2, 3, u=ulift)
    rep2 = build_rep(T2, 3, W2, algebra=alg2E)
    log.add("subdivision-weights-valid", W2.validate()["valid"],
            "transported weights satisfy the vertex relations")
    v0 = rec.new_vertex
    M = rep2.apply(alg2E.offdiag_Q(v0))
    K = matrix_kernel(M, "exact")
    log.add("subdivision-kernel-dim", K.dim == 3 and rep2.dim == 9,
            "dim ker mu'(Q_v0) = dim E = dim E'/N")
    shifted = rep2.ctx.sub(M, rep2.ctx.identity(M, 1))
    cands = [-alg2E.omega(8 * k) for k in range(3)]
    try:
        eig = eigen_analysis(shifted, "exact", candidates=cands)
        ok = sorted(m for _, m in eig) == [3, 3, 3]
    except SkeinrepError:
        ok = False
    log.add("subdivision-eigenvalues", ok,
            "mu'(Q_v0 - 1) has the N-th roots of -1, equal multiplicities")
    vold = rec.vertex_map[0]
    PhiQ = rep2.apply(phi(rec, algE.offdiag_Q(0), alg2E))
    Mnew = rep2.apply(alg2E.offdiag_Q(vold))
    ok = rep2.ctx.is_zero(rep2.ctx.image(rep2.ctx.sub(Mnew, PhiQ), K.basis))
    log.add("subdivision-restriction-identity", ok,
            "mu'(Q'_v) = mu'(Phi(Q_v)) on ker mu'(Q_v0)")


def suite_flip(N: int, seed: int, tol: float, log: Log):
    from fractions import Fraction
    T0 = standard_library("sphere2")
    T1, rec_sub = subdivide(T0, 0)
    edge = rec_sub.edge_map[rec_sub.side_edges[0]]
    T2, rec = flip(T1, edge)
    alg1 = CFAlgebra(T1, N)
    alg2 = CFAlgebra(T2, N)
    emap, sq = rec.edge_map, rec.square
    d_old = sq[1]
    w4 = alg1.omega(4)

    def TH(el):
        return theta(rec, el, alg1)

    ok = TH(alg2.gen(emap[sq[1]], 2)) == \
        LocalizedElement(alg1, d_old, alg1.gen(d_old, -2))
    for role in (2, 4):
        ok = ok and TH(alg2.gen(emap[sq[role]], 2)) == LocalizedElement(
            alg1, d_old,
            (alg1.one() + alg1.gen(d_old, 2).scale(w4)) * alg1.gen(sq[role], 2))
    for role in (3, 5):
        lhs = LocalizedElement(alg1, d_old,
                               alg1.one() + alg1.gen(d_old, -2).scale(w4))
        ok = ok and lhs * TH(alg2.gen(emap[sq[role]], 2)) == \
            LocalizedElement(alg1, d_old, alg1.gen(sq[role], 2))
    ok = ok and all(
        TH(alg2.gen(emap[e], 2)) == LocalizedElement(alg1, d_old, alg1.gen(e, 2))
        for e in range(T1.num_edges) if e not in sq.values())
    log.add("flip-coordinate-change", ok, "all six generator formulas, exact")

    ok = all(TH(alg2.central_H(rec.vertex_map[v]))
             == LocalizedElement(alg1, d_old, alg1.central_H(v))
             for v in range(T1.num_vertices))
    log.add("flip-preserves-central-elements", ok, "Theta(H'_v) = H_v")

    from .triangulation import build as _build
    two_corner = [(1, 0), (4, 2), (5, 1), (0, 0), (2, 0), (3, 0), (1, 1),
                  (3, 2), (4, 0), (1, 2), (5, 0), (2, 1), (2, 2), (5, 2),
                  (0, 1), (3, 1), (0, 2), (4, 1)]
    Tc = _build(6, two_corner)
    algc = CFAlgebra(Tc, N)
    ok = True
    for d, v in ((1, 0), (7, 0)):
        Tc2, recc = flip(Tc, d)
        algc2 = CFAlgebra(Tc2, N)
        n_old = recc.square[2]
        n_new = recc.edge_map[n_old]
        v_new = recc.vertex_map[v]
        hit = False
        for s_new in range(len(Tc2.fans[v_new])):
            lhs = theta(recc, algc2.gen(n_new, 2)
                        * algc2.offdiag_Q(v_new, start=s_new), algc)
            for s_old in range(len(Tc.fans[v])):
                rhs = LocalizedElement(
                    algc, d, algc.gen(n_old, 2) * algc.offdiag_Q(v, start=s_old))
                if lhs == rhs:
                    hit = True
        ok = ok and hit
    log.add("flip-offdiag-transfer", ok,
            "Theta(Z_N'^2 Q'_v) = Z_N^2 Q_v in the two-corner configuration")

    one = alg1.scalars.one()
    W0 = WeightSystem(T0, N, x=[-one, -one, -one])
    W1 = subdivision_weights(rec_sub, W0, alg1.scalars.from_rational(Fraction(-2)))
    W2 = flip_weights(rec, W1)
    T3, rec2 = flip(T2, rec.edge_map[edge])
    W3 = flip_weights(rec2, W2)
    ok = W2.validate()["valid"] and all(
        W3.x[rec2.edge_map[rec.edge_map[e]]] == W1.x[e]
        for e in range(T1.num_edges))
    log.add("flip-weights-involutive", ok,
            "vertex relations preserved; double flip returns x exactly")
    log.add("flip-double-isomorphic", are_isomorphic(T1, T3),
            "flipping twice gives an isomorphic triangulation")

    xd = W1.x[sq[1]]
    ok = (W2.x[emap[sq[1]]] == xd.inv()
          and all(W2.x[emap[sq[r]]] == (one + xd) * W1.x[sq[r]] for r in (2, 4))
          and all(W2.x[emap[sq[r]]] == (one + xd.inv()).inv() * W1.x[sq[r]]
                  for r in (3, 5)))
    log.add("flip-classical-table", ok,
            "shear coordinate change matches the specialized formulas")


def suite_sweep(N: int, seed: int, tol: float, log: Log):
    T = standard_library("genus2_sep")
    rng = random.Random(seed)
    W = sample_generic_weights(T, N, rng)
    rep = build_rep(T, N, W)
    report = sweep_check(rep, T.designated_edge, tol)
    log.add("sweep-restriction-agrees", report["restriction_zero"],
            "the two push-offs coincide on the total kernel")
    log.add("sweep-kernel-equality", report["kernel_equals_total"],
            f"ker difference = total kernel, dim {report['kernel_dim']}")
    alg = rep.algebra
    fan = T.fans[0].edges
    pos = [i for i, x in enumerate(fan) if x == T.designated_edge]
    seg = fan_segment(T, T.designated_edge, 1)
    tr1 = edge_parallel_trace(alg, LoopSpec.edge_parallel(T.designated_edge, 1))
    tr2 = edge_parallel_trace(alg, LoopSpec.edge_parallel(T.designated_edge, 2))
    G = rep.apply(segment_weyl(alg, seg))
    Q = rep.apply(alg.offdiag_Q(0, start=(pos[0] + 1) % len(fan)))
    diff = G @ (rep.apply(tr1) - rep.apply(tr2))
    log.add("sweep-offdiag-identity", bool(np.abs(diff - Q).max() < 1e-7),
            "[Z^seg](rho K1 - rho K2) = mu(Q_v)")


def suite_threading(N: int, seed: int, tol: float, log: Log):
    T = standard_library("genus2_sep")
    if N == 3:
        alg = CFAlgebra(T, 3)
        W = exact_genus2_weights(alg)
        rep = build_rep(T, 3, W, algebra=alg)
        ok = True
        for side in (1, 2):
            r = threading_check(rep, LoopSpec.edge_parallel(T.designated_edge, side))
            ok = ok and r["passed"]
        log.add("threading-exact", ok,
                "T_N(rho[K]) = -trace * Id exactly, both push-offs")
    rng = random.Random(seed)
    ok = True
    worst = 0.0
    for _ in range(20):
        W = sample_generic_weights(T, N, rng)
        rep = build_rep(T, N, W)
        r = threading_check(rep, LoopSpec.edge_parallel(T.designated_edge, 1),
                            tol=1e-6)
        ok = ok and r["passed"]
        worst = max(worst, r["residual"])
    log.add("threading-float", ok, f"20 random weight systems, residual <= {worst:.2e}")
    TT = standard_library("torus1")
    algT = CFAlgebra(TT, N)
    repT = build_rep(TT, N, exact_torus_weights(algT), algebra=algT)
    TN = repT.apply(element_chebyshev(algT.central_H(0), N))
    ok = repT.ctx.scalar_of(TN) == chebyshev(N).eval_scalar(-algT.omega(4))
    log.add("threading-central-scalar", ok,
            "T_N of a central image is the expected scalar, exact")


def suite_signrev(N: int, seed: int, tol: float, log: Log):
    log.add("chebyshev-odd-degrees",
            all(chebyshev(n).odd_degrees_only() for n in range(1, 12, 2)),
            "T_N has only odd-degree terms for odd N")
    T = standard_library("genus2_sep")
    alg = CFAlgebra(T, N)
    rng = random.Random(seed)
    eps = SignReversalClass(T, [rng.randint(0, 1) for _ in range(T.num_edges)])
    ok = eps.is_admissible()
    Q = alg.offdiag_Q(0)
    log.add("signrev-fixes-offdiag", ok and eps.apply(Q) == Q,
            "admissible class fixes Q_v")
    W = sample_generic_weights(T, N, rng)
    rep = build_rep(T, N, W)
    rep2 = rep.precompose_sign_reversal(eps)
    ok = rep2.weights.x == rep.weights.x
    M1, M2 = rep.apply(alg.central_H(0)), rep2.apply(alg.central_H(0))
    ok = ok and np.abs(M1 - M2).max() < 1e-12
    F1 = total_kernel(rep, tol)
    F2 = total_kernel(rep2, tol)
    ok = ok and F1.equals(F2, tol)
    log.add("signrev-invariants", ok,
            "x_i, H_v scalar and total kernel unchanged under precomposition")
    k = next(b for b in BalancedLattice(alg).basis if eps.value(b))
    log.add("signrev-flips-odd-monomials",
            abs(rep2.cocycle(tuple(k)) + rep.cocycle(tuple(k))) < 1e-12,
            "cocycle negated on a class-odd monomial")


def cmd_verify(args) -> int:
    log = Log()
    suite = {
        "algebra": suite_algebra, "torus": suite_torus, "sphere": suite_sphere,
        "genus2": suite_genus2, "subdivision": suite_subdivision,
        "flip": suite_flip, "sweep": suite_sweep, "threading": suite_threading,
        "signrev": suite_signrev,
    }[args.suite]
    suite(args.N, args.seed, args.tol, log)
    report = {"suite": args.suite, "N": args.N, "seed": args.seed,
              "checks": log.checks, "passed": log.passed}
    if args.out:
        _emit(report, args.out)
    print(("all checks passed" if log.passed else "some checks FAILED"))
    return 0 if log.passed else 1


if __name__ == "__main__":
    sys.exit(main())
