"""The three benchmark workloads: set-up, one job, and its checks.

A workload object builds every job input from the seed when it is created
(set-up).  `job(x)` does only the skeinrep work on one input and is what the
harness times; `check(x, out)` verifies the outputs against theory after the
clock has stopped and returns a list of failures.

skeinrep callables are always reached through their modules
(`kernels.total_kernel`, not a local name) so that the tracer's wrappers are
the ones called in a traced run.

`min_jobs` is the number of jobs every run times, whatever `--seconds` says:
at least two, so that no median rests on one job, and enough that a run
spans some 30 s or more, over which this host's drift partly averages out.
"""

from __future__ import annotations

import itertools
import random

from skeinrep import cfalgebra, kernels, moves, qtrace, representation
from skeinrep.triangulation import standard_library

from checks import (check_all_true, check_eigen_clusters, check_equal,
                    check_report, check_threaded_terms)

# Tolerances of tests/test_acceptance.py.
RANK_TOL = 1e-8
EIGEN_TOL = 1e-6

GENUS2 = "genus2_sep"


class FloatGenus2:
    """genus2_sep at N=5 in float mode (dim E = 625): each job draws one
    generic weight system and certifies it: build_rep, total_kernel,
    eigen-analysis of rho[K1], sweep_check and threading_check on the
    separating loop."""

    name = "float_g2_n5"
    N = 5
    max_jobs = 40
    min_jobs = 2

    def __init__(self, seed: int):
        self.T = standard_library(GENUS2)
        self.alg = cfalgebra.CFAlgebra(self.T, self.N)
        self.loop = qtrace.LoopSpec.edge_parallel(self.T.designated_edge, 1)
        rng = random.Random(seed)
        # A job's input is the seed of its weight draw.
        self.inputs = [rng.getrandbits(64) for _ in range(self.max_jobs)]

    def job(self, draw_seed):
        T, N, alg = self.T, self.N, self.alg
        W = kernels.sample_generic_weights(T, N, random.Random(draw_seed))
        rep = representation.build_rep(T, N, W, algebra=alg)
        F = kernels.total_kernel(rep, RANK_TOL)
        tr = qtrace.edge_parallel_trace(alg, self.loop)
        clusters = kernels.eigen_analysis(rep.apply(tr), "float", tol=EIGEN_TOL)
        sweep = qtrace.sweep_check(rep, T.designated_edge, RANK_TOL)
        thread = qtrace.threading_check(rep, self.loop, tol=EIGEN_TOL)
        return {"W": W, "dim": rep.dim, "F": F.dim, "trace": tr,
                "clusters": clusters, "sweep": sweep, "thread": thread}

    def check(self, draw_seed, out) -> list[str]:
        N = self.N
        tau = qtrace.classical_trace(self.alg, out["trace"], out["W"])
        return (check_equal("dim E", out["dim"], N ** 4)
                + check_equal("dim F", out["F"], N ** 3)
                + check_eigen_clusters(out["clusters"], complex(tau), N, N ** 3,
                                       EIGEN_TOL)
                + check_report("sweep", out["sweep"])
                + check_equal("sweep kernel dim", out["sweep"]["kernel_dim"], N ** 3)
                + check_report("threading", out["thread"]))


def exact_genus2_systems(alg):
    """All +-1 weight systems of genus2_sep (u_i in {1, omega}) that satisfy
    the vertex relations and have a non-degenerate separating-loop trace, in
    the enumeration order of exact_genus2_weights, each with that trace."""
    T = alg.T
    one, w = alg.scalars.one(), alg.scalars.omega(1)
    two = alg.scalars.from_rational(2)
    fan = T.fans[0].edges
    tr = qtrace.edge_parallel_trace(
        alg, qtrace.LoopSpec.edge_parallel(T.designated_edge, 1))
    out = []
    for signs in itertools.product([1, -1], repeat=T.num_edges):
        if signs.count(-1) % 2 == 0:
            continue
        prefix, tot = 1, 0
        for e in fan:
            tot += prefix
            prefix *= signs[e]
        if tot != 0 or prefix != 1:
            continue
        W = representation.WeightSystem(T, alg.N, u=[w if s < 0 else one for s in signs])
        tau = qtrace.classical_trace(alg, tr, W)
        if tau == two or tau == -two:
            continue
        out.append((W, tau))
    return out


class ExactGenus2:
    """genus2_sep at N=3 over Q(zeta_12) (dim 81): each job certifies one of
    the 68 exact +-1 weight systems, none twice in a run: total_kernel,
    threading_check on both push-offs, commutant_dim and sweep_check."""

    name = "exact_g2_n3"
    N = 3
    min_jobs = 2

    def __init__(self, seed: int):
        self.T = standard_library(GENUS2)
        self.alg = cfalgebra.CFAlgebra(self.T, self.N)
        self.inputs = exact_genus2_systems(self.alg)
        random.Random(seed).shuffle(self.inputs)

    def job(self, system):
        T, N, alg = self.T, self.N, self.alg
        W, _ = system
        e = T.designated_edge
        rep = representation.build_rep(T, N, W, algebra=alg)
        F = kernels.total_kernel(rep)
        threads = [qtrace.threading_check(rep, qtrace.LoopSpec.edge_parallel(e, side))
                   for side in (1, 2)]
        commutant = rep.commutant_dim()
        sweep = qtrace.sweep_check(rep, e)
        return {"dim": rep.dim, "F": F.dim, "threads": threads,
                "commutant": commutant, "sweep": sweep}

    def check(self, system, out) -> list[str]:
        N = self.N
        _, tau = system
        fails = (check_equal("dim E", out["dim"], N ** 4)
                 + check_equal("dim F", out["F"], N ** 3)
                 + check_equal("commutant dim", out["commutant"], 1)
                 + check_report("sweep", out["sweep"])
                 + check_equal("sweep kernel dim", out["sweep"]["kernel_dim"], N ** 3))
        for side, r in zip((1, 2), out["threads"]):
            fails += check_report(f"threading side {side}", r)
            fails += check_equal(f"threaded scalar, side {side}", r["scalar"], -tau)
        return fails


class ThreadingGenus2:
    """Symbolic genus2_sep at N=5 over Q(zeta_20), no matrices.  Each job
    threads T_5 through the quantum traces of two long edge-parallel loops,
    one whose fan segment has 13 edges and one with 14, and runs a batch of
    exact identities on random balanced monomials: the Weyl product law, the
    subdivision map Phi as a homomorphism, and Theta(H'_v) = H_v after a
    flip.  No loop repeats within a run."""

    name = "threading_g2_n5"
    N = 5
    min_jobs = 3
    weyl_pairs = 200
    phi_pairs = 200

    def __init__(self, seed: int):
        N = self.N
        rng = random.Random(seed)
        self.T = standard_library(GENUS2)
        self.alg = cfalgebra.CFAlgebra(self.T, N)
        self.lattice = cfalgebra.BalancedLattice(self.alg)
        by_length = {13: [], 14: []}
        for edge in range(self.T.num_edges):
            for side in (1, 2):
                seg = qtrace.fan_segment(self.T, edge, side)
                if len(seg) in by_length:
                    by_length[len(seg)].append(qtrace.LoopSpec.edge_parallel(edge, side))
        for loops in by_length.values():
            rng.shuffle(loops)
        loop_pairs = list(zip(by_length[13], by_length[14]))
        # Subdivided torus for Phi, subdivided-then-flipped sphere for Theta.
        torus = standard_library("torus1")
        T2, self.sub = moves.subdivide(torus, 0)
        self.torus_alg = cfalgebra.CFAlgebra(torus, N)
        self.torus_alg2 = cfalgebra.CFAlgebra(T2, N)
        torus_lattice = cfalgebra.BalancedLattice(self.torus_alg)
        T1, rec_sub = moves.subdivide(standard_library("sphere2"), 0)
        Tf, self.flip = moves.flip(T1, rec_sub.edge_map[rec_sub.side_edges[0]])
        self.flip_alg = cfalgebra.CFAlgebra(T1, N)
        self.flip_alg2 = cfalgebra.CFAlgebra(Tf, N)
        d_old = self.flip.square[1]
        self.theta_expected = [
            moves.LocalizedElement(self.flip_alg, d_old, self.flip_alg.central_H(v))
            for v in range(T1.num_vertices)]
        self.inputs = []
        for pair in loop_pairs:
            weyl = [(_balanced_exponent(self.lattice, rng),
                     _balanced_exponent(self.lattice, rng))
                    for _ in range(self.weyl_pairs)]
            phi = [tuple(self.torus_alg.monomial(_balanced_exponent(torus_lattice, rng),
                                                 self.torus_alg.omega(rng.randrange(4 * N)))
                         for _ in range(2))
                   for _ in range(self.phi_pairs)]
            self.inputs.append((pair, weyl, phi))

    def job(self, x):
        pair, weyl, phi_pairs = x
        N, alg = self.N, self.alg
        threaded = []
        for loop in pair:
            tr = qtrace.edge_parallel_trace(alg, loop)
            threaded.append((tr, qtrace.element_chebyshev(tr, N)))
        weyl_sides = [(alg.weyl(k) * alg.weyl(l),
                       alg.weyl([a + b for a, b in zip(k, l)]).scale(
                           alg.omega(alg.pairing(k, l))))
                      for k, l in weyl]
        rec, tgt = self.sub, self.torus_alg2
        phi_sides = [(moves.phi(rec, a * b, tgt),
                      moves.phi(rec, a, tgt) * moves.phi(rec, b, tgt))
                     for a, b in phi_pairs]
        rec, alg2 = self.flip, self.flip_alg2
        theta_images = [moves.theta(rec, alg2.central_H(rec.vertex_map[v]), self.flip_alg)
                        for v in range(len(self.theta_expected))]
        return {"threaded": threaded, "weyl": weyl_sides, "phi": phi_sides,
                "theta": theta_images}

    def check(self, x, out) -> list[str]:
        alg = self.alg
        gens = [alg.monomial(b) for b in self.lattice.basis]
        fails = []
        for tr, ch in out["threaded"]:
            fails += check_threaded_terms(tr.terms, ch.terms, self.N)
            fails += check_all_true(
                "terms of T_N(Tr K) central in the balanced algebra",
                [cfalgebra.commutator_is_zero(alg.monomial(m), g)
                 for m in ch.terms for g in gens])
        fails += check_all_true("Weyl product law", [a == b for a, b in out["weyl"]])
        fails += check_all_true("Phi homomorphism", [a == b for a, b in out["phi"]])
        fails += check_all_true("Theta(H'_v) = H_v",
                                [a == b for a, b in zip(out["theta"], self.theta_expected)])
        return fails


def _balanced_exponent(lattice, rng, bound: int = 2):
    """A random nonzero vector of the balanced lattice with small coordinates."""
    n = lattice.algebra.n
    while True:
        k = [0] * n
        for b in lattice.basis:
            c = rng.randint(-bound, bound)
            if c:
                k = [a + c * x for a, x in zip(k, b)]
        if any(k):
            return tuple(k)


WORKLOADS = {w.name: w for w in (FloatGenus2, ExactGenus2, ThreadingGenus2)}
