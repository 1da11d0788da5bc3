"""Closed-form quantum traces of edge-parallel loops and Chebyshev threading.

Only loops with a complete closed form are supported: loops parallel to an
edge of a one-vertex triangulation (drawn on one side of it), and the
corner-arc factors appearing in the star-neighborhood expansion.  The general
state sum for links with crossings is out of scope.

T_N has one evaluator, the three-term recurrence of ChebyshevPoly, for
numbers and algebra elements alike: threading a loop's trace costs N - 1
algebra products.  element_chebyshev runs it on the trace's array form
(cfalgebra.QTArray), whose products are integer numpy kernels, and gives
term for term, in the same order, what the recurrence on QTElements gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars
from .cfalgebra import CFAlgebra, QTArray, QTElement, commutator_is_zero
from .errors import (BadState, IndexOutOfRange, NotCommuting, NotOneVertex,
                     NotScalar, NotSeparating)
from .kernels import (DEFAULT_RANK_TOL, EIGEN_TOL, eigenspace_kernel,
                      pants_spaces, residual_bound, total_kernel)
from .representation import CFRep, WeightSystem


@dataclass(frozen=True)
class LoopSpec:
    """The loop parallel to an edge, pushed to one side of it; framing is
    vertical."""

    edge: int
    side: int

    @staticmethod
    def edge_parallel(edge: int, side: int) -> "LoopSpec":
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        return LoopSpec(edge, side)


# ---- Chebyshev polynomials ----

class ChebyshevPoly:
    """Normalized first-kind Chebyshev polynomial: T_N(2 cos t) = 2 cos Nt.

    eval_scalar runs T_(k+1) = T_k x - T_(k-1) from T_0 = 2 and T_1 = x,
    with N - 1 products by x, in x's own ring: complex numbers, Fractions,
    CycloScalars, QTElements or QTArrays (x ** 0 is the one of that ring).
    T_k is the left factor and x, which has fewer terms, the right one: a
    QTArray product takes one numpy step per term of its right factor, and
    a QTElement product holds a list per term of it."""

    def __init__(self, N: int):
        if N < 0:
            raise ValueError("N must be nonnegative")
        self.N = N

    def eval_scalar(self, x):
        lo, hi = 2 * x ** 0, x
        for _ in range(self.N - 1):
            lo, hi = hi, hi * x - lo
        return hi if self.N else lo


def chebyshev(N: int) -> ChebyshevPoly:
    return ChebyshevPoly(N)


# ---- edge-parallel loop traces ----

def edge_parallel_trace(algebra: CFAlgebra, loop: LoopSpec) -> QTElement:
    """Quantum trace of the loop parallel to an edge of a one-vertex
    triangulation, pushed to the chosen side:

        omega^(-t) sum_k Z_e Z_(i_1)...Z_(i_k) Z_(i_k+1)^-1...Z_(i_t)^-1 Z_e^-1

    where (i_1 ... i_t) is the fan segment strictly between the two fan
    occurrences of the edge on that side.
    """
    T = algebra.T
    if T.num_vertices != 1:
        raise NotOneVertex("edge-parallel traces need a one-vertex triangulation")
    seg = fan_segment(T, loop.edge, loop.side)
    t = len(seg)
    out = algebra.zero()
    for k in range(t + 1):
        el = algebra.gen(loop.edge)
        for j, e in enumerate(seg):
            el = el * algebra.gen(e, 1 if j < k else -1)
        el = el * algebra.gen(loop.edge, -1)
        out = out + el.scale(algebra.omega(-t))
    return out


def fan_segment(T, edge: int, side: int) -> list[int]:
    """Fan entries strictly between the two ends of the edge, on one side."""
    if not 0 <= edge < T.num_edges:
        raise ValueError(f"no edge {edge}")
    fan = T.fans[0].edges
    u = len(fan)
    pos = [i for i, e in enumerate(fan) if e == edge]
    if len(pos) != 2:
        raise NotOneVertex(f"edge {edge} does not appear twice in the fan")
    p0, p1 = (pos[0], pos[1]) if side == 1 else (pos[1], pos[0])
    return [fan[(p0 + 1 + i) % u] for i in range((p1 - p0 - 1) % u)]


def segment_weyl(algebra: CFAlgebra, seg) -> QTElement:
    """[Z_(i_1) ... Z_(i_t)] for a fan segment."""
    m = [0] * algebra.n
    for e in seg:
        m[e] += 1
    return algebra.weyl(m)


def classical_trace(algebra: CFAlgebra, a: QTElement, weights: WeightSystem):
    """Classical holonomy trace of the loop with quantum trace a.

    This is minus the commutative specialization omega -> 1, Z_i -> z_i with
    z_i = u_i^N: the classical limit of a skein loop carries the Kauffman
    sign (a trivial loop has skein value -2 = -Tr Id).
    """
    if not weights.has_roots():
        raise ValueError("classical trace needs root weights")
    z = [ui ** algebra.N for ui in weights.u]
    val = algebra.specialize_classical(a, z)
    return -val


# ---- corner-arc factors ----

CORNER_ARC_STATES = ("++", "--", "+-")


def corner_arc_factor(algebra: CFAlgebra, v: int, corner: int, state: str) -> QTElement:
    """Factor contributed by an arc turning around star corner `corner` of
    vertex v, for the given boundary state:

        '++' -> Z_k^2 Z_i^2 Z_k'^2
        '+-' -> omega^4 Z_i^2 Z_k'^2 + Z_k'^2
        '--' -> 1

    where e_i is the fan edge at the corner and e_k, e_k' the star boundary
    edges before and after it.
    """
    if state not in CORNER_ARC_STATES:
        raise BadState(f"state must be one of {CORNER_ARC_STATES}")
    fan = algebra.T.fans[v]
    u = len(fan)
    if not 0 <= corner < u:
        raise IndexOutOfRange(f"corner must lie in [0, {u})")
    i_edge = fan.edges[corner]
    k_prev = fan.star_boundary[(corner - 1) % u]
    k_next = fan.star_boundary[corner]
    if state == "--":
        return algebra.one()
    if state == "++":
        return algebra.gen(k_prev, 2) * algebra.gen(i_edge, 2) * algebra.gen(k_next, 2)
    return (algebra.gen(i_edge, 2) * algebra.gen(k_next, 2)).scale(algebra.omega(4)) \
        + algebra.gen(k_next, 2)


# ---- verification reports ----

def pushoff_pair(algebra: CFAlgebra, edge: int) -> tuple[QTElement, QTElement]:
    """(Tr K1, Tr K2), the traces of an edge's two push-offs, built once per
    algebra and edge; callers must not modify them.  The push-offs are
    disjoint, so the traces commute (checked exactly here), which ker D
    relies on (sweep_check)."""
    if edge not in algebra.pushoff_traces:
        tr1, tr2 = (edge_parallel_trace(algebra, LoopSpec.edge_parallel(edge, side))
                    for side in (1, 2))
        if not commutator_is_zero(tr1, tr2):
            raise NotCommuting(f"the push-offs of edge {edge} do not commute")
        algebra.pushoff_traces[edge] = (tr1, tr2)
    return algebra.pushoff_traces[edge]


def pants_family(rep: CFRep, edge: int) -> list[QTElement]:
    """The traces of a commuting family of loops in S - V whose joint
    eigenspaces split F and ker D (kernels.pants_spaces), chosen once per
    algebra and edge and kept on the algebra; callers must not modify them.
    The edge-parallel loops of the other edges are scanned, (edge, side) in
    order, and a loop is kept when its trace commutes exactly with both
    push-offs of edge and with every loop kept so far, and the translations
    of its monomials' images (CFRep.intertwiner_part, which no weight
    enters) enlarge the subgroup that those of the kept loops generate.
    Tr K1 comes last.  On genus2_sep (edge 4) the loops that commute with
    both push-offs are (1,1), (3,2), (5,1) and (6,1); (3,2) adds no
    translation to (1,1) nor (6,1) to (5,1), so the family is (1,1), (5,1),
    K1."""
    alg = rep.algebra
    if edge not in alg.pants_families:
        tr1, tr2 = pushoff_pair(alg, edge)
        kept, perms, order = [], [], 1
        for e in range(alg.n):
            for side in (1, 2):
                if e == edge:
                    continue
                tr = edge_parallel_trace(alg, LoopSpec.edge_parallel(e, side))
                if not all(commutator_is_zero(tr, b) for b in (tr1, tr2, *kept)):
                    continue
                more = perms + list({rep.intertwiner_part(k)[0] for k in tr.terms})
                size = int(np.sum(scalars.components(rep.dim, more) == 0))
                if size > order:
                    kept, perms, order = kept + [tr], more, size
        alg.pants_families[edge] = kept + [tr1]
    return alg.pants_families[edge]


def sweep_check(rep: CFRep, edge: int, tol: float = DEFAULT_RANK_TOL) -> dict:
    """Verify that the two push-offs of a separating edge loop agree on the
    total off-diagonal kernel F and that the kernel of their difference
    D = rho[K1] - rho[K2] = rho(K1 - K2) is exactly F.  D is an operator
    (CFRep.operator), and no dense matrix is formed: ker D is taken in the
    joint eigenspaces of the pants family (pants_family) that total_kernel
    kept on the representation (kernels.pants_spaces), as the sum of the
    U ker(D U) over them.  F stays the kernel of mu(Q_v), so the two sides
    are kernels of different operators, though taken in the same joint
    spaces.

    D F = 0 puts F inside ker D, so dim ker D >= dim F; equal dimensions are
    then equality.  For exact weights the upper bound comes from the rank
    of D modulo the field's prime p (rank_bound): rank D >= rank_p D, so
    rank_p D >= n - dim F gives dim ker D <= dim F, and ker D = F with no
    elimination of D.  A prime at which D loses rank only fails this
    certificate; then, and for float weights, ker D is computed
    (kernels.eigenspace_kernel: in the same joint spaces, modulo the prime
    and certified exactly for exact weights, or dense).  kernel_prime is
    the p that certified dim ker D, or None when the kernel was
    computed."""
    T = rep.T
    if T.num_vertices != 1:
        raise NotOneVertex("sweep check needs a one-vertex triangulation")
    if not T.is_separating(edge):
        raise NotSeparating(f"edge {edge} does not separate")
    ctx = rep.ctx
    tr1, tr2 = pushoff_pair(rep.algebra, edge)
    diff = rep.operator(tr1 - tr2)
    F = total_kernel(rep, tol)
    restriction_norm = ctx.image_norm(diff, F.basis)
    restriction_zero = ctx.is_zero(restriction_norm, residual_bound(diff))
    rank, prime = ctx.rank_bound(diff)
    if prime is not None and restriction_zero and rank >= rep.dim - F.dim:
        kernel_dim = F.dim
    else:
        spaces = pants_spaces(rep, edge, tol)
        kernel_dim, prime = eigenspace_kernel(spaces, diff, tol).dim, None
    equal = restriction_zero and kernel_dim == F.dim
    return {
        "restriction_norm": restriction_norm,
        "restriction_zero": restriction_zero,
        "kernel_dim": kernel_dim,
        "kernel_prime": prime,
        "total_kernel_dim": F.dim,
        "kernel_equals_total": equal,
        "passed": equal,
    }


def element_chebyshev(a: QTElement, N: int) -> QTElement:
    """T_N(a) inside the algebra (integer coefficients, so this commutes
    with any representation), by the recurrence on a's array form, whose box
    holds the exponents of every product of N terms of a."""
    return chebyshev(N).eval_scalar(QTArray.pack(a, max(N, 1))).unpack()


def threading_check(rep: CFRep, loop: LoopSpec, tol: float = EIGEN_TOL) -> dict:
    """T_N(rho([K])) must be scalar, equal to minus the classical trace.

    The trace of K and its T_N depend only on the algebra and the loop, so
    they are built once per algebra and loop and shared by every
    representation of that algebra; callers must not modify them."""
    alg, ctx = rep.algebra, rep.ctx
    if loop not in alg.threaded_traces:
        a = edge_parallel_trace(alg, loop)
        alg.threaded_traces[loop] = (a, element_chebyshev(a, alg.N))
    a, threaded = alg.threaded_traces[loop]
    scalar = ctx.scalar_of(rep.operator(threaded), tol)
    if scalar is None:
        raise NotScalar("T_N image is not a scalar matrix")
    tau = classical_trace(alg, a, rep.weights)
    residual = scalar + tau
    return {"scalar": scalar, "classical_trace": tau,
            "residual": ctx.norm(residual), "passed": ctx.is_zero(residual, tol)}
