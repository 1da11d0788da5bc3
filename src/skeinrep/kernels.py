"""Off-diagonal kernels, the spectrum of rho[K1] and generic weight sampling.

A matrix's type picks how its kernel is computed: a list of exact rows by
Gaussian elimination over the cyclotomic field (division is exact, so no
tolerance enters), a numpy array by singular value thresholding at a
relative tolerance.  Kernel bases are in the backend's form (module
scalars): an array of columns in float, Columns of numerators in exact.

Two float kernels of a genus-2 representation are taken one joint
eigenspace of a commuting family at a time (eigenspace_kernel).  The
family (qtrace.pants_family: on genus2_sep the loops (1,1), (5,1) and K1,
a pants decomposition) is chosen once per algebra, and its joint
eigenspaces (pants_spaces, kept in CFRep.spectra, so that F and ker D
share them) are built nested from the operators' translation terms alone
(scalars.joint_spaces, one scalars.JointSpaces per level).  The levels are
N spaces of dimension N^3, N^2 of dimension N^2 and N^3 of dimension N,
each of the last meeting F in one dimension; in block form they hold N^7
entries against N^8 dense.  A split into spaces of unequal dimensions is
refused, and then there are none; so spaces end with rho[K1]'s level, and
their spectrum (JointSpaces.spectrum) is rho[K1]'s, with no dense rho[K1].

F = ker mu(Q_v), the total kernel (total_kernel), and ker D for the
difference D = rho(K1 - K2) of the push-offs (qtrace.sweep_check) are each
the sum of the thin kernels U ker(op U) over the joint eigenspaces U, as
every family operator preserves F, the space that carries the skein
representation, and commutes with K1 and K2; the assembled basis K is
certified by |op K| <= residual_bound (eigenspace_kernel).  A certificate
that fails and spaces that do not fill the space take the kernel of the
dense operator instead.  Exact operators, whose eigenvalues are not
computed, have no spaces: their kernel is found modulo the field's prime
from the operator's numerators and certified exactly (the backend's
certified_kernel, the basis that elimination gives), and only when that
certificate fails is the dense operator eliminated.  For exact D the sweep
check usually needs no kernel of D at all, only D F = 0 and the rank of D
modulo the prime (the backend's rank_bound).
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from . import scalars
from .cfalgebra import CFAlgebra
from .errors import NotDiagonalizable, NotOneVertex, SamplerExhausted
from .representation import CFRep, WeightSystem
from .triangulation import Triangulation

DEFAULT_RANK_TOL = 1e-9

# Draws sample_generic_weights may reject before SamplerExhausted: 100 times
# the most that any tier-1 test or benchmark input was measured to need (2).
MAX_SAMPLER_DRAWS = 200

# sample_generic_weights rejects draws whose separating-edge loop trace lies
# within this distance of +-2.
TRACE_MARGIN = 0.2


class Subspace:
    """Column span of an (ambient x d) numpy array (float) or of d exact
    columns in array form (scalars.Columns)."""

    def __init__(self, ambient: int, basis):
        self.ambient = ambient
        self.basis = basis
        self._ctx = scalars.of(basis)

    @property
    def dim(self) -> int:
        return self._ctx.ncols(self.basis)

    def contains(self, other: "Subspace", tol: float = DEFAULT_RANK_TOL) -> bool:
        """True iff other is contained in self (rank test on the join)."""
        return self._ctx.spans(self.basis, other.basis, tol)

    def equals(self, other: "Subspace", tol: float = DEFAULT_RANK_TOL) -> bool:
        """Equality of spans for independent bases, as kernel bases are: then
        equal dimensions and one inclusion suffice."""
        return self.dim == other.dim and self.contains(other, tol)

    def is_invariant_under(self, op, tol: float = DEFAULT_RANK_TOL) -> bool:
        """True iff the operator op maps this subspace into itself."""
        image = self._ctx.image(op, self.basis)
        return self.contains(Subspace(self.ambient, image), tol)


def matrix_kernel(M, tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Kernel of a matrix (numpy array or list of exact rows) as a Subspace."""
    return Subspace(len(M[0]), scalars.of(M).kernel(M, tol))


# Eigenvalues closer than this join one cluster: the clustering tolerance of
# eigen_analysis and pants_spaces, and the residual bound of threading
# checks.
EIGEN_TOL = 1e-6


def residual_bound(op) -> float:
    """Largest entry of op X at which X still counts as lying in ker op:
    1e-7 max(|op|, 1), |op| the largest entry of its scales, as its terms
    share no entry."""
    return 1e-7 * max(scalars.of(op).norm(op.scales), 1)


def eigenspace_kernel(spaces, op, tol: float) -> Subspace:
    """ker op for an operator op whose kernel the operators of spaces
    preserve, from spaces, their joint eigenspaces U in block form
    (pants_spaces: a JointSpaces), or None: ker op is the sum of its meets
    U ker(op U) with the U, thin n x dim kernels taken a chunk of spaces at
    a time (JointSpaces.chunks), op applied to all spaces of a chunk in one
    scatter per term.  The assembled basis K is accepted when |op K| is
    within residual_bound(op).  With no spaces (exact operators) it is
    certified_kernel of op, when certified.  Otherwise, when the spaces do
    not fill the space, or when a basis is not accepted, this is
    matrix_kernel of op made dense."""
    ctx = scalars.of(op)
    n = op.n
    if spaces is not None and spaces.count * spaces.dim == n:
        bases = [matrix_kernel(X[..., j], tol).basis
                 for X in spaces.images(op, spaces.chunks()) for j in range(X.shape[-1])]
        K = np.empty((n, sum(W.shape[1] for W in bases)), dtype=complex)
        spaces.span(bases, K)
        # op K a CHUNK of entries at a time, so that no second n x dim K array is formed
        if ctx.is_zero(ctx.image_norm(op, K), residual_bound(op)):
            return Subspace(n, K)
    basis = ctx.certified_kernel(op)
    return Subspace(n, basis) if basis is not None else matrix_kernel(ctx.dense(op), tol)


def pants_spaces(rep: CFRep, edge: int, tol: float):
    """The joint eigenspaces of the pants family of edge (qtrace.pants_family)
    on a float representation, in block form (scalars.joint_spaces
    at EIGEN_TOL, cut at tol: a JointSpaces or None), computed once per
    representation, edge and tol and kept in rep.spectra: F (total_kernel),
    ker D (qtrace.sweep_check) and rho[K1]'s spectrum share them.  None
    when a level is refused, and for exact weights, whose eigenvalues are
    not computed, so no family is built for them.  Callers must not modify
    them."""
    if rep.weights.mode != "float":
        return None
    if (edge, tol) not in rep.spectra:
        from .qtrace import pants_family
        ops = [rep.operator(a) for a in pants_family(rep, edge)]
        rep.spectra[edge, tol] = scalars.joint_spaces(ops, EIGEN_TOL, tol)
    return rep.spectra[edge, tol]


# ---- kernel operations ----

def offdiag_kernel(rep: CFRep, v: int, tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """ker mu(Q_v), which does not depend on where Q_v starts in the fan."""
    return matrix_kernel(rep.apply(rep.algebra.offdiag_Q(v)), tol)


def total_kernel(rep: CFRep, tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Intersection F of the off-diagonal kernels over all vertices, computed
    once per representation and float tolerance (exact F has none); callers
    share the returned Subspace and must not modify its basis.

    On a one-vertex triangulation with a designated separating edge,
    F = ker mu(Q_v) is eigenspace_kernel of mu(Q_v) in the pants spaces
    of the edge (pants_spaces), which the sweep check's ker D shares.  For
    float weights it is the sum of the U ker(mu(Q_v) U) over the joint
    eigenspaces U of the edge's pants family (module docstring), and no
    dense matrix is made.  Certified: |mu(Q_v) F| for the assembled basis
    F is within residual_bound, so F lies in the kernel.  That it is the
    whole kernel rests on each family loop preserving F; a shortfall would
    show as dim F < N^3.  Exact weights have no pants spaces, and F is the
    certified modular kernel of mu(Q_v).  When a basis is not accepted or
    not certified, this is the kernel of the dense mu(Q_v).  Every other
    representation takes the kernel of its stacked dense mu(Q_v)."""
    key = tol if rep.weights.mode == "float" else None
    if key not in rep.total_kernels:
        T, alg = rep.T, rep.algebra
        if T.num_vertices == 1 and T.designated_edge is not None:
            F = eigenspace_kernel(pants_spaces(rep, T.designated_edge, tol),
                                  rep.operator(alg.offdiag_Q(0)), tol)
        else:
            F = matrix_kernel(rep.ctx.stack([rep.apply(alg.offdiag_Q(v))
                                             for v in range(T.num_vertices)]), tol)
        rep.total_kernels[key] = F
    return rep.total_kernels[key]


def eigen_analysis(M, mode: str, tol: float = EIGEN_TOL):
    """Eigenvalues with multiplicities of a dense matrix; verifies
    diagonalizability.  The dense reference kept for the benchmark and the
    tests; no library code calls it.

    Only mode "float" computes them: it clusters the eigenvalue cloud at the
    given tolerance and checks that each geometric multiplicity is the
    algebraic one, each kernel dimension cut at DEFAULT_RANK_TOL, so that
    the eigenspaces fill the space (scalars.multiplicities).  Exact eigenvalues are not computed, and any
    other mode raises ValueError; an exact eigenspace is the kernel of
    mu(a - lam) for a known lam.
    """
    if mode != "float":
        raise ValueError(f"{mode} eigen-analysis is not available")
    counts = scalars.multiplicities(M, tol, DEFAULT_RANK_TOL)
    for lam, alg_mult, geo_mult in counts:
        if geo_mult != alg_mult:
            raise NotDiagonalizable(
                f"eigenvalue {lam}: geometric {geo_mult} != algebraic {alg_mult}")
    return [(lam, alg_mult) for lam, alg_mult, _ in counts]


# ---- generic weight sampling ----

def sample_generic_weights(T: Triangulation, N: int, rng) -> WeightSystem:
    """Random vertex-valid float weights on a one-vertex triangulation.

    All but two edge weights are random unit-modulus values; the remaining
    two are solved from the fan product relation (on the branch compatible
    with mu(H_v) = -omega^4) and the prefix-sum relation.  Draws whose
    separating-edge loop trace is within TRACE_MARGIN of +-2 are rejected,
    and SamplerExhausted is raised after MAX_SAMPLER_DRAWS rejected draws.
    """
    if T.num_vertices != 1:
        raise NotOneVertex("generic sampler needs a one-vertex triangulation")
    fan = T.fans[0].edges
    n = T.num_edges
    solve_a, solve_b = _solver_edges(T)
    if T.designated_edge is not None:
        from .qtrace import classical_trace
        alg, tr = _separating_trace(T, N)
    for _ in range(MAX_SAMPLER_DRAWS):
        x = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
        others = 1
        for i in range(n):
            if i not in (solve_a, solve_b):
                others *= x[i]
        # product over the fan is (prod_e x_e)^2 = 1; the branch prod = -1
        # is forced by mu(H_v)^N = mu(Z^{2N 1}) = prod x_e = (-omega^4)^N = -1
        amp = -1 / others
        coef: dict[int, complex] = {}
        pre_c, pre_t = 1 + 0j, 0
        for j in range(len(fan)):
            coef[pre_t] = coef.get(pre_t, 0) + pre_c
            e = fan[j]
            if e == solve_a:
                pre_t += 1
            elif e == solve_b:
                pre_c *= amp
                pre_t -= 1
            else:
                pre_c *= x[e]
        lo, hi = min(coef), max(coef)
        poly = [coef.get(k, 0) for k in range(hi, lo - 1, -1)]
        roots = [r for r in np.roots(poly) if abs(r) > 1e-10]
        if not roots:
            continue
        t = roots[rng.randrange(len(roots))]
        x[solve_a] = t
        x[solve_b] = amp / t
        u = [cmath.exp(cmath.log(xi) / (2 * N)) for xi in x]
        W = WeightSystem(T, N, u=u)
        if not W.validate()["valid"]:
            continue
        if T.designated_edge is not None:
            tau = classical_trace(alg, tr, W)
            if min(abs(tau - 2), abs(tau + 2)) < TRACE_MARGIN:
                continue
        return W
    raise SamplerExhausted(f"no acceptable weight system in {MAX_SAMPLER_DRAWS} draws")


@functools.lru_cache(maxsize=8)
def _separating_trace(T: Triangulation, N: int):
    """(algebra, quantum trace of the designated edge's loop) for the
    sampler's trace test; weight-independent, so built once per (T, N).
    Triangulations hash by identity.  The cache is bounded so that a process
    building many triangulations does not keep every algebra alive."""
    from .qtrace import LoopSpec, edge_parallel_trace
    alg = CFAlgebra(T, N)
    return alg, edge_parallel_trace(alg, LoopSpec.edge_parallel(T.designated_edge, 1))


def _solver_edges(T: Triangulation):
    """Two edges whose weights the sampler solves for: the last two distinct
    edges appearing in the fan (so the prefix polynomial is low degree)."""
    fan = T.fans[0].edges
    seen = []
    for e in fan:
        if e not in seen:
            seen.append(e)
    return seen[-1], seen[-2]
