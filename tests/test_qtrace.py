import random
from fractions import Fraction

import numpy as np
import pytest

from skeinrep import qtrace, scalars, verify
from skeinrep.cfalgebra import CFAlgebra, QTArray, SignReversalClass
from skeinrep.errors import BadState, NotOneVertex, NotSeparating
from skeinrep.kernels import sample_generic_weights, total_kernel
from skeinrep.qtrace import (LoopSpec, chebyshev, corner_arc_factor,
                             edge_parallel_trace, fan_segment, segment_weyl,
                             sweep_check, threading_check)
from skeinrep.representation import WeightSystem, build_rep
from skeinrep.triangulation import octahedron, standard_library


@pytest.fixture(scope="module")
def g2_alg():
    return CFAlgebra(standard_library("genus2_sep"), 3)


@pytest.fixture(scope="module")
def g2_rep(g2_alg):
    T = g2_alg.T
    W = sample_generic_weights(T, 3, random.Random(31))
    return build_rep(T, 3, W, algebra=g2_alg)


# ---- Chebyshev ----

# T_0 ... T_5 by their coefficients, lowest degree first
CHEBYSHEV_COEFFS = [[2], [0, 1], [-2, 0, 1], [0, -3, 0, 1], [2, 0, -4, 0, 1],
                    [0, 5, 0, -5, 0, 1]]


def power_sum(coeffs, x, zero=0):
    return sum((c * x ** k for k, c in enumerate(coeffs) if c), zero)


def test_chebyshev_small():
    for N, coeffs in enumerate(CHEBYSHEV_COEFFS):
        for x in (-3, -1, 0, 1, 2, 7, Fraction(5, 2), Fraction(-4, 9)):
            assert chebyshev(N).eval_scalar(x) == power_sum(coeffs, x)
    with pytest.raises(ValueError):
        chebyshev(-1)


def test_chebyshev_odd_degrees():
    def odd(n):
        return all(chebyshev(n).eval_scalar(-x) == -chebyshev(n).eval_scalar(x)
                   for x in range(n + 1))
    assert all(odd(n) for n in range(1, 12, 2))
    assert not odd(4)


def test_chebyshev_trig():
    import math
    for N in (3, 5):
        for theta in (0.3, 1.1, 2.4):
            val = chebyshev(N).eval_scalar(2 * math.cos(theta))
            assert abs(val - 2 * math.cos(N * theta)) < 1e-12
    # exactly T_N(t + 1/t) = t^N + t^-N at t = 2
    for N in range(10):
        assert chebyshev(N).eval_scalar(Fraction(5, 2)) == 2**N + Fraction(1, 2**N)


# ---- edge-parallel traces ----

def test_trace_term_count(g2_alg):
    T = g2_alg.T
    e = T.designated_edge
    for side in (1, 2):
        seg = fan_segment(T, e, side)
        assert len(seg) == 8  # 2 * (4 interior edges per piece)
        tr = edge_parallel_trace(g2_alg, LoopSpec.edge_parallel(e, side))
        assert len(tr.terms) == len(seg) + 1
        assert tr.is_balanced()


def test_trace_sides_differ(g2_alg):
    e = g2_alg.T.designated_edge
    t1 = edge_parallel_trace(g2_alg, LoopSpec.edge_parallel(e, 1))
    t2 = edge_parallel_trace(g2_alg, LoopSpec.edge_parallel(e, 2))
    assert t1 != t2


def test_trace_rearranged_identity(g2_alg):
    # [Z_(i_1)...Z_(i_t)] . trace = 1 + sum_k omega^(-4k) Z^2-prefixes
    alg = g2_alg
    e = alg.T.designated_edge
    for side in (1, 2):
        seg = fan_segment(alg.T, e, side)
        tr = edge_parallel_trace(alg, LoopSpec.edge_parallel(e, side))
        lhs = segment_weyl(alg, seg) * tr
        rhs = alg.one()
        pre = alg.one()
        for k in range(1, len(seg) + 1):
            pre = pre * alg.gen(seg[k - 1], 2)
            rhs = rhs + pre.scale(alg.omega(-4 * k))
        assert lhs == rhs


def test_trace_needs_one_vertex():
    alg = CFAlgebra(standard_library("sphere2"), 3)
    with pytest.raises(NotOneVertex):
        edge_parallel_trace(alg, LoopSpec.edge_parallel(0, 1))


@pytest.mark.parametrize("edge", [99, -1, 9])
def test_trace_rejects_an_edge_out_of_range(g2_alg, edge):
    with pytest.raises(ValueError, match=f"no edge {edge}"):
        edge_parallel_trace(g2_alg, LoopSpec.edge_parallel(edge, 1))


# ---- sweep ----

def test_sweep_check(g2_rep, monkeypatch):
    calls = []
    original = qtrace.eigenspace_kernel

    def spy(spaces, diff, tol):
        calls.append(spaces.count * spaces.dim)
        # the joint spaces kept on the representation
        assert spaces is g2_rep.spectra[g2_rep.T.designated_edge, tol]
        return original(spaces, diff, tol)

    monkeypatch.setattr(qtrace, "eigenspace_kernel", spy)
    report = sweep_check(g2_rep, g2_rep.T.designated_edge)
    assert report["passed"]
    assert report["kernel_dim"] == report["total_kernel_dim"] == 27
    # a float kernel dimension is decided at a tolerance, never by a prime
    assert report["kernel_prime"] is None and calls == [81]


# sweep_check on exact_genus2_weights at N=3 when ker D was computed
EXACT_SWEEP_REPORT = {"restriction_norm": 0.0, "restriction_zero": True,
                      "kernel_dim": 27, "total_kernel_dim": 27,
                      "kernel_equals_total": True, "passed": True}


def exact_g2_rep(alg):
    return build_rep(alg.T, 3, verify.exact_genus2_weights(alg), algebra=alg)


def count_exact_kernels(monkeypatch) -> list:
    """The matrices passed to ExactArithmetic.kernel from now on."""
    calls = []
    original = scalars.ExactArithmetic.kernel

    def kernel(self, M, tol=0.0):
        calls.append(M)
        return original(self, M, tol)

    monkeypatch.setattr(scalars.ExactArithmetic, "kernel", kernel)
    return calls


def test_exact_sweep_kernel_is_certified_by_the_field_prime(g2_alg, monkeypatch):
    rep = exact_g2_rep(g2_alg)
    calls = count_exact_kernels(monkeypatch)
    report = sweep_check(rep, g2_alg.T.designated_edge)
    assert report == dict(EXACT_SWEEP_REPORT, kernel_prime=rep.ctx.field.prime)
    # no elimination over the field: F is the certified modular kernel of
    # mu(Q_v), and dim ker D is certified by the rank of D modulo the prime
    assert calls == []


@pytest.mark.parametrize("plant", ["vanishes", "no-image"])
def test_exact_sweep_falls_back_to_elimination_at_a_bad_prime(g2_alg, monkeypatch, plant):
    # the bound is taken of p D or D / p: the rank of D, but p D is zero
    # modulo p and D / p has no image there, so the bound falls short
    rep = exact_g2_rep(g2_alg)
    p = rep.ctx.field.prime
    bounds = []
    original = scalars.ExactArithmetic.rank_bound

    def planted(self, op):
        scales, den = (op.scales * p, op.den) if plant == "vanishes" else (op.scales, op.den * p)
        bounds.append(original(self, scalars.Operator(op.perms, scales, op.field, den)))
        return bounds[-1]

    monkeypatch.setattr(scalars.ExactArithmetic, "rank_bound", planted)
    calls = count_exact_kernels(monkeypatch)
    report = sweep_check(rep, g2_alg.T.designated_edge)
    assert bounds == [(0, p if plant == "vanishes" else None)]
    assert report == dict(EXACT_SWEEP_REPORT, kernel_prime=None)
    # ker D is then eliminated, modulo the prime and certified exactly
    # (certified_kernel, which the planted bound does not reach), so
    # nothing is eliminated over the field
    assert calls == []


def test_certified_exact_sweep_forms_no_dense_matrix(g2_alg, monkeypatch):
    rep = exact_g2_rep(g2_alg)
    total_kernel(rep)
    calls = []
    original = scalars.ExactArithmetic.dense

    def dense(self, *args):
        calls.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(scalars.ExactArithmetic, "dense", dense)
    report = sweep_check(rep, g2_alg.T.designated_edge)
    assert report["kernel_prime"] == rep.ctx.field.prime
    assert calls == []


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_threading_and_signrev_checks_form_no_dense_matrix(g2_alg, g2_rep, mode,
                                                          monkeypatch):
    """Their scalar tests read operators: the only dense images are the
    ones total_kernel takes its kernel of."""
    T = g2_alg.T
    rep = g2_rep if mode == "float" else build_rep(
        T, 3, verify.exact_genus2_weights(g2_alg), algebra=g2_alg)
    calls, in_kernel = [], []
    for cls in (scalars.FloatArithmetic, scalars.ExactArithmetic):
        def dense(self, *args, original=cls.dense):
            if not in_kernel:
                calls.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(cls, "dense", dense)

    def total_kernel(*args, original=verify.total_kernel):
        in_kernel.append(True)
        try:
            return original(*args)
        finally:
            in_kernel.pop()

    monkeypatch.setattr(verify, "total_kernel", total_kernel)
    for side in (1, 2):
        assert threading_check(rep, LoopSpec.edge_parallel(T.designated_edge, side))["passed"]
    eps = SignReversalClass(T, (1, 0, 1, 1, 0, 1, 0, 0, 1))
    assert all(c.passed for c in verify.signrev_checks(rep, eps, 1e-8))
    assert calls == []


def test_sweep_identity_element_level(g2_rep):
    # mu([Z^seg]) (rho[K1] - rho[K2]) equals mu(Q_v) started at the segment
    alg, T = g2_rep.algebra, g2_rep.T
    e = T.designated_edge
    fan = T.fans[0].edges
    pos = [i for i, x in enumerate(fan) if x == e]
    tr1 = edge_parallel_trace(alg, LoopSpec.edge_parallel(e, 1))
    tr2 = edge_parallel_trace(alg, LoopSpec.edge_parallel(e, 2))
    M1, M2 = g2_rep.apply(tr1), g2_rep.apply(tr2)
    seg = fan_segment(T, e, 1)
    G = g2_rep.apply(segment_weyl(alg, seg))
    start = (pos[0] + 1) % len(fan)
    Q = g2_rep.apply(alg.offdiag_Q(0, start=start))
    assert np.abs(G @ (M1 - M2) - Q).max() < 1e-8


def test_verify_sweep_and_signrev_checks_pass_on_an_exact_representation(g2_alg):
    rep = build_rep(g2_alg.T, 3, verify.exact_genus2_weights(g2_alg), algebra=g2_alg)
    eps = SignReversalClass(g2_alg.T, (1, 0, 1, 1, 0, 1, 0, 0, 1))
    checks = verify.sweep_checks(rep, 1e-8) + verify.signrev_checks(rep, eps, 1e-8)
    assert [c.name for c in checks if not c.passed] == []
    assert len(checks) == 7


def test_sweep_nonkernel_witness(g2_rep):
    # on a generic vector outside F the two push-offs differ
    rng = np.random.default_rng(0)
    alg = g2_rep.algebra
    e = g2_rep.T.designated_edge
    tr1 = edge_parallel_trace(alg, LoopSpec.edge_parallel(e, 1))
    tr2 = edge_parallel_trace(alg, LoopSpec.edge_parallel(e, 2))
    diff = g2_rep.apply(tr1) - g2_rep.apply(tr2)
    v = rng.normal(size=81) + 1j * rng.normal(size=81)
    assert np.linalg.norm(diff @ v) > 1e-6


def test_sweep_requires_separating():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    rep = build_rep(T, 3, WeightSystem(T, 3, u=[one, one, alg.scalars.omega(1)]),
                    algebra=alg)
    with pytest.raises(NotSeparating):
        sweep_check(rep, 0)


# ---- threading ----

def test_threading_genus2_float(g2_rep):
    for side in (1, 2):
        loop = LoopSpec.edge_parallel(g2_rep.T.designated_edge, side)
        report = threading_check(g2_rep, loop)
        assert report["passed"], report
    # both sides carry the same classical trace
    r1 = threading_check(g2_rep, LoopSpec.edge_parallel(g2_rep.T.designated_edge, 1))
    r2 = threading_check(g2_rep, LoopSpec.edge_parallel(g2_rep.T.designated_edge, 2))
    assert abs(r1["classical_trace"] - r2["classical_trace"]) < 1e-8


def test_threading_many_random_weights():
    T = standard_library("genus2_sep")
    rng = random.Random(42)
    for _ in range(5):
        W = sample_generic_weights(T, 3, rng)
        rep = build_rep(T, 3, W)
        loop = LoopSpec.edge_parallel(T.designated_edge, 1)
        assert threading_check(rep, loop)["passed"]


def test_threaded_trace_built_once_per_algebra_and_loop(monkeypatch):
    T = standard_library("genus2_sep")
    loop = LoopSpec.edge_parallel(T.designated_edge, 1)
    weights = [sample_generic_weights(T, 3, random.Random(s)) for s in (5, 6)]
    # references, each on an algebra of its own
    expected = [threading_check(build_rep(T, 3, W), loop) for W in weights]
    calls = []
    real = qtrace.element_chebyshev
    monkeypatch.setattr(qtrace, "element_chebyshev",
                        lambda a, N: calls.append(a) or real(a, N))
    alg = CFAlgebra(T, 3)
    reps = [build_rep(T, 3, W, algebra=alg) for W in weights]
    assert [threading_check(rep, loop) for rep in reps] == expected
    assert len(calls) == 1
    flipped = reps[0].precompose_sign_reversal(
        SignReversalClass(T, (1, 0, 1, 1, 0, 1, 0, 0, 1)))
    threading_check(flipped, loop)
    assert len(calls) == 1
    threading_check(reps[0], LoopSpec.edge_parallel(T.designated_edge, 2))
    assert len(calls) == 2


@pytest.mark.parametrize("N", [3, 5])
def test_element_chebyshev_is_the_power_sum(N):
    alg = CFAlgebra(standard_library("genus2_sep"), N)
    for loop in (LoopSpec(4, 1), LoopSpec(4, 2), LoopSpec(0, 2)):
        a = edge_parallel_trace(alg, loop)
        assert qtrace.element_chebyshev(a, N) == power_sum(CHEBYSHEV_COEFFS[N], a, alg.zero())


def test_element_chebyshev_makes_n_minus_one_products(monkeypatch):
    alg = CFAlgebra(standard_library("genus2_sep"), 5)
    a = edge_parallel_trace(alg, LoopSpec(0, 2))
    calls = []
    real = QTArray.__mul__
    monkeypatch.setattr(QTArray, "__mul__",
                        lambda self, other: calls.append(1) or real(self, other))
    qtrace.element_chebyshev(a, 5)
    assert len(calls) == 4


@pytest.mark.parametrize("N", [3, 5])
def test_element_chebyshev_is_the_qtelement_recurrence(N):
    """The array form gives T_N(a) as the recurrence on QTElements does,
    term for term and in order, on all 36 edge-parallel loops."""
    alg = CFAlgebra(standard_library("genus2_sep"), N)
    for e in range(alg.n):
        for side in (1, 2):
            a = edge_parallel_trace(alg, LoopSpec(e, side))
            got, want = qtrace.element_chebyshev(a, N), chebyshev(N).eval_scalar(a)
            assert got == want and list(got.terms) == list(want.terms)


def frobenius(a, power=None):
    """Fr(a) = sum_k d_k^(N^2) [Z^(Nk)] for a = sum_k d_k [Z^k] (d_k^power
    in place of d_k^(N^2) when power is given)."""
    alg = a.algebra
    out = alg.zero()
    for k, c in a.terms.items():
        d = c * alg.omega(alg.weyl_weight(k))
        out = out + alg.weyl([alg.N * x for x in k]).scale(d ** (power or alg.N ** 2))
    return out


@pytest.mark.parametrize("N, edges", [(3, range(9)), (5, range(9)), (7, [4])])
def test_element_chebyshev_is_the_frobenius_image(N, edges):
    """T_N of an edge-parallel trace is its Frobenius image (the miraculous
    cancellations of Bonahon-Wong), an oracle that shares no product with
    the recurrence."""
    alg = CFAlgebra(standard_library("genus2_sep"), N)
    for e in edges:
        for side in (1, 2):
            a = edge_parallel_trace(alg, LoopSpec(e, side))
            assert qtrace.element_chebyshev(a, N) == frobenius(a)
    # a control: d_k in place of d_k^(N^2) is not T_N on loop (8, 1)
    if N == 5:
        a = edge_parallel_trace(alg, LoopSpec(8, 1))
        assert qtrace.element_chebyshev(a, N) != frobenius(a, power=1)


def test_element_chebyshev_of_low_degree_and_on_python_ints():
    """T_0 = 2 and T_1 = a; a coefficient of 2^40 or an exponent box above
    2^63 moves the array form to Python ints, with the same T_N."""
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    a = edge_parallel_trace(alg, LoopSpec(4, 1))
    assert qtrace.element_chebyshev(a, 0) == alg.one().scale(2)
    assert list(qtrace.element_chebyshev(a, 1).terms) == list(a.terms)
    assert qtrace.element_chebyshev(a, 1) == a
    wide = a + alg.monomial([0] * (alg.n - 1) + [2 ** 61])
    for x in (a.scale(2 ** 40), wide, alg.zero()):
        got, want = qtrace.element_chebyshev(x, 3), chebyshev(3).eval_scalar(x)
        assert got == want and list(got.terms) == list(want.terms)
    assert QTArray.pack(wide, 3).codes.dtype == object
    big = QTArray.pack(a.scale(2 ** 40), 3)
    assert big.nums.dtype != object and (big * big).nums.dtype == object


# ---- corner arcs ----

def test_corner_arc_shapes():
    alg = CFAlgebra(octahedron(), 3)
    a = corner_arc_factor(alg, 0, 0, "++")
    k, _ = a.monomial_data()
    assert sum(k) == 6 and set(k) <= {0, 2}
    assert corner_arc_factor(alg, 0, 0, "--") == alg.one()
    mixed = corner_arc_factor(alg, 0, 0, "+-")
    assert len(mixed.terms) == 2
    with pytest.raises(BadState):
        corner_arc_factor(alg, 0, 0, "-+")
