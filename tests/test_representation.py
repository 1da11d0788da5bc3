import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from skeinrep import scalars
from skeinrep.cfalgebra import BalancedLattice, CFAlgebra, SignReversalClass
from skeinrep.errors import (Inadmissible, InconsistentCenter, NotBalanced,
                             ZeroWeight)
from skeinrep.kernels import sample_generic_weights, total_kernel
from skeinrep.qtrace import LoopSpec, edge_parallel_trace, element_chebyshev, pushoff_pair
from skeinrep.representation import CFRep, WeightSystem, build_rep
from skeinrep.triangulation import standard_library
from skeinrep.verify import (exact_genus2_weights, exact_sphere_weights,
                             exact_torus_weights)

from conftest import random_balanced_exponent, random_balanced_monomial


@pytest.fixture(scope="module")
def torus_rep():
    alg = CFAlgebra(standard_library("torus1"), 3)
    return build_rep(alg.T, 3, exact_torus_weights(alg), algebra=alg)


@pytest.fixture(scope="module")
def sphere_rep():
    alg = CFAlgebra(standard_library("sphere2"), 3)
    return build_rep(alg.T, 3, exact_sphere_weights(alg), algebra=alg)


@pytest.fixture(scope="module")
def genus2_rep():
    T = standard_library("genus2_sep")
    rng = random.Random(101)
    W = sample_generic_weights(T, 3, rng)
    return build_rep(T, 3, W)


def compose(a, b):
    """The term (perm, scale) of the product of two one-term operators: b
    sends e_i to t_i e_(q(i)), which a sends to t_i s_(q(i)) e_(p(q(i)))."""
    ((p, s),), ((q, t),) = a.terms(), b.terms()
    return [p[j] for j in q], [ti * s[j] for ti, j in zip(t, q)]


def scaled(op, c):
    """The term of a one-term operator, its scale times c."""
    ((p, s),) = op.terms()
    return p, [x * c for x in s]


def exact_is_scalar(rep, M, scalar):
    zero = rep.ctx.zero()
    return all((M[i][j] - (scalar if i == j else zero)).is_zero()
               for i in range(rep.dim) for j in range(rep.dim))


# ---- weight systems ----

def test_validate_weights_examples():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    W = WeightSystem(T, 3, x=[one, one, -one])
    assert W.validate()["valid"]
    bad = WeightSystem(T, 3, x=[one, one, one])
    rep = bad.validate()
    assert not rep["valid"]
    assert rep["vertices"][0]["sum_residual"] == repr(alg.scalars.from_rational(6))

    Ts = standard_library("sphere2")
    Ws = WeightSystem(Ts, 3, x=[-one, -one, -one])
    assert Ws.validate()["valid"]

    with pytest.raises(ZeroWeight):
        WeightSystem(T, 3, x=[one, one, alg.scalars.zero()])
    with pytest.raises(ValueError, match="mix exact and float"):
        WeightSystem(T, 3, x=[one, one, -1 + 0j])
    with pytest.raises(ValueError, match="mix exact and float"):
        WeightSystem(T, 3, u=[1 + 0j, 1 + 0j, alg.scalars.omega(1)])


def test_complex_weights_build_float_rep():
    """Complex u given without a mode is a float weight system: u = (1, 1,
    omega) as complex numbers gives the torus representation, dim F = N."""
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    u = [complex(ui) for ui in (alg.scalars.one(), alg.scalars.one(), alg.scalars.omega(1))]
    W = WeightSystem(T, 3, u=u)
    assert W.mode == "float"
    assert total_kernel(build_rep(T, 3, W, algebra=alg)).dim == 3


def test_weights_json_roundtrip():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    W = exact_torus_weights(alg)
    W2 = WeightSystem.from_json(T, W.to_json())
    assert W2.mode == "exact" and W2.u == W.u
    Wf = WeightSystem(T, 3, u=[1 + 0j, 1j, -1j])
    Wf2 = WeightSystem.from_json(T, Wf.to_json())
    assert Wf2.u == Wf.u


# ---- contract: dimensions ----

def test_dimensions(torus_rep, sphere_rep, genus2_rep):
    assert sphere_rep.dim == 1
    assert torus_rep.dim == 3
    assert genus2_rep.dim == 81


def test_dimension_torus_N5():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 5)
    one = alg.scalars.one()
    W = WeightSystem(T, 5, u=[one, one, alg.scalars.omega(1)])
    rep = build_rep(T, 5, W, algebra=alg)
    assert rep.dim == 5


# ---- contract: central values ----

def test_central_values_exact(torus_rep, sphere_rep):
    for rep in (torus_rep, sphere_rep):
        alg = rep.algebra
        for v in range(rep.T.num_vertices):
            M = rep.apply(alg.central_H(v))
            assert exact_is_scalar(rep, M, rep.hv_scalar())
        for i in range(alg.n):
            M = rep.apply(alg.gen(i, 2 * alg.N))
            assert exact_is_scalar(rep, M, rep.weights.x[i])


@pytest.mark.parametrize("N", [3, 5, 7, 9])
@pytest.mark.parametrize("name, weights", [("torus1", exact_torus_weights),
                                           ("genus2_sep", exact_genus2_weights)])
def test_character_contract_exact(name, weights, N):
    """Any solution rho of the character congruences gives mu(Z_i^2N) = x_i
    and mu(H_v) = -omega^4."""
    alg = CFAlgebra(standard_library(name), N)
    W = weights(alg)
    rep = build_rep(alg.T, N, W, algebra=alg)
    for i in range(alg.n):
        k = [0] * alg.n
        k[i] = 2 * N
        assert rep.ctx.scalar_of(rep.monomial_image(k)) == W.x[i]
    for v in range(alg.T.num_vertices):
        assert rep.ctx.scalar_of(rep.weyl_image(alg.T.end_counts(v))) == rep.hv_scalar()


def test_central_values_float(genus2_rep):
    rep = genus2_rep
    alg = rep.algebra
    M = rep.apply(alg.central_H(0))
    assert np.abs(M - rep.hv_scalar() * np.eye(rep.dim)).max() < 1e-9
    for i in range(alg.n):
        M = rep.apply(alg.gen(i, 2 * alg.N))
        assert np.abs(M - rep.weights.x[i] * np.eye(rep.dim)).max() < 1e-9


# ---- contract: relations and multiplicativity ----

def test_weyl_relation_exact(torus_rep):
    rep, alg = torus_rep, torus_rep.algebra
    lat = rep.lattice
    for k in lat.basis:
        for l in lat.basis:
            kl = tuple(a + b for a, b in zip(k, l))
            R = scaled(rep.weyl_image(kl), rep.ctx.omega(alg.pairing(k, l)))
            P = compose(rep.weyl_image(k), rep.weyl_image(l))
            assert P[0] == R[0]
            assert all((a - b).is_zero() for a, b in zip(P[1], R[1]))


def test_weyl_relation_float(genus2_rep):
    rep, alg = genus2_rep, genus2_rep.algebra
    lat = rep.lattice
    rng = random.Random(4)
    for _ in range(40):
        k = random_balanced_monomial(alg, rng).monomial_data()[0]
        l = random_balanced_monomial(alg, rng).monomial_data()[0]
        kl = tuple(a + b for a, b in zip(k, l))
        R = scaled(rep.weyl_image(kl), rep.ctx.omega(alg.pairing(k, l)))
        P = compose(rep.weyl_image(k), rep.weyl_image(l))
        # a product of monomial matrices has one product per entry
        assert P[0] == R[0]
        assert np.abs(np.subtract(P[1], R[1])).max() < 1e-8


def test_apply_identity_and_H(torus_rep):
    rep, alg = torus_rep, torus_rep.algebra
    assert exact_is_scalar(rep, rep.apply(alg.one()), rep.ctx.one())
    assert exact_is_scalar(rep, rep.apply(alg.central_H(0)), rep.hv_scalar())


def test_apply_multiplicative(genus2_rep):
    rep, alg = genus2_rep, genus2_rep.algebra
    rng = random.Random(17)
    for _ in range(50):
        a = random_balanced_monomial(alg, rng, bound=1) + \
            random_balanced_monomial(alg, rng, bound=1)
        b = random_balanced_monomial(alg, rng, bound=1)
        assert np.abs(rep.apply(a * b) - rep.apply(a) @ rep.apply(b)).max() < 1e-7


def test_apply_rejects_unbalanced(torus_rep):
    with pytest.raises(NotBalanced):
        torus_rep.apply(torus_rep.algebra.gen(0))


# ---- irreducibility ----

def test_commutant_dims(torus_rep, sphere_rep, genus2_rep):
    assert torus_rep.commutant_dim() == 1
    assert sphere_rep.commutant_dim() == 1
    assert genus2_rep.commutant_dim() == 1


# ---- centrality characterization ----

def test_scalar_iff_pairing_divisible(torus_rep):
    rep, alg = torus_rep, torus_rep.algebra
    lat = rep.lattice
    rng = random.Random(23)
    for _ in range(60):
        k = random_balanced_monomial(alg, rng, bound=2).monomial_data()[0]
        divisible = all(alg.pairing(k, l) % (2 * alg.N) == 0 for l in lat.basis)
        assert (rep.ctx.scalar_of(rep.weyl_image(k)) is not None) == divisible


# ---- errors ----

def test_inconsistent_center():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    # x = (z3, z3, z3) satisfies both fan relations, but prod x = +1 while
    # mu(H)^N = mu(Z1^2N Z2^2N Z3^2N) = prod x must equal (-omega^4)^N = -1
    z3 = alg.scalars.omega(4)
    w36 = CFAlgebra(T, 3, field_order=36).scalars
    u = [w36.field.root_pow(2)] * 3   # u^6 = zeta_6^... = zeta_3
    W = WeightSystem(T, 3, u=u)
    assert W.validate()["valid"]
    with pytest.raises(InconsistentCenter):
        build_rep(T, 3, W, algebra=CFAlgebra(T, 3, field_order=36))


def test_inconsistent_center_float():
    T = standard_library("genus2_sep")
    import cmath
    # a vertex-valid +-1 system whose product is +1 cannot carry the center
    x = (1, 1, 1, -1, -1, 1, -1, 1, -1)
    fan = T.fans[0].edges
    prefix, tot = 1, 0
    for j in range(18):
        tot += prefix
        prefix *= x[fan[j]]
    assert tot == 0 and prefix == 1  # vertex-valid
    u = [cmath.exp(1j * cmath.pi / 6) if xi < 0 else 1 + 0j for xi in x]
    with pytest.raises(InconsistentCenter):
        build_rep(T, 3, WeightSystem(T, 3, u=u))


def test_rep_rejects_foreign_triangulation():
    sphere, torus = standard_library("sphere2"), standard_library("torus1")
    alg_s, alg_t = CFAlgebra(sphere, 3), CFAlgebra(torus, 3)
    W_sphere, W_torus = exact_sphere_weights(alg_s), exact_torus_weights(alg_t)
    with pytest.raises(ValueError):
        build_rep(sphere, 3, W_sphere, algebra=alg_t)
    with pytest.raises(ValueError):
        build_rep(standard_library("genus2_sep"), 3, W_torus, algebra=alg_t)
    with pytest.raises(ValueError):
        build_rep(torus, 5, W_torus, algebra=alg_t)
    with pytest.raises(ValueError):
        CFRep(alg_t, W_sphere)
    # an equal gluing table on another object is the same triangulation
    assert build_rep(torus, 3, W_torus, algebra=CFAlgebra(standard_library("torus1"), 3)).dim == 3


# ---- sign reversal and weight rescaling ----

def test_precompose_sign_reversal(torus_rep):
    rep, alg = torus_rep, torus_rep.algebra
    eps = SignReversalClass(rep.T, (1, 1, 0))
    rep2 = rep.precompose_sign_reversal(eps)
    # unchanged on even monomials
    for i in range(alg.n):
        M = rep2.apply(alg.gen(i, 2 * alg.N))
        assert exact_is_scalar(rep2, M, rep.weights.x[i])
    M = rep2.apply(alg.central_H(0))
    assert exact_is_scalar(rep2, M, rep.hv_scalar())
    # negated on monomials with odd class value
    k = (1, 0, 1)
    assert eps.value(k) == 1
    assert rep2.cocycle(k) == -rep.cocycle(k)
    # trivial class is the identity
    rep3 = rep.precompose_sign_reversal(SignReversalClass(rep.T, (0, 0, 0)))
    assert rep3.cocycle(k) == rep.cocycle(k)


def test_precompose_requires_admissible(sphere_rep):
    eps = SignReversalClass(sphere_rep.T, (1, 0, 0))
    with pytest.raises(Inadmissible):
        sphere_rep.precompose_sign_reversal(eps)


def test_root_rescaling_changes_only_cocycle(torus_rep):
    alg = torus_rep.algebra
    one = alg.scalars.one()
    w = alg.scalars.omega(1)
    # u' = (w^6, w^-6, w) has the same x and the same fan root product
    W2 = WeightSystem(alg.T, 3, u=[alg.scalars.omega(6), alg.scalars.omega(-6), w])
    assert W2.x == torus_rep.weights.x
    rep2 = build_rep(alg.T, 3, W2, algebra=alg)
    assert rep2.dim == torus_rep.dim
    assert rep2.rho == torus_rep.rho  # same discrete data
    # the ratio of the two cocycles is a character
    lat = torus_rep.lattice
    for k in lat.basis:
        for l in lat.basis:
            kl = tuple(a + b for a, b in zip(k, l))
            r_k = rep2.cocycle(k) * torus_rep.cocycle(k).inv()
            r_l = rep2.cocycle(l) * torus_rep.cocycle(l).inv()
            r_kl = rep2.cocycle(kl) * torus_rep.cocycle(kl).inv()
            assert r_k * r_l == r_kl


def test_weight_independent_intertwiner():
    # A_k with mu([Z^k]) = u^k A_k is the same discrete data for independent
    # weight systems in a common branch (equal fan-product logarithms)
    T = standard_library("genus2_sep")
    rng = random.Random(7)
    W1 = sample_generic_weights(T, 3, rng)
    rep1 = build_rep(T, 3, W1)
    for _ in range(200):
        W2 = sample_generic_weights(T, 3, rng)
        rep2 = build_rep(T, 3, W2)
        if rep2._hv_logs == rep1._hv_logs:
            break
    else:
        pytest.skip("no branch-matching sample found")
    assert any(abs(a - b) > 1e-6 for a, b in zip(W1.u, W2.u))
    assert rep2.rho == rep1.rho
    lat = rep1.lattice
    for k in lat.basis:
        assert rep1.intertwiner_part(k) == rep2.intertwiner_part(k)


def test_representations_share_the_algebra_lattice(monkeypatch):
    built = []
    init = BalancedLattice.__init__

    def counting_init(self, algebra):
        built.append(algebra)
        init(self, algebra)

    monkeypatch.setattr(BalancedLattice, "__init__", counting_init)
    alg = CFAlgebra(standard_library("torus1"), 3)
    W = exact_torus_weights(alg)
    reps = [build_rep(alg.T, 3, W, algebra=alg),
            build_rep(alg.T, 3, WeightSystem(alg.T, 3, u=[complex(u) for u in W.u]),
                      algebra=alg)]
    assert built == [alg]
    assert all(rep.lattice is alg.lattice for rep in reps)


def reference_intertwiner_part(rep, k):
    """A_k by a loop over every tensor index and lattice factor: the
    reference for the index arithmetic of CFRep.intertwiner_part."""
    strides, s = [], 1
    for t in reversed(rep.active):
        strides.insert(0, s)
        s *= rep.orders[t]
    # W(k) = omega^(sum_t d_t al_t be_t) prod_t V_t^(be_t) U_t^(al_t) over the pairs
    gamma, ab = rep.lattice.coords(k), []
    base = sum(r * g for r, g in zip(rep.rho, gamma)) + 2 * rep.N * (rep.sign is not None
                                                                    and rep.sign.value(k))
    for t, (a, b, d) in enumerate(rep.pairs):
        base += d * gamma[a] * gamma[b]
        if t in rep.active:
            ab.append((gamma[a], gamma[b], d, rep.orders[t]))
    perm, expo = [], []
    for i in range(rep.dim):
        e, target = base, 0
        for (al, be, d, m), stride in zip(ab, strides):
            pos = (i // stride) % m
            e += 2 * d * al * pos
            target += ((pos + be) % m) * stride
        perm.append(target)
        expo.append(e % (4 * rep.N))
    return tuple(perm), tuple(expo)


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("name", ["torus1", "sphere2", "genus2_sep"])
def test_intertwiner_part_matches_index_loop(name, N):
    T = standard_library(name)
    alg = CFAlgebra(T, N)
    if name == "genus2_sep":
        W = sample_generic_weights(T, N, random.Random(N))
    else:
        W = {"torus1": exact_torus_weights, "sphere2": exact_sphere_weights}[name](alg)
    rep = build_rep(T, N, W, algebra=alg)
    rng = random.Random(N)
    while True:
        eps = SignReversalClass(T, [rng.randint(0, 1) for _ in range(T.num_edges)])
        if any(eps.c) and eps.is_admissible():
            break
    ks = [tuple(b) for b in alg.lattice.basis]
    ks += [random_balanced_exponent(alg, rng) for _ in range(20)]
    for r in (rep, rep.precompose_sign_reversal(eps)):
        # one row of the batched images, and every row of them
        shifts, phases, exps, _ = r._factors(ks)
        expos = r._exponents(phases, exps)
        for k, shift, expo in zip(ks, shifts, expos):
            want = reference_intertwiner_part(r, k)
            assert r.intertwiner_part(k) == want
            assert (tuple(r._perm(shift).tolist()), tuple(expo.tolist())) == want


# ---- monomial images and operators on arrays ----

def reference_monomial_image(rep, k, weyl=True):
    """mu(Z^k) = omega^(w(k)) u^k A_k from reference_intertwiner_part, the
    Weyl weight of the algebra and u^k by scalar powers, as one term
    (perm, scale) of lists; without weyl, mu([Z^k]) = u^k A_k."""
    perm, expo = reference_intertwiner_part(rep, k)
    uk = rep.ctx.one()
    for i, ki in enumerate(k):
        if ki:
            ui = rep.weights.u[i]
            uk = uk * (ui if ki > 0 else rep.ctx.inv(ui)) ** abs(ki)
    mod, w = 4 * rep.N, rep.algebra.weyl_weight(k) if weyl else 0
    scales = [uk * rep.ctx.omega(j) for j in range(mod)]
    return list(perm), [scales[(e + w) % mod] for e in expo]


def reference_operator(rep, a):
    """mu(a) as the sum of the reference images per translation, in a.terms
    order, all-zero translations dropped: CycloScalar sums of c scale
    (exact), or numpy sums of complex(c) times each scale vector (float)."""
    sums = {}
    for k, c in a.terms.items():
        perm, scale = reference_monomial_image(rep, k)
        key = tuple(perm)
        if rep.ctx.mode == "float":
            sums[key] = sums.get(key, 0) + complex(c) * np.asarray(scale, dtype=complex)
        else:
            old = sums.get(key, [rep.ctx.zero()] * rep.dim)
            sums[key] = [b + c * v for b, v in zip(old, scale)]
    return [(list(p), s) for p, s in sums.items()
            if any(not rep.ctx.is_zero(v, 0.0) for v in s)]


def assert_operator_matches_reference(rep, a):
    got, want = rep.operator(a), reference_operator(rep, a)
    assert got.perms.tolist() == [p for p, _ in want]
    if rep.ctx.mode == "float":
        assert all(np.array_equal(g, w) for g, (_, w) in zip(got.scales, want))
    else:
        assert [s for _, s in got.terms()] == [s for _, s in want]
    return got


@functools.lru_cache(maxsize=None)
def image_reps():
    """genus2_sep at N=3 under +-1 weights, under weights that are not
    roots of unity (2, 1/2, 1 + zeta, 1/(1 + zeta) times the +-1 ones: the
    same fan product), under weights that mix the two (omega, 2, 1 + zeta,
    omega^-3, 1/2, 1/(1 + zeta) and omega^2 times the +-1 ones), under the
    +-1 weights as floats, and the first two sign-reversed."""
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    W, f, w = exact_genus2_weights(alg), alg.scalars.field, alg.scalars.omega
    one_plus = f.one() + f.root_pow(1)
    two, half = f.from_rational(2), f.from_rational(Fraction(1, 2))
    factors = [two, half, one_plus, one_plus.inv()] + [f.one()] * (alg.n - 4)
    mixed = [w(1), two, one_plus, w(-3), half, one_plus.inv(), w(2)] + [f.one()] * (alg.n - 7)

    def rescaled(cs):
        return build_rep(alg.T, 3, WeightSystem(alg.T, 3, u=[u * c for u, c in zip(W.u, cs)]),
                         algebra=alg)

    reps = {"roots": build_rep(alg.T, 3, W, algebra=alg), "non-roots": rescaled(factors),
            "mixed": rescaled(mixed),
            "float": build_rep(alg.T, 3, WeightSystem(alg.T, 3, u=[complex(u) for u in W.u]),
                               algebra=alg)}
    rng = random.Random(5)
    while True:
        eps = SignReversalClass(alg.T, [rng.randint(0, 1) for _ in range(alg.n)])
        if any(eps.c) and eps.is_admissible():
            break
    for name in ("roots", "non-roots"):
        reps[name + "-signed"] = reps[name].precompose_sign_reversal(eps)
    return alg, reps


def job_elements(alg):
    """Q_v, D = rho[K1] - rho[K2] and the threaded traces T_N of both
    push-offs: the operators of an exact genus-2 job."""
    e = alg.T.designated_edge
    tr1, tr2 = pushoff_pair(alg, e)
    threaded = [element_chebyshev(edge_parallel_trace(alg, LoopSpec.edge_parallel(e, side)),
                                  alg.N) for side in (1, 2)]
    return [alg.offdiag_Q(0), tr1 - tr2] + threaded


def fraction_elements(alg, rng):
    """Random balanced monomials with Fraction coefficients, and the
    negated exponents of the first basis vectors."""
    def coeff():
        return alg.scalars.from_rational(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))

    out = [random_balanced_monomial(alg, rng).scale(coeff()) for _ in range(3)]
    out.append(sum((alg.monomial([-x for x in b], coeff()) for b in alg.lattice.basis[:3]),
                   alg.zero()))
    return [out[0] + out[1] + out[2], out[3]]


@pytest.mark.parametrize("name", ["roots", "non-roots", "mixed", "float", "roots-signed",
                                  "non-roots-signed"])
def test_operator_matches_the_scalar_sum_of_reference_images(name):
    alg, reps = image_reps()
    rep = reps[name]
    # the split u_i = omega^(e_i) r_i: the exponents e_i and the products
    # of the r_i each run on the weights that need them
    roots = [rep.ctx.mode == "exact" and ui in {rep.ctx.omega(j) for j in range(12)}
             for ui in rep.weights.u]
    assert [i for i, _ in rep._logs] == [i for i, (r, ui) in enumerate(zip(roots, rep.weights.u))
                                         if r and ui != 1]
    assert [i for i, _ in rep._residues] == [i for i, r in enumerate(roots) if not r]
    if name == "mixed":
        assert any(rep._logs) and rep._residues
    rng = random.Random(len(name))
    for a in job_elements(alg) + fraction_elements(alg, rng):
        assert_operator_matches_reference(rep, a)
    k = random_balanced_exponent(alg, rng)
    assert rep.monomial_image(k).terms() == [reference_monomial_image(rep, k)]
    assert rep.weyl_image(k).terms() == [reference_monomial_image(rep, k, weyl=False)]


def test_sign_reversal_leaves_the_kept_powers_valid():
    # precompose_sign_reversal copies the representation's tables: images
    # of one are still right after the other has filled them, both ways
    alg, reps = image_reps()
    rep, signed = reps["non-roots"], reps["non-roots-signed"]
    a = fraction_elements(alg, random.Random(9))[0]
    for r in (signed, rep, signed):
        assert_operator_matches_reference(r, a)
    assert signed._powers is rep._powers
    assert reference_operator(signed, a) != reference_operator(rep, a)


def test_operator_with_coefficients_past_int64_takes_python_ints(monkeypatch):
    alg, reps = image_reps()
    rep = reps["non-roots"]
    dtypes = []
    convolve = scalars.convolve

    def spy(a, b):
        out = convolve(a, b)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(scalars, "convolve", spy)
    big = alg.scalars.from_rational(Fraction(2 ** 62 + 1, 3))
    rng = random.Random(2)
    a = sum((random_balanced_monomial(alg, rng).scale(big) for _ in range(3)), alg.zero())
    assert_operator_matches_reference(rep, a + alg.offdiag_Q(0))
    assert object in dtypes


def test_unbalanced_exponents_raise_not_balanced():
    alg, reps = image_reps()
    rep = reps["roots"]
    k = alg.lattice.basis[0]
    with pytest.raises(NotBalanced):
        rep.operator(alg.monomial(k) + alg.gen(0))
    for call in (rep.intertwiner_part, rep.monomial_image):
        with pytest.raises(NotBalanced):
            call((1,) + (0,) * (alg.n - 1))
