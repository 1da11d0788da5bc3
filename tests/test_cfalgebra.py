import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from skeinrep.cfalgebra import (CFAlgebra, QTArray, QTElement, SignReversalClass,
                                commutator_is_zero)
from skeinrep.errors import (IndexOutOfRange, Inadmissible, MixedAlgebra,
                             NotBalanced)
from skeinrep.triangulation import octahedron, standard_library

from conftest import random_balanced_monomial


@pytest.fixture(scope="module")
def torus_alg():
    return CFAlgebra(standard_library("torus1"), 3)


@pytest.fixture(scope="module")
def sphere_alg():
    return CFAlgebra(standard_library("sphere2"), 3)


@pytest.fixture(scope="module")
def genus2_alg():
    return CFAlgebra(standard_library("genus2_sep"), 3)


# ---- products ----

_GENUS2 = standard_library("genus2_sep")
# L = 12, 36 (omega = zeta_36^3) and 20
PRODUCT_ALGEBRAS = (CFAlgebra(_GENUS2, 3), CFAlgebra(_GENUS2, 3, field_order=36),
                    CFAlgebra(_GENUS2, 5))


def test_torus_swap_relation(torus_alg):
    alg = torus_alg
    z1, z2 = alg.gen(0), alg.gen(1)
    # Z2 Z1 = omega^{-4} Z1 Z2
    assert z2 * z1 == (z1 * z2).scale(alg.omega(-4))
    assert z1 * z2 == alg.monomial((1, 1, 0), alg.omega(0))


def test_identity_and_mixed(torus_alg, sphere_alg):
    rng = random.Random(0)
    a = random_balanced_monomial(torus_alg, rng) + random_balanced_monomial(torus_alg, rng)
    assert torus_alg.one() * a == a
    with pytest.raises(MixedAlgebra):
        torus_alg.one() * sphere_alg.one()
    # same triangulation and N, coefficients in Q(zeta_12) and Q(zeta_36)
    wide = CFAlgebra(torus_alg.T, 3, field_order=36)
    for a, b in ((torus_alg.gen(0), wide.gen(1)), (wide.gen(0), torus_alg.gen(1))):
        with pytest.raises(MixedAlgebra):
            a * b
        with pytest.raises(MixedAlgebra):
            a + b


def test_associativity_random(torus_alg, genus2_alg):
    rng = random.Random(42)
    for alg in (torus_alg, genus2_alg) + PRODUCT_ALGEBRAS[1:]:
        for _ in range(100):
            a = random_balanced_monomial(alg, rng) + random_balanced_monomial(alg, rng)
            b = random_balanced_monomial(alg, rng)
            c = random_balanced_monomial(alg, rng) + random_balanced_monomial(alg, rng)
            assert (a * b) * c == a * (b * c)


# ---- the fused product against a term-by-term reference (hypothesis) ----


def reference_product(a, b):
    """a * b summed term by term: ck cl omega^(product_twist(k, l))."""
    alg = a.algebra
    terms = {}
    for k, ck in a.terms.items():
        for l, cl in b.terms.items():
            m = tuple(x + y for x, y in zip(k, l))
            c = ck * cl * alg.omega(alg.product_twist(k, l))
            terms[m] = terms[m] + c if m in terms else c
    return QTElement(alg, terms)


def coefficients(field):
    """Roots of unity, rationals with denominators and general elements."""
    d = field.degree
    general = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                       min_size=d, max_size=d).map(field.from_coeffs)
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
        bool).map(field.from_rational)
    root = st.integers(0, field.order - 1).map(field.root_pow)
    return st.one_of(root, rational, general)


def exponents(alg):
    return st.tuples(*[st.integers(-2, 2)] * alg.n)


@st.composite
def qt_elements(draw, alg, max_terms=4):
    terms = draw(st.dictionaries(exponents(alg), coefficients(alg.scalars.field),
                                 min_size=1, max_size=max_terms))
    return QTElement(alg, terms)


@st.composite
def algebra_and_elements(draw, n):
    alg = draw(st.sampled_from(PRODUCT_ALGEBRAS))
    return (alg,) + tuple(draw(qt_elements(alg)) for _ in range(n))


def assert_same_product(got, want):
    """Equal values, and monomials in the same order of first appearance."""
    assert got == want
    assert list(got.terms) == list(want.terms)


@given(algebra_and_elements(2))
def test_product_matches_reference(ab):
    _, a, b = ab
    assert_same_product(a * b, reference_product(a, b))
    assert_same_product(b * a, reference_product(b, a))


@given(st.data())
def test_product_drops_cancelled_monomials(data):
    alg = data.draw(st.sampled_from(PRODUCT_ALGEBRAS))
    field = alg.scalars.field
    k1, l1, k2 = (data.draw(exponents(alg)) for _ in range(3))
    assume(k1 != k2)
    l2 = tuple(x + y - z for x, y, z in zip(k1, l1, k2))
    g, h = (data.draw(coefficients(field)) for _ in range(2))
    assume(not (g.is_zero() or h.is_zero()))
    # g Z^k1 . h Z^l1 and the second term of a times h Z^l2 meet at m and cancel
    t = alg.product_twist(k1, l1) - alg.product_twist(k2, l2)
    a = alg.monomial(k1, g) - alg.monomial(k2, g * alg.omega(t))
    b = alg.monomial(l1, h) + alg.monomial(l2, h)
    m = tuple(x + y for x, y in zip(k1, l1))
    ab = a * b
    assert m not in ab.terms
    assert_same_product(ab, reference_product(a, b))
    assert len(ab.terms) == 2


# ---- the array form against QTElement ----


def packed(a, b):
    """a and b in array form over one box that holds their products."""
    return QTArray.pack(a, 2, b), QTArray.pack(b, 2, a)


def assert_same_arrays(a, b):
    """The array product, difference, int multiple and one of a and b are
    the QTElement ones, term for term and in order."""
    A, B = packed(a, b)
    alg = a.algebra
    for got, want in (((A * B).unpack(), a * b), ((B * A).unpack(), b * a),
                      ((A - B).unpack(), a - b), ((B - A).unpack(), b - a),
                      ((3 * A).unpack(), a.scale(3)), ((0 * A).unpack(), alg.zero()),
                      ((A ** 0).unpack(), alg.one()), (A.unpack(), a)):
        assert_same_product(got, want)


@given(algebra_and_elements(2))
def test_array_form_matches_qtelement(ab):
    _, a, b = ab
    assert_same_arrays(a, b)
    assert_same_arrays(a, a.algebra.zero())
    assert_same_arrays(a, a)


@given(st.data())
def test_array_product_drops_cancelled_monomials(data):
    alg = data.draw(st.sampled_from(PRODUCT_ALGEBRAS))
    field = alg.scalars.field
    k1, l1, k2 = (data.draw(exponents(alg)) for _ in range(3))
    assume(k1 != k2)
    l2 = tuple(x + y - z for x, y, z in zip(k1, l1, k2))
    g, h = (data.draw(coefficients(field)) for _ in range(2))
    assume(not (g.is_zero() or h.is_zero()))
    t = alg.product_twist(k1, l1) - alg.product_twist(k2, l2)
    a = alg.monomial(k1, g) - alg.monomial(k2, g * alg.omega(t))
    b = alg.monomial(l1, h) + alg.monomial(l2, h)
    A, B = packed(a, b)
    assert len((A * B).codes) == 2
    assert_same_arrays(a, b)
    assert (A - A).unpack().is_zero() and not len((A - A).codes)


def test_array_form_leaves_int64_for_python_ints():
    """A coefficient of 2^40 or more, or an exponent box above 2^63, moves
    the numerators or the exponents and codes to Python ints, with the same
    results."""
    alg = PRODUCT_ALGEBRAS[2]
    rng = random.Random(7)
    field = alg.scalars.field
    general = field.from_coeffs([Fraction(rng.randint(-9, 9), 5) for _ in range(field.degree)])
    small = random_balanced_monomial(alg, rng) + random_balanced_monomial(alg, rng)
    b = alg.monomial(next(iter(small.terms)), general) + random_balanced_monomial(alg, rng)
    big, b = (small + b).scale(2 ** 40 + 1), b.scale(2 ** 40)
    A, B = packed(big, b)
    assert A.nums.dtype != object and A.exps.dtype != object
    assert (A * B).nums.dtype == object and (B * A).nums.dtype == object
    assert_same_arrays(big, b)
    wide = alg.monomial([2 ** 61] + [0] * (alg.n - 1)) + b
    A, B = packed(wide, b)
    assert A.exps.dtype == object and A.codes.dtype == object
    assert A.nums.dtype != object
    assert_same_arrays(wide, b)
    assert_same_arrays(wide.scale(2 ** 40), b)


def test_array_product_stays_in_its_box(genus2_alg):
    rng = random.Random(3)
    a = random_balanced_monomial(genus2_alg, rng) + random_balanced_monomial(genus2_alg, rng)
    A = QTArray.pack(a, 1)
    with pytest.raises(ValueError):
        A * A
    with pytest.raises(MixedAlgebra):
        QTArray.pack(a, 2) - A
    with pytest.raises(ValueError):
        A ** 2


def test_monomial_inverse(torus_alg):
    rng = random.Random(9)
    for _ in range(20):
        m = random_balanced_monomial(torus_alg, rng)
        assert m * m.inverse() == torus_alg.one()
        assert m.inverse() * m == torus_alg.one()


# ---- Weyl ordering ----

def test_weyl_examples(torus_alg):
    alg = torus_alg
    # sigma_12 = 2, so [Z1 Z2] = omega^{-2} Z1 Z2
    assert alg.weyl((1, 1, 0)) == alg.monomial((1, 1, 0), alg.omega(-2))
    assert alg.weyl((1, 0, 0)) == alg.gen(0)


def test_weyl_permutation_invariance(torus_alg):
    alg = torus_alg
    # [Z1 Z2] defined from the ordered product either way round
    w = alg.weyl((1, 1, 0))
    assert w == (alg.gen(0) * alg.gen(1)).scale(alg.omega(-2))
    assert w == (alg.gen(1) * alg.gen(0)).scale(alg.omega(2))


def test_weyl_product_law(torus_alg, genus2_alg):
    rng = random.Random(7)
    for alg in (torus_alg, genus2_alg):
        for _ in range(60):
            k = random_balanced_monomial(alg, rng).monomial_data()[0]
            l = random_balanced_monomial(alg, rng).monomial_data()[0]
            lhs = alg.weyl(k) * alg.weyl(l)
            rhs = alg.weyl(tuple(a + b for a, b in zip(k, l))).scale(
                alg.omega(alg.pairing(k, l)))
            assert lhs == rhs
            # commutation form follows: ratio of the two orders is omega^(2 k.sigma.l)
            assert alg.weyl(k) * alg.weyl(l) == (alg.weyl(l) * alg.weyl(k)).scale(
                alg.omega(2 * alg.pairing(k, l)))


# ---- balancedness and the lattice ----

def test_is_balanced_examples(torus_alg):
    alg = torus_alg
    assert alg.is_balanced((2, 0, 0))
    assert not alg.is_balanced((1, 0, 0))
    assert alg.is_balanced((0, 0, 0))


def test_torus_lattice(torus_alg):
    lat = torus_alg.lattice
    assert lat.rank == 3
    # the stated basis spans the same lattice
    for v in [(1, 1, 0), (0, 1, 1), (2, 0, 0)]:
        lat.coords(v)
    with pytest.raises(NotBalanced):
        lat.coords((1, 0, 0))


def test_sphere_lattice_index(sphere_alg):
    lat = sphere_alg.lattice
    assert lat.rank == 3
    # oracle: the parity map has rank 1 over GF(2) (both faces give the same
    # condition), so the lattice has index 2^1 in Z^3
    T = sphere_alg.T
    images = {tuple(sum(k[e] for e in T.face_edges(f)) % 2 for f in range(2))
              for k in [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]}
    assert lat.index_in_ZE == len(images) == 2


def test_genus2_lattice(genus2_alg):
    assert genus2_alg.lattice.rank == 9


def test_lattice_normal_form(torus_alg, genus2_alg, sphere_alg):
    for alg in (torus_alg, genus2_alg, sphere_alg):
        lat = alg.lattice
        # pairing in the normal basis is hyperbolic-by-radical
        for a, b, d in lat.pairs:
            assert d > 0
            assert alg.pairing(lat.nf_basis[a], lat.nf_basis[b]) == d
        for r in lat.radical:
            for other in lat.nf_basis:
                assert alg.pairing(lat.nf_basis[r], other) == 0
        # coords invert the basis
        for j, v in enumerate(lat.nf_basis):
            expected = tuple(int(i == j) for i in range(len(lat.nf_basis)))
            assert lat.coords(v) == expected


def test_central_vectors_in_radical(torus_alg, genus2_alg, sphere_alg):
    # sigma kills every vertex end-count vector
    for alg in (torus_alg, genus2_alg, sphere_alg):
        T = alg.T
        for v in range(T.num_vertices):
            h = T.end_counts(v)
            assert all(alg.pairing(h, [int(i == j) for j in range(alg.n)]) == 0
                       for i in range(alg.n))


# ---- H_v and Q_v ----

def test_central_H_torus(torus_alg):
    alg = torus_alg
    H = alg.central_H(0)
    assert H == alg.monomial((2, 2, 2), alg.omega(-8))


def test_central_H_sphere(sphere_alg):
    alg = sphere_alg
    got = {alg.central_H(v).monomial_data()[0] for v in range(3)}
    assert got == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    for v in range(3):
        k, c = alg.central_H(v).monomial_data()
        assert c == alg.scalars.one()  # sigma = 0: Weyl ordering trivial


def test_central_H_fan_coefficient(torus_alg, sphere_alg, genus2_alg):
    # H_v = omega^(2-u) * (fan-ordered product of generators)
    for alg in (torus_alg, sphere_alg, genus2_alg):
        for v in range(alg.T.num_vertices):
            fan = alg.T.fans[v].edges
            u = len(fan)
            prod = alg.ordered_product(fan)
            assert alg.central_H(v) == prod.scale(alg.omega(2 - u))


def test_central_H_is_central(torus_alg, genus2_alg):
    rng = random.Random(13)
    for alg in (torus_alg, genus2_alg):
        H = alg.central_H(0)
        for _ in range(100):
            m = random_balanced_monomial(alg, rng)
            assert commutator_is_zero(H, m)


def test_weyl_prefix_cases(torus_alg):
    alg = torus_alg
    fan = alg.T.fans[0].edges  # (0,1,2,0,1,2)
    u = len(fan)
    # pure second case at k0=4: e_{i_4} == e_{i_1}
    k0 = 4
    assert fan[k0 - 1] == fan[0]
    assert alg.weyl_prefix(0, k0) == -k0 + 2
    # pure third case at k0=2: e_{i_3} == e_{i_6}
    k0 = 2
    assert fan[k0] == fan[u - 1]
    assert alg.weyl_prefix(0, k0) == -k0
    with pytest.raises(IndexOutOfRange):
        alg.weyl_prefix(0, 0)
    with pytest.raises(IndexOutOfRange):
        alg.weyl_prefix(0, 6)


def test_weyl_prefix_combinatorial_case():
    alg = CFAlgebra(octahedron(), 3)
    # first case everywhere: e = -k0 + 1
    for v in range(alg.T.num_vertices):
        fan = alg.T.fans[v].edges
        u = len(fan)
        for k0 in range(2, u):
            if fan[k0 - 1] != fan[0] and fan[k0 % u] != fan[u - 1]:
                assert alg.weyl_prefix(v, k0) == -k0 + 1


def test_weyl_prefix_consistency(genus2_alg):
    # the returned exponent always matches the Weyl ordering of the prefix word
    alg = genus2_alg
    fan = alg.T.fans[0].edges
    for k0 in range(2, len(fan)):
        e = alg.weyl_prefix(0, k0)
        prefix = alg.ordered_product(fan[:k0])
        assert alg.weyl([fan[:k0].count(i) for i in range(alg.n)]) == prefix.scale(alg.omega(e))


def test_offdiag_Q_torus_factorization(torus_alg):
    alg = torus_alg
    Q = alg.offdiag_Q(0, start=0)
    assert len(Q.terms) == 6
    assert Q.is_balanced()
    inner = (alg.one() + alg.gen(0, 2).scale(alg.omega(-4))
             + (alg.gen(0, 2) * alg.gen(1, 2)).scale(alg.omega(-8)))
    outer = alg.one() + alg.central_H(0).scale(alg.omega(-4))
    assert Q == outer * inner


def test_offdiag_Q_sphere(sphere_alg):
    alg = sphere_alg
    for v in range(3):
        Q = alg.offdiag_Q(v)
        first_edge = alg.T.fans[v].edges[0]
        assert Q == alg.one() + alg.gen(first_edge, 2).scale(alg.omega(-4))


def test_offdiag_Q_rotation_recursion(torus_alg, genus2_alg):
    # Q_v' (start shifted back by one) = 1 + w^-4 Z_last^2 Q_v
    #                                      - w^-4u Z_last^2 Z_{i_1}^2...Z_{i_{u-1}}^2
    for alg in (torus_alg, genus2_alg):
        for v in range(alg.T.num_vertices):
            fan = alg.T.fans[v].edges
            u = len(fan)
            for start in range(u):
                Q = alg.offdiag_Q(v, start=start)
                Qp = alg.offdiag_Q(v, start=(start - 1) % u)
                last = alg.gen(fan[(start - 1) % u], 2)
                tail = alg.one()
                for j in range(u - 1):
                    tail = tail * alg.gen(fan[(start + j) % u], 2)
                rhs = (alg.one() + (last * Q).scale(alg.omega(-4))
                       - (last * tail).scale(alg.omega(-4 * u)))
                assert Qp == rhs


# ---- sign reversal ----

def test_sign_reversal_fixes_Q(torus_alg):
    alg = torus_alg
    eps = SignReversalClass(alg.T, (1, 0, 1))
    Q = alg.offdiag_Q(0)
    assert eps.apply(Q) == Q  # even exponents


def test_sign_reversal_automorphism(genus2_alg):
    alg = genus2_alg
    rng = random.Random(3)
    eps = SignReversalClass(alg.T, tuple(rng.randint(0, 1) for _ in range(alg.n)))
    for _ in range(100):
        a = random_balanced_monomial(alg, rng, bound=1)
        b = random_balanced_monomial(alg, rng, bound=1)
        assert eps.apply(a * b) == eps.apply(a) * eps.apply(b)
        assert eps.apply(eps.apply(a)) == a


def test_sign_reversal_admissibility(torus_alg, sphere_alg):
    # one-vertex: h = (2,2,2), every class admissible
    assert SignReversalClass(torus_alg.T, (1, 1, 0)).is_admissible()
    # sphere: h vectors are the 0/1 vectors with two ones; (1,1,0) pairs to 1
    eps = SignReversalClass(sphere_alg.T, (1, 0, 0))
    assert not eps.is_admissible()
    with pytest.raises(Inadmissible):
        eps.require_admissible()
    # each h_v has exactly two odd entries, so the all-ones class is admissible
    assert SignReversalClass(sphere_alg.T, (1, 1, 1)).is_admissible()
    assert SignReversalClass(sphere_alg.T, (0, 0, 0)).is_admissible()


def test_sign_reversal_rejects_unbalanced(torus_alg):
    alg = torus_alg
    eps = SignReversalClass(alg.T, (1, 0, 0))
    with pytest.raises(NotBalanced):
        eps.apply(alg.gen(0))


def test_specialize_classical(torus_alg):
    alg = torus_alg
    a = alg.monomial((2, 0, 0), alg.omega(-4)) + alg.one()
    val = alg.specialize_classical(a, [Fraction(2), Fraction(1), Fraction(1)])
    assert val == 5


def split_root_loop(alg, c):
    """The root-of-unity split by trial: c omega^-j for j = 0 .. 4N-1 until
    the product is a positive rational."""
    for j in range(4 * alg.N):
        r = c * alg.omega(-j)
        if not any(r.coeffs[1:]) and r.coeffs[0] > 0:
            return r.coeffs[0], j
    raise ValueError("coefficient is not rational times a power of omega")


@pytest.mark.parametrize("alg", PRODUCT_ALGEBRAS, ids=["L12", "L36", "L20"])
def test_split_root_matches_trial_loop(alg):
    field = alg.scalars.field
    rationals = [Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-12, 5),
                 Fraction(6), Fraction(-1, 4)]
    for j in range(4 * alg.N):
        for q in rationals:
            c = alg.omega(j) * q
            assert alg._split_root(c) == split_root_loop(alg, c)
            assert alg._split_root(c) == (abs(q), (j + (2 * alg.N if q < 0 else 0))
                                          % (4 * alg.N))
    # not rational times a power of omega: a root of unity outside <omega>
    # (L = 36 only), a sum of two roots, and zero
    bad = [field.root_pow(k) * q for k in range(1, field.order)
           if k % alg.scalars.omega_step for q in rationals[:2]]
    bad += [alg.omega(0) + alg.omega(1), (alg.omega(1) + alg.omega(2)) * Fraction(2, 3),
            field.zero()]
    for c in bad:
        for split in (alg._split_root, lambda c: split_root_loop(alg, c)):
            with pytest.raises(ValueError):
                split(c)
