import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinrep.cyclotomic import CycloField, CycloScalar, convolve, cyclotomic_polynomial
from skeinrep.scalars import ExactScalars, FloatScalars

ORDERS = (12, 20, 36)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1
    assert cyclotomic_polynomial(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)


def test_root_orders():
    for N in (3, 5):
        ctx = ExactScalars(N)
        assert ctx.omega(4 * N) == ctx.one()
        assert ctx.omega(2 * N) == -ctx.one()
        # A = omega^{-2} is a primitive N-th root of -1
        A = ctx.omega(-2)
        assert A ** N == -ctx.one()
        for k in range(1, N):
            assert (A ** k) ** N != -ctx.one() or k % 2 == 1  # order exactly 2N
        assert ctx.omega(8) ** N == ctx.one()


def test_omega4_reduction_N3():
    # In Q(zeta_12), x^4 reduces to x^2 - 1 modulo Phi_12.
    field = CycloField(12)
    z4 = field.root_pow(4)
    assert z4.coeffs == (Fraction(-1), Fraction(0), Fraction(1), Fraction(0))


def test_field_laws_random():
    field = CycloField(12)
    rng = random.Random(7)

    def rand_scalar():
        return field.from_coeffs([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(field.degree)])

    for _ in range(100):
        a = rand_scalar()
        if a.is_zero():
            continue
        assert a * a.inv() == field.one()
    a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


def test_expansion_identity():
    ctx = ExactScalars(3)
    w = ctx.omega(1)
    wi = ctx.omega(-1)
    assert (w + wi) * (w - wi) == ctx.omega(2) - ctx.omega(-2)


def test_embedding_matches_float():
    exact = ExactScalars(3)
    flo = FloatScalars(3)
    rng = random.Random(1)
    for _ in range(50):
        j, k = rng.randint(-20, 20), rng.randint(-20, 20)
        a = exact.omega(j) + exact.omega(k) * exact.from_rational(Fraction(2, 3))
        z = flo.omega(j) + flo.omega(k) * (2.0 / 3.0)
        assert abs(a.to_complex() - z) < 1e-12
    # arithmetic commutes with the embedding
    a = exact.omega(5) + exact.from_rational(2)
    b = exact.omega(-3) * exact.from_rational(Fraction(1, 2))
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12


def test_zero_division():
    field = CycloField(12)
    with pytest.raises(ZeroDivisionError):
        field.zero().inv()


def test_serialization_roundtrip():
    field = CycloField(12)
    a = field.from_coeffs([Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)])
    assert CycloScalar.deserialize(field, a.serialize()) == a


def test_omega_log():
    ctx = ExactScalars(3)
    for k in range(12):
        assert ctx.omega_log(ctx.omega(k)) == k
    flo = FloatScalars(3)
    assert flo.omega_log(flo.omega(7)) == 7
    with pytest.raises(ValueError):
        flo.omega_log(0.5 + 0j)


def test_mixed_type_arithmetic_raises_type_error():
    a = CycloField(12).root_pow(1)
    for op in (lambda: a * 1.5, lambda: 1.5 * a, lambda: a + 2j, lambda: 2j + a,
               lambda: a - 0.5, lambda: 0.5 - a, lambda: a / 1.5):
        with pytest.raises(TypeError):
            op()
    assert a != 1.5


def test_root_of_unity_fast_paths():
    for L in ORDERS:
        field = CycloField(L)
        for k in range(L):
            z = field.root_pow(k)
            assert z.root_log() == k
            assert z.inv() == field.root_pow(L - k)
            assert z * z.inv() == field.one()
        assert (field.root_pow(1) * 2).root_log() is None
        assert field.from_rational(Fraction(1, 2)).root_log() is None
    ctx = ExactScalars(3, order=36)
    assert [ctx.omega_log(ctx.omega(k)) for k in range(12)] == list(range(12))
    for bad in (ctx.field.root_pow(1), ctx.omega(1) * 2, ExactScalars(3).omega(1)):
        with pytest.raises(ValueError):
            ctx.omega_log(bad)


# ---- properties of the integer representation (hypothesis) ----


def elements(field):
    """Elements with small rational coefficients, roots of unity and zero."""
    d = field.degree
    coeffs = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
                      min_size=d, max_size=d)
    return st.one_of(coeffs.map(field.from_coeffs),
                     st.integers(0, field.order - 1).map(field.root_pow),
                     st.just(field.zero()))


@st.composite
def field_elements(draw, n):
    field = CycloField(draw(st.sampled_from(ORDERS)))
    return (field,) + tuple(draw(elements(field)) for _ in range(n))


@st.composite
def field_vectors(draw, n):
    """A field and n equally long vectors over it."""
    field = CycloField(draw(st.sampled_from(ORDERS)))
    size = draw(st.integers(0, 4))
    return (field,) + tuple(draw(st.lists(elements(field), min_size=size, max_size=size))
                            for _ in range(n))


def assert_normal(a):
    """Lowest terms: den > 0 and gcd(den, content) = 1, so zero has den = 1."""
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert any(a.num) or a.den == 1
    assert a.coeffs == tuple(Fraction(c, a.den) for c in a.num)


@given(field_elements(2))
def test_normal_form_after_every_operation(fab):
    _, a, b = fab
    results = [a + b, a - b, a * b, -a, a * Fraction(3, 4), a / 6, a + 1, 1 - a]
    if not b.is_zero():
        results += [b.inv(), a / b]
    for r in results:
        assert_normal(r)


@given(field_elements(1))
def test_divide_then_multiply_by_three(fa):
    _, a = fa
    b = (a / 3) * 3
    assert b == a and hash(b) == hash(a)


@given(field_elements(3))
def test_field_laws(fabc):
    field, a, b, c = fabc
    zero, one = field.zero(), field.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    if not a.is_zero():
        assert a * a.inv() == one
        assert (a * b) / a == b


@given(field_vectors(2), st.data())
def test_fused_row_update_is_a_minus_f_b(fab, data):
    field, a, b = fab
    f = data.draw(elements(field))
    got = field.row_update(a, f, b)
    assert got == [x - f * y for x, y in zip(a, b)]
    for r in got:
        assert_normal(r)


def l1(a) -> float:
    return float(sum(abs(c) for c in a.coeffs))


@given(field_elements(2))
def test_to_complex_is_a_homomorphism(fab):
    _, a, b = fab
    za, zb = a.to_complex(), b.to_complex()
    scale = 1e-9 * (1 + l1(a)) * (1 + l1(b))
    assert abs((a + b).to_complex() - (za + zb)) <= scale
    assert abs((a * b).to_complex() - za * zb) <= scale


@given(field_elements(2))
def test_products_and_inverses_agree_with_sympy(fab):
    sympy = pytest.importorskip("sympy")
    field, a, b = fab
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(field.order, x), x, domain="QQ")

    def poly(c):
        return sympy.Poly(list(reversed(c.coeffs)), x, domain="QQ")

    assert (poly(a) * poly(b)).rem(phi) == poly(a * b)
    if not a.is_zero():
        assert poly(a).invert(phi) == poly(a.inv())


# ---- reduction modulo the field's prime ----

def is_prime(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def pack_one(field, values):
    """(nums, den) of one vector."""
    nums, dens = field.pack([values])
    return nums[0], dens[0]


def embed(field, values):
    """The (phi, len) images of values under the embeddings, or None."""
    return field.embed_mod_prime(*pack_one(field, values))


@pytest.mark.parametrize("L", ORDERS)
def test_field_prime_is_the_largest_below_2_31_holding_the_L_th_roots(L):
    field = CycloField(L)
    p = field.prime
    assert p < 2 ** 31 and p % L == 1 and is_prime(p)
    assert not any(is_prime(q) for q in range(p + L, 2 ** 31, L))
    # zeta -> z^u for the units u, so the images of zeta are the phi(L)
    # distinct roots of order exactly L
    zs = embed(field, [field.root_pow(1)])[:, 0].tolist()
    z = zs[0]
    assert [k for k in range(1, L + 1) if pow(z, k, p) == 1] == [L]
    units = [u for u in range(1, L) if math.gcd(u, L) == 1]
    assert zs == [pow(z, u, p) for u in units] and len(set(zs)) == field.degree


def reduce_all(field, a):
    return embed(field, [a])[:, 0]


@given(field_elements(2))
def test_reduction_mod_the_prime_is_a_ring_map(fab):
    field, a, b = fab
    p = field.prime
    ra, rb = reduce_all(field, a), reduce_all(field, b)
    assert np.array_equal(reduce_all(field, a + b), (ra + rb) % p)
    assert np.array_equal(reduce_all(field, a * b), ra * rb % p)
    assert (reduce_all(field, field.one()) == 1).all()
    if not a.is_zero():
        assert (reduce_all(field, a.inv()) * ra % p == 1).all()


def test_reduction_of_an_entry_whose_denominator_the_prime_divides():
    field = CycloField(12)
    p, one = field.prime, field.one()
    assert embed(field, [one, field.from_rational(p)]).tolist() == [[1, 0]] * 4
    assert embed(field, [one, field.from_rational(Fraction(3, 2 * p))]) is None
    assert embed(field, []).shape == (4, 0)


@given(field_vectors(1))
def test_interpolation_inverts_the_embeddings(fv):
    # the images under all embeddings give every coefficient back mod p
    field, v = fv
    p = field.prime
    nums, den = pack_one(field, v)
    coeffs = field.interpolate_mod_prime(field.embed_mod_prime(nums, den))
    assert np.array_equal(coeffs, (nums % p) * pow(den, -1, p) % p)


# ---- array form ----

@given(field_vectors(2))
def test_packed_products_folded_once_are_the_products(fuv):
    field, u, v = fuv
    (un, ud), (vn, vd) = pack_one(field, u), pack_one(field, v)
    assert field.unpack(un, ud) == u and field.unpack(vn, vd) == v
    assert ud == math.lcm(*(a.den for a in u))
    got = field.unpack(field.fold(convolve(un, vn)), ud * vd)
    assert got == [x * y for x, y in zip(u, v)]
    for r in got:
        assert_normal(r)


def test_packing_past_int64_takes_python_ints():
    field = CycloField(12)
    big = field.from_rational(2 ** 70) * field.root_pow(1) + 3
    nums, den = pack_one(field, [big, field.one()])
    assert nums.dtype == object and den == 1
    square = field.unpack(field.fold(convolve(nums, nums)), 1)
    assert square == [big * big, field.one()]
    small, _ = pack_one(field, [field.one()])
    assert small.dtype == np.int64
    # vectors of one length, each over its own denominator
    both, dens = field.pack([[field.from_rational(Fraction(1, 2))], [field.one()]])
    assert both.shape == (2, 1, 4) and dens == [2, 1]
    assert field.pack([])[0].shape == (0, 0, 4)
    assert field.unpack(np.zeros((2, 4), dtype=np.int64), 7) == [field.zero()] * 2
    assert field.unpack(np.zeros((2, 4), dtype=np.int64), 7)[0] is field.zero()
