import random
from fractions import Fraction

import pytest

from skeinrep.cyclotomic import CycloField, CycloScalar, cyclotomic_polynomial
from skeinrep.scalars import ExactScalars, FloatScalars


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


def test_field_extension_embedding():
    small = CycloField(12)
    big = CycloField(36)
    a = small.root_pow(5) + small.from_rational(Fraction(1, 3))
    b = big.embed(small, a)
    assert abs(a.to_complex() - b.to_complex()) < 1e-12


def test_omega_log():
    ctx = ExactScalars(3)
    for k in range(12):
        assert ctx.omega_log(ctx.omega(k)) == k
    flo = FloatScalars(3)
    assert flo.omega_log(flo.omega(7)) == 7
    with pytest.raises(ValueError):
        flo.omega_log(0.5 + 0j)
