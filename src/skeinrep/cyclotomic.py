"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are represented on the power basis 1, x, ..., x^(phi(L)-1) of
Z[x]/(Phi_L(x)) with Fraction coefficients, so equality with zero is exact.
A complex-double evaluation (zeta_L -> exp(2 pi i / L)) is provided for the
floating backend and for cross-checks.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache


def _poly_divexact_int(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (monic-up-to-sign denominator)."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        out[i - dn] = q
        if q:
            for j, dj in enumerate(den):
                num[i - dn + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CycloField:
    """The field Q(zeta_L) = Q[x]/(Phi_L)."""

    _cache: dict[int, "CycloField"] = {}

    def __new__(cls, order: int):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        cls._cache[order] = self
        return self

    def __init__(self, order: int):
        if getattr(self, "_ready", False):
            return
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        phi = cyclotomic_polynomial(order)
        self.degree = len(phi) - 1
        self._phi = phi
        # x^k reduced mod Phi_L, for k = 0 .. order-1 (covers all root powers)
        red: list[tuple[Fraction, ...]] = []
        cur = [Fraction(0)] * self.degree
        cur[0] = Fraction(1)
        for _ in range(order):
            red.append(tuple(cur))
            cur = self._shift_reduce(cur)
        self._root_powers = red
        self._ready = True

    def _shift_reduce(self, coeffs: list[Fraction]) -> list[Fraction]:
        """Multiply by x and reduce modulo Phi_L."""
        d = self.degree
        top = coeffs[d - 1]
        out = [Fraction(0)] + coeffs[: d - 1]
        if top:
            for i in range(d):
                out[i] -= top * self._phi[i]
        return out

    # -- constructors --

    def zero(self) -> "CycloScalar":
        return CycloScalar(self, (Fraction(0),) * self.degree)

    def one(self) -> "CycloScalar":
        return self.from_rational(1)

    def from_rational(self, q) -> "CycloScalar":
        v = [Fraction(0)] * self.degree
        v[0] = Fraction(q)
        return CycloScalar(self, tuple(v))

    def root_pow(self, k: int) -> "CycloScalar":
        """zeta_L^k as a field element."""
        return CycloScalar(self, self._root_powers[k % self.order])

    def from_coeffs(self, coeffs) -> "CycloScalar":
        v = [Fraction(c) for c in coeffs]
        if len(v) != self.degree:
            raise ValueError("wrong coefficient length")
        return CycloScalar(self, tuple(v))

    def embed(self, degree_divisor_field: "CycloField", a: "CycloScalar") -> "CycloScalar":
        """Re-express a in this field; requires divisor_field.order | self.order."""
        m = degree_divisor_field.order
        if self.order % m != 0:
            raise ValueError("no embedding: orders incompatible")
        step = self.order // m
        out = self.zero()
        for k, c in enumerate(a.coeffs):
            if c:
                out = out + self.root_pow(k * step) * self.from_rational(c)
        return out

    def __repr__(self):
        return f"CycloField({self.order})"


class CycloScalar:
    """Element of a CycloField; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "CycloScalar"):
        if self.field is not other.field:
            raise ValueError("scalars from different fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        self._check(other)
        return CycloScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloScalar(self.field, tuple(a * other for a in self.coeffs))
        self._check(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # fold tail using x^k tables
        out = list(prod[:d])
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                row = self.field._root_powers[k]
                for i in range(d):
                    out[i] += c * row[i]
        return CycloScalar(self.field, tuple(out))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        # extended gcd of self (as poly) and Phi_L
        a = list(self.coeffs)
        while a and a[-1] == 0:
            a.pop()
        b = [Fraction(c) for c in self.field._phi]
        # invariants: a = sa * self mod Phi ; b = sb * self mod Phi
        sa, sb = [Fraction(1)], [Fraction(0)]
        while b:
            # divmod a by b
            q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
            r = list(a)
            for i in range(len(r) - 1, len(b) - 2, -1):
                if r[i]:
                    f = r[i] / b[-1]
                    q[i - len(b) + 1] = f
                    for j in range(len(b)):
                        r[i - len(b) + 1 + j] -= f * b[j]
            while r and r[-1] == 0:
                r.pop()
            # s update: snew = sa - q*sb
            qsb = [Fraction(0)] * (len(q) + len(sb) - 1) if q and sb else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(sb):
                        qsb[i + j] += qi * sj
            snew = [Fraction(0)] * max(len(sa), len(qsb))
            for i, c in enumerate(sa):
                snew[i] += c
            for i, c in enumerate(qsb):
                snew[i] -= c
            while snew and snew[-1] == 0:
                snew.pop()
            a, b = b, r
            sa, sb = sb, snew
        # now a = gcd (degree 0 since Phi_L is irreducible), a = sa * self mod Phi
        if len(a) != 1:
            raise ArithmeticError("gcd with Phi_L is not constant")
        g = a[0]
        # the Bezout coefficient against Phi_L has degree < phi(L)
        inv_coeffs = [c / g for c in sa]
        inv_coeffs += [Fraction(0)] * (self.field.degree - len(inv_coeffs))
        return CycloScalar(self.field, tuple(inv_coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * (1 / Fraction(other))
        return self * other.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.field.order)
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + complex(c)
        return out

    __complex__ = to_complex

    def serialize(self) -> list[list[int]]:
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @staticmethod
    def deserialize(field: CycloField, data) -> "CycloScalar":
        return field.from_coeffs(Fraction(n, d) for n, d in data)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"{c}*z^{i}" if c != 1 else f"z^{i}"))
        return " + ".join(terms) if terms else "0"
