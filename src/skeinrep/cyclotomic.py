"""Exact arithmetic in cyclotomic fields Q(zeta_L).

An element is a tuple of Python ints on the power basis 1, x, ...,
x^(phi(L)-1) of Z[x]/(Phi_L(x)) over one positive integer denominator, kept
in lowest terms (gcd(den, content) = 1, and zero has den = 1), so equal
values have equal representations and `==` and `hash` compare values.
Products of the integer coefficient polynomials that quantum traces and
representation matrices are made of have den = 1 and need no gcd at all.
Phi_L is monic, so reduction modulo Phi_L stays in the integers.

The field owns two fused loops:

- `row_update`, the elimination step a - f b that skips the zero entries of b;
- `twisted_products`, the quantum-torus product of QTElements: for each
  output key it sums a b zeta^s unreduced in Z[x]/(x^L - 1) over one common
  denominator, shifts cyclically when a or b is a root of unity, and reduces
  modulo Phi_L once.  The long products of the Chebyshev recurrence do the
  same on integer arrays (cfalgebra.QTArray), reducing through the table of
  x^k modulo Phi_L, k < L, that every field keeps (`root_table`).

Elements also have an array form: an (entries x phi(L)) integer array of
numerators over one denominator (`array`), or a stack of such arrays,
each over its own (`pack`, the form of a basis's columns), int64 where a
bound rules out overflow and Python ints otherwise (intlinalg.exact_ints);
`unpack` makes the elements again and `root_table` holds the zeta_L^k.
`convolve` multiplies such arrays entry by entry without reducing, and
`fold` reduces modulo Phi_L once, so that a sum of products is one
reduction; the exact operators, images and kernels of module scalars run
on it.

Roots of unity zeta^k are recognised by a table lookup, which gives their
inverses and discrete logarithms directly.  A complex-double evaluation
(zeta_L -> exp(2 pi i / L)) serves the floating backend and cross-checks.

Each field also has one fixed prime p = 1 (mod L), p < 2^31, and an
element z of order exactly L in F_p (`prime`).  Then the z^u, u a unit mod
L, are the phi(L) roots of Phi_L mod p, and each zeta_L -> z^u is a ring
map from the elements whose denominators p does not divide onto F_p (the
embeddings, `embed_mod_prime`): a matrix over the field reduces to one over
F_p, and every minor to the reduced minor.  The phi x phi table of the
z^(u i) is invertible mod p (a Vandermonde matrix of distinct roots), so
the images of an element under all embeddings give its coefficients mod p
back (`interpolate_mod_prime`).
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import intlinalg as il

_RATIONAL = (int, Fraction)

# Bound on the reduction prime: residues below 2^31 keep products of two
# below 2^62, inside int64.
PRIME_BOUND = 2 ** 31


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


def convolve(a, b):
    """The products of the integer polynomials a and b (same length d on
    the last axis, the other axes broadcast), unreduced: (..., 2 d - 1).
    Each entry sums at most d products, so is at most d max|a| max|b|."""
    d = a.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (2 * d - 1,)
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for i in range(d):
        out[..., i:i + d] += a[..., i, None] * b
    return out


def _mod_matmul(A, X, p: int):
    """A X mod p for an int64 (m x d) residue array A and a (d, ...) one X,
    adding one product of two residues (below 2^62) at a time."""
    out = np.zeros((A.shape[0],) + X.shape[1:], dtype=np.int64)
    column = (-1,) + (1,) * (X.ndim - 1)
    for i in range(A.shape[1]):
        out = (out + A[:, i].reshape(column) * X[i]) % p
    return out


def _is_prime(n: int) -> bool:
    """Trial division; n < 2^31 needs at most 46,340 divisors."""
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


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
        d = len(phi) - 1
        self.degree = d
        # x^d = sum of c x^i over (i, c) in _fold_terms, modulo Phi_L (monic)
        self._fold_terms = tuple((i, -c) for i, c in enumerate(phi[:-1]) if c)
        # x^k reduced mod Phi_L, for k = 0 .. order-1 (covers all root powers)
        rows: list[tuple[int, ...]] = []
        cur = [1] + [0] * (d - 1)
        for _ in range(order):
            rows.append(tuple(cur))
            cur = self._fold([0] + cur)
        self._root_powers = rows
        self._root_log = {row: k for k, row in enumerate(rows)}
        self._units = [k for k in range(1, order) if math.gcd(k, order) == 1]
        self._zero = CycloScalar(self, (0,) * d, 1)
        self._ready = True

    def _fold(self, p: list[int]) -> list[int]:
        """Reduce an integer polynomial modulo Phi_L, in place from the top;
        returns its first phi(L) coefficients."""
        d = self.degree
        terms = self._fold_terms
        for k in range(len(p) - 1, d - 1, -1):
            c = p[k]
            if c:
                base = k - d
                for i, t in terms:
                    p[base + i] += c * t
        del p[d:]
        return p

    def _product(self, an, bn) -> list[int]:
        """The integer vectors an and bn multiplied and reduced modulo Phi_L."""
        d = self.degree
        p = [0] * (2 * d - 1)
        for i, a in enumerate(an):
            if a:
                for j, b in enumerate(bn, i):
                    if b:
                        p[j] += a * b
        return self._fold(p)

    def _substitute(self, num, step: int) -> list[int]:
        """sum of c zeta_L^(i step) over the coefficients c x^i of num."""
        acc = [0] * self.degree
        for i, c in enumerate(num):
            if c:
                for j, r in enumerate(self._root_powers[i * step % self.order]):
                    acc[j] += c * r
        return acc

    def _make(self, num, den: int) -> "CycloScalar":
        """The element num / den (den > 0), brought to lowest terms."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return CycloScalar(self, tuple(num), den)

    def _own(self, a: "CycloScalar"):
        if a.field is not self:
            raise ValueError("scalars from different fields")

    # -- constructors --

    def zero(self) -> "CycloScalar":
        """The field's one zero element, shared (elements are immutable)."""
        return self._zero

    def one(self) -> "CycloScalar":
        return self.root_pow(0)

    def from_rational(self, q) -> "CycloScalar":
        if not isinstance(q, _RATIONAL):
            q = Fraction(q)
        return CycloScalar(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def root_pow(self, k: int) -> "CycloScalar":
        """zeta_L^k as a field element."""
        return CycloScalar(self, self._root_powers[k % self.order], 1)

    def from_coeffs(self, coeffs) -> "CycloScalar":
        v = [Fraction(c) for c in coeffs]
        if len(v) != self.degree:
            raise ValueError("wrong coefficient length")
        den = math.lcm(*(c.denominator for c in v))
        return self._make([c.numerator * (den // c.denominator) for c in v], den)

    # -- fused loops --

    def twisted_products(self, left: dict, right: dict, layout) -> dict:
        """{m: sum of a b zeta^s} over every pair of a value a of left and a
        value b of right, where layout(k, right) lists the pair (m, s) for
        each key of right, in order, given the key k of a.

        The sums are accumulated unreduced in Z[x]/(x^L - 1) over the one
        denominator lcm(left dens) lcm(right dens).  A factor that is a root
        of unity shifts the other one's vector cyclically, so only a pair of
        two non-roots pays a full product.  Each sum is reduced modulo Phi_L
        (a divisor of x^L - 1) once; keys come out in order of first
        appearance."""
        L = self.order
        da = math.lcm(*(a.den for a in left.values()))
        db = math.lcm(*(b.den for b in right.values()))
        rights = [self._factor(b, db, da) for b in right.values()]
        both = da * db
        # shifts lie in [0, L), so indices stay below L + 2 phi(L) - 2
        width = L + 2 * self.degree - 2
        acc: dict = {}
        for k, a in left.items():
            ra, va, wa = self._factor(a, da, db)
            for (m, s), (rb, vb, wb) in zip(layout(k, right), rights):
                p = acc.get(m)
                if p is None:
                    p = acc[m] = [0] * width
                if ra is not None:
                    if rb is not None:
                        p[(ra + rb + s) % L] += both
                    else:
                        base = (ra + s) % L
                        for j, c in wb:
                            p[base + j] += c
                elif rb is not None:
                    base = (rb + s) % L
                    for i, c in wa:
                        p[base + i] += c
                else:
                    base = s % L
                    for i, x in va:
                        bi = base + i
                        for j, y in vb:
                            p[bi + j] += x * y
        for m, p in acc.items():
            for x in range(width - 1, L - 1, -1):  # x^L = 1
                p[x - L] += p[x]
            del p[L:]
            acc[m] = self._make(self._fold(p), both)
        return acc

    def _factor(self, a: "CycloScalar", den: int, other_den: int):
        """a as a factor of twisted_products: (k, None, None) for a = zeta^k,
        else the nonzero (index, coefficient) pairs of its numerator over den,
        and the same scaled by other_den."""
        self._own(a)
        k = a.root_log()
        if k is not None:
            return k, None, None
        s = den // a.den
        v = [(i, c * s) for i, c in enumerate(a.num) if c]
        return None, v, [(i, c * other_den) for i, c in v]

    def row_update(self, row, f: "CycloScalar", pivot_row) -> list:
        """[a - f b for a, b in zip(row, pivot_row)], skipping b = 0."""
        self._own(f)
        fnum, fden = f.num, f.den
        out = list(row)
        for j, b in enumerate(pivot_row):
            bn = b.num
            if not any(bn):
                continue
            a = out[j]
            if a.field is not self or b.field is not self:
                raise ValueError("scalars from different fields")
            p = self._product(fnum, bn)
            t, ad = fden * b.den, a.den
            out[j] = self._make([x * t - y * ad for x, y in zip(a.num, p)], ad * t)
        return out

    # -- reduction modulo a prime --

    @cached_property
    def prime(self) -> int:
        """The largest prime p < 2^31 with p = 1 (mod L): F_p then holds the
        L-th roots of unity."""
        L = self.order
        p = (PRIME_BOUND - 2) // L * L + 1
        while not _is_prime(p):
            p -= L
        return p

    @cached_property
    def _embeddings(self):
        """(E, E^-1) mod p, int64 phi x phi: E[k, i] = z^(u_k i) over the
        units u_0 = 1 < u_1 < ... of L, for z = a^((p-1)/L) with a >= 2 the
        least whose z has order exactly L, that is z^(L/q) != 1 for each
        prime q | L.  The z^u are distinct, so E is invertible."""
        L, p, d = self.order, self.prime, self.degree
        qs = [q for q in range(2, L + 1) if L % q == 0 and _is_prime(q)]
        zs = (pow(a, (p - 1) // L, p) for a in itertools.count(2))
        z = next(z for z in zs if all(pow(z, L // q, p) != 1 for q in qs))
        E = np.array([[pow(z, u * i, p) for i in range(d)] for u in self._units], dtype=np.int64)
        _, R = il.rref_mod(np.hstack([E, np.eye(d, dtype=np.int64)]), p)
        return E, R[:, d:]

    def embed_mod_prime(self, nums, den: int):
        """The elements nums / den of an array form (pack: numerators on the
        last axis) under every embedding zeta_L -> z^u mod `prime`: an int64
        array of shape (phi, *entries), entries in [0, p), row k for the
        unit u_k; None when p divides den, since such elements have no
        image."""
        p = self.prime
        if den % p == 0:
            return None
        E, _ = self._embeddings
        residues = np.moveaxis(nums % p, -1, 0).astype(np.int64)
        return _mod_matmul(E, residues, p) * pow(den, -1, p) % p

    def interpolate_mod_prime(self, images):
        """The coefficients mod p, an int64 array of shape (*entries, phi),
        of the elements whose images under the embeddings are the residues
        images, of shape (phi, *entries): the inverse of embed_mod_prime."""
        _, inverse = self._embeddings
        return np.moveaxis(_mod_matmul(inverse, images, self.prime), 0, -1)

    # -- array form --

    def array(self, elements):
        """Elements of this field as (nums, den): nums an (entries x phi)
        integer array (intlinalg.as_ints) of their numerators over den, the
        lcm of their denominators."""
        if any(a.field is not self for a in elements):
            raise ValueError("scalars from different fields")
        den = math.lcm(*{a.den for a in elements})
        rows = [a.num if a.den == den else [c * (den // a.den) for c in a.num]
                for a in elements]
        return il.as_ints(rows, (len(rows), self.degree)), den

    def pack(self, vectors):
        """Vectors of elements, all of one length, as (nums, dens): nums a
        (vectors, entries, phi) integer array, vector j over dens[j]
        (array)."""
        forms = [self.array(v) for v in vectors]
        if not forms:
            return np.zeros((0, 0, self.degree), dtype=np.int64), []
        return np.stack([nums for nums, _ in forms]), [den for _, den in forms]

    def unpack(self, nums, den: int) -> list:
        """The elements nums[j] / den of an (entries x phi) integer array, in
        lowest terms; an all-zero row is the shared zero."""
        zero, rows = self._zero, nums.tolist()
        nonzero = nums.any(axis=-1).tolist()
        if den == 1:
            return [CycloScalar(self, tuple(r), 1) if z else zero for r, z in zip(rows, nonzero)]
        return [self._make(r, den) if z else zero for r, z in zip(rows, nonzero)]

    @cached_property
    def root_table(self):
        """zeta_L^k for k < L as numerators over 1: an int64 (L x phi) array."""
        return np.array(self._root_powers, dtype=np.int64)

    @cached_property
    def _fold_table(self):
        """x^k modulo Phi_L for k < 2 phi - 1, the degrees of a product of
        two reduced elements (x^L = 1 modulo Phi_L)."""
        return self.root_table[np.arange(2 * self.degree - 1) % self.order]

    def fold_bound(self, bound: int) -> int:
        """A bound on the entries of fold(acc) for |acc| <= bound."""
        return bound * (2 * self.degree - 1) * il.top(self._fold_table)

    def fold(self, acc):
        """Products from convolve, (..., 2 phi - 1) integer arrays, reduced
        modulo Phi_L: (..., phi).  Callers bound the result (fold_bound)."""
        return acc @ self._fold_table

    def __repr__(self):
        return f"CycloField({self.order})"


class CycloScalar:
    """Element num / den of a CycloField; immutable and in lowest terms."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    def _coerce(self, other):
        """other as an element of this field, or None for a foreign type."""
        if isinstance(other, CycloScalar):
            self.field._own(other)
            return other
        if isinstance(other, _RATIONAL):
            return self.field.from_rational(other)
        return None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        sd, od = self.den, other.den
        if sd == od:
            return self.field._make([a + b for a, b in zip(self.num, other.num)], sd)
        return self.field._make([a * od + b * sd for a, b in zip(self.num, other.num)],
                                sd * od)

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        sd, od = self.den, other.den
        if sd == od:
            return self.field._make([a - b for a, b in zip(self.num, other.num)], sd)
        return self.field._make([a * od - b * sd for a, b in zip(self.num, other.num)],
                                sd * od)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, CycloScalar):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            return f._make([a * other.numerator for a in self.num],
                           self.den * other.denominator)
        f._own(other)
        p = f._product(self.num, other.num)
        den = self.den * other.den
        return CycloScalar(f, tuple(p), 1) if den == 1 else f._make(p, den)

    __rmul__ = __mul__

    def root_log(self) -> int | None:
        """k in [0, L) with self == zeta_L^k, or None."""
        return self.field._root_log.get(self.num) if self.den == 1 else None

    def root_part(self) -> tuple[Fraction, int] | None:
        """(q, k) with self = q zeta_L^k and q a positive rational, or None.
        The integer vector of a root of unity is primitive (an integer
        content d > 1 would make 1/d an algebraic integer), so in lowest
        terms num is its content times the vector of zeta_L^k."""
        g = math.gcd(*self.num)
        k = self.field._root_log.get(tuple(c // g for c in self.num)) if g else None
        return None if k is None else (Fraction(g, self.den), k)

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse: zeta^-k for a root of unity zeta^k,
        otherwise den P / Norm(num), where P is the product of the other
        Galois conjugates of num, so that num P = Norm(num) is an integer."""
        f = self.field
        k = self.root_log()
        if k is not None:
            return f.root_pow(-k)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        P = list(f._root_powers[0])
        for u in f._units[1:]:
            P = f._product(f._substitute(self.num, u), P)
        norm = f._product(self.num, P)
        if any(norm[1:]):
            raise ArithmeticError("norm is not rational")
        sign = -1 if norm[0] < 0 else 1
        return f._make([sign * self.den * c for c in P], abs(norm[0]))

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            return self * Fraction(other.denominator, other.numerator)
        if not isinstance(other, CycloScalar):
            return NotImplemented
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
        if isinstance(other, _RATIONAL):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.field.order)
        out = 0j
        den = self.den
        for c in reversed(self.num):
            out = out * z + complex(c / den)
        return out

    __complex__ = to_complex

    def serialize(self) -> list[list[int]]:
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @staticmethod
    def deserialize(field: CycloField, data) -> "CycloScalar":
        """The inverse of serialize: one [numerator, denominator] pair of
        ints (a bool is not one), the denominator nonzero, per power of zeta."""
        for pair in data if isinstance(data, list) else [data]:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) is int for v in pair) and pair[1]):
                raise ValueError(f"coefficient {pair!r} is not a pair [int, nonzero int]")
        return field.from_coeffs(Fraction(n, d) for n, d in data)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"{c}*z^{i}" if c != 1 else f"z^{i}"))
        return " + ".join(terms) if terms else "0"
