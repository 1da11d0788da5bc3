"""The quantum torus of a triangulation and its balanced subalgebra.

Generators Z_i, one per edge, satisfy Z_i Z_j = omega^(2 sigma_ij) Z_j Z_i.
Elements are kept in normal form: a finite sum of monomials Z^k with the
generators ordered by edge index, so the product rule is

    Z^k . Z^l = omega^(2 sum_{i>j} k_i l_j sigma_ij) Z^(k+l).

The Weyl ordering [Z^k] = omega^(-sum_{i<j} k_i k_j sigma_ij) Z^k is invariant
under permutation of the factors and satisfies [Z^k][Z^l] = omega^(k.sigma.l)
[Z^(k+l)] on the balanced lattice.

QTArray is the array form of an element, for long chains of products with
one short factor (the Chebyshev recurrence of qtrace): integer numpy
kernels in place of one Python loop per pair of terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add, mul

import numpy as np

from . import intlinalg as il
from .errors import (IndexOutOfRange, Inadmissible, MixedAlgebra, NotBalanced,
                     NotMonomial, OmegaIntegralityError)
from .scalars import ExactScalars
from .triangulation import Triangulation


class CFAlgebra:
    """Context object tying a triangulation to an exact coefficient field."""

    def __init__(self, T: Triangulation, N: int, field_order: int | None = None):
        self.T = T
        self.N = N
        self.scalars = ExactScalars(N, order=field_order)
        self.sigma = T.sigma_matrix()
        self.n = T.num_edges
        # (i, j, sigma_ij) for the nonzero entries below the diagonal; sigma is
        # antisymmetric, so they determine the whole form
        self._lower = [(i, j, s) for i, row in enumerate(self.sigma)
                       for j, s in enumerate(row[:i]) if s]
        # LoopSpec -> (trace, T_N(trace)), filled by qtrace.threading_check
        self.threaded_traces = {}
        # edge -> (trace of K1, trace of K2), filled by qtrace.sweep_check
        self.pushoff_traces = {}
        # edge -> the traces of its pants family, filled by qtrace.pants_family
        self.pants_families = {}

    @cached_property
    def lattice(self) -> "BalancedLattice":
        """The balanced lattice: weight-independent, shared by every
        representation of this algebra."""
        return BalancedLattice(self)

    # -- scalars --

    def omega(self, k: int):
        return self.scalars.omega(k)

    # -- element constructors --

    def zero(self) -> "QTElement":
        return QTElement(self, {})

    def one(self) -> "QTElement":
        return self.monomial((0,) * self.n)

    def monomial(self, k, coeff=None) -> "QTElement":
        k = tuple(int(x) for x in k)
        if len(k) != self.n:
            raise ValueError("exponent vector has wrong length")
        c = self.scalars.one() if coeff is None else coeff
        return QTElement(self, {k: c})

    def gen(self, i: int, power: int = 1) -> "QTElement":
        k = [0] * self.n
        k[i] = power
        return self.monomial(k)

    # -- normal form bookkeeping --

    def _lower_form(self, k, l) -> int:
        """L(k, l) = sum_{i>j} k_i sigma_ij l_j."""
        t = 0
        for i, j, s in self._lower:
            t += k[i] * s * l[j]
        return t

    def product_twist(self, k, l) -> int:
        """omega-exponent in Z^k . Z^l = omega^t Z^(k+l)."""
        return 2 * self._lower_form(k, l)

    def _product_layout(self, k, ls) -> list:
        """(k + l, zeta_L-exponent of product_twist(k, l)) for each l in ls,
        the twists read off one row r_j = 2 sum_i k_i sigma_ij (i > j)."""
        row = [0] * self.n
        for i, j, s in self._lower:
            row[j] += s * k[i]
        step = 2 * self.scalars.omega_step
        row = [step * x for x in row]
        return [(tuple(map(add, k, l)), sum(map(mul, row, l))) for l in ls]

    @cached_property
    def _array_tables(self):
        """(S, R) for QTArray products: S the n x n matrix with k S l the
        zeta_L-exponent of product_twist(k, l), and R the L x phi(L) table
        of x^k modulo Phi_L."""
        S = 2 * self.scalars.omega_step * np.tril(np.array(self.sigma, dtype=np.int64), -1)
        return S, self.scalars.field.root_table

    def weyl_weight(self, k) -> int:
        """w(k) with [Z^k] = omega^(-w(k)) Z^k."""
        return -self._lower_form(k, k)

    def pairing(self, k, l) -> int:
        """k^T sigma l."""
        return self._lower_form(k, l) - self._lower_form(l, k)

    def weyl(self, k) -> "QTElement":
        """Weyl-ordered monomial [Z^k]."""
        k = tuple(int(x) for x in k)
        return self.monomial(k, self.omega(-self.weyl_weight(k)))

    def ordered_product(self, indices) -> "QTElement":
        """Product of single generators Z_{i_1} Z_{i_2} ... in the given order."""
        out = self.one()
        for i in indices:
            out = out * self.gen(i)
        return out

    # -- balancedness --

    def is_balanced(self, k) -> bool:
        for f in range(self.T.num_faces):
            if sum(k[e] for e in self.T.face_edges(f)) % 2 != 0:
                return False
        return True

    def require_balanced(self, a: "QTElement"):
        for k in a.terms:
            if not self.is_balanced(k):
                raise NotBalanced(f"exponent vector {k} violates face parity")

    # -- distinguished elements --

    def central_H(self, v: int) -> "QTElement":
        """Weyl-ordered product of the fan generators at vertex v."""
        return self.weyl(self.T.end_counts(v))

    def weyl_prefix(self, v: int, k0: int) -> int:
        """Exponent e with [Z_{i_1}...Z_{i_k0}] = omega^e Z_{i_1}...Z_{i_k0}
        for the counterclockwise fan indexing at v; requires 1 < k0 < u."""
        fan = self.T.fans[v].edges
        u = len(fan)
        if not 1 < k0 < u:
            raise IndexOutOfRange(f"k0 must lie strictly between 1 and {u}")
        e = 0
        for a in range(k0):
            for b in range(a + 1, k0):
                e -= self.sigma[fan[a]][fan[b]]
        return e

    def offdiag_Q(self, v: int, start: int = 0) -> "QTElement":
        """Off-diagonal element sum_j omega^(-4j) Z_{i_1}^2 ... Z_{i_j}^2 for
        the fan at v rotated to begin at position start."""
        fan = self.T.fans[v].edges
        u = len(fan)
        if not 0 <= start < u:
            raise IndexOutOfRange(f"start must lie in [0, {u})")
        out = self.one()
        prefix = self.one()
        for j in range(1, u):
            prefix = prefix * self.gen(fan[(start + j - 1) % u], 2)
            out = out + self.monomial((0,) * self.n, self.omega(-4 * j)) * prefix
        return out

    def specialize_classical(self, a: "QTElement", values):
        """Commutative specialization omega -> 1, Z_i -> values[i].

        Each coefficient must be a positive rational times a power of omega
        (true of trace and off-diagonal elements, whose terms never collide);
        on such elements the positive-rational part is the omega -> 1 limit.
        values may be exact scalars or complex numbers.
        """
        total = 0
        for k, c in a.terms.items():
            term, _ = self._split_root(c)
            for i, ki in enumerate(k):
                if ki:
                    term = term * values[i] ** ki
            total = total + term
        return total

    def _split_root(self, c):
        """Write c = q * omega^j with q a positive rational (unique since
        -1 = omega^(2N)); raise if impossible."""
        split = c.root_part()
        step = self.scalars.omega_step
        if split is None or split[1] % step:
            raise ValueError("coefficient is not rational times a power of omega")
        return split[0], split[1] // step


class QTElement:
    """Finite linear combination of normal-form monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CFAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def _check(self, other: "QTElement"):
        a, b = self.algebra, other.algebra
        if a is not b and (a.T is not b.T or a.N != b.N
                           or a.scalars.field is not b.scalars.field):
            raise MixedAlgebra("operands from different algebras")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return QTElement(self.algebra, terms)

    def __neg__(self):
        return QTElement(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QTElement):
            return self.scale(other)
        self._check(other)
        alg = self.algebra
        return QTElement(alg, alg.scalars.field.twisted_products(
            self.terms, other.terms, alg._product_layout))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = self.algebra.scalars.from_rational(c)
        return QTElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, QTElement):
            return NotImplemented
        return self.algebra.T is other.algebra.T and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_data(self):
        if not self.is_monomial():
            raise NotMonomial("element has several terms")
        return next(iter(self.terms.items()))

    def inverse(self) -> "QTElement":
        """Inverse of a monomial."""
        k, c = self.monomial_data()
        alg = self.algebra
        mk = tuple(-x for x in k)
        tw = alg.product_twist(mk, k)
        return alg.monomial(mk, (c * alg.omega(tw)).inv())

    def is_balanced(self) -> bool:
        return all(self.algebra.is_balanced(k) for k in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items()):
            mono = "*".join(f"Z{i}^{e}" for i, e in enumerate(k) if e) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def commutator_is_zero(a: QTElement, b: QTElement) -> bool:
    return (a * b - b * a).is_zero()


class QTArray:
    """An element in array form: exps, a (terms x n) array of exponents;
    codes, one exact integer per term; nums, a (terms x phi(L)) array of
    numerators over one denominator den.

    A code is k . strides, a mixed radix over a box of exponents (box =
    (lo, hi)), so it is linear, code(k + l) = code(k) + code(l), and one to
    one on the box.  A product whose factors could reach outside the box is
    refused.  Arrays are int64 where a bound proves that no value or partial
    sum overflows, and object arrays of Python ints otherwise; nothing is
    hashed and nothing is a float.

    Only x ** 0, int * x, x * y and x - y are supported.  Zero terms are
    dropped and the rest keep the order that QTElement gives them, so
    unpack() is, term for term and in order, the QTElement that the same
    operations on QTElements make."""

    def __init__(self, algebra: CFAlgebra, box, strides, exps, codes, nums, den: int):
        self.algebra = algebra
        self.box, self.strides = box, strides
        self.exps, self.codes, self.nums, self.den = exps, codes, nums, den

    @classmethod
    def pack(cls, a: QTElement, reach: int, *others: QTElement) -> "QTArray":
        """a in array form, over the box that holds every sum of at most
        reach exponents of a and others: reach times their range in each
        coordinate, 0 included."""
        alg = a.algebra
        S, R = alg._array_tables
        lo, hi = [0] * alg.n, [0] * alg.n
        for k in [*a.terms, *(k for b in others for k in b.terms)]:
            lo, hi = list(map(min, lo, k)), list(map(max, hi, k))
        lo, hi = [reach * x for x in lo], [reach * x for x in hi]
        strides, size = [], 1
        for l, h in zip(lo, hi):
            strides.append(size)
            size *= h - l + 1
        # |code| < size; a twist k S l and its columns S l are at most
        # n |k| max(|S|, L) with |k| at most top
        top = max(map(abs, lo + hi))
        small = max(size, alg.n * top * max(il.top(S), len(R))) <= il.INT64_MAX
        dtype = np.int64 if small else object
        exps = np.array(list(a.terms), dtype=dtype).reshape(len(a.terms), alg.n)
        nums, den = alg.scalars.field.array(list(a.terms.values()))
        strides = np.array(strides, dtype=dtype)
        return cls(alg, (tuple(lo), tuple(hi)), strides, exps, exps @ strides, nums, den)

    def unpack(self) -> QTElement:
        make = self.algebra.scalars.field._make
        return QTElement(self.algebra, {tuple(k): make(c, self.den) for k, c in
                                        zip(self.exps.tolist(), self.nums.tolist())})

    def _like(self, exps, codes, nums, den: int) -> "QTArray":
        """An array over the same box, its zero terms dropped."""
        keep = (nums != 0).any(axis=1)
        return QTArray(self.algebra, self.box, self.strides, exps[keep], codes[keep],
                       nums[keep], den)

    def _check(self, other: "QTArray"):
        if other.algebra is not self.algebra or other.box != self.box:
            raise MixedAlgebra("operands over different algebras or boxes")

    def __pow__(self, n: int) -> "QTArray":
        """x ** 0, the one."""
        if n != 0:
            raise ValueError("a QTArray has only the power 0")
        zero = np.zeros((1, self.algebra.n), dtype=self.exps.dtype)
        one = self.algebra._array_tables[1][:1]
        return self._like(zero, zero[:, 0], one, 1)

    def __rmul__(self, c: int) -> "QTArray":
        if not isinstance(c, int):
            return NotImplemented
        return self._like(self.exps, self.codes,
                          il.exact_ints(self.nums, abs(c) * il.top(self.nums)) * c, self.den)

    def __sub__(self, other: "QTArray") -> "QTArray":
        """self - other, keys merged as QTElement.__add__ merges them: self's
        in order, then other's new ones in order."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        bound = il.top(self.nums) * sa + il.top(other.nums) * sb
        a, b = il.exact_ints(self.nums, bound) * sa, il.exact_ints(other.nums, bound) * sb
        hit = np.zeros(len(other.codes), dtype=bool)
        if len(self.codes):
            order = np.argsort(self.codes)
            at = np.searchsorted(self.codes, other.codes, sorter=order)
            at = order[at.clip(max=len(order) - 1)]
            hit = self.codes[at] == other.codes
            a[at[hit]] -= b[hit]
        new = ~hit
        return self._like(np.concatenate([self.exps, other.exps[new]]),
                          np.concatenate([self.codes, other.codes[new]]),
                          np.concatenate([a, -b[new]]), den)

    def __mul__(self, other: "QTArray") -> "QTArray":
        """The product by QTElement.__mul__'s rule, other being the short
        factor.  Output keys are numbered in order of first appearance over
        the pairs (term i of self, term j of other), row by row.  For each j
        and each b x^v of its numerator (other._right), self's numerators,
        rolled by the twists s_ij + v in Z[x]/(x^L - 1) and times b, are
        added to the rows of their keys: a j meets each key at most once.
        The rows are reduced modulo Phi_L once, through the L x phi(L) table
        of x^k."""
        if not isinstance(other, QTArray):
            return NotImplemented
        self._check(other)
        lo, hi = self.box
        if len(self.codes) and len(other.codes) and (
                np.any(self.exps.min(0) + other.exps.min(0) < lo)
                or np.any(self.exps.max(0) + other.exps.max(0) > hi)):
            raise ValueError("the product leaves the exponent box")
        _, R = self.algebra._array_tables
        L, d = R.shape
        columns, shifts, norm = other._right
        keys, first, slot = np.unique((self.codes[:, None] + other.codes).ravel(),
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        slot = rank[slot].reshape(len(self.codes), len(other.codes))
        twists = ((self.exps @ columns) % L).astype(np.int64)
        # |acc| <= top norm, and a reduced row is at most d top norm max|R|
        nums = il.exact_ints(self.nums, d * il.top(self.nums) * norm * il.top(R))
        acc = np.zeros((len(keys), L), dtype=nums.dtype)
        powers = np.arange(d)
        for j, v, b in shifts:
            acc[slot[:, j, None], (twists[:, j, None] + v + powers) % L] += nums * b
        i, j = np.divmod(first[order], len(other.codes))
        return self._like(self.exps[i] + other.exps[j], keys[order], acc @ R,
                          self.den * other.den)

    @cached_property
    def _right(self):
        """This element as a right factor: the columns S l mod L, one per
        term l; (j, v, b) for each b x^v of term j's numerator in
        Z[x]/(x^L - 1), one (j, k, g) when the term is g zeta^k; and the sum
        of |b|."""
        S, R = self.algebra._array_tables
        root_log = self.algebra.scalars.field._root_log
        shifts = []
        for j, row in enumerate(self.nums.tolist()):
            g = math.gcd(*row)
            k = root_log.get(tuple(c // g for c in row))
            shifts += [(j, k, g)] if k is not None else [(j, v, b) for v, b in enumerate(row) if b]
        return (S @ self.exps.T) % len(R), shifts, sum(abs(b) for _, _, b in shifts)


class SignReversalClass:
    """Z2 vector over edges acting on monomials by (-1)^(sum c_i k_i)."""

    def __init__(self, T: Triangulation, c):
        self.T = T
        self.c = tuple(int(x) % 2 for x in c)
        if len(self.c) != T.num_edges:
            raise ValueError("class vector has wrong length")

    def value(self, k) -> int:
        return sum(ci * ki for ci, ki in zip(self.c, k)) % 2

    def is_admissible(self) -> bool:
        """Vanishes on the exponent vector of every central vertex element."""
        return all(self.value(self.T.end_counts(v)) == 0
                   for v in range(self.T.num_vertices))

    def require_admissible(self):
        if not self.is_admissible():
            raise Inadmissible("class does not vanish on every H_v exponent")

    def apply(self, a: QTElement) -> QTElement:
        a.algebra.require_balanced(a)
        terms = {k: (-c if self.value(k) else c) for k, c in a.terms.items()}
        return QTElement(a.algebra, terms)


class BalancedLattice:
    """Basis of the face-even exponent lattice, its pairing and normal form."""

    def __init__(self, algebra: CFAlgebra):
        self.algebra = algebra
        T = algebra.T
        n = T.num_edges
        rows = []
        for f in range(T.num_faces):
            row = [0] * n
            for e in T.face_edges(f):
                row[e] ^= 1
            rows.append(row)
        basis, two_inv, rank2 = _lift_parity_kernel(rows, n)
        self.basis = basis                       # list of E integer vectors
        self.index_in_ZE = 2 ** rank2
        self.pairing_matrix = [
            [algebra.pairing(a, b) for b in basis] for a in basis
        ]
        for row in self.pairing_matrix:
            for v in row:
                if v % 2 != 0:
                    raise OmegaIntegralityError(
                        "half-pairing is not integral on the balanced lattice")
        C, C_inv, pairs, radical = il.alternating_normal_form(self.pairing_matrix)
        self.nf_basis = il.mat_mul(il.transpose(C), basis)
        self.pairs = pairs                       # (index_a, index_b, d) in nf_basis
        self.radical = radical
        # twice the inverse of the nf basis matrix (columns = nf basis vectors)
        self._two_inv = il.mat_mul(C_inv, two_inv)

    def coords(self, k):
        """Integer coordinates of k in the normal-form basis."""
        out = []
        for row in self._two_inv:
            q, r = divmod(sum(a * b for a, b in zip(row, k, strict=True)), 2)
            if r:
                raise NotBalanced(f"{tuple(k)} is not in the balanced lattice")
            out.append(q)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.basis)


def _lift_parity_kernel(rows, n):
    """GF(2) kernel of the face-parity map, lifted to a Z-basis of its
    preimage lattice: kernel vectors as 0/1 vectors plus doubled pivots.
    Also returns twice the inverse of the basis matrix (columns = basis
    vectors) and the number of pivots."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    pivot_row = {pc: rr for rr, pc in enumerate(pivots)}
    basis, two_inv = [], []
    for col in range(n):
        v = [0] * n
        if col in pivot_row:
            # m is reduced: 2 coord_col(k) = k_col - sum over free c of m[r][c] k_c
            v[col] = 2
            w = [-x for x in m[pivot_row[col]]]
            w[col] = 1
        else:
            v[col] = 1
            for rr, pc in enumerate(pivots):
                v[pc] = m[rr][col]
            w = [0] * n
            w[col] = 2
        basis.append(v)
        two_inv.append(w)
    return basis, two_inv, len(pivots)
