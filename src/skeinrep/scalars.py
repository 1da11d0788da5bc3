"""Scalar and matrix backends shared by representations and kernel computations.

Exact mode works in Q(zeta_L) with 4N | L and omega = zeta_L^(L/4N), a
primitive 4N-th root of unity; then omega^(2N) = -1 and A = omega^(-2) is a
primitive N-th root of -1.  Float mode uses complex doubles with the same
conventions.  Symbolic algebra (module cfalgebra) is always exact; these
backends only decide how representation matrices and kernels are evaluated.

This module alone chooses between the two arithmetics.  Values pick it by
their type (`of`, `one_like`, `is_zero`, `serialize`; `one_like` and
`is_zero` also take the Fraction points of holonomy): a complex or a numpy
array is float, anything else is exact, and an operator goes by the first
entry of its first scale vector.  A mode string picks it only where the
values are not at hand yet or a caller names the arithmetic it expects
(`for_mode`, `backend`): the "mode" tag of a weights file and the mode
argument of eigen_analysis.

Contract.  A matrix is a numpy array (float) or a list of rows (exact); a
subspace basis is an ambient x d array (float) or a list of d columns (exact).
An operator is a square matrix as its translation terms: a list of (perm,
scale), entries M[perm[i], i] = scale[i], no two terms sharing an entry (in
a representation image each monomial is a translation of the index group
times a diagonal); perm and scale are numpy arrays (float) or lists (exact).
dense, image, rank_bound and scalar_of take operators, operator makes them
(dense, image and scalar_of also take [term] for a term (perm, scale) of
lists, as CFRep.monomial_image gives); only kernel, rank, spans,
eigenspaces and multiplicities take dense matrices.  An operator is zero
when is_zero holds for its scale vectors.  Callers pass the threshold they
use as `tol`; exact methods ignore it.  The N-free Exact/FloatArithmetic
give (float | exact):

    operator(terms)   sum c P over pairs (c, P = (perm, scale)), one term per
                      permutation, all-zero terms dropped
    rank_bound(op)    (0, None) | (r, p): rank op >= r, r the rank of op
                      reduced modulo the field's prime p (intlinalg.rank_mod),
                      (0, None) if a denominator is divisible by p
    is_zero(a, tol)   max |a| <= tol | a == 0, for a scalar or a matrix
    norm(a)           max |a| (0.0 when empty) | 0.0 if a == 0 else 1.0
    residual(a)       |a| | repr(a), for weight validation reports
    kernel(M, tol)    basis: right singular vectors under the cut, of the
                      QR factor R for a tall M | Gauss-Jordan
    rank(M, tol)      singular values above the cut (values-only SVD) |
                      Gauss-Jordan
    scalar_of(op, tol) c if op = c Id, else None: c is the mean of the
                      identity term's scale (0 without one), the off-scalar
                      norm, |scale - c| there and |scale| on the other terms,
                      at most max(tol, 1e-9 max(|c|, 1)) | exact equality
    eigenspaces(M, tol, rank_tol)  [(lam, multiplicity, orthonormal basis
                      of ker(M - lam Id) under the cut at rank_tol, in block
                      form: a BlockBasis)] per cluster at tol of the
                      eigenvalues | None
    multiplicities(M, tol, rank_tol)  eigenspaces with each basis replaced
                      by its column count, from singular values only | None
    inv, stack, spans(B, C) (span of B contains C), image(op, B) = op B,
    ncols, dense(dim, op) = the matrix of op

Every float rank decision is the one cut of _cut.  Float eigenspaces split a
square matrix into the diagonal blocks of its nonzero pattern (rho of an
edge-parallel loop at genus 2 has N^2 blocks of size N^2); each basis is the
null vectors of the shifted blocks, cut over all blocks together, and is
kept in block form (BlockBasis): each column's entries on its one block,
N^5 entries per eigenvalue of that rho against N^7 dense, mapped by an
operator with one scatter of those entries per term.

ExactScalars and FloatScalars add omega, one, zero, omega_log (which need N)
and the weights-file format (deserialize, json_fields).

The exact image calls the field's fused `dot` once per entry, Gauss-Jordan
elimination its fused `row_update`, and rank_bound reduces each scale
vector with `CycloField.reduce_mod_prime`; omega_log reads the field's
root-of-unity table through `CycloScalar.root_log`.  The element format
belongs to module cyclotomic: nothing here reads a numerator or a
denominator.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import intlinalg
from .cyclotomic import CycloField, CycloScalar


def _exact_zero(v) -> bool:
    return v.is_zero() if isinstance(v, CycloScalar) else v == 0


def _identity_scale(op):
    """The scale of op's identity term, or None: the whole diagonal of an
    image, as no other translation fixes an index."""
    return next((s for p, s in op if np.array_equal(p, np.arange(len(p)))), None)


class ExactArithmetic:
    mode = "exact"

    def is_zero(self, a, tol: float = 0.0) -> bool:
        if isinstance(a, list):
            return all(_exact_zero(v) for row in a for v in row)
        return _exact_zero(a)

    def norm(self, a) -> float:
        return 0.0 if self.is_zero(a) else 1.0

    def residual(self, a) -> str:
        return repr(a)

    def inv(self, a):
        return a.inv()

    def operator(self, terms):
        by_perm = {}
        for c, (perm, scale) in terms:
            key = tuple(perm)
            by_perm[key] = [b + c * s for b, s
                            in zip(by_perm.get(key, [0] * len(scale)), scale)]
        return [(list(perm), scale) for perm, scale in by_perm.items()
                if not all(a.is_zero() for a in scale)]

    def dense(self, dim, op):
        # an empty operator takes the zero of these scalars (ExactScalars)
        zero = op[0][1][0].field.zero() if op else self.zero()
        M = [[zero] * dim for _ in range(dim)]
        for perm, scale in op:
            for i, (p, a) in enumerate(zip(perm, scale)):
                M[p][i] = a
        return M

    def stack(self, mats):
        return [row for M in mats for row in M]

    def image(self, op, basis):
        """op B: entry p of a column is one fused dot over the terms, at
        i = perm^-1(p), where the column is nonzero (kernel bases are mostly
        zero)."""
        out = []
        for col in basis:
            field = col[0].field
            pairs = [[] for _ in col]
            for i in [i for i, v in enumerate(col) if not v.is_zero()]:
                for perm, scale in op:
                    pairs[perm[i]].append((scale[i], col[i]))
            out.append([field.dot(*zip(*q)) if q else field.zero() for q in pairs])
        return out

    def ncols(self, basis) -> int:
        return len(basis)

    def _eliminate(self, rows):
        """Gauss-Jordan reduction of a copy of rows: (reduced rows, pivot columns)."""
        rows = [list(r) for r in rows]
        m = len(rows)
        pivots = []
        for col in range(len(rows[0]) if m else 0):
            rank = len(pivots)
            piv = next((r for r in range(rank, m) if not rows[r][col].is_zero()), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            pivot = rows[rank][col]
            inv = pivot.inv()
            rows[rank] = [x * inv for x in rows[rank]]
            update = pivot.field.row_update
            for r in range(m):
                if r != rank and not rows[r][col].is_zero():
                    rows[r] = update(rows[r], rows[r][col], rows[rank])
            pivots.append(col)
        return rows, pivots

    def kernel(self, M, tol: float = 0.0):
        rows, pivots = self._eliminate(M)
        n = len(M[0])
        field = M[0][0].field
        zero, one = field.zero(), field.one()
        pivot_set = set(pivots)
        basis = []
        for fcol in (c for c in range(n) if c not in pivot_set):
            vec = [zero] * n
            vec[fcol] = one
            for r, pcol in enumerate(pivots):
                vec[pcol] = -rows[r][fcol]
            basis.append(vec)
        return basis

    def rank(self, M, tol: float = 0.0) -> int:
        return len(self._eliminate(M)[1])

    def rank_bound(self, op):
        """(r, p) with rank op >= r: r is the rank of op modulo the field's
        prime p (see CycloField.reduce_mod_prime), as every minor maps to
        the reduced minor; (0, None) when a denominator is divisible by p."""
        field = op[0][1][0].field
        n = len(op[0][0])
        reduced = np.zeros((n, n), dtype=np.int64)
        for perm, scale in op:
            values = field.reduce_mod_prime(scale)
            if values is None:
                return 0, None
            reduced[perm, np.arange(n)] = values
        return intlinalg.rank_mod(reduced, field.prime), field.prime

    def spans(self, B, C, tol: float = 0.0) -> bool:
        """Kernel bases are independent, so B spans C iff B + C has rank |B|."""
        return self.rank(list(B) + list(C)) == len(B)

    def scalar_of(self, op, tol: float = 0.0):
        """Every term is nonzero, so another beside the identity's is not
        scalar; no term at all is the zero of these scalars (ExactScalars)."""
        diag = _identity_scale(op)
        if diag is None or len(op) > 1:
            return None if op else self.zero()
        return diag[0] if all((v - diag[0]).is_zero() for v in diag) else None

    def eigenspaces(self, M, tol, rank_tol):
        """None: exact eigenvalues are not computed."""
        return None

    multiplicities = eigenspaces


def _pattern_blocks(M):
    """A square array M as its diagonal blocks: the connected components of
    its nonzero pattern (i ~ j when M[i, j] != 0), as one (indices, blocks)
    pair per block size, indices a (count, size) array of the components'
    index sets and blocks the (count, size, size) array M[indices[b]][:,
    indices[b]].  Eigenvalues of M are those of the blocks together.  An M
    whose pattern is connected comes back as one block."""
    n = len(M)
    rows, cols = np.nonzero(M)
    # Union-find by min-label propagation with pointer jumping: each index
    # ends labelled by the least index of its component.
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    comps = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    if len(comps) <= 1:
        return [(np.arange(n)[None], M[None])]
    by_size: dict[int, list] = {}
    for c in comps:
        by_size.setdefault(len(c), []).append(c)
    return [(idx, M[idx[:, :, None], idx[:, None, :]])
            for idx in map(np.array, by_size.values())]


def _cut(s, tol: float) -> float:
    """Singular values s at most tol times the largest (at least 1, so an
    O(1)-entry operator already below tolerance is zero) count as zero."""
    return tol * max(np.max(s, initial=0.0), 1.0)


def _clusters(blocks, tol: float) -> list:
    """The blocks' eigenvalues together, clustered: sorted eigenvalues closer
    than tol to the first of a cluster join it."""
    vals = np.concatenate([np.linalg.eigvals(B).ravel() for B in blocks])
    order = np.lexsort((vals.imag.round(8), vals.real.round(8)))
    groups: list[list] = []
    for z in vals[order]:
        if groups and abs(z - groups[-1][0]) < tol:
            groups[-1][1] += 1
        else:
            groups.append([z, 1])
    return [(complex(z), int(m)) for z, m in groups]


def _shifted(pattern, lam):
    """M - lam Id as its pattern blocks: (indices, shifted blocks) pairs."""
    return [(idx, B - lam * np.eye(B.shape[-1])) for idx, B in pattern]


class BlockBasis(NamedTuple):
    """An n x ncols basis whose every column lives on one pattern block, in
    block form: entry e is local[e] at (rows[e], cols[e]), and no two
    entries share a place.  A basis of ker(M - lam Id) has size x d entries
    for blocks of one size, against n x d dense."""

    n: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    local: np.ndarray

    def dense(self):
        V = np.zeros((self.n, self.ncols), dtype=complex)
        V[self.rows, self.cols] = self.local
        return V

    def image(self, op):
        """op V, dense: one scatter per term, e_i -> scale[i] e[perm[i]], of
        the entries alone.  A permutation keeps a column's rows distinct, so
        no two entries of one scatter meet."""
        out = np.zeros((self.n, self.ncols), dtype=complex)
        for perm, scale in op:
            rows = self.rows
            out[np.asarray(perm)[rows], self.cols] += np.asarray(scale)[rows] * self.local
        return out


def _eigenbasis(n, pattern, lam, rank_tol):
    """An orthonormal basis of ker(M - lam Id) in block form (BlockBasis),
    each column supported on one pattern block: the right singular vectors
    of every shifted block whose singular values are under the cut at
    rank_tol, taken over all blocks together as for the whole matrix."""
    svds = [(idx, np.linalg.svd(B)) for idx, B in _shifted(pattern, lam)]
    cut = _cut([s.max(initial=0.0) for _, (_, s, _) in svds], rank_tol)
    rows, cols, local, d = [], [], [], 0
    for idx, (_, s, vh) in svds:
        b, k = np.nonzero(s <= cut)
        rows.append(idx[b])
        cols.append(np.broadcast_to(np.arange(d, d + len(b))[:, None], idx[b].shape))
        local.append(vh[b, k].conj())
        d += len(b)
    return BlockBasis(n, d, *(np.concatenate([a.ravel() for a in parts])
                              for parts in (rows, cols, local)))


class FloatArithmetic:
    mode = "float"

    def is_zero(self, a, tol: float) -> bool:
        return self.norm(a) <= tol

    def norm(self, a) -> float:
        return float(np.max(np.abs(a), initial=0.0))

    def residual(self, a) -> float:
        return abs(a)

    def inv(self, a):
        return 1 / a

    def operator(self, terms):
        by_perm = {}
        for c, (perm, scale) in terms:
            key = tuple(perm)
            by_perm[key] = (by_perm.get(key, 0)
                            + complex(c) * np.asarray(scale, dtype=complex))
        return [(np.array(perm), scale) for perm, scale in by_perm.items()
                if scale.any()]

    def dense(self, dim, op):
        M = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        # distinct terms share no entry
        for perm, scale in op:
            M[perm, cols] += scale
        return M

    def image(self, op, basis):
        """op X: row j gains scale[i] X[i] from each term, i = perm^-1(j)."""
        out = np.zeros(basis.shape, dtype=complex)
        for perm, scale in op:
            inv = np.argsort(perm)
            out += np.asarray(scale)[inv, None] * basis[inv]
        return out

    def stack(self, mats):
        return np.vstack([np.asarray(M) for M in mats])

    def ncols(self, basis) -> int:
        return basis.shape[1]

    def kernel(self, M, tol: float):
        """A tall M has the singular values and right singular vectors of its
        QR factor R, which is square, so no rows x rows U is formed."""
        M = np.asarray(M)
        if M.shape[0] > M.shape[1]:
            M = np.linalg.qr(M, mode="r")
        u, s, vh = np.linalg.svd(M)
        return vh.conj().T[:, int(np.sum(s > _cut(s, tol))):]

    def rank(self, M, tol: float) -> int:
        """Number of singular values above the cut; values only, no U or V."""
        s = np.linalg.svd(np.asarray(M), compute_uv=False)
        return int(np.sum(s > _cut(s, tol)))

    def spans(self, B, C, tol: float) -> bool:
        return self.rank(np.hstack([B, C]), tol) == self.rank(B, tol)

    def rank_bound(self, op):
        """(0, None): a float rank is a decision at a tolerance, not a bound."""
        return 0, None

    def scalar_of(self, op, tol: float):
        diag = _identity_scale(op)
        c = complex(np.mean(diag)) if diag is not None else 0j
        off = max((self.norm(np.asarray(s) - c if s is diag else s) for _, s in op),
                  default=0.0)
        return c if off <= max(tol, 1e-9 * max(abs(c), 1)) else None

    def eigenspaces(self, M, tol, rank_tol):
        """(lam, multiplicity, orthonormal basis of ker(M - lam Id) in block
        form, a BlockBasis) per eigenvalue cluster of the pattern blocks.
        M - lam Id has M's pattern off the diagonal, so the pattern is
        searched once and each shift is taken block by block."""
        M = np.asarray(M)
        pattern = _pattern_blocks(M)
        return [(lam, m, _eigenbasis(len(M), pattern, lam, rank_tol))
                for lam, m in _clusters([B for _, B in pattern], tol)]

    def multiplicities(self, M, tol, rank_tol):
        """(lam, multiplicity, dim ker(M - lam Id)) per cluster, as the
        column counts of eigenspaces' bases: the same clusters and cut, from
        values-only SVDs of the shifted blocks."""
        pattern = _pattern_blocks(np.asarray(M))
        out = []
        for lam, m in _clusters([B for _, B in pattern], tol):
            s = [np.linalg.svd(B, compute_uv=False) for _, B in _shifted(pattern, lam)]
            cut = _cut([v.max(initial=0.0) for v in s], rank_tol)
            out.append((lam, m, sum(int(np.sum(v <= cut)) for v in s)))
        return out


class ExactScalars(ExactArithmetic):

    def __init__(self, N: int, order: int | None = None):
        if isinstance(N, bool) or not isinstance(N, int) or N < 3 or N % 2 == 0:
            raise ValueError("N must be odd and >= 3")
        L = order if order is not None else 4 * N
        if isinstance(L, bool) or not isinstance(L, int) or L <= 0 or L % (4 * N):
            raise ValueError(f"field order {L!r} is not a positive int multiple of 4N")
        self.N = N
        self.field = CycloField(L)
        # omega = zeta_L^omega_step
        self.omega_step = L // (4 * N)

    def omega(self, k: int = 1) -> CycloScalar:
        return self.field.root_pow(k * self.omega_step)

    def one(self) -> CycloScalar:
        return self.field.one()

    def zero(self) -> CycloScalar:
        return self.field.zero()

    def from_rational(self, q) -> CycloScalar:
        return self.field.from_rational(q)

    def omega_log(self, a) -> int:
        """k with a == omega^k, or raise ValueError."""
        k = a.root_log() if a.field is self.field else None
        if k is None or k % self.omega_step:
            raise ValueError("not a power of omega")
        return k // self.omega_step

    def deserialize(self, data) -> CycloScalar:
        return CycloScalar.deserialize(self.field, data)

    def json_fields(self) -> dict:
        return {"field_order": self.field.order}


class FloatScalars(FloatArithmetic):

    def __init__(self, N: int):
        if isinstance(N, bool) or not isinstance(N, int) or N < 3 or N % 2 == 0:
            raise ValueError("N must be odd and >= 3")
        self.N = N

    def omega(self, k: int = 1) -> complex:
        return cmath.exp(2j * cmath.pi * k / (4 * self.N))

    def one(self) -> complex:
        return 1.0 + 0j

    def zero(self) -> complex:
        return 0j

    def omega_log(self, a) -> int:
        """Nearest k with a ~ omega^k; raise if not close to a 4N-th root of 1."""
        n = 4 * self.N
        if abs(abs(a) - 1.0) > 1e-6:
            raise ValueError("not close to a root of unity")
        k = round(cmath.phase(a) * n / (2 * cmath.pi)) % n
        if abs(a - self.omega(k)) > 1e-6:
            raise ValueError("not close to a power of omega")
        return k

    def deserialize(self, data) -> complex:
        """A weight [re, im] of two finite JSON numbers."""
        if not (isinstance(data, list) and len(data) == 2
                and all(type(v) in (int, float) for v in data)):
            raise ValueError(f"weight {data!r} is not two numbers [re, im]")
        z = complex(*data)
        if not cmath.isfinite(z):
            raise ValueError(f"weight {data} is not finite")
        return z

    def json_fields(self) -> dict:
        return {}


_ARITHMETIC = {"exact": ExactArithmetic(), "float": FloatArithmetic()}


def for_mode(mode: str):
    """The N-free arithmetic of a mode string ("exact" or "float")."""
    if mode not in _ARITHMETIC:
        raise ValueError(f"unknown mode {mode!r}")
    return _ARITHMETIC[mode]


def backend(mode: str, N: int, order: int | None = None):
    """Scalars of a mode; exact ones live in Q(zeta_order), Q(zeta_4N) by default."""
    for_mode(mode)
    return FloatScalars(N) if mode == "float" else ExactScalars(N, order)


def of(x, N: int | None = None):
    """The arithmetic of a scalar, a matrix, a basis or an operator (by the
    first entry of its first scale vector, so a [term] of lists reads as
    its representation's), picked by its type: float for a complex or a
    numpy array, exact otherwise (a CycloScalar or a list of rows or
    columns).  Given N, the scalars of that arithmetic; exact ones live in
    the field of a CycloScalar x, Q(zeta_4N) otherwise."""
    if isinstance(x, list) and x and isinstance(x[0], tuple):
        x = x[0][1][0]
    if isinstance(x, (complex, np.ndarray)):
        return _ARITHMETIC["float"] if N is None else FloatScalars(N)
    if N is None:
        return _ARITHMETIC["exact"]
    return ExactScalars(N, x.field.order if isinstance(x, CycloScalar) else None)


def one_like(v):
    """The one of v's arithmetic: complex, Fraction or Q(zeta_L)."""
    if isinstance(v, complex):
        return 1 + 0j
    if isinstance(v, CycloScalar):
        return v.field.one()
    return Fraction(1)


def is_zero(v, tol: float = 0.0) -> bool:
    """v == 0: within tol for a complex v, exactly (tol unused) otherwise."""
    return abs(v) <= tol if isinstance(v, complex) else _exact_zero(v)


def serialize(v):
    """JSON form of a complex ([re, im]) or exact value."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v.serialize()
