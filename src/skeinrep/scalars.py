"""Scalar and matrix backends shared by representations and kernel computations.

Exact mode works in Q(zeta_L) with 4N | L and omega = zeta_L^(L/4N), a
primitive 4N-th root of unity; then omega^(2N) = -1 and A = omega^(-2) is a
primitive N-th root of -1.  Float mode uses complex doubles with the same
conventions.  Symbolic algebra (module cfalgebra) is always exact; these
backends only decide how representation matrices and kernels are evaluated.

This module alone chooses between the two arithmetics.  Values pick it by
their type (`of`, `one_like`, `is_zero`, `serialize`; `one_like` and
`is_zero` also take the Fraction points of holonomy): a complex, a numpy
array or an Operator with no field is float, anything else is exact.  A
mode string picks it only where the values are not at hand yet
(`backend`, for the "mode" tag of a weights file).

Contract.  A matrix is a numpy array (float) or a list of rows (exact).  A
subspace basis is an ambient x d array (float) or Columns (exact: d
columns of numerators, each over its own denominator).  An operator is an
Operator, a square matrix as its translation terms (in a representation
image each monomial is a translation of the index group times a
diagonal): int64 permutations and their scales, complex (float) or
integer numerators over one denominator (exact).  dense, image,
image_norm, rank_bound, certified_kernel and scalar_of take operators,
which ExactScalars and FloatScalars make (operator); only kernel, rank and
spans take dense matrices.  An operator is zero when is_zero holds for its
scales.  Field elements are made only where a value leaves the arrays:
scalar_of's value, dense, and the accessors Operator.terms and
Columns.elements.  Callers pass the threshold they use as `tol`; exact
methods ignore it.  The N-free Exact/FloatArithmetic give (float | exact):

    image_norm(op, B) norm(op B), a chunk of B at a time | read from the
                      numerators, with no element made
    rank_bound(op)    (0, None) | (r, p): rank op >= r, r the rank of op
                      reduced modulo the field's prime p (intlinalg.rank_mod),
                      (0, None) if its denominator is divisible by p
    certified_kernel(op) None | the basis kernel gives for the dense op,
                      found modulo p and certified exactly, or None
    is_zero(a, tol)   max |a| <= tol | a == 0, for a scalar or an array
                      (an operator's scales)
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
    inv, stack, spans(B, C) (span of B contains C), image(op, B) = op B,
    ncols, dense(op) = the matrix of op

Exact eigenvalues are not computed, so two float-only module functions
stand outside the arithmetics: multiplicities (the eigenvalue clusters of
a dense array with their kernel dimensions, from singular values only)
and joint_spaces (the joint eigenspaces of commuting operators, built from
their terms alone in block form, JointSpaces; see _refine).  Every float
rank decision is the one cut of _cut.

ExactScalars and FloatScalars add omega, one, zero, omega_log, root_split
(which need N), the weights-file format (deserialize, json_fields) and
operator(n, groups), which sums the monomial images of each translation
(CFRep.operator).  An exact weight that is a power of omega enters those
sums as an exponent alone (root_split), so roots of unity make no product.

Exact operators, images and kernels run on arrays of numerators over
denominators (CycloField.array), EXACT_CHUNK integers a step, int64 where
a bound rules out overflow and Python ints otherwise, on the same code,
and never a float.  When certified_kernel cannot certify a kernel, the
caller falls back to Gauss-Jordan elimination in the field (kernel, with
its fused `row_update`).  The element format belongs to module
cyclotomic: nothing here reads a numerator or a denominator of an
element, only its array form.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import intlinalg
from .cyclotomic import CycloField, CycloScalar, convolve


class Operator:
    """A square matrix as its translation terms: M[perms[t, i], i] is the
    scale of term t at i, no two terms sharing an entry.  perms is a
    (terms x n) int64 array of permutations; scales a complex (terms, n)
    array (float, field None), or a (terms, n, phi) integer array of
    numerators over one denominator den (exact, over field)."""

    def __init__(self, perms, scales, field: CycloField | None = None, den: int = 1):
        self.perms, self.scales, self.field, self.den = perms, scales, field, den
        self.n = perms.shape[1]

    def __len__(self) -> int:
        return len(self.perms)

    @cached_property
    def inverse(self):
        """The inverse permutations: inverse[t, perms[t, i]] = i."""
        inverse = np.empty_like(self.perms)
        np.put_along_axis(inverse, self.perms, np.arange(self.n), axis=1)
        return inverse

    def identity_term(self):
        """The index of the term that fixes every index, or None: its scale
        is the whole diagonal, as no translation but 0 fixes an index."""
        at = np.flatnonzero((self.perms == np.arange(self.n)).all(axis=1))
        return int(at[0]) if len(at) else None

    def terms(self) -> list:
        """[(perm, scale)] as lists, scale of Python complexes or of field
        elements in lowest terms."""
        perms = self.perms.tolist()
        if self.field is None:
            return list(zip(perms, self.scales.tolist()))
        return [(p, self.field.unpack(s, self.den)) for p, s in zip(perms, self.scales)]


class Columns(NamedTuple):
    """An exact basis: column j is nums[j] / dens[j], nums a (columns, n,
    phi) integer array of numerators (CycloField.pack)."""

    field: CycloField
    nums: np.ndarray
    dens: list

    def elements(self) -> list:
        """The columns as lists of elements in lowest terms."""
        return [self.field.unpack(col, d) for col, d in zip(self.nums, self.dens)]


def _exact_zero(v) -> bool:
    return v.is_zero() if isinstance(v, CycloScalar) else v == 0


def _residue_matrices(op):
    """The n x n int64 matrices of op's residues under each embedding
    modulo the field's prime (CycloField.embed_mod_prime), one at a time;
    none when the prime divides op's denominator."""
    images = op.field.embed_mod_prime(op.scales, op.den)
    for values in images if images is not None else []:
        M = np.zeros((op.n, op.n), dtype=np.int64)
        M[op.perms, np.arange(op.n)] = values
        yield M


def _multipliers(field, S):
    """The (terms, n, phi, phi) integer matrices of multiplication by the
    entries of S in the power basis: column j is S x^j modulo Phi_L, so
    each entry is at most fold_bound(max|S|)."""
    eye = np.eye(S.shape[-1], dtype=np.int64)
    return np.swapaxes(field.fold(convolve(S[..., None, :], eye)), -1, -2)


# Integers (128 KB in int64) that one step of an exact image gathers (each
# column once per term) or of an exact operator sum holds unreduced: small,
# so that no step grows the process's heap.
EXACT_CHUNK = 1 << 14


def _columns_per_chunk(G) -> int:
    """Columns that one step of _image_nums gathers EXACT_CHUNK integers of
    (G from _multipliers), at least one."""
    terms, n, d, _ = G.shape
    return max(1, EXACT_CHUNK // max(1, terms * n * d))


def _image_nums(op, G, X):
    """The numerators of op X, for op's multipliers G (_multipliers) and X a
    (k, n, phi) integer array of k columns: entry j of a column is the sum
    over the terms t of G[t, i] X[i], i = perm_t^-1(j), gathered only at
    the j = perm_t(i) of rows i where some column of X is nonzero (kernel
    bases are mostly zero); int64 where a bound rules out overflow."""
    terms, n, d, _ = G.shape
    bound = terms * d * intlinalg.top(G) * intlinalg.top(X)
    G, X = intlinalg.exact_ints(G, bound), intlinalg.exact_ints(X, bound)
    reached = np.zeros(n, dtype=bool)
    reached[op.perms[:, X.any(axis=(0, 2))]] = True
    targets = np.flatnonzero(reached)
    sources = op.inverse[:, targets]
    out = np.zeros(X.shape, dtype=np.result_type(G, X))
    products = G[np.arange(terms)[:, None], sources] @ X[:, sources][..., None]
    out[:, targets] = products[..., 0].sum(axis=1)
    return out


def _image_chunks(op, basis):
    """The numerators of op X per chunk of the columns X of an exact basis
    (_image_nums), column j over op.den basis.dens[j]."""
    G = _multipliers(op.field, op.scales)
    step = _columns_per_chunk(G)
    for at in range(0, len(basis.nums), step):
        yield _image_nums(op, G, basis.nums[at:at + step])


def _lifted_columns(field, n, pivots, free, images):
    """The kernel columns of the free columns free, as (K, dens): K the
    (k, n, phi) integer numerators, column j over dens[j], from images, the
    (phi, |pivots|, k) residues of the reduced rows at free under the
    embeddings; None when a coefficient has no small fraction."""
    fractions = intlinalg.rational_reconstruction(field.interpolate_mod_prime(images),
                                                  field.prime)
    if fractions is None:
        return None
    num, dens = (a.swapaxes(0, 1) for a in fractions)  # (k, |pivots|, phi)
    col_dens = [math.lcm(*set(d.ravel().tolist())) for d in dens]
    # |K| <= max col_den max|num|
    if max(col_dens, default=1) * intlinalg.top(num) <= intlinalg.INT64_MAX:
        cd = np.array(col_dens, dtype=np.int64)
    else:
        cd, num, dens = np.array(col_dens, dtype=object), num.astype(object), dens.astype(object)
    K = np.zeros((len(free), n, field.degree), dtype=cd.dtype)
    K[:, pivots] = -num * (cd.reshape(-1, 1, 1) // dens)
    K[np.arange(len(free)), free, 0] = cd
    return K, col_dens


class ExactArithmetic:
    mode = "exact"

    def is_zero(self, a, tol: float = 0.0) -> bool:
        if isinstance(a, np.ndarray):  # numerators in array form
            return not a.any()
        return _exact_zero(a)

    def norm(self, a) -> float:
        return 0.0 if self.is_zero(a) else 1.0

    def residual(self, a) -> str:
        return repr(a)

    def inv(self, a):
        return a.inv()

    def dense(self, op):
        M = np.full((op.n, op.n), op.field.zero(), dtype=object)
        for perm, scale in op.terms():
            M[perm, np.arange(op.n)] = scale
        return M.tolist()

    def stack(self, mats):
        return [row for M in mats for row in M]

    def image(self, op, basis):
        """op B as Columns, mapped in array form (_image_chunks)."""
        nums = np.concatenate([basis.nums[:0], *_image_chunks(op, basis)])
        return Columns(basis.field, nums, [op.den * d for d in basis.dens])

    def image_norm(self, op, basis) -> float:
        """norm(image(op, basis)), read from the numerators of op B alone: no
        element is made."""
        return float(any(nums.any() for nums in _image_chunks(op, basis)))

    def ncols(self, basis) -> int:
        return len(basis.nums)

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
        """Per free column f, the column with 1 at f and -R[r, f] at the
        pivot of each reduced row R[r]."""
        rows, pivots = self._eliminate(M)
        field, n = M[0][0].field, len(M[0])
        basis = []
        for f in sorted(set(range(n)) - set(pivots)):
            vec = [field.one() if c == f else field.zero() for c in range(n)]
            for r, p in enumerate(pivots):
                vec[p] = -rows[r][f]
            basis.append(vec)
        return Columns(field, *field.pack(basis))

    def rank(self, M, tol: float = 0.0) -> int:
        return len(self._eliminate(M)[1])

    def rank_bound(self, op):
        """(r, p) with rank op >= r: r is the rank of op under the embedding
        zeta_L -> z modulo the field's prime p (CycloField.embed_mod_prime),
        as every minor maps to the reduced minor; (0, None) when the
        denominator is divisible by p."""
        M, p = next(_residue_matrices(op), None), op.field.prime
        return (0, None) if M is None else (intlinalg.rank_mod(M, p), p)

    def certified_kernel(self, op):
        """The kernel basis of an exact operator that Gauss-Jordan
        elimination of its dense matrix gives (kernel), as Columns, from
        one prime p, or None when it is not certified.

        The scales are reduced under the phi(L) embeddings zeta_L -> z^u mod
        p (CycloField.embed_mod_prime), and the dense residue matrix of one
        embedding at a time is row-reduced over F_p (intlinalg.rref_mod), of
        which only the pivots and the free columns are kept.  All embeddings
        must give the same pivots P.  The entries R[r, f] of the reduced
        rows at the free columns f are then interpolated to their
        coefficients mod p (interpolate_mod_prime) and lifted to fractions
        (intlinalg.rational_reconstruction), and K has, for each free f in
        order, the column with 1 at f, -R[r, f] at the pivot P[r] and 0 at
        the other free columns.  R[r, f] = 0 for f < P[r] in a reduced row,
        so each column of K writes column f of op as a combination of the
        pivot columns to its left.

        Certificate.  op K = 0 exactly (_image_nums), and rank_p op = |P| =
        n - k.  The first puts every free column f in the span of the pivot
        columns left of it, so for each j the columns up to j span what the
        pivot columns among them span.  Every minor of op maps to the minor
        of the reduced matrix, so rank op >= rank_p op = |P|; then the |P|
        pivot columns, which span the column space, are independent.  So the
        columns that are not in the span of the columns left of them, the
        pivots of the reduced row echelon form of op over Q(zeta_L), are
        exactly P, and the kernel vector with 1 at f and 0 at the other free
        columns is unique, since two differ by a combination of the
        independent pivot columns that vanishes.  So K is, column for
        column, the basis that elimination gives.

        None when the denominator is divisible by p, when the pivots differ
        between embeddings, when a coefficient has no fraction of numerator
        and denominator below sqrt(p / 2), or when op K != 0."""
        field, n = op.field, op.n
        pivots, entries = None, []
        for M in _residue_matrices(op):
            piv, rows = intlinalg.rref_mod(M, field.prime)
            if pivots is None:
                pivots, free = piv, np.ones(n, dtype=bool)
                free[piv] = False
                free = np.flatnonzero(free)
            elif piv != pivots:
                return None
            entries.append(rows[:, free].astype(np.int32))  # residues below 2^31
        if pivots is None:  # p divides the denominator
            return None
        del M, rows  # as large as op; only the free columns are kept
        G = _multipliers(field, op.scales)
        # filled in place, so that no second K is formed
        K, dens = np.zeros((len(free), n, field.degree), dtype=np.int64), []
        step = _columns_per_chunk(G)
        for at in range(0, len(free), step):
            cols = slice(at, at + step)
            lifted = _lifted_columns(field, n, pivots, free[cols],
                                     np.stack([e[:, cols] for e in entries]))
            if lifted is None or _image_nums(op, G, lifted[0]).any():
                return None
            K = K.astype(np.result_type(K, lifted[0]), copy=False)
            K[cols], dens = lifted[0], dens + lifted[1]
        return Columns(field, K, dens)

    def spans(self, B, C, tol: float = 0.0) -> bool:
        """Kernel bases are independent, so B spans C iff B + C has rank |B|."""
        return self.rank(B.elements() + C.elements()) == len(B.dens)

    def scalar_of(self, op, tol: float = 0.0):
        """Every term is nonzero, so another beside the identity's is not
        scalar; no term at all is zero.  The entries share one denominator,
        so they are equal when their numerators are."""
        t = op.identity_term()
        if t is None or len(op) > 1:
            return None if len(op) else op.field.zero()
        diag = op.scales[t]
        return op.field.unpack(diag[:1], op.den)[0] if (diag == diag[0]).all() else None


def _labels(n, rows, cols):
    """The components of the graph on range(n) with edges rows[k] ~ cols[k],
    as each index's label: the least index of its component.  Union-find by
    min-label propagation with pointer jumping."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def components(n, perms):
    """The components of i ~ perm[i] over the permutations perms of
    range(n), as each index's label (the least index of its component).  For
    translations of an index group they are the cosets of the subgroup the
    translations generate."""
    rows = np.tile(np.arange(n), len(perms))
    return _labels(n, rows, np.concatenate([np.asarray(p) for p in perms]) if perms else rows)


def _pattern_blocks(M):
    """A square array M as its diagonal blocks: the connected components of
    its nonzero pattern (i ~ j when M[i, j] != 0), as one (count, size,
    size) array of the blocks M[c][:, c] per block size, c a component's
    index set.  Eigenvalues of M are those of the blocks together.  An M
    whose pattern is connected comes back as one block."""
    n = len(M)
    label = _labels(n, *np.nonzero(M))
    order = np.argsort(label, kind="stable")
    comps = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    if len(comps) <= 1:
        return [M[None]]
    by_size: dict[int, list] = {}
    for c in comps:
        by_size.setdefault(len(c), []).append(c)
    return [M[idx[:, :, None], idx[:, None, :]] for idx in map(np.array, by_size.values())]


def _cut(s, tol: float) -> float:
    """Singular values s at most tol times the largest (at least 1, so an
    O(1)-entry operator already below tolerance is zero) count as zero."""
    return tol * max(np.max(s, initial=0.0), 1.0)


def _clusters(blocks, tol: float) -> list:
    """The blocks' eigenvalues together, clustered: each joins the first
    cluster whose representative lies closer than tol, whatever the order of
    the values between them, and otherwise starts a cluster of its own.  The
    values are taken, and the clusters come out, in the order of their real
    and then imaginary parts rounded to 8 decimals; a cluster's
    representative is its first value in that order."""
    vals = np.concatenate([np.linalg.eigvals(B).ravel() for B in blocks])
    vals = vals[np.lexsort((vals.imag.round(8), vals.real.round(8)))]
    free = np.ones(len(vals), dtype=bool)
    out = []
    while free.any():
        z = vals[np.argmax(free)]
        near = free & (abs(vals - z) < tol)
        out.append((complex(z), int(near.sum())))
        free &= ~near
    return out


def multiplicities(M, tol, rank_tol):
    """(lam, multiplicity, dim ker(M - lam Id)) per eigenvalue cluster of
    the pattern blocks of a square float array M: M - lam Id has M's pattern
    off the diagonal, so the pattern is searched once, and each kernel
    dimension is counted from values-only SVDs of the shifted blocks, cut
    over all blocks together."""
    blocks = _pattern_blocks(np.asarray(M))
    out = []
    for lam, m in _clusters(blocks, tol):
        s = [np.linalg.svd(B - lam * np.eye(B.shape[-1]), compute_uv=False) for B in blocks]
        cut = _cut([v.max(initial=0.0) for v in s], rank_tol)
        out.append((lam, m, sum(int(np.sum(v <= cut)) for v in s)))
    return out


# Complex entries (2 MB) that one step of a blocked product forms: the
# dense bases of a chunk of joint spaces (JointSpaces.chunks), the gathered
# blocks of JointSpaces.span, the columns of FloatArithmetic.image.  So no
# second array of a whole basis's size is formed.
CHUNK = 1 << 17


class JointSpaces(NamedTuple):
    """Joint eigenspaces of commuting operators, all of one dimension, in
    block form.  The operators' translations split the indices into
    components (comps, one row of s indices per component: the cosets of
    the subgroup that the translations generate), and space j meets
    component c in the m orthonormal columns local[c, :, :, j], an s x m
    block on the indices comps[c].  So all J spaces have dimension C m, and
    a space's basis has n m entries against n C m dense.  The spaces are
    the last axis, so that a scatter moves the entries of a chunk of spaces
    together.  values[j] is the eigenvalue on space j of the operator that
    split it last, a representative of _clusters (_refine)."""

    comps: np.ndarray
    local: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.comps.size

    @property
    def count(self) -> int:
        return self.local.shape[-1]

    @property
    def dim(self) -> int:
        C, _, m, _ = self.local.shape
        return C * m

    def spectrum(self) -> list:
        """[(lam, dim times the number of spaces with lam)] over the values,
        in the order of _clusters."""
        lams, counts = np.unique(self.values, return_counts=True)
        order = np.lexsort((lams.imag.round(8), lams.real.round(8)))
        return [(complex(lams[i]), int(counts[i]) * self.dim) for i in order]

    def chunks(self) -> list:
        """Slices of the spaces, each with at most CHUNK entries of dense
        basis together (at least one space)."""
        step = max(1, CHUNK // (self.n * self.dim))
        return [slice(j, j + step) for j in range(0, self.count, step)]

    def images(self, op, slices):
        """op U for the spaces U of each slice of slices, as one (n, dim,
        spaces) array per slice: one scatter per term of the block entries
        alone, e_i -> scale[i] e[perm[i]], each to its flat place row * dim
        + column, places and scales gathered once per term.  A permutation
        keeps a column's rows distinct, so no two entries of one scatter
        meet."""
        C, s, m, _ = self.local.shape
        cols = np.arange(C * m).reshape(C, 1, m)
        terms = [((perm[self.comps][..., None] * (C * m) + cols).ravel(),
                  np.repeat(scale[self.comps], m)[:, None])
                 for perm, scale in zip(op.perms, op.scales)]
        for js in slices:
            entries = self.local[..., js].reshape(C * s * m, -1)
            out = np.zeros((self.n * C * m, entries.shape[1]), dtype=complex)
            for places, scale in terms:
                out[places] += scale * entries
            yield out.reshape(self.n, C * m, -1)

    def span(self, bases, out):
        """Write the U_j W_j over all spaces U_j in order into the n x k
        array out, for bases the list of the dim x k_j arrays W_j, CHUNK
        gathered block entries at a time."""
        C, _, m, _ = self.local.shape
        W = np.concatenate(bases, axis=1).reshape(C, m, -1)
        owner = np.repeat(np.arange(self.count), [w.shape[1] for w in bases])
        step = max(1, CHUNK // (self.n * m))
        for at in range(0, W.shape[-1], step):
            cols = slice(at, at + step)
            out[self.comps, cols] = np.einsum("camk,cmk->cak", self.local[..., owner[cols]],
                                              W[..., cols])


def _refine(spaces, op, tol: float, rank_tol: float):
    """The JointSpaces spaces split by op, an operator whose terms
    translate the index group and which commutes with the operators of
    spaces, so that it preserves each of them: again a JointSpaces (values
    op's eigenvalues), or None when the split is not uniform.

    op's translations join the components r at a time into cosets of the
    larger subgroup.  On space j and a joined component, op restricts to an
    M x M matrix R, M = r m, in the orthonormal basis of the r blocks of
    local; R is summed term by term from the inner products of those blocks
    with their images, so no dense s x s block of op is formed.  The
    eigenvalues of all R together are clustered at tol, and space j splits
    into the null spaces of R - lam, cut at rank_tol over all R together,
    as spaces (j, lam) in that order, with the lam that space j lacks left
    out.  The split is uniform when the null spaces of each R fill C^M and
    every new space meets every joined component in one and the same
    number of columns."""
    comps = spaces.comps
    C, s = comps.shape
    _, _, m, J = spaces.local.shape
    comp_of = np.empty(comps.size, dtype=np.int64)
    comp_of[comps] = np.arange(C)[:, None]
    pos = np.empty(comps.size, dtype=np.int64)
    pos[comps] = np.arange(s)
    images = op.perms[:, comps]
    targets = [comp_of[image[:, 0]] for image in images]
    label = components(C, targets)
    _, sizes = np.unique(label, return_counts=True)
    r = sizes[0]
    if np.any(sizes != r):
        return None
    groups = np.argsort(label, kind="stable").reshape(len(sizes), r)
    new_of, slot = np.empty(C, dtype=np.int64), np.empty(C, dtype=np.int64)
    new_of[groups] = np.arange(len(groups))[:, None]
    slot[groups] = np.arange(r)
    # R[new component, target slot, source slot, space] is an m x m block
    R = np.zeros((len(groups), r, r, J, m, m), dtype=complex)
    for image, target, scale in zip(images, targets, op.scales):
        moved = spaces.local[target[:, None], pos[image]]
        scaled = scale[comps][..., None, None] * spaces.local
        R[new_of, slot[target], slot] += np.einsum("casj,catj->cjst", moved.conj(), scaled)
    R = R.transpose(3, 0, 1, 4, 2, 5).reshape(J, len(groups), r * m, r * m)
    # (dims (J, C'), vh) of R - lam per cluster lam
    clusters = _clusters([R], tol)
    null = []
    for lam, _ in clusters:
        sv, vh = np.linalg.svd(R - lam * np.eye(r * m))[1:]
        null.append((np.sum(sv <= _cut(sv, rank_tol), axis=-1), vh))
    d = np.stack([dims for dims, _ in null], axis=-1)  # d[j, c, i]: space (j, lam_i) on c
    dims = d[:, 0]
    k = dims.max()
    if (np.any(d != d[:, :1]) or np.any(dims.sum(axis=-1) != r * m)
            or np.any((dims != 0) & (dims != k))):
        return None
    js, lams = np.nonzero(dims)
    blocks = spaces.local[groups]
    local = np.empty((len(groups), r, s, k, len(js)), dtype=complex)
    for i, (_, vh) in enumerate(null):
        at = np.flatnonzero(lams == i)
        v = vh[js[at]][..., r * m - k:, :].conj().swapaxes(-1, -2)
        local[..., at] = np.einsum("cqasj,jcqsd->cqadj", blocks[..., js[at]],
                                   v.reshape(at.size, len(groups), r, m, k))
    return JointSpaces(comps[groups].reshape(len(groups), r * s),
                       local.reshape(len(groups), r * s, k, len(js)),
                       np.array([lam for lam, _ in clusters])[lams])


def joint_spaces(ops, tol, rank_tol):
    """The joint eigenspaces of the commuting float operators ops in block
    form, a JointSpaces, refined by each operator in turn from the whole
    space (_refine at tol and rank_tol), or None when a level does not split
    uniformly."""
    n = ops[0].n
    spaces = JointSpaces(np.arange(n)[:, None], np.ones((n, 1, 1, 1), dtype=complex),
                         np.ones(1, dtype=complex))
    for op in ops:
        spaces = _refine(spaces, op, tol, rank_tol)
        if spaces is None:
            return None
    return spaces


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

    def dense(self, op):
        M = np.zeros((op.n, op.n), dtype=complex)
        # distinct terms share no entry
        for perm, scale in zip(op.perms, op.scales):
            M[perm, np.arange(op.n)] += scale
        return M

    def image(self, op, basis):
        """op X: row j gains scale[i] X[i] from each term, i = perm^-1(j)
        (op.inverse), CHUNK entries of X at a time, so that no other array
        of X's shape is formed."""
        basis = np.asarray(basis)
        out = np.zeros(basis.shape, dtype=complex)
        terms = list(zip(op.inverse, np.take_along_axis(op.scales, op.inverse, axis=1)))
        step = max(1, CHUNK // max(len(basis), 1))
        for at in range(0, basis.shape[1], step):
            cols = slice(at, at + step)
            for inv, scale in terms:
                out[:, cols] += scale[:, None] * basis[inv, cols]
        return out

    def image_norm(self, op, basis) -> float:
        """norm(image(op, basis)), CHUNK entries of the image at a time."""
        step = max(1, CHUNK // max(len(basis), 1))
        return max((self.norm(self.image(op, basis[:, at:at + step]))
                    for at in range(0, basis.shape[1], step)), default=0.0)

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

    def certified_kernel(self, op):
        """None: a float kernel is a decision at a tolerance, not a certificate."""
        return None

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
        t = op.identity_term()
        c = complex(np.mean(op.scales[t])) if t is not None else 0j
        off = max((self.norm(s - c if i == t else s) for i, s in enumerate(op.scales)),
                  default=0.0)
        return c if off <= max(tol, 1e-9 * max(abs(c), 1)) else None


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

    @cached_property
    def _omegas(self):
        """omega^j for j < 4N as numerators over 1."""
        return self.field.root_table[self.omega_step * np.arange(4 * self.N)]

    def operator(self, n: int, groups) -> Operator:
        """Per translation, sum c r omega^e in array form: every c r of all
        groups in one array (CycloField.array; c itself where r is None),
        times the 4N omega^j (convolve, fold), gathered by exponent and
        summed over each translation's terms a block of columns at a time."""
        field, d = self.field, self.field.degree
        groups = list(groups)
        if not groups:
            return Operator(np.zeros((0, n), dtype=np.int64),
                            np.zeros((0, n, d), dtype=np.int64), field)
        W, den = field.array([c if r is None else c * r
                              for _, cs, rs, _ in groups for c, r in zip(cs, rs)])
        sizes = [len(cs) for _, cs, _, _ in groups]
        # a table entry is at most fold_bound(d max|W| max|omega^j|), and a sum of max(sizes)
        limit = max(sizes) * field.fold_bound(d * intlinalg.top(W) * intlinalg.top(self._omegas))
        table = field.fold(convolve(intlinalg.exact_ints(W, limit)[:, None], self._omegas))
        expos = np.concatenate([e for *_, e in groups])
        rows, starts = np.arange(len(W))[:, None], np.cumsum([0] + sizes[:-1])
        S = np.empty((len(groups), n, d), dtype=table.dtype)
        step = max(1, EXACT_CHUNK // (len(W) * d))
        for at in range(0, n, step):  # in place, so that no second S is formed
            S[:, at:at + step] = np.add.reduceat(table[rows, expos[:, at:at + step]], starts)
        perms, keep = np.stack([perm for perm, *_ in groups]), S.any(axis=(1, 2))
        if not keep.all():
            perms, S = perms[keep], S[keep]
        return Operator(perms, S, field, den)

    def root_split(self, a) -> tuple:
        """(e, r) with a = omega^e r: (k, None) for a = omega^k (None for 1),
        and (0, a) otherwise."""
        k = a.root_log() if a.field is self.field else None
        return (0, a) if k is None or k % self.omega_step else (k // self.omega_step, None)

    def omega_log(self, a) -> int:
        """k with a == omega^k (root_split), or raise ValueError."""
        k, r = self.root_split(a)
        if r is not None:
            raise ValueError("not a power of omega")
        return k

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

    def operator(self, n: int, groups) -> Operator:
        """Per translation, sum c (r omega^e) in the terms' order, r omega^e
        gathered from the 4N products r omega^j of Python complexes (omega^j
        itself where r is None)."""
        omegas = [self.omega(j) for j in range(4 * self.N)]
        sums = ((perm, sum((complex(c) * np.array([w if r is None else r * w for w in omegas])[e]
                            for c, r, e in zip(cs, rs, expos)), 0))
                for perm, cs, rs, expos in groups)
        kept = [(perm, scale) for perm, scale in sums if scale.any()]
        return Operator(np.array([p for p, _ in kept], dtype=np.int64).reshape(-1, n),
                        np.array([s for _, s in kept], dtype=complex).reshape(-1, n))

    def root_split(self, a) -> tuple:
        """(0, a): float weights keep their Python products."""
        return 0, a

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


def backend(mode: str, N: int, order: int | None = None):
    """Scalars of a mode ("exact" or "float"); exact ones live in
    Q(zeta_order), Q(zeta_4N) by default."""
    if mode not in _ARITHMETIC:
        raise ValueError(f"unknown mode {mode!r}")
    return FloatScalars(N) if mode == "float" else ExactScalars(N, order)


def of(x, N: int | None = None):
    """The arithmetic of a scalar, a matrix, a basis or an operator, picked
    by its type: float for a complex, a numpy array or an Operator with no
    field, exact otherwise (a CycloScalar, a list of rows, Columns or an
    Operator over a field).  Given N, the scalars of that arithmetic; exact
    ones live in the field of x, Q(zeta_4N) when it has none."""
    field = getattr(x, "field", None)
    if isinstance(x, (complex, np.ndarray)) or isinstance(x, Operator) and field is None:
        return _ARITHMETIC["float"] if N is None else FloatScalars(N)
    if N is None:
        return _ARITHMETIC["exact"]
    return ExactScalars(N, field.order if field is not None else None)


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
