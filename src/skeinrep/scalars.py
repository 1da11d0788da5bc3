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
values are not at hand yet (`backend`, for the "mode" tag of a weights
file).

Contract.  A matrix is a numpy array (float) or a list of rows (exact); a
subspace basis is an ambient x d array (float) or a list of d columns (exact).
An operator is a square matrix as its translation terms: a list of (perm,
scale), entries M[perm[i], i] = scale[i], no two terms sharing an entry (in
a representation image each monomial is a translation of the index group
times a diagonal); perm and scale are numpy arrays (float) or lists (exact).
dense, image, image_norm, rank_bound, certified_kernel and scalar_of take
operators, which ExactScalars and FloatScalars make (operator; dense, image
and scalar_of also take [term], one term (perm, scale) of lists, as
CFRep.monomial_image gives); only kernel, rank and spans take dense
matrices.  An operator is zero when is_zero holds for its scale vectors.
Callers pass the threshold they use as `tol`; exact methods ignore it.  The
N-free Exact/FloatArithmetic give (float | exact):

    image_norm(op, B) norm(op B), a chunk of B at a time | read from the
                      numerators, with no element made
    rank_bound(op)    (0, None) | (r, p): rank op >= r, r the rank of op
                      reduced modulo the field's prime p (intlinalg.rank_mod),
                      (0, None) if a denominator is divisible by p
    certified_kernel(op) None | the basis kernel gives for the dense op,
                      found modulo p and certified exactly, or None
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
    inv, stack, spans(B, C) (span of B contains C), image(op, B) = op B,
    ncols, dense(dim, op) = the matrix of op

Exact eigenvalues are not computed, so two float-only module functions
stand outside the arithmetics:

    multiplicities(M, tol, rank_tol)  [(lam, multiplicity, dim ker(M - lam
                      Id) under the cut at rank_tol)] per cluster at tol of
                      the eigenvalues of a dense array, from singular values
                      only
    joint_spaces(ops, tol, rank_tol)  the joint eigenspaces of commuting
                      operators whose terms translate the index group, in
                      block form (one JointSpaces), or None

Every float rank decision is the one cut of _cut.  multiplicities splits a
square matrix into the diagonal blocks of its nonzero pattern and counts
each kernel dimension over all blocks together.  Joint eigenspaces come
from the operators' terms alone, with no dense matrix.  The translations
of the operators taken so far split the indices into components, the
cosets of the subgroup they generate, all of one size s; every joint
space meets every component in m orthonormal columns, kept as an s x m
block, one m for all spaces and components, so that each level is one
JointSpaces (comps and local).  The next operator's translations join the
components r at a time into the cosets of a larger subgroup, and its
r m x r m restrictions to each space on each joined component, clustered
and cut as one batch, split every space, each new space keeping its
cluster's eigenvalue.  A split is kept when every new space meets every
joined component in one and the same number of columns and the new spaces
fill the joined components; otherwise, new spaces of unequal dimensions
among them, there are no spaces (None).  So spaces end with the last
operator's level, and their values are its spectrum.  Every level
of the pants family of genus2_sep is uniform, as each pants curve has N
eigenvalues of equal multiplicity.
For the pants family of genus2_sep there are N^3 spaces of dimension N,
each with one column of N^3 entries on each of N cosets: N^7 entries in
all, against N^8 for dense bases.  An operator maps a chunk of spaces
(CHUNK) by one scatter of the block entries per term (JointSpaces.images),
for kernels taken one joint space at a time (kernels.eigenspace_kernel).

ExactScalars and FloatScalars add omega, one, zero, omega_log (which need N),
the weights-file format (deserialize, json_fields) and operator(groups): per
group (perm, cs, us, expos) of monomial images (CFRep.operator) the term at
perm of scale sum_t c_t u_t omega^(expos[t, i]) at i; all-zero terms dropped.

Exact operators, images and kernels run on the array form of the field's
elements (CycloField.pack): a vector is an (entries x phi(L)) integer array
of numerators over one denominator, int64 where a bound rules out overflow
and Python ints otherwise, on the same code, and never a float.  operator
packs each c u once and multiplies it by the 4N powers of omega, of which
every entry gathers one by its exponent, EXACT_CHUNK integers of rows at a
time; image packs the basis once and multiplies by each term's phi x phi
multiplication matrices (the products folded through the field's table)
at the permuted rows, EXACT_CHUNK integers at a time, only where the basis
is nonzero; an all-zero entry comes out as the field's shared zero.
Elements are made once per entry, at the end.  The exact kernel of an operator
(certified_kernel) reduces its scale vectors under the
phi(L) embeddings of the field modulo its prime p, row-reduces one
embedding at a time (intlinalg.rref_mod), rebuilds the coefficients by
interpolation and rational reconstruction, and is certified by op K = 0,
exactly, and the rank modulo p; rank_bound reads the same reduction.  When
the certificate cannot be made, the caller falls back to Gauss-Jordan
elimination in the field (kernel, with its fused `row_update`).  omega_log
reads the field's root-of-unity table through `CycloScalar.root_log`.  The
element format belongs to module cyclotomic: nothing here reads a
numerator or a denominator of an element, only its array form.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import intlinalg
from .cyclotomic import CycloField, CycloScalar, convolve


def _exact_zero(v) -> bool:
    return v.is_zero() if isinstance(v, CycloScalar) else v == 0


def _identity_scale(op):
    """The scale of op's identity term, or None: the whole diagonal of an
    image, as no other translation fixes an index."""
    return next((s for p, s in op if np.array_equal(p, np.arange(len(p)))), None)


def _packed(op):
    """An exact operator in array form: (field, perms, S, den), perms the
    (terms x n) int64 permutations and S the (terms, n, phi) integer
    numerators of the scale vectors over their one denominator den."""
    field = op[0][1][0].field
    S, dens = field.pack([scale for _, scale in op])
    den = math.lcm(*dens)
    if den != 1:
        factors = [den // d for d in dens]
        S = (intlinalg.exact_ints(S, intlinalg.top(S) * max(factors))
             * intlinalg.as_ints(factors, (-1, 1, 1)))
    return field, np.array([perm for perm, _ in op], dtype=np.int64), S, den


def _dense_mod(perms, values):
    """The n x n int64 matrix of the residues values[t, i] at (perms[t, i], i)."""
    n = perms.shape[1]
    M = np.zeros((n, n), dtype=np.int64)
    M[perms, np.arange(n)] = values
    return M


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
    return max(1, EXACT_CHUNK // (terms * n * d))


def _image_nums(perms, G, X):
    """The numerators of op X, for op's permutations perms (terms x n) and
    multipliers G (_multipliers), and X a (k, n, phi) integer array of k
    columns: entry j of a column is the sum over the terms t of G[t, i]
    X[i], i = perm_t^-1(j), gathered only at the j = perm_t(i) of rows i
    where some column of X is nonzero (kernel bases are mostly zero);
    int64 where a bound rules out overflow."""
    terms, n, d, _ = G.shape
    bound = terms * d * intlinalg.top(G) * intlinalg.top(X)
    G, X = intlinalg.exact_ints(G, bound), intlinalg.exact_ints(X, bound)
    reached = np.zeros(n, dtype=bool)
    reached[perms[:, X.any(axis=(0, 2))]] = True
    targets = np.flatnonzero(reached)
    sources = np.argsort(perms, axis=1)[:, targets]
    out = np.zeros(X.shape, dtype=np.result_type(G, X))
    products = G[np.arange(terms)[:, None], sources] @ X[:, sources][..., None]
    out[:, targets] = products[..., 0].sum(axis=1)
    return out


def _image_chunks(op, basis):
    """(field, den, nums, dens) per chunk of the columns X of an exact basis:
    nums the numerators of op X (_image_nums), column j over den dens[j]."""
    field, perms, S, den = _packed(op)
    G = _multipliers(field, S)
    step = _columns_per_chunk(G)
    for at in range(0, len(basis), step):
        X, dens = field.pack(basis[at:at + step])
        yield field, den, _image_nums(perms, G, X), dens


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
        if isinstance(a, list):
            return all(_exact_zero(v) for row in a for v in row)
        return _exact_zero(a)

    def norm(self, a) -> float:
        return 0.0 if self.is_zero(a) else 1.0

    def residual(self, a) -> str:
        return repr(a)

    def inv(self, a):
        return a.inv()

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
        """op B: B packed once, each column over its own denominator, and
        mapped in array form (_image_chunks); an all-zero entry is the
        field's shared zero."""
        if not basis:
            return []
        if not op:
            return [[basis[0][0].field.zero()] * len(col) for col in basis]
        return [field.unpack(col, den * d) for field, den, nums, dens in _image_chunks(op, basis)
                for col, d in zip(nums, dens)]

    def image_norm(self, op, basis) -> float:
        """norm(image(op, basis)), read from the numerators of op B alone: no
        element is made."""
        return float(bool(op and basis) and any(nums.any() for _, _, nums, _ in
                                                _image_chunks(op, basis)))

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
        """(r, p) with rank op >= r: r is the rank of op under the embedding
        zeta_L -> z modulo the field's prime p (CycloField.embed_mod_prime),
        as every minor maps to the reduced minor; (0, None) when a
        denominator is divisible by p."""
        field, perms, S, den = _packed(op)
        images = field.embed_mod_prime(S, den)
        if images is None:
            return 0, None
        return intlinalg.rank_mod(_dense_mod(perms, images[0]), field.prime), field.prime

    def certified_kernel(self, op):
        """The kernel basis of an exact operator that Gauss-Jordan
        elimination of its dense matrix gives (kernel), from one prime p,
        or None when it is not certified.

        The scale vectors are reduced under the phi(L) embeddings zeta_L ->
        z^u mod p (CycloField.embed_mod_prime), and the dense residue matrix
        of one embedding at a time is row-reduced over F_p
        (intlinalg.rref_mod), of which only the pivots and the free columns
        are kept.  All embeddings must give the same pivots P.  The entries
        R[r, f] of the reduced rows at the free columns f are then
        interpolated to their coefficients mod p (interpolate_mod_prime) and
        lifted to fractions (intlinalg.rational_reconstruction), and K has,
        for each free f in order, the column with 1 at f, -R[r, f] at the
        pivot P[r] and 0 at the other free columns.  R[r, f] = 0 for f <
        P[r] in a reduced row, so each column of K writes column f of op as
        a combination of the pivot columns to its left.

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

        None when a denominator is divisible by p, when the pivots differ
        between embeddings, when a coefficient has no fraction of numerator
        and denominator below sqrt(p / 2), or when op K != 0."""
        field, perms, S, den = _packed(op)
        p, n = field.prime, perms.shape[1]
        images = field.embed_mod_prime(S, den)
        if images is None:
            return None
        pivots, entries = None, []
        for values in images:
            piv, rows = intlinalg.rref_mod(_dense_mod(perms, values), p)
            if pivots is None:
                pivots, free = piv, np.ones(n, dtype=bool)
                free[piv] = False
                free = np.flatnonzero(free)
            elif piv != pivots:
                return None
            entries.append(rows[:, free].astype(np.int32))  # residues below 2^31
        del rows  # as large as op; only the free columns are kept
        G = _multipliers(field, S)
        basis, step = [], _columns_per_chunk(G)
        for at in range(0, len(free), step):
            cols = slice(at, at + step)
            lifted = _lifted_columns(field, n, pivots, free[cols],
                                     np.stack([e[:, cols] for e in entries]))
            if lifted is None or _image_nums(perms, G, lifted[0]).any():
                return None
            basis += [field.unpack(col, d) for col, d in zip(*lifted)]
        return basis

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
        terms = [((np.asarray(perm)[self.comps][..., None] * (C * m) + cols).ravel(),
                  np.repeat(np.asarray(scale)[self.comps], m)[:, None]) for perm, scale in op]
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
    images = [np.asarray(perm)[comps] for perm, _ in op]
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
    for image, target, (_, scale) in zip(images, targets, op):
        moved = spaces.local[target[:, None], pos[image]]
        scaled = np.asarray(scale)[comps][..., None, None] * spaces.local
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
    n = len(ops[0][0][0])
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

    def dense(self, dim, op):
        M = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        # distinct terms share no entry
        for perm, scale in op:
            M[perm, cols] += scale
        return M

    def image(self, op, basis):
        """op X: row j gains scale[i] X[i] from each term, i = perm^-1(j),
        CHUNK entries of X at a time, so that no other array of X's shape
        is formed."""
        basis = np.asarray(basis)
        out = np.zeros(basis.shape, dtype=complex)
        terms = [(np.argsort(perm), np.asarray(scale)) for perm, scale in op]
        step = max(1, CHUNK // max(len(basis), 1))
        for at in range(0, basis.shape[1], step):
            cols = slice(at, at + step)
            for inv, scale in terms:
                out[:, cols] += scale[inv, None] * basis[inv, cols]
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
        diag = _identity_scale(op)
        c = complex(np.mean(diag)) if diag is not None else 0j
        off = max((self.norm(np.asarray(s) - c if s is diag else s) for _, s in op),
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

    def operator(self, groups):
        """Per translation, sum c u omega^e in array form: each c u packed once
        and times the 4N omega^j (convolve, fold), gathered by exponent and
        summed a block of rows at a time; elements made once per entry."""
        field, d = self.field, self.field.degree
        (omegas,), _ = field.pack([[self.omega(j) for j in range(4 * self.N)]])
        out = []
        for perm, cs, powers, expos in groups:
            (W,), (den,) = field.pack([[c * u for c, u in zip(cs, powers)]])
            # a table entry is at most fold_bound(d max|W| max|omegas|), and a sum of len(cs)
            limit = len(cs) * field.fold_bound(d * intlinalg.top(W) * intlinalg.top(omegas))
            table = field.fold(convolve(intlinalg.exact_ints(W, limit)[:, None], omegas))
            rows, step = np.arange(len(cs))[:, None], max(1, EXACT_CHUNK // (len(cs) * d))
            scale = [v for at in range(0, len(perm), step)
                     for v in field.unpack(table[rows, expos[:, at:at + step]].sum(axis=0), den)]
            if any(v is not field.zero() for v in scale):
                out.append((perm.tolist(), scale))
        return out

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

    def operator(self, groups):
        """Per translation, sum c (u omega^e) in the terms' order, u omega^e
        gathered from the 4N products u omega^j of Python complexes."""
        omegas = [self.omega(j) for j in range(4 * self.N)]
        sums = ((perm, sum((complex(c) * np.array([u * w for w in omegas])[e]
                            for c, u, e in zip(cs, powers, expos)), 0))
                for perm, cs, powers, expos in groups)
        return [(perm, scale) for perm, scale in sums if scale.any()]

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
