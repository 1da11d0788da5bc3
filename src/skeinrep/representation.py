"""Irreducible representations of the balanced algebra from edge weights.

Construction: the pairing k^T sigma l on the balanced lattice, which the
algebra builds once (CFAlgebra.lattice) and all its representations share,
is put into skew normal form; each hyperbolic pair with commutation scalar
omega^(2d) of order m contributes an m-dimensional clock/shift factor, the
radical maps to scalars, and a character of the lattice is solved exactly so
that

    mu(Z_i^(2N)) = x_i Id      and      mu(H_v) = -omega^4 Id.

The character is written as tau(k) = u^k omega^(rho . coords(k)) with an
integer vector rho, so the whole representation is pinned by discrete data;
weights enter only through the values u_i and the discrete logarithms of the
fan products u^(h_v).
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import intlinalg as il
from . import scalars
from .cfalgebra import CFAlgebra, QTElement, SignReversalClass
from .errors import (DimensionMismatch, InconsistentCenter, NotBalanced, NotScalar,
                     ParseError, ZeroWeight, require_fields)
from .triangulation import Triangulation


class WeightSystem:
    """Per-edge weights u_i with x_i = u_i^(2N) derived.

    Move-transport operations work at the level of the x_i alone; such
    systems carry x values but no u and cannot back a representation.
    The values pick the arithmetic: complex values are float, CycloScalars
    exact; a mix of the two raises ValueError.
    """

    def __init__(self, T: Triangulation, N: int, u=None, x=None):
        if u is None and x is None:
            raise ValueError("need u or x values")
        values = list(u if u is not None else x)
        if len(values) != T.num_edges:
            raise ValueError(f"need one weight per edge: got {len(values)}, "
                             f"the triangulation has {T.num_edges} edges")
        self.T = T
        self.N = N
        self.ctx = scalars.of(values[0], N)
        if any(scalars.of(v).mode != self.ctx.mode for v in values):
            raise ValueError("weights mix exact and float values")
        self.u = list(u) if u is not None else None
        self.x = [ui ** (2 * N) for ui in self.u] if u is not None else values
        if not all(self.ctx.norm(xi) < math.inf for xi in self.x):
            raise ValueError("a weight x_i = u_i^(2N) is not finite")
        if any(self.ctx.is_zero(v, 0.0) for v in values + self.x):
            raise ZeroWeight("a weight u_i or x_i is 0")

    @property
    def mode(self) -> str:
        return self.ctx.mode

    def has_roots(self) -> bool:
        return self.u is not None

    def validate(self) -> dict:
        """Residuals of the two fan relations at every vertex."""
        report = {"vertices": [], "valid": True}
        for v in range(self.T.num_vertices):
            total, prefix = 0, 1
            for e in self.T.fans[v].edges:
                total = total + prefix
                prefix = prefix * self.x[e]
            prod_res = prefix - 1
            ok = self.ctx.is_zero(total, 1e-9) and self.ctx.is_zero(prod_res, 1e-9)
            report["vertices"].append({
                "vertex": v,
                "sum_residual": self.ctx.residual(total),
                "product_residual": self.ctx.residual(prod_res),
                "valid": ok,
            })
            report["valid"] = report["valid"] and ok
        return report

    # -- serialization --

    def to_json(self) -> str:
        data = {"mode": self.mode, "N": self.N,
                "u": [scalars.serialize(ui) for ui in self.u or []]}
        if self.u is None:
            data["x"] = [scalars.serialize(xi) for xi in self.x]
        data.update(self.ctx.json_fields())
        return json.dumps(data)

    @staticmethod
    def from_json(T: Triangulation, text: str) -> "WeightSystem":
        try:
            data = require_fields(json.loads(text), "weights file", "N", "mode", "u")
            N = data["N"]
            ctx = scalars.backend(data["mode"], N, data.get("field_order"))
            u = [ctx.deserialize(d) for d in data["u"]] or None
            x = None if u else [ctx.deserialize(d) for d in
                                require_fields(data, "weights file", "x")["x"]]
            return WeightSystem(T, N, u=u, x=x)
        except (KeyError, TypeError, ValueError, ZeroDivisionError,
                json.JSONDecodeError) as exc:
            raise ParseError(f"bad weights file: {exc}") from exc


class CFRep:
    """Concrete irreducible representation of the balanced algebra."""

    def __init__(self, algebra: CFAlgebra, weights: WeightSystem):
        if not weights.has_roots():
            raise ValueError("representation needs root weights u_i")
        if weights.N != algebra.N:
            raise ValueError("weight system and algebra disagree on N")
        if weights.T.glue != algebra.T.glue:
            raise ValueError("weight system and algebra belong to different triangulations")
        self.algebra = algebra
        self.T = algebra.T
        self.N = algebra.N
        self.weights = weights
        self.sign = None  # SignReversalClass, set by precompose_sign_reversal
        self.ctx = weights.ctx
        self.lattice = algebra.lattice
        self.total_kernels = {}  # tol (None if exact) -> Subspace, kernels.total_kernel
        self.spectra = {}  # (edge, tol) -> joint eigenspaces, kernels.pants_spaces
        self._setup_factors()
        split = [self.ctx.root_split(ui) for ui in weights.u]  # u_i = omega^(e_i) r_i
        self._logs = [(i, e) for i, (e, _) in enumerate(split) if e]
        self._residues = [(i, r) for i, (_, r) in enumerate(split) if r is not None]
        self._solve_character()

    # -- structure --

    def _setup_factors(self):
        N, T = self.N, self.T
        self.pairs = self.lattice.pairs
        self.orders = [4 * N // math.gcd(4 * N, 2 * d) for _, _, d in self.pairs]
        self.active = [t for t, m in enumerate(self.orders) if m > 1]
        radix = self.radix = np.array(self.orders, dtype=np.int64)[self.active]
        dim = self.dim = int(radix.prod())
        expected = N ** (3 * T.genus + T.num_vertices - 3)
        if dim != expected:
            raise DimensionMismatch(
                f"clock/shift dimension {dim} != N^(3g+p-3) = {expected}")
        # mixed-radix strides for the tensor index, and the digits of every
        # index: digits[i, j] is the position of index i in active factor j
        self.strides = np.array([radix[j + 1:].prod() for j in range(len(radix))], dtype=np.int64)
        self.digits = (np.arange(dim)[:, None] // self.strides) % radix
        # the tables of _factors modulo 8N: twice the coordinates (as in
        # BalancedLattice.coords), the pairs' d and the Weyl weight's lower form
        n = T.num_edges
        self._coord_rows = (il.as_ints(self.lattice._two_inv, (n, n)) % (8 * N)).astype(np.int64).T
        a, b, d = np.array(self.pairs, dtype=np.int64).reshape(-1, 3).T
        self._pair_ends, self._pair_d = (a, b), d % (8 * N)
        self._lower = np.tril(np.array(self.algebra.sigma, dtype=np.int64), -1) % (8 * N)
        self._powers = {}  # (i, j) -> r_i^j, for _u_power; the sign leaves it valid

    # -- character --

    def _solve_character(self):
        """rho from the s with W(k) = omega^s Id at k = 2N e_i and the fan
        vectors h_v (_factors with rho = 0): mu(Z_i^2N) = x_i Id needs rho .
        coords(k) = -s, and mu(H_v) = -omega^4 Id, with u^(h_v) = omega^(l_v),
        needs rho . coords(h_v) = 2N + 4 - l_v - s mod 4N."""
        N, T, n = self.N, self.T, self.algebra.n
        keys = [[2 * N * (j == i) for j in range(n)] for i in range(n)]
        keys += [T.end_counts(v) for v in range(T.num_vertices)]
        self.rho = [0] * n
        shifts, phases, s, _ = self._factors(keys)
        if shifts.any() or phases.any():
            raise NotScalar("W(Z_i^2N) or W(H_v) is not scalar; construction bug")
        self._hv_logs = []
        for v, h in enumerate(keys[n:]):
            r, e = self._u_power(h)
            try:
                self._hv_logs.append((e + (0 if r is None else self.ctx.omega_log(r))) % (4 * N))
            except ValueError as exc:
                raise InconsistentCenter(
                    f"fan product u^(h_v) at vertex {v} is not a root of "
                    f"unity; weights are not vertex-valid") from exc
        rhs = [-e for e in s[:n].tolist()] + [2 * N + 4 - l - e for l, e in
                                               zip(self._hv_logs, s[n:].tolist())]
        rho = il.solve_mod([self.lattice.coords(k) for k in keys], rhs, 4 * N)
        if rho is None:
            raise InconsistentCenter(
                "no character realizes mu(Z_i^2N) = x_i and mu(H_v) = -omega^4")
        self.rho = rho

    def _u_power(self, k):
        """(r, e) with u^k = r omega^e, for u_i = omega^(e_i) r_i: e = sum
        k_i e_i mod 4N, and r the powers r_i^(+-j) multiplied in the order
        of k, each made once per representation (_powers), or None when
        every u_i with k_i != 0 is a power of omega."""
        r = None
        for i, ri in self._residues:
            ki = k[i]
            if ki:
                if (i, ki) not in self._powers:
                    self._powers[i, ki] = (ri if ki > 0 else self.ctx.inv(ri)) ** abs(ki)
                r = self._powers[i, ki] if r is None else r * self._powers[i, ki]
        return r, sum(k[i] * e for i, e in self._logs) % (4 * self.N)

    # -- evaluation --

    def cocycle(self, k):
        """tau(k) with mu([Z^k]) = tau(k) W(k)."""
        r, e = self._u_power(k)
        w = self.ctx.omega(e + self.cocycle_exponent(k))
        return w if r is None else r * w

    def cocycle_exponent(self, k) -> int:
        """Weight-independent omega-exponent part of tau(k) (_factors)."""
        return int(self._factors([k])[3][0])

    def _factors(self, keys, weyl: bool = False):
        """(shifts, phases, exps, cocycles) of A_k over the exponent rows k of
        keys: A_k translates the index group by shifts[t] (be mod m per active
        pair), with omega-exponent exps[t] + phases[t] . digits[i] (2 d al per
        pair) mod 4N at i, exps[t] that of W(k) plus the cocycle's cocycles[t],
        and plus w(k) with weyl (mu(Z^k) = omega^(w(k)) mu([Z^k])).  The coordinates
        come from k mod 8N, which fixes them mod 4N; an odd doubled one
        raises NotBalanced."""
        mod, n = 4 * self.N, self.algebra.n
        K = il.as_ints(keys, (len(keys), n)) % (2 * mod)
        # every entry is below 8N, so a sum below is at most n^2 (8N)^3
        K = il.exact_ints(K.astype(np.int64), n * n * (2 * mod) ** 3)
        two = K @ self._coord_rows
        odd = (two % 2).any(axis=1)
        if odd.any():
            raise NotBalanced(f"{tuple(keys[int(np.argmax(odd))])} is not in the balanced lattice")
        gamma = two // 2 % mod
        (a, b), act = self._pair_ends, self.active
        cocycles = gamma @ self.rho + (0 if self.sign is None else
                                       2 * self.N * (K @ self.sign.c % 2))
        exps = (self._pair_d * gamma[:, a] * gamma[:, b]).sum(axis=1) + cocycles
        if weyl:
            exps -= (K @ self._lower * K).sum(axis=1)
        return tuple(np.asarray(x % m, dtype=np.int64) for x, m in
                     ((gamma[:, b[act]], self.radix),
                      (2 * self._pair_d[act] * gamma[:, a[act]], mod), (exps, mod), (cocycles, mod)))

    def _perm(self, shift):
        """The translation of the index group by shift: i -> perm[i]."""
        return ((self.digits + shift) % self.radix) @ self.strides

    def _exponents(self, phases, exps):
        """The (terms x dim) omega-exponents of _factors at every index."""
        return (exps[:, None] + phases @ self.digits.T) % (4 * self.N)

    def weyl_image(self, k) -> scalars.Operator:
        """mu([Z^k]) as an operator of one term."""
        return self._operator([k], [self.algebra.scalars.one()], False)

    def intertwiner_part(self, k):
        """A_k with mu([Z^k]) = u^k A_k, as weight-independent discrete data:
        (perm tuple, omega-exponent tuple)."""
        (shift,), phases, exps, _ = self._factors([k])
        return tuple(self._perm(shift).tolist()), tuple(self._exponents(phases, exps)[0].tolist())

    def monomial_image(self, k) -> scalars.Operator:
        """mu(Z^k) = omega^(w(k)) mu([Z^k]) as an operator of one term."""
        return self._operator([k], [self.algebra.scalars.one()], True)

    def operator(self, a: QTElement) -> scalars.Operator:
        """mu(a) as an operator (module scalars)."""
        return self._operator(list(a.terms), list(a.terms.values()), True)

    def _operator(self, keys, coeffs, weyl: bool) -> scalars.Operator:
        """sum c u^k A_k (times omega^(w(k)) with weyl) over the keys k and
        coefficients c, from one _factors of all keys: the images of one
        translation summed (ctx.operator) in the order of keys, u^k = r
        omega^e (_u_power) entering as its r, e joining the exponents."""
        shifts, phases, exps, _ = self._factors(keys, weyl)
        groups = {}
        for t, shift in enumerate(map(tuple, shifts.tolist())):
            groups.setdefault(shift, []).append(t)
        powers = [self._u_power(k) for k in keys]
        exps = exps + np.array([e for _, e in powers], dtype=np.int64)
        return self.ctx.operator(self.dim, ((self._perm(shifts[ts[0]]), [coeffs[t] for t in ts],
                                             [powers[t][0] for t in ts],
                                             self._exponents(phases[ts], exps[ts]))
                                            for ts in groups.values()))

    def apply(self, a: QTElement):
        """Dense matrix of mu(a); float mode returns a numpy array."""
        return self.ctx.dense(self.operator(a))

    def hv_scalar(self):
        """The common scalar of mu(H_v)."""
        return -self.ctx.omega(4)

    # -- derived checks --

    def commutant_dim(self) -> int:
        """Dimension of the commutant of the image, exact in both modes.

        X commutes with u^b A_b (b in the lattice basis, A_b e_i = omega^(e(i))
        e_(p(i))) iff X[p(i), p(j)] = omega^(e(i) - e(j)) X[i, j]: u^b cancels.
        A_b translates Z_radix by s_b, and e_b = base_b + chi_b (_factors) with
        chi_b(i) = phases_b . digits(i) additive, as m_t 2 d al = 0 mod 4N.  So
        (i, i + delta) goes to (i + s_b, i + delta + s_b) with phase change
        -chi_b(delta): delta is invariant, base_b cancels, and the orbits are
        (coset of H = <s_b>, delta), alike on every coset, each one free entry
        of X when its phases agree.  So dim = (D / |H|) #{delta : the phases
        -chi_b(delta) agree on the Cayley graph of H}, by one breadth-first
        search of H from 0 for all delta at once: node h holds its phases over
        delta as small ints (a row of a D x D array, rows outside H never
        written), each edge out of a node checked against the row it reaches,
        CHUNK entries at a time."""
        mod, D = 4 * self.N, self.dim
        shifts, phases, _, _ = self._factors(self.lattice.basis)
        moves = [self._perm(s) for s in shifts]
        small = np.min_scalar_type(2 * mod)  # holds a sum of two phases
        steps = (-(phases @ self.digits.T) % mod).astype(small)  # -chi_b(delta)
        phase = np.zeros((D, D), dtype=small)
        seen, agree = np.arange(D) == 0, np.ones(D, dtype=bool)
        frontier, block = np.zeros(1, dtype=np.int64), max(1, scalars.CHUNK // D)
        while len(frontier):
            reached = [frontier[:0]]
            for at in range(0, len(frontier), block):
                nodes = frontier[at:at + block]
                for move, step in zip(moves, steps):
                    targets, values = move[nodes], (phase[nodes] + step) % mod
                    new = ~seen[targets]
                    agree &= (phase[targets[~new]] == values[~new]).all(axis=0)
                    phase[targets[new]], seen[targets[new]] = values[new], True
                    reached.append(targets[new])
            frontier = np.concatenate(reached)
        return D // int(seen.sum()) * int(agree.sum())

    def precompose_sign_reversal(self, eps: SignReversalClass) -> "CFRep":
        eps.require_admissible()
        if self.sign is None:
            combined = eps
        else:
            combined = SignReversalClass(
                self.T, [a ^ b for a, b in zip(self.sign.c, eps.c)])
        rep = object.__new__(CFRep)
        rep.__dict__.update(self.__dict__)
        rep.sign = combined if any(combined.c) else None
        rep.total_kernels = {}
        rep.spectra = {}  # the family's images change with the sign
        return rep


def build_rep(T: Triangulation, N: int, weights: WeightSystem,
              algebra: CFAlgebra | None = None) -> CFRep:
    """Construct the representation with mu(Z_i^2N) = x_i, mu(H_v) = -omega^4."""
    if algebra is not None and (algebra.T.glue != T.glue or algebra.N != N):
        raise ValueError("algebra does not match the triangulation and N")
    alg = algebra if algebra is not None else CFAlgebra(T, N)
    return CFRep(alg, weights)
