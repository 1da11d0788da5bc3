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
from .errors import (DimensionMismatch, InconsistentCenter, NotScalar,
                     ParseError, ZeroWeight)
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
            data = json.loads(text)
            N = data["N"]
            ctx = scalars.backend(data["mode"], N, data.get("field_order"))
            u = [ctx.deserialize(d) for d in data["u"]] or None
            x = [ctx.deserialize(d) for d in data["x"]] if u is None else None
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
        self._solve_character()

    # -- structure --

    def _setup_factors(self):
        N, T = self.N, self.T
        self.pairs = self.lattice.pairs
        self.orders = []
        for _, _, d in self.pairs:
            m = (4 * N) // math.gcd(4 * N, 2 * d)
            self.orders.append(m)
        self.active = [t for t, m in enumerate(self.orders) if m > 1]
        radix = self.radix = np.array([self.orders[t] for t in self.active],
                                      dtype=np.int64)
        dim = self.dim = int(radix.prod())
        expected = N ** (3 * T.genus + T.num_vertices - 3)
        if dim != expected:
            raise DimensionMismatch(
                f"clock/shift dimension {dim} != N^(3g+p-3) = {expected}")
        # mixed-radix strides for the tensor index, and the digits of every
        # index: digits[i, j] is the position of index i in active factor j
        self.strides = np.array([radix[j + 1:].prod() for j in range(len(radix))],
                                dtype=np.int64)
        self.digits = (np.arange(dim)[:, None] // self.strides) % radix

    def _w_data(self, gamma):
        """Scalar omega-exponent and (alpha, beta) per active pair.

        W(k) = omega^(sum_t d_t alpha_t beta_t) prod_t V_t^(beta_t) U_t^(alpha_t)
        with U V = omega^(2d) V U satisfies W(k) W(l) = omega^(k.sigma.l) W(k+l).
        """
        s = 0
        ab = []
        for t, (a, b, d) in enumerate(self.pairs):
            al, be = gamma[a], gamma[b]
            s += d * al * be
            if t in self.active:
                ab.append((al, be, d, self.orders[t]))
        return s % (4 * self.N), ab

    # -- character --

    def _solve_character(self):
        N, T = self.N, self.T
        n = self.algebra.n
        mod = 4 * N
        rows, rhs = [], []
        self.x = list(self.weights.x)
        for i in range(n):
            k = [0] * n
            k[i] = 2 * N
            gamma = self.lattice.coords(k)
            s, ab = self._w_data(gamma)
            for al, be, d, m in ab:
                if be % m != 0 or (2 * d * al) % mod != 0:
                    raise NotScalar("W(Z_i^2N) is not scalar; construction bug")
            rows.append(list(gamma))
            rhs.append(-s % mod)
        self._hv_logs = []
        for v in range(T.num_vertices):
            h = T.end_counts(v)
            gamma = self.lattice.coords(h)
            s, ab = self._w_data(gamma)
            if ab and any(al or be for al, be, _, _ in ab):
                raise NotScalar("W(H_v) is not the identity; construction bug")
            uh = self._u_power(h)
            try:
                duh = self.ctx.omega_log(uh)
            except ValueError as exc:
                raise InconsistentCenter(
                    f"fan product u^(h_v) at vertex {v} is not a root of "
                    f"unity; weights are not vertex-valid") from exc
            self._hv_logs.append(duh)
            rows.append(list(gamma))
            rhs.append((2 * N + 4 - duh - s) % mod)
        rho = il.solve_mod(rows, rhs, mod)
        if rho is None:
            raise InconsistentCenter(
                "no character realizes mu(Z_i^2N) = x_i and mu(H_v) = -omega^4")
        self.rho = rho

    def _u_power(self, k):
        out = self.ctx.one()
        for i, ki in enumerate(k):
            if ki:
                ui = self.weights.u[i]
                out = out * (ui if ki > 0 else self.ctx.inv(ui)) ** abs(ki)
        return out

    # -- evaluation --

    def cocycle(self, k):
        """tau(k) with mu([Z^k]) = tau(k) W(k)."""
        return self._u_power(k) * self.ctx.omega(self.cocycle_exponent(k))

    def cocycle_exponent(self, k) -> int:
        """Weight-independent omega-exponent part of tau(k)."""
        gamma = self.lattice.coords(k)
        e = sum(r * g for r, g in zip(self.rho, gamma)) % (4 * self.N)
        if self.sign is not None and self.sign.value(k):
            e = (e + 2 * self.N) % (4 * self.N)
        return e

    def weyl_image(self, k) -> tuple:
        """mu([Z^k]) as one term (perm, scale)."""
        return self._image(k, 0)

    def intertwiner_part(self, k):
        """A_k with mu([Z^k]) = u^k A_k, as weight-independent discrete data:
        (perm tuple, omega-exponent tuple)."""
        base, ab = self._w_data(self.lattice.coords(k))
        base += self.cocycle_exponent(k)
        mod = 4 * self.N
        # reduced before entering int64, so no sum below can overflow
        shift, phase = np.array([(be % m, 2 * d * al % mod) for al, be, d, m in ab],
                                dtype=np.int64).reshape(-1, 2).T
        perm = ((self.digits + shift) % self.radix) @ self.strides
        expo = (base + self.digits @ phase) % mod
        return tuple(perm.tolist()), tuple(expo.tolist())

    def monomial_image(self, k) -> tuple:
        """mu(Z^k) = omega^(w(k)) mu([Z^k]) as one term (perm, scale)."""
        return self._image(k, self.algebra.weyl_weight(k))

    def _image(self, k, extra_exp) -> tuple:
        """omega^extra_exp u^k A_k as one translation term (perm, scale) of
        lists, e_i -> scale[i] e[perm[i]]; ctx.operator sums such terms."""
        perm, expo = self.intertwiner_part(k)
        uk = self._u_power(k)
        mod = 4 * self.N
        scales = [uk * self.ctx.omega(j) for j in range(mod)]
        return list(perm), [scales[(e + extra_exp) % mod] for e in expo]

    def operator(self, a: QTElement) -> list:
        """mu(a) as an operator (module scalars): each monomial image is a
        translation of the index group Z_radix times a diagonal, and those
        of one translation are summed in a.terms order."""
        self.algebra.require_balanced(a)
        return self.ctx.operator((c, self.monomial_image(k)) for k, c in a.terms.items())

    def apply(self, a: QTElement):
        """Dense matrix of mu(a); float mode returns a numpy array."""
        return self.ctx.dense(self.dim, self.operator(a))

    def hv_scalar(self):
        """The common scalar of mu(H_v)."""
        return -self.ctx.omega(4)

    # -- derived checks --

    def commutant_dim(self) -> int:
        """Dimension of the commutant of the image, via orbit-phase
        propagation over the monomial generator matrices.

        A generator u^k A_k with A_k e_i = omega^(e_i) e_(p(i)) forces
        X[p(i), p(j)] = omega^(e_i - e_j) X[i, j] on a commuting X: the factor
        u^k cancels, so phases are integer omega-exponents mod 4N and the count
        is exact in both modes.
        """
        gens = [self.intertwiner_part(b) for b in self.lattice.basis]
        mod = 4 * self.N
        D = self.dim
        phase = [None] * (D * D)
        dim = 0
        for root in range(D * D):
            if phase[root] is not None:
                continue
            phase[root] = 0
            stack = [root]
            consistent = True
            while stack:
                pos = stack.pop()
                i, j = divmod(pos, D)
                for perm, expo in gens:
                    npos = perm[i] * D + perm[j]
                    val = (phase[pos] + expo[i] - expo[j]) % mod
                    if phase[npos] is None:
                        phase[npos] = val
                        stack.append(npos)
                    elif phase[npos] != val:
                        consistent = False
            if consistent:
                dim += 1
        return dim

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
