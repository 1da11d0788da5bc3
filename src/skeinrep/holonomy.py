"""SL2 matrices, projective points and crossratio edge weights.

Developments are finite per-face data: each face carries three projective
corner points, one point per vertex shared by every face at it (trivial
holonomy, so gluings need no transition matrices).  Projective points use
homogeneous coordinates throughout so degeneracies are detected exactly.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .errors import DegenerateConfiguration, SamplerExhausted, ZeroWeight
from .representation import WeightSystem
from .triangulation import Triangulation

# Draws random_enhancement may reject before SamplerExhausted: 100 times the
# most that any tier-1 test was measured to need (1).
MAX_ENHANCEMENT_DRAWS = 100


class Mat2:
    """2x2 matrix over exact scalars, Fractions or complex numbers."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse_sl2(self) -> "Mat2":
        """Inverse assuming det = 1."""
        return Mat2(self.d, -self.b, -self.c, self.a)

    def apply(self, p: "ProjPoint") -> "ProjPoint":
        return ProjPoint(self.a * p.num + self.b * p.den,
                         self.c * p.num + self.d * p.den)

    def is_plus_minus_identity(self, tol: float = 0.0) -> bool:
        one = scalars.one_like(self.a)
        return any(all(scalars.is_zero(v, max(tol, 1e-9))
                       for v in (self.b, self.c, self.a - sign * one, self.d - sign * one))
                   for sign in (1, -1))

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}; {self.c}, {self.d})"


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective line in homogeneous coordinates (num : den)."""

    num: object
    den: object

    def __post_init__(self):
        if scalars.is_zero(self.num, 1e-9) and scalars.is_zero(self.den, 1e-9):
            raise ValueError("(0 : 0) is not a projective point")

    @staticmethod
    def affine(z) -> "ProjPoint":
        return ProjPoint(z, scalars.one_like(z))

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(Fraction(1), Fraction(0))

    def same_as(self, other: "ProjPoint") -> bool:
        return scalars.is_zero(cross_det(self, other), 1e-9)


def cross_det(p: ProjPoint, q: ProjPoint):
    """Homogeneous replacement for the affine difference p - q."""
    return p.num * q.den - q.num * p.den


class DevelopedTriangulation:
    """Per-face corner points of a trivial-holonomy development."""

    def __init__(self, T: Triangulation, points):
        self.T = T
        self.points = points          # points[f][c] = ProjPoint at corner (f, c)

    @staticmethod
    def from_vertex_points(T: Triangulation, vertex_points) -> "DevelopedTriangulation":
        """Trivial-transition development: one point per vertex."""
        points = []
        for f in range(T.num_faces):
            row = []
            for c in range(3):
                v = T._vertex_of_slot[3 * f + (c + 1) % 3]
                row.append(vertex_points[v])
            points.append(row)
        return DevelopedTriangulation(T, points)

    def corner_point(self, f: int, c: int) -> ProjPoint:
        return self.points[f][c]

    def edge_points(self, e: int):
        """(head, tail, left-third, right-third) for the edge's primary slot;
        the partner face lies on the left of the oriented edge."""
        s1, s2 = self.T.edge_slots[e]
        f, sf = divmod(s1, 3)
        g, sg = divmod(s2, 3)
        head = self.corner_point(f, sf)
        tail = self.corner_point(f, (sf - 1) % 3)
        right = self.corner_point(f, (sf + 1) % 3)
        left = self.corner_point(g, (sg + 1) % 3)
        return head, tail, left, right


def crossratio_weight(D: DevelopedTriangulation, e: int):
    """Minus the crossratio of the four developed points around an edge."""
    vp, vm, left, right = D.edge_points(e)
    if scalars.is_zero(cross_det(vp, vm), 1e-9):
        raise DegenerateConfiguration(f"edge {e} has coincident developed endpoints")
    den1 = cross_det(left, vm)
    den2 = cross_det(right, vp)
    if scalars.is_zero(den1, 1e-9) or scalars.is_zero(den2, 1e-9):
        raise DegenerateConfiguration(f"crossratio undefined at edge {e}")
    num = cross_det(left, vp) * cross_det(right, vm)
    if scalars.is_zero(num, 1e-9):
        raise DegenerateConfiguration(f"crossratio vanishes at edge {e}")
    return -(num / (den1 * den2))


def random_enhancement(T: Triangulation, seed: int) -> DevelopedTriangulation:
    """Random trivial-transition development of a combinatorial triangulation.

    Vertex points are sampled until every edge sees four usable points, so
    the derived crossratio weights exist and are vertex-valid; after
    MAX_ENHANCEMENT_DRAWS unusable draws SamplerExhausted is raised.
    """
    if not T.is_combinatorial():
        raise ValueError("random enhancement needs a combinatorial triangulation")
    rng = random.Random(seed)
    for _ in range(MAX_ENHANCEMENT_DRAWS):
        pts = [ProjPoint.affine(Fraction(rng.randint(-50, 50), rng.randint(1, 7)))
               for _ in range(T.num_vertices)]
        if any(pts[i].same_as(pts[j]) for i in range(len(pts))
               for j in range(i + 1, len(pts))):
            continue
        D = DevelopedTriangulation.from_vertex_points(T, pts)
        try:
            for e in range(T.num_edges):
                crossratio_weight(D, e)
        except DegenerateConfiguration:
            continue
        return D
    raise SamplerExhausted(f"no usable development in {MAX_ENHANCEMENT_DRAWS} draws")


def weights_from_development(D: DevelopedTriangulation, N: int) -> WeightSystem:
    """Float weight system with u_i a 2N-th root of the crossratio weight."""
    u = []
    for e in range(D.T.num_edges):
        x = crossratio_weight(D, e)
        xc = complex(x)
        if xc == 0:
            raise ZeroWeight(f"edge {e}")
        u.append(cmath.exp(cmath.log(xc) / (2 * N)))
    return WeightSystem(D.T, N, u=u)


def vertex_holonomy(W: WeightSystem, v: int, sqrt_choices=None) -> Mat2:
    """Holonomy of a small loop around a vertex from square roots of the
    edge weights: the fan product of (1 1; 0 1) (z 0; 0 1/z)."""
    T = W.T
    fan = T.fans[v].edges
    if W.u is not None:
        z = [ui ** W.N for ui in W.u]   # (u^N)^2 = x
    else:
        z = [cmath.sqrt(complex(xi)) for xi in W.x]
    if sqrt_choices is not None:
        z = [(-zi if s < 0 else zi) for zi, s in zip(z, sqrt_choices)]
    one = scalars.one_like(z[0])
    zero = one - one
    M = Mat2(one, zero, zero, one)
    for e in fan:
        zi = z[e]
        M = M * Mat2(one, one, zero, one)
        M = M * Mat2(zi, zero, zero, one / zi)
    return M


def trace_word(gens: list[Mat2], word):
    """Trace of a word in the generators; entry +-(i+1) means gens[i]^(+-1)."""
    if not gens:
        raise ValueError("need at least one generator")
    one = scalars.one_like(gens[0].a)
    zero = one - one
    M = Mat2(one, zero, zero, one)
    for w in word:
        i = abs(w) - 1
        M = M * (gens[i] if w > 0 else gens[i].inverse_sl2())
    return M.trace()
