"""Face subdivision and diagonal exchange, with their algebra maps.

Subdividing a face adds a trivalent vertex and three edges; the induced map
Phi sends Weyl monomials to Weyl monomials by completing the exponent vector
on the new edges.  A diagonal exchange replaces the diagonal of a square
whose four sides are distinct edges; the induced map Theta lands in the
algebra localized at the central element c = 1 + Z_d^(2N) of the flipped
edge d, the product of the N factors (1 + omega^(4j) Z_d^2) that its
formulas divide by.

Edge indices are re-derived after every move; a MoveRecord carries the
old-to-new edge map, the square or face labels, and enough data to transport
weights and to map the algebra along the move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfalgebra import CFAlgebra, QTElement
from .errors import (BadSquare, DegenerateCrossratio, DegenerateParam,
                     MixedAlgebra, NotBalanced, UndecomposableMonomial)
from .representation import WeightSystem
from .triangulation import Triangulation, build


@dataclass
class MoveRecord:
    kind: str                      # "subdivide" | "flip"
    before: Triangulation
    after: Triangulation
    edge_map: dict                 # old edge id -> new edge id
    vertex_map: dict               # old vertex id -> new vertex id
    face: int = -1                 # subdivided face
    side_edges: tuple = ()         # subdivide: (E1, E2, E3) old ids
    new_edges: tuple = ()          # subdivide: (m1, m2, m3) new ids, m_j opposite E_j
    new_vertex: int = -1           # subdivide: the added vertex
    edge: int = -1                 # flip: flipped edge (old id)
    square: dict = field(default_factory=dict)  # flip: paper-role -> old edge id


def _relocate_build(T: Triangulation, relocation, extra_faces: int,
                    extra_glue_pairs) -> Triangulation:
    """Build a new triangulation from T by moving slots and adding faces."""
    new_faces = T.num_faces + extra_faces
    glue = [None] * (3 * new_faces)

    def reloc(slot):
        return relocation.get(slot, slot)

    for idx in range(3 * T.num_faces):
        f, s = divmod(idx, 3)
        nf, ns = reloc((f, s))
        gf, gs = T.glue[idx]
        glue[3 * nf + ns] = reloc((gf, gs))
    for (s1, s2) in extra_glue_pairs:
        glue[3 * s1[0] + s1[1]] = s2
        glue[3 * s2[0] + s2[1]] = s1
    return build(new_faces, glue)


def _vertex_map(T: Triangulation, T2: Triangulation, corner_map) -> dict:
    """Map vertices through a move given how the affected corners relocate.

    corner_map sends corner (f, c) [between sides c and c+1] of T to the
    corner of T2 at the same surface point; unlisted corners are unmoved.
    The tail of slot (f, s) sits at corner (f, s-1).
    """
    vmap = {}
    for v in range(T.num_vertices):
        f, s = divmod(T.fans[v].slots[0], 3)
        corner = (f, (s - 1) % 3)
        nf, nc = corner_map.get(corner, corner)
        vmap[v] = T2._vertex_of_slot[3 * nf + (nc + 1) % 3]
    return vmap


def _edge_map(T: Triangulation, T2: Triangulation, relocation) -> dict:
    emap = {}
    for e in range(T.num_edges):
        f, s = divmod(T.edge_slots[e][0], 3)
        nf, ns = relocation.get((f, s), (f, s))
        emap[e] = T2.edge_of_slot[3 * nf + ns]
    return emap


# ---- face subdivision ----

def subdivide(T: Triangulation, face: int) -> tuple[Triangulation, MoveRecord]:
    """Subdivide a face into three triangles around a new trivalent vertex.

    The face's slots keep their gluing partners; slot j of the face moves to
    slot 0 of the replacement triangle T_(j+1), and the new edge m_j is
    opposite the old side E_j (they share no face).
    """
    if not 0 <= face < T.num_faces:
        raise ValueError(f"no face {face}")
    F = T.num_faces
    t1, t2, t3 = face, F, F + 1
    relocation = {(face, 1): (t2, 0), (face, 2): (t3, 0)}
    extra = [
        ((t1, 1), (t2, 2)),   # m3, opposite E3
        ((t2, 1), (t3, 2)),   # m1, opposite E1
        ((t3, 1), (t1, 2)),   # m2, opposite E2
    ]
    T2 = _relocate_build(T, relocation, 2, extra)
    emap = _edge_map(T, T2, relocation)
    # the face's corners survive at the outer corners of the three triangles
    vmap = _vertex_map(T, T2, {(face, 1): (t2, 0), (face, 2): (t3, 0)})
    new_vertex = T2._vertex_of_slot[3 * t1 + 2]
    # label sides and their opposite new edges so that the fan at the new
    # vertex runs (m1, m2, m3) in cyclic order
    sides = T.face_edges(face)
    side_edges = (sides[0], sides[2], sides[1])
    new_edges = (T2.edge_of_slot[3 * t2 + 1], T2.edge_of_slot[3 * t1 + 1],
                 T2.edge_of_slot[3 * t3 + 1])
    rec = MoveRecord(kind="subdivide", before=T, after=T2, edge_map=emap,
                     vertex_map=vmap, face=face,
                     side_edges=side_edges, new_edges=new_edges,
                     new_vertex=new_vertex)
    return T2, rec


def phi(record: MoveRecord, a: QTElement, target: CFAlgebra) -> QTElement:
    """Subdivision homomorphism on the balanced algebra.

    On Weyl monomials: [Z^k] maps to [Z^k'] where k' agrees with k on old
    edges and carries ((k_E2 + k_E3 - k_E1)/2, ...) on the new edges m_j.
    """
    if record.kind != "subdivide":
        raise ValueError("record is not a subdivision")
    src = a.algebra
    if src.T is not record.before or target.T is not record.after:
        raise MixedAlgebra("algebras do not match the move record")
    src.require_balanced(a)
    E1, E2, E3 = record.side_edges
    m1, m2, m3 = record.new_edges
    out = target.zero()
    for k, c in a.terms.items():
        kp = [0] * target.n
        for e, val in enumerate(k):
            kp[record.edge_map[e]] = val
        half = [(k[E2] + k[E3] - k[E1]), (k[E1] + k[E3] - k[E2]),
                (k[E1] + k[E2] - k[E3])]
        if any(h % 2 for h in half):
            raise NotBalanced("exponents fail the face parity on the subdivided face")
        kp[m1], kp[m2], kp[m3] = half[0] // 2, half[1] // 2, half[2] // 2
        coeff = c * src.omega(src.weyl_weight(k)) * target.omega(-target.weyl_weight(kp))
        out = out + target.monomial(kp, coeff)
    return out


def subdivision_weights(record: MoveRecord, W: WeightSystem, t_param
                        ) -> WeightSystem:
    """Transport x-weights through a subdivision.

    The new vertex relations force x'_(m2) = -(1+t)/t and x'_(m3) = -1/(1+t)
    from the free value x'_(m1) = t; old face sides pick up
    x'_(E_j) = -x_(E_j) x'_(m_j) and other edges are unchanged.
    """
    if record.kind != "subdivide":
        raise ValueError("record is not a subdivision")
    ctx = W.ctx
    one = ctx.one()
    if ctx.is_zero(t_param, 1e-12) or ctx.is_zero(t_param + one, 1e-12):
        raise DegenerateParam("parameter must avoid 0 and -1")
    T2 = record.after
    x_new = [None] * T2.num_edges
    for e_old, e_new in record.edge_map.items():
        x_new[e_new] = W.x[e_old]
    m1, m2, m3 = record.new_edges
    x_new[m1] = t_param
    x_new[m2] = -(one + t_param) * ctx.inv(t_param)
    x_new[m3] = -ctx.inv(one + t_param)
    for E_j, m_j in zip(record.side_edges, record.new_edges):
        x_new[record.edge_map[E_j]] = -W.x[E_j] * x_new[m_j]
    return WeightSystem(T2, W.N, x=x_new)


# ---- diagonal exchange ----

def flip(T: Triangulation, edge: int) -> tuple[Triangulation, MoveRecord]:
    """Replace the diagonal of the square spanned by the two faces at `edge`.

    Requires the two faces to be distinct and the four sides of the square
    to be four distinct edges.  Square roles follow the figure convention:
    the first face carries (diagonal, N, W), the second (diagonal, S, E);
    after the flip the faces are (diagonal', E, N) and (diagonal', W, S).
    """
    s1, s2 = T.edge_slots[edge]
    f, sf = divmod(s1, 3)
    g, sg = divmod(s2, 3)
    if f == g:
        raise BadSquare("the two sides of the edge lie in one face")
    n_e = T.edge_of_slot[3 * f + (sf + 1) % 3]
    w_e = T.edge_of_slot[3 * f + (sf + 2) % 3]
    s_e = T.edge_of_slot[3 * g + (sg + 1) % 3]
    e_e = T.edge_of_slot[3 * g + (sg + 2) % 3]
    if len({edge, n_e, w_e, s_e, e_e}) != 5:
        raise BadSquare("square sides are not four distinct edges")
    relocation = {
        (f, sf): (f, 0), (f, (sf + 1) % 3): (f, 2), (f, (sf + 2) % 3): (g, 1),
        (g, sg): (g, 0), (g, (sg + 1) % 3): (g, 2), (g, (sg + 2) % 3): (f, 1),
    }
    T2 = _relocate_build(T, relocation, 0, [])
    emap = _edge_map(T, T2, relocation)
    # square corners: diag/N end (f,sf) and (g,sg+2); N/W corner (f,sf+1);
    # W/diag end (f,sf+2) and (g,sg); S/E corner (g,sg+1)
    corner_map = {
        (f, sf): (f, 1), (f, (sf + 1) % 3): (f, 2), (f, (sf + 2) % 3): (g, 1),
        (g, sg): (g, 1), (g, (sg + 1) % 3): (f, 0), (g, (sg + 2) % 3): (f, 1),
    }
    vmap = _vertex_map(T, T2, corner_map)
    rec = MoveRecord(kind="flip", before=T, after=T2, edge_map=emap,
                     vertex_map=vmap, edge=edge,
                     square={1: edge, 2: w_e, 3: s_e, 4: e_e, 5: n_e})
    return T2, rec


class LocalizedElement:
    """c^-power . num, localized at the central c = 1 + Z_d^(2N).

    At odd N, omega^4 is a primitive N-th root of unity, so the factors
    (1 + omega^(4j) Z_d^2), j < N, multiply to c; c commutes with every
    generator and acts as the scalar 1 + x_d in a representation.  Sums
    bring both sides to the larger power; equality cross-multiplies by c
    powers, which is exact across localizations because each c is central.
    """

    def __init__(self, algebra: CFAlgebra, d_edge: int, num: QTElement,
                 power: int = 0):
        self.algebra = algebra
        self.d_edge = d_edge
        self.num = num
        self.power = power

    def _c(self, power: int) -> QTElement:
        alg = self.algebra
        return (alg.one() + alg.gen(self.d_edge, 2 * alg.N)) ** power

    def __add__(self, other: "LocalizedElement") -> "LocalizedElement":
        self._check(other)
        p = max(self.power, other.power)
        num = self._c(p - self.power) * self.num + self._c(p - other.power) * other.num
        return LocalizedElement(self.algebra, self.d_edge, num, p)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "LocalizedElement":
        return LocalizedElement(self.algebra, self.d_edge, self.num.scale(c),
                                self.power)

    def __mul__(self, other: "LocalizedElement") -> "LocalizedElement":
        self._check(other)
        return LocalizedElement(self.algebra, self.d_edge, self.num * other.num,
                                self.power + other.power)

    def _check(self, other):
        if self.algebra is not other.algebra or self.d_edge != other.d_edge:
            raise MixedAlgebra("localized elements over different localizations")

    def __eq__(self, other):
        if isinstance(other, QTElement):
            other = LocalizedElement(self.algebra, self.d_edge, other)
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return other._c(other.power) * self.num == self._c(self.power) * other.num

    def __repr__(self):
        return f"Localized(power={self.power}, num={self.num!r})"


def _factor(algebra: CFAlgebra, d_edge: int, j: int) -> QTElement:
    """1 + omega^(4j) Z_d^2."""
    return algebra.one() + algebra.gen(d_edge, 2).scale(algebra.omega(4 * j))


def _structured_power(algebra: CFAlgebra, d_edge: int, n_factors: int,
                      mono: QTElement, k: int) -> LocalizedElement:
    """((1 + w^4 Z_d^2)^a m)^k as a localized element, a in {0, 1}."""
    if n_factors == 0:
        return LocalizedElement(algebra, d_edge, mono ** k)
    if k >= 0:
        return LocalizedElement(algebra, d_edge,
                                (_factor(algebra, d_edge, 1) * mono) ** k)
    # ((1 + w^4 Z_d^2) m)^-1 = c^-1 m^-1 prod_{j != 1} (1 + w^4j Z_d^2)
    inv = mono ** -1
    for j in range(algebra.N):
        if j != 1:
            inv = inv * _factor(algebra, d_edge, j)
    return LocalizedElement(algebra, d_edge, inv ** -k, -k)


def theta(record: MoveRecord, a, target: CFAlgebra) -> LocalizedElement:
    """Flip coordinate-change homomorphism into the localized algebra.

    Every balanced monomial on the flipped triangulation decomposes in the
    block basis (Z'_1 Z'_2 Z'_4), (Z'_2 Z'_3), (Z'_4 Z'_5), Z'_2^2, Z'_4^2
    and a remainder away from the square (1 = diagonal, 2/4 = N/S sides,
    3/5 = E/W sides); the blocks map to

        omega^4 Z_1 Z_2 Z_4 + Z_1^-1 Z_2 Z_4,   omega Z_1 Z_2 Z_3,
        omega Z_1 Z_4 Z_5,   (1 + omega^4 Z_1^2) Z_2^2,  (1 + omega^4 Z_1^2) Z_4^2.
    """
    if record.kind != "flip":
        raise ValueError("record is not a flip")
    if target.T is not record.before:
        raise MixedAlgebra("target algebra must live on the pre-flip triangulation")
    d_old = record.square[1]
    if isinstance(a, LocalizedElement):
        if a.algebra.T is not record.after or a.d_edge != record.edge_map[d_old]:
            raise MixedAlgebra("element must be localized at the flipped diagonal")
        # Theta(1 + Z'_d^(2N)) = 1 + Z_d^(-2N) = Z_d^(-2N) c
        out = theta(record, a.num, target)
        return LocalizedElement(target, d_old,
                                target.gen(d_old, 2 * target.N * a.power) * out.num,
                                out.power + a.power)
    src = a.algebra
    if src.T is not record.after:
        raise MixedAlgebra("element must live on the flipped triangulation")
    emap = record.edge_map
    d_new = emap[record.square[1]]
    n_new, e_new = emap[record.square[2]], emap[record.square[3]]
    s_new, w_new = emap[record.square[4]], emap[record.square[5]]
    n_old, e_old = record.square[2], record.square[3]
    s_old, w_old = record.square[4], record.square[5]
    inv_emap = {v: k for k, v in emap.items()}

    blocks_src = [
        src.gen(d_new) * src.gen(n_new) * src.gen(s_new),
        src.gen(n_new) * src.gen(e_new),
        src.gen(s_new) * src.gen(w_new),
        src.gen(n_new, 2),
        src.gen(s_new, 2),
    ]
    images = [
        (1, target.gen(d_old, -1) * target.gen(n_old) * target.gen(s_old)),
        (0, (target.gen(d_old) * target.gen(n_old) * target.gen(e_old))
            .scale(target.omega(1))),
        (0, (target.gen(d_old) * target.gen(s_old) * target.gen(w_old))
            .scale(target.omega(1))),
        (1, target.gen(n_old, 2)),
        (1, target.gen(s_old, 2)),
    ]
    result = None
    for k, c in a.terms.items():
        k1 = k[d_new]
        k2 = k[e_new]
        k3 = k[w_new]
        r4 = k[n_new] - k1 - k2
        r5 = k[s_new] - k1 - k3
        if r4 % 2 or r5 % 2:
            raise UndecomposableMonomial(f"{k} fails the square parity")
        k4, k5 = r4 // 2, r5 // 2
        exps = (k1, k2, k3, k4, k5)
        # remainder away from the square, and the normalization constant
        rest = [0] * src.n
        for i, v in enumerate(k):
            if i not in (d_new, n_new, e_new, s_new, w_new):
                rest[i] = v
        candidate = src.one()
        for b, p in zip(blocks_src, exps):
            candidate = candidate * b ** p
        candidate = candidate * src.monomial(rest)
        ck, cc = candidate.monomial_data()
        if ck != k:
            raise UndecomposableMonomial(f"{k} not reachable in the block basis")
        fix = c * cc.inv()
        rest_old = [0] * target.n
        for i, v in enumerate(rest):
            if v:
                rest_old[inv_emap[i]] = v
        img = LocalizedElement(target, d_old, target.one())
        for (nf, mono), p in zip(images, exps):
            img = img * _structured_power(target, d_old, nf, mono, p)
        img = img * LocalizedElement(target, d_old, target.monomial(rest_old))
        img = img.scale(fix)
        result = img if result is None else result + img
    if result is None:
        return LocalizedElement(target, d_old, target.zero())
    return result


def flip_weights(record: MoveRecord, W: WeightSystem) -> WeightSystem:
    """Shear coordinate change under a diagonal exchange."""
    if record.kind != "flip":
        raise ValueError("record is not a flip")
    ctx = W.ctx
    xd = W.x[record.square[1]]
    one = ctx.one()
    if ctx.is_zero(xd + one, 1e-12):
        raise DegenerateCrossratio("diagonal weight -1 makes the change singular")
    fac = one + xd
    inv_fac = ctx.inv(fac)
    x_new = [None] * record.after.num_edges
    for e_old, e_new in record.edge_map.items():
        x_new[e_new] = W.x[e_old]
    emap = record.edge_map
    x_new[emap[record.square[1]]] = ctx.inv(xd)
    x_new[emap[record.square[2]]] = fac * W.x[record.square[2]]
    x_new[emap[record.square[4]]] = fac * W.x[record.square[4]]
    x_new[emap[record.square[3]]] = xd * inv_fac * W.x[record.square[3]]
    x_new[emap[record.square[5]]] = xd * inv_fac * W.x[record.square[5]]
    return WeightSystem(record.after, W.N, x=x_new)


# ---- triangulation isomorphism (used by double-flip tests) ----

def are_isomorphic(T1: Triangulation, T2: Triangulation) -> bool:
    """Orientation-preserving combinatorial isomorphism search."""
    if (T1.num_faces, T1.num_edges, T1.num_vertices) != \
            (T2.num_faces, T2.num_edges, T2.num_vertices):
        return False
    F = T1.num_faces
    for f0 in range(F):
        for r0 in range(3):
            iso = _grow_iso(T1, T2, f0, r0)
            if iso is not None:
                return True
    return False


def _grow_iso(T1, T2, f0, r0):
    """Try to extend face 0 of T1 -> (f0, rotation r0) of T2."""
    face_map = {0: (f0, r0)}
    stack = [0]
    while stack:
        f = stack.pop()
        g, r = face_map[f]
        for s in range(3):
            pf, ps = T1.glue[3 * f + s]
            qg, qs = T2.glue[3 * g + (s + r) % 3]
            want = (qg, (qs - ps) % 3)
            if pf in face_map:
                if face_map[pf] != want:
                    return None
            else:
                face_map[pf] = want
                stack.append(pf)
    return face_map if len(face_map) == T1.num_faces else None
