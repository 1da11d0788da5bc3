"""Combinatorial triangulations of closed oriented surfaces.

A triangulation is encoded by F triangular faces, each with three side slots
0, 1, 2 listed compatibly with the surface orientation, and a fixed-point-free
involution on the 3F slots pairing the two occurrences of every edge.  Glued
slots traverse their common edge in opposite directions, so every well-formed
table describes a closed oriented surface.  Loop edges and multiple edges are
allowed; the three sides of a single face must be three distinct edges.

Corner c of a face lies between sides c and c+1 (mod 3).  Walking around a
vertex in the direction of the orientation steps from a slot to
``shift(glue(slot))``, which yields the vertex fans and the skew form sigma.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .errors import NonInvolution, ParseError, RepeatedFaceEdge, UnknownName, require_fields


@dataclass(frozen=True)
class VertexFan:
    """Edge-ends around a vertex, in cyclic orientation order.

    entries[j] = (edge, end) and slots[j] is the side slot realizing that
    end.  The corner between entries j and j+1 lies in the face of
    glue(slots[j]); its third side is star_boundary[j].
    """

    vertex: int
    entries: tuple[tuple[int, int], ...]
    slots: tuple[int, ...]
    star_boundary: tuple[int, ...]

    def __len__(self):
        return len(self.entries)

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.entries)


class Triangulation:
    """Immutable triangulation with derived edges, vertices and sigma."""

    def __init__(self, num_faces: int, glue, name: str | None = None,
                 designated_edge: int | None = None):
        if isinstance(num_faces, bool) or not isinstance(num_faces, int) or num_faces < 1:
            raise ValueError(f"the face count must be a positive integer, got {num_faces!r}")
        n_slots = 3 * num_faces
        if any(isinstance(v, bool) for entry in glue for v in entry):
            raise TypeError("glue entries must be integers, not booleans")
        glue = tuple((operator.index(f), operator.index(s)) for f, s in glue)
        if len(glue) != n_slots:
            raise NonInvolution(f"expected {n_slots} glue entries, got {len(glue)}")
        self.num_faces = num_faces
        self.glue = glue
        self.name = name
        self.designated_edge = designated_edge

        flat = []
        for f, s in glue:
            if not (0 <= f < num_faces and 0 <= s < 3):
                raise NonInvolution(f"glue target ({f},{s}) out of range")
            flat.append(3 * f + s)
        for i, j in enumerate(flat):
            if j == i:
                raise NonInvolution(f"slot {divmod(i, 3)} glued to itself")
            if flat[j] != i:
                raise NonInvolution("gluing is not an involution")
        self._partner = tuple(flat)

        # edges = slot pairs, numbered by first appearance
        edge_of_slot = [-1] * n_slots
        edge_slots: list[tuple[int, int]] = []
        for i in range(n_slots):
            if edge_of_slot[i] < 0:
                e = len(edge_slots)
                edge_of_slot[i] = e
                edge_of_slot[flat[i]] = e
                edge_slots.append((i, flat[i]))
        self.edge_of_slot = tuple(edge_of_slot)
        self.edge_slots = tuple(edge_slots)
        self.num_edges = len(edge_slots)

        for f in range(num_faces):
            sides = {edge_of_slot[3 * f + s] for s in range(3)}
            if len(sides) != 3:
                raise RepeatedFaceEdge(f"face {f} has sides on {len(sides)} distinct edges")

        self._build_vertices()
        chi = self.num_vertices - self.num_edges + self.num_faces
        if chi % 2 != 0 or chi > 2:
            raise NonInvolution(f"impossible Euler characteristic {chi}")
        self.genus = (2 - chi) // 2
        self._sigma = None

    # ---- derived structure ----

    def _succ(self, slot: int) -> int:
        """Next slot in the vertex walk."""
        g = self._partner[slot]
        return 3 * (g // 3) + (g + 1) % 3

    def _build_vertices(self):
        n_slots = 3 * self.num_faces
        vert_of_slot = [-1] * n_slots
        fans: list[VertexFan] = []
        for start in range(n_slots):
            if vert_of_slot[start] >= 0:
                continue
            v = len(fans)
            slots = []
            cur = start
            while vert_of_slot[cur] < 0:
                vert_of_slot[cur] = v
                slots.append(cur)
                cur = self._succ(cur)
            if cur != start:
                raise NonInvolution("vertex walk did not close up")
            entries = []
            boundary = []
            for sl in slots:
                e = self.edge_of_slot[sl]
                end = 0 if self.edge_slots[e][0] == sl else 1
                entries.append((e, end))
                g = self._partner[sl]
                boundary.append(self.edge_of_slot[3 * (g // 3) + (g + 2) % 3])
            fans.append(VertexFan(v, tuple(entries), tuple(slots), tuple(boundary)))
        self.fans = tuple(fans)
        self.num_vertices = len(fans)
        self._vertex_of_slot = tuple(vert_of_slot)

    # ---- queries ----

    def face_edges(self, f: int) -> tuple[int, int, int]:
        return tuple(self.edge_of_slot[3 * f + s] for s in range(3))

    def endpoints(self, e: int) -> tuple[int, int]:
        """Vertices at end 0 and end 1 of edge e."""
        a, b = self.edge_slots[e]
        return self._vertex_of_slot[a], self._vertex_of_slot[b]

    def end_counts(self, v: int):
        """Vector over edges: number of ends of each edge at vertex v."""
        h = [0] * self.num_edges
        for e, _ in self.fans[v].entries:
            h[e] += 1
        return h

    def sigma_matrix(self):
        """Antisymmetric matrix sigma_ij = a_ij - a_ji with a_ij the number of
        corners at which an end of e_j immediately succeeds an end of e_i."""
        if self._sigma is None:
            n = self.num_edges
            a = [[0] * n for _ in range(n)]
            for f in range(self.num_faces):
                for c in range(3):
                    i = self.edge_of_slot[3 * f + c]
                    j = self.edge_of_slot[3 * f + (c + 1) % 3]
                    a[i][j] += 1
            self._sigma = tuple(
                tuple(a[i][j] - a[j][i] for j in range(n)) for i in range(n)
            )
        return self._sigma

    def sigma_from_fans(self):
        """sigma recomputed from fan successions; must agree with sigma_matrix."""
        n = self.num_edges
        a = [[0] * n for _ in range(n)]
        for fan in self.fans:
            edges = fan.edges
            u = len(edges)
            for k in range(u):
                a[edges[k]][edges[(k + 1) % u]] += 1
        return tuple(tuple(a[i][j] - a[j][i] for j in range(n)) for i in range(n))

    def is_combinatorial(self) -> bool:
        """Every edge has distinct endpoints and endpoint pairs are distinct."""
        seen = set()
        for e in range(self.num_edges):
            v, w = self.endpoints(e)
            if v == w:
                return False
            key = (min(v, w), max(v, w))
            if key in seen:
                return False
            seen.add(key)
        return True

    def dual_components(self, removed_edge: int | None = None) -> list[set[int]]:
        """Connected components of the dual graph, optionally with one edge cut."""
        adj = {f: set() for f in range(self.num_faces)}
        for e, (i, j) in enumerate(self.edge_slots):
            if e == removed_edge:
                continue
            adj[i // 3].add(j // 3)
            adj[j // 3].add(i // 3)
        comps = []
        todo = set(range(self.num_faces))
        while todo:
            stack = [todo.pop()]
            comp = set(stack)
            while stack:
                f = stack.pop()
                for g in adj[f]:
                    if g not in comp:
                        comp.add(g)
                        stack.append(g)
            todo -= comp
            comps.append(comp)
        return comps

    def is_separating(self, e: int) -> bool:
        return len(self.dual_components(removed_edge=e)) > 1

    # ---- serialization ----

    def to_json(self) -> str:
        return json.dumps({"faces": self.num_faces,
                           "glue": [[f, s] for f, s in self.glue]})

    @staticmethod
    def from_json(text: str) -> "Triangulation":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: line {exc.lineno}: {exc.msg}") from exc
        require_fields(data, "triangulation file", "faces", "glue")
        try:
            return build(data["faces"], data["glue"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad triangulation file: {exc}") from exc

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"Triangulation({tag} F={self.num_faces} E={self.num_edges} "
                f"p={self.num_vertices} g={self.genus})")


def build(num_faces: int, glue, name: str | None = None,
          designated_edge: int | None = None) -> Triangulation:
    """Validate a gluing table and derive edges, vertices and genus."""
    return Triangulation(num_faces, glue, name=name, designated_edge=designated_edge)


def _pairs_to_glue(num_faces: int, pairs) -> list[tuple[int, int]]:
    glue = [None] * (3 * num_faces)
    for (f1, s1), (f2, s2) in pairs:
        glue[3 * f1 + s1] = (f2, s2)
        glue[3 * f2 + s2] = (f1, s1)
    return glue


def from_vertex_faces(faces, name: str | None = None) -> Triangulation:
    """Build from faces given as consistently oriented vertex triples.

    Works for simplicial-style data where each ordered edge (a, b) occurs in
    exactly one face (so no loop edges); the gluing pairs (a, b) with (b, a).
    """
    directed = {}
    for f, tri_verts in enumerate(faces):
        for s in range(3):
            key = (tri_verts[s], tri_verts[(s + 1) % 3])
            if key in directed:
                raise NonInvolution(f"directed edge {key} occurs twice")
            directed[key] = (f, s)
    pairs = []
    for (a, b), slot in directed.items():
        if a < b:
            other = directed.get((b, a))
            if other is None:
                raise NonInvolution(f"edge {{{a},{b}}} is unmatched")
            pairs.append((slot, other))
    return build(len(faces), _pairs_to_glue(len(faces), pairs), name=name)


def octahedron() -> Triangulation:
    """Genus-0 combinatorial triangulation with six vertices of degree four."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
             (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
    return from_vertex_faces(faces, name="octahedron")


def standard_library(name: str) -> Triangulation:
    """Named test triangulations: sphere2, torus1, genus2_sep."""
    if name == "sphere2":
        pairs = [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))]
        return build(2, _pairs_to_glue(2, pairs), name=name)
    if name == "torus1":
        pairs = [((0, s), (1, s)) for s in range(3)]
        return build(2, _pairs_to_glue(2, pairs), name=name)
    if name == "genus2_sep":
        # Octagon with boundary word a b a' b' c d c' d', coned from vertex 0
        # by five diagonals; the middle diagonal (edge 4) separates.
        pairs = [
            ((0, 0), (1, 1)),   # a
            ((0, 1), (2, 1)),   # b
            ((1, 0), (0, 2)),   # first diagonal
            ((2, 0), (1, 2)),   # second diagonal
            ((3, 0), (2, 2)),   # separating diagonal
            ((3, 1), (5, 1)),   # c
            ((4, 0), (3, 2)),   # fourth diagonal
            ((4, 1), (5, 2)),   # d
            ((5, 0), (4, 2)),   # fifth diagonal
        ]
        return build(6, _pairs_to_glue(6, pairs), name=name, designated_edge=4)
    raise UnknownName(f"unknown triangulation {name!r}")
