import functools
import random
from fractions import Fraction

import pytest

from skeinrep.cfalgebra import CFAlgebra, commutator_is_zero
from skeinrep.errors import (BadSquare, DegenerateCrossratio, DegenerateParam,
                             MixedAlgebra, NotBalanced)
from skeinrep.moves import (LocalizedElement, are_isomorphic, flip,
                            flip_weights, phi, subdivide, subdivision_weights,
                            theta)
from skeinrep.representation import WeightSystem, build_rep
from skeinrep.triangulation import build, standard_library
from skeinrep.verify import exact_genus2_weights

from conftest import random_balanced_monomial


# the smallest triangulation carrying a flip square: the subdivided sphere
@functools.lru_cache(maxsize=None)
def flip_at(N):
    T0 = standard_library("sphere2")
    T1, rec_sub = subdivide(T0, 0)
    edge = rec_sub.edge_map[rec_sub.side_edges[0]]
    T2, rec = flip(T1, edge)
    alg1 = CFAlgebra(T1, N)
    alg2 = CFAlgebra(T2, N)
    return T1, T2, rec, alg1, alg2


@pytest.fixture(scope="module")
def flip_setup():
    return flip_at(3)


def factor(alg, d, j):
    """1 + omega^(4j) Z_d^2, one of the N factors of c = 1 + Z_d^(2N)."""
    return alg.one() + alg.gen(d, 2).scale(alg.omega(4 * j))


def factor_inverse(alg, d, j):
    """c^-1 times the other N - 1 factors."""
    num = alg.one()
    for i in range(alg.N):
        if i != j:
            num = num * factor(alg, d, i)
    return LocalizedElement(alg, d, num, 1)


def one_localized_at(alg, d):
    """(1 + Z_d^2)^-1 (1 + Z_d^2), localized at d."""
    return factor_inverse(alg, d, 0) * LocalizedElement(alg, d, factor(alg, d, 0))


# ---- subdivision combinatorics ----

def test_subdivide_counts():
    for name, expect in (("sphere2", (4, 6, 4)), ("torus1", (2, 6, 4)),
                         ("genus2_sep", (2, 12, 8))):
        T = standard_library(name)
        T2, rec = subdivide(T, 0)
        assert (T2.num_vertices, T2.num_edges, T2.num_faces) == expect
        assert T2.genus == T.genus
        # new vertex is trivalent with fan (m1, m2, m3)
        fan = T2.fans[rec.new_vertex].edges
        m1, m2, m3 = rec.new_edges
        i = fan.index(m1)
        assert tuple(fan[(i + j) % 3] for j in range(3)) == (m1, m2, m3)
        # each new edge is opposite its side: they never share a face
        for Ej, mj in zip(rec.side_edges, rec.new_edges):
            E2 = rec.edge_map[Ej]
            assert not any(E2 in T2.face_edges(f) and mj in T2.face_edges(f)
                           for f in range(T2.num_faces))


def test_double_subdivision_commutes():
    T = standard_library("sphere2")
    A1, _ = subdivide(T, 0)
    A2, _ = subdivide(A1, 1)
    B1, _ = subdivide(T, 1)
    B2, _ = subdivide(B1, 0)
    assert are_isomorphic(A2, B2)


# ---- Phi ----

def test_phi_identity_and_pattern():
    T = standard_library("torus1")
    T2, rec = subdivide(T, 0)
    alg = CFAlgebra(T, 3)
    alg2 = CFAlgebra(T2, 3)
    assert phi(rec, alg.one(), alg2) == alg2.one()
    E1, E2, E3 = rec.side_edges
    m1, m2, m3 = rec.new_edges
    for i, j, mk in ((E1, E2, m3), (E2, E3, m1), (E3, E1, m2)):
        img = phi(rec, alg.gen(i) * alg.gen(j), alg2)
        want = (alg2.gen(rec.edge_map[i]) * alg2.gen(rec.edge_map[j])
                * alg2.gen(mk)).scale(alg2.omega(-1))
        assert img == want


def test_phi_homomorphism_random():
    T = standard_library("torus1")
    T2, rec = subdivide(T, 0)
    alg = CFAlgebra(T, 3)
    alg2 = CFAlgebra(T2, 3)
    rng = random.Random(5)
    for _ in range(100):
        a = random_balanced_monomial(alg, rng) + random_balanced_monomial(alg, rng)
        b = random_balanced_monomial(alg, rng)
        assert phi(rec, a * b, alg2) == phi(rec, a, alg2) * phi(rec, b, alg2)
    # H_v of both old vertices maps to H of the image vertex
    for v in range(T.num_vertices):
        assert phi(rec, alg.central_H(v), alg2) == alg2.central_H(rec.vertex_map[v])
    # Weyl monomials map to Weyl monomials
    for _ in range(20):
        k, c = random_balanced_monomial(alg, rng).monomial_data()
        img = phi(rec, alg.weyl(k), alg2)
        kp, cp = img.monomial_data()
        assert img == alg2.weyl(kp).scale(cp * alg2.weyl(kp).monomial_data()[1].inv())
        assert cp == alg2.weyl(kp).monomial_data()[1]


def test_phi_preserves_pairing():
    for name in ("torus1", "genus2_sep"):
        T = standard_library(name)
        T2, rec = subdivide(T, 0)
        alg = CFAlgebra(T, 3)
        alg2 = CFAlgebra(T2, 3)
        lat = alg.lattice
        images = {}
        for k in lat.basis:
            images[tuple(k)] = phi(rec, alg.weyl(k), alg2).monomial_data()[0]
        for k in lat.basis:
            for l in lat.basis:
                assert alg.pairing(k, l) == alg2.pairing(images[tuple(k)],
                                                         images[tuple(l)])


def test_phi_rejects_unbalanced():
    T = standard_library("torus1")
    T2, rec = subdivide(T, 0)
    alg = CFAlgebra(T, 3)
    alg2 = CFAlgebra(T2, 3)
    with pytest.raises(NotBalanced):
        phi(rec, alg.gen(0), alg2)


# ---- subdivision weights ----

def test_subdivision_weights_torus():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    W = WeightSystem(T, 3, x=[one, one, -one])
    T2, rec = subdivide(T, 0)
    W2 = subdivision_weights(rec, W, alg.scalars.from_rational(Fraction(-2)))
    assert W2.validate()["valid"]
    m1, m2, m3 = rec.new_edges
    t = W2.x[m1]
    # new vertex relations
    assert (alg.scalars.one() + t + t * W2.x[m2]).is_zero()
    assert (t * W2.x[m2] * W2.x[m3] - alg.scalars.one()).is_zero()
    with pytest.raises(DegenerateParam):
        subdivision_weights(rec, W, alg.scalars.from_rational(-1))


def test_subdivision_weights_untouched_edges():
    T = standard_library("genus2_sep")
    import cmath
    x = [cmath.exp(2j * cmath.pi * k / 11) for k in range(9)]
    W = WeightSystem(T, 3, x=x)
    T2, rec = subdivide(T, 3)
    W2 = subdivision_weights(rec, W, 0.3 + 0.4j)
    for e in range(9):
        if e not in rec.side_edges:
            assert abs(W2.x[rec.edge_map[e]] - x[e]) < 1e-14


# ---- flip combinatorics ----

def test_flip_preconditions():
    T = standard_library("torus1")
    for e in range(3):
        with pytest.raises(BadSquare):
            flip(T, e)
    T1, rec_sub = subdivide(T, 0)
    # the original edges of the subdivided face are flippable
    e = rec_sub.edge_map[rec_sub.side_edges[0]]
    T2, rec = flip(T1, e)
    assert (T2.num_vertices, T2.num_edges, T2.num_faces) == \
        (T1.num_vertices, T1.num_edges, T1.num_faces)


def test_double_flip_isomorphic(flip_setup):
    T1, T2, rec, _, _ = flip_setup
    T3, rec2 = flip(T2, rec.edge_map[rec.edge])
    assert are_isomorphic(T1, T3)
    assert not are_isomorphic(T1, T2)


# ---- Theta ----

def test_theta_coordinate_change_formulas(flip_setup):
    T1, T2, rec, alg1, alg2 = flip_setup
    emap, sq = rec.edge_map, rec.square
    d_old = sq[1]
    w4 = alg1.omega(4)

    def TH(el):
        return theta(rec, el, alg1)

    assert TH(alg2.gen(emap[sq[1]], 2)) == \
        LocalizedElement(alg1, d_old, alg1.gen(d_old, -2))
    for role in (2, 4):  # N and S sides: (1 + w^4 Zd^2) Z^2
        assert TH(alg2.gen(emap[sq[role]], 2)) == LocalizedElement(
            alg1, d_old,
            (alg1.one() + alg1.gen(d_old, 2).scale(w4)) * alg1.gen(sq[role], 2))
    for role in (3, 5):  # E and W: (1 + w^4 Zd^-2)^-1 Z^2, cross-multiplied
        lhs = LocalizedElement(alg1, d_old,
                               alg1.one() + alg1.gen(d_old, -2).scale(w4))
        assert lhs * TH(alg2.gen(emap[sq[role]], 2)) == \
            LocalizedElement(alg1, d_old, alg1.gen(sq[role], 2))
    for e in range(T1.num_edges):
        if e not in sq.values():
            assert TH(alg2.gen(emap[e], 2)) == \
                LocalizedElement(alg1, d_old, alg1.gen(e, 2))


# ---- localization at the central c = 1 + Z_d^(2N) ----

@pytest.mark.parametrize("N", [3, 5])
def test_factors_multiply_to_a_central_element(N):
    _, _, rec, alg1, _ = flip_at(N)
    d = rec.square[1]
    c = alg1.one() + alg1.gen(d, 2 * N)
    prod = alg1.one()
    for j in range(N):
        prod = prod * factor(alg1, d, j)
    assert prod == c
    assert all(commutator_is_zero(c, alg1.gen(i)) for i in range(alg1.n))
    for j in range(N):
        f = LocalizedElement(alg1, d, factor(alg1, d, j))
        assert f * factor_inverse(alg1, d, j) == alg1.one()
        assert factor_inverse(alg1, d, j) * f == alg1.one()


def test_central_element_acts_as_the_shear_factor():
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    W = exact_genus2_weights(alg)
    rep = build_rep(alg.T, 3, W, algebra=alg)
    for d in range(alg.n):
        c = alg.one() + alg.gen(d, 2 * alg.N)
        assert rep.ctx.scalar_of(rep.operator(c)) == alg.scalars.one() + W.x[d]


def test_localized_equality_reads_the_edge():
    alg = CFAlgebra(standard_library("genus2_sep"), 3)
    assert factor_inverse(alg, 0, 0) != factor_inverse(alg, 1, 0)
    assert one_localized_at(alg, 0) == one_localized_at(alg, 1) == alg.one()
    with pytest.raises(MixedAlgebra):
        one_localized_at(alg, 0) + one_localized_at(alg, 1)


def test_theta_reads_where_its_input_is_localized(flip_setup):
    T1, T2, rec, alg1, alg2 = flip_setup
    d_new = rec.edge_map[rec.square[1]]
    e_new = next(e for e in range(T2.num_edges) if e != d_new)
    assert theta(rec, one_localized_at(alg2, d_new), alg1) == alg1.one()
    with pytest.raises(MixedAlgebra):
        theta(rec, one_localized_at(alg2, e_new), alg1)
    with pytest.raises(MixedAlgebra):
        theta(rec, LocalizedElement(alg1, rec.square[1], alg1.one()), alg1)


def test_theta_homomorphism_on_localized_elements(flip_setup):
    T1, T2, rec, alg1, alg2 = flip_setup
    d_new = rec.edge_map[rec.square[1]]
    rng = random.Random(4)
    for _ in range(10):
        a = factor_inverse(alg2, d_new, rng.randrange(3)) * LocalizedElement(
            alg2, d_new, random_balanced_monomial(alg2, rng, bound=1))
        b = factor_inverse(alg2, d_new, rng.randrange(3))
        assert theta(rec, a * b, alg1) == theta(rec, a, alg1) * theta(rec, b, alg1)
        assert theta(rec, a + b, alg1) == theta(rec, a, alg1) + theta(rec, b, alg1)


@pytest.mark.parametrize("N", [3, 5])
def test_theta_homomorphism(N):
    T1, T2, rec, alg1, alg2 = flip_at(N)
    rng = random.Random(3)

    def TH(el):
        return theta(rec, el, alg1)

    for _ in range(80):
        a = random_balanced_monomial(alg2, rng, bound=1)
        b = random_balanced_monomial(alg2, rng, bound=1)
        assert TH(a * b) == TH(a) * TH(b)


def test_theta_sends_H_to_H(flip_setup):
    T1, T2, rec, alg1, alg2 = flip_setup
    for v in range(T1.num_vertices):
        got = theta(rec, alg2.central_H(rec.vertex_map[v]), alg1)
        assert got == LocalizedElement(alg1, rec.square[1], alg1.central_H(v))


@pytest.mark.parametrize("N", [3, 5])
def test_theta_double_flip_acts_as_identity(N):
    T1, T2, rec1, alg1, alg2 = flip_at(N)
    T3, rec2 = flip(T2, rec1.edge_map[rec1.edge])
    alg3 = CFAlgebra(T3, N)
    for i in range(T3.num_edges):
        a = alg3.gen(i, 2)
        back = theta(rec1, theta(rec2, a, alg2), alg1)
        i_orig = i
        for rec in (rec2, rec1):
            inv = {v: k for k, v in rec.edge_map.items()}
            i_orig = inv[i_orig]
        assert back == LocalizedElement(alg1, rec1.edge, alg1.gen(i_orig, 2))


# Frozen 6-face genus-1 triangulation whose flips at edges 1 and 7 realize
# the square configuration with one vertex at exactly two corners joined by
# a loop side (the case with an explicit off-diagonal transfer identity).
TWO_CORNER_GLUE = [(1, 0), (4, 2), (5, 1), (0, 0), (2, 0), (3, 0), (1, 1),
                   (3, 2), (4, 0), (1, 2), (5, 0), (2, 1), (2, 2), (5, 2),
                   (0, 1), (3, 1), (0, 2), (4, 1)]


def test_theta_transfers_offdiag_two_corner_case():
    T = build(6, TWO_CORNER_GLUE)
    assert (T.num_vertices, T.genus) == (3, 1)
    alg = CFAlgebra(T, 3)
    for d, v in ((1, 0), (7, 0)):
        T2, rec = flip(T, d)
        alg2 = CFAlgebra(T2, 3)
        # configuration: the N side is a loop at v hitting two square corners
        n_old = rec.square[2]
        assert T.endpoints(n_old) == (v, v)
        n_new = rec.edge_map[n_old]
        v_new = rec.vertex_map[v]
        matches = []
        for s_new in range(len(T2.fans[v_new])):
            lhs = theta(rec, alg2.gen(n_new, 2)
                        * alg2.offdiag_Q(v_new, start=s_new), alg)
            for s_old in range(len(T.fans[v])):
                rhs = LocalizedElement(
                    alg, d, alg.gen(n_old, 2) * alg.offdiag_Q(v, start=s_old))
                if lhs == rhs:
                    matches.append((s_new, s_old))
        assert len(matches) == 1  # Theta(Z_N'^2 Q'_v) = Z_N^2 Q_v, matched starts


# ---- flip weights ----

def rational_flip_weights(T1, rec_sub, alg1):
    # transported sphere weights with a rational free parameter: all x exact
    T0 = standard_library("sphere2")
    one = alg1.scalars.one()
    W0 = WeightSystem(T0, 3, x=[-one, -one, -one])
    return subdivision_weights(rec_sub, W0, alg1.scalars.from_rational(Fraction(-2)))


def test_flip_weights_roundtrip():
    T0 = standard_library("sphere2")
    T1, rec_sub = subdivide(T0, 0)
    alg1 = CFAlgebra(T1, 3)
    W1 = rational_flip_weights(T1, rec_sub, alg1)
    assert W1.validate()["valid"]
    e = rec_sub.edge_map[rec_sub.side_edges[0]]
    T2, rec = flip(T1, e)
    W2 = flip_weights(rec, W1)
    assert W2.validate()["valid"]
    T3, rec2 = flip(T2, rec.edge_map[e])
    W3 = flip_weights(rec2, W2)
    assert W3.validate()["valid"]
    # double flip returns the original x values (through the edge maps)
    for e_old in range(T1.num_edges):
        twice = rec2.edge_map[rec.edge_map[e_old]]
        assert W3.x[twice] == W1.x[e_old]


def test_flip_weights_degenerate():
    T0 = standard_library("sphere2")
    T1, rec_sub = subdivide(T0, 0)
    alg1 = CFAlgebra(T1, 3)
    one = alg1.scalars.one()
    # make the diagonal weight exactly -1
    e = rec_sub.edge_map[rec_sub.side_edges[0]]
    x = [one] * T1.num_edges
    x[e] = -one
    W = WeightSystem(T1, 3, x=x)
    T2, rec = flip(T1, e)
    with pytest.raises(DegenerateCrossratio):
        flip_weights(rec, W)


def test_theta_classical_specialization_matches_weight_table():
    # the omega -> 1 reading of the six verified coordinate-change formulas
    # (Z_d^2 -> x_d etc.) must reproduce the shear weight transport exactly
    T0 = standard_library("sphere2")
    T1, rec_sub = subdivide(T0, 0)
    alg1 = CFAlgebra(T1, 3)
    e = rec_sub.edge_map[rec_sub.side_edges[0]]
    T2, rec = flip(T1, e)
    zvals = [alg1.scalars.from_rational(Fraction(p, q))
             for p, q in ((2, 1), (3, 2), (5, 3), (7, 4), (4, 3), (5, 2))]
    x = [z * z for z in zvals]
    W = WeightSystem(T1, 3, x=list(x))
    W2 = flip_weights(rec, W)
    one = alg1.scalars.one()
    xd = x[rec.square[1]]
    emap = rec.edge_map
    assert W2.x[emap[rec.square[1]]] == xd.inv()                 # Zd^-2
    for role in (2, 4):                                         # (1+w4 Zd^2) Z^2
        assert W2.x[emap[rec.square[role]]] == (one + xd) * x[rec.square[role]]
    for role in (3, 5):                                         # (1+w4 Zd^-2)^-1 Z^2
        assert W2.x[emap[rec.square[role]]] == \
            (one + xd.inv()).inv() * x[rec.square[role]]
    for i in range(T1.num_edges):
        if i not in rec.square.values():
            assert W2.x[emap[i]] == x[i]
