import random
import time
from fractions import Fraction

import pytest

from skeinrep.cfalgebra import CFAlgebra
from skeinrep.errors import DegenerateConfiguration, SamplerExhausted
from skeinrep.holonomy import (DevelopedTriangulation, Mat2, ProjPoint,
                               cross_det, crossratio_weight, random_enhancement,
                               trace_word, vertex_holonomy,
                               weights_from_development)
from skeinrep.kernels import sample_generic_weights
from skeinrep.representation import WeightSystem
from skeinrep.triangulation import octahedron, standard_library


def test_crossratio_normalized_configuration():
    # points 0, infinity, 1, w in the roles (v+, v-, left, right): x = -1/w
    one = Fraction(1)
    for w in (Fraction(3), Fraction(-2, 5), Fraction(7, 3)):
        vp = ProjPoint.affine(Fraction(0))
        vm = ProjPoint.infinity()
        left = ProjPoint.affine(one)
        right = ProjPoint.affine(w)
        num = cross_det(left, vp) * cross_det(right, vm)
        den = cross_det(left, vm) * cross_det(right, vp)
        assert -num / den == -1 / w


def test_crossratio_moebius_invariance():
    rng = random.Random(2)
    T = standard_library("sphere2")
    for _ in range(20):
        pts = [ProjPoint.affine(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
               for _ in range(3)]
        if any(pts[i].same_as(pts[j]) for i in range(3) for j in range(i + 1, 3)):
            continue
        D = DevelopedTriangulation.from_vertex_points(T, pts)
        try:
            x = [crossratio_weight(D, e) for e in range(3)]
        except DegenerateConfiguration:
            continue
        g = Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1))  # det 1
        moved = [g.apply(p) for p in pts]
        D2 = DevelopedTriangulation.from_vertex_points(T, moved)
        assert [crossratio_weight(D2, e) for e in range(3)] == x


def test_crossratio_degenerate():
    T = standard_library("sphere2")
    p = ProjPoint.affine(Fraction(1))
    D = DevelopedTriangulation.from_vertex_points(
        T, [p, p, ProjPoint.affine(Fraction(2))])
    with pytest.raises(DegenerateConfiguration):
        crossratio_weight(D, 0)


def test_random_enhancement_weights_valid():
    for T in (standard_library("sphere2"), octahedron()):
        D = random_enhancement(T, seed=1)
        W = weights_from_development(D, 3)
        assert W.validate()["valid"]


def test_random_enhancement_gives_up_on_degenerate_draws(monkeypatch):
    class ConstantRandom(random.Random):
        def randint(self, a, b):
            return 1

    monkeypatch.setattr(random, "Random", ConstantRandom)
    start = time.monotonic()
    with pytest.raises(SamplerExhausted):   # all vertex points coincide
        random_enhancement(standard_library("sphere2"), seed=1)
    assert time.monotonic() - start < 1.0


def test_random_enhancement_needs_combinatorial():
    with pytest.raises(ValueError):
        random_enhancement(standard_library("torus1"), seed=0)


def test_vertex_holonomy_valid_weights():
    # exact torus weights
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    W = WeightSystem(T, 3, u=[one, one, alg.scalars.omega(1)])
    M = vertex_holonomy(W, 0)
    assert M.is_plus_minus_identity()
    # float generic genus-2 weights
    Tg = standard_library("genus2_sep")
    Wg = sample_generic_weights(Tg, 3, random.Random(8))
    assert vertex_holonomy(Wg, 0).is_plus_minus_identity(tol=1e-7)
    # enhancement-derived weights, all vertices
    To = octahedron()
    Wo = weights_from_development(random_enhancement(To, seed=3), 3)
    for v in range(To.num_vertices):
        assert vertex_holonomy(Wo, v).is_plus_minus_identity(tol=1e-7)


def test_vertex_holonomy_invalid_weights():
    T = standard_library("torus1")
    W = WeightSystem(T, 3, u=[1 + 0j, 1 + 0j, 1 + 0j])  # x = (1,1,1)
    M = vertex_holonomy(W, 0)
    assert not M.is_plus_minus_identity(tol=1e-7)
    assert abs(M.b) > 1  # off-diagonal prefix sum is 6 up to a unit


def test_vertex_holonomy_sqrt_choice_flips_sign():
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    W = WeightSystem(T, 3, u=[one, one, alg.scalars.omega(1)])
    M = vertex_holonomy(W, 0)
    M2 = vertex_holonomy(W, 0, sqrt_choices=[-1, 1, 1])
    # flipping one square root flips only the global sign (edge 0 has two
    # fan occurrences, each flip contributing -1)
    assert M2.is_plus_minus_identity()
    assert (M.a - M2.a).is_zero() or (M.a + M2.a).is_zero()


def test_trace_word():
    one = Fraction(1)
    zero = Fraction(0)
    A = Mat2(one * 2, one, one, one)          # det 1
    B = Mat2(one, one * 3, zero, one)
    assert trace_word([A, B], []) == 2
    # conjugation invariance
    w = [1, 2, -1, 1]
    g = Mat2(one, one, one, one * 2)
    gens_conj = [g * X * g.inverse_sl2() for X in (A, B)]
    assert trace_word([A, B], w) == trace_word(gens_conj, w)
    # commutator of a generic pair has trace != 2
    assert trace_word([A, B], [1, 2, -1, -2]) != 2
