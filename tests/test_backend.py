"""The exact and float backends against each other, and the omega-exponent
commutant count against field-arithmetic orbit propagation."""

import copy
import random

import numpy as np
import pytest

from skeinrep.cfalgebra import CFAlgebra
from skeinrep.kernels import sample_generic_weights, total_kernel
from skeinrep.qtrace import LoopSpec, threading_check
from skeinrep.representation import WeightSystem, build_rep
from skeinrep.triangulation import standard_library
from skeinrep.verify import (exact_genus2_weights, exact_sphere_weights,
                             exact_torus_weights)

RANK_TOL = 1e-8


def exact_weights(name, alg):
    return {"torus1": exact_torus_weights, "sphere2": exact_sphere_weights,
            "genus2_sep": exact_genus2_weights}[name](alg)


def to_complex(M):
    return np.array([[complex(z) for z in row] for row in M])


@pytest.mark.parametrize("name", ["torus1", "sphere2", "genus2_sep"])
def test_exact_and_float_agree_on_roots_of_unity(name):
    T = standard_library(name)
    alg = CFAlgebra(T, 3)
    W = exact_weights(name, alg)
    Wf = WeightSystem(T, 3, u=[complex(ui) for ui in W.u])
    rep = build_rep(T, 3, W, algebra=alg)
    repf = build_rep(T, 3, Wf, algebra=alg)
    assert rep.dim == repf.dim
    assert total_kernel(rep).dim == total_kernel(repf, RANK_TOL).dim
    assert rep.commutant_dim() == repf.commutant_dim()
    Q = alg.offdiag_Q(0)
    assert np.abs(to_complex(rep.apply(Q)) - repf.apply(Q)).max() < 1e-9
    if T.designated_edge is not None:
        for side in (1, 2):
            loop = LoopSpec.edge_parallel(T.designated_edge, side)
            s = threading_check(rep, loop)["scalar"]
            sf = threading_check(repf, loop)["scalar"]
            assert abs(complex(s) - sf) < 1e-9


# ---- commutant ----

def field_commutant_dim(rep, tol=1e-8):
    """Orbit-phase propagation with the generator scales themselves: each
    generator forces X[p(i), p(j)] = s_i / s_j X[i, j] on a commuting X."""
    gens = [rep.weyl_image(b) for b in rep.lattice.basis]
    D = rep.dim
    seen = [False] * (D * D)
    dim = 0
    for root in range(D * D):
        if seen[root]:
            continue
        phases = {root: rep.ctx.one()}
        stack = [root]
        seen[root] = True
        consistent = True
        while stack:
            pos = stack.pop()
            i, j = divmod(pos, D)
            for g in gens:
                npos = g.perm[i] * D + g.perm[j]
                sj = g.scale[j]
                inv = 1.0 / sj if isinstance(sj, complex) else sj.inv()
                val = phases[pos] * g.scale[i] * inv
                if npos in phases:
                    diff = phases[npos] - val
                    if abs(diff) > tol if isinstance(diff, complex) else not diff.is_zero():
                        consistent = False
                else:
                    phases[npos] = val
                    seen[npos] = True
                    stack.append(npos)
        if consistent:
            dim += 1
    return dim


def with_basis_prefix(rep, m):
    """A copy of rep generated by the first m balanced-lattice basis vectors."""
    cut = copy.copy(rep)
    cut.lattice = copy.copy(rep.lattice)
    cut.lattice.basis = rep.lattice.basis[:m]
    return cut


@pytest.fixture(scope="module")
def library_reps():
    reps = {}
    for name in ("torus1", "sphere2"):
        alg = CFAlgebra(standard_library(name), 3)
        reps[name] = build_rep(alg.T, 3, exact_weights(name, alg), algebra=alg)
    T = standard_library("genus2_sep")
    reps["genus2_float"] = build_rep(T, 3, sample_generic_weights(T, 3, random.Random(101)))
    return reps


@pytest.mark.parametrize("name", ["torus1", "sphere2", "genus2_float"])
def test_commutant_matches_field_reference(library_reps, name):
    rep = library_reps[name]
    assert rep.commutant_dim() == field_commutant_dim(rep) == 1


@pytest.mark.parametrize("name,prefix,expected", [
    ("torus1", 0, 9), ("torus1", 1, 3), ("torus1", 2, 1),
    ("genus2_float", 2, 729), ("genus2_float", 5, 27), ("genus2_float", 8, 1),
])
def test_commutant_of_reducible_generator_sets(library_reps, name, prefix, expected):
    cut = with_basis_prefix(library_reps[name], prefix)
    assert cut.commutant_dim() == field_commutant_dim(cut) == expected
