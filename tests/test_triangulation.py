import pytest

from skeinrep import triangulation as tri
from skeinrep.errors import NonInvolution, ParseError, RepeatedFaceEdge, UnknownName


LIBRARY = ["sphere2", "torus1", "genus2_sep"]


def test_sphere2_counts():
    T = tri.standard_library("sphere2")
    # Euler oracle: p - E + F = 2 - 2g
    assert (T.num_vertices, T.num_edges, T.num_faces) == (3, 3, 2)
    assert T.num_vertices - T.num_edges + T.num_faces == 2
    assert T.genus == 0


def test_torus1_counts():
    T = tri.standard_library("torus1")
    assert (T.num_vertices, T.num_edges, T.num_faces) == (1, 3, 2)
    assert T.num_vertices - T.num_edges + T.num_faces == 0
    assert T.genus == 1


def test_genus2_counts_and_separating_edge():
    T = tri.standard_library("genus2_sep")
    assert (T.num_vertices, T.num_edges, T.num_faces) == (1, 9, 6)
    assert T.genus == 2
    e = T.designated_edge
    assert T.is_separating(e)
    comps = T.dual_components(removed_edge=e)
    assert sorted(len(c) for c in comps) == [3, 3]
    # only the designated edge separates
    assert [f for f in range(T.num_edges) if T.is_separating(f)] == [e]


def test_repeated_face_edge_rejected():
    # face 0 glued to itself along two of its own sides
    pairs = [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]
    glue = tri._pairs_to_glue(2, pairs)
    with pytest.raises(RepeatedFaceEdge):
        tri.build(2, glue)


def test_non_involution_rejected():
    glue = [(1, 0), (1, 1), (1, 2), (0, 0), (0, 1), (0, 1)]
    with pytest.raises(NonInvolution):
        tri.build(2, glue)
    with pytest.raises(NonInvolution):
        tri.build(2, [(0, 0)] + glue[1:])  # self-glued slot


def test_torus1_fan():
    T = tri.standard_library("torus1")
    fans = T.fans
    assert len(fans) == 1
    fan = fans[0]
    assert len(fan) == 6 == 2 * T.num_edges
    # rotation-system walk visits e1,e2,e3,e1,e2,e3
    edges = fan.edges
    k = edges.index(0)
    assert tuple(edges[(k + i) % 6] for i in range(6)) == (0, 1, 2, 0, 1, 2)


def test_sphere2_fans():
    T = tri.standard_library("sphere2")
    fans = T.fans
    assert sorted(len(f) for f in fans) == [2, 2, 2]
    assert sum(len(f) for f in fans) == 2 * T.num_edges


def test_genus2_fan():
    T = tri.standard_library("genus2_sep")
    fans = T.fans
    assert len(fans) == 1
    assert len(fans[0]) == 18 == 2 * T.num_edges


def test_fan_covers_each_corner_once():
    for name in LIBRARY:
        T = tri.standard_library(name)
        slots = [s for fan in T.fans for s in fan.slots]
        assert sorted(slots) == list(range(3 * T.num_faces))


def test_sigma_torus():
    T = tri.standard_library("torus1")
    s = T.sigma_matrix()
    assert s[0][1] == s[1][2] == s[2][0] == 2
    assert s[1][0] == s[2][1] == s[0][2] == -2


def test_sigma_sphere_zero():
    T = tri.standard_library("sphere2")
    assert all(v == 0 for row in T.sigma_matrix() for v in row)


def test_sigma_antisymmetric_and_two_ways_agree():
    for name in LIBRARY:
        T = tri.standard_library(name)
        s = T.sigma_matrix()
        n = T.num_edges
        assert all(s[i][i] == 0 for i in range(n))
        assert all(s[i][j] == -s[j][i] for i in range(n) for j in range(n))
        assert all(-2 <= s[i][j] <= 2 for i in range(n) for j in range(n))
        assert T.sigma_from_fans() == s


def test_is_combinatorial():
    assert tri.standard_library("sphere2").is_combinatorial()
    assert not tri.standard_library("torus1").is_combinatorial()
    assert not tri.standard_library("genus2_sep").is_combinatorial()


def test_unknown_name():
    with pytest.raises(UnknownName):
        tri.standard_library("klein")


def test_json_roundtrip():
    for name in LIBRARY:
        T = tri.standard_library(name)
        text = T.to_json()
        T2 = tri.Triangulation.from_json(text)
        assert T2.glue == T.glue
        assert T2.to_json() == text


def test_json_parse_error():
    with pytest.raises(ParseError):
        tri.Triangulation.from_json("{not json")
    with pytest.raises(ParseError):
        tri.Triangulation.from_json('{"faces": 2}')
