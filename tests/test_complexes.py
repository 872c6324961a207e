"""Independence and matching complexes, face enumeration, equality."""

import math
import random
from itertools import combinations

import pytest

from gridhomology import (
    ComplexSizeError,
    Graph,
    Raw,
    SimplicialComplex,
    delta_graph,
    edge_label,
    equals_complex,
    grid_graph,
    independence_complex,
    line_graph,
    matching_complex,
    reduced_homology,
)

from oracles import brute_independent_faces, brute_matchings, random_graph


def path(*names):
    vs = [Raw(x) for x in names]
    return Graph(vs, list(zip(vs, vs[1:])))


def cycle(k):
    vs = [Raw(f"c{i}") for i in range(k)]
    return Graph(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def test_independence_of_k2():
    c = independence_complex(path("a", "b"))
    assert c.face_set() == {(), (Raw("a"),), (Raw("b"),)}


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_independence_of_edgeless_graph_is_full_simplex(k):
    g = Graph([Raw(f"v{i}") for i in range(k)])
    c = independence_complex(g)
    assert c.total_faces == 2**k
    for d in range(-1, k):
        assert c.face_count(d) == math.comb(k, d + 1)


def test_independence_of_four_cycle_matches_brute_force():
    g = cycle(4)
    c = independence_complex(g)
    assert c.face_set() == set(brute_independent_faces(g))
    # the two maximal faces are the diagonal pairs
    assert c.face_count(1) == 2 and c.face_count(2) == 0


def test_matching_of_single_edge_is_point():
    g = path("a", "b")
    c = matching_complex(g)
    assert c.dims() == [-1, 0]
    assert c.faces(0) == [(edge_label(Raw("a"), Raw("b")),)]


def test_matching_of_2x2_grid_equals_line_graph_route():
    g = grid_graph(2, 2)
    mc = matching_complex(g)
    ic = independence_complex(line_graph(g))
    assert equals_complex(mc, ic)
    # two disjoint perfect matchings of the 4-cycle
    assert mc.face_count(1) == 2 and mc.dimension == 1


def test_matching_of_triangle_is_three_points():
    g = Graph([Raw(x) for x in "abc"], [(Raw(a), Raw(b)) for a, b in ("ab", "bc", "ac")])
    c = matching_complex(g)
    assert c.face_count(0) == 3
    assert c.dimension == 0


def complete(k):
    vs = [Raw(f"k{i}") for i in range(k)]
    return Graph(vs, list(combinations(vs, 2)))


def complete_bipartite(a, b):
    left = [Raw(f"l{i}") for i in range(a)]
    right = [Raw(f"r{j}") for j in range(b)]
    return Graph(left + right, [(u, v) for u in left for v in right])


_rng = random.Random(17)
MATCHING_CORPUS = {str(n): grid_graph(n, 2) for n in range(2, 7)}
MATCHING_CORPUS.update(K5=complete(5), K33=complete_bipartite(3, 3))
MATCHING_CORPUS.update(
    (f"random{i}", random_graph(_rng, _rng.randint(3, 7), p))
    for i, p in enumerate((0.3, 0.5) * 4)
)


@pytest.mark.parametrize("name", list(MATCHING_CORPUS))
def test_matching_complex_matches_brute_matchings(name):
    g = MATCHING_CORPUS[name]
    assert matching_complex(g).face_set() == set(brute_matchings(g))


def test_matching_equals_independence_of_line_graph_corpus():
    rng = random.Random(99)
    graphs = [grid_graph(n, 2) for n in range(2, 6)]
    graphs += [path("a", "b", "c", "d", "e"), cycle(5)]
    graphs += [random_graph(rng, rng.randint(3, 14), p) for p in (0.2, 0.4, 0.6) for _ in range(4)]
    for g in graphs:
        mc = matching_complex(g)
        ic = independence_complex(line_graph(g))
        assert equals_complex(mc, ic)
        # explicit canonical bijection exercises the relabel validation
        assert equals_complex(mc, ic, {v: v for v in mc.labels})


def test_equals_complex_identity_and_mismatch():
    c = independence_complex(cycle(4))
    assert equals_complex(c, c)
    point = independence_complex(Graph([Raw("a")]))
    s0 = independence_complex(path("a", "b"))
    assert not equals_complex(point, s0)


def test_equals_complex_relabel_bijection():
    c1 = independence_complex(path("a", "b"))
    c2 = independence_complex(path("x", "y"))
    assert equals_complex(c1, c2, {Raw("a"): Raw("x"), Raw("b"): Raw("y")})
    assert equals_complex(c1, c2, {Raw("a"): Raw("y"), Raw("b"): Raw("x")})
    with pytest.raises(ValueError):
        equals_complex(c1, c2, {Raw("a"): Raw("x")})  # not defined everywhere
    with pytest.raises(ValueError):
        equals_complex(c1, c2, {Raw("a"): Raw("x"), Raw("b"): Raw("x")})  # not injective
    with pytest.raises(ValueError):
        equals_complex(c1, c2, {Raw("a"): Raw("x"), Raw("b"): Raw("z")})  # wrong image


def test_faces_sorted_lexicographically():
    c = independence_complex(delta_graph(2, 4))
    for d in c.dims():
        faces = c.index_faces(d)
        assert faces == sorted(faces)


def test_downward_closure_of_built_complexes():
    rng = random.Random(5)
    for g in [delta_graph(2, 4), grid_graph(3, 3), random_graph(rng, 10, 0.3)]:
        for c in (independence_complex(g), matching_complex(g)):
            fs = c.face_set()
            for f in fs:
                for p in range(len(f)):
                    assert f[:p] + f[p + 1 :] in fs


def test_dump_golden_for_path():
    c = independence_complex(path("a", "b", "c"))
    assert c.dump() == "\na\nb\nc\na,c\n"


def test_face_cap_enforced():
    g = Graph([Raw(f"v{i}") for i in range(10)])  # 2^10 faces
    with pytest.raises(ComplexSizeError):
        independence_complex(g, max_faces=100)
    with pytest.raises(ComplexSizeError):
        matching_complex(grid_graph(4, 2), max_faces=5)


def test_empty_graph_gives_empty_complex_not_void():
    c = independence_complex(Graph([]))
    assert not c.is_void
    assert c.dimension == -1
    assert c.face_count(-1) == 1
    void = SimplicialComplex([], {})
    assert void.is_void and void.dimension is None
    assert void != c


def test_from_faces_validates_closure():
    a, b = Raw("a"), Raw("b")
    with pytest.raises(ValueError):
        SimplicialComplex.from_faces([(a, b)])  # missing singletons
    c = SimplicialComplex.from_faces([(a, b), (a,), (b,)])
    assert c.face_set() == {(), (a,), (b,), (a, b)}


def test_from_facets_generates_closure():
    a, b, c = Raw("a"), Raw("b"), Raw("c")
    cx = SimplicialComplex.from_facets([(a, b, c)])
    assert cx.total_faces == 8
    assert cx.face_count(2) == 1


def test_from_faces_rejects_duplicate_vertices_in_face():
    a = Raw("a")
    with pytest.raises(ValueError):
        SimplicialComplex.from_faces([(a, a)])


def test_constructor_validates_shape():
    a, b = Raw("a"), Raw("b")
    with pytest.raises(ValueError):
        SimplicialComplex([b, a], {})  # labels not sorted
    with pytest.raises(ValueError):
        SimplicialComplex([a], {0: [(0,)]})  # nonvoid without empty face
    with pytest.raises(ValueError):
        SimplicialComplex([a, b], {-1: [()], 1: [(1, 0)]})  # face not sorted
    with pytest.raises(ValueError):
        SimplicialComplex([a, b], {-1: [()], 0: [(1,), (0,)]})  # dim list not sorted
    with pytest.raises(ValueError):
        SimplicialComplex([a, b], {-1: [()], 0: [(0,), (0,)]})  # duplicate face


@pytest.mark.parametrize("builder", [independence_complex, matching_complex])
def test_max_dim_gives_the_skeleton(builder):
    rng = random.Random(606)
    graphs = [delta_graph(2, 5), grid_graph(3, 3), cycle(7), Graph([])]
    graphs += [random_graph(rng, 9, 0.3) for _ in range(6)]
    for g in graphs:
        full = builder(g)
        faces = full.face_set()
        for k in range(-1, full.dimension + 2):  # the k-skeleton, for homology up to k - 1
            skel = builder(g, max_dim=k - 1)
            assert skel.labels == full.labels
            assert skel.face_set() == {f for f in faces if len(f) - 1 <= k}
            assert reduced_homology(skel, max_dim=k - 1) == reduced_homology(full, max_dim=k - 1)


def test_face_cap_counts_the_skeleton():
    g = grid_graph(3, 4)  # 823 matchings, 120 of them with at most two edges
    with pytest.raises(ComplexSizeError):
        matching_complex(g, max_faces=120)
    assert matching_complex(g, max_faces=120, max_dim=0).total_faces == 120
