"""Graph families, induced subgraphs, isomorphism, JSON interchange."""

import json
import random
from itertools import combinations

import pytest

from gridhomology import (
    E,
    EdgeOfGrid,
    F,
    Graph,
    GridNode,
    NamedSubgraphKind,
    Raw,
    closed_neighborhood,
    delete_vertices,
    delta_graph,
    find_isomorphism,
    grid_graph,
    is_isomorphic,
    line_graph,
    named_subgraph,
    parse_label,
)

from oracles import random_graph


def path(*names):
    vs = [Raw(x) for x in names]
    return Graph(vs, list(zip(vs, vs[1:])))


# -- labels ------------------------------------------------------------------


def test_label_order_variant_then_indices():
    labels = [Raw("a"), F(1, 2), E(3), EdgeOfGrid(GridNode(1, 1), GridNode(1, 2)), GridNode(2, 1)]
    assert sorted(labels) == [
        GridNode(2, 1),
        EdgeOfGrid(GridNode(1, 1), GridNode(1, 2)),
        E(3),
        F(1, 2),
        Raw("a"),
    ]
    assert sorted([E(10), E(2)]) == [E(2), E(10)]
    assert sorted([F(2, 1), F(1, 9)]) == [F(1, 9), F(2, 1)]


def test_label_validation():
    with pytest.raises(ValueError):
        E(0)
    with pytest.raises(ValueError):
        F(1, -1)
    with pytest.raises(ValueError):
        GridNode(0, 1)
    with pytest.raises(ValueError):
        Raw("")
    with pytest.raises(ValueError):
        EdgeOfGrid(GridNode(1, 1), GridNode(1, 1))


def test_edge_of_grid_normalizes_endpoint_order():
    e1 = EdgeOfGrid(GridNode(2, 1), GridNode(1, 1))
    e2 = EdgeOfGrid(GridNode(1, 1), GridNode(2, 1))
    assert e1 == e2
    assert str(e1) == "le((1,1),(2,1))"


def test_parse_label_round_trip():
    labels = [E(3), F(2, 4), GridNode(1, 2), EdgeOfGrid(GridNode(1, 1), GridNode(2, 1)), Raw("x7")]
    for lab in labels:
        assert parse_label(str(lab)) == lab
    assert parse_label("le(a,b)") == Raw("le(a,b)")  # non-grid composite stays raw


# -- grid graphs --------------------------------------------------------------


def test_grid_1x1_single_node():
    g = grid_graph(1, 1)
    assert g.n_vertices == 1 and g.n_edges == 0


def test_grid_5x2_matches_pair_enumeration():
    g = grid_graph(5, 2)
    coords = [(i, j) for i in range(1, 6) for j in range(1, 3)]
    expected = {
        (GridNode(*a), GridNode(*b))
        for a, b in combinations(coords, 2)
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
    }
    assert g.n_vertices == 10
    assert set(g.edges()) == expected
    assert g.n_edges == 13


def test_grid_2x2_is_four_cycle():
    g = grid_graph(2, 2)
    assert g.n_vertices == 4 and g.n_edges == 4
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_grid_rejects_bad_dimensions():
    for rows, cols in [(0, 2), (2, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            grid_graph(rows, cols)


@pytest.mark.parametrize("rows,cols", [(1, 4), (2, 3), (3, 3), (4, 2)])
def test_grid_transpose_isomorphic(rows, cols):
    g = grid_graph(rows, cols)
    swap = {v: GridNode(v.j, v.i) for v in g.vertices}
    assert g.relabel(swap) == grid_graph(cols, rows)
    assert is_isomorphic(g, grid_graph(cols, rows))


# -- line graphs --------------------------------------------------------------


def test_line_graph_of_short_path_is_edge():
    lg = line_graph(path("a", "b", "c"))
    assert lg.n_vertices == 2 and lg.n_edges == 1


def test_line_graph_of_grid_5x2():
    lg = line_graph(grid_graph(5, 2))
    assert lg.n_vertices == 13
    assert all(isinstance(v, EdgeOfGrid) for v in lg.vertices)


def test_line_graph_of_edgeless_graph_is_empty():
    g = Graph([Raw("a"), Raw("b")])
    lg = line_graph(g)
    assert lg.n_vertices == 0 and lg.n_edges == 0


# -- delta family -------------------------------------------------------------


def test_delta_n1_single_vertex():
    g = delta_graph(3, 1)
    assert g.vertices == (E(1),)
    assert g.n_edges == 0


def test_delta_4_5_shape():
    g = delta_graph(4, 5)
    assert g.n_vertices == 21
    assert g.n_edges == (5 - 2) * 4 + 2 * 4 * (5 - 1)
    # spot-check the two adjacency rules
    assert g.has_edge(F(3, 2), F(3, 3)) and not g.has_edge(F(3, 2), F(2, 3))
    assert g.has_edge(E(2), F(1, 2)) and g.has_edge(F(1, 2), E(3))
    assert not g.has_edge(E(2), E(3))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_delta_counts_formula(m, n):
    g = delta_graph(m, n)
    assert g.n_vertices == n + m * (n - 1)
    assert g.n_edges == (n - 2) * m + 2 * m * (n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_delta_2_isomorphic_to_line_of_grid(n):
    assert is_isomorphic(delta_graph(2, n), line_graph(grid_graph(n, 2)))


def test_delta_rejects_bad_parameters():
    with pytest.raises(ValueError):
        delta_graph(0, 3)
    with pytest.raises(ValueError):
        delta_graph(2, 0)


# -- vertex deletion and neighborhoods ----------------------------------------


def test_delete_nothing_is_identity():
    g = delta_graph(2, 3)
    assert delete_vertices(g, set()) == g


def test_delete_e4_gives_x5():
    g = delete_vertices(delta_graph(2, 5), {E(4)})
    assert g.n_vertices == 12
    assert E(4) not in g
    assert g == named_subgraph(NamedSubgraphKind.X, 2, 5)


def test_delete_one_endpoint_of_edge():
    g = path("a", "b")
    h = delete_vertices(g, {Raw("b")})
    assert h.vertices == (Raw("a"),) and h.n_edges == 0


def test_delete_rejects_missing_labels():
    with pytest.raises(ValueError):
        delete_vertices(delta_graph(2, 3), {E(9)})


def test_delete_is_functorial():
    rng = random.Random(7)
    g = delta_graph(3, 4)
    for _ in range(20):
        s = set(rng.sample(g.vertices, 3))
        rest = [v for v in g.vertices if v not in s]
        t = set(rng.sample(rest, 2))
        assert delete_vertices(delete_vertices(g, s), t) == delete_vertices(g, s | t)


def test_neighborhoods():
    iso = Graph([Raw("a")])
    assert iso.neighbors(Raw("a")) == frozenset()
    assert closed_neighborhood(iso, Raw("a")) == {Raw("a")}

    g = delta_graph(3, 3)
    assert g.neighbors(E(1)) == {F(1, 1), F(2, 1), F(3, 1)}

    p = path("a", "b", "c")
    assert p.neighbors(Raw("b")) == {Raw("a"), Raw("c")}

    with pytest.raises(ValueError):
        p.neighbors(Raw("zz"))


def test_closed_neighborhood_property():
    g = delta_graph(2, 5)
    for v in g.vertices:
        assert closed_neighborhood(g, v) == g.neighbors(v) | {v}
        assert v not in g.neighbors(v)


# -- named subgraphs -----------------------------------------------------------


def test_named_x_and_y_definitions():
    base = delta_graph(2, 5)
    x = named_subgraph(NamedSubgraphKind.X, 2, 5)
    y = named_subgraph(NamedSubgraphKind.Y, 2, 5)
    assert x == delete_vertices(base, {E(4)})
    assert y == delete_vertices(x, {E(3)})


def test_named_w_at_4_5():
    y = named_subgraph(NamedSubgraphKind.Y, 4, 5)
    w = named_subgraph(NamedSubgraphKind.W, 4, 5)
    assert w == delete_vertices(y, {F(1, 2), F(2, 2), F(3, 2), F(4, 2), E(5)})
    assert w.n_vertices == 14


def test_named_z_family_at_2_5():
    z = named_subgraph(NamedSubgraphKind.Z, 2, 5)
    # an isolated e1 plus one disjoint edge per row
    assert set(z.vertices) == {E(1), F(1, 2), F(1, 3), F(2, 2), F(2, 3)}
    assert set(z.edges()) == {(F(1, 2), F(1, 3)), (F(2, 2), F(2, 3))}

    zp = named_subgraph(NamedSubgraphKind.ZPRIME, 2, 5)
    assert set(zp.vertices) == set(z.vertices) | {F(1, 4), F(2, 4)}

    zpp = named_subgraph(NamedSubgraphKind.ZDOUBLEPRIME, 2, 5)
    assert set(zpp.vertices) == {E(1), F(1, 3), F(1, 4), F(2, 3), F(2, 4)}


def test_named_minimum_parameters():
    with pytest.raises(ValueError):
        named_subgraph(NamedSubgraphKind.X, 1, 5)  # m >= 2
    for kind, min_n in [
        (NamedSubgraphKind.X, 2),
        (NamedSubgraphKind.Y, 3),
        (NamedSubgraphKind.Z, 5),
        (NamedSubgraphKind.ZPRIME, 5),
        (NamedSubgraphKind.ZDOUBLEPRIME, 5),
        (NamedSubgraphKind.W, 4),
    ]:
        with pytest.raises(ValueError):
            named_subgraph(kind, 2, min_n - 1)
        named_subgraph(kind, 2, min_n)  # boundary value works


# -- isomorphism ----------------------------------------------------------------


def test_isomorphic_k2_relabelled():
    g1 = path("a", "b")
    g2 = path("x", "y")
    assert is_isomorphic(g1, g2)


def test_isomorphism_witness_is_valid():
    g1 = delta_graph(2, 6)
    g2 = line_graph(grid_graph(6, 2))
    phi = find_isomorphism(g1, g2)
    assert phi is not None
    assert sorted(phi.values()) == sorted(g2.vertices)
    for u in g1.vertices:
        for v in g1.vertices:
            if u < v:
                assert g1.has_edge(u, v) == g2.has_edge(phi[u], phi[v])


def test_not_isomorphic_path_vs_triangle():
    tri = Graph([Raw(x) for x in "abc"], [(Raw(a), Raw(b)) for a, b in ("ab", "bc", "ac")])
    assert not is_isomorphic(path("a", "b", "c"), tri)
    assert find_isomorphism(path("a", "b", "c"), tri) is None


def test_not_isomorphic_same_degree_sequence():
    # C6 vs two triangles: both 2-regular on 6 vertices
    c6 = Graph([Raw(str(i)) for i in range(6)],
               [(Raw(str(i)), Raw(str((i + 1) % 6))) for i in range(6)])
    tt = Graph([Raw(str(i)) for i in range(6)],
               [(Raw(a), Raw(b)) for a, b in ("01", "12", "02", "34", "45", "35")])
    assert not is_isomorphic(c6, tt)


# -- graph basics and JSON -------------------------------------------------------


def test_graph_validates_edges():
    with pytest.raises(ValueError):
        Graph([Raw("a")], [(Raw("a"), Raw("a"))])
    with pytest.raises(ValueError):
        Graph([Raw("a")], [(Raw("a"), Raw("b"))])


def test_graph_json_round_trip_and_canonical_order():
    g = delta_graph(2, 2)
    obj = g.to_json_obj()
    assert obj["vertices"] == ["e1", "e2", "f1_1", "f2_1"]
    assert obj["edges"] == [
        ["e1", "f1_1"],
        ["e1", "f2_1"],
        ["e2", "f1_1"],
        ["e2", "f2_1"],
    ]
    assert Graph.from_json(g.to_json()) == g
    assert g.to_json() == g.to_json()  # byte-for-byte deterministic


def test_graph_json_reader_normalizes():
    scrambled = {
        "vertices": ["f2_1", "e2", "e1", "f1_1"],
        "edges": [["f1_1", "e1"], ["e2", "f2_1"], ["f2_1", "e1"], ["f1_1", "e2"]],
    }
    assert Graph.from_json_obj(scrambled) == delta_graph(2, 2)


def test_graph_json_errors():
    with pytest.raises(ValueError):
        Graph.from_json("not json at all {")
    with pytest.raises(ValueError):
        Graph.from_json_obj({"vertices": ["a"]})
    with pytest.raises(ValueError):
        Graph.from_json_obj({"vertices": ["a"], "edges": [["a"]]})


def test_random_graphs_round_trip_json():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 9), 0.4)
        assert Graph.from_json(g.to_json()) == g
