"""Boundary matrices, Smith normal form, reduced homology, Euler counts."""

import random
from itertools import combinations

import pytest

from gridhomology import homology
from gridhomology import (
    Graph,
    HomologyResult,
    MatrixSizeError,
    Raw,
    SimplicialComplex,
    SnfResult,
    SparseIntMatrix,
    boundary_matrix,
    delta_graph,
    grid_graph,
    independence_complex,
    matching_complex,
    reduced_euler_characteristic,
    reduced_homology,
    smith_normal_form,
)

from oracles import dd_invariant_factors, random_graph

RP2_TRIANGLES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


@pytest.fixture(scope="module")
def rp2():
    """Minimal 6-vertex triangulation of the projective plane."""
    labs = [Raw(f"p{i}") for i in range(6)]
    return SimplicialComplex.from_facets([tuple(labs[i] for i in t) for t in RP2_TRIANGLES])


def hollow_triangle():
    a, b, c = (Raw(x) for x in "abc")
    return SimplicialComplex.from_faces([(a,), (b,), (c,), (a, b), (a, c), (b, c)])


# -- boundary matrices ---------------------------------------------------------


def test_boundary_of_hollow_triangle():
    bm = boundary_matrix(hollow_triangle(), 1)
    assert (bm.rows, bm.cols) == (3, 3)
    for j in range(3):
        col = sorted(v for (r, c), v in bm.entries.items() if c == j)
        assert col == [-1, 1]


def test_boundary_dim0_is_all_ones_row():
    c = independence_complex(delta_graph(2, 3))
    bm = boundary_matrix(c, 0)
    assert bm.rows == 1
    assert bm.cols == c.face_count(0)
    assert all(v == 1 for v in bm.entries.values())


def test_boundary_of_solid_triangle():
    a, b, c = (Raw(x) for x in "abc")
    cx = SimplicialComplex.from_facets([(a, b, c)])
    bm = boundary_matrix(cx, 2)
    assert (bm.rows, bm.cols) == (3, 1)
    assert [bm.entries[(r, 0)] for r in range(3)] == [1, -1, 1]


def test_boundary_composition_is_zero():
    rng = random.Random(3)
    complexes = [
        independence_complex(delta_graph(2, 4)),
        matching_complex(grid_graph(3, 2)),
        independence_complex(random_graph(rng, 9, 0.35)),
    ]
    for cx in complexes:
        top = cx.dimension
        for d in range(1, top + 1):
            lo = boundary_matrix(cx, d - 1)
            hi = boundary_matrix(cx, d)
            prod = {}
            for (r, k), v in lo.entries.items():
                for (k2, c), w in hi.entries.items():
                    if k == k2:
                        prod[(r, c)] = prod.get((r, c), 0) + v * w
            assert all(v == 0 for v in prod.values())


def test_boundary_rejects_negative_dimension():
    with pytest.raises(ValueError):
        boundary_matrix(hollow_triangle(), -1)


def test_boundary_beyond_top_dimension_is_zero_size():
    cx = hollow_triangle()
    bm = boundary_matrix(cx, 5)
    assert bm.cols == 0 and not bm.entries


# -- smith normal form ----------------------------------------------------------


def mat(rows):
    entries = {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v
    }
    return SparseIntMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def test_snf_identity():
    r = smith_normal_form(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert r.invariant_factors == (1, 1, 1) and r.rank == 3


def test_snf_2x2_example():
    r = smith_normal_form(mat([[2, 4], [6, 8]]))
    assert r.invariant_factors == (2, 4)


def test_snf_zero_matrix():
    r = smith_normal_form(SparseIntMatrix(3, 2, {}))
    assert r.rank == 0 and r.invariant_factors == ()


def test_snf_needs_chain_fixup():
    # diagonal (2, 3) is not a chain; invariant factors are (1, 6)
    r = smith_normal_form(mat([[2, 0], [0, 3]]))
    assert r.invariant_factors == (1, 6)


def test_snf_rectangular_and_negative():
    r = smith_normal_form(mat([[0, -3, 0], [0, 0, 0]]))
    assert r.invariant_factors == (3,)
    r = smith_normal_form(mat([[4], [6]]))
    assert r.invariant_factors == (2,)


def test_snf_matches_determinantal_divisors_randomized():
    rng = random.Random(20240)
    for _ in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        expected = dd_invariant_factors(dense)
        got = smith_normal_form(mat(dense))
        assert list(got.invariant_factors) == expected
        assert got.rank == len(expected)


def test_snf_result_validates_chain():
    with pytest.raises(ValueError):
        SnfResult((2, 3))
    with pytest.raises(ValueError):
        SnfResult((0,))


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 1, {(0, 0): 0})
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 1, {(1, 0): 2})


# -- reduced homology ------------------------------------------------------------


def test_point_complex_is_contractible():
    res = reduced_homology(independence_complex(Graph([Raw("a")])))
    assert res.betti == {} and res.torsion == {}


def test_delta_2_3_gives_two_circles():
    res = reduced_homology(independence_complex(delta_graph(2, 3)))
    assert res.betti == {1: 2}
    assert res.torsion == {}


def test_projective_plane_torsion(rp2):
    res = reduced_homology(rp2)
    assert res.betti == {}
    assert res.torsion == {1: [2]}
    # the order-2 class comes from the top boundary map
    snf = smith_normal_form(boundary_matrix(rp2, 2))
    assert snf.invariant_factors == (1,) * 9 + (2,)


def test_empty_complex_reports_dim_minus_one():
    res = reduced_homology(independence_complex(Graph([])))
    assert res.betti == {-1: 1}


def test_void_complex_all_zero():
    res = reduced_homology(SimplicialComplex([], {}))
    assert res.betti == {} and res.torsion == {}


def test_homology_invariant_under_vertex_relabelling():
    rng = random.Random(42)
    g = delta_graph(2, 4)
    base = reduced_homology(independence_complex(g))
    for _ in range(5):
        names = [Raw(f"r{i:02d}") for i in range(g.n_vertices)]
        rng.shuffle(names)
        h = g.relabel(dict(zip(g.vertices, names)))
        assert reduced_homology(independence_complex(h)) == base


def test_max_dim_truncates():
    c = independence_complex(delta_graph(2, 5))
    full = reduced_homology(c)
    part = reduced_homology(c, max_dim=1)
    assert part.betti == {d: b for d, b in full.betti.items() if d <= 1}


def test_matrix_cap_enforced():
    c = independence_complex(delta_graph(2, 3))
    with pytest.raises(MatrixSizeError):
        reduced_homology(c, max_matrix=3)


def test_homology_result_validation_and_json():
    with pytest.raises(ValueError):
        HomologyResult({1: 0}, {})
    with pytest.raises(ValueError):
        HomologyResult({}, {1: [1]})
    res = HomologyResult({-1: 1, 2: 3}, {1: [2, 2]})
    assert res.to_json_obj() == {"betti": {"-1": 1, "2": 3}, "torsion": {"1": [2, 2]}}
    assert HomologyResult({}, {}).to_json_obj() == {}
    assert not res.torsion_free and HomologyResult({}, {}).torsion_free


# -- euler characteristic ----------------------------------------------------------


def test_euler_examples():
    assert reduced_euler_characteristic(independence_complex(Graph([Raw("a")]))) == 0
    two_points = independence_complex(Graph([Raw("a"), Raw("b")], [(Raw("a"), Raw("b"))]))
    assert reduced_euler_characteristic(two_points) == 1
    val = reduced_euler_characteristic(independence_complex(delta_graph(2, 3)))
    assert val == -2 and isinstance(val, int)


def test_euler_equals_alternating_betti_sum():
    rng = random.Random(77)
    complexes = [
        independence_complex(delta_graph(2, 4)),
        independence_complex(delta_graph(3, 3)),
        matching_complex(grid_graph(4, 2)),
    ]
    complexes += [independence_complex(random_graph(rng, 10, 0.3)) for _ in range(5)]
    for cx in complexes:
        res = reduced_homology(cx)
        alt = sum((1 if d % 2 == 0 else -1) * b for d, b in res.betti.items())
        assert reduced_euler_characteristic(cx) == alt


# -- clearing ----------------------------------------------------------------------


def complete_graph(n):
    vs = [Raw(f"k{i}") for i in range(n)]
    return Graph(vs, list(combinations(vs, 2)))


def complete_bipartite(a, b):
    left = [Raw(f"a{i}") for i in range(a)]
    right = [Raw(f"b{i}") for i in range(b)]
    return Graph(left + right, [(u, v) for u in left for v in right])


@pytest.fixture
def check_cleared(monkeypatch):
    """Check every cleared Smith form of reduced_homology against the plain one.

    The returned function runs ``reduced_homology`` with recording wrappers
    in ``homology``'s globals, requires the top-down order, a cleared matrix
    that lacks exactly the unit-pivot rows of the map above it, and, in every
    dimension, the invariant factors of plain ``smith_normal_form`` on the
    full boundary matrix. It returns the number of columns cleared.
    """
    dims, reduced = [], {}
    plain_bm, plain_snf = homology.boundary_matrix, homology.smith_normal_form

    def recording_bm(c, d, *rest):
        dims.append(d)
        return plain_bm(c, d, *rest)

    def recording_snf(m):
        reduced[dims[-1]] = (m, plain_snf(m))
        return reduced[dims[-1]][1]

    monkeypatch.setattr(homology, "boundary_matrix", recording_bm)
    monkeypatch.setattr(homology, "smith_normal_form", recording_snf)

    def check(c, max_dim=None):
        dims.clear()
        reduced.clear()
        reduced_homology(c, max_dim=max_dim, max_matrix=None)
        hi = c.dimension if max_dim is None else min(max_dim, c.dimension)
        assert dims == list(range(hi + 1, -1, -1))
        cleared = 0
        for d, (m, snf) in reduced.items():
            above = reduced[d + 1][1].unit_pivot_rows if d <= hi else frozenset()
            assert m.cols == c.face_count(d) - len(above)
            cleared += len(above)
            full = plain_snf(plain_bm(c, d))
            assert snf.invariant_factors == full.invariant_factors, f"dimension {d}"
        return cleared

    return check


def test_cleared_snf_exact_on_torsion_and_dense_residual_inputs(check_cleared, rp2):
    complexes = [
        rp2,
        matching_complex(complete_graph(7)),
        matching_complex(complete_graph(9)),
        matching_complex(complete_bipartite(5, 5)),
    ]
    for c in complexes:
        assert check_cleared(c) > 0


def test_cleared_snf_exact_on_delta_family(check_cleared):
    for m, top in ((2, 7), (3, 6), (4, 5)):
        complexes = [independence_complex(delta_graph(m, n)) for n in range(1, top + 1)]
        cleared = [check_cleared(c) for c in complexes]
        assert cleared[-1] > 0


def test_cleared_snf_exact_on_random_graphs(check_cleared):
    rng = random.Random(31337)
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 10), rng.choice((0.2, 0.35, 0.5)))
        max_dim = rng.choice((None, 0, 1, 2))
        check_cleared(independence_complex(g, max_dim=max_dim), max_dim)
        check_cleared(matching_complex(g, max_dim=max_dim), max_dim)


def test_snf_reports_unit_pivot_rows_outside_equality():
    r = smith_normal_form(mat([[1, 0, 0], [0, 2, 0], [0, 0, 0]]))
    assert r.invariant_factors == (1, 2) and r.unit_pivot_rows == {0}
    assert r == SnfResult((1, 2))
