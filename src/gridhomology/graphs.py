"""Simple undirected graphs with label-preserving operations.

Includes the graph families this toolkit studies: grid graphs, their line
graphs, and the delta family (an e-spine with m parallel f-rows), plus the
named induced subgraphs used by the step-by-step verification pipeline.
Graphs are immutable after construction and safe to share across tasks.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterable, Optional

from .labels import E, F, EdgeOfGrid, GridNode, Raw, VertexLabel, parse_label

__all__ = [
    "Graph",
    "NamedSubgraphKind",
    "grid_graph",
    "line_graph",
    "delta_graph",
    "delete_vertices",
    "closed_neighborhood",
    "named_subgraph",
    "edge_label",
    "find_isomorphism",
    "is_isomorphic",
]


class Graph:
    """Immutable simple graph: no loops, no parallel edges, symmetric adjacency.

    Vertices are kept in canonical label order, so every enumeration
    derived from a Graph is deterministic.
    """

    __slots__ = ("_vertices", "_adj", "_index")

    def __init__(self, vertices: Iterable[VertexLabel], edges: Iterable = ()):
        vs = sorted(set(vertices))
        adj: dict[VertexLabel, set] = {v: set() for v in vs}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) has an endpoint outside the vertex set")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._vertices: tuple[VertexLabel, ...] = tuple(vs)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._index = {v: i for i, v in enumerate(vs)}

    @property
    def vertices(self) -> tuple[VertexLabel, ...]:
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def __contains__(self, v) -> bool:
        return v in self._adj

    def neighbors(self, v: VertexLabel) -> frozenset:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in graph") from None

    def degree(self, v: VertexLabel) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: VertexLabel, v: VertexLabel) -> bool:
        return v in self._adj.get(u, ())

    def index_of(self, v: VertexLabel) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in graph") from None

    def edges(self) -> list[tuple[VertexLabel, VertexLabel]]:
        """All edges as canonically sorted pairs, in sorted order."""
        out = []
        for u in self._vertices:
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort(key=lambda e: (e[0].sort_key(), e[1].sort_key()))
        return out

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmasks aligned with the canonical vertex order."""
        idx = self._index
        masks = [0] * len(self._vertices)
        for v, ns in self._adj.items():
            m = 0
            for u in ns:
                m |= 1 << idx[u]
            masks[idx[v]] = m
        return masks

    def induced(self, keep: Iterable[VertexLabel]) -> "Graph":
        """Induced subgraph on the given vertices (must all be present)."""
        keep_set = set(keep)
        for v in keep_set:
            if v not in self._adj:
                raise ValueError(f"vertex {v} not in graph")
        edges = [
            (u, v)
            for u in keep_set
            for v in self._adj[u]
            if v in keep_set and u < v
        ]
        return Graph(keep_set, edges)

    def relabel(self, mapping: dict) -> "Graph":
        """Rename vertices through a bijection; adjacency is carried over."""
        if set(mapping) != set(self._vertices):
            raise ValueError("relabeling must be defined on exactly the vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabeling must be injective")
        return Graph(
            mapping.values(),
            [(mapping[u], mapping[v]) for u, v in self.edges()],
        )

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    __hash__ = None

    def __repr__(self):
        return f"Graph({self.n_vertices} vertices, {self.n_edges} edges)"

    def to_json_obj(self) -> dict:
        """Canonical interchange form: label strings, sorted everywhere."""
        return {
            "vertices": [str(v) for v in self._vertices],
            "edges": [[str(u), str(v)] for u, v in self.edges()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graph":
        if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
            raise ValueError("graph JSON needs 'vertices' and 'edges' keys")
        vertices = [parse_label(s) for s in obj["vertices"]]
        edges = []
        for pair in obj["edges"]:
            if len(pair) != 2:
                raise ValueError(f"edge {pair!r} is not a 2-element array")
            edges.append((parse_label(pair[0]), parse_label(pair[1])))
        return cls(vertices, edges)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid graph JSON: {exc}") from None
        return cls.from_json_obj(obj)


def _require_positive(name, value):
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols lattice box; nodes adjacent iff L1 distance is 1."""
    _require_positive("rows", rows)
    _require_positive("cols", cols)
    vertices = [GridNode(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    edges = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if i < rows:
                edges.append((GridNode(i, j), GridNode(i + 1, j)))
            if j < cols:
                edges.append((GridNode(i, j), GridNode(i, j + 1)))
    return Graph(vertices, edges)


def edge_label(u: VertexLabel, v: VertexLabel) -> VertexLabel:
    """Canonical label for the edge {u, v} when it becomes a vertex.

    Grid edges get structured EdgeOfGrid labels; anything else gets a Raw
    composite so arbitrary graphs still work.
    """
    a, b = (u, v) if u < v else (v, u)
    if isinstance(a, GridNode) and isinstance(b, GridNode):
        return EdgeOfGrid(a, b)
    return Raw(f"le({a},{b})")


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g; two edges adjacent iff they share an endpoint."""
    all_edges = g.edges()
    labels = {e: edge_label(*e) for e in all_edges}
    incident: dict[VertexLabel, list] = {v: [] for v in g.vertices}
    for (u, v), lab in labels.items():
        incident[u].append(lab)
        incident[v].append(lab)
    adj_edges = []
    for labs in incident.values():
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                adj_edges.append((labs[i], labs[j]))
    return Graph(labels.values(), adj_edges)


def delta_graph(m: int, n: int) -> Graph:
    """The delta family: spine e_1..e_n plus m rows f^k_1..f^k_{n-1}.

    Adjacency: f^k_i ~ f^k_{i+1} along each row, and e_i ~ f^k_i ~ e_{i+1}.
    For m = 2 this is isomorphic to the line graph of the (n x 2)-grid.
    """
    _require_positive("m", m)
    _require_positive("n", n)
    vertices: list[VertexLabel] = [E(i) for i in range(1, n + 1)]
    vertices += [F(k, i) for k in range(1, m + 1) for i in range(1, n)]
    edges = []
    for k in range(1, m + 1):
        for i in range(1, n - 1):
            edges.append((F(k, i), F(k, i + 1)))
        for i in range(1, n):
            edges.append((E(i), F(k, i)))
            edges.append((F(k, i), E(i + 1)))
    return Graph(vertices, edges)


def delete_vertices(g: Graph, s: Iterable[VertexLabel]) -> Graph:
    """Induced subgraph on V(g) minus s; every label of s must be present."""
    drop = set(s)
    for v in drop:
        if v not in g:
            raise ValueError(f"cannot delete {v}: not a vertex of the graph")
    if not drop:
        return g
    return g.induced(v for v in g.vertices if v not in drop)


def closed_neighborhood(g: Graph, v: VertexLabel) -> frozenset:
    """Vertices adjacent to v, plus v itself."""
    return g.neighbors(v) | {v}


class NamedSubgraphKind(Enum):
    X = "X"
    Y = "Y"
    Z = "Z"
    ZPRIME = "Zprime"
    ZDOUBLEPRIME = "Zdoubleprime"
    W = "W"


_MIN_N = {
    NamedSubgraphKind.X: 2,
    NamedSubgraphKind.Y: 3,
    NamedSubgraphKind.Z: 5,
    NamedSubgraphKind.ZPRIME: 5,
    NamedSubgraphKind.ZDOUBLEPRIME: 5,
    NamedSubgraphKind.W: 4,
}


def named_subgraph(kind: NamedSubgraphKind, m: int, n: int) -> Graph:
    """The named induced subgraphs of the delta family.

    X drops the spine vertex e_{n-1}; Y additionally drops e_{n-2}; the
    Z variants and W drop further rows/neighborhoods so that each remaining
    graph splits into a smaller delta block plus disjoint edges.
    """
    kind = NamedSubgraphKind(kind)
    _require_positive("m", m)
    _require_positive("n", n)
    if m < 2:
        raise ValueError(f"named subgraphs need m >= 2, got {m}")
    if n < _MIN_N[kind]:
        raise ValueError(f"{kind.value} needs n >= {_MIN_N[kind]}, got {n}")

    x = delete_vertices(delta_graph(m, n), {E(n - 1)})
    if kind is NamedSubgraphKind.X:
        return x
    y = delete_vertices(x, {E(n - 2)})
    if kind is NamedSubgraphKind.Y:
        return y
    f_row = lambda i: {F(k, i) for k in range(1, m + 1)}
    if kind is NamedSubgraphKind.Z:
        drop = f_row(n - 4) | {E(n - 3)} | closed_neighborhood(y, E(n))
    elif kind is NamedSubgraphKind.ZPRIME:
        drop = f_row(n - 4) | {E(n - 3), E(n)}
    elif kind is NamedSubgraphKind.ZDOUBLEPRIME:
        drop = closed_neighborhood(y, E(n - 3)) | {E(n)}
    else:  # W
        drop = f_row(n - 3) | {E(n)}
    return delete_vertices(y, drop)


def _signature(g: Graph) -> dict:
    """Degree plus neighbor-degree multiset, a cheap isomorphism invariant."""
    deg = {v: g.degree(v) for v in g.vertices}
    return {v: (deg[v], tuple(sorted(deg[u] for u in g.neighbors(v)))) for v in g.vertices}


def find_isomorphism(g1: Graph, g2: Graph) -> Optional[dict]:
    """Adjacency-preserving bijection g1 -> g2, or None.

    Exhaustive backtracking with signature pruning; fine for the rigid
    graphs this package builds (tens of vertices).
    """
    n = g1.n_vertices
    if n != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    sig1, sig2 = _signature(g1), _signature(g2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    by_sig2: dict = {}
    for w, s in sig2.items():
        by_sig2.setdefault(s, []).append(w)
    candidates = {v: by_sig2.get(sig1[v], []) for v in g1.vertices}

    # order: most-constrained first, preferring vertices touching the mapped part
    order: list[VertexLabel] = []
    placed: set = set()
    remaining = set(g1.vertices)
    while remaining:
        v = min(
            remaining,
            key=lambda v: (
                not any(u in placed for u in g1.neighbors(v)),
                len(candidates[v]),
                v.sort_key(),
            ),
        )
        order.append(v)
        placed.add(v)
        remaining.remove(v)

    mapping: dict = {}
    used: set = set()

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        nv = g1.neighbors(v)
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u, img in mapping.items():
                if (u in nv) != g2.has_edge(w, img):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if assign(pos + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    if assign(0):
        return dict(mapping)
    return None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """True iff an adjacency-preserving bijection exists.

    Use find_isomorphism for the witness mapping.
    """
    return find_isomorphism(g1, g2) is not None
