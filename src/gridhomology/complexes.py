"""Abstract simplicial complexes with explicit per-dimension face lists.

Faces are stored explicitly (not just facets) because boundary-matrix
assembly needs per-dimension face indices; at desk scale that is the
simpler, cache-friendly choice. The empty face lives at dimension -1 and is
present exactly when the complex is nonvoid, so the empty complex {()} --
which arises from deleting closed neighborhoods of dominating vertices --
is representable and distinct from the void complex.

Both complexes come from one face enumerator over compatibility masks: the
independence complex of a graph, and the matching complex as the
independence complex of its edge-conflict graph, M(G) = I(L(G)), with the
conflicts read off edge endpoints instead of a built line graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .graphs import Graph, edge_label
from .labels import VertexLabel

__all__ = [
    "SimplicialComplex",
    "ComplexSizeError",
    "independence_complex",
    "matching_complex",
    "equals_complex",
    "DEFAULT_MAX_FACES",
]

DEFAULT_MAX_FACES = 10_000_000


class ComplexSizeError(RuntimeError):
    """Face enumeration exceeded the configured cap."""


class SimplicialComplex:
    """Finite abstract complex over canonically ordered vertex labels.

    Internally faces are tuples of vertex indices into ``labels``; since
    ``labels`` is sorted, index order and label order agree, and the
    per-dimension lists are lexicographically sorted.
    """

    __slots__ = ("_labels", "_faces")

    def __init__(self, labels: Iterable[VertexLabel], faces_by_dim: dict):
        labs = tuple(labels)
        if list(labs) != sorted(set(labs)):
            raise ValueError("labels must be sorted and duplicate-free")
        n = len(labs)
        faces: dict[int, list[tuple[int, ...]]] = {}
        for d, fs in faces_by_dim.items():
            if not fs:
                continue
            for f in fs:
                if len(f) != d + 1:
                    raise ValueError(f"face {f} filed under dimension {d}")
                if any(not (0 <= i < n) for i in f):
                    raise ValueError(f"face {f} has out-of-range vertex indices")
                if any(f[t] >= f[t + 1] for t in range(len(f) - 1)):
                    raise ValueError(f"face {f} is not strictly sorted")
            if any(fs[t] >= fs[t + 1] for t in range(len(fs) - 1)):
                raise ValueError(f"dimension {d} face list is not sorted and duplicate-free")
            faces[d] = list(fs)
        if faces and -1 not in faces:
            raise ValueError("nonvoid complex must contain the empty face")
        if -1 in faces and faces[-1] != [()]:
            raise ValueError("dimension -1 must hold exactly the empty face")
        self._labels = labs
        self._faces = faces

    # -- construction -----------------------------------------------------

    @classmethod
    def from_faces(cls, faces: Iterable[Iterable[VertexLabel]]) -> "SimplicialComplex":
        """Build from explicit faces, checking downward closure.

        The empty face is added automatically when any face is given.
        """
        norm = set()
        for f in faces:
            t = tuple(sorted(f))
            if len(set(t)) != len(t):
                raise ValueError(f"face {t} has repeated vertices")
            norm.add(t)
        if norm:
            norm.add(())
        for f in norm:
            for p in range(len(f)):
                sub = f[:p] + f[p + 1 :]
                if sub not in norm:
                    raise ValueError(f"not downward closed: {sub} missing under {f}")
        labels = sorted({v for f in norm for v in f})
        index = {v: i for i, v in enumerate(labels)}
        by_dim: dict[int, list] = {}
        for f in norm:
            by_dim.setdefault(len(f) - 1, []).append(tuple(index[v] for v in f))
        for fs in by_dim.values():
            fs.sort()
        return cls(labels, by_dim)

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[VertexLabel]]) -> "SimplicialComplex":
        """Downward closure of the given maximal faces."""
        closure = set()
        for f in facets:
            t = tuple(sorted(f))
            for r in range(len(t) + 1):
                closure.update(combinations(t, r))
        return cls.from_faces(closure)

    # -- accessors ---------------------------------------------------------

    @property
    def labels(self) -> tuple[VertexLabel, ...]:
        return self._labels

    @property
    def is_void(self) -> bool:
        return not self._faces

    @property
    def dimension(self) -> Optional[int]:
        """Largest face dimension; None for the void complex."""
        return max(self._faces) if self._faces else None

    def dims(self) -> list[int]:
        return sorted(self._faces)

    def face_count(self, d: int) -> int:
        return len(self._faces.get(d, ()))

    @property
    def total_faces(self) -> int:
        return sum(len(fs) for fs in self._faces.values())

    def index_faces(self, d: int) -> list[tuple[int, ...]]:
        """Faces of dimension d as vertex-index tuples (canonical order)."""
        return self._faces.get(d, [])

    def faces(self, d: int) -> list[tuple[VertexLabel, ...]]:
        """Faces of dimension d as label tuples (canonical order)."""
        labs = self._labels
        return [tuple(labs[i] for i in f) for f in self.index_faces(d)]

    def face_set(self) -> frozenset:
        """All faces, as a set of label tuples."""
        return frozenset(f for d in self._faces for f in self.faces(d))

    def dump(self) -> str:
        """One face per line, vertices comma-separated, dimensions ascending."""
        lines = []
        for d in self.dims():
            for f in self.faces(d):
                lines.append(",".join(str(v) for v in f))
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._labels == other._labels and self._faces == other._faces

    __hash__ = None

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        counts = {d: self.face_count(d) for d in self.dims()}
        return f"SimplicialComplex(dim {self.dimension}, faces {counts})"


def _enumerate_upward(
    compatible: list[int], max_faces: int, what: str, max_dim: Optional[int] = None
) -> dict[int, list[tuple[int, ...]]]:
    """The one face enumerator: lexicographic DFS over index subsets.

    ``compatible[i]`` is the bitmask of items that may share a face with
    item i; a face grows only by items above its last one that are
    compatible with every item in it. With ``max_dim`` set, faces stop
    growing at dimension max_dim + 1. Aborts once more than ``max_faces``
    faces are produced.
    """
    faces: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    count = 1
    top = len(compatible) if max_dim is None else max_dim + 1  # largest dimension kept

    def grow(prefix: tuple[int, ...], allowed: int):
        nonlocal count
        bucket = faces.setdefault(len(prefix), [])  # faces of dimension len(prefix)
        deeper = len(prefix) < top  # may these faces grow further?
        a = allowed
        while a:
            low = a & -a
            i = low.bit_length() - 1
            a ^= low  # a now holds the allowed items above i
            face = prefix + (i,)
            count += 1
            if count > max_faces:
                raise ComplexSizeError(
                    f"{what} exceeds the face cap ({max_faces}); raise the cap to proceed"
                )
            bucket.append(face)
            if deeper:
                grow(face, a & compatible[i])

    if top >= 0:
        grow((), (1 << len(compatible)) - 1)
    return {d: fs for d, fs in faces.items() if fs}


def independence_complex(
    g: Graph, max_faces: int = DEFAULT_MAX_FACES, max_dim: Optional[int] = None
) -> SimplicialComplex:
    """Complex whose faces are the independent vertex sets of g.

    With ``max_dim`` set, the result is the (max_dim+1)-skeleton: the faces
    of dimension at most max_dim + 1, which is all that homology up to
    dimension max_dim needs. The face cap counts the skeleton's faces.
    """
    compatible = [~mask for mask in g.adjacency_masks()]
    faces = _enumerate_upward(compatible, max_faces, "independence complex", max_dim)
    return SimplicialComplex(g.vertices, faces)


def matching_complex(
    g: Graph, max_faces: int = DEFAULT_MAX_FACES, max_dim: Optional[int] = None
) -> SimplicialComplex:
    """Complex whose faces are the matchings of g.

    Runs the same enumerator as ``independence_complex``: two edges are
    compatible when they share no endpoint, read off the masks of the edges
    at each endpoint. The conflict masks are built here rather than taken
    from ``line_graph``, so the identity M(G) = I(L(G)) stays a check
    between two independent routes. ``max_dim`` gives the (max_dim+1)-skeleton,
    as for ``independence_complex``.
    """
    labelled = sorted((edge_label(u, v), g.index_of(u), g.index_of(v)) for u, v in g.edges())
    at_vertex = [0] * g.n_vertices  # bitmask of the edges at each vertex
    for j, (_, u, v) in enumerate(labelled):
        at_vertex[u] |= 1 << j
        at_vertex[v] |= 1 << j
    compatible = [~(at_vertex[u] | at_vertex[v]) for _, u, v in labelled]
    faces = _enumerate_upward(compatible, max_faces, "matching complex", max_dim)
    return SimplicialComplex([lab for lab, _, _ in labelled], faces)


def equals_complex(
    c1: SimplicialComplex,
    c2: SimplicialComplex,
    relabel: Optional[dict] = None,
) -> bool:
    """Face-set equality, optionally through an explicit vertex bijection.

    With ``relabel`` absent the identity is used and any mismatch simply
    returns False; an explicit map that is not a bijection between the two
    vertex sets raises ValueError.
    """
    if relabel is None:
        return c1.face_set() == c2.face_set()
    v1, v2 = set(c1.labels), set(c2.labels)
    missing = v1 - set(relabel)
    if missing:
        raise ValueError(f"relabeling undefined on {sorted(missing)[:3]}")
    image = {relabel[v] for v in v1}
    if len(image) != len(v1) or image != v2:
        raise ValueError("relabeling is not a bijection between the vertex sets")
    mapped = frozenset(tuple(sorted(relabel[v] for v in f)) for f in c1.face_set())
    return mapped == c2.face_set()
