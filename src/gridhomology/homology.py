"""Exact reduced integral homology via sparse Smith normal form.

All arithmetic is over Python's arbitrary-precision integers: elimination
pivots can grow entries far past any fixed width, and silent overflow would
corrupt ranks and torsion. The reduction runs in two phases: a sparse pass
that eliminates unit pivots in Markowitz (least fill) order -- which
consumes essentially all of a simplicial boundary matrix -- and a dense
classical pass on whatever small residual is left.

``reduced_homology`` sweeps the boundary maps from the top dimension down
and *clears* as it goes (the "twist" of Chen & Kerber, carried over to Smith
form): every d-face that the sparse pass on the boundary map from (d+1)-faces
to d-faces used as a unit (+-1) pivot row is left out as a column of the
boundary map from d-faces to (d-1)-faces. Residual pivots never clear. This
is exact over Z:

* The sparse pass only subtracts multiples of a pivot row from rows still
  present, then drops that row and its pivot column. So, with the pivots
  (r_1, c_1), ..., (r_k, c_k) in elimination order, L * A[R, C] = U where
  L is unit lower triangular and U is upper triangular with +-1 on the
  diagonal: the block A[R, C] of pivot rows by pivot columns is unimodular.
* Hence the chains dtau for the pivot (d+1)-faces tau, together with the
  d-faces that are not pivot rows, form a Z-basis of the d-chains (their
  coordinate matrix is block triangular with A[R, C] and an identity on the
  diagonal).
* The lower boundary map vanishes on every dtau. In that basis it is zero
  on the first block and equal to its columns at the unpivoted d-faces on
  the second, and a unimodular change of basis keeps the invariant factors.
  So the cleared matrix has the same rank and the same nonzero invariant
  factors as the full one.

The matrix cap is checked for every dimension from the face counts before
any matrix is assembled or reduced, on the uncleared shapes, so an over-cap
complex fails fast and the cap means what it did before clearing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .complexes import SimplicialComplex

__all__ = [
    "SparseIntMatrix",
    "SnfResult",
    "HomologyResult",
    "MatrixSizeError",
    "boundary_matrix",
    "smith_normal_form",
    "reduced_homology",
    "reduced_euler_characteristic",
    "DEFAULT_MAX_MATRIX",
]

DEFAULT_MAX_MATRIX = 20_000


class MatrixSizeError(RuntimeError):
    """A boundary matrix exceeded the configured dimension cap."""


@dataclass(frozen=True)
class SparseIntMatrix:
    """Sparse integer matrix; only nonzero entries are stored."""

    rows: int
    cols: int
    entries: dict  # (row, col) -> nonzero int

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) out of bounds")
            if v == 0:
                raise ValueError(f"zero stored at ({r},{c})")

    __hash__ = None


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    ``unit_pivot_rows`` holds the rows the sparse pass eliminated with a +-1
    pivot; ``reduced_homology`` clears them from the next boundary map down.
    It is bookkeeping, not part of the result, so equality ignores it.
    """

    invariant_factors: tuple[int, ...]
    unit_pivot_rows: frozenset = field(default=frozenset(), compare=False, repr=False)

    def __post_init__(self):
        fs = self.invariant_factors
        for i, d in enumerate(fs):
            if d < 1:
                raise ValueError("invariant factors must be positive")
            if i and fs[i] % fs[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class HomologyResult:
    """Reduced Betti numbers and torsion coefficients, by dimension.

    Zero Betti numbers and empty torsion lists are omitted entirely; the
    dimensions range over -1 upward (the empty complex has betti {-1: 1}).
    """

    betti: dict = field(default_factory=dict)
    torsion: dict = field(default_factory=dict)

    def __post_init__(self):
        for d, b in self.betti.items():
            if b <= 0:
                raise ValueError(f"betti[{d}] must be positive when present")
        for d, ts in self.torsion.items():
            if not ts or any(t <= 1 for t in ts):
                raise ValueError(f"torsion[{d}] must list coefficients > 1")

    @property
    def torsion_free(self) -> bool:
        return not self.torsion

    def to_json_obj(self) -> dict:
        obj: dict = {}
        if self.betti:
            obj["betti"] = {str(d): self.betti[d] for d in sorted(self.betti)}
        if self.torsion:
            obj["torsion"] = {str(d): list(self.torsion[d]) for d in sorted(self.torsion)}
        return obj

    __hash__ = None


def boundary_matrix(
    c: SimplicialComplex, d: int, cleared: frozenset = frozenset()
) -> SparseIntMatrix:
    """Boundary operator from d-faces to (d-1)-faces with alternating signs.

    The chain complex is augmented: for d = 0 the target is the single empty
    face, so the matrix is an all-ones row. The d-faces whose indices are in
    ``cleared`` get no column; the remaining columns are numbered in face
    order, and row i is always the i-th (d-1)-face.
    """
    if d < 0:
        raise ValueError(f"boundary dimension must be >= 0, got {d}")
    if c.is_void:
        return SparseIntMatrix(0, 0, {})
    hi = c.index_faces(d)
    if cleared:
        hi = [f for j, f in enumerate(hi) if j not in cleared]
    if d == 0:
        return SparseIntMatrix(1, len(hi), {(0, j): 1 for j in range(len(hi))})
    lo = c.index_faces(d - 1)
    lo_index = {f: i for i, f in enumerate(lo)}
    entries = {}
    for j, face in enumerate(hi):
        sign = 1
        for p in range(len(face)):
            sub = face[:p] + face[p + 1 :]
            try:
                entries[(lo_index[sub], j)] = sign
            except KeyError:
                raise ValueError(f"complex is not downward closed at {sub}") from None
            sign = -sign
    return SparseIntMatrix(len(lo), len(hi), entries)


def smith_normal_form(m: SparseIntMatrix) -> SnfResult:
    """Invariant factors over the integers, exactly, and the unit-pivot rows."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    # candidate heap of (markowitz cost, row, col) for entries of value +-1;
    # entries are revalidated on pop, so stale items are harmless
    heap: list[tuple[int, int, int]] = []
    for r, rw in rows.items():
        for c, v in rw.items():
            if v == 1 or v == -1:
                heapq.heappush(heap, ((len(rw) - 1) * (len(cols[c]) - 1), r, c))

    pivot_rows: list[int] = []
    while heap:
        cost, r, c = heapq.heappop(heap)
        rw = rows.get(r)
        if rw is None:
            continue
        v = rw.get(c)
        if v is None or (v != 1 and v != -1):
            continue
        cur_cost = (len(rw) - 1) * (len(cols[c]) - 1)
        if cur_cost > cost and heap and heap[0][0] < cur_cost:
            heapq.heappush(heap, (cur_cost, r, c))
            continue

        # eliminate: clear column c with row operations, then drop the pivot
        # row and column (clearing the row afterwards would touch nothing else)
        prow = rows.pop(r)
        for c2 in prow:
            s = cols[c2]
            s.discard(r)
            if not s:
                del cols[c2]
        for r2 in list(cols.get(c, ())):
            row2 = rows[r2]
            q = row2[c] * v  # v is +-1, so this is the exact multiplier
            for c2, pv in prow.items():
                nv = row2.get(c2, 0) - q * pv
                if nv:
                    if c2 not in row2:
                        cols.setdefault(c2, set()).add(r2)
                    row2[c2] = nv
                    if nv == 1 or nv == -1:
                        heapq.heappush(
                            heap,
                            ((len(row2) - 1) * (len(cols[c2]) - 1), r2, c2),
                        )
                else:
                    if c2 in row2:
                        del row2[c2]
                        s = cols[c2]
                        s.discard(r2)
                        if not s:
                            del cols[c2]
            if not row2:
                del rows[r2]
        cols.pop(c, None)
        pivot_rows.append(r)

    residual: list[int] = []
    if rows:
        rindex = sorted(rows)
        cindex = sorted({c for rw in rows.values() for c in rw})
        dense = [[rows[r].get(c, 0) for c in cindex] for r in rindex]
        residual = _dense_diagonalize(dense)

    factors = [1] * len(pivot_rows) + _divisibility_chain(residual)
    return SnfResult(tuple(factors), frozenset(pivot_rows))


def _dense_diagonalize(a: list[list[int]]) -> list[int]:
    """Diagonalize a small dense integer matrix in place.

    Returns the absolute diagonal values (no divisibility normalization).
    Classic smallest-pivot scheme: remainders strictly shrink the pivot, so
    each position terminates.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    out: list[int] = []
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    q = v // p
                    if q:
                        ri, rt = a[i], a[t]
                        for j in range(t, n):
                            ri[j] -= q * rt[j]
                    if a[i][t]:  # remainder smaller than |p|: make it the pivot
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                v = a[t][j]
                if v:
                    q = v // p
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if not dirty:
                break
        out.append(abs(a[t][t]))
        t += 1
    return out


def _divisibility_chain(values: list[int]) -> list[int]:
    """Normalize diagonal values into a divisibility chain (gcd/lcm passes)."""
    ones = sum(1 for v in values if abs(v) == 1)
    vals = sorted(abs(v) for v in values if abs(v) > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i]:
                    g = gcd(vals[i], vals[j])
                    vals[i], vals[j] = g, vals[i] * vals[j] // g
                    changed = True
        if changed:
            vals.sort()
    return [1] * ones + vals


def reduced_homology(
    c: SimplicialComplex,
    max_dim: Optional[int] = None,
    max_matrix: Optional[int] = DEFAULT_MAX_MATRIX,
) -> HomologyResult:
    """Reduced Betti numbers and torsion from boundary-matrix ranks.

    betti[d] = #d-faces - rank(boundary_d) - rank(boundary_{d+1}); torsion in
    dimension d collects the invariant factors of boundary_{d+1} exceeding 1.
    Computed over the augmented complex: a contractible complex reports all
    zeros and the empty complex reports betti {-1: 1}.

    First every boundary_d for d in 0..hi+1 (hi = top dimension, or max_dim)
    is checked against ``max_matrix`` from the face counts, at its uncleared
    shape; the lowest over-cap dimension raises MatrixSizeError before any
    matrix is built. Then d runs from hi+1 down to 0, and each boundary_d
    is assembled without the columns of the d-faces that were unit-pivot
    rows of boundary_{d+1} (see the module docstring for why this is exact).
    """
    if c.is_void:
        return HomologyResult({}, {})
    top = c.dimension
    hi = top if max_dim is None else min(max_dim, top)
    if max_matrix is not None:
        for d in range(0, hi + 2):
            rows, cols = c.face_count(d - 1), c.face_count(d)  # d = 0: the empty face
            if rows > max_matrix or cols > max_matrix:
                raise MatrixSizeError(
                    f"boundary matrix at dimension {d} is {rows}x{cols}, "
                    f"over the cap of {max_matrix}"
                )
    snf: dict[int, SnfResult] = {}
    cleared: frozenset = frozenset()
    for d in range(hi + 1, -1, -1):
        snf[d] = smith_normal_form(boundary_matrix(c, d, cleared))
        cleared = snf[d].unit_pivot_rows
    betti: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for d in range(-1, hi + 1):
        n_d = c.face_count(d)
        rank_d = snf[d].rank if d >= 0 else 0
        rank_up = snf[d + 1].rank
        b = n_d - rank_d - rank_up
        assert b >= 0, f"negative betti at dimension {d}"
        if b:
            betti[d] = b
        tors = [f for f in snf[d + 1].invariant_factors if f > 1]
        if tors:
            torsion[d] = tors
    return HomologyResult(betti, torsion)


def reduced_euler_characteristic(c: SimplicialComplex) -> int:
    """Alternating face count over the augmented complex (empty face at -1)."""
    return sum((1 if d % 2 == 0 else -1) * c.face_count(d) for d in c.dims())
