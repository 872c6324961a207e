"""Correctness gate: every answer against its pin, plus an Euler cross-check.

Pins live in ``pins.json``, one per instance id. Each full-homology answer
is also checked against the reduced Euler characteristic computed here from
face counts by a route that shares no code with the program: the
alternating count of independent sets (of the graph, or of its line graph
for matchings), by lowest-vertex branching over bitmasks.
"""

from __future__ import annotations

import json
import re
from itertools import combinations

_DELTA_RE = re.compile(r"delta\((\d+),(\d+)\)\Z")


def load_pins(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["pins"]


def _alternating_independent_sets(closed: list[int]) -> int:
    """I(G; -1) = sum over independent sets S of (-1)^|S|.

    ``closed[v]`` is the closed-neighbourhood bitmask of vertex v. Branch on
    the lowest remaining vertex: either it is out, or it is in and its
    closed neighbourhood leaves.
    """
    memo = {0: 1}

    def f(s: int) -> int:
        r = memo.get(s)
        if r is None:
            low = s & -s
            r = f(s & ~low) - f(s & ~closed[low.bit_length() - 1])
            memo[s] = r
        return r

    return f((1 << len(closed)) - 1)


def _closed_masks(n: int, edges) -> list[int]:
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def _delta_edges(m: int, n: int):
    """Delta graph on vertices ordered along the spine (e_i, then f^1_i..f^m_i)."""
    index = {}
    for i in range(1, n + 1):
        index[("e", i)] = len(index)
        if i < n:
            for k in range(1, m + 1):
                index[("f", k, i)] = len(index)
    edges = []
    for k in range(1, m + 1):
        for i in range(1, n):
            f = index[("f", k, i)]
            edges += [(index[("e", i)], f), (f, index[("e", i + 1)])]
            if i + 1 < n:
                edges.append((f, index[("f", k, i + 1)]))
    return len(index), edges


def _graph_edges(spec: dict) -> list[tuple[int, int]]:
    kind, params = spec["kind"], spec["params"]
    if kind == "grid":
        rows, cols = params
        edges = []
        for i in range(rows):
            for j in range(cols):
                if i + 1 < rows:
                    edges.append((i * cols + j, (i + 1) * cols + j))
                if j + 1 < cols:
                    edges.append((i * cols + j, i * cols + j + 1))
        return edges
    if kind == "complete":
        return list(combinations(range(params[0]), 2))
    if kind == "bipartite":
        a, b = params
        return [(u, a + v) for u in range(a) for v in range(b)]
    raise ValueError(f"no graph for instance kind {kind!r}")


def reduced_euler(instance_id: str, spec: dict | None, rp2_triangles=()) -> int:
    """Reduced Euler characteristic of an instance's complex, from face counts."""
    found = _DELTA_RE.fullmatch(instance_id)
    if found:
        n_vertices, edges = _delta_edges(int(found.group(1)), int(found.group(2)))
        return -_alternating_independent_sets(_closed_masks(n_vertices, edges))
    if spec["kind"] == "rp2":
        faces = {sub for t in rp2_triangles for r in range(4) for sub in combinations(t, r)}
        return sum(-1 if len(f) % 2 == 0 else 1 for f in faces)
    # matchings of G are the independent sets of its line graph
    edges = _graph_edges(spec)
    line = [(i, j) for i, j in combinations(range(len(edges)), 2) if set(edges[i]) & set(edges[j])]
    return -_alternating_independent_sets(_closed_masks(len(edges), line))


def _betti_euler(betti: dict) -> int:
    return sum((-1) ** int(d) * b for d, b in betti.items())


class Gate:
    """Checks the answers of one workload's passes; counts attempted and failed."""

    def __init__(self, workload: str, pins: dict, specs: dict, rp2_triangles=()):
        self.workload = workload
        self.pins = pins
        self.specs = specs
        self.rp2_triangles = rp2_triangles
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self._euler: dict[str, int] = {}

    def check_pass(self, expected_ids, answers) -> None:
        """Check one pass. A missing, duplicated or unexpected id is a failure."""
        expected = set(expected_ids)
        seen: dict[str, int] = {}
        for iid, _ in answers:
            seen[iid] = seen.get(iid, 0) + 1
        self.attempted += len(expected)
        problems: dict[str, str] = {}
        for iid in expected:
            if seen.get(iid, 0) == 0:
                problems[iid] = "dropped: no answer"
            elif seen[iid] > 1:
                problems[iid] = f"answered {seen[iid]} times"
        for iid, ans in answers:
            if iid not in expected:
                self.attempted += 1
                problems[iid] = "unexpected answer"
            elif iid not in problems:
                why = self._check_one(iid, ans)
                if why:
                    problems[iid] = why
        self.failed += len(problems)
        self.failures += [f"{self.workload} {iid}: {why}" for iid, why in sorted(problems.items())]

    def _check_one(self, iid: str, ans: dict) -> str | None:
        if "error" in ans:
            return ans["error"]
        pin = self.pins.get(iid)
        if pin is None:
            return "no pin for this instance"
        if iid.startswith("cert("):
            return None if ans == pin["answer"] else f"answer {ans} != pin {pin['answer']}"
        if self.workload in ("delta-verify", "delta-suite"):
            if self.workload == "delta-suite" and ans["status"] == "skipped":
                ok = ans["computed"] is None and ans["skip_reason"]
                return None if ok else "skipped row without a reason, or with a result"
            if ans["status"] != "ok":
                return f"status {ans['status']!r}"
            if ans["match"] is not True:
                return "the program reports a mismatch with the prediction"
            ans = ans["computed"]
        got = {"betti": ans["betti"], "torsion": ans["torsion"]}
        want = {"betti": pin["betti"], "torsion": pin["torsion"]}
        if got != want:
            return f"homology {got} != pin {want}"
        spec = self.specs.get(iid)
        if spec is not None and spec.get("max_dim") is not None:
            return None  # truncated homology: no Euler identity
        if iid not in self._euler:
            self._euler[iid] = reduced_euler(iid, spec, self.rp2_triangles)
        if _betti_euler(got["betti"]) != self._euler[iid]:
            return f"betti {got['betti']} disagree with reduced Euler {self._euler[iid]}"
        return None
