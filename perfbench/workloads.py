"""The four benchmark workloads: seeded inputs and one timed pass each.

A workload is prepared once per process (imports and input generation, the
part ``setup_s`` measures) and then run pass by pass. A pass is a list of
operations, one call into the program each, timed one by one; its wall time
is their sum. Every pass also returns one answer per instance for the
correctness gate. Answers are plain JSON values.

Instance ids are shared with ``pins.json`` and with the gate: ``delta(m,n)``
for the independence complex of a delta graph, ``M(...)`` for a matching
complex, ``RP2`` for the projective-plane fixture, ``cert(m,n)`` for one
certificates instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

from gridhomology import cli, folds, graphs, homology
from gridhomology.complexes import SimplicialComplex
from gridhomology.homology import DEFAULT_MAX_MATRIX
from gridhomology.labels import Raw

WORKLOADS = ("delta-verify", "delta-suite", "matching", "certificates")
SUITE_WORKERS = 2

# The minimal 6-vertex triangulation of the real projective plane.
RP2_TRIANGLES = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
)


def _matching_specs(grids, completes, bipartites, low_dim_grid):
    specs = [{"id": f"M(grid {r}x{c})", "kind": "grid", "params": [r, c]} for r, c in grids]
    specs += [{"id": f"M(K{n})", "kind": "complete", "params": [n]} for n in completes]
    specs += [
        {"id": f"M(K{a},{b})", "kind": "bipartite", "params": [a, b]} for a, b in bipartites
    ]
    specs.append({"id": "RP2", "kind": "rp2", "params": []})
    r, c = low_dim_grid
    specs.append(
        {"id": f"M(grid {r}x{c}) dim<=1", "kind": "grid", "params": [r, c], "max_dim": 1}
    )
    return specs


# Full instance lists, and tiny ones for the benchmark's own tests (--quick).
# delta-suite lists (m, top n, matrix cap); rows run n = 1..top. The quick
# list lowers the cap so that the cap path still runs on tiny instances.
# delta-verify also runs a few certificates instances, so that the graphs and
# folds layers are measured on that workload too (a few percent of its pass).
INSTANCES = {
    False: {
        "delta-verify": [(2, 9), (3, 7), (4, 6)],
        "delta-verify-certificates": [(m, n) for m in range(2, 5) for n in (20, 30)],
        "delta-suite": [(2, 11, DEFAULT_MAX_MATRIX), (3, 10, DEFAULT_MAX_MATRIX)],
        "matching": _matching_specs([(3, 5), (4, 4)], [7, 9, 10], [(5, 5)], (4, 6)),
        "certificates": [(m, n) for m in range(2, 5) for n in range(5, 31)],
    },
    True: {
        "delta-verify": [(2, 5), (3, 4), (2, 6)],
        "delta-verify-certificates": [(2, 5), (3, 6)],
        "delta-suite": [(2, 7, 60), (3, 5, 60)],
        "matching": _matching_specs([(2, 3)], [5], [(3, 3)], (3, 3)),
        "certificates": [(m, n) for m in range(2, 4) for n in range(5, 8)],
    },
}


def delta_id(m: int, n: int) -> str:
    return f"delta({m},{n})"


def cert_id(m: int, n: int) -> str:
    return f"cert({m},{n})"


def expected_ids(name: str, quick: bool = False) -> list[str]:
    """Instance ids one pass of a workload must answer, in no particular order."""
    instances = INSTANCES[quick][name]
    if name == "delta-verify":
        certs = INSTANCES[quick]["delta-verify-certificates"]
        return [delta_id(m, n) for m, n in instances] + [cert_id(m, n) for m, n in certs]
    if name == "delta-suite":
        return [delta_id(m, n) for m, top, _ in instances for n in range(1, top + 1)]
    if name == "matching":
        return [spec["id"] for spec in instances]
    return [cert_id(m, n) for m, n in instances]


def _homology_answer(obj: dict) -> dict:
    return {"betti": obj.get("betti", {}), "torsion": obj.get("torsion", {})}


def _quiet(call, *args):
    """Run a CLI call with its human summary on stderr discarded."""
    with contextlib.redirect_stderr(io.StringIO()):
        return call(*args)


def _seeded_names(rng: random.Random, count: int) -> list[str]:
    """Distinct vertex names whose sort order is a random permutation."""
    return [f"x{v:06d}" for v in rng.sample(range(10**6), count)]


class Workload:
    """One prepared workload: its seeded inputs and its pass functions."""

    def __init__(self, name: str, seed: int, workdir: str, quick: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.workdir = workdir
        rng = random.Random(seed)
        instances = list(INSTANCES[quick][name])
        rng.shuffle(instances)
        self.instances = instances
        if name == "delta-verify":
            self.certificates = list(INSTANCES[quick]["delta-verify-certificates"])
            rng.shuffle(self.certificates)
        os.makedirs(workdir, exist_ok=True)
        if name == "matching":
            self.inputs = [self._matching_input(k, spec, rng) for k, spec in enumerate(instances)]

    # -- input generation ---------------------------------------------------

    def _matching_input(self, k: int, spec: dict, rng: random.Random):
        kind, params = spec["kind"], spec["params"]
        if kind == "rp2":
            labs = [Raw(f"p{i}") for i in range(6)]
            return SimplicialComplex.from_facets(
                [tuple(labs[i] for i in t) for t in RP2_TRIANGLES]
            )
        if kind == "grid":
            g = graphs.grid_graph(*params)
        elif kind == "complete":
            vs = [Raw(x) for x in _seeded_names(rng, params[0])]
            g = graphs.Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])
        else:  # bipartite: both sides drawn from one pool, so they interleave
            a, b = params
            names = [Raw(x) for x in _seeded_names(rng, a + b)]
            g = graphs.Graph(names, [(u, v) for u in names[:a] for v in names[a:]])
        path = os.path.join(self.workdir, f"in{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(g.to_json())
        return path

    # -- passes -------------------------------------------------------------

    def run_pass(self, meter=None):
        """One untraced pass: (wall seconds, [(id, answer)], info).

        ``info["ops"]`` lists (operation id, seconds) in order; the wall is
        their sum. ``meter``, if given, is entered just before each operation
        (off the clock) and left just after it; ``leave()`` returns the
        seconds of its own work inside the operation, which are taken off.
        """
        self._meter = meter
        self._ops = []
        answers, info = getattr(self, "_pass_" + self.name.replace("-", "_"))()
        info["ops"] = self._ops
        return sum(secs for _, secs in self._ops), answers, info

    def _op(self, op_id: str, call, *args):
        """Run and time one operation of a pass."""
        if self._meter is not None:
            self._meter.enter()
        t0 = time.perf_counter()
        result = _attempt(call, *args)
        secs = time.perf_counter() - t0
        if self._meter is not None:
            secs -= self._meter.leave()
        self._ops.append((op_id, secs))
        return result

    def replay_pass(self, rows):
        """delta-suite only: the suite's rows again, serially and in process.

        Worker processes lose their trace spans when they exit, so the traced
        run takes library-layer numbers from this replay instead.
        """
        caps = {m: cap for m, _, cap in self.instances}
        keys = [(row["m"], row["n"]) for row in rows]
        results = []
        t0 = time.perf_counter()
        for m, n in keys:
            results.append(_attempt(_verify_row, m, n, caps[m]))
        wall = time.perf_counter() - t0
        return wall, [(delta_id(m, n), _row_answer(r)) for (m, n), r in zip(keys, results)], {}

    def _pass_delta_verify(self):
        results = [self._op(delta_id(m, n), _verify_row, m, n, DEFAULT_MAX_MATRIX)
                   for m, n in self.instances]
        certs = [self._op(cert_id(m, n), certificate_answer, m, n) for m, n in self.certificates]
        answers = [(delta_id(m, n), _row_answer(r)) for (m, n), r in zip(self.instances, results)]
        answers += [(cert_id(m, n), a) for (m, n), a in zip(self.certificates, certs)]
        return answers, {}

    def _pass_delta_suite(self):
        outs = []
        for k, (m, top, cap) in enumerate(self.instances):
            out = os.path.join(self.workdir, f"suite{k}.json")
            if os.path.exists(out):
                os.remove(out)
            argv = ["suite", "--m", str(m), "--n", f"1..{top}", "--workers",
                    str(SUITE_WORKERS), "--max-matrix", str(cap), "-o", out]
            self._op(f"suite(m={m})", _quiet, cli.main, argv)
            outs.append(out)
        rows = []
        for out in outs:
            if os.path.exists(out):  # a missing file drops its rows; the gate counts them
                with open(out, encoding="utf-8") as fh:
                    rows += json.load(fh)["rows"]
        answers = [(delta_id(r["m"], r["n"]), _row_answer(r)) for r in rows]
        return answers, {"rows": rows, "suite_walls": [secs for _, secs in self._ops]}

    def _pass_matching(self):
        results = []
        for spec, src in zip(self.instances, self.inputs):
            if spec["kind"] == "rp2":
                results.append(self._op(spec["id"], homology.reduced_homology, src))
                continue
            out = src[: -len(".json")] + ".out.json"
            argv = ["homology", src, "--complex", "matching", "-o", out]
            if spec.get("max_dim") is not None:
                argv += ["--max-dim", str(spec["max_dim"])]
            results.append((self._op(spec["id"], _quiet, cli.main, argv), out))
        answers = []
        for spec, res in zip(self.instances, results):
            if isinstance(res, tuple):
                code, out = res
                if code != 0:
                    res = {"error": f"exit code {code}"}
                else:
                    with open(out, encoding="utf-8") as fh:
                        res = json.load(fh)
            elif not isinstance(res, dict):
                res = res.to_json_obj()
            answers.append((spec["id"], res if "error" in res else _homology_answer(res)))
        return answers, {}

    def _pass_certificates(self):
        results = [self._op(cert_id(m, n), certificate_answer, m, n) for m, n in self.instances]
        return [(cert_id(m, n), a) for (m, n), a in zip(self.instances, results)], {}


def _attempt(call, *args):
    """Run one operation; an exception becomes an error answer, not a crash."""
    try:
        return call(*args)
    except Exception as exc:  # the gate counts it as a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def _verify_row(m: int, n: int, max_matrix: int) -> dict:
    return cli.verify_instance(m, n, max_matrix=max_matrix).to_json_obj()


def _row_answer(row: dict) -> dict:
    """The gated part of a verify/suite row (its JSON form)."""
    if "error" in row:
        return row
    return {
        "m": row["m"],
        "n": row["n"],
        "status": row["status"],
        "match": row["match"],
        "computed": None if row["computed"] is None else _homology_answer(row["computed"]),
        "skip_reason": row.get("skip_reason"),
    }


def _shape(g) -> list[int]:
    return [g.n_vertices, g.n_edges]


def certificate_answer(m: int, n: int) -> dict:
    """Graph-layer and fold-layer facts for one (m, n); no homology."""
    delta = graphs.delta_graph(m, n)
    named = {k.value: graphs.named_subgraph(k, m, n) for k in graphs.NamedSubgraphKind}
    split_x = folds.check_split(named["X"], folds.split_certificate_x(m, n))
    split_y = folds.check_split(named["Y"], folds.split_certificate_y(m, n))
    trace = folds.fold_reduce(delta)
    ans = {
        "delta": _shape(delta),
        "named": {k: _shape(g) for k, g in named.items()},
        "split_x": {"deleted_is_y": split_x.deleted == named["Y"], "link": _shape(split_x.link)},
        "split_y": {"deleted": _shape(split_y.deleted), "link": _shape(split_y.link)},
        "fold": {
            "removed": trace.vertices_removed,
            "final_vertices": trace.final_vertex_count,
            "contractible": trace.is_contractible,
        },
    }
    if m == 2:
        ans["delta_is_line_of_grid"] = graphs.is_isomorphic(
            delta, graphs.line_graph(graphs.grid_graph(n, 2))
        )
    return ans
