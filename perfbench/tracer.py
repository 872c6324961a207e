"""Span tracing from outside the program, by wrapping its public functions.

While a ``Tracer`` is active, every public function of the layer modules
(the callables in each module's ``__all__``) is replaced by a timing wrapper
in every ``gridhomology`` module that holds it -- ``cli`` binds
``independence_complex``, ``reduced_homology``, ``fold_reduce`` and others by
name at import, and ``reduced_homology`` reaches ``boundary_matrix`` and
``smith_normal_form`` through the globals of ``homology``. A few ``Graph``
methods are wrapped on the class. Hot accessors (``neighbors``,
``has_edge``, face lookups) are left alone: their wrappers would cost more
than they measure.

Each call records a span (name, layer, start, end, parent) plus a few exact
counts taken from its arguments and result after the clock stops. The
layer of a span is the module that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = ("graphs", "folds", "complexes", "homology", "spheres", "cli")
GRAPH_METHODS = ("induced", "edges", "adjacency_masks", "relabel", "to_json", "from_json")

# Exact counts per span, computed from (args, kwargs, result) off the clock.
COUNTERS = {
    "homology.boundary_matrix": lambda a, k, r: (r.rows, r.cols, len(r.entries)),
    "homology.smith_normal_form": lambda a, k, r: (
        a[0].cols,
        r.rank,
        sum(1 for f in r.invariant_factors if f > 1),
    ),
    "complexes.independence_complex": lambda a, k, r: r.total_faces,
    "complexes.matching_complex": lambda a, k, r: r.total_faces,
    "folds.check_split": lambda a, k, r: len((a[1] if len(a) > 1 else k["cert"]).zigzag),
    "folds.fold_reduce": lambda a, k, r: (r.vertices_removed, r.initial.n_vertices),
}

NAME, LAYER, START, END, PARENT, CHILD_S, COUNT = range(7)


class Tracer:
    """Context manager that patches the wrappers in and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "gridhomology" or name.startswith("gridhomology."))
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"gridhomology.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, fn)
                for holder in modules:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._undo.append((holder, key, val))
                            setattr(holder, key, wrapped)
        graph_cls = importlib.import_module("gridhomology.graphs").Graph
        for meth in GRAPH_METHODS:
            raw = graph_cls.__dict__[meth]
            name = f"graphs.Graph.{meth}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, "graphs", raw.__func__))
            else:
                patched = self._wrap(name, "graphs", raw)
            self._undo.append((graph_cls, meth, raw))
            setattr(graph_cls, meth, patched)
        return self

    def __exit__(self, *exc):
        for holder, key, val in reversed(self._undo):
            setattr(holder, key, val)
        self._undo.clear()
        return False

    def _wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                if span[PARENT] is not None:
                    spans[span[PARENT]][CHILD_S] += end - span[START]
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return traced


def _dur(s) -> float:
    return s[END] - s[START]


def _outer(spans, names) -> list:
    """Spans named in ``names`` whose parent is not one of them (no double counting)."""
    return [
        s for s in spans
        if s[NAME] in names and (s[PARENT] is None or spans[s[PARENT]][NAME] not in names)
    ]


def layer_metrics(spans: list, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass. Every name is always present."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(n):
        return by_name.get(n, [])

    def counted(n):  # a span whose call raised has no counts
        return [s for s in named(n) if s[COUNT] is not None]

    def total(n):
        return sum(_dur(s) for s in named(n))

    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s[LAYER]] += _dur(s) - s[CHILD_S]

    snf = counted("homology.smith_normal_form")
    bm = counted("homology.boundary_matrix")
    snf_cols = sum(s[COUNT][0] for s in snf)
    snf_rank = sum(s[COUNT][1] for s in snf)
    enum_s = total("complexes.independence_complex") + total("complexes.matching_complex")
    faces = sum(
        s[COUNT] for n in ("complexes.independence_complex", "complexes.matching_complex")
        for s in counted(n)
    )
    fold_counts = [s[COUNT] for s in counted("folds.fold_reduce")]
    folds_in = sum(c[1] for c in fold_counts)
    graph_spans = [s for s in spans if s[LAYER] == "graphs"]

    out = {
        "homology.snf_s": total("homology.smith_normal_form"),
        "homology.snf_max_s": max((_dur(s) for s in snf), default=0.0),
        "homology.cols_over_rank": snf_cols / snf_rank if snf_rank else 0.0,
        "homology.assemble_s": total("homology.boundary_matrix"),
        "homology.nnz": sum(s[COUNT][2] for s in bm),
        "homology.matrices": len(bm),
        "homology.max_side": max((max(s[COUNT][:2]) for s in bm), default=0),
        "homology.torsion_factors": sum(s[COUNT][2] for s in snf),
        "homology.reduced_self_s": sum(
            _dur(s) - s[CHILD_S] for s in named("homology.reduced_homology")
        ),
        "complexes.independence_s": total("complexes.independence_complex"),
        "complexes.matching_s": total("complexes.matching_complex"),
        "complexes.faces": faces,
        "complexes.faces_per_s": faces / enum_s if enum_s else 0.0,
        "graphs.self_s": self_s["graphs"],
        "graphs.calls": len(graph_spans),
        "graphs.induced_calls": len(named("graphs.Graph.induced")),
        "graphs.isomorphism_s": sum(
            _dur(s) for s in _outer(spans, {"graphs.is_isomorphic", "graphs.find_isomorphism"})
        ),
        "folds.check_split_s": total("folds.check_split"),
        "folds.zigzag_moves": sum(s[COUNT] for s in counted("folds.check_split")),
        "folds.fold_reduce_s": total("folds.fold_reduce"),
        "folds.removal_ratio": (
            sum(c[0] for c in fold_counts) / folds_in if folds_in else 0.0
        ),
        "spheres.predict_s": sum(_dur(s) for s in _outer(spans, {"spheres.predict"})),
        "trace.wall_s": traced_wall,
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = self_s[layer] / traced_wall if traced_wall else 0.0
    return out


def reach(rows: list, m: int, top: int) -> int:
    """Largest n <= top such that the rows (m, 1..n) all exist and are ``ok``.

    A missing (dropped) row stops the count just like a ``skipped`` one.
    """
    ok = {r["n"] for r in rows if r["m"] == m and r["status"] == "ok" and r["match"] is True}
    n = 0
    while n < top and n + 1 in ok:
        n += 1
    return n


def suite_metrics(rows: list, suite_walls: list, entries, workers: int) -> dict:
    """``cli.*`` metrics of one suite pass, from the suite's own JSON rows."""
    row_time = sum(r["wall_time"] for r in rows)
    skipped = [r for r in rows if r["status"] == "skipped"]
    wasted = sum(r["wall_time"] for r in skipped)
    workers_wall = sum(suite_walls) * workers
    top = {m: t for m, t, _ in entries}
    return {
        "cli.row_time_s": row_time,
        "cli.skip_wasted_s": wasted,
        "cli.skip_wasted_share": wasted / row_time if row_time else 0.0,
        "cli.fanout_efficiency": row_time / workers_wall if workers_wall else 0.0,
        "cli.slowest_row_s": max((r["wall_time"] for r in rows), default=0.0),
        "cli.rows_ok": sum(1 for r in rows if r["status"] == "ok"),
        "cli.rows_skipped": len(skipped),
        "cli.reach_m2": reach(rows, 2, top[2]) if 2 in top else 0,
        "cli.reach_m3": reach(rows, 3, top[3]) if 3 in top else 0,
    }


SUITE_METRIC_NAMES = tuple(suite_metrics([], [], [], 1))


def median_metrics(samples: list[dict]) -> dict:
    """Per-name median over several passes' metric dicts."""
    return {k: statistics.median(d[k] for d in samples) for k in samples[0]}
