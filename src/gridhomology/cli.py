"""Command-line front end: build graphs, compute homology, and verify the
wedge-of-spheres predictions against exact computation.

Machine-readable JSON (or CSV for suite runs) goes to stdout or the -o
target; human-readable summaries go to stderr. Exit codes: 0 all checks
pass, 1 mathematical mismatch, 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    DEFAULT_MAX_FACES,
    ComplexSizeError,
    independence_complex,
    matching_complex,
)
from .folds import (
    CertificateError,
    check_split,
    fold_reduce,
    split_certificate_x,
    split_certificate_y,
)
from .graphs import (
    Graph,
    NamedSubgraphKind,
    delta_graph,
    grid_graph,
    line_graph,
    named_subgraph,
)
from .homology import (
    DEFAULT_MAX_MATRIX,
    HomologyResult,
    MatrixSizeError,
    reduced_homology,
)
from .spheres import WedgeDescriptor, descriptor_betti, predict, suspend, wedge

__all__ = [
    "VerificationReport",
    "build_family",
    "verify_instance",
    "run_step_checks",
    "main",
    "EXIT_OK",
    "EXIT_MISMATCH",
    "EXIT_USAGE",
    "EXIT_RESOURCE",
]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass
class VerificationReport:
    """One verified (m, n) instance: prediction, computation, verdicts."""

    m: int
    n: int
    predicted: WedgeDescriptor
    computed: Optional[HomologyResult]
    torsion_free: Optional[bool]
    match: Optional[bool]
    status: str  # "ok" or "skipped"
    reduction_stats: dict
    wall_time: float
    skip_reason: Optional[str] = None

    def to_json_obj(self) -> dict:
        obj = {
            "m": self.m,
            "n": self.n,
            "predicted": self.predicted.to_json_obj(),
            "predicted_text": str(self.predicted),
            "computed": None if self.computed is None else self.computed.to_json_obj(),
            "torsion_free": self.torsion_free,
            "match": self.match,
            "status": self.status,
            "reduction_stats": self.reduction_stats,
            "wall_time": self.wall_time,
        }
        if self.skip_reason is not None:
            obj["skip_reason"] = self.skip_reason
        return obj


def build_family(family: str, m: int, n: int) -> Graph:
    """Resolve a --family spec to a graph."""
    if family == "grid":
        return grid_graph(m, n)
    if family == "delta":
        return delta_graph(m, n)
    if family == "line-of-grid":
        return line_graph(grid_graph(m, n))
    if family.startswith("named:"):
        name = family[len("named:") :]
        try:
            kind = NamedSubgraphKind(name)
        except ValueError:
            choices = ", ".join(k.value for k in NamedSubgraphKind)
            raise ValueError(f"unknown named subgraph {name!r} (choices: {choices})") from None
        return named_subgraph(kind, m, n)
    raise ValueError(
        f"unknown family {family!r} (choices: grid, delta, line-of-grid, named:<kind>)"
    )


def _homology(
    g: Graph,
    stats: dict,
    max_faces: int,
    max_matrix: Optional[int],
    matching: bool = False,
    reduce: bool = False,
    max_dim: Optional[int] = None,
) -> HomologyResult:
    """The one graph -> (fold) -> complex -> homology path of every command.

    Fills ``stats`` (vertex counts before and after folding, faces
    enumerated) as it goes, so a caller that catches a cap error still
    reports how far the computation got. With ``max_dim`` set, only the
    (max_dim+1)-skeleton is enumerated, and ``faces_enumerated`` counts it.
    """
    builder = matching_complex if matching else independence_complex
    if reduce and matching:
        # fold on the line graph: matchings of g are independent sets there
        g, builder = line_graph(g), independence_complex
    stats.update(vertices_before=g.n_vertices, vertices_after=g.n_vertices, faces_enumerated=0)
    if reduce:
        trace = fold_reduce(g)
        stats["vertices_after"] = trace.final_vertex_count
        if trace.is_contractible:
            return HomologyResult({}, {})
        g = trace.final
    comp = builder(g, max_faces, max_dim)
    stats["faces_enumerated"] = comp.total_faces
    return reduced_homology(comp, max_dim=max_dim, max_matrix=max_matrix)


def verify_instance(
    m: int,
    n: int,
    reduce: bool = False,
    max_faces: int = DEFAULT_MAX_FACES,
    max_matrix: Optional[int] = DEFAULT_MAX_MATRIX,
) -> VerificationReport:
    """Build the delta graph, compute its homology, compare with prediction."""
    t0 = time.perf_counter()
    predicted = predict(m, n)
    stats: dict = {}
    computed = torsion_free = match = skip_reason = None
    try:
        computed = _homology(delta_graph(m, n), stats, max_faces, max_matrix, reduce=reduce)
        torsion_free = computed.torsion_free
        match = descriptor_betti(predicted) == computed.betti and torsion_free
    except (ComplexSizeError, MatrixSizeError) as exc:
        skip_reason = str(exc)
    return VerificationReport(
        m=m,
        n=n,
        predicted=predicted,
        computed=computed,
        torsion_free=torsion_free,
        match=match,
        status="ok" if skip_reason is None else "skipped",
        reduction_stats=stats,
        wall_time=round(time.perf_counter() - t0, 6),
        skip_reason=skip_reason,
    )


def run_step_checks(
    m: int,
    n: int,
    max_faces: int = DEFAULT_MAX_FACES,
    max_matrix: Optional[int] = DEFAULT_MAX_MATRIX,
) -> dict:
    """Check the whole deletion pipeline for one (m, n) at the Betti level.

    Each claimed homotopy equivalence or wedge splitting becomes an exact
    Betti-number identity (wedges add, suspensions shift); the two split
    certificates are validated structurally as well.
    """
    if m < 2 or n < 5:
        raise ValueError(f"step checks need m >= 2 and n >= 5, got ({m},{n})")

    def betti(g: Graph) -> WedgeDescriptor:  # the wedge with g's reduced Betti numbers
        return WedgeDescriptor.from_betti(_homology(g, {}, max_faces, max_matrix).betti)

    delta = delta_graph(m, n)
    gx = named_subgraph(NamedSubgraphKind.X, m, n)
    gy = named_subgraph(NamedSubgraphKind.Y, m, n)
    gz = named_subgraph(NamedSubgraphKind.Z, m, n)
    gzp = named_subgraph(NamedSubgraphKind.ZPRIME, m, n)
    gzpp = named_subgraph(NamedSubgraphKind.ZDOUBLEPRIME, m, n)
    gw = named_subgraph(NamedSubgraphKind.W, m, n)

    b_delta = betti(delta)
    b_x = betti(gx)
    b_y = betti(gy)
    b_d3 = betti(delta_graph(m, n - 3))
    b_d4 = betti(delta_graph(m, n - 4))

    steps: list[dict] = []

    def record(name: str, passed: bool, detail: dict):
        detail = {
            k: descriptor_betti(v) if isinstance(v, WedgeDescriptor) else v
            for k, v in detail.items()
        }
        steps.append({"name": name, "passed": bool(passed), "detail": detail})

    record("delta_equals_x", b_delta == b_x, {"delta": b_delta, "x": b_x})

    # splitting X at e_{n-2}
    cert_x = split_certificate_x(m, n)
    try:
        split_x = check_split(gx, cert_x)
        record(
            "x_split_certificate",
            split_x.deleted == gy,
            {"certificate": cert_x.to_json_obj(), "deleted_is_y": split_x.deleted == gy},
        )
    except CertificateError as exc:
        split_x = None
        record("x_split_certificate", False, {"error": str(exc)})
    if split_x is not None:
        b_xlink = betti(split_x.link)
        record(
            "x_split_betti_additivity",
            b_x == wedge([b_y, suspend(b_xlink, 1)]),
            {"x": b_x, "y": b_y, "link": b_xlink},
        )
        record(
            "x_link_suspension",
            b_xlink == suspend(b_d3, 1),
            {"link": b_xlink, "delta_n3": b_d3},
        )
    record(
        "x_wedge",
        b_x == wedge([b_y, suspend(b_d3, 2)]),
        {"x": b_x, "y": b_y, "delta_n3": b_d3},
    )

    # splitting Y at e_n
    cert_y = split_certificate_y(m, n)
    try:
        split_y = check_split(gy, cert_y)
        record("y_split_certificate", True, {"certificate": cert_y.to_json_obj()})
    except CertificateError as exc:
        split_y = None
        record("y_split_certificate", False, {"error": str(exc)})
    if split_y is not None:
        b_ylink = betti(split_y.link)
        b_ydel = betti(split_y.deleted)
        record(
            "y_split_betti_additivity",
            b_y == wedge([b_ydel, suspend(b_ylink, 1)]),
            {"y": b_y, "deleted": b_ydel, "link": b_ylink},
        )
        b_z = betti(gz)
        b_zp = betti(gzp)
        b_zpp = betti(gzpp)
        record(
            "z_chain",
            b_z == b_zp == b_zpp == b_ylink,
            {"z": b_z, "zprime": b_zp, "zdoubleprime": b_zpp, "y_link": b_ylink},
        )
        record("z_suspension", b_z == suspend(b_d4, m), {"z": b_z, "delta_n4": b_d4})
        b_w = betti(gw)
        record(
            "w_deleted",
            b_w == b_ydel and b_w == suspend(b_d3, m),
            {"w": b_w, "y_deleted": b_ydel, "delta_n3": b_d3},
        )
    record(
        "y_wedge",
        b_y == wedge([suspend(b_d3, m), suspend(b_d4, m + 1)]),
        {"y": b_y, "delta_n3": b_d3, "delta_n4": b_d4},
    )
    record(
        "recursion_total",
        b_delta == predict(m, n),
        {"delta": b_delta, "predicted": predict(m, n)},
    )

    return {
        "m": m,
        "n": n,
        "steps": steps,
        "all_passed": all(s["passed"] for s in steps),
    }


# -- command implementations ------------------------------------------------


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_build(args) -> int:
    g = build_family(args.family, args.m, args.n)
    _emit(args, g.to_json())
    print(
        f"built {args.family} (m={args.m}, n={args.n}): "
        f"{g.n_vertices} vertices, {g.n_edges} edges",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_homology(args) -> int:
    if args.input == "-":
        g = Graph.from_json(sys.stdin.read())
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            g = Graph.from_json(fh.read())
    stats: dict = {}
    matching = args.complex == "matching"
    result = _homology(
        g, stats, args.max_faces, args.max_matrix, matching, args.reduce, args.max_dim
    )
    _emit(args, _json_dumps(result.to_json_obj()))
    print(
        f"homology of {args.complex} complex: betti {result.betti or {}}, "
        f"torsion {result.torsion or {}}; reduction {stats}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    d = predict(args.m, args.n)
    _emit(args, _json_dumps(d.to_json_obj()))
    print(str(d), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_instance(
        args.m, args.n, reduce=args.reduce, max_faces=args.max_faces, max_matrix=args.max_matrix
    )
    _emit(args, _json_dumps(report.to_json_obj()))
    if report.status == "skipped":
        print(f"verify m={args.m} n={args.n}: skipped ({report.skip_reason})", file=sys.stderr)
        return EXIT_RESOURCE
    verdict = "match" if report.match else "MISMATCH"
    print(
        f"verify m={args.m} n={args.n}: {verdict}, predicted {report.predicted}, "
        f"computed betti {report.computed.betti or {}}",
        file=sys.stderr,
    )
    return EXIT_OK if report.match else EXIT_MISMATCH


def _suite_worker(task) -> dict:
    return verify_instance(*task).to_json_obj()  # task: (m, n, reduce, max_faces, max_matrix)


def cmd_suite(args) -> int:
    ms = _parse_spec(args.m)
    ns = _parse_spec(args.n)
    tasks = [(m, n, args.reduce, args.max_faces, args.max_matrix) for m in ms for n in ns]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_suite_worker, tasks))
    else:
        rows = [_suite_worker(t) for t in tasks]
    rows.sort(key=lambda r: (r["m"], r["n"]))

    n_pass = sum(1 for r in rows if r["match"] is True)
    n_skip = sum(1 for r in rows if r["status"] == "skipped")
    n_fail = len(rows) - n_pass - n_skip
    summary = {"rows": len(rows), "pass": n_pass, "fail": n_fail, "skipped": n_skip}

    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "m",
                "n",
                "status",
                "match",
                "torsion_free",
                "predicted",
                "betti",
                "torsion",
                "vertices_before",
                "vertices_after",
                "faces_enumerated",
                "wall_time",
            ]
        )
        for r in rows:
            computed = r["computed"] or {}
            writer.writerow(
                [
                    r["m"],
                    r["n"],
                    r["status"],
                    r["match"],
                    r["torsion_free"],
                    r["predicted_text"],
                    json.dumps(computed.get("betti", {}), separators=(",", ":")),
                    json.dumps(computed.get("torsion", {}), separators=(",", ":")),
                    r["reduction_stats"]["vertices_before"],
                    r["reduction_stats"]["vertices_after"],
                    r["reduction_stats"]["faces_enumerated"],
                    r["wall_time"],
                ]
            )
        _emit(args, buf.getvalue())
    else:
        _emit(args, _json_dumps({"rows": rows, "summary": summary}))

    print(
        f"suite: {summary['rows']} rows, {n_pass} pass, {n_fail} fail, {n_skip} skipped",
        file=sys.stderr,
    )
    if rows and n_skip == len(rows):
        print("warning: every instance was skipped by the resource caps", file=sys.stderr)
    return EXIT_MISMATCH if n_fail else EXIT_OK


def cmd_steps(args) -> int:
    report = run_step_checks(
        args.m, args.n, max_faces=args.max_faces, max_matrix=args.max_matrix
    )
    _emit(args, _json_dumps(report))
    for s in report["steps"]:
        mark = "ok" if s["passed"] else "FAIL"
        print(f"step {s['name']}: {mark}", file=sys.stderr)
    if not report["all_passed"]:
        failing = next(s["name"] for s in report["steps"] if not s["passed"])
        print(f"step check failed: {failing}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _parse_spec(spec: str) -> list[int]:
    """Parse a range spec: '4', '1..8', or '2,3,5'."""
    out: set[int] = set()
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.update(range(int(lo), int(hi) + 1))
        else:
            out.add(int(part))
    if not out or min(out) < 1:
        raise ValueError(f"invalid range spec {spec!r}")
    return sorted(out)


def _add_caps(p: argparse.ArgumentParser):
    p.add_argument("--max-faces", type=int, default=DEFAULT_MAX_FACES, help="face-count cap")
    p.add_argument(
        "--max-matrix", type=int, default=DEFAULT_MAX_MATRIX, help="boundary-matrix dimension cap"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhomology",
        description="Build grid-family graphs, compute exact integral homology of their "
        "independence/matching complexes, and verify wedge-of-spheres predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a graph as canonical JSON")
    p.add_argument("--family", required=True, help="grid | delta | line-of-grid | named:<kind>")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("homology", help="reduced integral homology of a graph's complex")
    p.add_argument("input", help="graph JSON path, or - for stdin")
    p.add_argument(
        "--complex", choices=("independence", "matching"), default="independence"
    )
    p.add_argument("--reduce", action="store_true", help="fold-reduce the graph first")
    p.add_argument(
        "--max-dim",
        type=int,
        default=None,
        help="highest dimension to compute; only the (max_dim+1)-skeleton is enumerated",
    )
    _add_caps(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("predict", help="predicted homotopy type for the delta family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="compare computed homology against the prediction")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reduce", action="store_true")
    _add_caps(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="verify a whole (m, n) range")
    p.add_argument("--m", required=True, help="range spec, e.g. 2 or 1..3 or 2,4")
    p.add_argument("--n", required=True, help="range spec, e.g. 1..8")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--workers", type=int, default=1)
    _add_caps(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("steps", help="check the deletion pipeline step by step")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_caps(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_steps)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ComplexSizeError, MatrixSizeError) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
