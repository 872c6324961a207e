"""Tests of the benchmark itself, on the tiny instance lists (--quick).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gridhomology import cli, complexes, graphs, homology  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _listed(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_line_has_every_listed_metric(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr
    last = _last_json(p.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == _listed("per_layer" if trace else "end_to_end")
    assert "failed_frac" in p.stdout


def test_all_runs_every_workload_in_one_command():
    p = _run("all", 0)
    assert p.returncode == 0, p.stderr
    results = [json.loads(line) for line in p.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    assert all(r["correct"] for r in results)


def _traced_span_names(tmp_path):
    names = {}
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, 1, str(tmp_path / name), quick=True)
        _, _, info = wl.run_pass()
        with tracer.Tracer() as tr:
            if name == "delta-suite":
                wl.replay_pass(info["rows"])
            else:
                wl.run_pass()
        names[name] = tr.spans
    return names


def test_wrappers_see_every_layer_and_are_removed_after(tmp_path):
    spans = _traced_span_names(tmp_path)
    seen = {s[tracer.NAME] for ss in spans.values() for s in ss}
    assert {n.split(".")[0] for n in seen} == set(tracer.LAYERS)
    for needed in (
        "cli.main", "cli.verify_instance", "spheres.predict",
        "complexes.independence_complex", "complexes.matching_complex",
        "homology.reduced_homology", "homology.boundary_matrix", "homology.smith_normal_form",
        "graphs.delta_graph", "graphs.named_subgraph", "graphs.Graph.induced",
        "graphs.is_isomorphic", "folds.check_split", "folds.fold_reduce",
    ):
        assert needed in seen, needed
    # delta-verify carries the graphs and folds layers as well as homology
    dv = spans["delta-verify"]
    dv_names = {s[tracer.NAME] for s in dv}
    for needed in ("folds.check_split", "folds.fold_reduce", "graphs.Graph.induced",
                   "graphs.is_isomorphic", "homology.smith_normal_form"):
        assert needed in dv_names, needed
    # cli binds independence_complex by name at import; that binding is wrapped too
    parents = {dv[s[tracer.PARENT]][tracer.NAME] for s in dv
               if s[tracer.NAME] == "complexes.independence_complex"}
    assert parents == {"cli.verify_instance"}
    assert cli.independence_complex is complexes.independence_complex
    assert not hasattr(homology.smith_normal_form, "__wrapped__")
    assert not hasattr(graphs.Graph.induced, "__wrapped__")


def test_layer_metrics_name_every_listed_metric(tmp_path):
    spans = _traced_span_names(tmp_path)["certificates"]
    names = set(tracer.layer_metrics(spans, 1.0)) | set(tracer.SUITE_METRIC_NAMES)
    names.add("trace.overhead_s")
    assert names == set(_listed("per_layer"))


def test_corrupted_pin_fails_the_run(monkeypatch, capsys):
    pins = gate.load_pins(BENCH / "pins.json")
    pins["delta(2,5)"] = dict(pins["delta(2,5)"], betti={"2": 99})
    pins["cert(3,6)"] = dict(pins["cert(3,6)"], answer={})
    monkeypatch.setattr(gate, "load_pins", lambda path: pins)
    argv = ["--workload", "delta-verify", "--seed", "7", "--seconds", "1", "--trace", "0",
            "--quick"]
    assert run.main(argv) == 1
    out, err = capsys.readouterr()
    last = _last_json(out)
    assert last["correct"] is False and last["failed"] >= 2
    assert "delta(2,5)" in err and "cert(3,6)" in err


def _gate(workload="delta-suite"):
    return gate.Gate(workload, gate.load_pins(BENCH / "pins.json"), {})


def _row(n, status="ok", m=2):
    ans = {"m": m, "n": n, "status": status, "match": None, "computed": None,
           "skip_reason": "over the cap"}
    if status == "ok":
        pin = gate.load_pins(BENCH / "pins.json")[workloads.delta_id(m, n)]
        ans.update(match=True, skip_reason=None,
                   computed={"betti": pin["betti"], "torsion": pin["torsion"]})
    return (workloads.delta_id(m, n), ans)


def test_scaling_divides_by_the_mean_kernel_time_of_each_operation():
    ref = calibrate.REF_S
    ops = [("a", 2.0), ("b", 1.0)]
    scaled = worker.scaled_ops(ops, [[ref, 3 * ref], [ref / 2]])
    assert scaled == pytest.approx({"a": 1.0, "b": 2.0})
    passes = [{"scaled": {"a": 1.0, "b": 5.0}}, {"scaled": {"a": 3.0, "b": 1.0}},
              {"scaled": {"a": 2.0, "b": 2.0}}]
    assert worker.scaled_wall(passes) == pytest.approx(2.0 + 2.0)


def test_the_meter_samples_inside_operations_and_their_time_is_taken_off(tmp_path):
    wl = workloads.Workload("delta-verify", 1, str(tmp_path), quick=True)
    meter = worker.Meter()
    wall, answers, info = wl.run_pass(meter)
    assert [op for op, _ in info["ops"]] == [iid for iid, _ in answers]
    assert len(meter.samples) == len(answers) and all(meter.samples)
    assert wall == pytest.approx(sum(secs for _, secs in info["ops"]))
    # a long operation is sampled inside, and the samples do not count in it
    t0 = time.perf_counter()
    meter.enter()
    while time.perf_counter() - t0 < 3 * calibrate.SAMPLE_EVERY_S:
        pass
    inside = meter.leave()
    assert len(meter.samples[-1]) >= 3 and inside == pytest.approx(sum(meter.samples[-1][1:]))


def test_on_the_suite_the_meter_samples_inside_forked_children(tmp_path):
    meter = worker.Meter(str(tmp_path / "kernels"))
    meter.samples = []
    meter.enter()
    pid = os.fork()
    if pid == 0:  # a pool worker stand-in: busy for three sampling periods
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * calibrate.SAMPLE_EVERY_S:
            pass
        os._exit(0)
    os.waitpid(pid, 0)
    inside = meter.leave()
    child = meter.samples[-1][1:]
    assert len(child) >= 2 and inside == pytest.approx(sum(child))
    assert not os.listdir(tmp_path / "kernels")


def test_gate_allows_skipped_rows_but_not_dropped_ones():
    ids = [workloads.delta_id(2, n) for n in range(1, 6)]
    g = _gate()
    g.check_pass(ids, [_row(1), _row(2), _row(3), _row(4, "skipped"), _row(5, "skipped")])
    assert (g.attempted, g.failed) == (5, 0)
    g.check_pass(ids, [_row(1), _row(2), _row(4), _row(5)])
    assert g.failed == 1 and "dropped" in g.failures[0]
    g.check_pass(ids, [_row(1), _row(2), _row(3), _row(4), _row(5, "error")])
    assert g.failed == 2


def test_an_exception_is_a_failed_operation_not_a_crash(tmp_path, monkeypatch):
    wl = workloads.Workload("delta-verify", 1, str(tmp_path), quick=True)

    def boom(m, n, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_instance", boom)
    _, answers, _ = wl.run_pass()
    g = _gate("delta-verify")
    g.check_pass(workloads.expected_ids("delta-verify", quick=True), answers)
    assert g.failed == 3 and g.attempted == 3 + len(wl.certificates)
    assert "RuntimeError: boom" in g.failures[0]


def test_euler_cross_check_catches_an_answer_that_matches_a_wrong_pin():
    pins = gate.load_pins(BENCH / "pins.json")
    pins["M(K5)"] = {"betti": {"1": 7}, "torsion": {}}
    spec = {s["id"]: s for s in workloads.INSTANCES[True]["matching"]}
    g = gate.Gate("matching", pins, spec)
    g.check_pass(["M(K5)"], [("M(K5)", {"betti": {"1": 7}, "torsion": {}})])
    assert g.failed == 1 and "Euler" in g.failures[0]


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (2, 6), (3, 5), (4, 4)])
def test_independent_euler_route_agrees_with_the_program(m, n):
    comp = complexes.independence_complex(graphs.delta_graph(m, n))
    assert gate.reduced_euler(workloads.delta_id(m, n), None) == (
        homology.reduced_euler_characteristic(comp)
    )


def test_reach_is_the_unbroken_prefix_of_ok_rows():
    rows = [dict(_row(n)[1]) for n in range(1, 8)]
    assert tracer.reach(rows, 2, 11) == 7
    assert tracer.reach(rows, 2, 5) == 5  # capped at the top of the workload's range
    assert tracer.reach(rows, 3, 10) == 0
    rows[3]["status"] = "skipped"
    assert tracer.reach(rows, 2, 11) == 3
    assert tracer.reach([r for r in rows if r["n"] != 2], 2, 11) == 1  # a dropped row
    rows[0]["match"] = False
    assert tracer.reach(rows, 2, 11) == 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = _run("delta-verify", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
