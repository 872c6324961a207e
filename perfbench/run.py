"""Benchmark of the gridhomology toolkit.

    python3 perfbench/run.py --workload delta-verify --seed 1 --seconds 40 --trace 0

``--workload all`` runs the four workloads in turn, each with its own lines
and JSON line; the exit code is the worst of theirs.

Runs from the root of a checkout (it finds the program under ``src/``). The
measured work runs in a fresh worker process (``worker.py``); set-up is
timed over the fresh interpreters it starts between its passes. Times are
scaled to the baseline machine's speed by a calibration kernel
(``calibrate.py``) timed between operations. Every answer goes through the
correctness gate (``gate.py``, pins in ``pins.json``). Human-readable lines
come first on stdout; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run. Exit code 0 when every
answer is correct, 1 when the gate fails or a worker dies, 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def run_worker(args, workload: str, mode: str, workdir: Path) -> dict:
    """Start one worker; return its final JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
    ] + (["--quick"] if args.quick else [])
    # its own process group, so a timeout also ends the suite's pool workers
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    killer = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        first = proc.stdout.readline()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "READY":
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, workload: str, listed: list) -> int:
    """Measure one workload, gate its answers and print its lines; return the exit code."""
    import gate
    import tracer
    import workloads

    pins = gate.load_pins(PINS)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        mode = "trace" if args.trace else "measure"
        result = run_worker(args, workload, mode, work / mode)
    except WorkerError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    specs = {s["id"]: s for s in workloads.INSTANCES[args.quick]["matching"]}
    checker = gate.Gate(workload, pins, specs, workloads.RP2_TRIANGLES)
    expected = workloads.expected_ids(workload, args.quick)
    for one in result["passes"]:
        checker.check_pass(expected, [tuple(a) for a in one["answers"]])
    for line in checker.failures:
        print(f"FAIL {line}", file=sys.stderr)

    walls = [one["wall"] for one in result["passes"]]
    if args.trace:
        values = result["metrics"]
        print(f"{workload}: traced run, {result['pairs']} untraced+traced pairs")
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(result["setups"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"{workload}: {len(walls)} passes, median raw pass wall {statistics.median(walls):.3f} s;"
              f" setup_s is the median of {len(result['setups'])} fresh interpreters;"
              f" wall_s and setup_s are scaled by the kernel's reference time over its"
              f" time in the run (median {result['kernel_s'] * 1e3:.2f} ms)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"  {name:28s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"  {'failed_frac':28s} {_fmt(checker.failed / checker.attempted):>14s} ratio"
          f"  ({checker.failed} failed of {checker.attempted} attempted)")
    if workload == "delta-suite" and not args.trace:
        rows = [a for _, a in result["passes"][-1]["answers"] if "error" not in a]
        for m, top, _ in workloads.INSTANCES[args.quick]["delta-suite"]:
            print(f"  {f'reach_m{m}':28s} {tracer.reach(rows, m, top):>14d} n")

    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gridhomology benchmark")
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true", help="tiny instances, for the tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gridhomology" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics each mode reports, with their units
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = listed["per_layer"] if args.trace else listed["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        names = workloads.WORKLOADS
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return max([run_workload(args, name, listed) for name in names])


if __name__ == "__main__":
    sys.exit(main())
