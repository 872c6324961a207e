"""The measured process of one benchmark run; ``run.py`` starts it.

It imports the program, prepares the workload's inputs, prints ``READY``
(a set-up probe is timed up to that line), then runs passes for the time
budget and prints one JSON object as its last line. Modes:

- ``setup``: stop after ``READY`` and a line of kernel times;
- ``measure``: untraced passes only; reports ``wall_s``, the set-up probes,
  answers and peak RSS. A ``Meter`` samples the calibration kernel
  (``calibrate.py``) just before each operation and every
  ``SAMPLE_EVERY_S`` inside it (on ``delta-suite``, inside its pool
  workers); each operation's time, less the kernel's,
  is scaled by ``REF_S`` over the mean of its kernel samples. ``wall_s``
  sums, over the operations, the median of each one's scaled time across
  the passes. Before the first pass and after each one it times a few fresh
  interpreters in ``setup`` mode, each scaled by the kernel runs it makes
  right after its READY line, so that the set-up samples are spread over the
  whole run. The probes do not count against the time budget;
- ``trace``: pairs of an untraced pass and a traced one; reports the
  per-layer metrics (medians over the pairs) and answers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
from tracer import (  # noqa: E402
    SUITE_METRIC_NAMES,
    Tracer,
    layer_metrics,
    median_metrics,
    suite_metrics,
)
from workloads import SUITE_WORKERS, Workload  # noqa: E402

PROBES_PER_GAP = 5  # set-up probes before the first pass and after each pass
KERNELS_AFTER_SETUP = 3  # kernel runs a set-up probe makes after its READY line


def _budget_left(spent: float, seconds: float, walls: list[float]) -> bool:
    """Another pass fits if the median pass so far still ends inside the budget."""
    return spent + statistics.median(walls) <= seconds


def setup_probe(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter in setup mode to its READY line.

    Scaled by the kernel runs the probe makes right after that line.
    """
    cmd = [sys.executable, __file__, *argv, "--mode", "setup"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    rest = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or first.strip() != "READY":
        raise RuntimeError(f"setup probe exited with code {proc.returncode}")
    return ready_s * calibrate.REF_S / statistics.fmean(json.loads(rest))


class Meter:
    """Samples the kernel's speed around and inside each operation of a pass.

    With ``children_dir`` set, the samples inside an operation are taken in
    the processes it forks instead (the suite's pool workers, which do its
    work while this process waits). Each child appends its kernel times to
    a file named after its pid; ``leave()`` reads and removes them.
    """

    def __init__(self, children_dir: str | None = None):
        self.samples: list[list[float]] = []  # per operation, the first taken just before it
        self._inside = 0.0
        self._active = False
        self._children_dir = children_dir
        self._child_fd = -1
        signal.signal(signal.SIGALRM, self._on_alarm)
        if children_dir is not None:
            os.makedirs(children_dir, exist_ok=True)
            os.register_at_fork(after_in_child=self._in_child)

    def _start_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, calibrate.SAMPLE_EVERY_S, calibrate.SAMPLE_EVERY_S)

    def _on_alarm(self, signum, frame) -> None:
        k = calibrate.timed()
        if self._child_fd >= 0:
            os.write(self._child_fd, f"{k!r}\n".encode())
        else:
            self.samples[-1].append(k)
            self._inside += k

    def _in_child(self) -> None:
        if self._active:
            path = os.path.join(self._children_dir, str(os.getpid()))
            self._child_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            self._start_timer()

    def enter(self) -> None:
        self.samples.append([calibrate.timed()])
        self._inside = 0.0
        self._active = True
        if self._children_dir is None:
            self._start_timer()

    def leave(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        if self._children_dir is None:
            return self._inside
        totals = []
        for name in os.listdir(self._children_dir):
            path = os.path.join(self._children_dir, name)
            with open(path, encoding="utf-8") as fh:
                ks = [float(line) for line in fh]
            os.remove(path)
            self.samples[-1] += ks
            totals.append(sum(ks))
        # the children ran side by side, so the operation's wall grew by about one child's share
        return statistics.fmean(totals) if totals else 0.0


def scaled_ops(ops: list, samples: list[list[float]]) -> dict:
    """Each operation's seconds times REF_S over the mean of its kernel samples."""
    return {
        op_id: secs * calibrate.REF_S / statistics.fmean(ks)
        for (op_id, secs), ks in zip(ops, samples)
    }


def scaled_wall(passes: list[dict]) -> float:
    """Sum over the operations of the median of each one's scaled time."""
    return sum(statistics.median(p["scaled"][op] for p in passes) for op in passes[0]["scaled"])


def measure(wl: Workload, seconds: float, probe_argv: list[str], children_dir: str) -> dict:
    passes, setups, elapsed, kernels = [], [], [], []
    meter = Meter(children_dir if wl.name == "delta-suite" else None)

    def probes() -> list[float]:
        return [setup_probe(probe_argv) for _ in range(PROBES_PER_GAP)]

    setups += probes()
    while True:
        meter.samples = []
        t0 = time.perf_counter()
        wall, answers, info = wl.run_pass(meter)
        elapsed.append(time.perf_counter() - t0)
        passes.append({"wall": wall, "scaled": scaled_ops(info["ops"], meter.samples),
                       "answers": answers})
        kernels += [k for ks in meter.samples for k in ks]
        setups += probes()
        if not _budget_left(sum(elapsed), seconds, elapsed):
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # a probe holds less than this process, which has set up the same and more
    return {
        "passes": passes,
        "wall_s": scaled_wall(passes),
        "kernel_s": statistics.median(kernels),
        "setups": setups,
        "peak_rss_mb": max(self_kb, children_kb) / 1024,
    }


def trace(wl: Workload, seconds: float) -> dict:
    suite = wl.name == "delta-suite"
    passes, samples = [], []
    start = time.perf_counter()
    while True:
        wall, answers, info = wl.run_pass()
        passes.append({"wall": wall, "answers": answers})
        with Tracer() as tracer:
            if suite:
                traced_wall, traced_answers, _ = wl.replay_pass(info["rows"])
            else:
                traced_wall, traced_answers, _ = wl.run_pass()
        passes.append({"wall": traced_wall, "answers": traced_answers})
        metrics = layer_metrics(tracer.spans, traced_wall)
        if suite:
            # the replay is serial, so compare it with the rows' own serial time
            metrics.update(
                suite_metrics(info["rows"], info["suite_walls"], wl.instances, SUITE_WORKERS)
            )
            metrics["trace.overhead_s"] = traced_wall - metrics["cli.row_time_s"]
        else:
            metrics.update({name: 0 for name in SUITE_METRIC_NAMES})
            metrics["trace.overhead_s"] = traced_wall - wall
        samples.append(metrics)
        pair_walls = [a["wall"] + b["wall"] for a, b in zip(passes[::2], passes[1::2])]
        if not _budget_left(time.perf_counter() - start, seconds, pair_walls):
            break
    return {"passes": passes, "metrics": median_metrics(samples), "pairs": len(samples)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)

    wl = Workload(args.workload, args.seed, args.workdir, args.quick)
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps([calibrate.timed() for _ in range(KERNELS_AFTER_SETUP)]), flush=True)
        return 0
    if args.mode == "measure":
        probe_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--workdir", args.workdir + "-probe"]
        result = measure(wl, args.seconds, probe_argv + (["--quick"] if args.quick else []),
                         args.workdir + "-kernels")
    else:
        result = trace(wl, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
