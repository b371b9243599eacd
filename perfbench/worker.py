"""One benchmark run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and the thread counts
pinned.  The worker prints ``ready`` once ``cliffcert`` is imported and the
task list generated; with ``--setup-only`` it exits there.  Otherwise it runs
passes over the task list, one task after the other (a closed loop with one
caller), until the next pass would end after ``--seconds``, and prints one
JSON line with the pass times, the failures and the resource figures.

With ``--trace 1`` it alternates an untraced and a traced pass; the median
difference within a pair is the tracing overhead, which can read below zero
when the overhead is smaller than the machine's noise.  Counts come from the
first traced pass, self times are medians over traced passes, and the spans
of the first traced pass are written to ``.perfbench-out/<workload>.spans.jsonl.gz``
in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import calibration as cal
import tracer as tr
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_DIR = os.path.join(ROOT, ".perfbench-out")
CALIBRATION_SHARE = 0.05


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it exposes one."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cliffcert_threads": os.environ.get("CLIFFCERT_THREADS"),
    }


class Pass:
    """Task times and failures of one pass over the task list.

    The calibration loop runs before the first task and after each task,
    for ``CALIBRATION_SHARE`` of the task's time; a task's reference-speed
    time uses the two calibration blocks around it.
    """

    def __init__(self, cc, tasks, budget: int, tracer: tr.Tracer | None = None, first_id: int = 0):
        self.per_task = []
        self.per_task_ref = []
        self.failures = []
        self.failed = 0
        start = time.perf_counter()
        before = cal.block(0.0)
        self.calibrations = [before]
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = first_id + i
            t0 = time.perf_counter()
            errors = wl.run_task(cc, task, budget)
            took = time.perf_counter() - t0
            after = cal.block(CALIBRATION_SHARE * took)
            self.calibrations.append(after)
            self.per_task.append(took)
            self.per_task_ref.append(cal.to_reference(took, (before, after)))
            before = after
            self.failed += bool(errors)
            self.failures += [f"{task.label}: {e}" for e in errors]
        self.elapsed = time.perf_counter() - start
        self.wall = sum(self.per_task)
        self.wall_ref = sum(self.per_task_ref)


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("self_s")}


def run(cc, tasks, seconds: float, span_path: str | None) -> dict:
    """Passes until the next would end after ``seconds``; traced when ``span_path`` is set."""
    budget = wl.machine_budget()
    cal.block(0.25)  # the first loops of a fresh process run slow
    deadline = time.perf_counter() + seconds
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_runs: list[dict] = []
    while True:
        plain.append(Pass(cc, tasks, budget))
        step = plain[-1].elapsed
        if span_path:
            with tr.Tracer(cc) as tracer:
                traced.append(Pass(cc, tasks, budget, tracer, len(tasks) * len(traced)))
            layer_runs.append(tr.layer_metrics(tracer.spans))
            if len(traced) == 1:
                tracer.write(span_path)
            step += traced[-1].elapsed
        if time.perf_counter() + step > deadline:
            break
    passes = plain + traced
    out = {
        "passes": len(plain),
        "wall_s": [p.wall for p in plain],
        "wall_ref_s": [p.wall_ref for p in plain],
        "calibration_s": statistics.median(c for p in plain for c in p.calibrations),
        "per_task_s": {t.label: statistics.median(p.per_task[i] for p in plain)
                       for i, t in enumerate(tasks)},
        "attempted": len(tasks) * len(passes),
        "failed": sum(p.failed for p in passes),
        "failures": [f for p in passes for f in p.failures][:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if span_path:
        layers = dict(layer_runs[0])
        for name in layers:
            if name.endswith("self_s"):
                layers[name] = statistics.median(r[name] for r in layer_runs)
        layers["trace.overhead_s"] = statistics.median(
            t.wall_ref - p.wall_ref for p, t in zip(plain, traced))
        out.update({
            "traced_wall_s": [p.wall for p in traced],
            "counts_repeat": all(_counts(r) == _counts(layer_runs[0]) for r in layer_runs),
            "layers": layers,
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cc = importlib.import_module("cliffcert")
    importlib.import_module("cliffcert.cli")
    src = os.path.join(ROOT, "src", "cliffcert")
    if os.path.dirname(os.path.abspath(cc.__file__)) != src:
        print(f"cliffcert imported from {cc.__file__}, not from {src}", file=sys.stderr)
        return 2
    tasks = wl.make_tasks(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        print(cal.block(0.0), flush=True)
        return 0
    span_path = None
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_path = os.path.join(SPAN_DIR, f"{args.workload}.spans.jsonl.gz")
    out = run(cc, tasks, args.seconds, span_path)
    out["fingerprint"] = fingerprint()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
