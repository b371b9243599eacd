"""cliffcert benchmark: time to a certified result, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-rotor --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in a child process of its own (``worker.py``) with
``CLIFFCERT_THREADS=1`` and the BLAS thread count pinned to 1, importing
``cliffcert`` from ``src/`` of this checkout.  Before it, the same child is
started ``SETUP_PROBES`` times with ``--setup-only`` to time set-up: from
process start until the package is imported and the task list generated.

Times are reported at reference machine speed (``calibration.py``): each
raw time is scaled by the time of a fixed calibration loop measured next to
it, because the speed of this class of machine drifts by tens of percent
between runs.  The raw times are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are ``setup_s`` (median set-up time over the probes),
``wall_s`` (median time of one pass over the task list) and ``peak_rss_mb``
(``ru_maxrss`` of the workload process).  With ``--trace 1`` they are the
per-layer metrics of ``tracer.METRICS``.  The lines before it give the
environment fingerprint, the raw times and the per-task times.  The exit
code is 0 when every output passed its checks, 1 when a check failed or the
worker did not finish, and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibration as cal
import tracer as tr
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_PROBES = 5
# Whole-run limit; one workload process must end well inside it.
RUN_LIMIT_S = 170.0
PINNED_ENV = {
    "CLIFFCERT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


class WorkerError(Exception):
    """The workload process failed, printed no result, or ran too long."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _start(argv) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it with the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a started worker until ``deadline``; kill it if it runs over."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not finish within {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload; returns the worker's result plus ``setup_s``."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups, setups_ref = [], []
    for _ in range(SETUP_PROBES):
        proc, setup = _start(argv + ["--setup-only"])
        loop = float(_finish(proc, deadline))
        setups.append(setup)
        setups_ref.append(cal.to_reference(setup, (loop,)))
    proc, _ = _start(argv)
    out = _finish(proc, deadline).strip()
    if not out:
        raise WorkerError(f"{workload} worker printed no result")
    result = json.loads(out.splitlines()[-1])
    result["setup_raw_s"] = statistics.median(setups)
    result["setup_s"] = statistics.median(setups_ref)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        units = {name: unit for name, unit, _better in tr.METRICS}
        return {name: {"value": value, "unit": units[name]}
                for name, value in result["layers"].items()}
    values = {
        "setup_s": result["setup_s"],
        "wall_s": statistics.median(result["wall_ref_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report(workload: str, result: dict, trace: int) -> dict:
    """Print the human-readable lines for one run; return its metrics."""
    metrics = metrics_of(result, trace)
    error_rate = result["failed"] / result["attempted"]
    print(json.dumps({"fingerprint": result["fingerprint"]}))
    print(f"{workload}: {result['passes']} untraced pass(es) of {len(result['per_task_s'])} tasks,"
          f" {result['attempted']} attempted, {result['failed']} failed,"
          f" error_rate {error_rate:.4f} ratio")
    print(f"  raw (not scaled to reference speed): setup {result['setup_raw_s']:.4f} s,"
          f" pass wall {statistics.median(result['wall_s']):.4f} s;"
          f" calibration loop {result['calibration_s']:.4f} s (reference {cal.REFERENCE_S} s)")
    for label, seconds in result["per_task_s"].items():
        print(f"  task {label:<28} {seconds:10.4f} s raw")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        print(f"  traced passes {len(result['traced_wall_s'])},"
              f" counts repeat: {result['counts_repeat']}")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:14.6f} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cliffcert benchmark")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cliffcert", "__init__.py")):
        print(f"no cliffcert sources under {ROOT}/src: nothing to measure", file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            shown = report(name, result, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            if args.workload == "all":
                shown["error_rate"] = {"value": result["failed"] / result["attempted"],
                                        "unit": "ratio"}
                shown = {f"{name}.{k}": v for k, v in shown.items()}
            metrics.update(shown)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
