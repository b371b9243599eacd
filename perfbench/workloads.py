"""Workloads of the cliffcert benchmark: task lists, output checks, memory pre-flight.

A workload is a fixed list of tasks generated from a workload seed.  A task
is either one ``cli.main(argv)`` call with ``--format json`` or one library
round trip through the graded basis on a generated state.  The program sees
only the generated argv and state matrices; the states are drawn here with
numpy, not with the package's own sampler.

Every task output is checked against the package's own tolerances
(``cliffcert.tolerances``); none is loosened.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Why each workload exists; the same text is in BENCHMARK.json.
WORKLOADS = {
    "verify-rotor": "verify --samples 50 at n = 6, 7, 8: rotor lifts and dense Pauli rendering dominate",
    "minimize-hs": "minimize at n = 6 with 20000 samples: the 2000-state Hilbert-Schmidt batch dominates",
    "sweep-ball": "sweep at n = 3 over K = 1..7: unit-ball sampling and descent dominate, no dense kernels",
    "graded-n5": "library round trip over the 4^5 graded basis: expand, reconstruct, project, gvector",
}

GRADED_N = 5
GRADED_STATES = 4
SWEEP_SEEDS = 3
_COMPLEX_BYTES = 16
_FLOAT_BYTES = 8
# Largest state batch find_minimizer draws for its cross-check, and the
# chunk the verify projection suite samples at once (cliffcert.cli._CHUNK).
_CROSS_CHECK_STATES = 2000
_VERIFY_CHUNK = 256


@dataclass(frozen=True)
class Task:
    """One unit of work: a CLI argv, or a graded round trip on ``matrix``."""

    label: str
    argv: tuple[str, ...] = ()
    matrix: np.ndarray | None = None

    @property
    def is_cli(self) -> bool:
        return self.matrix is None


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def _hs_state(rng, n: int) -> np.ndarray:
    """Hilbert-Schmidt random state: normalized G G^H for a square Ginibre G."""
    d = 2**n
    gin = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = gin @ gin.conj().T
    return w / np.trace(w).real


def make_tasks(workload: str, seed: int) -> list[Task]:
    """The workload's fixed task list; the same seed gives the same list."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, list(WORKLOADS).index(workload)]))
    if workload == "verify-rotor":
        return [
            Task(f"verify n={n}", ("verify", "--n", str(n), "--samples", "50", "--seed", str(s)))
            for n, s in zip((6, 7, 8), _seeds(rng, 3))
        ]
    if workload == "minimize-hs":
        return [
            Task(f"minimize K={k} alpha={a}",
                 ("minimize", "--n", "6", "--K", str(k), "--alpha", a,
                  "--samples", "20000", "--seed", str(s)))
            for (k, a), s in zip((("13", "inf"), ("9", "2"), ("5", "1")), _seeds(rng, 3))
        ]
    if workload == "sweep-ball":
        # Descent length depends on the seed, so each order runs at several
        # seeds: the pass time then varies less from one workload seed to the next.
        alphas = ("1", "2", "inf") * SWEEP_SEEDS
        return [
            Task(f"sweep alpha={a} #{i // 3}",
                 ("sweep", "--n", "3", "--k-min", "1", "--k-max", "7", "--alpha", a,
                  "--samples", "400000", "--seed", str(s)))
            for i, (a, s) in enumerate(zip(alphas, _seeds(rng, len(alphas))))
        ]
    if workload == "graded-n5":
        return [Task(f"graded n={GRADED_N} #{i}", matrix=_hs_state(rng, GRADED_N))
                for i in range(GRADED_STATES)]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


# ---------------------------------------------------------------------------
# memory pre-flight


class MemoryBudgetError(Exception):
    """A task's predicted dense working set exceeds the machine budget."""


def machine_budget() -> int:
    """Half the physical memory: the machine is shared with other processes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _flags(argv) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def peak_bytes(task: Task) -> int:
    """Largest dense working set of a task, by arithmetic on its arguments.

    minimize/sweep: the Hilbert-Schmidt cross-check batch holds about three
    ``states x d^2`` complex arrays (Ginibre draw, its product, the
    normalized states), and the ball sampling about four ``samples x K``
    float arrays.  verify: the projection suite holds about four complex
    arrays of one chunk of states.  graded: a handful of ``d x d`` arrays.
    """
    if not task.is_cli:
        return 4 * task.matrix.size * _COMPLEX_BYTES
    flags = _flags(task.argv)
    d2 = 4 ** int(flags["--n"])
    samples = int(flags["--samples"])
    if task.argv[0] == "verify":
        return 4 * min(_VERIFY_CHUNK, samples) * d2 * _COMPLEX_BYTES
    k = int(flags.get("--K") or flags["--k-max"])
    states = min(_CROSS_CHECK_STATES, samples)
    return max(3 * states * d2 * _COMPLEX_BYTES, 4 * samples * k * _FLOAT_BYTES)


def preflight(task: Task, budget: int) -> None:
    need = peak_bytes(task)
    if need > budget:
        raise MemoryBudgetError(
            f"{task.label}: predicted {need / 2**20:.0f} MiB exceeds budget {budget / 2**20:.0f} MiB")


# ---------------------------------------------------------------------------
# running and checking one task


def check_cli(argv, doc: dict, tol) -> list[str]:
    """Failures of one exit-0 CLI report; an empty list means it is certified.

    ``tol`` is ``cliffcert.tolerances``.  minimize and sweep are checked on
    both sides of the closed form: the numeric minimum (and, for minimize,
    the cross-check minimum) must lie within ``tol_opt`` of it.
    """
    cmd, results = argv[0], doc["results"]
    tol_opt = doc["config"]["tol_opt"]
    if tol_opt != tol.OPTIMIZATION:
        return [f"tol_opt {tol_opt} differs from the package tolerance {tol.OPTIMIZATION}"]
    if cmd == "verify":
        return [f"check {c['name']} failed" for c in results if not c["passed"]]
    rows = [results] if cmd == "minimize" else results
    bound_key = "closed_form_bound" if cmd == "minimize" else "closed_form"
    keys = ("numeric_min", "cross_check_min") if cmd == "minimize" else ("numeric_min",)
    out = []
    for row in rows:
        bound = row[bound_key]
        if bound is None:
            out.append(f"K={row['K']}: no closed form to certify against")
            continue
        for key in keys:
            gap = abs(row[key] - bound)
            if not gap <= tol_opt:
                out.append(f"K={row['K']}: |{key} - bound| = {gap:.3e} > {tol_opt}")
    return out


def run_cli(cli, argv) -> tuple[int, str]:
    """``cli.main(argv + --format json)`` with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--format", "json"])
    return code, out.getvalue()


def run_graded(cc, matrix: np.ndarray) -> list[str]:
    """Reads and writes over the graded basis, checked against the tolerances."""
    tol = cc.tolerances
    n = int(math.log2(matrix.shape[0]))
    gens = cc.jordan_wigner(n)
    rho = cc.DensityMatrix.from_matrix(matrix)
    back = cc.expand(rho, gens).reconstruct(gens)
    g = cc.gvector(rho, gens)
    projected = cc.project_bloch(rho, gens)
    rebuilt = cc.from_gvector(g, gens)
    out = []
    roundtrip = float(np.max(np.abs(back - rho.mat)))
    if not roundtrip <= tol.RECONSTRUCTION:
        out.append(f"reconstruct round trip {roundtrip:.3e} > {tol.RECONSTRUCTION}")
    agree = float(np.max(np.abs(projected.mat - rebuilt.mat)))
    if not agree <= tol.RECONSTRUCTION:
        out.append(f"project_bloch vs from_gvector {agree:.3e} > {tol.RECONSTRUCTION}")
    if not g.norm_squared <= 1.0 + tol.PSD:
        out.append(f"|g|^2 = {g.norm_squared!r} outside the unit ball")
    return out


def run_task(cc, task: Task, budget: int) -> list[str]:
    """Run one task and return its failures (empty when the output checks pass).

    ``cc`` is the imported ``cliffcert`` package.  Calls go through its
    module attributes at call time, so a tracer that patched them sees them.
    """
    try:
        preflight(task, budget)
        if not task.is_cli:
            return run_graded(cc, task.matrix)
        code, text = run_cli(cc.cli, task.argv)
        if code != 0:
            return [f"exit code {code}"]
        return check_cli(task.argv, json.loads(text), cc.tolerances)
    except Exception as exc:  # a task that raises counts as failed; the run goes on
        return [f"{type(exc).__name__}: {exc}"]
