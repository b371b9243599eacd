"""Command-line front end: verification suites, minimization, sweeps, benchmarks.

Two tables define the command line.  ``_FLAGS`` gives each flag its
``config`` key, its default and its argparse options; ``_SPECS`` gives each
command its help text and the flags it takes (all take ``--format`` and
``--out``).  The parser, the report's ``config`` document and the range
checks are derived from them, so a command rejects any flag it does not read.

Report document schema (JSON): top-level keys ``tool_version``, ``command``,
``config``, ``results``, ``residuals``, ``wall_time_ms``.  ``config`` lists
every flag's value, the default where a command does not take the flag.
CSV output is one table per command (``_table``) with '.' decimals, no
thousands separators, and a mandatory header row; text output is the same
table, aligned.  Exit codes: 0 success, 1 invariant failure, 2 usage error
(an ``--out`` path that cannot be written is one, refused before the run).

Reports follow from (seed, samples) alone: sampling runs in fixed-size chunks
with independently derived seeds, and every reported sum in a fixed order, so
neither the worker count (``CLIFFCERT_THREADS``) nor BLAS threads change them.
Every ``verify`` pass flag comes from :func:`_check`, and the exit code of
``minimize`` and ``sweep`` from :func:`_failed`: a NaN residual or gap fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, pauli, rotors
from .clifford import jordan_wigner
from .errors import CliffcertError, check_budget
from .pauli import PauliString
from .rotors import _flip, _frobenius_defect, conjugation_residual, euler_decompose, lift, recompose
from .states import (
    GVector,
    _block_rows,
    _bloch_shortfall,
    _hs_factors,
    _hs_peak_bytes,
    extended_expectations,
    factor_expectations,
    matrix_from_expectations,
    random_state_batch,
    realize,
    vector_expectations,
)
from .tolerances import CONCAVITY, LIFT, MEMORY_BUDGET, OPTIMIZATION, PSD, RECONSTRUCTION
from .uncertainty import (_check_order, bias_entropy, bias_entropy_d1, bias_entropy_d2,
                          find_minimizer, find_minimizers)

THREADS_ENV = "CLIFFCERT_THREADS"
_CHUNK = 256
# Complex slices of Hilbert-Schmidt factors that one projection chunk holds
# at its peak: a factor slice, drawn a slice at a time and dropped once
# measured, beside the last projection; the positivity check multiplies the
# projection into two probe vectors and copies nothing of its size
# (tracemalloc over one 256-state chunk: 2.57 slices at n = 3, 1.65 at
# n = 4, 2.26-2.27 at n = 5..7, 2.52 at n = 8).
_PROJECTION_SLICES = 3
# Bytes that one projection chunk's seed, size and results hold (tracemalloc
# over 20000 chunks: 656 on one thread, 2201 with a pool, which submits every
# chunk at once).
_CHUNK_OVERHEAD_BYTES = 2560
_BENCH_SITES = (1_000, 10_000, 100_000)


def _bounded(kind, low, high=math.inf):
    """argparse type: ``kind(text)``, refused outside ``[low, high)`` (NaN included)."""

    def parse(text: str):
        value = kind(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}), got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _alpha_type(text: str) -> float:
    try:
        return _check_order(float(text))
    except ValueError as exc:  # DomainError is one
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _join_alpha(argv: list[str]) -> list[str]:
    """Write ``--alpha VALUE`` as ``--alpha=VALUE`` when VALUE reads as a float.

    argparse takes ``-inf`` for an option, since it does not match its
    negative-number pattern; joined, the value reaches :func:`_alpha_type`.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--alpha" and _reads_as_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# flag: (config key, default where a command does not take it, argparse options)
_FLAGS = {
    "--n": ("n", 2, dict(type=_bounded(int, 1), help="qubit count (default 2)")),
    "--K": ("K", None, dict(type=_bounded(int, 1), required=True,
                            help="number of observables, at most 2n+1")),
    "--alpha": ("alpha", 1.0, dict(type=_alpha_type,
                                   help="Renyi order; accepts 'inf' (default 1)")),
    "--samples": ("samples", 200, dict(type=_bounded(int, 1),
                                       help="random samples / minimizer budget (default 200)")),
    "--seed": ("seed", 1234, dict(type=_bounded(int, 0), help="RNG seed (default 1234)")),
    "--k-min": ("k_min", None, dict(type=_bounded(int, 1), required=True, help="smallest K")),
    "--k-max": ("k_max", None, dict(type=_bounded(int, 1), required=True,
                                    help="largest K, at most 2n+1")),
    "--tol-psd": ("tol_psd", PSD, dict(type=_bounded(float, 0.0),
                                       help=f"positivity tolerance (default {PSD})")),
    "--tol-opt": ("tol_opt", OPTIMIZATION, dict(
        type=_bounded(float, 0.0), help=f"optimization-gap tolerance (default {OPTIMIZATION})")),
    "--format": ("format", "text", dict(choices=("json", "csv", "text"),
                                        help="report format (default text)")),
    "--out": ("out", None, dict(help="output path (default stdout)")),
}

# command: (help text, the flags it takes besides --format and --out)
_SPECS = {
    "verify": ("run the invariant suites for one qubit count",
               ("--n", "--samples", "--seed", "--tol-psd")),
    "minimize": ("minimize one entropy average over states",
                 ("--n", "--K", "--alpha", "--samples", "--seed", "--tol-opt")),
    "sweep": ("minimize across a range of K",
              ("--n", "--k-min", "--k-max", "--alpha", "--samples", "--seed", "--tol-opt")),
    "bench": ("throughput and correctness benchmarks", ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffcert",
        description="Verify and minimize entropy averages of anti-commuting observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, flags) in _SPECS.items():
        p = sub.add_parser(name, help=doc)
        for flag in flags + ("--format", "--out"):
            key, _, options = _FLAGS[flag]
            # absent unless given, so the config can tell an override from a default
            p.add_argument(flag, dest=key, default=argparse.SUPPRESS, **options)
    return parser


def _config(args: argparse.Namespace) -> dict:
    """Every flag's given or default value, in table order, then threads and overrides."""
    given = vars(args)
    config = {key: given.get(key, default) for key, default, _ in _FLAGS.values()}
    try:
        config["threads"] = max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        config["threads"] = 1
    config["tolerance_overrides"] = [key for key in ("tol_psd", "tol_opt") if key in given]
    return config


def _range_problem(command: str, config: dict) -> str | None:
    """The K flags a command takes must not decrease and must stay within 2n+1."""
    flags = [flag for flag in _SPECS[command][1] if flag in ("--K", "--k-min", "--k-max")]
    values = [config[_FLAGS[flag][0]] for flag in flags]
    size = 2 * config["n"] + 1
    if values != sorted(values) or values and values[-1] > size:
        return f"need {' <= '.join(flags)} <= {size} for n={config['n']}, got {values}"
    return None


def _order_label(alpha: float):
    return "inf" if math.isinf(alpha) else alpha


def _workers(threads: int, chunks: int) -> int:
    """Threads that work on ``chunks`` chunks: no more than the chunks or the CPUs."""
    return min(threads, chunks, os.cpu_count() or 1)


def _map_chunks(fn, items, threads: int):
    workers = _workers(threads, len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _chunk_sizes(total: int, size: int = _CHUNK) -> list[int]:
    return [size] * (total // size) + ([total % size] if total % size else [])


# ---------------------------------------------------------------------------
# verify


def _check(name: str, residuals, bound: float, detail: str = "") -> dict:
    """Residual: the worst of ``residuals`` by numpy, which keeps a NaN; passed: within bound."""
    residual = float(np.max(residuals))
    return {"name": name, "passed": residual <= bound, "residual": residual, "detail": detail}


def _suite_anticommutation(gens) -> list[dict]:
    checks = [_check("anticommutation-symplectic", 0.0 if gens.verify_anticommutation() else 1.0,
                     0.0, "exact pairwise {G_j, G_k} = 2 delta_jk over the extended set")]
    if gens.n <= 6:
        stack = gens.dense_extended
        size, d = stack.shape[:2]
        eye2 = 2.0 * np.eye(d)
        residuals = [np.max(np.abs(stack[j] @ stack[k] + stack[k] @ stack[j] - (j == k) * eye2))
                     for j in range(size) for k in range(j, size)]
        checks.append(_check("anticommutation-dense", residuals, 1e-12,
                             "dense anticommutators against 2 delta_jk"))
    return checks


def _suite_projection(gens, seed_seq, samples: int, tol_psd: float, threads: int) -> list[dict]:
    sizes = _chunk_sizes(samples)
    seeds = seed_seq.spawn(len(sizes))
    d = 2**gens.n
    # two complex Gaussian probe vectors for the positivity certificate, each
    # entry's real and imaginary parts consecutive normals, from a seed spawned
    # after the chunks' seeds so that every chunk keeps its stream
    probes = np.random.default_rng(seed_seq.spawn(1)[0]).standard_normal((d, 4)).view(complex)

    def work(item):
        count, seed = item
        blocks = []
        for factor in _hs_factors(d, count, seed):
            g = factor_expectations(factor, gens)
            del factor  # the factors are dead once measured
            proj = matrix_from_expectations(g, gens)
            blocks.append((_bloch_shortfall(proj, g, probes), np.max((g * g).sum(axis=1)),
                           np.max(np.abs(extended_expectations(proj, gens) - g)),
                           np.max(np.abs(np.trace(proj, axis1=1, axis2=2) - 1.0))))
        return np.max(blocks, axis=0)

    shortfall, norm_sq, idem, tr_res = np.max(
        _map_chunks(work, list(zip(sizes, seeds)), threads), axis=0)
    return [
        _check("projection-positivity", shortfall, tol_psd,
               f"worst projected eigenvalue over {samples} states"),
        _check("projection-idempotent", idem, RECONSTRUCTION, ""),
        _check("projection-trace", tr_res, 1e-10, ""),
        _check("expectation-ball", np.maximum(norm_sq - 1.0, 0.0), tol_psd,
               "sum of squared expectations against 1"),
    ]


def _random_orthogonal(rng, size: int, det_sign: int | None = None) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if det_sign is not None and np.sign(np.linalg.det(q)) != det_sign:
        q[:, 0] = -q[:, 0]
    return q


def _spot_count(samples: int) -> int:
    """Cases of each rotor check and directions of the realization check."""
    return max(4, samples // 50)


def _suite_rotors(gens, seed_seq, samples: int) -> list[dict]:
    s_lift, s_refl, s_euler, s_constr = seed_seq.spawn(4)
    count = _spot_count(samples)
    size = 2 * gens.n + 1

    rng = np.random.default_rng(s_lift)
    lift_res = []
    for _ in range(count):
        t = _random_orthogonal(rng, size, det_sign=1)
        lift_res.append(conjugation_residual(lift(t, gens), t, gens))

    rng = np.random.default_rng(s_refl)
    g0 = gens.actions[0]
    pseudo_res = []
    for _ in range(count):
        t = _random_orthogonal(rng, 2 * gens.n, det_sign=-1)
        u = lift(t, gens)
        # U G_0 U^H = -G_0 for a unitary U, in the form U G_0 + G_0 U = 0 with ||U||_F**2 = d
        anti = pauli.apply(g0, u, "right")
        anti += pauli.apply(g0, u, "left")
        pseudo_res += [np.max(np.abs(anti)), _frobenius_defect(u)]

    rng = np.random.default_rng(s_euler)
    euler_res = []
    for _ in range(count):
        dim = int(rng.integers(2, size + 1))
        t = _random_orthogonal(rng, dim)
        euler_res.append(np.max(np.abs(recompose(euler_decompose(t)) - t)))

    constr_res = []
    f1 = _flip(gens, 1)
    for k, mat in enumerate(random_state_batch(gens.n, count, s_constr, "mixed-hs")):
        # every second state has g_1 < 0, so both branches of the rotor run; the
        # conjugation by F_1 = G_0 G_1 that gives it negates g_0 and g_1 and keeps
        # the Hilbert-Schmidt measure
        if (extended_expectations(mat, gens)[1] < 0.0) != (k % 2 == 1):
            mat = -pauli.apply(f1, pauli.apply(f1, mat, "left"), "right")
        # U lands g on +sqrt(ell) e_1 for either sign of g_1; measured relative to sqrt(ell)
        g = extended_expectations(mat, gens)
        ell = float(np.dot(g, g))
        scale = math.sqrt(ell) if ell > rotors._NEGLIGIBLE else 1.0
        if ell > rotors._NEGLIGIBLE:
            u = rotors._vector_rotor(gens, g / scale)
            g = extended_expectations(u @ mat @ u.conj().T, gens)
        g[1] -= math.sqrt(ell)
        constr_res.append(np.max(np.abs(g)) / scale)

    return [
        _check("rotor-lift", lift_res, LIFT,
               f"conjugation residual over {count} special-orthogonal lifts"),
        _check("rotor-reflection", pseudo_res, 1e-10,
               "pseudoscalar sign under det=-1 generator lifts"),
        _check("euler-roundtrip", euler_res, 1e-10, ""),
        _check("reduction-constructive", constr_res, RECONSTRUCTION,
               "expectation vector of the reduced state against sqrt(ell) e_1, relative"),
    ]


def _suite_realization(gens, seed_seq, samples: int) -> list[dict]:
    """Two-vector states (:func:`states.realize`) of points of the unit ball, at
    radius 1, just inside it and at a random radius, plus the vertices +-e_0 and e_1."""
    size = 2 * gens.n + 1
    eye = np.eye(size)
    points = [eye[0], -eye[0], eye[1]]
    rng = np.random.default_rng(seed_seq)
    for _ in range(_spot_count(samples)):
        u = rng.standard_normal(size)
        u /= np.linalg.norm(u)
        points += [u, (1.0 - 1e-12) * u, rng.random() * u]
    residuals = []
    for g in points:
        psi, weights = realize(GVector(gens.n, g), gens)
        residuals.append(np.max(np.abs(weights @ vector_expectations(psi, gens) - g)))
    return [_check("ball-realization", residuals, RECONSTRUCTION,
                   f"two-vector mixtures against {len(points)} points of the unit ball")]


def _fd_step(t: np.ndarray) -> np.ndarray:
    # Truncation blows up like (1-t)^-5 near 1 while roundoff needs h not
    # too small; this window keeps both composite errors under ~1e-7.
    return np.minimum(np.minimum(t / 3.0, 5e-4), np.maximum(1.5e-5, 0.01 * (1.0 - t)))


def _fd_slope(t: np.ndarray) -> np.ndarray:
    h = _fd_step(t)
    f = bias_entropy
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12.0 * h)


def _fd_curvature(t: np.ndarray) -> np.ndarray:
    h = _fd_step(t)
    f = bias_entropy
    return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)) / (
        12.0 * h * h
    )


def _suite_concavity() -> list[dict]:
    grid = np.linspace(0.001, 0.999, 997)
    slope, curvature = bias_entropy_d1(grid), bias_entropy_d2(grid)
    return [
        _check("concavity-sign", np.maximum(curvature, 0.0), CONCAVITY,
               "analytic curvature must be nonpositive"),
        _check("concavity-slope-fd", np.abs(slope - _fd_slope(grid)) / np.abs(slope), 1e-6,
               "analytic first derivative against central differences"),
        _check("concavity-curvature-fd",
               np.abs(curvature - _fd_curvature(grid)) / np.abs(curvature), 1e-6, ""),
    ]


def _check_projection_memory(n: int, samples: int, threads: int) -> None:
    """Refuse, by arithmetic, projection chunks in flight, the seeds and results of
    every chunk, or the rotor suite's state batch, that exceed ``MEMORY_BUDGET``;
    nothing that grows with the samples is built."""
    chunks, size = -(-samples // _CHUNK), min(samples, _CHUNK)
    slice_states = min(size, _block_rows(16 * 4**n))
    per_chunk = _PROJECTION_SLICES * slice_states * 16 * 4**n
    check_budget(f"projection at {size} states per chunk",
                 per_chunk * _workers(threads, chunks), MEMORY_BUDGET)
    check_budget(f"bookkeeping for {chunks} projection chunks",
                 chunks * _CHUNK_OVERHEAD_BYTES, MEMORY_BUDGET)
    count = _spot_count(samples)
    check_budget(f"rotor suite at {count} states", _hs_peak_bytes(n, count), MEMORY_BUDGET)


def cmd_verify(cfg: dict):
    _check_projection_memory(cfg["n"], cfg["samples"], cfg["threads"])
    gens = jordan_wigner(cfg["n"])
    s_proj, s_rotors, s_real = np.random.SeedSequence(cfg["seed"]).spawn(3)
    checks = (_suite_anticommutation(gens)
              + _suite_projection(gens, s_proj, cfg["samples"], cfg["tol_psd"], cfg["threads"])
              + _suite_rotors(gens, s_rotors, cfg["samples"])
              + _suite_realization(gens, s_real, cfg["samples"])
              + _suite_concavity())
    return int(not all(c["passed"] for c in checks)), checks, {
        c["name"]: c["residual"] for c in checks}


# ---------------------------------------------------------------------------
# minimize / sweep


def _cross_check_gap(report) -> float | None:
    return None if report.closed_form_bound is None else (
        report.cross_check_min - report.closed_form_bound)


def _failed(report, tol_opt: float) -> bool:
    """A descent stopped unconverged, or the numeric minimum or the cross-check lies more
    than ``tol_opt`` from the closed form, which is an exact minimum, on either side."""
    gaps = [gap for gap in (report.gap, _cross_check_gap(report)) if gap is not None]
    return not report.converged or any(not abs(gap) <= tol_opt for gap in gaps)  # NaN fails


def cmd_minimize(cfg: dict):
    report = find_minimizer(jordan_wigner(cfg["n"]), cfg["K"], cfg["alpha"], cfg["samples"],
                            cfg["seed"])
    return int(_failed(report, cfg["tol_opt"])), report.to_dict(), {
        "bound_gap": report.gap, "cross_check_gap": _cross_check_gap(report)}


def cmd_sweep(cfg: dict):
    ks = range(cfg["k_min"], cfg["k_max"] + 1)
    reports = find_minimizers(jordan_wigner(cfg["n"]), ks, cfg["alpha"], cfg["samples"],
                              cfg["seed"])
    rows = [{"K": report.K, "alpha": _order_label(cfg["alpha"]),
             "closed_form": report.closed_form_bound, "numeric_min": report.numeric_min,
             "gap": report.gap, "cross_check_min": report.cross_check_min,
             "converged": report.converged} for report in reports]
    gaps = np.array([r.gap for r in reports if r.gap is not None])
    cross = np.array([gap for gap in map(_cross_check_gap, reports) if gap is not None])
    code = int(any(_failed(report, cfg["tol_opt"]) for report in reports))
    # the exit code reads both gaps on both sides; the violation is the side below the bound
    return code, rows, {"max_bound_violation": float(np.max(0.0 - gaps, initial=0.0)),  # not -0.0
                        "max_abs_gap": float(np.max(np.abs(gaps), initial=0.0)),
                        "max_abs_cross_check_gap": float(np.max(np.abs(cross), initial=0.0))}


# ---------------------------------------------------------------------------
# bench


def _random_string(rng, n: int) -> PauliString:
    return PauliString(
        n,
        rng.integers(0, 2, size=n, dtype=np.uint8),
        rng.integers(0, 2, size=n, dtype=np.uint8),
        int(rng.integers(0, 4)),
    )


def bench_symplectic(sites=_BENCH_SITES, batch: int = 64, repeats: int = 5, seed: int = 0):
    """Batched product timings; per-product cost should be linear in n."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in sites:
        xa, za, xb, zb = (rng.integers(0, 2, size=(batch, n), dtype=np.uint8) for _ in range(4))
        pa, pb = (rng.integers(0, 4, size=batch) for _ in range(2))
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            pauli.product_components(xa, za, pa, xb, zb, pb)
            best = min(best, time.perf_counter() - t0)
        per_product = best / batch
        rows.append({
            "n": n,
            "seconds_per_product": per_product,
            "seconds_per_site": per_product / n,
        })
    return rows


def bench_agreement(seed: int, pairs: int = 1000) -> dict:
    """Exact symplectic-vs-dense product comparison on random pairs, n <= 6."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(pairs):
        n = int(rng.integers(1, 7))
        a, b = _random_string(rng, n), _random_string(rng, n)
        lhs = pauli.to_dense(pauli.mul(a, b))
        rhs = pauli.to_dense(a) @ pauli.to_dense(b)
        if not np.array_equal(lhs, rhs):
            mismatches += 1
    return {"pairs": pairs, "mismatches": mismatches}


def cmd_bench(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    big = _random_string(rng, 10_000)
    t0 = time.perf_counter()
    pauli.mul(big, _random_string(rng, 10_000))
    single_large = time.perf_counter() - t0

    throughput = bench_symplectic(seed=cfg["seed"])
    per_site = [row["seconds_per_site"] for row in throughput]
    spread = max(per_site) / min(per_site)
    agreement = bench_agreement(cfg["seed"])

    results = {
        "single_product_n10000_seconds": single_large,
        "symplectic": throughput,
        "per_site_spread": spread,
        "agreement": agreement,
    }
    residuals = {
        "dense_symplectic_mismatches": float(agreement["mismatches"]),
        "per_site_spread": spread,
    }
    code = 1 if agreement["mismatches"] else 0
    return code, results, residuals


# ---------------------------------------------------------------------------
# output


def _table(command: str, results) -> tuple[list[str], list[list]]:
    """Header and rows of a command's results, as CSV writes them and text aligns them."""
    if command == "verify":
        return ["check", "passed", "residual"], [
            [c["name"], c["passed"], c["residual"]] for c in results]
    if command == "minimize":
        return ["n", "K", "alpha", "closed_form", "numeric_min", "gap", "samples", "seed"], [[
            results["n"], results["K"], results["alpha"], results["closed_form_bound"],
            results["numeric_min"], results["gap"], results["samples"], results["seed"]]]
    if command == "sweep":
        header = ["K", "alpha", "closed_form", "numeric_min", "gap"]
        return header, [[row[key] for key in header] for row in results]
    rows = [["symplectic", row["n"], "seconds_per_product", row["seconds_per_product"]]
            for row in results["symplectic"]]
    rows.append(["agreement", "", "mismatches", results["agreement"]["mismatches"]])
    return ["section", "n", "metric", "value"], rows


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _text_cell(value) -> str:
    if isinstance(value, bool):
        return "PASS" if value else "FAIL"
    return "-" if value is None else str(value)


def _text(doc: dict, header: list[str], rows: list[list]) -> str:
    cells = [header] + [[_text_cell(value) for value in row] for row in rows]
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    lines = [f"cliffcert {doc['tool_version']} :: {doc['command']}"]
    lines += ["  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
              for row in cells]
    lines.append(f"  wall time: {doc['wall_time_ms']:.1f} ms")
    return "\n".join(lines) + "\n"


def _out_problem(path: str | None) -> str | None:
    """Why the report could not be written to ``path``, checked before the command runs."""
    if not path:
        return None
    if os.path.isdir(path):
        return "is a directory"
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        return f"no directory {folder}"
    if not os.access(folder, os.W_OK | os.X_OK):
        return f"directory {folder} is not writable"
    return None


_COMMANDS = {
    "verify": cmd_verify,
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_alpha(sys.argv[1:] if argv is None else list(argv)))
        config = _config(args)
        problem = _range_problem(args.command, config)
        if problem:
            parser.error(problem)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    problem = _out_problem(config["out"])
    if problem:
        print(f"error: cannot write --out {config['out']}: {problem}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        code, results, residuals = _COMMANDS[args.command](config)
    except CliffcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "tool_version": __version__,
        "command": args.command,
        "config": {**config, "alpha": _order_label(config["alpha"])},
        "results": results,
        "residuals": residuals,
        "wall_time_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    if config["format"] == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        header, rows = _table(args.command, results)
        text = _csv(header, rows) if config["format"] == "csv" else _text(doc, header, rows)
    if config["out"]:
        try:
            with open(config["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {config['out']}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
