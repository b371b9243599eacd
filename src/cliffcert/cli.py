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
table, aligned.  Exit codes: 0 success, 1 invariant failure, 2 usage error.

All randomized commands are reproducible from (seed, samples); sampling is
split into fixed-size chunks with independently derived seeds, so results
do not depend on the worker-thread count taken from ``CLIFFCERT_THREADS``.
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

from . import __version__, pauli
from .clifford import jordan_wigner
from .errors import CliffcertError, check_budget
from .pauli import PauliString
from .rotors import conjugation_residual, euler_decompose, lift, recompose, reduce_to_axis
from .states import (
    DensityMatrix,
    _psd_shortfall,
    extended_expectations,
    matrix_from_expectations,
    random_state_batch,
)
from .tolerances import CONCAVITY, LIFT, MEMORY_BUDGET, OPTIMIZATION, PSD, RECONSTRUCTION
from .uncertainty import (bias_entropy, bias_entropy_d1, bias_entropy_d2, find_minimizer,
                          find_minimizers)

THREADS_ENV = "CLIFFCERT_THREADS"
_CHUNK = 256
# Complex d x d arrays per state that one projection chunk holds at its peak
# (tracemalloc over one chunk of the projection suite: 3.5 to 5.0 at n = 3..8).
_PROJECTION_ARRAYS = 5
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
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad Renyi order {text!r}") from exc
    if math.isnan(value):
        raise argparse.ArgumentTypeError("Renyi order must be a number, got NaN")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"Renyi order must be positive, got {value}")
    return value


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


def _map_chunks(fn, items, threads: int):
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _chunk_sizes(total: int, size: int = _CHUNK) -> list[int]:
    out = [size] * (total // size)
    if total % size:
        out.append(total % size)
    return out


# ---------------------------------------------------------------------------
# verify


def _check(name: str, passed: bool, residual: float, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "residual": float(residual), "detail": detail}


def _suite_anticommutation(gens) -> list[dict]:
    exact_ok = gens.verify_anticommutation()
    checks = [_check("anticommutation-symplectic", exact_ok, 0.0 if exact_ok else 1.0,
                     "exact pairwise {G_j, G_k} = 2 delta_jk over the extended set")]
    if gens.n <= 6:
        stack = gens.dense_extended
        size = stack.shape[0]
        d = stack.shape[1]
        worst = 0.0
        for j in range(size):
            for k in range(j, size):
                anti = stack[j] @ stack[k] + stack[k] @ stack[j]
                target = 2.0 * np.eye(d) if j == k else np.zeros((d, d))
                worst = max(worst, float(np.max(np.abs(anti - target))))
        checks.append(_check("anticommutation-dense", worst <= 1e-12, worst,
                             "dense anticommutators against 2 delta_jk"))
    return checks


def _suite_projection(gens, seed_seq, samples: int, tol_psd: float, threads: int) -> list[dict]:
    sizes = _chunk_sizes(samples)
    seeds = seed_seq.spawn(len(sizes))

    def work(item):
        count, seed = item
        mats = random_state_batch(gens.n, count, seed, "mixed-hs")
        g = extended_expectations(mats, gens)
        proj = matrix_from_expectations(g, gens)
        shortfall = _psd_shortfall(proj, 0.0)
        norm_sq = float((g * g).sum(axis=1).max())
        g_again = extended_expectations(proj, gens)
        idem = float(np.max(np.abs(matrix_from_expectations(g_again, gens) - proj)))
        traces = np.trace(proj, axis1=1, axis2=2)
        tr_res = float(np.max(np.abs(traces - 1.0)))
        return shortfall, norm_sq, idem, tr_res

    parts = _map_chunks(work, list(zip(sizes, seeds)), threads)
    shortfall = max(p[0] for p in parts)
    norm_sq = max(p[1] for p in parts)
    idem = max(p[2] for p in parts)
    tr_res = max(p[3] for p in parts)
    return [
        _check("projection-positivity", shortfall <= tol_psd, shortfall,
               f"worst projected eigenvalue over {samples} states"),
        _check("projection-idempotent", idem <= RECONSTRUCTION, idem, ""),
        _check("projection-trace", tr_res <= 1e-10, tr_res, ""),
        _check("expectation-ball", norm_sq <= 1.0 + tol_psd, max(0.0, norm_sq - 1.0),
               "sum of squared expectations against 1"),
    ]


def _random_orthogonal(rng, size: int, det_sign: int | None = None) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if det_sign is not None and np.sign(np.linalg.det(q)) != det_sign:
        q[:, 0] = -q[:, 0]
    return q


def _suite_rotors(gens, seed_seq, samples: int) -> list[dict]:
    s_lift, s_refl, s_euler, s_constr = seed_seq.spawn(4)
    count = max(4, samples // 50)
    size = 2 * gens.n + 1

    rng = np.random.default_rng(s_lift)
    lift_res = 0.0
    for _ in range(count):
        t = _random_orthogonal(rng, size, det_sign=1)
        lift_res = max(lift_res, conjugation_residual(lift(t, gens), t, gens))

    rng = np.random.default_rng(s_refl)
    g0 = gens.actions[0]
    g0_dense = pauli.scatter([1.0], [g0])
    pseudo_res = 0.0
    for _ in range(count):
        t = _random_orthogonal(rng, 2 * gens.n, det_sign=-1)
        u = lift(t, gens)
        pseudo_res = max(pseudo_res, float(np.max(np.abs(
            pauli.apply(g0, u, "right") @ u.conj().T + g0_dense))))

    rng = np.random.default_rng(s_euler)
    euler_res = 0.0
    for _ in range(count):
        dim = int(rng.integers(2, size + 1))
        t = _random_orthogonal(rng, dim)
        euler_res = max(euler_res, float(np.max(np.abs(recompose(euler_decompose(t)) - t))))

    constr_res = 0.0
    mats = random_state_batch(gens.n, count, s_constr, "mixed-hs")
    for mat in mats:
        rho = DensityMatrix.from_matrix(mat)
        rho_hat, u, _ = reduce_to_axis(rho, gens)
        algebraic = matrix_from_expectations(extended_expectations(rho.mat, gens), gens)
        constr_res = max(constr_res, float(np.max(np.abs(
            u.conj().T @ rho_hat.mat @ u - algebraic))))

    return [
        _check("rotor-lift", lift_res <= LIFT, lift_res,
               f"conjugation residual over {count} special-orthogonal lifts"),
        _check("rotor-reflection", pseudo_res <= 1e-10, pseudo_res,
               "pseudoscalar sign under det=-1 generator lifts"),
        _check("euler-roundtrip", euler_res <= 1e-10, euler_res, ""),
        _check("reduction-constructive", constr_res <= RECONSTRUCTION, constr_res,
               "axis reduction against the algebraic projection"),
    ]


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
    curv_max = float(curvature.max())
    slope_rel = float(np.max(np.abs(slope - _fd_slope(grid)) / np.abs(slope)))
    curv_rel = float(np.max(np.abs(curvature - _fd_curvature(grid)) / np.abs(curvature)))
    return [
        _check("concavity-sign", curv_max <= CONCAVITY, max(0.0, curv_max),
               "analytic curvature must be nonpositive"),
        _check("concavity-slope-fd", slope_rel <= 1e-6, slope_rel,
               "analytic first derivative against central differences"),
        _check("concavity-curvature-fd", curv_rel <= 1e-6, curv_rel, ""),
    ]


def _check_projection_memory(n: int, samples: int, threads: int) -> None:
    """Refuse, by arithmetic, projection chunks in flight that exceed ``MEMORY_BUDGET``."""
    sizes = _chunk_sizes(samples)
    check_budget(f"projection at {sizes[0]} states per chunk",
                 _PROJECTION_ARRAYS * sizes[0] * 4**n * 16 * min(threads, len(sizes)), MEMORY_BUDGET)


def cmd_verify(cfg: dict):
    _check_projection_memory(cfg["n"], cfg["samples"], cfg["threads"])
    gens = jordan_wigner(cfg["n"])
    s_proj, s_rotors = np.random.SeedSequence(cfg["seed"]).spawn(2)
    checks = (_suite_anticommutation(gens)
              + _suite_projection(gens, s_proj, cfg["samples"], cfg["tol_psd"], cfg["threads"])
              + _suite_rotors(gens, s_rotors, cfg["samples"])
              + _suite_concavity())
    residuals = {c["name"]: c["residual"] for c in checks}
    code = 0 if all(c["passed"] for c in checks) else 1
    return code, checks, residuals


# ---------------------------------------------------------------------------
# minimize / sweep


def _off_bound(report, tol_opt: float) -> bool:
    """Below the closed form by more than ``tol_opt``, or above an exact minimum by more."""
    if report.gap is None:
        return False
    return report.gap < -tol_opt or (report.bound_kind == "exact-minimum" and report.gap > tol_opt)


def cmd_minimize(cfg: dict):
    report = find_minimizer(jordan_wigner(cfg["n"]), cfg["K"], cfg["alpha"], cfg["samples"],
                            cfg["seed"])
    return int(_off_bound(report, cfg["tol_opt"])), report.to_dict(), {"bound_gap": report.gap}


def cmd_sweep(cfg: dict):
    ks = range(cfg["k_min"], cfg["k_max"] + 1)
    reports = find_minimizers(jordan_wigner(cfg["n"]), ks, cfg["alpha"], cfg["samples"],
                              cfg["seed"])
    rows = [{"K": report.K, "alpha": _order_label(cfg["alpha"]),
             "closed_form": report.closed_form_bound, "numeric_min": report.numeric_min,
             "gap": report.gap} for report in reports]
    worst_violation = max([0.0] + [-r.gap for r in reports if r.gap is not None])
    code = int(any(_off_bound(report, cfg["tol_opt"]) for report in reports))
    return code, rows, {"max_bound_violation": worst_violation}


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


def bench_dense_conjugation(seed: int, max_n: int = 4, repeats: int = 3):
    rows = []
    for n in range(1, max_n + 1):
        gens = jordan_wigner(n)
        rho = random_state_batch(n, 1, seed + n, "mixed-hs")[0]
        u = lift(_random_orthogonal(np.random.default_rng(seed + n), 2 * n + 1, 1), gens)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            u @ rho @ u.conj().T
            best = min(best, time.perf_counter() - t0)
        rows.append({"n": n, "d": 2**n, "seconds_per_conjugation": best})
    return rows


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
    dense_rows = bench_dense_conjugation(cfg["seed"])

    results = {
        "single_product_n10000_seconds": single_large,
        "symplectic": throughput,
        "per_site_spread": spread,
        "agreement": agreement,
        "dense_conjugation": dense_rows,
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
    rows += [["dense", row["n"], "seconds_per_conjugation", row["seconds_per_conjugation"]]
             for row in results["dense_conjugation"]]
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
        with open(config["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
