"""Command-line front end: verification suites, minimization, sweeps, benchmarks.

Report document schema (JSON): top-level keys ``tool_version``, ``command``,
``config``, ``results``, ``residuals``, ``wall_time_ms``.  CSV output uses
'.' decimals, no thousands separators, and a mandatory header row.  Exit
codes: 0 success, 1 invariant failure, 2 usage error.

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
from dataclasses import dataclass

import numpy as np

from . import __version__, pauli
from .clifford import jordan_wigner
from .errors import CliffcertError
from .pauli import PauliString
from .rotors import conjugation_residual, euler_decompose, lift, recompose, reduce_to_axis
from .states import (
    DensityMatrix,
    extended_expectations,
    matrix_from_expectations,
    random_state_batch,
)
from .tolerances import CONCAVITY, LIFT, OPTIMIZATION, PSD, RECONSTRUCTION
from .uncertainty import bias_entropy, concavity_profile, find_minimizer, find_minimizers

THREADS_ENV = "CLIFFCERT_THREADS"
_CHUNK = 256
_BENCH_SITES = (1_000, 10_000, 100_000)


class UsageError(Exception):
    """Invalid flag combination or out-of-range argument."""


@dataclass
class RunConfig:
    command: str
    n: int
    K: int | None
    alpha: float
    samples: int
    seed: int
    k_min: int | None
    k_max: int | None
    tol_psd: float
    tol_opt: float
    fmt: str
    out: str | None
    threads: int
    overrides: tuple[str, ...]

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.n < 1:
            raise UsageError(f"--n must be at least 1, got {args.n}")
        if args.samples < 1:
            raise UsageError(f"--samples must be at least 1, got {args.samples}")
        size = 2 * args.n + 1
        k = getattr(args, "K", None)
        if k is not None and not 1 <= k <= size:
            raise UsageError(f"--K must lie in 1..{size} for n={args.n}, got {k}")
        k_min = getattr(args, "k_min", None)
        k_max = getattr(args, "k_max", None)
        if args.command == "sweep":
            if k_min is None or k_max is None:
                raise UsageError("sweep requires --k-min and --k-max")
            if not 1 <= k_min <= k_max <= size:
                raise UsageError(
                    f"sweep range must satisfy 1 <= k_min <= k_max <= {size}, "
                    f"got [{k_min}, {k_max}]"
                )
        if args.command == "minimize" and k is None:
            raise UsageError("minimize requires --K")
        overrides = []
        if args.tol_psd is not None:
            overrides.append("tol_psd")
        if args.tol_opt is not None:
            overrides.append("tol_opt")
        try:
            threads = max(1, int(os.environ.get(THREADS_ENV, "1")))
        except ValueError:
            threads = 1
        return cls(
            command=args.command,
            n=args.n,
            K=k,
            alpha=args.alpha,
            samples=args.samples,
            seed=args.seed,
            k_min=k_min,
            k_max=k_max,
            tol_psd=args.tol_psd if args.tol_psd is not None else PSD,
            tol_opt=args.tol_opt if args.tol_opt is not None else OPTIMIZATION,
            fmt=args.format,
            out=args.out,
            threads=threads,
            overrides=tuple(overrides),
        )

    def public_dict(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "alpha": "inf" if math.isinf(self.alpha) else self.alpha,
            "samples": self.samples,
            "seed": self.seed,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "tol_psd": self.tol_psd,
            "tol_opt": self.tol_opt,
            "format": self.fmt,
            "out": self.out,
            "threads": self.threads,
            "tolerance_overrides": list(self.overrides),
        }


def _alpha_type(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad Renyi order {text!r}") from exc
    if math.isnan(value):
        raise argparse.ArgumentTypeError("Renyi order must be a number, got NaN")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffcert",
        description="Verify and minimize entropy averages of anti-commuting observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run the invariant suites for one qubit count"),
        ("minimize", "minimize one entropy average over states"),
        ("sweep", "minimize across a range of K"),
        ("bench", "throughput and correctness benchmarks"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--n", type=int, default=2, help="qubit count (default 2)")
        p.add_argument("--K", type=int, default=None, help="number of observables")
        p.add_argument("--alpha", type=_alpha_type, default=1.0,
                       help="Renyi order; accepts 'inf' (default 1)")
        p.add_argument("--samples", type=int, default=200,
                       help="random samples / minimizer budget (default 200)")
        p.add_argument("--seed", type=int, default=1234, help="RNG seed (default 1234)")
        p.add_argument("--k-min", dest="k_min", type=int, default=None)
        p.add_argument("--k-max", dest="k_max", type=int, default=None)
        p.add_argument("--tol-psd", dest="tol_psd", type=float, default=None,
                       help="override positivity tolerance")
        p.add_argument("--tol-opt", dest="tol_opt", type=float, default=None,
                       help="override optimization-gap tolerance")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    return parser


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


def _suite_anticommutation(cfg, gens) -> list[dict]:
    exact_ok = gens.verify_anticommutation()
    checks = [_check("anticommutation-symplectic", exact_ok, 0.0 if exact_ok else 1.0,
                     "exact pairwise {G_j, G_k} = 2 delta_jk over the extended set")]
    if cfg.n <= 6:
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


def _suite_projection(cfg, gens, seed_seq) -> list[dict]:
    sizes = _chunk_sizes(cfg.samples)
    seeds = seed_seq.spawn(len(sizes))

    def work(item):
        count, seed = item
        mats = random_state_batch(cfg.n, count, seed, "mixed-hs")
        g = extended_expectations(mats, gens)
        proj = matrix_from_expectations(g, gens)
        min_eig = float(np.linalg.eigvalsh(proj)[:, 0].min())
        norm_sq = float((g * g).sum(axis=1).max())
        g_again = extended_expectations(proj, gens)
        idem = float(np.max(np.abs(matrix_from_expectations(g_again, gens) - proj)))
        traces = np.trace(proj, axis1=1, axis2=2)
        tr_res = float(np.max(np.abs(traces - 1.0)))
        return min_eig, norm_sq, idem, tr_res

    parts = _map_chunks(work, list(zip(sizes, seeds)), cfg.threads)
    min_eig = min(p[0] for p in parts)
    norm_sq = max(p[1] for p in parts)
    idem = max(p[2] for p in parts)
    tr_res = max(p[3] for p in parts)
    return [
        _check("projection-positivity", min_eig >= -cfg.tol_psd, max(0.0, -min_eig),
               f"worst projected eigenvalue over {cfg.samples} states"),
        _check("projection-idempotent", idem <= RECONSTRUCTION, idem, ""),
        _check("projection-trace", tr_res <= 1e-10, tr_res, ""),
        _check("expectation-ball", norm_sq <= 1.0 + cfg.tol_psd, max(0.0, norm_sq - 1.0),
               "sum of squared expectations against 1"),
    ]


def _random_orthogonal(rng, size: int, det_sign: int | None = None) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if det_sign is not None and np.sign(np.linalg.det(q)) != det_sign:
        q[:, 0] = -q[:, 0]
    return q


def _suite_rotors(cfg, gens, seed_seq) -> list[dict]:
    s_lift, s_refl, s_euler, s_constr = seed_seq.spawn(4)
    count = max(4, cfg.samples // 50)
    size = 2 * cfg.n + 1

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
        t = _random_orthogonal(rng, 2 * cfg.n, det_sign=-1)
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
    mats = random_state_batch(cfg.n, max(4, cfg.samples // 50), s_constr, "mixed-hs")
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


def _suite_concavity(cfg) -> list[dict]:
    grid = np.linspace(0.001, 0.999, 997)
    prof = concavity_profile(grid)
    curv_max = float(prof.curvature.max())
    slope_rel = float(np.max(np.abs(prof.slope - _fd_slope(grid)) / np.abs(prof.slope)))
    curv_rel = float(np.max(np.abs(prof.curvature - _fd_curvature(grid)) / np.abs(prof.curvature)))
    return [
        _check("concavity-sign", curv_max <= CONCAVITY, max(0.0, curv_max),
               "analytic curvature must be nonpositive"),
        _check("concavity-slope-fd", slope_rel <= 1e-6, slope_rel,
               "analytic first derivative against central differences"),
        _check("concavity-curvature-fd", curv_rel <= 1e-6, curv_rel, ""),
    ]


def cmd_verify(cfg: RunConfig):
    gens = jordan_wigner(cfg.n)
    root = np.random.SeedSequence(cfg.seed)
    s_proj, s_rotors = root.spawn(2)
    checks = []
    checks += _suite_anticommutation(cfg, gens)
    checks += _suite_projection(cfg, gens, s_proj)
    checks += _suite_rotors(cfg, gens, s_rotors)
    checks += _suite_concavity(cfg)
    residuals = {c["name"]: c["residual"] for c in checks}
    code = 0 if all(c["passed"] for c in checks) else 1
    return code, checks, residuals


# ---------------------------------------------------------------------------
# minimize / sweep


def cmd_minimize(cfg: RunConfig):
    gens = jordan_wigner(cfg.n)
    report = find_minimizer(gens, cfg.K, cfg.alpha, cfg.samples, cfg.seed)
    results = report.to_dict()
    residuals = {"bound_gap": report.gap}
    code = 1 if report.gap is not None and report.gap < -cfg.tol_opt else 0
    return code, results, residuals


def cmd_sweep(cfg: RunConfig):
    gens = jordan_wigner(cfg.n)
    rows = []
    worst_violation = 0.0
    ks = range(cfg.k_min, cfg.k_max + 1)
    for report in find_minimizers(gens, ks, cfg.alpha, cfg.samples, cfg.seed):
        rows.append({
            "K": report.K,
            "alpha": "inf" if math.isinf(cfg.alpha) else cfg.alpha,
            "closed_form": report.closed_form_bound,
            "numeric_min": report.numeric_min,
            "gap": report.gap,
        })
        if report.gap is not None:
            worst_violation = max(worst_violation, -report.gap)
    residuals = {"max_bound_violation": worst_violation}
    code = 1 if worst_violation > cfg.tol_opt else 0
    return code, rows, residuals


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


def cmd_bench(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    big = _random_string(rng, 10_000)
    t0 = time.perf_counter()
    pauli.mul(big, _random_string(rng, 10_000))
    single_large = time.perf_counter() - t0

    throughput = bench_symplectic(seed=cfg.seed)
    per_site = [row["seconds_per_site"] for row in throughput]
    spread = max(per_site) / min(per_site)
    agreement = bench_agreement(cfg.seed)
    dense_rows = bench_dense_conjugation(cfg.seed)

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


def _to_csv(cfg: RunConfig, results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if cfg.command == "verify":
        writer.writerow(["check", "passed", "residual"])
        for c in results:
            writer.writerow([c["name"], c["passed"], repr(c["residual"])])
    elif cfg.command == "minimize":
        writer.writerow(["n", "K", "alpha", "closed_form", "numeric_min", "gap",
                         "samples", "seed"])
        writer.writerow([results["n"], results["K"], results["alpha"],
                         results["closed_form_bound"], repr(results["numeric_min"]),
                         results["gap"], results["samples"], results["seed"]])
    elif cfg.command == "sweep":
        writer.writerow(["K", "alpha", "closed_form", "numeric_min", "gap"])
        for row in results:
            writer.writerow([row["K"], row["alpha"], row["closed_form"],
                             repr(row["numeric_min"]), row["gap"]])
    else:
        writer.writerow(["section", "n", "metric", "value"])
        for row in results["symplectic"]:
            writer.writerow(["symplectic", row["n"], "seconds_per_product",
                             repr(row["seconds_per_product"])])
        for row in results["dense_conjugation"]:
            writer.writerow(["dense", row["n"], "seconds_per_conjugation",
                             repr(row["seconds_per_conjugation"])])
        writer.writerow(["agreement", "", "mismatches", results["agreement"]["mismatches"]])
    return buf.getvalue()


def _to_text(cfg: RunConfig, doc: dict) -> str:
    lines = [f"cliffcert {doc['tool_version']} :: {cfg.command}"]
    results = doc["results"]
    if cfg.command == "verify":
        for c in results:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']:<28} {status}  residual={c['residual']:.3e}")
    elif cfg.command == "minimize":
        lines.append(f"  n={results['n']} K={results['K']} alpha={results['alpha']}")
        if results["closed_form_bound"] is not None:
            lines.append(f"  closed form   : {results['closed_form_bound']!r}"
                         f" ({results['bound_kind']})")
        lines.append(f"  numeric min   : {results['numeric_min']!r}")
        if results["gap"] is not None:
            lines.append(f"  gap           : {results['gap']:.3e}")
        lines.append(f"  argmin        : {np.round(results['argmin_g'], 6).tolist()}")
    elif cfg.command == "sweep":
        lines.append(f"  {'K':>3} {'closed_form':>18} {'numeric_min':>18} {'gap':>12}")
        for row in results:
            cf = "-" if row["closed_form"] is None else f"{row['closed_form']:.12f}"
            gap = "-" if row["gap"] is None else f"{row['gap']:.3e}"
            lines.append(f"  {row['K']:>3} {cf:>18} {row['numeric_min']:>18.12f} {gap:>12}")
    else:
        for row in results["symplectic"]:
            lines.append(f"  n={row['n']:>7}: {row['seconds_per_product'] * 1e6:9.2f} us/product")
        lines.append(f"  per-site spread over n: {results['per_site_spread']:.2f}x")
        lines.append(f"  symplectic vs dense mismatches: {results['agreement']['mismatches']}")
    lines.append(f"  wall time: {doc['wall_time_ms']:.1f} ms")
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, doc: dict) -> None:
    if cfg.fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif cfg.fmt == "csv":
        text = _to_csv(cfg, doc["results"])
    else:
        text = _to_text(cfg, doc)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "verify": cmd_verify,
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        cfg = RunConfig.from_args(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        code, results, residuals = _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CliffcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "tool_version": __version__,
        "command": cfg.command,
        "config": cfg.public_dict(),
        "results": results,
        "residuals": residuals,
        "wall_time_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    _emit(cfg, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
