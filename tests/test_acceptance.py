"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here and matches the library defaults.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from cliffcert import (
    CapacityError,
    DensityMatrix,
    PauliString,
    anticommutes,
    conjugation_residual,
    euler_decompose,
    extended_expectations,
    find_minimizer,
    jordan_wigner,
    lift,
    matrix_from_expectations,
    maassen_uffink_bound,
    mul,
    project_bloch,
    random_state_batch,
    recompose,
    reduce_to_axis,
    to_dense,
)
from cliffcert.cli import bench_agreement, bench_symplectic
from cliffcert.uncertainty import bias_entropy, bias_entropy_d1, bias_entropy_d2


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _random_orthogonal(rng, size, det_sign=None):
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if det_sign is not None and np.sign(np.linalg.det(q)) != det_sign:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_01_anticommutation():
    t0 = time.perf_counter()
    exact_ok = True
    dense_worst = 0.0
    for n in range(1, 6):
        gens = jordan_wigner(n)
        elems = gens.extended_list()
        for a, b in combinations(elems, 2):
            exact_ok &= anticommutes(a, b)
        for g in elems:
            exact_ok &= mul(g, g) == PauliString.identity(n)
        stack = gens.dense_extended
        d = 2**n
        eye2 = 2.0 * np.eye(d)
        for j in range(len(stack)):
            for k in range(j, len(stack)):
                anti = stack[j] @ stack[k] + stack[k] @ stack[j]
                target = eye2 if j == k else 0.0
                dense_worst = np.maximum(dense_worst, np.max(np.abs(anti - target)))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and dense_worst <= 1e-12 and elapsed < 1.0
    _report(1, "anticommutation", ok, f"dense residual {dense_worst:.2e}, {elapsed:.2f}s")
    assert exact_ok
    assert dense_worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_projection_positivity():
    t0 = time.perf_counter()
    worst_eig = math.inf
    worst_norm = 0.0
    for n in (2, 3, 4):
        gens = jordan_wigner(n)
        mats = random_state_batch(n, 1000, seed=1000 + n, ensemble="mixed-hs")
        g = extended_expectations(mats, gens)
        proj = matrix_from_expectations(g, gens)
        worst_eig = np.minimum(worst_eig, np.linalg.eigvalsh(proj)[:, 0].min())
        worst_norm = np.maximum(worst_norm, (g * g).sum(axis=1).max())
    elapsed = time.perf_counter() - t0
    ok = worst_eig >= -1e-9 and worst_norm <= 1.0 + 1e-9 and elapsed < 30.0
    _report(2, "projection positivity", ok,
            f"min eig {worst_eig:.2e}, max sum-sq {worst_norm:.12f}, {elapsed:.1f}s")
    assert worst_eig >= -1e-9
    assert worst_norm <= 1.0 + 1e-9
    assert elapsed < 30.0


def test_criterion_03_constructive_equals_algebraic():
    worst = 0.0
    for n in (2, 3):
        gens = jordan_wigner(n)
        mats = random_state_batch(n, 200, seed=2000 + n, ensemble="mixed-hs")
        for mat in mats:
            rho = DensityMatrix.from_matrix(mat)
            rho_hat, u, _ = reduce_to_axis(rho, gens)
            proj = project_bloch(rho, gens)
            worst = np.maximum(worst, np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)))
    ok = worst <= 1e-8
    _report(3, "constructive = algebraic", ok, f"worst entry {worst:.2e}")
    assert worst <= 1e-8


@pytest.mark.parametrize("n,k", [(1, 3), (2, 5), (4, 9)])
def test_criterion_04_shannon_minimum(n, k):
    t0 = time.perf_counter()
    gens = jordan_wigner(n)
    rep = find_minimizer(gens, k, 1, budget=200_000, seed=40 + n)
    elapsed = time.perf_counter() - t0
    err = abs(rep.numeric_min - (1.0 - 1.0 / k))
    mags = np.sort(np.abs(rep.argmin_g.values))[::-1]
    ok = err <= 1e-6 and abs(mags[0] - 1.0) <= 1e-4 and mags[1] <= 1e-4 and elapsed < 60.0
    _report(4, f"Shannon minimum (n={n}, K={k})", ok,
            f"err {err:.2e}, top |g| {mags[0]:.6f}, next {mags[1]:.2e}, {elapsed:.1f}s")
    assert err <= 1e-6
    assert abs(mags[0] - 1.0) <= 1e-4
    assert mags[1] <= 1e-4
    assert elapsed < 60.0
    if (n, k) == (1, 3):
        assert rep.numeric_min == pytest.approx(2.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 5), (4, 9)])
def test_criterion_05_collision_minimum(n, k):
    gens = jordan_wigner(n)
    rep = find_minimizer(gens, k, 2, budget=200_000, seed=50 + n)
    err = abs(rep.numeric_min - (1.0 - math.log2(1.0 + 1.0 / k)))
    comp_err = float(np.max(np.abs(np.abs(rep.argmin_g.values[:k]) - 1.0 / math.sqrt(k))))
    ok = err <= 1e-6 and comp_err <= 1e-3
    _report(5, f"collision minimum (n={n}, K={k})", ok,
            f"err {err:.2e}, component err {comp_err:.2e}")
    assert err <= 1e-6
    assert comp_err <= 1e-3


@pytest.mark.parametrize("k", [3, 4, 5])
def test_criterion_06_min_entropy_tightness(k):
    gens = jordan_wigner(2)
    rep = find_minimizer(gens, k, math.inf, budget=200_000, seed=60 + k)
    bound = 1.0 - math.log2(1.0 + 1.0 / math.sqrt(k))
    err = abs(rep.numeric_min - bound)
    ok = err <= 1e-6
    _report(6, f"min-entropy bound tightness (K={k})", ok,
            f"err {err:.2e}; exact minimum reached")
    assert err <= 1e-6
    assert rep.bound_kind == "exact-minimum"


def test_criterion_07_rotor_lifting():
    lift_worst = 0.0
    flip_worst = 0.0
    for n in (1, 2, 3):
        gens = jordan_wigner(n)
        rng = np.random.default_rng(700 + n)
        for _ in range(100):
            t = _random_orthogonal(rng, 2 * n + 1, det_sign=1)
            lift_worst = np.maximum(lift_worst, conjugation_residual(lift(t, gens), t, gens))
        g0 = to_dense(gens.gamma0)
        for _ in range(20):
            t = _random_orthogonal(rng, 2 * n, det_sign=-1)
            u = lift(t, gens)
            flip_worst = np.maximum(flip_worst, np.max(np.abs(u @ g0 @ u.conj().T + g0)))
    ok = lift_worst <= 1e-8 and flip_worst <= 1e-10
    _report(7, "rotor lifting", ok,
            f"conjugation {lift_worst:.2e}, pseudoscalar flip {flip_worst:.2e}")
    assert lift_worst <= 1e-8
    assert flip_worst <= 1e-10


def test_criterion_08_euler_round_trip():
    rng = np.random.default_rng(80)
    worst = 0.0
    for i in range(100):
        size = 2 + i % 8  # sizes 2..9
        det = 1 if i % 2 == 0 else -1
        t = _random_orthogonal(rng, size, det_sign=det)
        worst = np.maximum(worst, np.max(np.abs(recompose(euler_decompose(t)) - t)))
    ok = worst <= 1e-10
    _report(8, "Euler round-trip", ok, f"worst entry {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_09_concavity():
    grid = np.linspace(0.001, 0.999, 997)
    curvature = bias_entropy_d2(grid)
    slope = bias_entropy_d1(grid)
    curv_max = float(np.max(curvature))

    # independent oracle: fourth-order central stencils of the entropy curve,
    # with a step that balances truncation against roundoff near t -> 1
    h = np.minimum(np.minimum(grid / 3.0, 5e-4), np.maximum(1.5e-5, 0.01 * (1.0 - grid)))
    f = bias_entropy
    fd1 = (-f(grid + 2 * h) + 8 * f(grid + h) - 8 * f(grid - h) + f(grid - 2 * h)) / (12 * h)
    fd2 = (
        -f(grid + 2 * h) + 16 * f(grid + h) - 30 * f(grid) + 16 * f(grid - h) - f(grid - 2 * h)
    ) / (12 * h * h)
    rel1 = float(np.max(np.abs(slope - fd1) / np.abs(slope)))
    rel2 = float(np.max(np.abs(curvature - fd2) / np.abs(curvature)))
    ok = curv_max <= 1e-12 and rel1 <= 1e-6 and rel2 <= 1e-6
    _report(9, "concavity", ok,
            f"max curvature {curv_max:.2e}, fd rel err {rel1:.2e}/{rel2:.2e}")
    assert curv_max <= 1e-12
    assert rel1 <= 1e-6
    assert rel2 <= 1e-6


def test_criterion_10_bound_suite():
    worst_margin = math.inf
    worst_norm = 0.0
    for n, k in ((2, 5), (3, 7)):
        gens = jordan_wigner(n)
        mats = random_state_batch(n, 10_000, seed=100 + n, ensemble="mixed-hs")
        g_full = extended_expectations(mats, gens)
        worst_norm = np.maximum(worst_norm, (g_full * g_full).sum(axis=1).max())
        g = g_full[:, :k]
        p = (1.0 + g) / 2.0
        q = (1.0 - g) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            shannon = -(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1)), 0.0)
                        + np.where(q > 0, q * np.log2(np.where(q > 0, q, 1)), 0.0))
        collision = -np.log2((1.0 + g * g) / 2.0)
        minent = -np.log2((1.0 + np.abs(g)) / 2.0)
        for avg, bound in (
            (shannon.mean(axis=1), 1.0 - 1.0 / k),
            (collision.mean(axis=1), 1.0 - math.log2(1.0 + 1.0 / k)),
            (minent.mean(axis=1), 1.0 - math.log2(1.0 + 1.0 / math.sqrt(k))),
        ):
            worst_margin = np.minimum(worst_margin, (avg - bound).min())
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    mu = maassen_uffink_bound(np.eye(2), hadamard)
    mu_ok = abs(mu - 0.5) <= 1e-15
    ok = worst_margin >= -1e-9 and worst_norm <= 1.0 + 1e-9 and mu_ok
    _report(10, "bound suite", ok,
            f"worst margin {worst_margin:.2e}, max sum-sq {worst_norm:.12f}, MU {mu!r}")
    assert worst_margin >= -1e-9
    assert worst_norm <= 1.0 + 1e-9
    assert mu_ok


def test_criterion_11_performance():
    rng = np.random.default_rng(110)

    def rand_string(n):
        return PauliString(n, rng.integers(0, 2, n, dtype=np.uint8),
                           rng.integers(0, 2, n, dtype=np.uint8), int(rng.integers(0, 4)))

    big = mul(rand_string(10_000), rand_string(10_000))
    assert big.n == 10_000
    with pytest.raises(CapacityError):
        to_dense(big)

    rows = bench_symplectic(sites=(1_000, 10_000, 100_000), batch=64, repeats=7, seed=11)
    per_site = [row["seconds_per_site"] for row in rows]
    spread = max(per_site) / min(per_site)

    agreement = bench_agreement(seed=11, pairs=1000)
    ok = spread <= 4.0 and agreement["mismatches"] == 0
    _report(11, "performance", ok,
            f"per-site spread {spread:.2f}x, mismatches {agreement['mismatches']}")
    assert spread <= 4.0
    assert agreement["mismatches"] == 0
