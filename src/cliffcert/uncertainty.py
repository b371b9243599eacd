"""Entropy averages over anti-commuting observables and their minima.

Measuring an involutory observable with expectation g on a state gives the
two-outcome distribution ((1+g)/2, (1-g)/2), so the average Renyi entropy
over the first K observables depends on the state only through its
expectation vector.  Combined with the unit-ball characterization of
admissible vectors this turns state-space minimization into a K-dimensional
ball search.  Each order's formulas (the two-outcome entropy, its first
two derivatives in the squared bias t = g**2, the n-outcome entropy, the
radius floor) are one record that ``_order`` picks, the one place that
branches on the order.  The floor is the least K-average on the sphere of
radius r: at a vertex, 1 + (H(r) - 1)/K, for the Shannon term, which is
concave in t, and by Jensen at the equal spread, H(r/sqrt(K)), for the
collision and min-entropy terms, which are convex in t.  A state realizes
either point at r = 1, so the floor there is the exact minimum, the closed
form:

    alpha = 1   : min = 1 - 1/K                (one expectation at +-1)
    alpha = 2   : min = 1 - log2(1 + 1/K)      (all expectations at 1/sqrt(K))
    alpha = inf : min = 1 - log2(1 + 1/sqrt(K))  (the same: -log2((1 + sqrt t)/2)
                  decreases and is convex in t, so Jensen applies)

The floor decreases in r, so the ball search visits its points in
decreasing radius and stops after the first chunk whose last radius has its
floor above the running best (``_best_in_ball``); general orders have no
floor, and their search scores every point.  Every term decreases in |g|, so
every minimum lies on the sphere: the best point, and the cross-check's
start, are refined by a projected Newton descent in t on the face
sum t_j = 1, stopped by its KKT residual (``_projected_descent``).  All
entropies are in bits.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pauli
from .clifford import GeneratorSet
from .errors import DomainError, check_budget, check_integer
from .pauli import PauliString
from .states import (
    DensityMatrix,
    GVector,
    extended_expectations,
    outcome_expectations,
    random_pure_states,
    random_state_batch,  # noqa: F401  re-exported: perfbench's tracer test reads it here
    realize,
    vector_expectations,
)
from .tolerances import DENSE_GUARD, MEMORY_BUDGET, ORTHOGONALITY, PSD, TRACE

_LN2 = math.log(2.0)
_SHANNON_EPS = 1e-12  # alpha within this of 1 is treated as Shannon
_D2_TERMS = 8  # terms of a general order's phi'' series (_series_d2)
# Rows of the unit-ball search built and scored at once: the search's working
# set beyond its draws is a few arrays of this many rows, whatever the budget.
_BALL_CHUNK = 8192
# The search stops only where the floor lies above the running best plus this:
# far above the ~1e-15 between the floor at a row's radius and the value of
# its built point, whose norm and entropy terms carry rounding.
_FLOOR_SLACK = 1e-9
# The descent stops converged at this KKT residual, or at this one when no step
# lowers the objective: that moves as the residual squared, so below about
# sqrt(eps) rounding hides it.  Its line search takes a rise of the objective
# f of at most _ROUNDING |f| for rounding.
_KKT_TOL = 1e-12
_STALL_TOL = 1.5e-8
_ROUNDING = 4.0 * np.finfo(float).eps


def _check_order(alpha) -> float:
    """The Renyi order as a float: a positive real or ``inf``; NaN and bools are rejected."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not alpha > 0.0:
        raise DomainError(f"Renyi order must be positive, got {alpha!r}")
    return float(alpha)


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """``p log2 p`` with ``0 log2 0 = 0``, in one output array."""
    pos = p > 0.0
    out = np.log2(p, out=np.zeros(np.shape(p)), where=pos)
    return np.multiply(p, out, out=out, where=pos)


class _Order(NamedTuple):
    """One Renyi order's formulas: ``term(g)``, the two-outcome entropy at
    expectation ``g``; ``d1(t)`` and ``d2(t)``, the first and second
    derivatives of ``phi(t) = term(sqrt(t))`` in the squared bias ``t``;
    ``entropy(p)`` of a normalized probability vector; ``floor(r, K)``, the
    least K-average over the sphere of radius ``r`` (vectorized in ``r`` and
    decreasing in it).  At r = 1 the floor is attained by a state, so it is
    the closed form of the K-average minimum, an exact minimum.  ``floor``
    is ``None`` for a general order."""

    term: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    entropy: Callable[[np.ndarray], float]
    floor: Callable[[np.ndarray, int], np.ndarray] | None = None


def _vertex_floor(term):
    """The floor of an order concave in ``t = g**2``: on the simplex sum t_j = r**2
    a concave sum is least at a vertex, one ``g_j = r`` and the rest 0."""
    return lambda r, K: 1.0 + (term(r) - 1.0) / K


def _spread_floor(term):
    """The floor of an order convex in ``t = g**2``: by Jensen the K-average is
    least at the equal spread, every ``g_j = r/sqrt(K)``."""
    return lambda r, K: term(r / math.sqrt(K))


def _clipped(term, d1, d2, entropy, floor=None) -> _Order:
    """``term`` taken on ``g`` clipped to [-1, 1]; ``d1`` and ``d2`` on ``t``
    clipped 1e-12 inside [0, 1], where both are finite for every order (the
    min-entropy's slope tends to -inf at t = 0, Shannon's at t = 1); ``floor``,
    if given, builds the floor from the clipped ``term``."""
    # np.minimum(np.maximum(...)) is np.clip's arithmetic, bit for bit, without
    # the cost of its Python wrapper on the descents' short vectors.
    def clipped(g):
        return term(np.minimum(np.maximum(g, -1.0), 1.0))

    def inside(derivative):
        return lambda t: derivative(np.minimum(np.maximum(t, 1e-12), 1.0 - 1e-12))

    return _Order(clipped, inside(d1), inside(d2), entropy, floor and floor(clipped))


def _power(a: float) -> _Order:
    """A general order ``a``, written around the largest probability ``m``:

        H_a = -log2(m) - log1p(sum_i p_i expm1((a - 1) ln(p_i/m))) / ((a - 1) ln 2),

    summed over ``p_i > 0``.  No power sum underflows at a large order, and
    nothing cancels as ``a -> 1``, where the form tends to Shannon's.  Two
    outcomes have ``q = (1 - |g|)/2``, ``m = 1 - q`` and one term, at
    ``r = q/m``.  In ``t = b**2``, with ``L = ln r = -2 artanh(b)``,

        phi'(t) = (a/c) expm1(c L) / (2 b ln2 (1 + b) (1 + r**a)),   c = a - 1,

    and ``phi''`` is ``phi'`` times its logarithmic derivative in ``b``,
    over ``2 b``.  Neither cancels in ``c``; at ``c L -> -inf`` both are the
    min-entropy's, bit for bit."""
    c = a - 1.0

    def term(g):
        # in place on two arrays (0-d included): the ball search's hot path for general orders
        q = np.abs(g, out=np.empty(np.shape(g)))
        q *= -0.5
        q += 0.5
        e = np.subtract(1.0, q, out=np.empty(q.shape))
        np.divide(q, e, out=e)
        # Every r > 0 is at least 2**-54, so only r = 0 is raised, to a ratio whose
        # (a - 1) ln r stays below exp's overflow for a < 1: there q = 0 times a
        # finite expm1 is 0, not 0 * inf.  A masked log (where=) would skip SIMD.
        np.maximum(e, 1e-300, out=e)
        np.log2(e, out=e)
        e *= c * _LN2
        np.expm1(e, out=e)
        e *= q
        np.log1p(e, out=e)
        e /= -c * _LN2
        np.subtract(1.0, q, out=q)
        np.log2(q, out=q)
        e -= q
        return e

    def d1(t):
        b = np.sqrt(t)
        ln_r = -2.0 * np.arctanh(b)
        # a / c first: a - 1 near the float maximum would overflow a product with it
        return (a / c) * np.expm1(c * ln_r) / (
            2.0 * b * _LN2 * (1.0 + b) * (1.0 + np.exp(a * ln_r)))

    def closed_d2(t):
        b = np.sqrt(t)
        ln_r = -2.0 * np.arctanh(b)
        dln_r = -2.0 / (1.0 - t)
        cl = c * ln_r
        r_a = np.exp(a * ln_r)
        # a * r_a before dln_r: r_a is 0 wherever a is large enough to overflow a product
        log_slope = (c * np.exp(cl) * dln_r / np.expm1(cl) - 1.0 / b - 1.0 / (1.0 + b)
                     - a * r_a * dln_r / (1.0 + r_a))
        return d1(t) * log_slope / (2.0 * b)

    d2 = _series_d2(a, closed_d2)

    def entropy(p):
        top = p.max()
        kept = p[p > 0.0]
        return float(-(np.log2(top) + np.log1p(np.sum(kept * np.expm1(c * np.log(kept / top))))
                       / (c * _LN2)))

    # A product (a - 1) ln x is at most 745 (a - 1) in size (745 bounds -ln of
    # every positive double), so only an order this large overflows one, to
    # -inf, where expm1(-inf) = -1 is the right limit.  The warning is
    # silenced; no bit moves.
    if c > 1e305:
        term, d1, d2, entropy = (np.errstate(over="ignore")(f) for f in (term, d1, d2, entropy))
    return _clipped(term, d1, d2, entropy)


def _series_d2(a: float, closed):
    """``phi''`` of the order ``a``: ``closed`` from ``cut`` on, a series below;
    ``cut = 1e-3`` for ``a < 1`` and ``min(1e-3, 1e-2/a**2)`` from 1 on.

    The closed form's ``1/b`` terms cancel as ``b = sqrt(t) -> 0``, to a
    relative error of about ``eps/t``.  The series comes from
    ``p**a + q**a = 2**(1 - a) S(t)`` with ``S = sum_j C(a, 2j) t**j``.
    Every ``C(a, 2j)`` with ``j >= 1`` holds the factor ``a - 1``, divided out
    exactly: ``S = 1 + c T`` with ``c = a - 1`` and ``T = sum_{j>=1} k_j t**j``,
    ``k_1 = a/2``, ``k_{j+1} = k_j (a - 2j)(a - 2j - 1)/((2j + 1)(2j + 2))``.
    Then ``phi = 1 + ln(S)/((1 - a) ln 2)`` gives
    ``phi'' = -(T''/S - c (T'/S)**2)/ln 2``, where nothing cancels as
    ``a -> 1``, and at ``a = 1`` it is Shannon's.  Below the cut each term
    is at most 1e-3 of the one before, so ``_D2_TERMS`` terms reach
    rounding.  A general order clips ``t`` at 1e-12, so from ``a = 1e5`` on
    no ``t`` reaches the series and ``closed`` is returned.
    """
    # a * a underflows to 0 below a = 1.5e-162, so the small orders take 1e-3 outright
    cut = 1e-3 if a < 1.0 else min(1e-3, 1e-2 / (a * a))
    if cut <= 1e-12:
        return closed
    c = a - 1.0
    j = np.arange(1, _D2_TERMS + 1)
    i = j[:-1]
    ratios = (a - 2 * i) * (a - 2 * i - 1) / ((2 * i + 1) * (2 * i + 2))
    k = np.cumprod(np.concatenate([[a / 2.0], ratios]))

    def d2(t):
        polyval = np.polynomial.polynomial.polyval  # looked up here: numpy imports it lazily
        s = np.minimum(t, cut)
        big_s = 1.0 + c * s * polyval(s, k)
        slope = polyval(s, j * k) / big_s
        series = -(polyval(s, (j * (j - 1) * k)[1:]) / big_s - c * slope * slope) / _LN2
        return np.where(t < cut, series, closed(np.maximum(t, cut)))

    return d2


def _min_entropy_d1(t):
    b = np.sqrt(t)
    return -1.0 / (2.0 * b * _LN2 * (1.0 + b))


def _min_entropy_d2(t):
    b = np.sqrt(t)
    return _min_entropy_d1(t) * (-1.0 / b - 1.0 / (1.0 + b)) / (2.0 * b)


def _shannon_d1(t):
    b = np.sqrt(t)
    return (np.log(1.0 - b) - np.log(1.0 + b)) / (4.0 * _LN2 * b)


def _shannon_closed_d2(t):
    b = np.sqrt(t)
    return (np.log((1.0 + b) / (1.0 - b)) - 2.0 * b / (1.0 - t)) / (8.0 * _LN2 * t**1.5)


# At a = 1, c = 0 and k_j = 1/(2j (2j - 1)), the series is Shannon's
# phi'' = -(1/(2 ln2)) sum_{j>=2} (j - 1) t**(j-2)/(2j - 1), below t = 1e-3, where
# the closed form cancels (relative error 8.5 at t = 1e-12).
_shannon_d2 = _series_d2(1.0, _shannon_closed_d2)


# The orders with a floor, and so a closed form: min-entropy, Shannon and collision.
# The min-entropy's derivatives are the general order's at c L = -inf, in its arithmetic.
_MIN_ENTROPY = _clipped(
    lambda g: -np.log2((1.0 + np.abs(g)) / 2.0),
    _min_entropy_d1, _min_entropy_d2,
    lambda p: float(-np.log2(p.max())), _spread_floor)
_SHANNON = _clipped(
    lambda g: -(_xlog2x((1.0 + g) / 2.0) + _xlog2x((1.0 - g) / 2.0)),
    _shannon_d1, _shannon_d2,
    lambda p: float(-np.sum(_xlog2x(p))), _vertex_floor)
_COLLISION = _clipped(
    lambda g: -np.log2((1.0 + g * g) / 2.0),
    lambda t: -1.0 / ((1.0 + t) * _LN2),
    lambda t: 1.0 / ((1.0 + t) ** 2 * _LN2),
    _power(2.0).entropy, _spread_floor)


def _order(alpha) -> _Order:
    """The formulas of the Renyi order ``alpha``: the one place that branches on it."""
    a = _check_order(alpha)
    if math.isinf(a):
        return _MIN_ENTROPY
    if abs(a - 1.0) < _SHANNON_EPS:
        return _SHANNON
    if a == 2.0:
        return _COLLISION
    return _power(a)


def _finite(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} must be finite")
    return x


def renyi_entropy(p, alpha) -> float:
    """Renyi entropy (bits) of a probability vector; ``alpha -> 1`` is Shannon.

    Entries may dip to ``-PSD`` (clamped to zero) and the sum may drift
    from 1 by ``TRACE``; anything worse, or a non-finite entry, is rejected.
    """
    order = _order(alpha)
    probs = _finite(p, "probabilities")
    if np.any(probs < -PSD):
        raise DomainError(f"negative probability beyond tolerance: {probs.min():.3e}")
    total = float(probs.sum())
    if abs(total - 1.0) > TRACE:
        raise DomainError(f"probabilities sum to {total}, not 1")
    return order.entropy(np.clip(probs, 0.0, None) / total)


def entropy_of_expectations(g, alpha) -> np.ndarray:
    """Vectorized two-outcome entropy of finite expectations ``g`` within ``PSD`` of [-1, 1]."""
    order, g = _order(alpha), _finite(g, "expectations")
    if np.any(np.abs(g) > 1.0 + PSD):
        raise DomainError(f"expectation outside [-1, 1]: {np.max(np.abs(g)):.17g}")
    return order.term(g)


def observable_entropy(rho: DensityMatrix, g: PauliString, alpha) -> float:
    """Entropy of the outcome distribution of one Hermitian involution.

    Equals the eigenprojector route: the outcome probabilities are
    ``Tr(P^b rho) = (1 +- Tr(rho G))/2``.
    """
    if not g.is_hermitian or not pauli.mul(g, g).is_identity:
        raise DomainError("observable must be a Hermitian involutory string")
    val = float(pauli.expect(g, rho.mat).real)
    return float(entropy_of_expectations(np.array([val]), alpha)[0])


def entropy_average(rho: DensityMatrix, gens: GeneratorSet, K: int, alpha) -> float:
    """Mean entropy over the first K observables in extended order."""
    K = check_integer(K, "K", 1, 2 * gens.n + 1)
    g = extended_expectations(rho.mat, gens)[:K]
    return float(entropy_of_expectations(g, alpha).mean())


def _closed_form(alpha) -> _Order:
    order = _order(alpha)
    if order.floor is None:
        raise DomainError(f"no closed form for alpha = {alpha}; supported: 1, 2, inf")
    return order


def closed_form_kind(alpha) -> str:
    """``exact-minimum`` for alpha in {1, 2, inf}: each closed form is a floor a state attains."""
    _closed_form(alpha)
    return "exact-minimum"


def closed_form_min(K: int, alpha) -> float:
    """The least K-observable entropy average (bits): the order's floor at radius 1."""
    K = check_integer(K, "K", 1)
    # + 0.0 turns the -0.0 of a zero entropy, at K = 1, into 0.0 and moves no other bit
    return float(_closed_form(alpha).floor(1.0, K)) + 0.0


def _ball_objective(g, order: _Order) -> np.ndarray:
    """Average entropy as a function of a (stack of) expectation vector(s)."""
    t = order.term(g)
    return np.add.reduce(t, axis=-1) / t.shape[-1]


def _face_point(a: np.ndarray, w) -> np.ndarray:
    """The point ``s_j = max(0, a_j + mu w_j)`` of the face ``sum s_j = 1``, for ``w > 0``.

    ``sum s`` is piecewise linear and nondecreasing in ``mu``, with
    breakpoints ``-a_j/w_j``: taken in increasing order, the coordinates that
    stay positive are a prefix, and ``mu`` follows exactly from the prefix
    sums of ``a`` and ``w``.  With ``w = 1`` this is the Euclidean projection
    of ``a`` onto the simplex; with ``a = t - phi'/phi''`` and ``w = 1/phi''``
    it minimizes the separable quadratic model of the objective on the face.
    """
    w = np.broadcast_to(w, a.shape)
    by_breakpoint = np.argsort(-a / w)
    a_sorted, w_sorted = a[by_breakpoint], w[by_breakpoint]
    mu = (1.0 - np.cumsum(a_sorted)) / np.cumsum(w_sorted)
    k = np.flatnonzero(a_sorted + mu * w_sorted > 0.0)[-1]
    s = np.maximum(a + mu[k] * w, 0.0)
    return s / s.sum()  # the prefix sums leave sum(s) a few ulps off 1


def _face_objective(t: np.ndarray, order: _Order) -> float:
    return float(_ball_objective(np.sqrt(t), order))


def _projected_descent(g0, order: _Order,
                       max_iter: int = 1000) -> tuple[np.ndarray, float, int, bool]:
    """Minimize the K-average from ``g0`` on the unit sphere: ``(g, f, steps, converged)``.

    Every term decreases in ``|g_j|``, so every order's minimum over the ball
    lies on the sphere, and the descent runs in ``t_j = g_j**2`` on the face
    ``sum t_j = 1`` of the simplex, from ``t = g0**2/|g0|**2`` (which can only
    lower the objective).  Where every ``phi''(t_j)`` is positive it takes
    the projected Newton step to :func:`_face_point` of ``t - phi'/phi''``
    (Bertsekas, SIAM J. Control Optim. 20, 221 (1982)), along the segment to
    it; elsewhere the projected-gradient step ``P(t - step phi'/ptp(phi'))``,
    whose full step moves ``t`` across the simplex whatever the scale of
    ``phi'`` (which is of the order of alpha at small alpha).
    Both backtrack from a full step by the Armijo rule on the true objective,
    which forgives a rise of ``_ROUNDING |f|``: that is rounding, and near
    the minimum it would otherwise refuse the last Newton steps.

    The descent stops, converged, once the KKT residual ``|t - P(t - phi'/K)|``
    is at most ``_KKT_TOL``, or when no step lowers the objective and the
    residual is at most ``_STALL_TOL``: the objective moves as the residual
    squared, so below that rounding hides every step.  It stops unconverged
    when no step lowers the objective above that residual, or after
    ``max_iter`` steps.  ``g`` is ``+-sqrt(t)`` with each sign taken from
    ``g0`` (+ on zero), since every term is even in ``g``; ``f`` is the
    objective there and ``steps`` the steps taken.
    """
    g0 = np.asarray(g0, dtype=float)
    sign = np.where(g0 < 0.0, -1.0, 1.0)
    t = g0 * g0
    t /= t.sum()
    f = _face_objective(t, order)
    for steps in range(max_iter):
        slope = order.d1(t)
        grad = slope / t.size
        residual = float(np.linalg.norm(t - _face_point(t - grad, 1.0)))
        if residual <= _KKT_TOL:
            return sign * np.sqrt(t), f, steps, True
        curvature = order.d2(t)
        newton = None
        if np.all(curvature > 0.0):
            w = 1.0 / curvature
            newton = _face_point(t - slope * w, w)
        else:
            # the slopes differ, or the residual would be 0
            scale = 1.0 / np.ptp(slope)
        slack = _ROUNDING * abs(f)
        step = 1.0
        while step > 1e-14:
            if newton is None:
                cand = _face_point(t - (step * scale) * slope, 1.0)
            else:
                cand = t + step * (newton - t)
            fc = _face_objective(cand, order)
            if fc <= f - 1e-4 * float(np.dot(grad, t - cand)) + slack:
                t, f = cand, fc
                break
            step *= 0.5
        else:
            return sign * np.sqrt(t), f, steps, residual <= _STALL_TOL
    return sign * np.sqrt(t), f, max_iter, False


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=1)`` bit for bit, faster on short rows.

    numpy adds fewer than eight elements in sequence, so a short row sums
    to the same bits column by column, without the reduction's per-row
    cost; from eight elements on numpy adds pairwise, so longer rows go
    through the reduction itself.
    """
    if a.shape[1] >= 8:
        return np.add.reduce(a, axis=1)
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _best_row(d: np.ndarray, radii: np.ndarray, order: _Order) -> tuple[np.ndarray, float]:
    """The best of the points ``d_i radii_i / |d_i|``, first on ties, and its value.

    Every step acts row by row, so a point and its value have the same bits
    whichever rows are built with it."""
    norms = np.sqrt(_row_sums(d * d))
    norms[norms == 0.0] = 1.0
    points = d * (radii / norms)[:, None]
    vals = _row_sums(order.term(points)) / d.shape[1]
    i = int(np.argmin(vals))
    return points[i].copy(), vals[i]


def _best_in_ball(rows, budget: int, K: int, order: _Order) -> np.ndarray:
    """The best of the ``budget`` points ``d_i exp(log_u_i / K) / |d_i|``, first on ties.

    ``rows(start, stop)`` returns the rows ``d_start .. d_(stop-1)`` and their
    ``log_u``, which does not increase, so the radii fall.  The rows are
    scored ``_BALL_CHUNK`` at a time, and after each chunk the floor is
    taken once, at the chunk's last radius.  Every later row's radius is no
    larger and the floor decreases in the radius, so once that floor lies
    above the running best plus ``_FLOOR_SLACK`` no later row can win: the
    search stops there and never asks ``rows`` for them.  With no floor it
    scores every row.  Each row is scored with the same arithmetic whichever
    rows come with it, so the result is the whole array's best, bit for bit,
    whatever the chunk size.
    """
    best, best_val = None, math.inf
    for start in range(0, budget, _BALL_CHUNK):
        d, log_u = rows(start, min(start + _BALL_CHUNK, budget))
        radii = np.exp(log_u / K)
        point, val = _best_row(d, radii, order)
        if val < best_val:
            best, best_val = point, val
        if order.floor is not None and order.floor(radii[-1], K) > best_val + _FLOOR_SLACK:
            break
    return best


def _ball_bests(seed_dirs, seed_radii, ks, budget: int, order: _Order) -> dict[int, np.ndarray]:
    """The best point of the unit-ball search (:func:`_best_in_ball`) for each distinct K of ``ks``.

    Row i's radius for K is ``exp(log_u_i / K)``: ``-log_u`` is the running
    sum of the exponentials of ``default_rng(seed_radii)``, the j-th divided
    by ``budget - j``, so ``log_u`` holds the logarithms of ``budget`` iid
    uniforms in decreasing order (Renyi's representation of order
    statistics), shared by every K.  K's directions are the first
    ``budget*K`` normals of ``default_rng(seed_dirs)``, as ``(budget, K)``
    rows.  Each stream fills an empty buffer only as far as some K reads,
    the sum carried from one draw into the next, so each K sees the points,
    bit for bit, that a search of its own would draw, and unread pages are
    never touched.  Both buffers are freed on return.
    """
    stream, rng, drawn = np.empty(budget * max(ks)), np.random.default_rng(seed_dirs), 0
    log_u, exps, summed = np.empty(budget), np.random.default_rng(seed_radii), 0

    def rows(K, start, stop):
        nonlocal drawn, summed
        if stop * K > drawn:
            rng.standard_normal(out=stream[drawn:stop * K])
            drawn = stop * K
        if stop > summed:
            new = exps.standard_exponential(out=log_u[summed:stop])
            new /= np.arange(budget - summed, budget - stop, -1)
            if summed:
                new[0] -= log_u[summed - 1]  # adds the running sum, negated in log_u
            np.negative(np.cumsum(new, out=new), out=new)
            summed = stop
        return stream[start * K:stop * K].reshape(-1, K), log_u[start:stop]

    return {K: _best_in_ball(functools.partial(rows, K), budget, K, order) for K in set(ks)}


@dataclass(frozen=True)
class EntropyReport:
    """Result of one entropy-average minimization."""

    n: int
    K: int
    alpha: float
    closed_form_bound: float | None
    bound_kind: str | None
    numeric_min: float
    argmin_g: GVector
    samples: int
    seed: int
    gap: float | None
    cross_check_min: float
    descent_steps: tuple[int, int]
    converged: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "alpha": "inf" if math.isinf(self.alpha) else self.alpha,
            "closed_form_bound": self.closed_form_bound,
            "bound_kind": self.bound_kind,
            "numeric_min": self.numeric_min,
            "argmin_g": [float(v) for v in self.argmin_g.values],
            "samples": self.samples,
            "seed": self.seed,
            "gap": self.gap,
            "cross_check_min": self.cross_check_min,
            "descent_steps": list(self.descent_steps),
            "converged": self.converged,
        }


def find_minimizer(gens: GeneratorSet, K: int, alpha, budget: int, seed: int) -> EntropyReport:
    """Minimize the K-observable entropy average over all states.

    Samples ``budget`` points of the K-dimensional expectation ball (every
    point of which is realized by a state, so the search loses nothing),
    refines the best by the projected Newton descent of
    :func:`_projected_descent`, and cross-checks against the same refinement
    started from the best of a batch of Haar-random pure states, each
    measured on its state vector in O(K d).  Any state serves as a start
    point, because the ball search already covers every admissible
    expectation vector.  The reported minimum is measured on the minimizing
    state, realized as a mixture of two state vectors (:func:`states.realize`),
    each expectation taken from the vectors' eigenspace weights
    (:func:`states.outcome_expectations`), which is exactly +-1 at a vertex
    of the ball.  ``descent_steps`` gives the steps of the
    two descents, and ``converged`` is true when both converged.

    The ball's points are scored in decreasing radius, ``_BALL_CHUNK`` at a
    time, until the floor at a chunk's last radius rules out every later
    point, which keeps the result's bits (:func:`_best_in_ball`).  This is
    the one-K case of :func:`find_minimizers`.
    """
    return find_minimizers(gens, [K], alpha, budget, seed)[0]


def find_minimizers(gens: GeneratorSet, ks, alpha, budget: int, seed: int) -> list[EntropyReport]:
    """:func:`find_minimizer` for each K in ``ks``, each random stream drawn once.

    The ball directions of every K are read from one stream of normals, and
    every K shares one stream of ``budget`` radii in decreasing order, each
    drawn only as far as some K's search reaches, so each K sees the points
    a search of its own would draw (:func:`_ball_bests`).  Both draws are
    freed before the cross-check's pure-state vectors are drawn; those are
    measured once on their state vectors, O(K d) each with no ``(count, d,
    d)`` array, keeping only their ``2n+1`` expectations, which each K
    slices.  Every report equals the one :func:`find_minimizer` gives for
    its K, in the order of ``ks``; an empty ``ks`` draws nothing.

    Raises :class:`DomainError`, before anything is drawn and even for an
    empty ``ks``, unless every K is an integer in 1..2n+1, ``budget`` one of
    at least 1 and ``seed`` one of at least 0.

    Raises :class:`CapacityError`, before anything is drawn, when the ball
    search or the cross-check would hold more than ``MEMORY_BUDGET`` bytes
    at once.  The ball search is counted at its worst case, every direction
    and radius drawn, since a general order reads every row.  Within the
    budget, a generator set past ``DENSE_GUARD`` qubits, for which no state
    vector is drawn, raises :class:`DomainError`, also before anything is
    drawn.  No d x d array is built.
    """
    size = 2 * gens.n + 1
    ks = [check_integer(K, "K", 1, size) for K in ks]
    budget = check_integer(budget, "sample budget", 1)
    seed = check_integer(seed, "seed", 0)
    alpha = _check_order(alpha)
    order = _order(alpha)
    if not ks:
        return []
    state_count = min(2000, budget)
    # The direction stream plus the radii; the state vectors plus the
    # temporaries of their draw, norm and measurement, which tracemalloc
    # measured at 1.26 times the vectors at n = 8, 1.06 at n = 10 and 1.02 at n = 12.
    for what, nbytes in (("unit-ball search", budget * (max(ks) + 1) * 8),
                         ("pure-state cross-check", 1.3 * state_count * 2**gens.n * 16)):
        check_budget(what, nbytes, MEMORY_BUDGET)
    check_integer(gens.n, "qubit count of the cross-check's state vectors", 1, DENSE_GUARD)

    seed_dirs, seed_states, seed_radii = np.random.SeedSequence(seed).spawn(3)
    best = _ball_bests(seed_dirs, seed_radii, ks, budget, order)
    state_gs = vector_expectations(random_pure_states(gens.n, state_count, seed_states), gens)

    reports = []
    for K in ks:
        g_ball, _, ball_steps, ball_converged = _projected_descent(best[K], order)
        gs = state_gs[:, :K]
        _, f_state, state_steps, state_converged = _projected_descent(
            gs[int(np.argmin(_ball_objective(gs, order)))], order)

        padded = np.zeros(size)
        # + 0.0 here, on the minimum and on the cross-check, as in closed_form_min:
        # no -0.0 in a report
        padded[:K] = g_ball + 0.0
        argmin_g = GVector(gens.n, padded)
        psi, weights = realize(argmin_g, gens)
        measured = weights @ outcome_expectations(psi, gens)
        numeric_min = float(entropy_of_expectations(measured[:K], alpha).mean()) + 0.0
        bound = None if order.floor is None else closed_form_min(K, alpha)

        reports.append(EntropyReport(
            n=gens.n,
            K=K,
            alpha=alpha,
            closed_form_bound=bound,
            bound_kind=None if bound is None else closed_form_kind(alpha),
            numeric_min=numeric_min,
            argmin_g=argmin_g,
            samples=budget,
            seed=seed,
            gap=None if bound is None else numeric_min - bound,
            cross_check_min=f_state + 0.0,
            descent_steps=(ball_steps, state_steps),
            converged=ball_converged and state_converged,
        ))
    return reports


def _squared_bias(t, interior: bool) -> np.ndarray:
    """``t`` as a float array, refused outside [0, 1], or outside (0, 1) when ``interior``."""
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t < 1.0) if interior else (t >= 0.0) & (t <= 1.0)):
        raise DomainError(f"squared bias must lie in {'(0, 1)' if interior else '[0, 1]'}")
    return t


def bias_entropy(t) -> np.ndarray | float:
    """Shannon entropy (bits) of a binary outcome with squared bias ``t`` in [0, 1].

    That is the Shannon term at expectation ``sqrt(t)``, outcomes ``(1 +- sqrt(t))/2``.
    """
    val = _SHANNON.term(np.sqrt(_squared_bias(t, interior=False)))
    return float(val) if val.ndim == 0 else val


def bias_entropy_d1(t) -> np.ndarray | float:
    """First derivative of :func:`bias_entropy` on (0, 1)."""
    val = _shannon_d1(_squared_bias(t, interior=True))
    return float(val) if val.ndim == 0 else val


def bias_entropy_d2(t) -> np.ndarray | float:
    """Second derivative of :func:`bias_entropy` on (0, 1); nonpositive."""
    val = _shannon_d2(_squared_bias(t, interior=True))
    return float(val) if val.ndim == 0 else val


def maassen_uffink_bound(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """-log2 of the largest overlap between two orthonormal bases (columns).

    Lower-bounds the two-basis average Shannon entropy; used as a sanity
    oracle against the anti-commuting averages.
    """
    a = np.asarray(basis_a, dtype=complex)
    b = np.asarray(basis_b, dtype=complex)
    for name, u in (("basis_a", a), ("basis_b", b)):
        if u.ndim != 2 or u.shape[0] != u.shape[1] or not u.size:
            raise DomainError(f"{name} must be a non-empty square matrix of column vectors")
        res = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if not res <= ORTHOGONALITY:  # also refuses NaN
            raise DomainError(f"{name} is not unitary: residual {res:.3e}")
    if a.shape != b.shape:
        raise DomainError("bases must have matching dimensions")
    c = float(np.max(np.abs(a.conj().T @ b)))
    return -math.log2(c)
