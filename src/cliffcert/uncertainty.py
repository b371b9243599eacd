"""Entropy averages over anti-commuting observables and their minima.

Measuring an involutory observable with expectation g on a state gives the
two-outcome distribution ((1+g)/2, (1-g)/2), so the average Renyi entropy
over the first K observables depends on the state only through its
expectation vector.  Combined with the unit-ball characterization of
admissible vectors this turns state-space minimization into a K-dimensional
ball search.  Each order's formulas (the two-outcome entropy and its slope,
the n-outcome entropy, the radius floor) are one record that ``_order``
picks, the one place that branches on the order.  The floor is the least
K-average on the sphere of radius r: at a vertex, 1 + (H(r) - 1)/K, for the
Shannon term, which is concave in t = g**2, and by Jensen at the equal
spread, H(r/sqrt(K)), for the collision and min-entropy terms, which are
convex in t.  A state realizes either point at r = 1, so the floor there is
the exact minimum, the closed form:

    alpha = 1   : min = 1 - 1/K                (one expectation at +-1)
    alpha = 2   : min = 1 - log2(1 + 1/K)      (all expectations at 1/sqrt(K))
    alpha = inf : min = 1 - log2(1 + 1/sqrt(K))  (the same: -log2((1 + sqrt t)/2)
                  decreases and is convex in t, so Jensen applies)

The floor decreases in r, so the ball search skips the points inside a
radius cut that falls with the running best (``_best_in_ball``); general
orders have no floor, and their search scores every point.  All entropies
are in bits.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pauli
from .clifford import GeneratorSet
from .errors import DomainError, check_budget
from .pauli import PauliString
from .states import (
    DensityMatrix,
    GVector,
    _check_count,
    extended_expectations,
    from_gvector,
    random_pure_states,
    random_state_batch,  # noqa: F401  re-exported: perfbench's tracer test reads it here
    vector_expectations,
)
from .tolerances import MEMORY_BUDGET, ORTHOGONALITY, PSD, TRACE

_LN2 = math.log(2.0)
_SHANNON_EPS = 1e-12  # alpha within this of 1 is treated as Shannon
# Rows of the unit-ball search built and scored at once: the search's working
# set beyond its draws is a few arrays of this many rows, whatever the budget.
_BALL_CHUNK = 8192
# The radius cut drops only rows whose floor lies above the running best plus
# this: far above the ~1e-15 between the floor at the row's radius and the
# value of its built point, whose norm and entropy terms carry rounding.
_FLOOR_SLACK = 1e-9
# The radius cut takes the floor on this many radii of [0, 1], and the search
# compares the uniform draws with it at most this many chunks ahead (a 64 KiB
# mask at most).
_CUT_RADII = 1025
_CUT_CHUNKS = 8


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
    expectation ``g``, and ``slope(g)``, its derivative; ``entropy(p)`` of a
    normalized probability vector; ``floor(r, K)``, the least K-average over
    the sphere of radius ``r`` (vectorized in ``r`` and decreasing in it).
    At r = 1 the floor is attained by a state, so it is the closed form of
    the K-average minimum, an exact minimum.  ``floor`` is ``None`` for a
    general order."""

    term: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
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


def _clipped(term, slope, entropy, floor=None) -> _Order:
    """``term`` taken on ``g`` clipped to [-1, 1], ``slope`` 1e-12 inside it, where it is
    finite; ``floor``, if given, builds the floor from the clipped ``term``."""
    # np.minimum(np.maximum(...)) is np.clip's arithmetic, bit for bit, without
    # the cost of its Python wrapper on the descents' short vectors.
    def clipped(g):
        return term(np.minimum(np.maximum(g, -1.0), 1.0))

    def clipped_slope(g):
        return slope(np.minimum(np.maximum(g, -1.0 + 1e-12), 1.0 - 1e-12))

    return _Order(clipped, clipped_slope, entropy, floor and floor(clipped))


def _power(a: float) -> _Order:
    """A general order ``a``, written around the largest probability ``m``:

        H_a = -log2(m) - log1p(sum_i p_i expm1((a - 1) ln(p_i/m))) / ((a - 1) ln 2),

    summed over ``p_i > 0``.  No power sum underflows at a large order, and
    nothing cancels as ``a -> 1``, where the form tends to Shannon's.  Two
    outcomes have ``q = (1 - |g|)/2``, ``m = 1 - q`` and one term, at
    ``r = q/m``."""
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

    def slope(g):
        b = np.abs(g)
        s = 1.0 + b
        r = (1.0 - b) / s
        return np.sign(g) * a * np.expm1(c * np.log(r)) / (c * _LN2 * s * (1.0 + r**a))

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
        term, slope, entropy = (np.errstate(over="ignore")(f) for f in (term, slope, entropy))
    return _clipped(term, slope, entropy)


# The orders with a floor, and so a closed form: min-entropy, Shannon and collision.
_MIN_ENTROPY = _clipped(
    lambda g: -np.log2((1.0 + np.abs(g)) / 2.0),
    lambda g: -np.sign(g) / ((1.0 + np.abs(g)) * _LN2),
    lambda p: float(-np.log2(p.max())), _spread_floor)
_SHANNON = _clipped(
    lambda g: -(_xlog2x((1.0 + g) / 2.0) + _xlog2x((1.0 - g) / 2.0)),
    lambda g: 0.5 * np.log2((1.0 - g) / (1.0 + g)),
    lambda p: float(-np.sum(_xlog2x(p))), _vertex_floor)
_COLLISION = _clipped(
    lambda g: -np.log2((1.0 + g * g) / 2.0),
    lambda g: -2.0 * g / ((1.0 + g * g) * _LN2),
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
    """Vectorized two-outcome entropy for observables with (finite) expectations ``g``."""
    return _order(alpha).term(_finite(g, "expectations"))


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
    K = _check_count(K, 2 * gens.n + 1)
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
    K = _check_count(K)
    return float(_closed_form(alpha).floor(1.0, K))


def _ball_objective(g, order: _Order) -> np.ndarray:
    """Average entropy as a function of a (stack of) expectation vector(s)."""
    t = order.term(g)
    return np.add.reduce(t, axis=-1) / t.shape[-1]


def _project_ball(g: np.ndarray) -> np.ndarray:
    nrm = math.sqrt(g.dot(g))
    return g / nrm if nrm > 1.0 else g


def _projected_descent(g0, order: _Order, max_iter: int = 1000) -> tuple[np.ndarray, float]:
    """Projected gradient descent on the closed unit ball with backtracking."""
    g = _project_ball(np.array(g0, dtype=float))
    f = float(_ball_objective(g, order))
    for _ in range(max_iter):
        grad = order.slope(g) / g.size
        step = 1.0
        moved = False
        while step > 1e-14:
            cand = _project_ball(g - step * grad)
            fc = float(_ball_objective(cand, order))
            if fc < f and fc <= f - 1e-4 * float(np.dot(grad, g - cand)):
                g, f = cand, fc
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return g, f


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


def _radius_cut(order: _Order, K: int, best_val: float) -> float:
    """A ``uniform`` value at or below which every row's floor exceeds ``best_val + _FLOOR_SLACK``.

    The floor is taken on ``_CUT_RADII`` radii of [0, 1].  It decreases in
    the radius, so the radii whose floor lies above ``best_val + 2
    _FLOOR_SLACK`` come first, and every radius below the last of them,
    ``r``, has its floor above that too, up to rounding far below
    ``_FLOOR_SLACK``.  A row's radius is ``uniform**(1/K)``, so the cut is
    ``r**K``, lowered by a relative 1e-9 that covers the rounding of both
    powers.  Returns -1, which cuts nothing, when no radius qualifies or the
    order has no floor.
    """
    if order.floor is None:
        return -1.0
    r = np.linspace(0.0, 1.0, _CUT_RADII)
    above = int(np.count_nonzero(order.floor(r, K) > best_val + 2.0 * _FLOOR_SLACK))
    return float(r[above - 1] ** K * (1.0 - 1e-9)) if above else -1.0


def _best_in_ball(dirs: np.ndarray, uniform: np.ndarray, order: _Order) -> np.ndarray:
    """The best of the points ``dirs_i uniform_i**(1/K) / |dirs_i|``, first on ties.

    The rows are scored ``_BALL_CHUNK`` at a time, in order, and each time
    the best value improves the radius cut (:func:`_radius_cut`) is taken
    again from it, so the cut falls with the running best.  No row at or
    below the cut can hold the best point.  While there is no cut (at the
    start, and always for an order without a floor) the next chunk is read
    as it lies; once there is one, the next ``_BALL_CHUNK`` rows whose
    ``uniform`` lies above it are gathered, from at most ``_CUT_CHUNKS``
    chunks ahead, so no mask or index array grows with the budget.  Every
    row is built and scored with the same arithmetic as on the whole array,
    so the result keeps its bits and does not depend on the chunk size.
    """
    budget, K = dirs.shape
    best, best_val, cut = None, math.inf, -1.0
    start = 0
    while start < budget:
        if cut < 0.0:
            rows = slice(start, start + _BALL_CHUNK)
            start += _BALL_CHUNK
        else:
            block = _CUT_CHUNKS * _BALL_CHUNK
            above = np.flatnonzero(uniform[start:start + block] > cut)[:_BALL_CHUNK]
            rows = start + above
            start = int(rows[-1]) + 1 if above.size == _BALL_CHUNK else start + block
            if not above.size:
                continue
        point, val = _best_row(dirs[rows], uniform[rows] ** (1.0 / K), order)
        if val < best_val:
            best, best_val = point, val
            cut = _radius_cut(order, K, best_val)
    return best


def _ball_bests(seed_dirs, seed_radii, ks, budget: int, order: _Order) -> dict[int, np.ndarray]:
    """The best point of the unit-ball search (:func:`_best_in_ball`) for each distinct K of ``ks``.

    Each K's directions are ``default_rng(seed_dirs).standard_normal((budget,
    K))``, the first ``budget*K`` normals of one stream, so the stream is
    drawn once, ``budget * max(ks)`` normals, and each K reads a view of it.
    Every K shares the ``budget`` uniforms of ``default_rng(seed_radii)``.
    So each K sees the points a search of its own would draw, and both
    draws are freed on return.
    """
    dirs = np.random.default_rng(seed_dirs).standard_normal(budget * max(ks))
    uniform = np.random.default_rng(seed_radii).random(budget)
    return {K: _best_in_ball(dirs[:budget * K].reshape(budget, K), uniform, order) for K in set(ks)}


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
        }


def find_minimizer(gens: GeneratorSet, K: int, alpha, budget: int, seed: int) -> EntropyReport:
    """Minimize the K-observable entropy average over all states.

    Samples ``budget`` points of the K-dimensional expectation ball (every
    point of which is realized by a state, so the search loses nothing),
    refines the best by projected gradient descent, and cross-checks
    against the same refinement started from the best of a batch of
    Haar-random pure states, each measured on its state vector in O(K d).
    Any state serves as a start point, because the ball search already
    covers every admissible expectation vector.  The reported minimum is
    re-evaluated by building the minimizing state and measuring it densely.

    The ball is searched in chunks of ``_BALL_CHUNK`` points, pruned by a
    radius cut without changing the result's bits (:func:`_best_in_ball`).
    This is the one-K case of :func:`find_minimizers`.
    """
    return find_minimizers(gens, [K], alpha, budget, seed)[0]


def find_minimizers(gens: GeneratorSet, ks, alpha, budget: int, seed: int) -> list[EntropyReport]:
    """:func:`find_minimizer` for each K in ``ks``, each random stream drawn once.

    The ball directions of every K are views of one stream of
    ``budget * max(ks)`` normals, and every K shares one draw of ``budget``
    uniform radii from a stream of its own, so each K sees the points a
    search of its own would draw (:func:`_ball_bests`).  Both draws are
    freed before the cross-check's pure-state vectors are drawn; those are
    measured once on their state vectors, O(K d) each with no ``(count, d,
    d)`` array, keeping only their ``2n+1`` expectations, which each K
    slices.  Every report equals the one :func:`find_minimizer` gives for
    its K, in the order of ``ks``; an empty ``ks`` draws nothing.

    Raises :class:`CapacityError`, before anything is drawn, when the ball
    search, the cross-check or the dense re-evaluation of the minimizing
    state would hold more than ``MEMORY_BUDGET`` bytes at once.
    """
    size = 2 * gens.n + 1
    ks = [_check_count(K, size) for K in ks]
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 1:
        raise DomainError(f"sample budget must be an integer of at least 1, got {budget!r}")
    budget = int(budget)
    alpha = _check_order(alpha)
    order = _order(alpha)
    if not ks:
        return []
    state_count = min(2000, budget)
    d = 2**gens.n
    # The direction stream plus the radii; the state vectors plus the
    # temporaries of their draw, norm and measurement; the re-evaluated
    # state plus the temporaries of its validation (the normalized, shifted
    # copy, and the Cholesky factorization's copy and factor).
    for what, nbytes in (("unit-ball search", budget * (max(ks) + 1) * 8),
                         ("pure-state cross-check", 5 * state_count * d * 16),
                         ("dense re-evaluation", 4 * d * d * 16)):
        check_budget(what, nbytes, MEMORY_BUDGET)

    seed_dirs, seed_states, seed_radii = np.random.SeedSequence(seed).spawn(3)
    best = _ball_bests(seed_dirs, seed_radii, ks, budget, order)
    state_gs = vector_expectations(random_pure_states(gens.n, state_count, seed_states), gens)

    reports = []
    for K in ks:
        g_ball, _ = _projected_descent(best[K], order)
        gs = state_gs[:, :K]
        g_state, f_state = _projected_descent(gs[int(np.argmin(_ball_objective(gs, order)))], order)

        padded = np.zeros(size)
        padded[:K] = g_ball
        argmin_g = GVector(gens.n, padded)
        rho_min = from_gvector(argmin_g, gens)
        numeric_min = entropy_average(rho_min, gens, K, alpha)

        bound = None if order.floor is None else float(order.floor(1.0, K))

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
            cross_check_min=float(f_state),
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
    t = _squared_bias(t, interior=True)
    b = np.sqrt(t)
    val = (np.log(1.0 - b) - np.log(1.0 + b)) / (4.0 * _LN2 * b)
    return float(val) if val.ndim == 0 else val


def bias_entropy_d2(t) -> np.ndarray | float:
    """Second derivative of :func:`bias_entropy` on (0, 1); nonpositive."""
    t = _squared_bias(t, interior=True)
    b = np.sqrt(t)
    val = (np.log((1.0 + b) / (1.0 - b)) - 2.0 * b / (1.0 - t)) / (8.0 * _LN2 * t**1.5)
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
