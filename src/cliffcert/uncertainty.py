"""Entropy averages over anti-commuting observables and their minima.

Measuring an involutory observable with expectation g on a state gives the
two-outcome distribution ((1+g)/2, (1-g)/2), so the average Renyi entropy
over the first K observables depends on the state only through its
expectation vector.  Combined with the unit-ball characterization of
admissible vectors this turns state-space minimization into a K-dimensional
ball search.  Each order's formulas (the two-outcome entropy and its slope,
the n-outcome entropy, the closed form) are one record that ``_order``
picks, the one place that branches on the order.  The closed forms:

    alpha = 1   : min = 1 - 1/K            (one expectation at +-1)
    alpha = 2   : min = 1 - log2(1 + 1/K)  (all expectations at 1/sqrt(K))
    alpha = inf : >=    1 - log2(1 + 1/sqrt(K))   (proven lower bound;
                  tightness is observed numerically, not asserted)

All entropies are in bits.
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
    normalized probability vector; ``bound(K)``, the closed form of the
    K-average minimum, and its ``kind``, both ``None`` for a general order."""

    term: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
    entropy: Callable[[np.ndarray], float]
    bound: Callable[[int], float] | None = None
    kind: str | None = None


def _clipped(term, slope, entropy, bound=None, kind=None) -> _Order:
    """``term`` taken on ``g`` clipped to [-1, 1], ``slope`` 1e-12 inside it, where it is finite."""
    return _Order(lambda g: term(np.clip(g, -1.0, 1.0)),
                  lambda g: slope(np.clip(g, -1.0 + 1e-12, 1.0 - 1e-12)), entropy, bound, kind)


def _power(a: float) -> _Order:
    """A general order ``a``, through the power sums ``p**a + q**a`` and ``sum(p**a)``."""

    def term(g):
        p, q = (1.0 + g) / 2.0, (1.0 - g) / 2.0
        return np.log2(p**a + q**a) / (1.0 - a)

    def slope(g):
        p, q = (1.0 + g) / 2.0, (1.0 - g) / 2.0
        return a * (p ** (a - 1.0) - q ** (a - 1.0)) / (2.0 * (1.0 - a) * _LN2 * (p**a + q**a))

    return _clipped(term, slope, lambda p: float(np.log2(np.sum(p**a)) / (1.0 - a)))


# The orders with a closed form: the min-entropy, Shannon and the collision entropy.
_MIN_ENTROPY = _clipped(
    lambda g: -np.log2((1.0 + np.abs(g)) / 2.0),
    lambda g: -np.sign(g) / ((1.0 + np.abs(g)) * _LN2),
    lambda p: float(-np.log2(p.max())),
    lambda K: 1.0 - math.log2(1.0 + 1.0 / math.sqrt(K)), "proven-lower-bound")
_SHANNON = _clipped(
    lambda g: -(_xlog2x((1.0 + g) / 2.0) + _xlog2x((1.0 - g) / 2.0)),
    lambda g: 0.5 * np.log2((1.0 - g) / (1.0 + g)),
    lambda p: float(-np.sum(_xlog2x(p))),
    lambda K: 1.0 - 1.0 / K, "exact-minimum")
_COLLISION = _clipped(
    lambda g: -np.log2((1.0 + g * g) / 2.0),
    lambda g: -2.0 * g / ((1.0 + g * g) * _LN2),
    _power(2.0).entropy,
    lambda K: 1.0 - math.log2(1.0 + 1.0 / K), "exact-minimum")


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
    if order.bound is None:
        raise DomainError(f"no closed form for alpha = {alpha}; supported: 1, 2, inf")
    return order


def closed_form_kind(alpha) -> str:
    """``exact-minimum`` for alpha in {1, 2}; ``proven-lower-bound`` for inf."""
    return _closed_form(alpha).kind


def closed_form_min(K: int, alpha) -> float:
    """Closed-form bound (bits) on the K-observable entropy average."""
    K = _check_count(K)
    return _closed_form(alpha).bound(K)


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


def _ball_draws(seed, ks, budget: int):
    """Directions of the unit-ball search for each distinct K of ``ks``, and their radii.

    Yields ``(K, dirs, rng)`` in ascending K: ``dirs`` equals a fresh
    ``default_rng(seed)``'s ``standard_normal((budget, K))``, and ``rng``
    stands where that generator stands after it, so ``rng.random(budget)``
    draws the radii.  Those directions are the first ``budget*K`` normals
    of one stream, so the stream is drawn once, ``max(ks)`` segments of
    ``budget`` normals, and each K's directions are a view of it.  The
    ziggurat takes a variable number of words per normal, so the generator
    state after each K's segment is saved, not computed.  Only the saved
    states are held; the radii are left to the caller, one K at a time.
    """
    rng = np.random.default_rng(seed)
    top = max(ks)
    stream = np.empty(budget * top)
    saved = {}
    for k in range(1, top + 1):
        rng.standard_normal(out=stream[(k - 1) * budget:k * budget])
        if k in ks:
            saved[k] = rng.bit_generator.state
    for K, state in saved.items():
        rng.bit_generator.state = state
        yield K, stream[:budget * K].reshape(budget, K), rng


def _best_in_ball(dirs: np.ndarray, uniform: np.ndarray, order: _Order) -> np.ndarray:
    """The best of the points ``dirs_i uniform_i**(1/K) / |dirs_i|``, first on ties.

    The points are built and scored ``_BALL_CHUNK`` rows at a time, with the
    same arithmetic as on the whole array, so the result does not depend on
    the chunk size.
    """
    budget, K = dirs.shape
    best = best_val = None
    for start in range(0, budget, _BALL_CHUNK):
        d = dirs[start:start + _BALL_CHUNK]
        norms = np.sqrt(_row_sums(d * d))
        norms[norms == 0.0] = 1.0
        points = d * (uniform[start:start + _BALL_CHUNK] ** (1.0 / K) / norms)[:, None]
        vals = _row_sums(order.term(points)) / K
        i = int(np.argmin(vals))
        if best is None or vals[i] < best_val:
            best, best_val = points[i].copy(), vals[i]
    return best


def _search_ball(seed, K: int, budget: int, alpha) -> np.ndarray:
    """The best of ``budget`` uniform points of the unit K-ball, first on ties.

    The one-K case of the search :func:`find_minimizers` runs for a sweep.
    """
    [(_, dirs, rng)] = _ball_draws(seed, {K}, budget)
    return _best_in_ball(dirs, rng.random(budget), _order(alpha))


def _cross_check_rows(gens: GeneratorSet, count: int, seed) -> np.ndarray:
    """Extended expectations of ``count`` Haar-random pure states, shape ``(count, 2n+1)``.

    Each state vector is measured directly, O(K d) per state, so no
    ``(count, d, d)`` array is built.  The rows equal, up to rounding,
    :func:`extended_expectations` of ``random_state_batch(n, count, seed,
    "pure-haar")``: the same vectors, taken as density matrices.
    """
    return vector_expectations(random_pure_states(gens.n, count, seed), gens)


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

    The ball is searched in chunks of ``_BALL_CHUNK`` points, so memory
    beyond the ``budget x K`` draws stays a few chunk-sized arrays; the
    result does not depend on the chunk size.  This is the one-K case of
    :func:`find_minimizers`.
    """
    return find_minimizers(gens, [K], alpha, budget, seed)[0]


def find_minimizers(gens: GeneratorSet, ks, alpha, budget: int, seed: int) -> list[EntropyReport]:
    """:func:`find_minimizer` for each K in ``ks``, each random stream drawn once.

    The ball directions of every K are views of one stream of
    ``budget * max(ks)`` normals, and the radii of each K come from the
    generator state saved after its directions, so each K sees the points
    a search of its own would draw.  The cross-check's pure-state vectors
    are drawn and measured once, keeping only their ``2n+1`` expectations,
    which each K slices.  Every report equals the one :func:`find_minimizer`
    gives for its K, in the order of ``ks``; an empty ``ks`` draws nothing.

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
    # The direction stream plus one K's radii; the state vectors plus the
    # temporaries of their draw, norm and measurement; the re-evaluated
    # state plus the temporaries of its validation (the normalized, shifted
    # copy, and the Cholesky factorization's copy and factor).
    for what, nbytes in (("unit-ball search", budget * (max(ks) + 1) * 8),
                         ("pure-state cross-check", 5 * state_count * d * 16),
                         ("dense re-evaluation", 4 * d * d * 16)):
        check_budget(what, nbytes, MEMORY_BUDGET)

    seed_ball, seed_states = np.random.SeedSequence(seed).spawn(2)
    best = {K: _best_in_ball(dirs, rng.random(budget), order)
            for K, dirs, rng in _ball_draws(seed_ball, set(ks), budget)}
    state_gs = _cross_check_rows(gens, state_count, seed_states)

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

        bound = order.bound(K) if order.bound else None

        reports.append(EntropyReport(
            n=gens.n,
            K=K,
            alpha=alpha,
            closed_form_bound=bound,
            bound_kind=order.kind,
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
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DomainError(f"{name} must be a square matrix of column vectors")
        res = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if not res <= ORTHOGONALITY:  # also refuses NaN
            raise DomainError(f"{name} is not unitary: residual {res:.3e}")
    if a.shape != b.shape:
        raise DomainError("bases must have matching dimensions")
    c = float(np.max(np.abs(a.conj().T @ b)))
    return -math.log2(c)
