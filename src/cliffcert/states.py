"""Density matrices, graded expansions, and the positivity projection.

Every state on n qubits expands uniquely in the graded basis,

    rho = (1/d) (1 + sum_j g_j G_j + sum_{j<k} g_jk G_jk + ... + g_0 G_0),

with real coefficients ``Tr(rho E)`` per basis element E.  The element
``E = i**p X**xmask Z**zmask`` meets ``rho`` only on the entries
``rho[c, c ^ xmask]``, so :func:`expand` and
:meth:`GradedExpansion.reconstruct` each take one Walsh-Hadamard transform
of a d x d array, O(n 4**n) in all (Jones, arXiv:2401.16378;
Hantzko-Binkowski-Gupta, arXiv:2310.13421).  Both read the masks, phases
and index sets of the :func:`clifford.graded_basis` table and build no
Pauli string.  Keeping only the identity, generator, and pseudoscalar
coefficients is a positive, trace-preserving (not completely positive)
map: the result is again a state, and its 2n+1 expectations obey
``sum g_j**2 <= 1``.  Conversely every coefficient vector inside that
unit ball yields a valid state, because ``A = sum g_j G_j`` satisfies
``A**2 = (sum g_j**2) * 1``.

Validation policy: trace drift within ``TRACE`` is renormalized, and a
matrix whose least eigenvalue lies above ``-PSD`` is accepted (rounding
leaves singular states with tiny negative eigenvalues); harder failures
reject.  Positivity is decided by a Cholesky factorization of
``rho + PSD * 1``; an eigensolver runs only when that fails, to size the
violation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import pauli
from .clifford import GeneratorSet, graded_basis
from .errors import (
    BallViolationError,
    DimensionMismatchError,
    DomainError,
    ParseError,
    ValidationError,
)
from .tolerances import DENSE_GUARD, HERMITICITY, PSD, TRACE


@dataclass(frozen=True)
class DensityMatrix:
    """Validated d x d state, d = 2**n."""

    n: int
    mat: np.ndarray

    @classmethod
    def from_matrix(
        cls,
        mat,
        *,
        tol_herm: float = HERMITICITY,
        tol_tr: float = TRACE,
        tol_psd: float = PSD,
    ) -> "DensityMatrix":
        for name, tol in (("tol_herm", tol_herm), ("tol_tr", tol_tr), ("tol_psd", tol_psd)):
            _check_tolerance(tol, name)
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        n = d.bit_length() - 1
        if 2**n != d or n < 1:
            raise ValidationError(f"matrix side {d} is not a power of two >= 2")
        if n > DENSE_GUARD:
            raise ValidationError(f"dense states limited to n <= {DENSE_GUARD}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("matrix has a non-finite entry")
        herm_res = np.max(np.abs(m - m.conj().T))
        if herm_res > tol_herm:
            raise ValidationError(f"not Hermitian: residual {herm_res:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > tol_tr:
            raise ValidationError(f"trace {tr} differs from 1 beyond tolerance")
        # The normalized copy and its factor are dropped before the output
        # is formed, so validation holds at most four d x d arrays.
        shortfall = _psd_shortfall(m, tol_psd, tr.real)
        if shortfall > tol_psd:
            raise ValidationError(f"minimum eigenvalue {-shortfall:.3e} below -{tol_psd}")
        m = m / tr.real
        m.setflags(write=False)
        return cls(n, m)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class GVector:
    """The 2n+1 observable expectations; index 0 is the pseudoscalar."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.shape != (2 * self.n + 1,):
            raise DomainError(f"expected {2 * self.n + 1} coefficients, got shape {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def norm_squared(self) -> float:
        return float(np.dot(self.values, self.values))


@dataclass(frozen=True)
class GradedExpansion:
    """Full coefficient map of a state over the 4**n graded basis elements."""

    n: int
    coeffs: dict[tuple[int, ...], float]

    def coeff(self, indices) -> float:
        key = tuple(indices)
        try:
            return self.coeffs[key]
        except KeyError:
            raise DomainError(
                f"no basis element for index set {key}: expected distinct ascending "
                f"indices in 1..{2 * self.n}") from None

    def reconstruct(self, gens: GeneratorSet) -> np.ndarray:
        """Dense ``(1/d) sum_E coeff_E E`` in O(n 4**n).

        The inverse of :func:`expand`: ``i**p coeff`` placed at
        ``[xmask, zmask]`` and transformed along the z axis gives
        ``d * M[c ^ xmask, c]`` at ``[xmask, c]``.
        """
        if gens.n != self.n:
            raise DimensionMismatchError(
                f"expansion is for n={self.n}, generators for n={gens.n}")
        basis = graded_basis(gens)
        try:
            coeffs = np.array([self.coeffs[s] for s in basis.indices])
        except KeyError as exc:
            raise ValidationError(
                f"expansion has no coefficient for index set {exc.args[0]}") from None
        d = 2**self.n
        grid = np.zeros((d, d), dtype=complex)
        grid[basis.xmask, basis.zmask] = _I_POW[basis.phase] * coeffs
        cols = np.arange(d)
        out = np.empty((d, d), dtype=complex)
        out[cols ^ cols[:, None], cols] = _walsh_hadamard(grid)
        return out / d


def expand(rho: DensityMatrix, gens: GeneratorSet) -> GradedExpansion:
    """Coefficients ``Tr(rho E)`` for every graded basis element E.

    The identity coefficient equals 1 for any unit-trace input, and
    ``(1/d) * sum coeff * E`` reproduces the matrix.  With
    ``E = i**p X**xmask Z**zmask``, ``Tr(rho E) = i**p sum_c rho[c, c ^ xmask]
    (-1)**popcount(c & zmask)``, so one Walsh-Hadamard transform of
    ``V[xmask, c] = rho[c, c ^ xmask]`` along ``c`` gives all 4**n of them.
    """
    if rho.n != gens.n:
        raise DimensionMismatchError(f"state is for n={rho.n}, generators for n={gens.n}")
    basis = graded_basis(gens)
    cols = np.arange(rho.dim)
    vals = (_I_POW[basis.phase]
            * _walsh_hadamard(rho.mat[cols, cols ^ cols[:, None]])[basis.xmask, basis.zmask])
    bad = np.flatnonzero(np.abs(vals.imag) > HERMITICITY)
    if bad.size:
        k = bad[0]
        raise ValidationError(f"coefficient for {basis.indices[k]} not real: {vals[k]}")
    return GradedExpansion(rho.n, dict(zip(basis.indices, vals.real.tolist())))


_I_POW = np.array(pauli._I_POW)


def _walsh_hadamard(a) -> np.ndarray:
    """``out[..., k] = sum_c a[..., c] (-1)**popcount(c & k)``, O(d log d) per row.

    The transform is its own inverse up to a factor ``d``, so it serves both
    :func:`expand` and :meth:`GradedExpansion.reconstruct`.  Returns a new
    complex array; the butterflies run in place on it.
    """
    a = np.array(a, dtype=complex)
    d = a.shape[-1]
    h = 1
    while h < d:
        pair = a.reshape(a.shape[:-1] + (d // (2 * h), 2, h))
        lo = pair[..., 0, :].copy()
        pair[..., 0, :] += pair[..., 1, :]
        np.subtract(lo, pair[..., 1, :], out=pair[..., 1, :])
        h *= 2
    return a


def extended_expectations(mats: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Expectations of the 2n+1 extended observables for stacked matrices.

    ``mats`` has shape ``(..., d, d)``; the result appends one axis of
    length 2n+1 in extended order (pseudoscalar first).
    """
    mats = np.asarray(mats)
    return np.stack([pauli.expect(act, mats).real for act in gens.actions], axis=-1)


def vector_expectations(psi: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Expectations ``<psi|G_j|psi>`` of the 2n+1 extended observables.

    ``psi`` has shape ``(..., d)`` and holds unit vectors; the result
    replaces its last axis by one of length 2n+1 in extended order.  With
    ``G_j|c> = phase_j[c] |perm_j[c]>`` each expectation is
    ``sum_c conj(psi[perm_j[c]]) phase_j[c] psi[c]``, O(d) per vector,
    summed by ``np.add.reduce`` in a fixed order.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1 or psi.shape[-1] != 2**gens.n:
        raise DimensionMismatchError(
            f"vectors of shape {psi.shape} do not live in dimension {2**gens.n}")
    out = np.empty(psi.shape[:-1] + (2 * gens.n + 1,))
    for j, act in enumerate(gens.actions):
        terms = psi[..., act.perm]
        np.conjugate(terms, out=terms)
        terms *= act.phase
        terms *= psi
        out[..., j] = np.add.reduce(terms.real, axis=-1)
    return out


def matrix_from_expectations(g: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Dense ``(1/d)(1 + sum_j g_j G_j)`` for stacked coefficient rows."""
    out = pauli.scatter(np.asarray(g, dtype=float), gens.actions)
    d = out.shape[-1]
    diag = np.arange(d)
    out[..., diag, diag] += 1.0
    out /= d
    return out


def project_bloch(rho: DensityMatrix, gens: GeneratorSet) -> DensityMatrix:
    """Zero every graded coefficient except identity, vector, and pseudoscalar.

    The output shares the input's expectation vector and is again a valid
    state; the map is idempotent, trace-preserving and unital.
    """
    g = extended_expectations(rho.mat, gens)
    return DensityMatrix.from_matrix(matrix_from_expectations(g, gens))


def _check_count(K, size: float = math.inf) -> int:
    """The observable count ``K`` as an int: an integer in 1..size, numpy's included, bool refused."""
    if isinstance(K, bool) or not isinstance(K, numbers.Integral) or not 1 <= K <= size:
        raise DomainError(f"K must be an integer in 1..{size}, got {K!r}")
    return int(K)


def _check_tolerance(tol, name: str) -> None:
    """Refuse a tolerance that is not a real ``>= 0``: a NaN turns every comparison with it off."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0.0:
        raise DomainError(f"{name} must be a non-negative number, got {tol!r}")


def gvector(rho: DensityMatrix, gens: GeneratorSet, K: int | None = None) -> GVector:
    """Expectations of the first ``K`` observables (extended order), rest zero.

    ``Pr{G_j = +1 | rho} = (1 + g_j)/2`` relates each entry to the measured
    outcome distribution.
    """
    size = 2 * gens.n + 1
    K = size if K is None else _check_count(K, size)
    full = extended_expectations(rho.mat, gens)
    vals = np.zeros(size)
    vals[:K] = full[:K]
    return GVector(gens.n, vals)


def from_gvector(g: GVector, gens: GeneratorSet, *, tol_psd: float = PSD) -> DensityMatrix:
    """State ``(1/d)(1 + sum_j g_j G_j)`` for coefficients in the unit ball.

    Rejects coefficient vectors with ``sum g_j**2 > 1 + tol_psd``, where
    positivity is no longer guaranteed.
    """
    _check_tolerance(tol_psd, "tol_psd")
    if g.n != gens.n:
        raise DomainError(f"coefficient vector is for n={g.n}, generators for n={gens.n}")
    norm_sq = g.norm_squared
    if norm_sq > 1.0 + tol_psd:
        raise BallViolationError(f"sum of squares {norm_sq:.12f} exceeds 1")
    return DensityMatrix.from_matrix(matrix_from_expectations(g.values, gens), tol_psd=tol_psd)


# Bytes of the matrices one Cholesky call factors, so that the shifted copy
# and its factor stay a few MiB whatever the number of states.
_FACTOR_BYTES = 2**21


def _psd_shortfall(mats: np.ndarray, shift: float, scale: float = 1.0) -> float:
    """``max(0, -lambda_min)`` over the Hermitian matrices ``mats / scale``.

    ``mats`` has shape ``(..., d, d)`` and is not modified.  Each slice of
    at most ``_FACTOR_BYTES`` is divided by ``scale``, shifted by
    ``shift * 1`` and factored by Cholesky; when every slice factors the
    result is 0.0 and no eigensolver runs.  Only a slice that fails to
    factor is sized by ``eigvalsh`` (its least eigenvalue less ``shift``).

    Both LAPACK routines read the lower triangle.  A factorization that
    succeeds bounds the least eigenvalue above ``-shift - O(d eps)``, and
    ``d eps`` is far inside ``PSD`` at d <= 2**14.  So a caller that accepts
    a shortfall of at most ``tol >= shift`` decides as
    ``eigvalsh(mats / scale)[..., 0] >= -tol`` would, except within a band
    of rounding size.
    """
    d = mats.shape[-1]
    stack = mats.reshape(-1, d, d)
    step = max(1, _FACTOR_BYTES // (16 * d * d))
    diag = np.arange(d)
    shortfall = 0.0
    for start in range(0, len(stack), step):
        work = stack[start:start + step] / scale
        work[:, diag, diag] += shift
        try:
            np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            least = float(np.linalg.eigvalsh(work)[:, 0].min()) - shift
            shortfall = max(shortfall, -least)
    return shortfall


_ENSEMBLES = ("pure-haar", "mixed-hs")
# Bytes of one chunk of Hilbert-Schmidt states, so that a chunk's conjugate
# G^H and G G^H stay a few MiB whatever the number of states.  Every step
# after the draw is per state, so the size does not change any bit.
_HS_CHUNK_BYTES = 2**21


def _hs_chunk_states(n: int) -> int:
    """States per Hilbert-Schmidt chunk: as many as fit in ``_HS_CHUNK_BYTES``, at least 16."""
    return max(16, _HS_CHUNK_BYTES // (16 * 4**n))


def _check_sampling(n, count) -> tuple[int, int]:
    """``n`` in 1..DENSE_GUARD and ``count >= 0`` as ints: integers, numpy's included, bools refused."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 1 <= n <= DENSE_GUARD:
        raise DomainError(f"dense sampling limited to n in 1..{DENSE_GUARD}, got {n!r}")
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
        raise DomainError(f"state count must be a non-negative integer, got {count!r}")
    return int(n), int(count)


def random_pure_states(n: int, count: int, seed) -> np.ndarray:
    """``count`` Haar-random unit state vectors, shape ``(count, d)``.

    The real parts and then the imaginary parts are drawn from
    ``default_rng(seed)``; the ``pure-haar`` states of
    :func:`random_state_batch` are the outer products of these vectors.
    """
    n, count = _check_sampling(n, count)
    rng = np.random.default_rng(seed)
    d = 2**n
    psi = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return psi


def random_state_batch(n: int, count: int, seed, ensemble: str = "mixed-hs") -> np.ndarray:
    """Stack of ``count`` random states, shape ``(count, d, d)``.

    ``pure-haar`` draws Haar-random pure states; ``mixed-hs`` draws from
    the Hilbert-Schmidt measure (square Ginibre matrix G, normalized
    G G^H).  For ``mixed-hs`` the real and then the imaginary parts of all
    ``count`` matrices G are drawn whole into the returned array, and each
    chunk of states is overwritten by its ``G G^H`` over the trace; beside
    it the peak holds one float draw, half its size.  Deterministic given the seed.
    """
    if ensemble not in _ENSEMBLES:
        raise DomainError(f"unknown ensemble {ensemble!r}; choose from {_ENSEMBLES}")
    n, count = _check_sampling(n, count)
    if ensemble == "pure-haar":
        psi = random_pure_states(n, count, seed)
        return np.einsum("si,sj->sij", psi, psi.conj())
    rng = np.random.default_rng(seed)
    d = 2**n
    out = np.empty((count, d, d), dtype=complex)
    out.real = rng.standard_normal((count, d, d))
    out.imag = rng.standard_normal((count, d, d))
    step = _hs_chunk_states(n)
    for start in range(0, count, step):
        gin = out[start:start + step]
        w = gin @ gin.conj().swapaxes(-1, -2)
        np.divide(w, np.trace(w, axis1=1, axis2=2).real[:, None, None], out=gin)
    return out


def random_state(n: int, seed, ensemble: str = "mixed-hs") -> DensityMatrix:
    """One random state as a validated :class:`DensityMatrix`."""
    return DensityMatrix.from_matrix(random_state_batch(n, 1, seed, ensemble)[0])


def to_document(rho: DensityMatrix) -> str:
    """Serialize as JSON: ``{"n": n, "matrix": [[[re, im], ...], ...]}``.

    Row-major entries rendered with 17 significant digits, which round-trip
    float64 exactly.
    """

    def fmt(v: float) -> str:
        return format(float(v), ".17g")

    rows = []
    for row in rho.mat:
        cells = ",".join(f"[{fmt(c.real)},{fmt(c.imag)}]" for c in row)
        rows.append(f"[{cells}]")
    return '{"n": %d, "matrix": [%s]}' % (rho.n, ",".join(rows))


def from_document(text: str) -> DensityMatrix:
    """Parse the :func:`to_document` format and validate the state."""
    try:
        doc = json.loads(text)
        n = doc["n"]
        entries = doc["matrix"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed density-matrix document: {exc}") from exc
    # Everything is checked before the d x d buffer is allocated.
    if not (isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= DENSE_GUARD):
        raise ParseError(f"n must be an integer in 1..{DENSE_GUARD}, got {n!r}")
    d = 2**n
    if not isinstance(entries, list) or len(entries) != d:
        raise ParseError(f"expected a list of {d} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"row {i} is not a list of {d} entries")
        for j, cell in enumerate(row):
            if not (isinstance(cell, list) and len(cell) == 2 and all(map(_is_number, cell))):
                raise ParseError(f"entry ({i}, {j}) is not a [re, im] pair of numbers: {cell!r}")
    try:
        pairs = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"matrix entry out of float range: {exc}") from exc
    # (d, d, 2) floats viewed as (d, d) complex: one buffer, no temporaries.
    mat = pairs.view(complex)[..., 0]
    return DensityMatrix.from_matrix(mat)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)
