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
    check_integer,
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
        if not shortfall <= tol_psd:
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


# Bytes of the rows that a blocked kernel or sampler holds at once, so that
# its temporaries stay a few MiB whatever the number of rows.  Every result
# is per row or a maximum over rows, so the block size changes no bit.
_BLOCK_BYTES = 2**21
# Bytes of state vectors (or factors) measured at once, so that the products
# and sums of one chunk stay in cache: 2000 vectors took 6.3 ms against
# 9.3 ms whole at n = 6, and 0.51 s against 1.18 s at n = 12; against
# 2 MiB blocks, 4.7 against 6.5 ms at n = 6 and 19.7 against 22.9 ms at
# n = 8 (one BLAS thread, Xeon, best of 7).
_VECTOR_CHUNK_BYTES = 2**19


def _block_rows(row_bytes: int, budget: int = _BLOCK_BYTES) -> int:
    """Rows of ``row_bytes`` each that fit in ``budget`` bytes, at least one."""
    return max(1, budget // row_bytes)


def _vectors(psi, gens: GeneratorSet) -> np.ndarray:
    """``psi`` as a complex array of shape ``(..., 2**n)``, or :class:`DimensionMismatchError`."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1 or psi.shape[-1] != 2**gens.n:
        raise DimensionMismatchError(
            f"vectors of shape {psi.shape} do not live in dimension {2**gens.n}")
    return psi


def _halves(psi: np.ndarray, pair: pauli.Pairing) -> tuple[np.ndarray, np.ndarray]:
    """The lo amplitudes of ``pair`` and their partners, each ``(..., 2**pivot, rest)``.

    Entry ``[..., b, r]`` of the lo half is basis index ``c`` with the pivot
    qubit clear; the same entry of the other is ``c ^ xmask``.  Only X bits
    before the pivot are gathered.  A diagonal group pairs every index with
    itself, as one block ``(..., 1, L)``.  The trailing length ``L`` is read
    from ``psi``: any qubits past the n the strings act on belong to the
    suffix, as the columns of a factor do (:func:`factor_expectations`).
    """
    lead, size = psi.shape[:-1], psi.shape[-1]
    if pair.pivot is None:
        whole = psi.reshape(lead + (1, size))
        return whole, whole
    split = psi.reshape(lead + (2**pair.pivot, 2, size >> (pair.pivot + 1)))
    lo, hi = split[..., 0, :], split[..., 1, :]
    return lo, hi if pair.partner is None else hi[..., pair.partner, :]


def _pair_sums(flat: np.ndarray, gens: GeneratorSet, out: np.ndarray) -> None:
    """``out[k, j] = Re <v_k|G_j (x) 1|v_k>`` for the rows ``v_k`` of ``flat``.

    ``flat`` has shape ``(m, L)`` with ``L`` a multiple of ``d``; ``out`` has
    shape ``(m, 2n+1)``.  The pairing loop of :func:`vector_expectations`.
    """
    for pair in gens.pairings:
        lo, hi = _halves(flat, pair)
        w = np.conjugate(hi)
        w *= lo
        w = np.add.reduce(w.reshape(len(flat), pair.signs.shape[-1], -1), axis=-1)
        s = np.add.reduce(w[:, None, :] * pair.signs, axis=-1)[:, pair.which]
        if pair.pivot is not None:
            s += pair.eps * s.conj()
        out[:, pair.rows] = (pair.phase * s).real


def vector_expectations(psi: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Expectations ``<psi|G_j|psi>`` of the 2n+1 extended observables.

    ``psi`` has shape ``(..., d)`` and holds unit vectors; the result
    replaces its last axis by one of length 2n+1 in extended order.  The
    string ``i**p X**x Z**z`` pairs amplitude ``c`` with ``c ^ xmask`` and
    signs it by ``(-1)**popcount(c & zmask)``, so the strings of one X mask
    (:attr:`GeneratorSet.pairings`) share one product
    ``w_a = sum_suffix conj(psi[a ^ xmask]) psi[a]`` over the lo half, the
    suffix past the last qubit they touch summed out first.  Each string's
    ``S = sum_a s(a) w_a`` takes its Z-parity signs on the short prefix,
    and its expectation is ``Re(i**p (S + eps conj(S)))`` with
    ``eps = (-1)**popcount(xmask & zmask)``; a diagonal string's ``w`` runs
    over every amplitude and its expectation is ``Re(i**p S)``.  In
    Jordan-Wigner, n+1 products serve the 2n+1 strings and nothing is
    gathered.  O(d) per vector and X mask, every sum an ``np.add.reduce``
    in a fixed order, so the bits do not depend on the BLAS thread count.
    """
    psi = _vectors(psi, gens)
    d = psi.shape[-1]
    flat = psi.reshape(-1, d)
    out = np.empty((len(flat), 2 * gens.n + 1))
    step = _block_rows(16 * d, _VECTOR_CHUNK_BYTES)
    for start in range(0, len(flat), step):
        _pair_sums(flat[start:start + step], gens, out[start:start + step])
    return out.reshape(psi.shape[:-1] + out.shape[-1:])


def factor_expectations(w: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Expectations ``Tr(rho G_j)`` of the states ``rho = W W^H / Tr(W W^H)``.

    ``w`` has shape ``(..., d, r)`` and holds nonzero factors (one whose
    squared norm is 0 or not finite raises :class:`DomainError`); the
    result replaces its last two axes by one of length 2n+1 in extended
    order.
    ``Tr(G_j W W^H) = sum_c <w_c|G_j|w_c>`` over the columns ``w_c``, and
    ``W`` read row-major is a vector on n + log2(r) qubits on which the
    strings act as ``G_j (x) 1``.  So the pairing of
    :func:`vector_expectations` serves unchanged, its suffix sum running
    over the r columns too, and each row is divided by its squared norm
    ``Tr(W W^H)``.  O(K d r) per factor, no ``d x d`` product, the sums
    taken a chunk of factors at a time by ``np.add.reduce``.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim < 2 or w.shape[-2] != 2**gens.n or w.shape[-1] < 1:
        raise DimensionMismatchError(
            f"factors of shape {w.shape} are not (..., {2**gens.n}, r) with r >= 1")
    size = w.shape[-2] * w.shape[-1]
    flat = w.reshape(-1, size)
    out = np.empty((len(flat), 2 * gens.n + 1))
    step = _block_rows(16 * size, _VECTOR_CHUNK_BYTES)
    for start in range(0, len(flat), step):
        chunk = flat[start:start + step]
        norms = _squared_norms(chunk[:, None, :])
        _refuse_null(norms, "factor", start)
        _pair_sums(chunk, gens, out[start:start + step])
        out[start:start + step] /= norms[:, None]
    return out.reshape(w.shape[:-2] + out.shape[-1:])


def outcome_expectations(psi: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Expectations of the 2n+1 extended observables as ``(P_+ - P_-)/(P_+ + P_-)``.

    ``P_+- = ||(1 +- G_j) psi||**2`` is four times the weight of ``psi`` in
    the ``+-1`` eigenspace of ``G_j``, so the ratio is ``<psi|G_j|psi>`` for
    a unit vector.  At an eigenvector, whose paired amplitudes agree up to
    the exact phase of ``G_j``, one weight is exactly 0 and the ratio exactly
    ``+-1``, where :func:`vector_expectations` can round to ``1 - 1e-16``.
    Shapes as there; the strings must be Hermitian involutions.  Each string forms its own
    ``(1 +- G_j) psi`` over the pairs of :attr:`GeneratorSet.pairings`, O((2n+1) d) per
    vector, which suits a few vectors, such as the two of :func:`realize`.  A vector whose
    squared norm is 0 or not finite raises :class:`DomainError`.
    """
    psi = _vectors(psi, gens)
    _refuse_null(_squared_norms(psi.reshape(-1, 1, psi.shape[-1])), "vector")
    lead = psi.shape[:-1]
    out = np.empty(lead + (2 * gens.n + 1,))
    for pair in gens.pairings:
        shape = lead + (1, pair.signs.shape[-1], 2 ** (gens.n - pair.width))
        lo, hi = (half.reshape(shape) for half in _halves(psi, pair))
        # (G_j psi)[c] = i**p eps s(a) psi[c ^ xmask] on the lo half, one row
        # per string; the hi half's entries have the same magnitudes
        flipped = hi * ((pair.phase * pair.eps)[:, None] * pair.signs[pair.which])[:, :, None]
        plus, minus = _squared_norms(lo + flipped), _squared_norms(lo - flipped)
        out[..., pair.rows] = (plus - minus) / (plus + minus)
    return out


def _refuse_null(norms: np.ndarray, what: str, start: int = 0) -> None:
    """Raise :class:`DomainError` for the first squared norm that is 0 or not finite."""
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if bad.size:
        raise DomainError(f"{what} {start + bad[0]} has squared norm {norms[bad[0]]}, not a state")


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """``sum |v|**2`` over the last two axes, summed by ``np.add.reduce``."""
    squares = v.real**2 + v.imag**2
    return np.add.reduce(squares.reshape(squares.shape[:-2] + (-1,)), axis=-1)


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
    K = size if K is None else check_integer(K, "K", 1, size)
    full = extended_expectations(rho.mat, gens)
    vals = np.zeros(size)
    vals[:K] = full[:K]
    return GVector(gens.n, vals)


def from_gvector(g: GVector, gens: GeneratorSet, *, tol_psd: float = PSD) -> DensityMatrix:
    """State ``(1/d)(1 + sum_j g_j G_j)`` for coefficients in the unit ball.

    Rejects coefficient vectors with ``sum g_j**2 > 1 + tol_psd`` (or not
    finite), where positivity is no longer guaranteed.
    """
    _check_tolerance(tol_psd, "tol_psd")
    if g.n != gens.n:
        raise DomainError(f"coefficient vector is for n={g.n}, generators for n={gens.n}")
    norm_sq = g.norm_squared
    if not norm_sq <= 1.0 + tol_psd:
        raise BallViolationError(f"sum of squares {norm_sq:.12f} exceeds 1")
    return DensityMatrix.from_matrix(matrix_from_expectations(g.values, gens), tol_psd=tol_psd)


def realize(g: GVector, gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors ``psi``, shape ``(2, d)``, and weights ``((1 + |g|)/2, (1 - |g|)/2)``
    whose mixture has the expectation vector ``g``; no d x d array is built.

    Let ``c = g/|g|`` (``e_0`` when ``g = 0``) and ``A = sum_j c_j G_j``, so
    ``A**2 = 1`` and ``{G_j, A} = 2 c_j``: a vector with ``A v = +-v`` has
    expectations ``+-c``.  ``(1 +- A) e_x`` is one, with squared norm
    ``2(1 +- A_xx)``.  Only the diagonal strings (``xmask == 0``; in
    Jordan-Wigner only ``G_0``) reach ``A_xx``, and ``A`` is traceless, so
    taking ``x`` where ``A_xx`` is largest for ``+`` and least for ``-``
    keeps both squared norms at least 2.  ``A e_x = sum_j c_j i**p_j
    (-1)**popcount(x & zmask_j) e_{x ^ xmask_j}``, so each vector has at
    most ``2n+2`` nonzero entries.  Both read :attr:`GeneratorSet.pairings`.

    Raises :class:`BallViolationError` when ``sum g_j**2 > 1 + PSD`` (or is
    not finite), and :class:`DomainError` for generators of another n.
    ``|g|`` is clamped to 1 in the weights.
    """
    if g.n != gens.n:
        raise DomainError(f"coefficient vector is for n={g.n}, generators for n={gens.n}")
    norm_sq = g.norm_squared
    if not norm_sq <= 1.0 + PSD:
        raise BallViolationError(f"sum of squares {norm_sq:.12f} exceeds 1")
    r = np.sqrt(norm_sq)
    c = g.values / r if r > 0.0 else np.eye(g.values.size)[0]
    coeffs = c.tolist()
    d = 2**gens.n
    diag = np.zeros(d)
    for pair in gens.pairings:
        if pair.xmask == 0:
            for j, k, phase in zip(pair.rows, pair.which, pair.phase):
                diag += coeffs[j] * phase.real * np.repeat(pair.signs[k], d // pair.signs.shape[-1])
    psi = np.zeros((2, d), dtype=complex)
    for row, (sign, x) in enumerate(((1.0, int(np.argmax(diag))), (-1.0, int(np.argmin(diag))))):
        psi[row, x] = 1.0
        for pair in gens.pairings:
            for j, zmask, phase in zip(pair.rows.tolist(), pair.zmasks, pair.phase.tolist()):
                parity = (x & zmask).bit_count() & 1
                psi[row, x ^ pair.xmask] += sign * coeffs[j] * (-phase if parity else phase)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    r = min(r, 1.0)
    return psi, np.array([(1.0 + r) / 2.0, (1.0 - r) / 2.0])


def _psd_shortfall(mats: np.ndarray, shift: float, scale: float = 1.0) -> float:
    """``max(0, -lambda_min)`` of the Hermitian ``mats / scale``, NaN for a non-finite entry.

    ``mats`` has shape ``(..., d, d)`` and is not modified.  Each block of
    matrices (:func:`_block_rows`) is divided by ``scale``, shifted by
    ``shift * 1`` and factored by Cholesky; when every block factors the
    result is 0.0 and no eigensolver runs.  Only a block that fails to
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
    step = _block_rows(16 * d * d)
    if not np.isfinite(stack).all():  # Cholesky can factor a NaN without raising
        return np.nan
    diag = np.arange(d)
    shortfalls = [0.0]
    for start in range(0, len(stack), step):
        work = stack[start:start + step] / scale
        work[:, diag, diag] += shift
        try:
            np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            shortfalls.append(shift - np.linalg.eigvalsh(work)[:, 0].min())
    return float(np.max(shortfalls))


# Largest entry of ``A(Av) - |g|**2 v`` that :func:`_bloch_shortfall` accepts
# as rounding.  On verify's projected Hilbert-Schmidt states, with two complex
# Gaussian probes, it measured at most 1.8e-15 (100000 states at n = 1, over
# 20 probe pairs), falling to 1.2e-17 at n = 10.
_SQUARE_ROUNDING = 1e-12


def _bloch_shortfall(proj: np.ndarray, g: np.ndarray, probes: np.ndarray) -> float:
    """``max(0, -lambda_min)`` over the projections ``proj = (1/d)(1 + A)``, ``A = sum_j g_j G_j``.

    ``proj`` has shape ``(m, d, d)`` and holds Hermitian matrices, ``g`` the
    ``(m, 2n+1)`` rows they were rendered from, and ``probes`` has shape
    ``(d, p)``.  Anti-commuting involutions give ``A**2 = |g|**2 * 1``, so
    ``proj`` has eigenvalues ``(1 +- |g|)/d`` and shortfall
    ``f = max(0, (|g| - 1)/d)``.  A state whose probes satisfy
    ``A(Av) = |g|**2 v`` within ``_SQUARE_ROUNDING`` takes ``f``: two batched
    mat-vecs, ``Av = d (proj v) - v``, O(d**2) per state and no
    factorization.  Every other state goes to :func:`_psd_shortfall`
    unchanged, which factors it by Cholesky and sizes a violation by
    ``eigvalsh``.

    No real violation takes the first path.  If the true shortfall ``s``
    exceeds ``f`` by ``delta``, ``A`` has the eigenvalue ``-(1 + d s)`` with
    some unit eigenvector ``x``, while ``|g| <= 1 + d f``, so
    ``||(A**2 - |g|**2) x|| >= (1 + d s)**2 - (1 + d f)**2 >= 2 d delta``.  A
    shortfall above ``tol_psd`` thus makes ``||A**2 - |g|**2 * 1||`` at least
    ``2 d tol_psd``.  A probe ``v`` of complex Gaussian entries, drawn
    independently of ``proj``, has ``|x^H v| <= r`` with probability at most
    ``r**2 / 2``, and its largest residual entry is at least
    ``2 sqrt(d) tol_psd |x^H v|``; so it stays within the bound with
    probability at most ``(_SQUARE_ROUNDING / tol_psd)**2 / (8 d)``,
    ``1.25e-7 / d`` at the default ``PSD``, and a miss needs every probe to.  The probe residual is
    never reported, so the BLAS rounding of the mat-vecs reaches no report.
    """
    d = proj.shape[-1]
    av = d * (proj @ probes) - probes
    a2v = d * (proj @ av) - av
    norm_sq = (g * g).sum(axis=1)
    residual = np.abs(a2v - norm_sq[:, None, None] * probes).max(axis=(1, 2))
    bloch = residual <= _SQUARE_ROUNDING
    shortfall = ((np.sqrt(norm_sq[bloch]) - 1.0) / d).max(initial=0.0)
    return float(np.maximum(shortfall, _psd_shortfall(proj[~bloch], 0.0)))


_ENSEMBLES = ("pure-haar", "mixed-hs")


def _ginibre_chunks(shape: tuple[int, ...], count: int, seed, step: int,
                    out: np.ndarray | None = None):
    """Yield ``count`` complex Gaussian arrays of trailing ``shape``, ``step`` at a time.

    These are the Ginibre factors ``W`` of the induced states
    ``W W^H / Tr(W W^H)`` (Zyczkowski-Sommers, J. Phys. A 34, 7111): square
    ``(d, d)`` for ``mixed-hs``, a column ``(d,)`` for a Haar vector.  Each
    chunk is filled by one ``standard_normal`` call on its float view, so an
    entry's real and imaginary parts are consecutive normals and the stream
    is that of ``rng.standard_normal((count, *shape, 2)).view(complex)[..., 0]``
    whatever ``step`` (callers take it from :func:`_block_rows`).  Nothing
    is drawn ahead of its chunk.  With ``out`` (complex, ``(count, *shape)``)
    each chunk is a view of it, which the caller may overwrite; without it
    each chunk is a new array.  ``seed`` passes :func:`_check_seed` at the
    first ``next``.
    """
    rng = np.random.default_rng(_check_seed(seed))
    for start in range(0, count, step):
        # filled and yielded unnamed, so that this frame keeps no chunk the caller is done with
        yield rng.standard_normal(out=(
            np.empty((min(step, count - start), *shape), dtype=complex) if out is None
            else out[start:start + step]).view(float)).view(complex)


def _hs_peak_bytes(n: int, count: int) -> int:
    """Bytes a ``mixed-hs`` batch of ``count`` states holds at its peak: the returned
    stack plus three :func:`_block_rows` chunks of temporaries for one chunk's
    ``G G^H`` (tracemalloc at n = 3, 4, 6 and 8)."""
    size = 16 * 4**n
    return (count + 3 * min(count, _block_rows(size))) * size


def _check_seed(seed):
    """``seed`` for ``default_rng``: a ``SeedSequence``, or an integer of at least 0
    (numpy's included, bools refused); anything else raises :class:`DomainError`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return check_integer(seed, "seed", 0)


def random_pure_states(n: int, count: int, seed) -> np.ndarray:
    """``count`` Haar-random unit state vectors, shape ``(count, d)``.

    The ``(d,)`` factors of :func:`_ginibre_chunks` are drawn into the
    returned array, :func:`_block_rows` vectors at a time, and each chunk is
    normalized as it is drawn; the bits are those of one whole draw.  The
    ``pure-haar`` states of :func:`random_state_batch` are the outer
    products of these vectors.
    ``seed`` passes :func:`_check_seed`.
    """
    n, count = check_integer(n, "n", 1, DENSE_GUARD), check_integer(count, "state count", 0)
    d = 2**n
    psi = np.empty((count, d), dtype=complex)
    for rows in _ginibre_chunks((d,), count, seed, _block_rows(16 * d), psi):
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return psi


def random_state_batch(n: int, count: int, seed, ensemble: str = "mixed-hs") -> np.ndarray:
    """Stack of ``count`` random states, shape ``(count, d, d)``.

    ``pure-haar`` draws Haar-random pure states; ``mixed-hs`` draws from
    the Hilbert-Schmidt measure (square Ginibre matrix G, normalized
    G G^H).  For ``mixed-hs`` the matrices G are drawn by
    :func:`_ginibre_chunks` into the returned array, :func:`_block_rows`
    states at a time, and each chunk is overwritten by its ``G G^H`` over
    the trace as it is drawn.  This is bit for bit the whole draw, and
    beside the returned array the peak holds three chunks
    (:func:`_hs_peak_bytes`).
    Deterministic given the seed, which passes :func:`_check_seed`.
    """
    if ensemble not in _ENSEMBLES:
        raise DomainError(f"unknown ensemble {ensemble!r}; choose from {_ENSEMBLES}")
    n, count = check_integer(n, "n", 1, DENSE_GUARD), check_integer(count, "state count", 0)
    if ensemble == "pure-haar":
        psi = random_pure_states(n, count, seed)
        # einsum: the broadcast psi[:, :, None] * psi.conj()[:, None, :] gives other bytes
        return np.einsum("si,sj->sij", psi, psi.conj())
    d = 2**n
    out = np.empty((count, d, d), dtype=complex)
    for gin in _ginibre_chunks((d, d), count, seed, _block_rows(16 * d * d), out):
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
