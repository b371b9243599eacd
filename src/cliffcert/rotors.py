"""Orthogonal transformations of the observable span and their unitary lifts.

An orthogonal matrix T acting on the generator span (size N = 2n), or a
special-orthogonal matrix on the extended span including the pseudoscalar
(N = 2n+1), is realized on the Hilbert space by a unitary U with

    U G_j U^H = sum_i T_ij G_i.

The lift factors T through its Euler-angle decomposition

    T = E_1^(det T) * prod_{j<k, lexicographic} R_jk(theta_jk),

where R_jk(theta) rotates the (j, k) coordinate plane and E_1 reflects the
first axis.  Plane rotations inside the generator span lift directly to
the rotor

    U = cos(theta/2) 1 + sin(theta/2) G_k G_j,

which fixes every other observable including the pseudoscalar.  The same
rotor lifts rotations that involve the pseudoscalar: its derivation uses
only that G_j and G_k are anti-commuting Hermitian involutions that
anti-commute with every other observable, which holds on the whole
extended set.  The axis reflection lifts to U = G_0 G_1, which flips G_1
together with G_0 - under a 2n-generator lift the pseudoscalar therefore
picks up the factor det T.

A plane rotor is a sum of two signed Pauli strings.  The table of a flip
F_j = G_0 G_j is composed from two cached generator tables.  The axis
reduction's rotor is a product of two Clifford vectors A_c = sum_j c_j G_j,
each a Hermitian involution for a unit c: G_1 A_m, with m the unit midpoint
of e_1 and s g_hat for s = sign(g_1), or G_0 A_m, which folds in F_1, when
s = -1.  The lift applies its factors, through the basis-action kernel of
:mod:`pauli`, to one row only, which gives the vacuum column of U, and
fills the other columns by n doublings through the lifted creation
operators: O(N d**2) in all for N observables.  Strings that share an X
mask share a row permutation, so each doubling folds their coefficients
and phases into one diagonal and gathers rows once per X mask.  Dense
rotors are rendered by scatter, never through products of dense
observables.

:func:`conjugation_residual` checks the lift relation in its intertwining
form ``U G_j = M_j U``, ``M_j = sum_i T_ij G_i``, together with
``||U||_F**2 = d``, and multiplies no two d x d matrices.  The form is as
strong as the conjugation form.  The M_j obey the same anti-commutation
relations as the G_j, so some unitary V has ``V G_j V^H = M_j``; if U
intertwines every G_j with M_j, then ``V^H U`` commutes with every G_j,
which generate the full matrix algebra, and Schur's lemma gives
``U = c V``.  The Frobenius term pins ``|c| = 1``, so for a unitary U
both forms vanish together.  The rows of ``G_i U`` are table gathers; a
few MiB of rows of all of them are stacked at a time, mixed by the real
``T^T`` in one product on their float view and compared with the same rows
of ``U G_j``, a column gather times the phases: O(N**2 d**2) in all,
where the conjugation form took O(N d**3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pauli
from .clifford import GeneratorSet
from .errors import (DimensionMismatchError, DomainError, OrientationError, check_budget,
                     check_integer)
from .states import DensityMatrix, _block_rows, _squared_norms, extended_expectations
from .tolerances import MEMORY_BUDGET, ORTHOGONALITY

_TWO_PI = 2.0 * math.pi

# reduce_to_axis treats a squared expectation-vector length below this as
# zero and skips the rotor; any longer vector gets one rotor whose
# normalization is at least sqrt(2), whatever the sign of g_1.
_NEGLIGIBLE = 1e-24
# Complex d x d arrays that lift holds at its peak: U and the last doubling's
# d x d/2 term.
_LIFT_ARRAYS = 1.5


class OrthoTransform:
    """Validated real orthogonal matrix with its determinant sign."""

    def __init__(self, mat, *, tol: float = ORTHOGONALITY):
        m = np.asarray(mat, dtype=float).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DomainError(f"expected a non-empty square matrix, got shape {m.shape}")
        res = np.max(np.abs(m @ m.T - np.eye(m.shape[0])))
        if not res <= tol:  # also refuses NaN
            raise DomainError(f"matrix is not orthogonal: residual {res:.3e}")
        m.setflags(write=False)
        self.mat = m
        self.size = m.shape[0]
        self.det_sign = 1 if np.linalg.det(m) > 0 else -1

    def __repr__(self) -> str:
        return f"OrthoTransform(size={self.size}, det_sign={self.det_sign:+d})"


def _as_transform(t) -> OrthoTransform:
    return t if isinstance(t, OrthoTransform) else OrthoTransform(t)


@dataclass(frozen=True)
class EulerFactorization:
    """Reflection flag and plane-rotation angles, lexicographic in (j, k)."""

    size: int
    reflection_flag: int
    angles: tuple[tuple[int, int, float], ...]


def rotation_matrix(size: int, j: int, k: int, theta: float) -> np.ndarray:
    """R_jk(theta) on 1-based axes: column j rotates toward column k."""
    size = check_integer(size, "size", 2)
    j, k = (check_integer(axis, "axis", 1, size) for axis in (j, k))
    if j == k:
        raise DomainError("plane rotation needs two distinct axes")
    m = np.eye(size)
    c, s = math.cos(theta), math.sin(theta)
    m[j - 1, j - 1] = c
    m[k - 1, k - 1] = c
    m[k - 1, j - 1] = s
    m[j - 1, k - 1] = -s
    return m


def euler_decompose(t) -> EulerFactorization:
    """Factor an orthogonal matrix into reflection times plane rotations.

    Angles are found by Givens-style annihilation of the first column,
    then recursing on the trailing block; each angle is reduced to
    [0, 2*pi).  Recomposition reproduces the input to working precision.
    """
    trans = _as_transform(t)
    size = trans.size
    w = trans.mat.copy()
    if trans.det_sign < 0:
        w[0, :] = -w[0, :]
    angles = []
    for j in range(1, size):
        for k in range(j + 1, size + 1):
            theta = math.atan2(w[k - 1, j - 1], w[j - 1, j - 1])
            if theta != 0.0:
                c, s = math.cos(theta), math.sin(theta)
                rj = c * w[j - 1] + s * w[k - 1]
                rk = -s * w[j - 1] + c * w[k - 1]
                w[j - 1], w[k - 1] = rj, rk
            angles.append((j, k, theta % _TWO_PI))
    if not np.max(np.abs(w - np.eye(size))) <= 1e-8:
        raise DomainError("angle extraction failed to reduce the matrix")
    return EulerFactorization(size, trans.det_sign, tuple(angles))


def recompose(fact: EulerFactorization) -> np.ndarray:
    """Multiply the factorization back out (reflection first, then rotations)."""
    out = np.eye(fact.size)
    out[0, 0] = fact.reflection_flag
    for j, k, theta in fact.angles:
        out = out @ rotation_matrix(fact.size, j, k, theta)
    return out


def _rotor_direct(gens: GeneratorSet, j: int, k: int, theta: float) -> np.ndarray:
    """cos(theta/2) 1 + sin(theta/2) G_k G_j on extended indices.

    Kronecker-rendered reference that the tests hold :func:`plane_rotor` to.
    """
    gj = pauli.to_dense(gens.extended(j))
    gk = pauli.to_dense(gens.extended(k))
    eye = np.eye(gj.shape[0], dtype=complex)
    return math.cos(theta / 2.0) * eye + math.sin(theta / 2.0) * (gk @ gj)


def plane_rotor(gens: GeneratorSet, j: int, k: int, theta: float,
                u: np.ndarray | None = None) -> np.ndarray:
    """Unitary sending G_j to cos(theta) G_j + sin(theta) G_k by conjugation.

    ``j`` and ``k`` are extended indices (0 = pseudoscalar); every other
    observable in the extended set is fixed.  Returns ``u @ R`` for the
    rotor ``R = cos(theta/2) 1 + sin(theta/2) G_k G_j``, applying the cached
    actions of G_k, then G_j.  The left factor ``u`` may be any ``(..., d)``
    array, a ``1 x d`` row included, and costs O(d) per row: O(d**2) for a
    ``d x d`` factor (the identity by default).
    """
    size = gens.extended_size
    j, k = (check_integer(idx, "extended index", 0, size - 1) for idx in (j, k))
    if j == k:
        raise DomainError("rotation plane needs two distinct indices")
    if u is None:
        u = np.eye(2**gens.n, dtype=complex)
    out = pauli.apply(gens.actions[j], pauli.apply(gens.actions[k], u, "right"), "right")
    out *= math.sin(theta / 2.0)
    out += math.cos(theta / 2.0) * u
    return out


def flip_unitary(gens: GeneratorSet, j: int) -> np.ndarray:
    """G_0 G_j: conjugation negates G_j and G_0, fixing all other generators."""
    j = check_integer(j, "generator index", 1, 2 * gens.n)
    return pauli.scatter([1.0], [_flip(gens, j)])


def _flip(gens: GeneratorSet, j: int) -> pauli.Action:
    """Table of F_j = G_0 G_j, composed from the cached generator tables."""
    return pauli.compose(gens.actions[0], gens.actions[j])


def lift(t, gens: GeneratorSet) -> np.ndarray:
    """Unitary implementing an orthogonal transform of the observable span.

    ``t`` of size 2n acts on the generators (any determinant; the
    pseudoscalar picks up det T).  Size 2n+1 acts on the extended set and
    must be special-orthogonal.

    U is the product of the lifted Euler-angle factors, ``[F] R_1 ... R_m``,
    but only its vacuum column ``U e_0`` is built from them: the factors
    ``R(theta)^H = R(-theta)`` act in reverse order on the row
    ``e_0^T R_m^H ... R_1^H``, O(n d) per angle, and the flip ``F`` of a
    det -1 transform is applied to the conjugated row.  The creation operators
    ``a_k^H = (G_{2k-1} - i G_{2k})/2 = Z^(k-1) (x) |1><0|_k`` send ``e_x``
    to ``e_{x+m}`` for ``x < m = 2**(n-k)``, and
    ``U a_k^H U^H = (1/2) sum_i (T_{i,2k-1} - i T_{i,2k}) G_i``.  So for
    k = n, ..., 1 the columns ``m..2m-1`` of U are that sum applied to its
    columns ``0..m-1``: n doublings, O(N d**2) in all for N = 2n or 2n+1
    observables.  The strings of one X mask (the pairs ``G_{2k-1}, G_{2k}``
    and ``G_0`` for Jordan-Wigner) permute rows alike, so each doubling sums
    their coefficients times their phases into one diagonal and gathers the
    rows once per X mask: one gather per X mask where there was one per
    string.

    Raises :class:`CapacityError`, before anything of size d is allocated,
    when U and the last doubling's term exceed ``MEMORY_BUDGET``.
    """
    trans = _as_transform(t)
    n = gens.n
    d = 2**n
    # base: the extended index of the transform's first axis
    if trans.size == 2 * n + 1:
        if trans.det_sign < 0:
            raise OrientationError("extended-set lift requires determinant +1")
        base = 0
    elif trans.size == 2 * n:
        base = 1
    else:
        raise DimensionMismatchError(
            f"transform size {trans.size} matches neither 2n={2 * n} nor 2n+1={2 * n + 1}"
        )
    check_budget(f"lift at n = {n}", _LIFT_ARRAYS * d * d * 16, MEMORY_BUDGET)

    fact = euler_decompose(trans)
    row = np.zeros((1, d), dtype=complex)
    row[0, 0] = 1.0
    for j, k, theta in reversed(fact.angles):
        if theta != 0.0:
            row = plane_rotor(gens, j - 1 + base, k - 1 + base, -theta, row)
    column = row[0].conj()
    if fact.reflection_flag < 0:
        column = flip_unitary(gens, 1) @ column

    groups = _xmask_groups(gens, base)
    u = np.zeros((d, d), dtype=complex)
    u[:, 0] = column
    for k in range(n, 0, -1):
        m = 2 ** (n - k)
        coeffs = 0.5 * (trans.mat[:, 2 * k - 1 - base] - 1j * trans.mat[:, 2 * k - base])
        target = u[:, m:2 * m]
        for perm, members in groups:
            diag = sum(coeffs[i - base] * gens.actions[i].phase for i in members)
            term = u[perm, :m]
            term *= diag[perm, None]
            target += term
            del term  # so that the next gather does not hold two terms
    return u


def _xmask_groups(gens: GeneratorSet, base: int = 0) -> list[tuple[np.ndarray, list[int]]]:
    """The extended indices from ``base`` on, grouped by X mask (:attr:`GeneratorSet.pairings`),
    each group with the row permutation ``c -> c ^ xmask`` that its strings share."""
    groups = [[i for i in pair.rows.tolist() if i >= base] for pair in gens.pairings]
    return [(gens.actions[members[0]].perm, members) for members in groups if members]


def _vector_rotor(gens: GeneratorSet, coeffs: np.ndarray) -> np.ndarray:
    """Rotor taking the unit vector ``coeffs`` onto G_1 by conjugation.

    ``coeffs`` holds extended coefficients of a unit vector c in the
    observable span.  With ``s = sign(c_1)`` (+1 when c_1 = 0), the unit
    midpoint ``m = (e_1 + s c) / sqrt(2(1 + |c_1|))`` of e_1 and s c gives the
    rotor ``G_1 A_m``: conjugation by it reflects s c through m, onto e_1,
    and its normalization never drops below sqrt(2).  For s = -1 the flip
    ``F_1 = G_0 G_1``, which negates G_1 and G_0 (whose coefficient the rotor
    has already cleared), is folded in: ``F_1 G_1 A_m = G_0 A_m``.  A_m is
    rendered by scatter from the cached tables and multiplied by G_1 or G_0.
    """
    sign = -1.0 if coeffs[1] < 0.0 else 1.0
    m = sign * coeffs
    m[1] += 1.0
    m /= math.sqrt(2.0 * m[1])
    pivot = gens.actions[1 if sign > 0.0 else 0]
    return pauli.apply(pivot, pauli.scatter(m, gens.actions), "left")


def reduce_to_axis(rho: DensityMatrix, gens: GeneratorSet) -> tuple[DensityMatrix, np.ndarray, float]:
    """Rotate a state's expectation vector onto the first generator axis.

    One rotor built from the whole extended expectation vector,
    pseudoscalar included, moves it onto G_1 (see :func:`_vector_rotor`,
    which flips G_1 for a vector with g_1 < 0); averaging over the sign
    flips F_j for j = 2..2n then erases every remaining graded coefficient
    except the identity and G_1.

    Returns ``(rho_hat, U, ell)`` where ``ell`` is the squared length of
    the expectation vector, ``rho_hat = (1/d)(1 + sqrt(ell) G_1)``, and
    ``U^H rho_hat U`` equals the Bloch projection of the input.  States
    with no expectation-vector weight skip the rotation.
    """
    n = gens.n
    work = np.asarray(rho.mat, dtype=complex)
    g = extended_expectations(work, gens)
    ell = float(np.dot(g, g))

    if ell > _NEGLIGIBLE:
        u = _vector_rotor(gens, g / math.sqrt(ell))
        work = u @ work @ u.conj().T
    else:
        u = np.eye(2**n, dtype=complex)

    # F_j = G_0 G_j is anti-Hermitian, so F_j W F_j^H = -F_j W F_j.
    for j in range(2, 2 * n + 1):
        f = _flip(gens, j)
        work = 0.5 * (work - pauli.apply(f, pauli.apply(f, work, "left"), "right"))

    rho_hat = DensityMatrix.from_matrix(work)
    return rho_hat, u, ell


def _frobenius_defect(u: np.ndarray) -> float:
    """``|||U||_F**2 / d - 1|``: zero for a unitary, and for ``c`` times one only at ``|c| = 1``;
    summed in a fixed order, so the BLAS thread count moves no bit."""
    return abs(float(_squared_norms(u)) / u.shape[0] - 1.0)


def conjugation_residual(u: np.ndarray, t, gens: GeneratorSet) -> float:
    """Worst-case error of the lift relation ``U G_j U^H = sum_i T_ij G_i`` over the extended set.

    A 2n-sized transform acts on the generators, and the pseudoscalar must
    acquire det T, so it is checked as the extended transform
    ``diag(det T, T)``.  The relation is checked in its intertwining form,
    ``max(max_j |U G_j - M_j U|, |||U||_F**2 / d - 1|)`` with
    ``M_j = sum_i T_ij G_i``, entrywise.  The G_j generate the full matrix
    algebra, so by Schur's lemma the first term vanishes only for ``U = c V``
    with V a lift of T, and the Frobenius term pins ``|c| = 1``: for a
    unitary U the form vanishes exactly when the conjugation form does.
    Rows of the stacked ``G_i U`` are taken :func:`states._block_rows` at a
    time, so no d x d matrix product is formed and the temporaries stay a
    few MiB: O(N**2 d**2) for N = 2n+1.  Used by the verification suites.
    """
    trans = _as_transform(t)
    size = gens.extended_size
    if trans.size not in (size - 1, size):
        raise DimensionMismatchError("transform size matches neither 2n nor 2n+1")
    mat = np.zeros((size, size))
    mat[0, 0] = trans.det_sign
    mat[size - trans.size:, size - trans.size:] = trans.mat  # all of mat for a 2n+1 transform
    acts = gens.actions
    groups = _xmask_groups(gens)
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    step = _block_rows(16 * size * d)
    stack = np.empty((size, min(step, d), d), dtype=complex)
    worst = [_frobenius_defect(u)]
    for start in range(0, d, step):
        stop = min(start + step, d)
        part = stack[:, :stop - start]
        # row r of G_i U is phase_i[perm[r]] times row perm[r] of U
        for perm, members in groups:
            src = perm[start:stop]
            rows = u[src]
            for i in members:
                np.multiply(rows, acts[i].phase[src, None], out=part[i])
        # M_j U for every j at once: T^T mixes the stack, a real product on its float view
        mixed = (mat.T @ part.view(float).reshape(size, -1)).view(complex)
        mixed = mixed.reshape(part.shape)
        # column c of U G_j is phase_j[c] times column perm[c] of U
        for perm, members in groups:
            cols = u[start:stop, perm]
            for j in members:
                mixed[j] -= cols * acts[j].phase
        worst.append(np.max(np.abs(mixed)))
        del mixed  # so that the next block's product does not hold two
    return float(np.max(worst))  # by numpy, which keeps a NaN
