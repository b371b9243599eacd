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

A plane rotor is a sum of two signed Pauli strings, a flip F_j = G_0 G_j
one table composed from two cached ones, and the axis reduction's rotor
``G_1 A_m`` (or ``G_0 A_m``) a product of Clifford vectors
``A_c = sum_j c_j G_j`` (:func:`_vector_rotor`).  The lift builds the vacuum
column of U from its factors and the other columns by n doublings
(:func:`lift`), O(N d**2) for N observables; dense rotors are rendered by
scatter, never through products of dense observables.

:func:`conjugation_residual` checks the lift relation in its intertwining
form ``U G_j = M_j U``, ``M_j = sum_i T_ij G_i``, on probe vectors, with
``||U||_F**2 = d``: two mat-vecs and O(N d) string work, no d x d product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pauli
from .clifford import GeneratorSet
from .errors import (DimensionMismatchError, DomainError, OrientationError, check_budget,
                     check_integer)
from .states import DensityMatrix, _block_rows, _vecdots, extended_expectations
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
    w = trans.mat.tolist()  # rows of Python floats: each rotation rounds as numpy's would
    if trans.det_sign < 0:
        w[0] = [-a for a in w[0]]
    angles = []
    for j in range(size - 1):
        for k in range(j + 1, size):
            theta = math.atan2(w[k][j], w[j][j])
            if theta != 0.0:
                c, s = math.cos(theta), math.sin(theta)
                w[j], w[k] = ([c * a + s * b for a, b in zip(w[j], w[k])],
                              [-s * a + c * b for a, b in zip(w[j], w[k])])
            angles.append((j + 1, k + 1, theta % _TWO_PI))
    if not np.max(np.abs(np.array(w) - np.eye(size))) <= 1e-8:
        raise DomainError("angle extraction failed to reduce the matrix")
    return EulerFactorization(size, trans.det_sign, tuple(angles))


def recompose(fact: EulerFactorization) -> np.ndarray:
    """Multiply the factorization back out (reflection first, then rotations), each
    ``R_jk`` on the only columns it mixes, j and k, as Python floats: O(N) per angle."""
    cols = np.eye(fact.size).tolist()  # symmetric: its rows are its columns
    cols[0][0] = float(fact.reflection_flag)
    for j, k, _ in fact.angles:  # the checks rotation_matrix makes, before any float work
        if check_integer(j, "axis", 1, fact.size) == check_integer(k, "axis", 1, fact.size):
            raise DomainError("plane rotation needs two distinct axes")
    for j, k, theta in fact.angles:
        c, s = math.cos(theta), math.sin(theta)
        a, b = cols[j - 1], cols[k - 1]
        cols[j - 1], cols[k - 1] = ([c * x + s * y for x, y in zip(a, b)],
                                    [c * y - s * x for x, y in zip(a, b)])
    return np.array(cols).T


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
    rows once per X mask (``groups``: members and shared permutation).

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

    groups = [[i for i in pair.rows.tolist() if i >= base] for pair in gens.pairings]
    groups = [(gens.actions[members[0]].perm, members) for members in groups if members]
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


def _reduction_residual(u: np.ndarray, g: np.ndarray, gens: GeneratorSet) -> float:
    """Bound on the error of ``U rho U^H``'s vector against ``sqrt(ell) e_1``, relative to
    ``sqrt(ell)``, for a state with vector ``g``, ``ell = |g|**2 > 0``: O(K d + d**2).  ``U``
    should be :func:`_vector_rotor`'s ``P A_m``, ``P = G_p`` by its rule (p = 0 for ``g_1 <
    0``, else 1).  With ``u_i = Tr(S_i^H U) / d`` on the strings ``S_i = P G_i`` (composed tables),
    ``U = V + R`` for ``V = P A_u``, and ``V^H G_j V = s_j A_u^H G_j A_u`` (``s_p = 1``, else -1)
    has the grade-1 part ``g'_j = s_j [(2 |u_j|**2 - sum_a |u_a|**2) g_j + 2 Re(conj(u_j)
    sum_{a != j} u_a g_a)]``.  Its other terms pair (a, b) with (b, a) into ``2i Im(u_a conj(u_b))
    <G_b G_j G_a>``, a Pauli expectation of modulus at most 1: ``bound = 2 sum_{a<b} |Im(u_a
    conj(u_b))|``.  R adds ``Tr((V^H G_j R + R^H G_j V + R^H G_j R) rho)``, at most ``r (2 s + r)``
    for ``s = sum |u_a| >= ||V||`` and ``r >= ||R||`` by Schur's test (the geometric mean of R's
    largest absolute row and column sums, eps for ``U + eps G_2``).  Returns the error bound
    ``(max_j |g'_j - sqrt(ell) delta_j1| + bound + r (2 s + r)) / sqrt(ell)``."""
    ell, d = float(np.dot(g, g)), u.shape[0]
    p = 0 if g[1] < 0.0 else 1
    strings = [pauli.compose(gens.actions[p], act) for act in gens.actions]  # S_i = P G_i
    coef = np.array([np.add.reduce(u[st.perm, np.arange(d)] * st.phase.conj())
                     for st in strings]) / d  # Tr(S_i^H U): S_i holds phase[c] at (perm c, c)
    weights = coef.real**2 + coef.imag**2
    total = np.add.reduce(weights)
    rotated = (2.0 * weights - total) * g + 2.0 * (coef.conj() * (coef @ g - coef * g)).real
    rotated[np.arange(len(g)) != p] *= -1.0
    rotated[1] -= math.sqrt(ell)
    bound = np.add.reduce(np.abs(np.outer(coef, coef.conj()).imag), axis=None)
    row_sums, col_sums = np.empty(d), np.zeros(d)
    for rows in np.arange(d).reshape(-1, min(d, _block_rows(16 * d))):
        block = u[rows[0]:rows[-1] + 1].copy()
        for c, st in zip(coef, strings):  # less u_i S_i: row r holds phase[perm r] at perm r
            block[rows - rows[0], st.perm[rows]] -= c * st.phase[st.perm[rows]]
        block = np.abs(block)
        row_sums[rows] = np.add.reduce(block, axis=1)
        col_sums += np.add.reduce(block, axis=0)
    r, s = math.sqrt(np.max(row_sums) * np.max(col_sums)), np.add.reduce(np.abs(coef))
    return float((np.max(np.abs(rotated)) + bound + r * (2.0 * s + r)) / math.sqrt(ell))


def conjugation_residual(u: np.ndarray, t, gens: GeneratorSet) -> float:
    """Worst-case error of the lift relation ``U G_j U^H = sum_i T_ij G_i`` over the extended set.

    A 2n-sized T is checked as ``diag(det T, T)``.  For ``M_j = sum_i T_ij G_i``
    and complex Gaussian probes ``phi, psi`` of shape ``(d, 2)`` from a fixed
    seed, ``a = U^H phi`` and ``b = U psi`` give ``r_j = <a|G_j psi> - sum_i
    T_ij <G_i phi|b> = phi^H (U G_j - M_j U) psi`` for every j and probe
    pair.  Returns ``max(max_j |r_j| / sqrt(d), |||U||_F**2 / d - 1|)``;
    ``|r_j|`` is about ``2 ||U G_j - M_j U||_F``, so T rotated by ``theta``
    in one plane reads about ``2 theta`` at every n.  Sound: the G_j generate
    the full matrix algebra, so by Schur's lemma ``U G_j = M_j U`` for all j
    only for ``U = c V``, V a lift of T, the Frobenius term pins ``|c| = 1``,
    and a nonzero ``U G_j - M_j U`` meets probes drawn independently of it in
    zero only on a null set.  O(d**2) for the mat-vecs, blocked ``np.vecdot``
    like every sum here, so the BLAS thread count moves no bit.
    """
    trans = _as_transform(t)
    size = gens.extended_size
    if trans.size not in (size - 1, size):
        raise DimensionMismatchError("transform size matches neither 2n nor 2n+1")
    mat = np.zeros((size, size))
    mat[0, 0] = trans.det_sign
    mat[size - trans.size:, size - trans.size:] = trans.mat  # all of mat for a 2n+1 transform
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    phi, psi = np.random.default_rng(0).standard_normal((2, d, 4)).view(complex)  # fixed seed
    a = _vecdots(u.T[:, None, :], phi.T)  # (U^H phi)[k, p]: column k of U against probe p
    b = _vecdots(psi.T.conj(), u[:, None, :])  # (U psi)[r, q]
    # one (2, 2) block of probe pairs per extended index
    left = _vecdots(a.T[:, None, :], [pauli.apply(act, psi).T[None] for act in gens.actions])
    right = _vecdots([pauli.apply(act, phi).T[:, None, :] for act in gens.actions], b.T)
    probe = left - np.add.reduce(mat[:, :, None, None] * right[:, None], axis=0)
    flat = np.ascontiguousarray(u).reshape(-1).view(float)  # ||U||_F**2 by blocked dots: no copy
    defect = abs(float(_vecdots(flat, flat)) / d - 1.0)  # 0 for c times a unitary only at |c| = 1
    return float(np.max([defect, np.max(np.abs(probe)) / math.sqrt(d)]))
