"""Anti-commuting generator sets and the graded operator basis.

The 2n generators come from the Jordan-Wigner construction,

    G_{2j-1} = Z^(j-1) (x) X (x) 1^(n-j)
    G_{2j}   = Z^(j-1) (x) Y (x) 1^(n-j)      (j = 1..n),

which are Hermitian involutions with {G_j, G_k} = 2 delta_jk.  The
pseudoscalar is the top-grade product with the uniform Hermitizing phase,

    G_0 = i**n * G_1 G_2 ... G_2n,

and anti-commutes with every generator, extending the set to 2n+1 mutually
anti-commuting observables.

Products over an index subset S = {s_1 < ... < s_m} carry the grade-m
phase i**(m(m-1)/2), which makes every basis element Hermitian and
involutory for every grade (reversing m mutually anti-commuting factors
costs (-1)**(m(m-1)/2), so this phase squares to exactly that sign).  The
4**n elements, ordered by grade then lexicographically by index set, form
an orthogonal basis for the d x d matrices under the trace inner product.
:func:`graded_basis` computes all of them at once by bit arithmetic on the
generators' symplectic rows, with no chain of products, and returns them
as one :class:`GradedBasis` table of masks and phases.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import pauli
from .errors import DomainError, check_budget, check_integer
from .pauli import PauliString
from .tolerances import MEMORY_BUDGET

# Bytes per basis row held at the peak of building the table, or of expanding
# or reconstructing a state through it: tracemalloc measured 150 to 240 at
# n = 5..8, mostly the index-set tuples and the expansion's dictionary.
_BASIS_ROW_BYTES = 256


class GeneratorSet:
    """The 2n Jordan-Wigner generators plus the pseudoscalar.

    Index convention used throughout the package: extended index 0 is the
    pseudoscalar and indices 1..2n are the generators, so "the first K
    observables" means ``(G_0, G_1, ..., G_{K-1})``.
    """

    def __init__(self, n: int, gammas, gamma0: PauliString):
        if len(gammas) != 2 * n:
            raise DomainError(f"expected {2 * n} generators, got {len(gammas)}")
        self.n = int(n)
        self.gammas = tuple(gammas)
        self.gamma0 = gamma0

    @property
    def extended_size(self) -> int:
        return 2 * self.n + 1

    def extended(self, i: int) -> PauliString:
        """Element of the extended set; ``i = 0`` is the pseudoscalar."""
        i = check_integer(i, "extended index", 0, 2 * self.n)
        return self.gammas[i - 1] if i else self.gamma0

    def extended_list(self) -> list[PauliString]:
        return [self.gamma0, *self.gammas]

    @cached_property
    def actions(self) -> tuple[pauli.Action, ...]:
        """Basis-action tables of the extended set, extended order.

        The dense ``d x d`` paths (:func:`pauli.apply`, :func:`pauli.expect`,
        :func:`pauli.scatter`) read these instead of dense matrices.
        """
        return tuple(pauli.action(g) for g in self.extended_list())

    @cached_property
    def pairings(self) -> tuple[pauli.Pairing, ...]:
        """The extended set grouped by X mask (:func:`pauli.pairings`).

        The state-vector paths (:func:`states.vector_expectations`,
        :func:`states.outcome_expectations`, :func:`states.realize`) read
        these and no table.
        """
        return pauli.pairings(self.extended_list())

    @cached_property
    def dense_extended(self) -> np.ndarray:
        """Stack of dense observables, shape ``(2n+1, d, d)``, extended order.

        Kronecker-rendered oracle for tests and the dense cross-check in
        ``verify``; the library's hot paths use :attr:`actions`.  Raises
        :class:`CapacityError`, before anything is rendered, when the stack
        would exceed ``MEMORY_BUDGET`` (from n = 12 on).
        """
        check_budget(f"dense observables at n = {self.n}",
                     (2 * self.n + 1) * 4**self.n * 16, MEMORY_BUDGET)
        stack = np.stack([pauli.to_dense(g) for g in self.extended_list()])
        stack.setflags(write=False)
        return stack

    def verify_anticommutation(self) -> bool:
        """Exact check of {G_j, G_k} = 2 delta_jk over the extended set."""
        elems = self.extended_list()
        for a, b in combinations(elems, 2):
            if not pauli.anticommutes(a, b):
                return False
        return all(pauli.mul(g, g).is_identity for g in elems)

    def __repr__(self) -> str:
        return f"GeneratorSet(n={self.n})"


def jordan_wigner(n: int) -> GeneratorSet:
    """Build the generator set for ``n`` qubits.

    Raises a domain error unless ``n`` is an integer of at least 1 (numpy's
    included, bools refused).  The pseudoscalar phase follows
    the grade-2n Hermitizing convention (module docstring), which reduces
    to ``i * G_1 G_2 = -Z`` at ``n = 1``.
    """
    n = check_integer(n, "qubit count", 1)
    gammas = []
    for j in range(1, n + 1):
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        z[: j - 1] = 1
        x[j - 1] = 1
        gammas.append(PauliString(n, x, z, 0))
        zy = z.copy()
        zy[j - 1] = 1
        gammas.append(PauliString(n, x, zy, 1))
    prod = gammas[0]
    for g in gammas[1:]:
        prod = pauli.mul(prod, g)
    m = 2 * n
    gamma0 = prod.phase_shifted(m * (m - 1) // 2)
    return GeneratorSet(n, gammas, gamma0)


@dataclass(frozen=True)
class GradedBasisElement:
    """Hermitian involutory product of generators over one index subset."""

    indices: tuple[int, ...]
    grade: int
    string: PauliString


@dataclass(frozen=True, eq=False)
class GradedBasis(Sequence):
    """The 4**n graded basis elements as one read-only table.

    Row ``r`` is the element over ``indices[r]``: grade ``grade[r]`` and the
    string ``i**phase[r] X**x[r] Z**z[r]``, whose integer masks (qubit 0 the
    top bit) are ``xmask[r]`` and ``zmask[r]``.  Every array is read-only.
    Indexing, slicing or iterating builds :class:`GradedBasisElement`
    objects one at a time; readers of the arrays build no string.
    """

    n: int
    indices: tuple[tuple[int, ...], ...]
    grade: np.ndarray
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    xmask: np.ndarray
    zmask: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return [self[i] for i in range(*r.indices(len(self)))]
        r = range(len(self))[r]  # counts negative r from the end, raises IndexError
        string = PauliString(self.n, self.x[r], self.z[r], int(self.phase[r]))
        return GradedBasisElement(self.indices[r], int(self.grade[r]), string)

    def __repr__(self) -> str:
        return f"GradedBasis(n={self.n}, {len(self)} elements)"


def graded_basis(gens: GeneratorSet) -> GradedBasis:
    """All 4**n basis elements, grades ascending, index sets lexicographic.

    Grade 0 is the identity; grade 2n equals the pseudoscalar under the
    shared phase convention.  Distinct elements are trace-orthogonal.

    Returns a :class:`GradedBasis`: the index sets, grades, bit rows,
    phases and integer masks as read-only arrays.  Its elements, each with
    its :class:`PauliString`, are built only when indexed or iterated.

    Built in bulk from the generators' bit rows and a 0/1 membership
    matrix S (``member``) with one row per index set: ``x = S X mod 2``, ``z = S Z mod 2``
    and, since reordering ``Z**z_a X**x_b`` costs ``(-1)**popcount(z_a & x_b)``,
    ``phase = S p + 2 sum_{a<b in S} popcount(z_a & x_b) + m(m-1)/2 (mod 4)``,
    which is the ordered product ``G_{s_1} ... G_{s_m}`` with its grade phase.
    With one grade-phase unit per pair ``a < b``, that is the quadratic form
    ``s^T W s (mod 4)`` of each membership row ``s``, where W (``form``) holds
    ``p_a`` on the diagonal and ``1 + 2 popcount(z_a & x_b)`` above it.

    Raises :class:`CapacityError`, before anything is built, when the
    ``4**n`` rows would need more than ``MEMORY_BUDGET`` bytes (n >= 13).
    """
    n = gens.n
    check_budget(f"graded basis at n = {n}", 4**n * _BASIS_ROW_BYTES, MEMORY_BUDGET)
    size = 2 * n
    gx = np.array([g.x for g in gens.gammas], dtype=np.uint8)
    gz = np.array([g.z for g in gens.gammas], dtype=np.uint8)
    gp = np.array([g.phase for g in gens.gammas], dtype=np.uint8)
    subsets = []
    member = np.zeros((4**n, size), dtype=np.uint8)
    for m in range(size + 1):
        sets = list(combinations(range(1, size + 1), m))
        rows = np.arange(len(subsets), len(subsets) + len(sets))
        member[rows[:, None], np.array(sets, dtype=np.intp).reshape(len(sets), m) - 1] = 1
        subsets += sets
    x = (member @ gx) & 1
    z = (member @ gz) & 1
    # entries below 4 keep member @ form (at most 3 * 2n) inside uint8
    form = np.triu(2 * (gz @ gx.T) + 1, 1) & 3
    form[np.diag_indices(size)] = gp
    phase = ((member @ form) * member).sum(axis=1) & 3
    grade = np.count_nonzero(member, axis=1)
    weights = 1 << np.arange(n - 1, -1, -1)
    xmask = x @ weights
    zmask = z @ weights
    for table in (grade, x, z, phase, xmask, zmask):
        table.setflags(write=False)
    return GradedBasis(n, tuple(subsets), grade, x, z, phase, xmask, zmask)


def eigenprojectors(g: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenspaces of a Hermitian involution.

    Returns ``(P0, P1)`` with ``P0 + P1 = 1`` and ``P0 - P1`` the dense
    observable; each has rank ``2**(n-1)``.
    """
    if not g.is_hermitian:
        raise DomainError("eigenprojectors need a Hermitian involutory string")
    if pauli.mul(g, g) != PauliString.identity(g.n):
        raise DomainError("string does not square to the identity")
    dense = pauli.to_dense(g)
    eye = np.eye(dense.shape[0], dtype=complex)
    return (eye + dense) / 2.0, (eye - dense) / 2.0
