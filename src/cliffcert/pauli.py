"""Exact algebra of signed Pauli strings in the symplectic encoding.

A string on ``n`` qubits is stored as two length-``n`` bit vectors and an
integer phase exponent, and denotes the operator

    i**phase * (X**x[0] Z**z[0]) (x) ... (x) (X**x[n-1] Z**z[n-1])

with qubit 0 the leftmost tensor factor.  Products, commutation checks and
Hermiticity tests reduce to bit arithmetic modulo small integers and are
therefore exact at any ``n``.

Acting on the computational basis (qubit 0 the most significant bit of the
index), the string ``i**p X**x Z**z`` sends basis index ``c`` to
``c ^ xmask`` with the phase ``i**p (-1)**popcount(c & zmask)``
(Aaronson-Gottesman, arXiv:quant-ph/0406196).  :func:`masks` gives the two
integers and :func:`pairings` groups strings by X mask for the state-vector
kernels of :mod:`cliffcert.states`, which read no table.  The tables serve
only the dense ``d x d`` paths: :func:`action` tabulates the rule and
:func:`compose` multiplies two tables; :func:`apply`, :func:`expect` and
:func:`scatter` use them to multiply, trace against and render strings in
O(d) per row instead of through dense matrix products.  :func:`to_dense` is
the Kronecker oracle the kernels are tested against.  Every floating-point
surface is guarded to small qubit counts.

Phase convention: ``Y`` is stored as ``x=1, z=1, phase=1`` so that its
dense rendering is the standard Pauli Y matrix (``Y = i X Z``).  A string
is Hermitian iff ``phase + overlap`` is even, where ``overlap`` counts the
qubits carrying both an X and a Z bit.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DimensionMismatchError, DomainError, ParseError, check_integer
from .tolerances import DENSE_GUARD

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # exact powers of i

_LABEL_RE = re.compile(r"^([+-]?)(1|i)?([IXYZ]+)$")
_PREFIX_FOR_PHASE = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LETTER_FOR_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

# Unsigned single-qubit factors X**x Z**z.  The (1,1) entry is X @ Z, so the
# stored phase supplies the i that turns it into Y.
_XZ_FACTOR = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}


def _as_bits(bits, n: int) -> np.ndarray:
    arr = np.array(bits, dtype=np.uint8)
    if arr.shape != (n,):
        raise DimensionMismatchError(f"bit vector has shape {arr.shape}, expected ({n},)")
    if (arr > 1).any():
        raise ParseError("bit vectors must contain only 0 and 1")
    arr.setflags(write=False)
    return arr


class PauliString:
    """Immutable signed Pauli product on ``n`` qubits."""

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x, z, phase: int = 0):
        n = check_integer(n, "qubit count", 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", _as_bits(x, n))
        object.__setattr__(self, "z", _as_bits(z, n))
        object.__setattr__(self, "phase", int(phase) % 4)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @property
    def overlap(self) -> int:
        """Number of qubits carrying both an X and a Z bit."""
        return int(np.count_nonzero(np.logical_and(self.x, self.z)))

    @property
    def is_hermitian(self) -> bool:
        return (self.phase + self.overlap) % 2 == 0

    @property
    def is_identity(self) -> bool:
        return self.phase == 0 and not self.x.any() and not self.z.any()

    def phase_shifted(self, k: int) -> "PauliString":
        """Same string multiplied by i**k."""
        return PauliString(self.n, self.x, self.z, self.phase + k)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.phase, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        return f"PauliString({to_label(self)!r})"


def from_label(label: str) -> PauliString:
    """Parse ``[+|-][1|i] LETTERS`` with letters in ``IXYZ``.

    The optional prefix selects the sign/phase (``+1``, ``-1``, ``+i``,
    ``-i``; a bare sign means ``+1``/``-1``).  Each ``Y`` contributes one
    factor of ``i`` to the stored phase so the encoding round-trips with
    :func:`to_label`.
    """
    m = _LABEL_RE.match(label.strip())
    if m is None:
        raise ParseError(f"not a Pauli label: {label!r}")
    sign, unit, letters = m.groups()
    phase = 2 if sign == "-" else 0
    if unit == "i":
        phase += 1
    n = len(letters)
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    for j, ch in enumerate(letters):
        if ch == "X":
            x[j] = 1
        elif ch == "Z":
            z[j] = 1
        elif ch == "Y":
            x[j] = 1
            z[j] = 1
            phase += 1
    return PauliString(n, x, z, phase)


def to_label(p: PauliString) -> str:
    """Inverse of :func:`from_label` (canonical ``+``/``-``/``+i``/``-i`` prefix)."""
    prefix = _PREFIX_FOR_PHASE[(p.phase - p.overlap) % 4]
    letters = "".join(_LETTER_FOR_BITS[(int(a), int(b))] for a, b in zip(p.x, p.z))
    return prefix + letters


def product_components(xa, za, pa, xb, zb, pb):
    """Vectorized product kernel on stacked ``(..., n)`` bit arrays.

    Reordering ``Z**za X**xb = (-1)**(za.xb) X**xb Z**za`` is the only
    phase source, so the product of ``i**pa P_a`` and ``i**pb P_b`` has
    phase exponent ``pa + pb + 2*(za.xb)`` mod 4.  Returns ``(x, z, phase)``.
    """
    x = np.bitwise_xor(xa, xb)
    z = np.bitwise_xor(za, zb)
    swaps = np.count_nonzero(np.logical_and(za, xb), axis=-1)
    phase = (np.asarray(pa) + np.asarray(pb) + 2 * swaps) % 4
    return x, z, phase


def mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact product ``a @ b`` including phase, in O(n) bit operations."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} vs {b.n}")
    x, z, phase = product_components(a.x, a.z, a.phase, b.x, b.z, b.phase)
    return PauliString(a.n, x, z, int(phase))


def symplectic_inner(a: PauliString, b: PauliString) -> int:
    """Parity of the symplectic form: 1 iff the strings anti-commute."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} vs {b.n}")
    s = np.count_nonzero(np.logical_and(a.x, b.z)) + np.count_nonzero(
        np.logical_and(a.z, b.x)
    )
    return int(s) & 1


def anticommutes(a: PauliString, b: PauliString) -> bool:
    """True iff ``ab = -ba``; no matrix work."""
    return symplectic_inner(a, b) == 1


def to_dense(p: PauliString) -> np.ndarray:
    """Dense ``2**n x 2**n`` complex matrix via Kronecker assembly.

    All entries are exact (drawn from ``{0, +-1, +-i}``).
    """
    if p.n > DENSE_GUARD:
        raise CapacityError(f"dense rendering limited to n <= {DENSE_GUARD}, got n = {p.n}")
    m = np.array([[_I_POW[p.phase]]], dtype=complex)
    for a, b in zip(p.x, p.z):
        m = np.kron(m, _XZ_FACTOR[(int(a), int(b))])
    return m


class Action(NamedTuple):
    """Bit-rule form of a string on ``d = 2**n`` basis states.

    Column ``c`` of the operator holds ``phase[c]`` in row ``perm[c]``:
    ``P|c> = phase[c] |perm[c]>`` with ``perm[c] = c ^ xmask``.  The
    permutation is an involution.
    """

    perm: np.ndarray
    phase: np.ndarray


def masks(p: PauliString) -> tuple[int, int]:
    """The integers ``(xmask, zmask)`` of ``p``, qubit 0 the most significant bit."""
    xmask = zmask = 0
    for a, b in zip(p.x.tolist(), p.z.tolist()):
        xmask = (xmask << 1) | a
        zmask = (zmask << 1) | b
    return xmask, zmask


def _z_signs(zmask: int, c: np.ndarray) -> np.ndarray:
    """``(-1)**popcount(c & zmask)`` for the integer array ``c``, as floats."""
    parity = np.zeros_like(c)
    for shift in range(zmask.bit_length()):
        if zmask >> shift & 1:
            parity ^= (c >> shift) & 1
    return 1.0 - 2.0 * parity


def action(p: PauliString) -> Action:
    """Tabulate the basis action of ``p`` in O(n d) bit operations."""
    if p.n > DENSE_GUARD:
        raise CapacityError(f"basis action limited to n <= {DENSE_GUARD}, got n = {p.n}")
    xmask, zmask = masks(p)
    c = np.arange(2**p.n)
    act = Action(c ^ xmask, _I_POW[p.phase] * _z_signs(zmask, c))
    # GeneratorSet caches these tables and hands them to every caller.
    for table in act:
        table.setflags(write=False)
    return act


def compose(a: Action, b: Action) -> Action:
    """Table of the product ``A B`` from the tables of A and B, in O(d)."""
    if a.perm.shape != b.perm.shape:
        raise DimensionMismatchError("tables act on different qubit counts")
    return Action(a.perm[b.perm], a.phase[b.perm] * b.phase)


class Pairing(NamedTuple):
    """Strings that share one X mask, measured together on state vectors.

    The strings touch only qubits ``0..width-1``; on the rest they are the
    identity.  For a nonzero ``xmask``, ``pivot`` is its last qubit: basis
    index ``c`` with that qubit clear (the lo half) pairs with ``c ^ xmask``
    (the hi half).  The lo index's ``width - 1`` prefix qubits other than
    the pivot form the index ``a``, and its partner's first ``pivot`` qubits
    are ``partner[a >> (width - 1 - pivot)]``; ``partner`` is None when the
    pivot is the only X bit.  For ``xmask == 0``, ``pivot`` is None and ``a``
    spans all ``width`` prefix qubits.

    String ``k`` of the group is entry ``rows[k]`` of the list, with Z mask
    ``zmasks[k]``, phase ``i**p`` in ``phase[k]``, and
    ``eps[k] = (-1)**popcount(xmask & zmasks[k])``; row ``which[k]`` of
    ``signs`` holds its Z-parity signs ``(-1)**popcount(c & zmask)`` over
    ``a``.  Strings whose signs agree share that row.
    """

    xmask: int
    pivot: int | None
    width: int
    partner: np.ndarray | None
    signs: np.ndarray
    rows: np.ndarray
    zmasks: tuple[int, ...]
    which: np.ndarray
    phase: np.ndarray
    eps: np.ndarray


def pairings(strings) -> tuple[Pairing, ...]:
    """Group strings on one qubit count by X mask, in order of first appearance.

    Each group's pivot is the last qubit of its X mask, so the other X bits
    lie before it and only their prefix is gathered (:class:`Pairing`).
    An empty list has no qubit count and raises :class:`DomainError`.
    """
    if not strings:
        raise DomainError("pairings need at least one string")
    n = strings[0].n
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for j, p in enumerate(strings):
        if p.n != n:
            raise DimensionMismatchError("strings act on different qubit counts")
        xmask, zmask = masks(p)
        groups.setdefault(xmask, []).append((j, zmask, p.phase))
    out = []
    for xmask, members in groups.items():
        rows, zmasks, phases = zip(*members)
        touched = xmask
        for zmask in zmasks:
            touched |= zmask
        width = n + 1 - (touched & -touched).bit_length() if touched else 0
        prefixes = [zmask >> (n - width) for zmask in zmasks]
        if xmask:
            pivot = n - (xmask & -xmask).bit_length()
            h = width - 1 - pivot  # the pivot's bit in a width-bit prefix
            prefixes = [(z >> (h + 1) << h) | (z & ((1 << h) - 1)) for z in prefixes]
            before = xmask >> (n - pivot)
            partner = np.arange(2**pivot) ^ before if before else None
            size = 2 ** (width - 1)
        else:
            pivot, partner, size = None, None, 2**width
        distinct = list(dict.fromkeys(prefixes))
        group = Pairing(
            xmask, pivot, width, partner,
            np.array([_z_signs(z, np.arange(size)) for z in distinct]),
            np.array(rows), zmasks,
            np.array([distinct.index(z) for z in prefixes]),
            np.array([_I_POW[p] for p in phases]),
            np.array([1.0 - 2.0 * ((xmask & z).bit_count() & 1) for z in zmasks]))
        for table in group:
            if isinstance(table, np.ndarray):
                table.setflags(write=False)
        out.append(group)
    return tuple(out)


def _as_action(p) -> Action:
    return p if isinstance(p, Action) else action(p)


def _check_side(m: np.ndarray, d: int, axis: int) -> None:
    if m.ndim < 2 or m.shape[axis] != d:
        raise DimensionMismatchError(f"operand of shape {m.shape} does not act on dimension {d}")


def apply(p, m, side: str = "left") -> np.ndarray:
    """``P @ M`` (``side="left"``) or ``M @ P`` (``"right"``) in O(d**2).

    ``p`` is a :class:`PauliString` or its :class:`Action`; ``m`` has shape
    ``(..., d, d)``.  Each output entry is one input entry times a phase,
    so no rounding beyond that one product enters.
    """
    act = _as_action(p)
    d = act.perm.shape[0]
    m = np.asarray(m, dtype=complex)
    if side == "left":
        _check_side(m, d, -2)
        out = m[..., act.perm, :]
        out *= act.phase[act.perm, None]
    elif side == "right":
        _check_side(m, d, -1)
        out = m[..., act.perm]
        out *= act.phase
    else:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    return out


def expect(p, m) -> np.ndarray:
    """``Tr(M P)`` for stacked ``(..., d, d)`` input in O(d) per matrix.

    Only the ``d`` entries ``M[r, perm[r]]`` meet a nonzero entry of P.
    They are summed by ``np.add.reduce`` in a fixed order, not by a BLAS
    product, so the bits do not depend on the BLAS thread count.  Returns
    a complex array of the leading shape.
    """
    act = _as_action(p)
    d = act.perm.shape[0]
    m = np.asarray(m)
    _check_side(m, d, -1)
    _check_side(m, d, -2)
    return np.add.reduce(m[..., np.arange(d), act.perm] * act.phase, axis=-1)


def scatter(coeffs, ops) -> np.ndarray:
    """Dense ``sum_k coeffs[..., k] P_k`` written entry by entry, O(K d) per matrix.

    ``ops`` lists K strings or actions on one qubit count; ``coeffs`` has
    shape ``(..., K)`` and may be real or complex.  Strings are tabulated
    one at a time, so a long list never holds all K tables.
    """
    coeffs = np.asarray(coeffs)
    if not ops or coeffs.shape[-1:] != (len(ops),):
        raise DimensionMismatchError(
            f"coefficients of shape {coeffs.shape} do not match {len(ops)} strings")
    d = _as_action(ops[0]).perm.shape[0]
    cols = np.arange(d)
    out = np.zeros(coeffs.shape[:-1] + (d, d), dtype=complex)
    for k, p in enumerate(ops):
        act = _as_action(p)
        if act.perm.shape[0] != d:
            raise DimensionMismatchError("strings act on different qubit counts")
        out[..., act.perm, cols] += coeffs[..., k, None] * act.phase
    return out
