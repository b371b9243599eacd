"""Generator sets, the graded basis, and eigenprojectors."""

from itertools import combinations

import numpy as np
import pytest

from cliffcert import (
    CapacityError,
    DomainError,
    GeneratorSet,
    PauliString,
    anticommutes,
    clifford,
    eigenprojectors,
    expand,
    from_label,
    graded_basis,
    jordan_wigner,
    mul,
    random_state,
    to_dense,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def sequential_graded_basis(gens):
    """Reference construction: each element as a chain of ``mul`` products."""
    n = gens.n
    out = []
    for m in range(2 * n + 1):
        for subset in combinations(range(1, 2 * n + 1), m):
            prod = PauliString.identity(n)
            for i in subset:
                prod = mul(prod, gens.gammas[i - 1])
            out.append((subset, m, prod.phase_shifted(m * (m - 1) // 2)))
    return out


def ordered_generators(n, order):
    gens = jordan_wigner(n)
    if order == "reversed":
        # in Jordan-Wigner order no later generator's X meets an earlier
        # one's Z; reversed, the reordering signs are exercised
        gens = GeneratorSet(n, gens.gammas[::-1], gens.gamma0)
    return gens


def mask(bits):
    """Integer mask of a bit row, qubit 0 the top bit."""
    return int("".join(str(int(b)) for b in bits), 2)


class TestJordanWigner:
    def test_n1_generators(self):
        gens = jordan_wigner(1)
        assert np.array_equal(to_dense(gens.gammas[0]), X)
        assert np.array_equal(to_dense(gens.gammas[1]), Y)

    def test_n1_pseudoscalar(self):
        # i * X Y computed densely equals -Z; the stored string must agree
        oracle = 1j * (X @ Y)
        assert np.array_equal(oracle, -Z)
        assert np.array_equal(to_dense(jordan_wigner(1).gamma0), oracle)

    def test_n2_third_generator(self):
        gens = jordan_wigner(2)
        assert np.array_equal(to_dense(gens.gammas[2]), np.kron(Z, X))

    def test_rejects_zero_qubits(self):
        with pytest.raises(DomainError):
            jordan_wigner(0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_qubit_counts(self, n):
        # 2.5 reached numpy's array sizing as a bare TypeError; True ran as n = 1
        with pytest.raises(DomainError, match="must be an integer"):
            jordan_wigner(n)

    def test_numpy_integer_qubit_count(self):
        gens = jordan_wigner(np.int64(3))
        assert type(gens.n) is int
        assert gens.extended_list() == jordan_wigner(3).extended_list()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extended_anticommutation_exact(self, n):
        gens = jordan_wigner(n)
        elems = gens.extended_list()
        assert len(elems) == 2 * n + 1
        for a, b in combinations(elems, 2):
            assert anticommutes(a, b)
        for g in elems:
            assert mul(g, g) == PauliString.identity(n)
            assert g.is_hermitian

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_anticommutators(self, n):
        stack = jordan_wigner(n).dense_extended
        d = 2**n
        for j in range(len(stack)):
            for k in range(len(stack)):
                anti = stack[j] @ stack[k] + stack[k] @ stack[j]
                target = 2.0 * np.eye(d) if j == k else 0.0
                assert np.max(np.abs(anti - target)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_pseudoscalar_substitution(self, n):
        # swapping the pseudoscalar into any generator slot keeps the relations
        gens = jordan_wigner(n)
        for j in range(2 * n):
            family = list(gens.gammas)
            family[j] = gens.gamma0
            for a, b in combinations(family, 2):
                assert anticommutes(a, b)

    def test_dense_stack_is_refused_by_memory(self, monkeypatch):
        # 25 observables of 256 MiB each: 6.25 GiB against the 4 GiB budget
        gens = jordan_wigner(12)

        def no_render(*args):
            raise AssertionError("an observable was rendered")

        monkeypatch.setattr(clifford.pauli, "to_dense", no_render)
        with pytest.raises(CapacityError, match="dense observables at n = 12 needs 6.2 GiB"):
            gens.dense_extended

    def test_extended_indexing(self):
        gens = jordan_wigner(2)
        assert gens.extended(0) == gens.gamma0
        assert gens.extended(3) == gens.gammas[2]
        with pytest.raises(DomainError):
            gens.extended(5)
        with pytest.raises(DomainError):
            gens.extended(-1)
        with pytest.raises(DomainError, match="extended index 5 out of range 0..4"):
            gens.extended(5)
        # a bool once read as the index 0 or 1, and a float raised a bare TypeError
        for i in (True, 1.5):
            with pytest.raises(DomainError, match="must be an integer"):
                gens.extended(i)
        assert gens.extended(np.int64(3)) == gens.gammas[2]


class TestGradedBasis:
    def test_count_and_ordering(self):
        gens = jordan_wigner(2)
        basis = graded_basis(gens)
        assert len(basis) == 4**2
        grades = [e.grade for e in basis]
        assert grades == sorted(grades)
        for grade in range(5):
            sets = [e.indices for e in basis if e.grade == grade]
            assert sets == sorted(sets)
        assert basis[0].string == PauliString.identity(2)
        assert basis[-1].string == gens.gamma0

    def test_n1_rendering(self):
        basis = graded_basis(jordan_wigner(1))
        rendered = [to_dense(e.string) for e in basis]
        for got, expected in zip(rendered, [I2, X, Y, -Z]):
            assert np.array_equal(got, expected)

    def test_grade2_is_i_times_product(self):
        gens = jordan_wigner(2)
        elem = next(e for e in graded_basis(gens) if e.indices == (1, 2))
        assert elem.string == mul(gens.gammas[0], gens.gammas[1]).phase_shifted(1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_involutory(self, n):
        for e in graded_basis(jordan_wigner(n)):
            assert e.string.is_hermitian
            assert mul(e.string, e.string) == PauliString.identity(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", ["jordan-wigner", "reversed"])
    def test_equals_sequential_products(self, n, order):
        gens = ordered_generators(n, order)
        basis = graded_basis(gens)
        expected = sequential_graded_basis(gens)
        assert len(basis) == len(expected) == 4**n
        for got, (indices, grade, string) in zip(basis, expected):
            assert (got.indices, got.grade) == (indices, grade)
            assert got.string.phase == string.phase
            assert got.string.x.dtype == string.x.dtype == np.uint8
            assert np.array_equal(got.string.x, string.x)
            assert np.array_equal(got.string.z, string.z)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", ["jordan-wigner", "reversed"])
    def test_table_equals_sequential_products(self, n, order):
        gens = ordered_generators(n, order)
        basis = graded_basis(gens)
        expected = sequential_graded_basis(gens)
        assert basis.indices == tuple(indices for indices, _, _ in expected)
        assert basis.grade.tolist() == [grade for _, grade, _ in expected]
        assert basis.xmask.tolist() == [mask(string.x) for _, _, string in expected]
        assert basis.zmask.tolist() == [mask(string.z) for _, _, string in expected]
        assert basis.phase.tolist() == [string.phase for _, _, string in expected]
        assert np.array_equal(basis.x, [string.x for _, _, string in expected])
        assert np.array_equal(basis.z, [string.z for _, _, string in expected])

    def test_tables_are_read_only(self):
        basis = graded_basis(jordan_wigner(2))
        for table in (basis.grade, basis.x, basis.z, basis.phase, basis.xmask, basis.zmask):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negative_index(self, n):
        gens = jordan_wigner(n)
        basis = graded_basis(gens)
        assert basis[-1].string == gens.gamma0
        assert basis[-1] == basis[len(basis) - 1]
        assert basis[-len(basis)] == basis[0]
        for r in (len(basis), -len(basis) - 1):
            with pytest.raises(IndexError):
                basis[r]

    @pytest.mark.parametrize("window", [slice(2, 9), slice(None, None, -3), slice(-5, None), slice(7, 2)])
    def test_slice_equals_indexing(self, window):
        basis = graded_basis(jordan_wigner(2))
        expected = [basis[r] for r in range(len(basis))[window]]
        assert basis[window] == expected
        assert list(basis)[window] == expected

    def test_trace_orthogonality(self):
        basis = graded_basis(jordan_wigner(2))
        dense = [to_dense(e.string) for e in basis]
        for i, a in enumerate(dense):
            for j, b in enumerate(dense):
                tr = np.trace(a @ b)
                assert tr == (4.0 if i == j else 0.0)


class TestGradedBasisBudget:
    """The 4**n rows are refused by arithmetic, before any is built."""

    # 256 bytes a row: n = 2 needs 4 KiB and fits, n = 3 needs 16 KiB and does not
    BELOW_N3 = 4**3 * 256 - 1

    def test_graded_basis_is_refused(self, monkeypatch):
        monkeypatch.setattr(clifford, "MEMORY_BUDGET", self.BELOW_N3)
        assert len(graded_basis(jordan_wigner(2))) == 16
        with pytest.raises(CapacityError, match="graded basis at n = 3"):
            graded_basis(jordan_wigner(3))

    def test_expand_and_reconstruct_are_refused(self, monkeypatch):
        gens = jordan_wigner(3)
        rho = random_state(3, 1)
        expansion = expand(rho, gens)
        monkeypatch.setattr(clifford, "MEMORY_BUDGET", self.BELOW_N3)
        with pytest.raises(CapacityError, match="graded basis at n = 3"):
            expand(rho, gens)
        with pytest.raises(CapacityError, match="graded basis at n = 3"):
            expansion.reconstruct(gens)

    def test_n13_is_refused_before_any_index_set(self, monkeypatch):
        # 4**13 rows of 256 bytes are 16 GiB against the 4 GiB budget
        gens = jordan_wigner(13)

        def no_combinations(*args):
            raise AssertionError("an index set was built")

        monkeypatch.setattr(clifford, "combinations", no_combinations)
        with pytest.raises(CapacityError, match="16.0 GiB"):
            graded_basis(gens)


class TestEigenprojectors:
    def test_z_projectors(self):
        p0, p1 = eigenprojectors(from_label("Z"))
        assert np.array_equal(p0, np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(p1, np.diag([0.0, 1.0]).astype(complex))

    def test_x_projectors(self):
        p0, p1 = eigenprojectors(from_label("X"))
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        assert np.allclose(p0, np.outer(plus, plus.conj()), atol=1e-15)
        assert np.allclose(p1, np.outer(minus, minus.conj()), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projector_properties(self, n):
        gens = jordan_wigner(n)
        d = 2**n
        for i in range(2 * n + 1):
            g = gens.extended(i)
            p0, p1 = eigenprojectors(g)
            assert np.allclose(p0 + p1, np.eye(d), atol=1e-15)
            assert np.array_equal(p0 - p1, to_dense(g))
            for p in (p0, p1):
                assert np.allclose(p @ p, p, atol=1e-14)
                assert np.allclose(p, p.conj().T, atol=1e-15)
                assert abs(np.trace(p).real - d / 2) <= 1e-12

    def test_unbiasedness_across_observables(self):
        gens = jordan_wigner(2)
        for i in range(5):
            gi = to_dense(gens.extended(i))
            for j in range(5):
                if i == j:
                    continue
                p0, p1 = eigenprojectors(gens.extended(j))
                assert abs(np.trace(gi @ p0) - np.trace(gi @ p1)) <= 1e-12

    def test_rejects_non_involution(self):
        with pytest.raises(DomainError):
            eigenprojectors(from_label("iX"))
