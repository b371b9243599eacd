"""State expansion, the positivity projection, and the expectation ball."""

import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcert import (
    BallViolationError,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    GradedExpansion,
    GVector,
    ParseError,
    ValidationError,
    eigenprojectors,
    expand,
    extended_expectations,
    from_document,
    from_gvector,
    graded_basis,
    gvector,
    jordan_wigner,
    project_bloch,
    random_pure_states,
    random_state,
    random_state_batch,
    realize,
    to_document,
    vector_expectations,
)
from cliffcert import pauli, states
from cliffcert.clifford import GeneratorSet
from cliffcert.pauli import PauliString, expect, scatter, to_dense
from cliffcert.tolerances import PSD, RECONSTRUCTION

I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def bell_state() -> DensityMatrix:
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix.from_matrix(np.outer(psi, psi.conj()))


def mixed(n: int) -> DensityMatrix:
    d = 2**n
    return DensityMatrix.from_matrix(np.eye(d, dtype=complex) / d)


def with_least_eigenvalue(least: float) -> np.ndarray:
    """A dense unit-trace Hermitian 4 x 4 matrix whose least eigenvalue is ``least``."""
    u, _ = np.linalg.qr(random_pure_states(2, 4, seed=11).T)
    eigs = np.array([least, 0.2, 0.3, 0.5 - least])
    return (u * eigs) @ u.conj().T


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(np.eye(3, dtype=complex) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[1, 0] = bad
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(m)

    @pytest.mark.parametrize("bad", [np.nan, -1e-9, -np.inf, True, "1e-9"])
    @pytest.mark.parametrize("mat, name", [
        (np.diag([2.0, -1.0]), "tol_psd"),  # not positive
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "tol_herm"),  # not Hermitian
        (np.diag([0.5, 0.5]), "tol_tr"),
    ])
    def test_rejects_bad_tolerance(self, mat, name, bad):
        # a NaN tolerance turned its comparison off and let the matrix through
        with pytest.raises(DomainError, match=name):
            DensityMatrix.from_matrix(mat, **{name: bad})

    def test_accepts_tiny_negative_noise(self):
        rho = DensityMatrix.from_matrix(np.diag([1.0 + 1e-12, -1e-12]).astype(complex))
        assert rho.n == 1

    def test_renormalizes_trace_drift(self):
        rho = DensityMatrix.from_matrix((1.0 + 5e-11) * np.eye(2, dtype=complex) / 2)
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-14

    def test_least_eigenvalue_against_psd(self):
        DensityMatrix.from_matrix(with_least_eigenvalue(-0.5 * PSD))
        with pytest.raises(ValidationError, match=r"minimum eigenvalue -2\.000e-09 below -1e-09"):
            DensityMatrix.from_matrix(with_least_eigenvalue(-2.0 * PSD))

    def test_output_is_read_only_normalized_input(self):
        m = (1.0 + 5e-11) * with_least_eigenvalue(0.1)
        rho = DensityMatrix.from_matrix(m)
        assert not rho.mat.flags.writeable and not np.shares_memory(rho.mat, m)
        assert np.array_equal(rho.mat, m / np.trace(m).real)

    def test_accepted_states_need_no_eigensolver(self, monkeypatch):
        # rho + PSD * 1 factors for each, so positivity is decided without eigvalsh
        gens = jordan_wigner(3)
        g = np.zeros(7)
        g[[0, 2, 5]] = (0.6, 0.48, 0.64)  # a unit vector: a singular state on the sphere
        psi = random_pure_states(3, 1, seed=2)[0]

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        for rho in (DensityMatrix.from_matrix(with_least_eigenvalue(-0.5 * PSD)),
                    DensityMatrix.from_matrix(np.outer(psi, psi.conj())),
                    from_gvector(GVector(3, g), gens),
                    project_bloch(bell_state(), jordan_wigner(2))):
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-14


class TestExpand:
    def test_maximally_mixed(self):
        gens = jordan_wigner(2)
        exp = expand(mixed(2), gens)
        assert exp.coeff(()) == pytest.approx(1.0, abs=1e-14)
        for indices, value in exp.coeffs.items():
            if indices:
                assert abs(value) <= 1e-14

    def test_qubit_ground_state(self):
        # with the pseudoscalar fixed to -Z, |0><0| has only that coefficient
        gens = jordan_wigner(1)
        rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))
        exp = expand(rho, gens)
        assert exp.coeff((1,)) == pytest.approx(0.0, abs=1e-14)
        assert exp.coeff((2,)) == pytest.approx(0.0, abs=1e-14)
        assert exp.coeff((1, 2)) == pytest.approx(-1.0, abs=1e-14)

    def test_bell_coefficients(self):
        gens = jordan_wigner(2)
        exp = expand(bell_state(), gens)
        for j in range(1, 5):
            assert exp.coeff((j,)) == pytest.approx(0.0, abs=1e-12)
        assert exp.coeff((1, 2, 3, 4)) == pytest.approx(1.0, abs=1e-12)
        # elements {1,4} and {2,3} render to Y(x)Y and -X(x)X, which carry
        # the Bell correlations Tr(rho Y(x)Y) = -1 and Tr(rho X(x)X) = +1
        assert exp.coeff((1, 4)) == pytest.approx(-1.0, abs=1e-12)
        assert exp.coeff((2, 3)) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reconstruction(self, n):
        gens = jordan_wigner(n)
        rho = random_state(n, seed=17 + n)
        exp = expand(rho, gens)
        assert np.max(np.abs(exp.reconstruct(gens) - rho.mat)) <= 1e-12


def expand_by_expectations(rho, gens):
    """Reference expansion: one ``Tr(rho E)`` per basis string."""
    return {e.indices: expect(e.string, rho.mat) for e in graded_basis(gens)}


def reconstruct_by_scatter(exp, gens):
    """Reference reconstruction: the dense sum of all 4**n strings."""
    basis = graded_basis(gens)
    coeffs = np.array([exp.coeffs[e.indices] for e in basis])
    return scatter(coeffs, [e.string for e in basis]) / 2**gens.n


def masks_from_strings(gens):
    """Index sets, integer masks (qubit 0 the top bit) and phases read off built strings."""
    elems = list(graded_basis(gens))
    weights = 1 << np.arange(gens.n - 1, -1, -1)
    x = np.array([e.string.x for e in elems]) @ weights
    z = np.array([e.string.z for e in elems]) @ weights
    return [e.indices for e in elems], x, z, np.array([e.string.phase for e in elems])


def expand_by_string_masks(rho, gens):
    """The transform of :func:`expand`, on masks taken from materialized strings."""
    indices, xmask, zmask, phase = masks_from_strings(gens)
    cols = np.arange(rho.dim)
    wht = states._walsh_hadamard(rho.mat[cols, cols ^ cols[:, None]])
    vals = states._I_POW[phase] * wht[xmask, zmask]
    return dict(zip(indices, vals.real.tolist()))


def reconstruct_by_string_masks(exp, gens):
    """The transform of :meth:`GradedExpansion.reconstruct`, on string masks."""
    indices, xmask, zmask, phase = masks_from_strings(gens)
    d = 2**gens.n
    grid = np.zeros((d, d), dtype=complex)
    grid[xmask, zmask] = states._I_POW[phase] * np.array([exp.coeffs[s] for s in indices])
    cols = np.arange(d)
    out = np.empty((d, d), dtype=complex)
    out[cols ^ cols[:, None], cols] = states._walsh_hadamard(grid)
    return out / d


class TestTransforms:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(["mixed-hs", "pure-haar"]))
    def test_expand_matches_expectations(self, n, seed, ensemble):
        gens = jordan_wigner(n)
        rho = random_state(n, seed, ensemble)
        exp = expand(rho, gens)
        ref = expand_by_expectations(rho, gens)
        assert list(exp.coeffs) == list(ref)
        for indices, val in ref.items():
            assert abs(val.imag) <= 1e-14
            assert abs(exp.coeffs[indices] - val.real) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_reconstruct_matches_scatter(self, n, seed):
        # arbitrary real coefficients, not only those of a state
        gens = jordan_wigner(n)
        vals = np.random.default_rng(seed).uniform(-1.0, 1.0, 4**n)
        exp = GradedExpansion(n, {e.indices: float(v) for e, v in zip(graded_basis(gens), vals)})
        got = exp.reconstruct(gens)
        assert got.shape == (2**n, 2**n)
        assert np.max(np.abs(got - reconstruct_by_scatter(exp, gens))) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_builds_no_strings(self, n, monkeypatch):
        gens = jordan_wigner(n)
        rho = random_state(n, seed=40 + n)

        def refuse(self, *args, **kwargs):
            raise AssertionError("PauliString built")

        monkeypatch.setattr(PauliString, "__init__", refuse)
        back = expand(rho, gens).reconstruct(gens)
        assert np.max(np.abs(back - rho.mat)) <= RECONSTRUCTION

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bits_equal_string_mask_path(self, n):
        gens = jordan_wigner(n)
        rho = random_state(n, seed=60 + n)
        exp = expand(rho, gens)
        ref = expand_by_string_masks(rho, gens)
        assert list(exp.coeffs) == list(ref)
        assert np.array_equal(list(exp.coeffs.values()), list(ref.values()))
        assert np.array_equal(exp.reconstruct(gens), reconstruct_by_string_masks(exp, gens))

    def test_round_trip_n7(self):
        gens = jordan_wigner(7)
        rho = random_state(7, seed=3)
        assert np.max(np.abs(expand(rho, gens).reconstruct(gens) - rho.mat)) <= RECONSTRUCTION

    def test_anti_hermitian_part_rejected(self):
        # built directly, so from_matrix's Hermiticity check never ran
        rho = DensityMatrix(1, np.eye(2, dtype=complex) / 2 + 0.1j * X)
        with pytest.raises(ValidationError, match=r"\(1,\)"):
            expand(rho, jordan_wigner(1))

    def test_expand_rejects_other_qubit_count(self):
        with pytest.raises(DimensionMismatchError):
            expand(mixed(2), jordan_wigner(1))
        with pytest.raises(DimensionMismatchError):
            expand(mixed(1), jordan_wigner(2))

    def test_reconstruct_rejects_other_qubit_count(self):
        exp = expand(mixed(2), jordan_wigner(2))
        with pytest.raises(DimensionMismatchError):
            exp.reconstruct(jordan_wigner(1))
        with pytest.raises(DimensionMismatchError):
            exp.reconstruct(jordan_wigner(3))

    def test_reconstruct_names_missing_index_set(self):
        with pytest.raises(ValidationError, match=r"index set \(\)"):
            GradedExpansion(1, {}).reconstruct(jordan_wigner(1))
        coeffs = dict(expand(mixed(2), jordan_wigner(2)).coeffs)
        del coeffs[(1, 3)], coeffs[(2,)]
        # grades ascend in the basis, so (2,) is the first missing
        with pytest.raises(ValidationError, match=r"index set \(2,\)"):
            GradedExpansion(2, coeffs).reconstruct(jordan_wigner(2))

    @pytest.mark.parametrize("indices", [(2, 1), (9,), (1, 1), (0,), (1, 2, 3, 4, 5)])
    def test_coeff_outside_basis(self, indices):
        exp = expand(mixed(2), jordan_wigner(2))
        with pytest.raises(DomainError, match="distinct ascending indices in 1..4"):
            exp.coeff(indices)


class TestProjection:
    def test_qubit_states_unchanged(self):
        gens = jordan_wigner(1)
        for seed in range(5):
            rho = random_state(1, seed=seed)
            assert np.max(np.abs(project_bloch(rho, gens).mat - rho.mat)) <= 1e-12

    def test_bell_projection(self):
        gens = jordan_wigner(2)
        proj = project_bloch(bell_state(), gens)
        expected = (np.eye(4) + np.kron(Z, Z)) / 4.0
        assert np.max(np.abs(proj.mat - expected)) <= 1e-12
        eigs = np.sort(np.linalg.eigvalsh(proj.mat))
        assert np.allclose(eigs, [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_positivity_on_1000_random_states(self):
        gens = jordan_wigner(3)
        mats = random_state_batch(3, 1000, seed=23, ensemble="mixed-hs")
        g = extended_expectations(mats, gens)
        stack = gens.dense_extended
        proj = (np.eye(8) + np.einsum("sk,kij->sij", g, stack)) / 8.0
        assert np.linalg.eigvalsh(proj)[:, 0].min() >= -1e-9

    def test_idempotent_trace_preserving(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=4)
        once = project_bloch(rho, gens)
        twice = project_bloch(once, gens)
        assert np.max(np.abs(twice.mat - once.mat)) <= 1e-8
        assert abs(np.trace(once.mat) - 1.0) <= 1e-12

    def test_unital(self):
        gens = jordan_wigner(2)
        assert np.max(np.abs(project_bloch(mixed(2), gens).mat - mixed(2).mat)) <= 1e-14

    def test_preserves_expectations(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=9)
        before = gvector(rho, gens).values
        after = gvector(project_bloch(rho, gens), gens).values
        assert np.max(np.abs(before - after)) <= 1e-12


class TestGVector:
    def test_mixed_is_zero(self):
        gens = jordan_wigner(2)
        for k in range(1, 6):
            g = gvector(mixed(2), gens, k)
            assert g.norm_squared <= 1e-20

    def test_bell_k5(self):
        gens = jordan_wigner(2)
        g = gvector(bell_state(), gens, 5)
        assert np.allclose(g.values, [1, 0, 0, 0, 0], atol=1e-12)
        assert g.norm_squared == pytest.approx(1.0, abs=1e-12)

    def test_k_range_errors(self):
        gens = jordan_wigner(2)
        with pytest.raises(DomainError):
            gvector(mixed(2), gens, 0)
        with pytest.raises(DomainError):
            gvector(mixed(2), gens, 6)

    def test_outcome_probability_relation(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=31)
        g = gvector(rho, gens).values
        for i in range(5):
            p0, _ = eigenprojectors(gens.extended(i))
            prob = np.trace(p0 @ rho.mat).real
            assert prob == pytest.approx((1.0 + g[i]) / 2.0, abs=1e-12)

    def test_ball_bound_on_random_states(self):
        gens = jordan_wigner(2)
        mats = random_state_batch(2, 1000, seed=8, ensemble="mixed-hs")
        g = extended_expectations(mats, gens)
        assert (g * g).sum(axis=1).max() <= 1.0 + 1e-9


class TestFromGVector:
    def test_zero_gives_mixed(self):
        gens = jordan_wigner(2)
        rho = from_gvector(GVector(2, np.zeros(5)), gens)
        assert np.max(np.abs(rho.mat - np.eye(4) / 4.0)) <= 1e-15

    def test_plus_state(self):
        gens = jordan_wigner(1)
        rho = from_gvector(GVector(1, np.array([0.0, 1.0, 0.0])), gens)
        assert np.max(np.abs(rho.mat - (I2 + X) / 2.0)) <= 1e-15

    def test_boundary_spectrum(self):
        # unit-norm coefficients force eigenvalues {0, 2/d}
        gens = jordan_wigner(2)
        rng = np.random.default_rng(14)
        for _ in range(20):
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            rho = from_gvector(GVector(2, v), gens)
            eigs = np.sort(np.linalg.eigvalsh(rho.mat))
            assert np.allclose(eigs, [0, 0, 0.5, 0.5], atol=1e-12)

    def test_ball_violation(self):
        gens = jordan_wigner(1)
        with pytest.raises(BallViolationError):
            from_gvector(GVector(1, np.array([0.8, 0.8, 0.0])), gens)

    def test_wrong_n(self):
        with pytest.raises(DomainError):
            from_gvector(GVector(1, np.zeros(3)), jordan_wigner(2))

    def test_nan_is_refused_before_the_matrix_is_built(self, monkeypatch):
        # NaN > 1 + tol_psd is false, so NaN passed the ball test and the dense
        # matrix failed validation as non-finite; realize refuses it as outside
        def no_matrix(*args):
            raise AssertionError("from_gvector built the matrix")

        monkeypatch.setattr(states, "matrix_from_expectations", no_matrix)
        with pytest.raises(BallViolationError):
            from_gvector(GVector(1, np.array([np.nan, 0.0, 0.0])), jordan_wigner(1))

    @pytest.mark.parametrize("bad", [np.nan, -1e-9])
    def test_rejects_bad_tolerance(self, bad):
        # with tol_psd = NaN, (1 + 3 G_1)/2 came back with eigenvalue -1
        with pytest.raises(DomainError, match="tol_psd"):
            from_gvector(GVector(1, np.array([0.0, 3.0, 0.0])), jordan_wigner(1), tol_psd=bad)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=5, max_size=5))
    def test_round_trip_on_ball(self, raw):
        gens = jordan_wigner(2)
        v = np.array(raw)
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v = v / norm
        rho = from_gvector(GVector(2, v), gens)
        back = gvector(rho, gens).values
        assert np.max(np.abs(back - v)) <= 1e-12
        again = from_gvector(GVector(2, back), gens)
        assert np.max(np.abs(again.mat - rho.mat)) <= 1e-8


def ball_points(n, rng):
    """g = 0, +-e_0 (the pseudoscalar vertex), e_1, and 50 random unit directions,
    each at radius 1, at 1 - 1e-12 and at a random radius."""
    size = 2 * n + 1
    eye = np.eye(size)
    points = [np.zeros(size), eye[0], -eye[0], eye[1]]
    for _ in range(50):
        u = rng.standard_normal(size)
        u /= np.linalg.norm(u)
        points += [u, (1.0 - 1e-12) * u, rng.random() * u]
    return points


class TestRealize:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_mixture_has_the_expectation_vector(self, n):
        gens = jordan_wigner(n)
        for g in ball_points(n, np.random.default_rng(n)):
            psi, weights = realize(GVector(n, g), gens)
            assert psi.shape == (2, 2**n)
            assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) <= 1e-15
            assert np.count_nonzero(psi, axis=1).max() <= 2 * n + 2
            assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-15
            assert np.max(np.abs(weights @ vector_expectations(psi, gens) - g)) <= 1e-14

    def test_clamps_the_radius_in_the_weights(self):
        g = np.array([0.0, 1.0 + PSD / 4, 0.0])
        psi, weights = realize(GVector(1, g), jordan_wigner(1))
        assert weights.tolist() == [1.0, 0.0]
        assert np.max(np.abs(vector_expectations(psi[0], jordan_wigner(1)) - [0, 1, 0])) <= 1e-15

    @pytest.mark.parametrize("bad", [[0.8, 0.8, 0.0], [0.0, 1.0 + 4 * PSD, 0.0],
                                     [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
    def test_refuses_points_outside_the_ball(self, bad):
        with pytest.raises(BallViolationError):
            realize(GVector(1, np.array(bad)), jordan_wigner(1))

    def test_refuses_another_n(self):
        with pytest.raises(DomainError):
            realize(GVector(1, np.zeros(3)), jordan_wigner(2))


def realize_by_tables(g, gens):
    """The two-vector realization read from the basis-action tables, kept as the oracle."""
    norm_sq = g.norm_squared
    r = np.sqrt(norm_sq)
    c = g.values / r if r > 0.0 else np.eye(g.values.size)[0]
    diag = sum((cj * act.phase.real for cj, act in zip(c, gens.actions) if act.perm[0] == 0),
               np.zeros(2**gens.n))
    psi = np.zeros((2, 2**gens.n), dtype=complex)
    for row, (sign, x) in enumerate(((1.0, np.argmax(diag)), (-1.0, np.argmin(diag)))):
        psi[row, x] = 1.0
        for cj, act in zip(c, gens.actions):
            psi[row, act.perm[x]] += sign * cj * act.phase[x]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def hermitian_strings(rng, n, count):
    """``count`` random Hermitian strings on n qubits: phase = overlap + 0 or 2."""
    x = rng.integers(0, 2, (count, n), dtype=np.uint8)
    z = rng.integers(0, 2, (count, n), dtype=np.uint8)
    phase = (x & z).sum(axis=1) + 2 * rng.integers(0, 2, count)
    return [PauliString(n, xs, zs, int(p)) for xs, zs, p in zip(x, z, phase)]


def string_features(p):
    """Which kernel cases a string reaches: Y factors, X bits, Z bits past the pivot."""
    xs, zs = np.flatnonzero(p.x), np.flatnonzero(p.z)
    pivot = xs[-1] if xs.size else None
    return {"two Y": np.count_nonzero(p.x & p.z) >= 2, "two X": xs.size >= 2,
            "diagonal": pivot is None,
            "Z both sides": pivot is not None and (zs < pivot).any() and (zs > pivot).any()}


class TestStringKernel:
    """The X-mask pairing kernels against dense products of random strings."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_products_on_random_strings(self, n):
        rng = np.random.default_rng(40 + n)
        seen = dict.fromkeys(string_features(PauliString.identity(n)), 0)
        for _ in range(30):
            strings = hermitian_strings(rng, n, 2 * n + 1)
            for p in strings:
                for name, hit in string_features(p).items():
                    seen[name] += hit
            gens = GeneratorSet(n, strings[1:], strings[0])
            psi = rng.standard_normal((3, 2, 2**n)) + 1j * rng.standard_normal((3, 2, 2**n))
            psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
            dense = np.stack([to_dense(p) for p in strings])
            want = np.einsum("...i,kij,...j->...k", psi.conj(), dense, psi).real
            for kernel in (vector_expectations, states.outcome_expectations):
                got = kernel(psi, gens)
                assert got.shape == (3, 2, 2 * n + 1)
                assert np.max(np.abs(got - want)) <= 1e-15, kernel.__name__
                assert np.max(np.abs(kernel(psi[1, 0], gens) - want[1, 0])) <= 1e-15
        if n >= 3:
            assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("n", range(1, 9))
    def test_jordan_wigner_pairs_without_gathering(self, n):
        pairs = jordan_wigner(n).pairings
        assert len(pairs) == n + 1
        assert all(pair.partner is None for pair in pairs)
        assert [len(pair.signs) for pair in pairs] == [1] * (n + 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_outcomes_are_exact_at_eigenvectors(self, n):
        # (e_x +- G_j e_x)/norm is an eigenvector of G_j; its paired entries agree
        # up to the exact phase of G_j, so one eigenspace weight is exactly 0
        gens = jordan_wigner(n)
        for j, sign in itertools.product(range(2 * n + 1), (1.0, -1.0)):
            g = np.zeros(2 * n + 1)
            g[j] = sign
            psi, weights = realize(GVector(n, g), gens)
            assert weights.tolist() == [1.0, 0.0]
            assert states.outcome_expectations(psi, gens)[0, j] == sign

    def test_outcomes_refuse_a_vector_of_no_state(self):
        # a zero vector divided 0 by 0, which warned; the index counts over the
        # leading axes in order
        gens = jordan_wigner(2)
        for bad in (0.0, np.nan, np.inf):
            psi = np.ones((2, 3, 4), dtype=complex)
            psi[1, 2] = 0.0 if bad == 0.0 else [1.0, bad, 0.0, 0.0]
            with pytest.raises(DomainError, match="vector 5 "):
                states.outcome_expectations(psi, gens)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_state_vector_paths_read_no_table(self, n, monkeypatch):
        def no_table(*args):
            raise AssertionError("a state-vector path read a basis-action table")

        monkeypatch.setattr(pauli, "action", no_table)
        gens = jordan_wigner(n)
        psi = random_pure_states(n, 5, n)
        vector_expectations(psi, gens)
        states.outcome_expectations(psi, gens)
        for g in ball_points(n, np.random.default_rng(n))[:20]:
            realize(GVector(n, g), gens)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_realize_bits_equal_the_table_oracle(self, n):
        gens = jordan_wigner(n)
        for g in ball_points(n, np.random.default_rng(n)):
            psi, _ = realize(GVector(n, g), gens)
            assert psi.tobytes() == realize_by_tables(GVector(n, g), gens).tobytes()


def hs_by_products(w):
    """``W W^H / Tr`` of stacked factors, kept as the oracle of :func:`factor_expectations`."""
    rho = w @ w.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


class TestFactorKernel:
    """States measured on their factors against the dense ``W W^H`` they stand for."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_states_on_jordan_wigner_and_random_strings(self, n):
        rng = np.random.default_rng(70 + n)
        d = 2**n
        sets = [jordan_wigner(n)]
        for _ in range(10):
            strings = hermitian_strings(rng, n, 2 * n + 1)
            sets.append(GeneratorSet(n, strings[1:], strings[0]))
        for gens in sets:
            for r in (1, 3, d):
                w = rng.standard_normal((2, 3, d, r)) + 1j * rng.standard_normal((2, 3, d, r))
                got = states.factor_expectations(w, gens)
                assert got.shape == (2, 3, 2 * n + 1)
                want = extended_expectations(hs_by_products(w), gens)
                assert np.max(np.abs(got - want)) <= 1e-15, (gens, r)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_single_column_is_a_state_vector(self, n):
        gens = jordan_wigner(n)
        psi = random_pure_states(n, 40, 3 + n)
        got = states.factor_expectations(psi[..., None], gens)
        assert np.max(np.abs(got - vector_expectations(psi, gens))) <= 1e-15

    def test_refuses_a_factor_of_no_state(self):
        # a zero factor divided 0 by 0 into a NaN row, and an infinite one warned
        # in the pair sums; 4097 factors at n = 2 span two chunks, so the index
        # counts from the first factor
        gens = jordan_wigner(2)
        for bad in (0.0, np.nan, np.inf):
            w = np.ones((4097, 4, 2), dtype=complex)
            w[4096] = bad
            with pytest.raises(DomainError, match="factor 4096 "):
                states.factor_expectations(w, gens)

    def test_rejects_factors_of_another_shape(self):
        gens = jordan_wigner(2)
        for shape in ((4,), (8, 2), (3, 2, 4), (4, 0)):
            with pytest.raises(DimensionMismatchError):
                states.factor_expectations(np.ones(shape), gens)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ginibre_chunks_are_one_stream(self, n):
        # one interleaved draw, each entry's real and imaginary parts consecutive,
        # whether the chunks are views of a caller's stack or new arrays
        d = 2**n
        for shape, (count, step) in itertools.product(((d, d), (d,)),
                                                      ((1, 1), (5, 2), (7, 3), (7, 16))):
            want = whole_draw(9, count, shape)
            got = np.concatenate(list(states._ginibre_chunks(shape, count, 9, step)))
            assert got.tobytes() == want.tobytes()
            into = np.empty((count, *shape), dtype=complex)
            for gin in states._ginibre_chunks(shape, count, 9, step, into):
                assert np.shares_memory(gin, into)
            assert into.tobytes() == want.tobytes()

    def test_ginibre_chunks_keep_no_chunk_the_caller_dropped(self):
        # a factor slice is dead once measured, so the generator must not hold it
        chunks = states._ginibre_chunks((8, 8), 4, 9, 2)
        chunk = next(chunks)
        ref = weakref.ref(chunk)
        del chunk
        assert ref() is None
        assert next(chunks).shape == (2, 8, 8)


def whole_draw(seed, count, shape):
    """``count`` complex Gaussian arrays of ``shape`` in one interleaved draw, the
    real and imaginary parts of each entry consecutive normals."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, *shape, 2)).view(complex)[..., 0]


def whole_hs_batch(n, count, seed):
    """The Hilbert-Schmidt batch built on whole (count, d, d) arrays, kept as the oracle."""
    d = 2**n
    gin = whole_draw(seed, count, (d, d))
    w = gin @ gin.conj().swapaxes(-1, -2)
    return w / np.trace(w, axis1=1, axis2=2).real[:, None, None]


def einsum_pure_batch(n, count, seed):
    """The pure-haar batch as outer products built by einsum, kept as the oracle."""
    psi = whole_draw(seed, count, (2**n,))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.einsum("si,sj->sij", psi, psi.conj())


class TestSampling:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_pure_haar_equals_einsum_batch(self, n):
        for count in (1, 5, 300):
            batch = random_state_batch(n, count, 3, "pure-haar")
            assert batch.tobytes() == einsum_pure_batch(n, count, 3).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8, 10, 12])
    def test_pure_states_keep_the_whole_draw_bytes(self, n):
        # one interleaved draw, taken a chunk at a time into one array: at
        # n = 10 and 12 the 300 rows span several chunks
        for count in (0, 1, 7, 300):
            want = whole_draw(11, count, (2**n,))
            want /= np.linalg.norm(want, axis=1, keepdims=True)
            assert random_pure_states(n, count, 11).tobytes() == want.tobytes()

    def test_pure_states_hold_little_beside_their_output(self):
        # 16 MiB of vectors at n = 10 plus one chunk's normals and norm (1.13 traced);
        # the sum of two whole draws peaked at 2.0
        out = 1000 * 2**10 * 16
        tracemalloc.start()
        try:
            random_pure_states(10, 1000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * out

    def test_vector_expectations_reject_other_dimension(self):
        psi = random_pure_states(3, 4, 1)
        with pytest.raises(DimensionMismatchError):
            vector_expectations(psi, jordan_wigner(2))
        with pytest.raises(DimensionMismatchError):
            vector_expectations(psi, jordan_wigner(4))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixed_hs_equals_whole_batch(self, n):
        chunk = states._block_rows(16 * 4**n)
        for count in (5, chunk, 2 * chunk + 5):
            assert np.array_equal(random_state_batch(n, count, 3), whole_hs_batch(n, count, 3))

    def test_mixed_hs_holds_one_stack_and_a_draw(self):
        # the returned stack, plus one float draw of half its size
        stack = 256 * 64**2 * 16
        tracemalloc.start()
        try:
            random_state_batch(6, 256, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stack

    def test_mixed_hs_keeps_the_whole_draw_bytes(self):
        # at n = 8 a chunk is 2 states, so every count past 2 spans several chunks
        for n in (*range(1, 7), 8):
            chunk = states._block_rows(16 * 4**n)
            for count in (0, 1, 7, chunk, chunk + 1, 3 * chunk - 2):
                got = random_state_batch(n, count, 5)
                assert got.tobytes() == whole_hs_batch(n, count, 5).tobytes(), (n, count)

    def test_mixed_hs_draws_no_whole_float_stack(self):
        # the stack plus three 32-state chunks, 1.375 stacks; a whole float
        # draw of the real or imaginary parts would add half a stack
        stack = 256 * 64**2 * 16
        tracemalloc.start()
        try:
            random_state_batch(6, 256, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.45 * stack
        assert peak <= states._hs_peak_bytes(6, 256) + 2**16

    def test_mixed_hs_holds_three_block_chunks_beside_the_stack(self):
        # 20 states at n = 8: the stack plus three 2-state chunks (26 MiB); a floor
        # of 16 states a chunk peaked at 52 MiB with the same bytes
        random_state_batch(1, 1, 3)  # numpy's first-call allocations, made before the trace
        tracemalloc.start()
        try:
            random_state_batch(8, 20, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 4**8 * 16 + 2**16
        assert states._hs_peak_bytes(8, 20) == 26 * 4**8 * 16

    @pytest.mark.parametrize("seed", [True, False, -1, 1.5, "1", None, np.float64(2.0),
                                      np.random.default_rng(1)])
    def test_samplers_refuse_a_malformed_seed(self, seed):
        for ensemble in ("pure-haar", "mixed-hs"):
            with pytest.raises(DomainError, match="seed"):
                random_state_batch(2, 3, seed, ensemble)
            with pytest.raises(DomainError, match="seed"):
                random_state(2, seed, ensemble)
        with pytest.raises(DomainError, match="seed"):
            random_pure_states(2, 3, seed)

    def test_samplers_take_integer_seeds_and_seed_sequences(self):
        for ensemble in ("pure-haar", "mixed-hs"):
            want = random_state_batch(2, 3, 7, ensemble).tobytes()
            for seed in (np.int64(7), np.uint8(7)):
                assert random_state_batch(2, 3, seed, ensemble).tobytes() == want
            seq = np.random.SeedSequence(7).spawn(1)[0]
            fresh = np.random.SeedSequence(7).spawn(1)[0]
            assert (random_state_batch(2, 3, seq, ensemble).tobytes()
                    == random_state_batch(2, 3, fresh, ensemble).tobytes())
        assert random_pure_states(2, 3, 0).shape == (3, 4)

    def test_pure_states_are_rank_one(self):
        mats = random_state_batch(2, 20, seed=2, ensemble="pure-haar")
        eigs = np.linalg.eigvalsh(mats)
        assert np.max(np.abs(eigs[:, -1] - 1.0)) <= 1e-12
        assert np.max(np.abs(eigs[:, :-1])) <= 1e-12

    def test_mixed_trace_one(self):
        mats = random_state_batch(3, 20, seed=2, ensemble="mixed-hs")
        assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)) <= 1e-12

    def test_deterministic(self):
        a = random_state(2, seed=99).mat
        b = random_state(2, seed=99).mat
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, count", [(2, -1), (2, 2.0), (2, True), (2, "3"), (0, 1),
                                          (15, 1), (-1, 1), (2.0, 1), (True, 1)])
    def test_malformed_sizes_are_domain_errors(self, n, count):
        # a negative count reached numpy as "negative dimensions", a float one as a TypeError
        for ensemble in ("pure-haar", "mixed-hs"):
            with pytest.raises(DomainError):
                random_state_batch(n, count, 1, ensemble)
        with pytest.raises(DomainError):
            random_pure_states(n, count, 1)

    def test_zero_count_and_numpy_integer_sizes(self):
        assert random_pure_states(2, 0, 1).shape == (0, 4)
        for ensemble in ("pure-haar", "mixed-hs"):
            assert random_state_batch(2, 0, 1, ensemble).shape == (0, 4, 4)
            got = random_state_batch(np.int64(2), np.uint8(3), 1, ensemble)
            assert got.tobytes() == random_state_batch(2, 3, 1, ensemble).tobytes()

    def test_unknown_ensemble(self):
        with pytest.raises(DomainError):
            random_state_batch(1, 1, 0, ensemble="thermal")


class TestDocuments:
    def test_round_trip(self):
        rho = random_state(2, seed=5)
        back = from_document(to_document(rho))
        assert back.n == 2
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-15

    def test_document_shape(self):
        doc = to_document(random_state(1, seed=1))
        import json

        parsed = json.loads(doc)
        assert parsed["n"] == 1
        assert len(parsed["matrix"]) == 2
        assert len(parsed["matrix"][0]) == 2
        assert len(parsed["matrix"][0][0]) == 2

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            from_document("not json")
        with pytest.raises(ParseError):
            from_document('{"n": 1, "matrix": [[[1,0]]]}')

    @pytest.mark.parametrize("n", [1.5, 2.0, 0, 15, True, "2", None])
    def test_bad_qubit_count(self, n):
        with pytest.raises(ParseError):
            from_document(json.dumps({"n": n, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}))

    @pytest.mark.parametrize("cell", ["10", [1, 0, 0], [1], ["1", "0"], [True, 0], None])
    def test_bad_cell(self, cell):
        rows = [[cell, [0, 0]], [[0, 0], [0.5, 0]]]
        with pytest.raises(ParseError):
            from_document(json.dumps({"n": 1, "matrix": rows}))

    @pytest.mark.parametrize("matrix", [[[[1, 0]]], {"0": []}, [[[0.5, 0], [0, 0]], 3]])
    def test_bad_rows(self, matrix):
        with pytest.raises(ParseError):
            from_document(json.dumps({"n": 1, "matrix": matrix}))

    def test_row_count_checked_before_allocating(self):
        # a 2**10 x 2**10 complex buffer would take 16 MiB
        text = json.dumps({"n": 10, "matrix": [[[1, 0]]]})
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                from_document(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
