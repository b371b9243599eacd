"""Euler decomposition, rotor lifts, flips, and the axis reduction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffcert import (
    CapacityError,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    GVector,
    OrientationError,
    OrthoTransform,
    conjugation_residual,
    euler_decompose,
    expand,
    flip_unitary,
    from_gvector,
    jordan_wigner,
    lift,
    plane_rotor,
    project_bloch,
    random_state,
    random_state_batch,
    recompose,
    reduce_to_axis,
    rotation_matrix,
    to_dense,
)
from cliffcert import rotors, states
from cliffcert.rotors import _rotor_direct


def random_orthogonal(rng, size, det_sign=None):
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if det_sign is not None and np.sign(np.linalg.det(q)) != det_sign:
        q[:, 0] = -q[:, 0]
    return q


class TestEuler:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            euler_decompose(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_nan(self):
        # a NaN residual compares False against any tolerance
        nan_rotation = rotation_matrix(3, 1, 2, 0.3)
        nan_rotation[2, 0] = np.nan
        with pytest.raises(DomainError):
            OrthoTransform(nan_rotation)
        with pytest.raises(DomainError):
            euler_decompose(nan_rotation)
        with pytest.raises(DomainError):
            lift(np.full((3, 3), np.nan), jordan_wigner(1))

    def test_rejects_empty_transform(self):
        # a 0 x 0 residual reached numpy's zero-size reduction as a bare ValueError
        empty, gens = np.zeros((0, 0)), jordan_wigner(1)
        for call in (lambda: OrthoTransform(empty), lambda: euler_decompose(empty),
                     lambda: lift(empty, gens), lambda: conjugation_residual(np.eye(2), empty, gens)):
            with pytest.raises(DomainError, match="non-empty square matrix"):
                call()

    def test_rotation_axes_out_of_range(self):
        for j, k in ((1, 4), (0, 2), (3, -1)):
            with pytest.raises(DomainError, match="out of range"):
                rotation_matrix(3, j, k, 0.2)

    def test_rotation_axes_must_be_integers(self):
        # a fractional axis once reached numpy's indexing as a bare IndexError
        for j, k in ((1.5, 2), (1, 2.0), (True, 2), (3, False)):
            with pytest.raises(DomainError, match="must be an integer"):
                rotation_matrix(3, j, k, 0.1)
        got = rotation_matrix(3, np.int64(1), np.uint8(3), 0.1)
        assert got.tobytes() == rotation_matrix(3, 1, 3, 0.1).tobytes()

    @pytest.mark.parametrize("size", [2.5, 2.0, True, 1, "3"])
    def test_rotation_size_must_be_an_integer_of_at_least_2(self, size):
        # 2.5 reached np.eye as a bare TypeError
        with pytest.raises(DomainError):
            rotation_matrix(size, 1, 2, 0.1)

    def test_identity(self):
        fact = euler_decompose(np.eye(4))
        assert fact.reflection_flag == 1
        assert all(theta == 0.0 for _, _, theta in fact.angles)

    def test_2x2_rotation(self):
        theta = 0.7
        fact = euler_decompose(rotation_matrix(2, 1, 2, theta))
        assert fact.reflection_flag == 1
        assert fact.angles == ((1, 2, pytest.approx(theta, abs=1e-15)),)

    def test_angles_in_range_and_ordered(self):
        rng = np.random.default_rng(0)
        fact = euler_decompose(random_orthogonal(rng, 5))
        pairs = [(j, k) for j, k, _ in fact.angles]
        assert pairs == sorted(pairs)
        assert all(0.0 <= theta < 2 * math.pi for _, _, theta in fact.angles)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            size = int(rng.integers(2, 8))
            det = 1 if rng.random() < 0.5 else -1
            t = random_orthogonal(rng, size, det)
            fact = euler_decompose(t)
            assert fact.reflection_flag == det
            assert np.max(np.abs(recompose(fact) - t)) <= 1e-10

    def test_det_sign(self):
        rng = np.random.default_rng(1)
        t = random_orthogonal(rng, 4, det_sign=-1)
        assert OrthoTransform(t).det_sign == -1


class TestPlaneRotor:
    def test_theta_zero_fixes_everything(self):
        gens = jordan_wigner(2)
        u = plane_rotor(gens, 1, 3, 0.0)
        for i in range(5):
            d = to_dense(gens.extended(i))
            assert np.max(np.abs(u @ d @ u.conj().T - d)) <= 1e-14

    def test_quarter_turn_x_to_y(self):
        gens = jordan_wigner(1)
        u = plane_rotor(gens, 1, 2, math.pi / 2)
        x, y = to_dense(gens.gammas[0]), to_dense(gens.gammas[1])
        assert np.max(np.abs(u @ x @ u.conj().T - y)) <= 1e-14
        assert np.max(np.abs(u @ y @ u.conj().T + x)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_contract_on_random_extended_pairs(self, n):
        gens = jordan_wigner(n)
        size = 2 * n + 1
        rng = np.random.default_rng(42 + n)
        for _ in range(25):
            j, k = rng.choice(size, size=2, replace=False)
            theta = float(rng.uniform(0, 2 * math.pi))
            u = plane_rotor(gens, int(j), int(k), theta)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2**n))) <= 1e-12
            dj = to_dense(gens.extended(int(j)))
            dk = to_dense(gens.extended(int(k)))
            c, s = math.cos(theta), math.sin(theta)
            assert np.max(np.abs(u @ dj @ u.conj().T - (c * dj + s * dk))) <= 1e-12
            assert np.max(np.abs(u @ dk @ u.conj().T - (-s * dj + c * dk))) <= 1e-12
            for i in range(size):
                if i in (j, k):
                    continue
                di = to_dense(gens.extended(i))
                assert np.max(np.abs(u @ di @ u.conj().T - di)) <= 1e-12

    def test_pseudoscalar_routes_agree(self):
        # kernel-built rotor vs the dense bivector formula
        gens = jordan_wigner(2)
        theta = 0.9
        for k in range(1, 5):
            kernel = plane_rotor(gens, 0, k, theta)
            direct = _rotor_direct(gens, 0, k, theta)
            for i in range(5):
                d = to_dense(gens.extended(i))
                a = kernel @ d @ kernel.conj().T
                b = direct @ d @ direct.conj().T
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_applies_the_cached_generator_actions(self, monkeypatch):
        # G_k G_j is applied as two cached tables: no product string is formed
        # and no action is tabulated per call
        def forbidden(*args):
            raise AssertionError("plane_rotor built a string or a table")

        gens = jordan_wigner(3)
        rng = np.random.default_rng(8)
        row = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        gens.actions  # the set's tables, cached before the guard
        monkeypatch.setattr(rotors.pauli, "mul", forbidden)
        monkeypatch.setattr(rotors.pauli, "action", forbidden)
        for j, k in ((0, 3), (2, 6), (5, 1), (6, 0)):
            direct = _rotor_direct(gens, j, k, 0.7)
            assert np.max(np.abs(plane_rotor(gens, j, k, 0.7) - direct)) <= 1e-15
            assert np.max(np.abs(plane_rotor(gens, j, k, 0.7, row) - row @ direct)) <= 1e-15

    def test_row_factor_is_the_row_of_the_product(self):
        # a 1 x d row is multiplied in at O(d), as lift does for its vacuum column
        gens = jordan_wigner(3)
        rng = np.random.default_rng(5)
        row = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        for j, k in ((0, 3), (2, 6), (5, 1)):
            out = plane_rotor(gens, j, k, 1.1, row)
            assert out.shape == (1, 8)
            assert np.max(np.abs(out - row @ plane_rotor(gens, j, k, 1.1))) <= 1e-15

    def test_indices_must_be_integers(self):
        # a bool once passed the range check as the index 0 or 1
        gens = jordan_wigner(1)
        for j, k in ((True, 2), (1, False), (1.0, 2), (0, 2.5)):
            with pytest.raises(DomainError, match="must be an integer"):
                plane_rotor(gens, j, k, 0.3)
        got = plane_rotor(gens, np.int32(1), np.int64(2), 0.3)
        assert got.tobytes() == plane_rotor(gens, 1, 2, 0.3).tobytes()

    def test_rejects_equal_indices(self):
        gens = jordan_wigner(1)
        with pytest.raises(DomainError):
            plane_rotor(gens, 1, 1, 0.3)
        with pytest.raises(DomainError):
            plane_rotor(gens, 0, 3, 0.3)


class TestLift:
    def test_identity(self):
        gens = jordan_wigner(2)
        u = lift(np.eye(5), gens)
        assert conjugation_residual(u, np.eye(5), gens) <= 1e-12

    def test_random_special_orthogonal(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            gens = jordan_wigner(n)
            for _ in range(20):
                t = random_orthogonal(rng, 2 * n + 1, det_sign=1)
                assert conjugation_residual(lift(t, gens), t, gens) <= 1e-8

    def test_generator_lift_det_minus_one_flips_pseudoscalar(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            gens = jordan_wigner(n)
            g0 = to_dense(gens.gamma0)
            for _ in range(10):
                t = random_orthogonal(rng, 2 * n, det_sign=-1)
                u = lift(t, gens)
                assert conjugation_residual(u, t, gens) <= 1e-8
                assert np.max(np.abs(u @ g0 @ u.conj().T + g0)) <= 1e-10

    @pytest.mark.parametrize("det_sign", [1, -1])
    def test_generator_transform_is_checked_as_its_extension(self, det_sign):
        # a 2n transform T is checked as the extended transform diag(det T, T)
        rng = np.random.default_rng(9)
        for n in (1, 2, 4):
            gens = jordan_wigner(n)
            t = random_orthogonal(rng, 2 * n, det_sign=det_sign)
            ext = np.zeros((2 * n + 1, 2 * n + 1))
            ext[0, 0] = det_sign
            ext[1:, 1:] = t
            for u in (lift(t, gens), lift(ext, gens), np.eye(2**n)):
                assert conjugation_residual(u, t, gens) == conjugation_residual(u, ext, gens)

    def test_rejects_extended_reflection(self):
        gens = jordan_wigner(1)
        t = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(OrientationError):
            lift(t, gens)

    def test_rejects_bad_size(self):
        gens = jordan_wigner(2)
        with pytest.raises(DimensionMismatchError):
            lift(np.eye(3), gens)

    def test_composition_acts_like_product(self):
        gens = jordan_wigner(2)
        rng = np.random.default_rng(8)
        t1 = random_orthogonal(rng, 5, det_sign=1)
        t2 = random_orthogonal(rng, 5, det_sign=1)
        u_prod = lift(t1 @ t2, gens)
        u_split = lift(t1, gens) @ lift(t2, gens)
        for i in range(5):
            d = to_dense(gens.extended(i))
            a = u_prod @ d @ u_prod.conj().T
            b = u_split @ d @ u_split.conj().T
            assert np.max(np.abs(a - b)) <= 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4]),
           st.sampled_from([(1, 1), (0, 1), (0, -1)]))
    def test_matches_euler_rotor_product(self, seed, n, shape):
        # n = 3 is covered in test_pauli; size 2n+1 rotates planes through
        # the pseudoscalar (extended index 0)
        extra, det_sign = shape
        gens = jordan_wigner(n)
        t = random_orthogonal(np.random.default_rng(seed), 2 * n + extra, det_sign)
        fact = euler_decompose(t)
        oracle = np.eye(2**n, dtype=complex)
        if fact.reflection_flag < 0:
            oracle = to_dense(gens.gamma0 * gens.gammas[0])
        for j, k, theta in fact.angles:
            if theta != 0.0:
                oracle = oracle @ _rotor_direct(gens, j - extra, k - extra, theta)
        u = lift(t, gens)
        overlap = np.vdot(oracle, u)
        assert np.max(np.abs(u - overlap / abs(overlap) * oracle)) <= 1e-12

    def test_one_rotor_per_angle_and_one_flip_per_reflection(self, monkeypatch):
        calls = []

        def counted(name):
            inner = getattr(rotors, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            return counting

        for name in ("plane_rotor", "flip_unitary"):
            monkeypatch.setattr(rotors, name, counted(name))
        rng = np.random.default_rng(13)
        for n in (1, 3):
            gens = jordan_wigner(n)
            cases = [np.eye(2 * n + 1), rotation_matrix(2 * n, 1, 2, 0.4)]
            cases += [random_orthogonal(rng, 2 * n + 1, 1), random_orthogonal(rng, 2 * n, 1),
                      random_orthogonal(rng, 2 * n, -1)]
            for t in cases:
                fact = euler_decompose(t)
                calls.clear()
                lift(t, gens)
                assert calls.count("plane_rotor") == sum(theta != 0.0 for *_, theta in fact.angles)
                assert calls.count("flip_unitary") == (fact.reflection_flag < 0)

    def test_refuses_over_budget_before_allocating(self, monkeypatch):
        # U and the last doubling's d x d/2 term at n = 14: 1.5 x 4**14 x 16
        # bytes = 6 GiB, above the 4 GiB budget
        gens = jordan_wigner(14)
        t = random_orthogonal(np.random.default_rng(14), 29, det_sign=1)

        def no_alloc(*args, **kwargs):
            raise AssertionError("lift allocated before its memory check")

        monkeypatch.setattr(rotors.np, "zeros", no_alloc)
        with pytest.raises(CapacityError, match="memory budget"):
            lift(t, gens)


def conjugation_oracle(u, t, gens):
    """The lift relation in its conjugation form, ``max_j |U G_j U^H - M_j|`` with
    ``M_j = sum_i T_ij G_i`` on the extension ``diag(det T, T)``, kept as the oracle."""
    size = gens.extended_size
    ext = np.zeros((size, size))
    ext[0, 0] = np.sign(np.linalg.det(t))
    ext[size - len(t):, size - len(t):] = t
    dense = np.array([to_dense(gens.extended(i)) for i in range(size)])
    return max(float(np.max(np.abs(u @ dense[j] @ u.conj().T
                                   - np.tensordot(ext[:, j], dense, axes=1))))
               for j in range(size))


def negated_table(gens, i):
    """A copy of ``gens`` whose cached action of extended index ``i`` has its phase negated."""
    bad = jordan_wigner(gens.n)
    actions = list(gens.actions)
    actions[i] = actions[i]._replace(phase=-actions[i].phase)
    bad.__dict__["actions"] = tuple(actions)
    return bad


class TestResiduals:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_both_forms_pass_lifts_and_fail_each_mutant(self, n):
        gens = jordan_wigner(n)
        rng = np.random.default_rng(60 + n)
        for size, det_sign in ((2 * n + 1, 1), (2 * n, 1), (2 * n, -1)):
            t = random_orthogonal(rng, size, det_sign)
            u = lift(t, gens)
            for form in (conjugation_residual, conjugation_oracle):
                assert form(u, t, gens) <= 1e-12
            column = int(rng.integers(size))
            negated = t.copy()
            negated[:, column] = -negated[:, column]
            mutants = [(u, negated), (1.001 * u, t), (np.zeros_like(u), t),
                       (lift(t, negated_table(gens, 1)), t)]
            for bad_u, bad_t in mutants:
                for form in (conjugation_residual, conjugation_oracle):
                    assert form(bad_u, bad_t, gens) > 1e-3, (form.__name__, size, det_sign)

    def test_zero_and_scaled_unitaries_are_read_by_the_frobenius_term(self):
        gens = jordan_wigner(3)
        t = random_orthogonal(np.random.default_rng(2), 7, det_sign=1)
        u = lift(t, gens)
        assert conjugation_residual(np.zeros_like(u), t, gens) == 1.0
        assert conjugation_residual(1.001 * u, t, gens) == pytest.approx(2.001e-3, rel=1e-9)

    def test_row_blocks_give_the_value_of_one_whole_block(self, monkeypatch):
        # at n = 9 a 2 MiB block holds 13 rows of the 19 stacked products
        gens = jordan_wigner(9)
        rng = np.random.default_rng(19)
        t = random_orthogonal(rng, 19, det_sign=1)
        u = lift(t, gens)
        u[5, 300] += 1e-6  # a defect in one block, so that the value is not rounding
        assert states._block_rows(16 * 19 * 2**9) == 13
        blocked = conjugation_residual(u, t, gens)
        monkeypatch.setattr(rotors, "_block_rows", lambda size: states._block_rows(size, 2**40))
        assert conjugation_residual(u, t, gens) == blocked
        assert blocked > 1e-7

    def test_holds_a_few_blocks_and_no_dense_product(self):
        # a 2 MiB stack of row blocks, its mixed copy and their temporaries
        # (5.0 MiB traced); a d x d product beside its factors takes 12 MiB at n = 9
        gens = jordan_wigner(9)
        t = random_orthogonal(np.random.default_rng(4), 18, det_sign=-1)
        u = lift(t, gens)
        tracemalloc.start()
        try:
            conjugation_residual(u, t, gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * states._BLOCK_BYTES


class TestFlips:
    def test_qubit_example(self):
        gens = jordan_wigner(1)
        u = flip_unitary(gens, 2)
        x, y, g0 = (to_dense(p) for p in (gens.gammas[0], gens.gammas[1], gens.gamma0))
        assert np.max(np.abs(u @ y @ u.conj().T + y)) <= 1e-14
        assert np.max(np.abs(u @ x @ u.conj().T - x)) <= 1e-14
        assert np.max(np.abs(u @ g0 @ u.conj().T + g0)) <= 1e-14

    def test_double_flip_is_identity_action(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=0).mat
        u = flip_unitary(gens, 3)
        twice = u @ (u @ rho @ u.conj().T) @ u.conj().T
        assert np.max(np.abs(twice - rho)) <= 1e-14

    def test_flips_commute_as_channels(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=1).mat
        for j, k in [(1, 2), (2, 3), (1, 4)]:
            fj, fk = flip_unitary(gens, j), flip_unitary(gens, k)
            a = fj @ (fk @ rho @ fk.conj().T) @ fj.conj().T
            b = fk @ (fj @ rho @ fj.conj().T) @ fk.conj().T
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_out_of_range(self):
        gens = jordan_wigner(2)
        with pytest.raises(DomainError):
            flip_unitary(gens, 0)
        with pytest.raises(DomainError):
            flip_unitary(gens, 5)

    def test_index_must_be_an_integer(self):
        gens = jordan_wigner(2)
        for j in (True, 1.0, 2.5, "1"):
            with pytest.raises(DomainError, match="must be an integer"):
                flip_unitary(gens, j)
        assert flip_unitary(gens, np.int64(3)).tobytes() == flip_unitary(gens, 3).tobytes()

    def test_flip_averaging_strips_indexed_terms(self):
        gens = jordan_wigner(2)
        work = random_state(2, seed=77).mat
        for j in range(2, 5):
            f = flip_unitary(gens, j)
            work = 0.5 * (work + f @ work @ f.conj().T)
        exp = expand(DensityMatrix.from_matrix(work), gens)
        for indices, value in exp.coeffs.items():
            if set(indices) & {2, 3, 4}:
                assert abs(value) <= 1e-12
        assert abs(exp.coeff((1, 2, 3, 4))) <= 1e-12


def near_minus_g1(n, eps, k, radius):
    """``radius (-(1 - eps) e_1 + delta e_k)`` with ``delta`` making the direction a unit vector."""
    g = np.zeros(2 * n + 1)
    g[1] = -(1.0 - eps)
    g[k] = math.sqrt(eps * (2.0 - eps))
    return n, radius * g


@st.composite
def ball_vectors(draw):
    """``(n, g)``: a unit-ball vector with pseudoscalar weight, or one near -G_1.

    Near -G_1 the weight off G_1 sits on G_0 or on G_2, and ``1 + c_1 = eps``
    falls in any decade from 1e-12 to 1.
    """
    n = draw(st.integers(1, 3))
    radius = draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        size = 2 * n + 1
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
        direction[0] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 1.0))
        return n, radius * direction / np.linalg.norm(direction)
    eps = draw(st.floats(1.0, 9.0)) * 10.0 ** draw(st.integers(-12, -1))
    return near_minus_g1(n, eps, draw(st.sampled_from([0, 2])), radius)


class TestReduceToAxis:
    @settings(max_examples=150, deadline=None)
    @given(ball_vectors())
    @example(near_minus_g1(2, 2e-8, 2, 0.9))
    @example(near_minus_g1(2, 2e-8, 0, 0.9))
    @example(near_minus_g1(3, 1e-6, 2, 1.0))
    @example(near_minus_g1(1, 5e-2, 0, 0.7))
    def test_ball_vectors_reduce_to_the_projection(self, case):
        n, g = case
        gens = jordan_wigner(n)
        d = 2**n
        rho = from_gvector(GVector(n, g), gens)
        rho_hat, u, ell = reduce_to_axis(rho, gens)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-8
        target = (np.eye(d) + math.sqrt(ell) * to_dense(gens.gammas[0])) / d
        assert np.max(np.abs(rho_hat.mat - target)) <= 1e-8
        proj = project_bloch(rho, gens)
        assert np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)) <= 1e-8

    def test_near_antipodal_states_reduce_to_working_precision(self):
        # c_1 = -(1 - 10**-k), k = 0..12 in half-decades, with the weight off
        # G_1 on the pseudoscalar or on a generator
        worst_unitary = worst_projection = 0.0
        for n in range(1, 6):
            gens = jordan_wigner(n)
            d = 2**n
            for k in sorted({0, 2, 2 * n}):
                for half_decades in range(25):
                    _, g = near_minus_g1(n, 10.0 ** (-half_decades / 2), k, 0.9)
                    rho = from_gvector(GVector(n, g), gens)
                    rho_hat, u, _ = reduce_to_axis(rho, gens)
                    proj = project_bloch(rho, gens)
                    worst_unitary = np.maximum(worst_unitary,
                                               np.max(np.abs(u.conj().T @ u - np.eye(d))))
                    worst_projection = np.maximum(
                        worst_projection, np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)))
        assert worst_unitary <= 1e-15
        assert worst_projection <= 1e-15

    def test_one_rotor_per_state(self, monkeypatch):
        built = []
        vector_rotor = rotors._vector_rotor

        def counting(*args, **kwargs):
            built.append(args)
            return vector_rotor(*args, **kwargs)

        monkeypatch.setattr(rotors, "_vector_rotor", counting)
        gens = jordan_wigner(3)
        for mat in random_state_batch(3, 10, seed=4):
            reduce_to_axis(DensityMatrix.from_matrix(mat), gens)
        reduce_to_axis(DensityMatrix.from_matrix(np.eye(8, dtype=complex) / 8), gens)
        assert len(built) == 10

    def test_maximally_mixed(self):
        gens = jordan_wigner(2)
        rho = DensityMatrix.from_matrix(np.eye(4, dtype=complex) / 4)
        rho_hat, u, ell = reduce_to_axis(rho, gens)
        assert ell == pytest.approx(0.0, abs=1e-18)
        assert np.max(np.abs(rho_hat.mat - rho.mat)) <= 1e-14
        assert np.max(np.abs(u - np.eye(4))) <= 1e-14

    def test_plus_state_already_on_axis(self):
        gens = jordan_wigner(1)
        rho = from_gvector(GVector(1, np.array([0.0, 1.0, 0.0])), gens)
        rho_hat, _, ell = reduce_to_axis(rho, gens)
        assert ell == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho_hat.mat - rho.mat)) <= 1e-12

    def test_bell_state(self):
        gens = jordan_wigner(2)
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityMatrix.from_matrix(np.outer(psi, psi.conj()))
        rho_hat, u, ell = reduce_to_axis(rho, gens)
        assert ell == pytest.approx(1.0, abs=1e-12)
        target = (np.eye(4) + to_dense(gens.gammas[0])) / 4.0
        assert np.max(np.abs(rho_hat.mat - target)) <= 1e-12
        proj = project_bloch(rho, gens)
        assert np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_states_match_projection(self, n):
        gens = jordan_wigner(n)
        d = 2**n
        mats = random_state_batch(n, 50, seed=100 + n, ensemble="mixed-hs")
        stack = gens.dense_extended
        for mat in mats:
            rho = DensityMatrix.from_matrix(mat)
            rho_hat, u, ell = reduce_to_axis(rho, gens)
            g = np.real(np.einsum("ij,kji->k", rho.mat, stack))
            assert ell == pytest.approx(float(g @ g), abs=1e-12)
            target = (np.eye(d) + math.sqrt(ell) * stack[1]) / d
            assert np.max(np.abs(rho_hat.mat - target)) <= 1e-8
            proj = project_bloch(rho, gens)
            assert np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)) <= 1e-8

    def test_antiparallel_expectation_vector(self):
        # g exactly opposite the target axis: the rotor is the flip G_0 G_1 alone
        gens = jordan_wigner(2)
        rho = from_gvector(GVector(2, np.array([0.0, -0.9, 0.0, 0.0, 0.0])), gens)
        rho_hat, u, ell = reduce_to_axis(rho, gens)
        assert ell == pytest.approx(0.81, abs=1e-12)
        proj = project_bloch(rho, gens)
        assert np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)) <= 1e-8

    def test_pseudoscalar_only_state(self):
        gens = jordan_wigner(2)
        rho = from_gvector(GVector(2, np.array([-0.8, 0.0, 0.0, 0.0, 0.0])), gens)
        rho_hat, u, ell = reduce_to_axis(rho, gens)
        assert ell == pytest.approx(0.64, abs=1e-12)
        target = (np.eye(4) + 0.8 * to_dense(gens.gammas[0])) / 4.0
        assert np.max(np.abs(rho_hat.mat - target)) <= 1e-8
        proj = project_bloch(rho, gens)
        assert np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj.mat)) <= 1e-8


class TestCachedTables:
    def test_reduction_flips_and_lift_build_no_string_and_no_table(self, monkeypatch):
        # the reduction rotor is G_1 A_m (G_0 A_m for g_1 < 0) and each flip
        # G_0 G_j is composed from two cached tables
        def forbidden(*args):
            raise AssertionError("a product string or a table was built")

        cases = []
        for n in range(1, 5):
            gens = jordan_wigner(n)
            gens.actions  # the set's tables, cached before the guard
            d, size = 2**n, 2 * n + 1
            direction = np.random.default_rng(n).standard_normal(size)
            direction *= 0.9 / np.linalg.norm(direction)
            direction[1] = abs(direction[1])
            flipped = direction.copy()
            flipped[1] = -flipped[1]
            for g in (direction, flipped, np.zeros(size)):
                rho = from_gvector(GVector(n, g), gens)
                target = (np.eye(d) + np.linalg.norm(g) * to_dense(gens.gammas[0])) / d
                cases.append((gens, rho, target, project_bloch(rho, gens).mat))
        flips = [(gens, j, to_dense(gens.gamma0) @ to_dense(gens.gammas[j - 1]))
                 for gens in dict.fromkeys(case[0] for case in cases)
                 for j in range(1, 2 * gens.n + 1)]
        gens3 = jordan_wigner(3)
        gens3.actions
        t = random_orthogonal(np.random.default_rng(9), 6, det_sign=-1)

        monkeypatch.setattr(rotors.pauli, "mul", forbidden)
        monkeypatch.setattr(rotors.pauli, "action", forbidden)
        for gens, rho, target, proj in cases:
            rho_hat, u, _ = reduce_to_axis(rho, gens)
            assert np.max(np.abs(rho_hat.mat - target)) <= 1e-12
            assert np.max(np.abs(u.conj().T @ rho_hat.mat @ u - proj)) <= 1e-12
        for gens, j, dense in flips:
            assert np.array_equal(flip_unitary(gens, j), dense)
        assert conjugation_residual(lift(t, gens3), t, gens3) <= 1e-12
