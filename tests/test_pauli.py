"""Symplectic Pauli-string algebra checked against dense matrix oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliffcert
from cliffcert import (
    CapacityError,
    DimensionMismatchError,
    DomainError,
    ParseError,
    PauliString,
    anticommutes,
    euler_decompose,
    extended_expectations,
    from_label,
    jordan_wigner,
    lift,
    matrix_from_expectations,
    mul,
    to_dense,
    to_label,
)
from cliffcert.pauli import action, apply, compose, expect, pairings, scatter, symplectic_inner
from cliffcert.rotors import _rotor_direct
from cliffcert.tolerances import DENSE_GUARD

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_oracle(letters: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(out, SINGLE[ch])
    return out


def random_string(rng, n: int) -> PauliString:
    return PauliString(
        n,
        rng.integers(0, 2, size=n, dtype=np.uint8),
        rng.integers(0, 2, size=n, dtype=np.uint8),
        int(rng.integers(0, 4)),
    )


@st.composite
def strings(draw, n=None, max_n=6):
    if n is None:
        n = draw(st.integers(1, max_n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return PauliString(n, draw(bits), draw(bits), draw(st.integers(0, 3)))


@st.composite
def string_pairs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return draw(strings(n=n)), draw(strings(n=n))


@st.composite
def string_triples(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(strings(n=n)), draw(strings(n=n)), draw(strings(n=n))


class TestLabels:
    def test_xi_encoding(self):
        p = from_label("XI")
        assert p.x.tolist() == [1, 0]
        assert p.z.tolist() == [0, 0]
        assert p.phase == 0

    def test_y_matches_standard_matrix(self):
        p = from_label("Y")
        assert p.x.tolist() == [1] and p.z.tolist() == [1]
        assert np.array_equal(to_dense(p), Y)

    def test_minus_zz(self):
        p = from_label("-ZZ")
        assert p.z.tolist() == [1, 1]
        assert p.x.tolist() == [0, 0]
        assert p.phase == 2

    @pytest.mark.parametrize("label", ["XQ", "", "+", "i", "x", "X Y"])
    def test_parse_errors(self, label):
        with pytest.raises(ParseError):
            from_label(label)

    @pytest.mark.parametrize("label,canonical", [
        ("XI", "+XI"), ("+1Y", "+Y"), ("-1ZZ", "-ZZ"), ("iX", "+iX"), ("-iYX", "-iYX"),
    ])
    def test_prefix_forms(self, label, canonical):
        assert to_label(from_label(label)) == canonical

    @settings(max_examples=100, deadline=None)
    @given(strings())
    def test_round_trip(self, p):
        assert from_label(to_label(p)) == p


class TestMul:
    def test_pauli_table(self):
        assert mul(from_label("X"), from_label("Y")) == from_label("iZ")
        assert mul(from_label("Y"), from_label("X")) == from_label("-iZ")
        assert mul(from_label("X"), from_label("X")) == PauliString.identity(1)

    def test_two_qubit_example(self):
        # (X (x) 1) (Z (x) X) = -i (Y (x) X), checked against the dense product
        a, b = from_label("XI"), from_label("ZX")
        dense = kron_oracle("XI") @ kron_oracle("ZX")
        assert np.array_equal(dense, -1j * kron_oracle("YX"))
        assert np.array_equal(to_dense(mul(a, b)), dense)
        assert mul(a, b) == from_label("-iYX")

    def test_dense_oracle_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_string(rng, 4), random_string(rng, 4)
            assert np.array_equal(to_dense(mul(a, b)), to_dense(a) @ to_dense(b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mul(from_label("X"), from_label("XX"))

    @settings(max_examples=100, deadline=None)
    @given(string_triples())
    def test_associative(self, triple):
        a, b, c = triple
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @settings(max_examples=100, deadline=None)
    @given(string_pairs())
    def test_commutation_phase(self, pair):
        # ab and ba share bits and differ exactly by (-1)**<a,b>
        a, b = pair
        ab, ba = mul(a, b), mul(b, a)
        assert np.array_equal(ab.x, ba.x) and np.array_equal(ab.z, ba.z)
        assert (ab.phase - ba.phase) % 4 == 2 * symplectic_inner(a, b)


class TestAnticommutes:
    def test_examples(self):
        assert anticommutes(from_label("X"), from_label("Y"))
        assert not anticommutes(from_label("X"), from_label("I"))
        assert not anticommutes(from_label("X"), from_label("X"))

    def test_matches_dense_anticommutator(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            a, b = random_string(rng, n), random_string(rng, n)
            da, db = to_dense(a), to_dense(b)
            vanishes = not np.any(da @ db + db @ da)
            assert anticommutes(a, b) == vanishes

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            anticommutes(from_label("X"), from_label("XX"))


class TestDense:
    def test_identity_and_z(self):
        assert np.array_equal(to_dense(PauliString.identity(1)), I2)
        assert np.array_equal(to_dense(from_label("Z")), Z)

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a, b = random_string(rng, 3), random_string(rng, 3)
            tr = np.trace(to_dense(a) @ to_dense(b))
            same_bits = np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
            if same_bits:
                assert abs(tr) == 2**3
            else:
                assert tr == 0

    def test_hermitian_flag_matches_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_string(rng, 3)
            d = to_dense(p)
            assert p.is_hermitian == np.array_equal(d, d.conj().T)

    def test_capacity_guard(self):
        big = PauliString.identity(15)
        with pytest.raises(CapacityError):
            to_dense(big)
        with pytest.raises(CapacityError):
            action(big)
        assert action(PauliString.identity(DENSE_GUARD)).perm.shape == (2**DENSE_GUARD,)


class TestValue:
    @pytest.mark.parametrize("n", [True, 0, -1, 1.0, "1"])
    def test_qubit_count_must_be_a_positive_integer(self, n):
        # True ran as n = 1, and 0 raised DimensionMismatchError
        with pytest.raises(DomainError):
            PauliString(n, [1], [0])

    def test_numpy_integer_qubit_count(self):
        p = PauliString(np.int64(2), [1, 0], [0, 1])
        assert type(p.n) is int and p == from_label("XZ")

    def test_equality_and_hash(self):
        assert from_label("XY") == from_label("XY")
        assert from_label("XY") != from_label("YX")
        assert hash(from_label("-Z")) == hash(from_label("-Z"))

    def test_immutable(self):
        p = from_label("X")
        with pytest.raises(AttributeError):
            p.phase = 3
        with pytest.raises(ValueError):
            p.x[0] = 0


def complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_orthogonal(rng, size, det_sign):
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if np.sign(np.linalg.det(q)) != det_sign:
        q[:, 0] = -q[:, 0]
    return q


seeds = st.integers(0, 2**32 - 1)

# Hashes of one batch of expectations and of one verify and one minimize
# report (without wall_time_ms), printed under a given BLAS thread count.
BLAS_BITS_SCRIPT = """
import contextlib, hashlib, io, json
from cliffcert import extended_expectations, jordan_wigner, random_state_batch
from cliffcert.cli import main
rows = extended_expectations(random_state_batch(4, 1029, 7), jordan_wigner(4))
print(hashlib.sha256(rows.tobytes()).hexdigest())
for argv in (["verify", "--n", "4", "--samples", "300", "--seed", "7"],
             ["minimize", "--n", "4", "--K", "9", "--alpha", "inf", "--samples", "5000"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(out.getvalue())
    del doc["wall_time_ms"]
    print(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
"""


def run_with_blas_threads(threads: int) -> list[str]:
    src = os.path.dirname(os.path.dirname(cliffcert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", BLAS_BITS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestActionKernel:
    """The basis-action kernel against Kronecker-rendered dense oracles."""

    @settings(max_examples=80, deadline=None)
    @given(strings(max_n=5), seeds)
    def test_apply_and_expect_match_dense(self, p, seed):
        dense = to_dense(p)
        m = complex_normal(np.random.default_rng(seed), (2, 3) + dense.shape)
        # one nonzero per row and column: the products are exact
        assert np.array_equal(apply(p, m, "left"), dense @ m)
        assert np.array_equal(apply(p, m, "right"), m @ dense)
        assert np.array_equal(scatter([1.0], [p]), dense)
        traces = np.trace(m @ dense, axis1=-2, axis2=-1)
        assert np.max(np.abs(expect(p, m) - traces)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), seeds)
    def test_generator_set_paths_match_einsum_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        gens = jordan_wigner(n)
        stack = gens.dense_extended
        mats = complex_normal(rng, (3, 2**n, 2**n))
        oracle = np.real(np.einsum("...ij,kji->...k", mats, stack))
        assert np.max(np.abs(extended_expectations(mats, gens) - oracle)) <= 1e-12
        g = rng.standard_normal((3, 2 * n + 1))
        rebuilt = (np.eye(2**n) + np.einsum("...k,kij->...ij", g, stack)) / 2**n
        assert np.max(np.abs(matrix_from_expectations(g, gens) - rebuilt)) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from([(7, 1), (6, 1), (6, -1)]))
    def test_lift_matches_dense_rotor_product(self, seed, shape):
        # 7 = 2n+1 rotates planes through the pseudoscalar (extended index 0)
        size, det_sign = shape
        gens = jordan_wigner(3)
        t = random_orthogonal(np.random.default_rng(seed), size, det_sign)
        fact = euler_decompose(t)
        shift = 1 if size == 7 else 0
        oracle = np.eye(8, dtype=complex)
        if fact.reflection_flag < 0:
            oracle = to_dense(mul(gens.gamma0, gens.gammas[0]))
        for j, k, theta in fact.angles:
            if theta != 0.0:
                oracle = oracle @ _rotor_direct(gens, j - shift, k - shift, theta)
        u = lift(t, gens)
        overlap = np.vdot(oracle, u)
        phase = overlap / abs(overlap)
        assert np.max(np.abs(u - phase * oracle)) <= 1e-12

    def test_compose_tabulates_the_product_in_order(self):
        # A B and B A differ by a sign when the strings anti-commute; no rotor
        # check sees that sign, since F and -F conjugate alike
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(200):
                a, b = random_string(rng, n), random_string(rng, n)
                got, want = compose(action(a), action(b)), action(mul(a, b))
                assert got.perm.tobytes() == want.perm.tobytes()
                assert np.array_equal(got.phase, want.phase)
        with pytest.raises(DimensionMismatchError):
            compose(action(from_label("X")), action(from_label("XZ")))

    def test_expect_bits_do_not_depend_on_blas_threads(self):
        one = run_with_blas_threads(1)
        assert len(one) == 3
        assert run_with_blas_threads(2) == one

    def test_rejects_mismatched_operands(self):
        p = from_label("XZ")
        with pytest.raises(DimensionMismatchError):
            apply(p, np.eye(8), "left")
        with pytest.raises(DimensionMismatchError):
            expect(p, np.eye(2))
        with pytest.raises(DimensionMismatchError):
            scatter([1.0, 2.0], [p])
        with pytest.raises(ValueError):
            apply(p, np.eye(4), "middle")

    def test_pairings_refuse_an_empty_list(self):
        # an empty list has no qubit count to read; it raised a bare IndexError
        with pytest.raises(DomainError, match="at least one string"):
            pairings([])
        with pytest.raises(DimensionMismatchError):
            pairings([from_label("X"), from_label("XZ")])
