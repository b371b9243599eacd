"""Entropies, closed-form bounds, the minimizer, and concavity."""

import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cliffcert import pauli, states, uncertainty
from cliffcert.cli import main
from cliffcert import (
    CapacityError,
    DensityMatrix,
    DomainError,
    GVector,
    bias_entropy,
    bias_entropy_d1,
    bias_entropy_d2,
    closed_form_kind,
    closed_form_min,
    eigenprojectors,
    entropy_average,
    entropy_of_expectations,
    extended_expectations,
    find_minimizer,
    find_minimizers,
    from_gvector,
    from_label,
    gvector,
    jordan_wigner,
    maassen_uffink_bound,
    observable_entropy,
    random_state,
    random_state_batch,
    renyi_entropy,
)
from cliffcert.states import random_pure_states, vector_expectations
from cliffcert.tolerances import DENSE_GUARD, OPTIMIZATION

# Direct-formula oracles, frozen
H_THREE_QUARTERS = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))  # 0.8112781244591328


def plus_state():
    gens = jordan_wigner(1)
    return from_gvector(GVector(1, np.array([0.0, 1.0, 0.0])), gens), gens


class TestRenyi:
    @pytest.mark.parametrize("alpha", [0.5, 1, 2, 3, math.inf])
    def test_uniform_binary(self, alpha):
        assert renyi_entropy([0.5, 0.5], alpha) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1, 2, math.inf])
    def test_deterministic(self, alpha):
        assert renyi_entropy([1.0, 0.0], alpha) == pytest.approx(0.0, abs=1e-14)

    def test_shannon_three_quarters(self):
        got = renyi_entropy([0.75, 0.25], 1)
        assert got == pytest.approx(0.8112781244591328, abs=1e-15)
        assert got == pytest.approx(H_THREE_QUARTERS, abs=1e-15)

    def test_alpha_near_one_approaches_shannon(self):
        p = [0.3, 0.6, 0.1]
        assert renyi_entropy(p, 1.0 + 1e-9) == pytest.approx(renyi_entropy(p, 1), abs=1e-6)

    def test_clamps_tiny_negatives(self):
        assert renyi_entropy([1.0 + 1e-12, -1e-12], 2) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [600.0, 2000.0, 1e6, 1e300])
    def test_large_orders_stay_finite(self, alpha):
        # each power sum underflows to 0 at these orders unless its largest term is factored out
        assert renyi_entropy([0.5, 0.5], alpha) == pytest.approx(1.0, abs=1e-14)
        assert renyi_entropy([0.25] * 4, alpha) == pytest.approx(2.0, abs=1e-14)
        # with m = max p and S = sum((p/m)**alpha), H_alpha - H_inf = (H_inf - log2 S)/(alpha - 1),
        # and 1 <= S <= 1/m, so 0 <= H_alpha - H_inf <= H_inf/(alpha - 1); m = 0.65 in both
        h_inf = -math.log2(0.65)
        terms = entropy_of_expectations([0.0, 0.3, -0.3, 1.0], alpha)
        assert terms[0] == pytest.approx(1.0, abs=1e-14) and terms[3] == 0.0 and terms[1] == terms[2]
        for h in (renyi_entropy([0.65, 0.3, 0.05], alpha), terms[1]):
            assert -1e-15 <= h - h_inf <= h_inf / (alpha - 1.0) + 1e-15

    def test_errors(self):
        with pytest.raises(DomainError):
            renyi_entropy([0.9, -0.1], 1)
        with pytest.raises(DomainError):
            renyi_entropy([0.7, 0.7], 1)
        with pytest.raises(DomainError):
            renyi_entropy([0.5, 0.5], 0.0)
        with pytest.raises(DomainError):
            renyi_entropy([0.5, 0.5], -2)


class TestObservableEntropy:
    def test_maximally_mixed_is_one_bit(self):
        gens = jordan_wigner(2)
        mixed = from_gvector(GVector(2, np.zeros(5)), gens)
        for i in range(5):
            assert observable_entropy(mixed, gens.extended(i), 1) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_and_unbiased(self):
        rho, gens = plus_state()
        assert observable_entropy(rho, gens.gammas[0], 1) == pytest.approx(0.0, abs=1e-12)
        assert observable_entropy(rho, gens.gammas[1], 1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_projector_route(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=21)
        for i in range(5):
            g = gens.extended(i)
            p0, p1 = eigenprojectors(g)
            probs = [np.trace(p0 @ rho.mat).real, np.trace(p1 @ rho.mat).real]
            for alpha in (1, 2, math.inf):
                assert observable_entropy(rho, g, alpha) == pytest.approx(
                    renyi_entropy(probs, alpha), abs=1e-12
                )

    def test_rejects_non_involution(self):
        rho, _ = plus_state()
        with pytest.raises(DomainError):
            observable_entropy(rho, from_label("iX"), 1)


class TestEntropyAverage:
    def test_mixed_any_k_any_alpha(self):
        gens = jordan_wigner(2)
        mixed = from_gvector(GVector(2, np.zeros(5)), gens)
        for k in range(1, 6):
            for alpha in (1, 2, math.inf):
                assert entropy_average(mixed, gens, k, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_k3_shannon_is_two_thirds(self):
        rho, gens = plus_state()
        assert entropy_average(rho, gens, 3, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_random_states_respect_shannon_bound(self):
        gens = jordan_wigner(2)
        mats = random_state_batch(2, 200, seed=5, ensemble="mixed-hs")
        for mat in mats[:50]:
            rho = DensityMatrix.from_matrix(mat)
            assert entropy_average(rho, gens, 5, 1) >= 0.8 - 1e-9

    def test_k_out_of_range(self):
        rho, gens = plus_state()
        with pytest.raises(DomainError):
            entropy_average(rho, gens, 4, 1)


class TestClosedForms:
    def test_shannon(self):
        assert closed_form_min(3, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert closed_form_min(1, 1) == 0.0

    def test_collision(self):
        # 1 - log2(1 + 1/3) evaluated directly
        assert closed_form_min(3, 2) == pytest.approx(1.0 - math.log2(4.0 / 3.0), abs=1e-15)
        assert closed_form_min(3, 2) == pytest.approx(0.5849625007211563, abs=1e-15)

    def test_min_entropy(self):
        assert closed_form_min(4, math.inf) == pytest.approx(1.0 - math.log2(1.5), abs=1e-15)
        assert closed_form_min(4, math.inf) == pytest.approx(0.4150374992788438, abs=1e-15)

    def test_kind_flags(self):
        assert closed_form_kind(1) == "exact-minimum"
        assert closed_form_kind(2) == "exact-minimum"
        assert closed_form_kind(math.inf) == "exact-minimum"
        with pytest.raises(DomainError):
            closed_form_kind(1.5)

    def test_errors(self):
        with pytest.raises(DomainError):
            closed_form_min(0, 1)
        with pytest.raises(DomainError):
            closed_form_min(3, 1.5)

    @pytest.mark.parametrize("alpha", [1, 2, math.inf])
    def test_zero_at_k1_is_positive_zero(self, alpha):
        # one observable at +-1 has no entropy; the floor at alpha = 2 and inf read -0.0
        assert math.copysign(1.0, closed_form_min(1, alpha)) == 1.0
        rep = find_minimizer(jordan_wigner(2), 1, alpha, budget=200, seed=0)
        for value in (rep.closed_form_bound, rep.numeric_min, rep.cross_check_min, rep.gap):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("seed", [777780533, 655853295])
    def test_argmin_has_no_negative_zero(self, seed):
        # the descent leaves -0.0 coordinates in the minimizer at these seeds
        rep = find_minimizer(jordan_wigner(6), 5, 1, budget=20000, seed=seed)
        zeros = [v for v in rep.to_dict()["argmin_g"] if v == 0.0]
        assert zeros and all(math.copysign(1.0, v) == 1.0 for v in zeros)


class TestObservableCount:
    """One check of K: bool and non-integral counts are refused, numpy integers accepted."""

    BAD = [2.5, True, False, 3.0, "3"]

    @pytest.mark.parametrize("K", BAD)
    def test_closed_form_refuses(self, K):
        with pytest.raises(DomainError, match="K must"):
            closed_form_min(K, 1)

    @pytest.mark.parametrize("K", BAD)
    def test_entropy_average_refuses(self, K):
        gens = jordan_wigner(2)
        with pytest.raises(DomainError, match="K must"):
            entropy_average(random_state(2, seed=1), gens, K, 1)

    @pytest.mark.parametrize("K", BAD)
    def test_gvector_refuses(self, K):
        gens = jordan_wigner(2)
        with pytest.raises(DomainError, match="K must"):
            gvector(random_state(2, seed=1), gens, K)

    @pytest.mark.parametrize("K", BAD)
    def test_minimizer_refuses_before_drawing(self, K, monkeypatch):
        forbid_draws(monkeypatch)
        with pytest.raises(DomainError, match="K must"):
            find_minimizer(jordan_wigner(2), K, 1, 100, 1)
        with pytest.raises(DomainError, match="K must"):
            find_minimizers(jordan_wigner(2), [3, K], 1, 100, 1)

    def test_numpy_integers_are_counts(self):
        gens = jordan_wigner(2)
        rho = random_state(2, seed=1)
        for K in (np.int64(3), np.uint8(3), np.int32(3)):
            assert closed_form_min(K, 1) == closed_form_min(3, 1)
            assert entropy_average(rho, gens, K, 2) == entropy_average(rho, gens, 3, 2)
            assert gvector(rho, gens, K).values.tobytes() == gvector(rho, gens, 3).values.tobytes()
            report = find_minimizer(gens, K, 2, 500, 1)
            assert type(report.K) is int
            assert report.to_dict() == find_minimizer(gens, 3, 2, 500, 1).to_dict()


class TestMinimizer:
    def test_shannon_corner(self):
        gens = jordan_wigner(1)
        rep = find_minimizer(gens, 3, 1, budget=20000, seed=7)
        assert abs(rep.numeric_min - 2.0 / 3.0) <= 1e-6
        mags = np.sort(np.abs(rep.argmin_g.values))[::-1]
        assert abs(mags[0] - 1.0) <= 1e-4
        assert mags[1] <= 1e-4
        assert rep.gap >= -1e-6

    def test_collision_equal_components(self):
        gens = jordan_wigner(1)
        rep = find_minimizer(gens, 3, 2, budget=20000, seed=7)
        assert abs(rep.numeric_min - closed_form_min(3, 2)) <= 1e-6
        assert np.max(np.abs(np.abs(rep.argmin_g.values) - 1.0 / math.sqrt(3))) <= 1e-3

    def test_min_entropy_tightness_observed(self):
        gens = jordan_wigner(2)
        rep = find_minimizer(gens, 4, math.inf, budget=20000, seed=7)
        assert rep.bound_kind == "exact-minimum"
        assert abs(rep.numeric_min - closed_form_min(4, math.inf)) <= 1e-6
        assert np.max(np.abs(np.abs(rep.argmin_g.values[:4]) - 0.5)) <= 1e-3

    def test_routes_agree(self):
        gens = jordan_wigner(2)
        for alpha in (1, 2, math.inf):
            rep = find_minimizer(gens, 5, alpha, budget=5000, seed=11)
            assert abs(rep.cross_check_min - rep.numeric_min) <= 1e-6

    @pytest.mark.parametrize("n, alpha, seed, budget", [
        (2, 0.5, 1234, 2000), (2, 0.1, 1234, 2000), (2, 0.01, 1234, 2000),
        (6, 0.5, 1, 20000), (6, 0.5, 1234, 20000)])
    def test_small_orders_report_the_vertex(self, n, alpha, seed, budget):
        # a vertex's realized entries are 1/sqrt(2), and <psi|G|psi> can round
        # to 1 - 1e-16 there, where a small order's term has infinite slope:
        # measured so, these runs reported up to 0.95337 for 0.8
        K = 2 * n + 1
        rep = find_minimizer(jordan_wigner(n), K, alpha, budget, seed)
        assert abs(rep.numeric_min - (1.0 - 1.0 / K)) <= 1e-12

    def test_argmin_inside_ball(self):
        gens = jordan_wigner(2)
        rep = find_minimizer(gens, 5, 2, budget=2000, seed=3)
        assert rep.argmin_g.norm_squared <= 1.0 + 1e-9

    def test_general_alpha_has_no_bound(self):
        gens = jordan_wigner(1)
        rep = find_minimizer(gens, 3, 3.0, budget=2000, seed=1)
        assert rep.closed_form_bound is None and rep.gap is None
        assert 0.0 <= rep.numeric_min <= 1.0

    def test_errors(self):
        gens = jordan_wigner(1)
        with pytest.raises(DomainError):
            find_minimizer(gens, 4, 1, budget=10, seed=0)
        with pytest.raises(DomainError):
            find_minimizer(gens, 3, 1, budget=0, seed=0)

    def test_eigenstate_ceiling(self):
        # an eigenstate of one observable attains the Shannon bound exactly
        gens = jordan_wigner(1)
        for j in range(3):
            v = np.zeros(3)
            v[j] = 1.0
            rho = from_gvector(GVector(1, v), gens)
            assert entropy_average(rho, gens, 3, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_collision_jensen_chain(self):
        # both inequality steps of the collision-entropy bound, term by term
        gens = jordan_wigner(2)
        k = 5
        mats = random_state_batch(2, 300, seed=13, ensemble="mixed-hs")
        g = extended_expectations(mats, gens)[:, :k]
        avg_h2 = -np.log2((1.0 + g * g) / 2.0).mean(axis=1)
        jensen = -np.log2((1.0 + (g * g).mean(axis=1)) / 2.0)
        bound = 1.0 - math.log2(1.0 + 1.0 / k)
        assert np.all(avg_h2 >= jensen - 1e-12)
        assert np.all(jensen >= bound - 1e-12)


def bisected_face_point(a, w):
    """max(0, a + mu w) with mu bisected until sum = 1, kept as the oracle of _face_point."""
    lo, hi = np.min((-a - 1.0) / w), np.max((1.0 - a) / w)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        lo, hi = (mu, hi) if np.maximum(a + mu * w, 0.0).sum() < 1.0 else (lo, mu)
    return np.maximum(a + mu * w, 0.0)


class TestFaceDescent:
    """The descent in t = g**2 on the face sum t_j = 1: Newton where phi'' > 0."""

    def test_face_point_is_the_bisected_threshold(self):
        rng = np.random.default_rng(8)
        for K in list(range(1, 30)) * 3:
            a = rng.normal(0.0, 0.5, K)
            for w in (rng.uniform(0.01, 10.0, K), np.ones(K)):
                s = uncertainty._face_point(a, w)
                assert np.min(s) >= 0.0 and abs(s.sum() - 1.0) <= 1e-14
                assert np.max(np.abs(s - bisected_face_point(a, w))) <= 1e-12
        assert np.array_equal(uncertainty._face_point(a, 1.0), uncertainty._face_point(a, np.ones(K)))

    @pytest.mark.parametrize("K", [23, 25])
    def test_collision_reaches_the_floor_from_far_starts(self, K):
        # the gradient loop in g stopped 7.1e-7 (K = 23) and 4.6e-6 (K = 25) above the
        # floor from the ramp, and 3.4e-9 and 1.9e-5 from the normal draw
        order = uncertainty._order(2)
        bound = float(order.floor(1.0, K))
        for g0 in (np.linspace(1.0, 0.01, K), np.random.default_rng(K).standard_normal(K)):
            g, f, steps, converged = uncertainty._projected_descent(g0, order)
            assert converged and steps < 10
            assert abs(f - bound) <= 1e-12
            assert f == float(uncertainty._ball_objective(g, order))
            assert np.array_equal(np.sign(g), np.sign(g0)) and abs(g.dot(g) - 1.0) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_general_orders_reach_the_minimum(self, alpha):
        # at alpha = 1.5 the gradient loop in g left numeric_min 1.2e-7 and
        # cross_check_min 2.3e-5 above the equal spread, the least of the two candidates
        order = uncertainty._order(alpha)
        least = min(float(order.term(np.array(1.0 / math.sqrt(13)))), 1.0 - 1.0 / 13)
        rep = find_minimizer(jordan_wigner(6), 13, alpha, 20000, 1234)
        assert rep.converged
        assert abs(rep.numeric_min - least) <= 1e-12
        assert abs(rep.cross_check_min - least) <= 1e-12

    @pytest.mark.parametrize("alpha", [1, 0.5, 1e-4])
    def test_concave_orders_stop_at_a_vertex(self, alpha):
        # the projection zeroes coordinates exactly, so the descent ends on a vertex; the
        # gradient step is scaled by the spread of the slopes, which at alpha = 1e-4 are
        # all about -7e-5 (a unit step took hundreds of steps there)
        order = uncertainty._order(alpha)
        g0 = np.random.default_rng(3).standard_normal(13)
        g, f, steps, converged = uncertainty._projected_descent(g0, order)
        assert converged and steps < 10
        assert np.count_nonzero(g) == 1 and np.max(np.abs(g)) == 1.0
        assert f == pytest.approx(1.0 - 1.0 / 13, abs=1e-15)

    def test_descent_is_cut_at_max_iter(self):
        g, f, steps, converged = uncertainty._projected_descent(
            np.linspace(1.0, 0.01, 9), uncertainty._order(2), max_iter=1)
        assert (steps, converged) == (1, False)

    def test_report_says_how_each_descent_ended(self):
        rep = find_minimizer(jordan_wigner(2), 5, 2, 2000, 3)
        doc = rep.to_dict()
        assert doc["converged"] is True
        assert len(doc["descent_steps"]) == 2 and all(
            isinstance(k, int) and 0 < k < 20 for k in doc["descent_steps"])


# Library calls that take a Renyi order, for the order-validation tests.
ORDER_CALLS = {
    "renyi_entropy": lambda a: renyi_entropy([0.5, 0.5], a),
    "entropy_of_expectations": lambda a: entropy_of_expectations(np.array([0.3, -0.2]), a),
    "find_minimizer": lambda a: find_minimizer(jordan_wigner(1), 3, a, budget=50, seed=0),
    "find_minimizers": lambda a: find_minimizers(jordan_wigner(1), [1, 3], a, budget=50, seed=0),
    "closed_form_min": lambda a: closed_form_min(3, a),
    "closed_form_kind": lambda a: closed_form_kind(a),
}


class TestInputValidation:
    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, "2"])
    @pytest.mark.parametrize("call", sorted(ORDER_CALLS))
    def test_bad_order_is_domain_error(self, call, alpha):
        with pytest.raises(DomainError):
            ORDER_CALLS[call](alpha)

    @pytest.mark.parametrize("call", sorted(ORDER_CALLS))
    def test_bool_order_is_domain_error(self, call):
        # numbers.Real admits bools, so True would otherwise run as alpha = 1
        with pytest.raises(DomainError):
            ORDER_CALLS[call](True)

    @pytest.mark.parametrize("budget", [True, 2.5, -3])
    def test_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(DomainError):
            find_minimizer(jordan_wigner(1), 3, 1, budget=budget, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
    def test_seed_must_be_a_non_negative_integer(self, seed, monkeypatch):
        # -1 reached numpy as a ValueError, 1.5 and "a" as a TypeError; True ran as seed 1
        forbid_draws(monkeypatch)
        for ks in ([3], []):
            with pytest.raises(DomainError, match="seed"):
                find_minimizers(jordan_wigner(1), ks, 1, budget=50, seed=seed)
        with pytest.raises(DomainError, match="seed"):
            find_minimizer(jordan_wigner(1), 3, 1, budget=50, seed=seed)

    def test_numpy_integer_seed(self):
        rep = find_minimizer(jordan_wigner(1), 3, 1, budget=40, seed=np.uint8(3))
        assert rep.to_dict() == find_minimizer(jordan_wigner(1), 3, 1, budget=40, seed=3).to_dict()
        assert type(rep.seed) is int

    def test_numpy_integer_budget(self):
        rep = find_minimizer(jordan_wigner(1), 3, 1, budget=np.int64(40), seed=0)
        assert json.loads(json.dumps(rep.to_dict()))["samples"] == 40

    def test_every_k_checked(self):
        with pytest.raises(DomainError):
            find_minimizers(jordan_wigner(1), [1, 2, 4], 1, budget=50, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("alpha", [1, 2, math.inf, 0.5])
    def test_non_finite_entropy_input_is_domain_error(self, bad, alpha):
        # a NaN once came out as -0.0, which reads as zero entropy
        with pytest.raises(DomainError, match="must be finite"):
            renyi_entropy([bad, 1.0], alpha)
        with pytest.raises(DomainError, match="must be finite"):
            entropy_of_expectations([bad], alpha)
        with pytest.raises(DomainError, match="must be finite"):
            entropy_of_expectations(np.array([[0.3, 0.1], [0.2, bad]]), alpha)

    @pytest.mark.parametrize("alpha", [1, 2, math.inf, 0.5])
    def test_expectation_outside_unit_interval_is_domain_error(self, alpha):
        # 2.0 once came out as -0.0, zero entropy, from a silent clip to 1
        for bad in ([2.0], [-1.5, 0.3], np.array([[0.3, 0.1], [0.2, -1.0 - 2e-9]])):
            with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
                entropy_of_expectations(bad, alpha)
        # rounding within PSD of the interval is clipped
        edge = entropy_of_expectations([1.0 + 1e-12, -1.0 - 1e-12], alpha)
        assert edge.tobytes() == entropy_of_expectations([1.0, -1.0], alpha).tobytes()


def decreasing_log_uniforms(rng, budget):
    """The logarithms of ``budget`` iid uniforms in decreasing order, by Renyi's representation."""
    return -np.cumsum(rng.standard_exponential(budget) / np.arange(budget, 0, -1))


def whole_array_ball_best(seed_dirs, seed_radii, K, budget, alpha):
    """The unit-ball search on the whole ``budget x K`` array, kept as the oracle."""
    dirs = np.random.default_rng(seed_dirs).standard_normal((budget, K))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    radii = np.exp(decreasing_log_uniforms(np.random.default_rng(seed_radii), budget) / K)
    ball = dirs * (radii / norms)[:, None]
    return ball[int(np.argmin(entropy_of_expectations(ball, alpha).mean(axis=-1)))]


def ball_draws(seed, budget, K):
    """``_best_in_ball``'s row reader over normal directions and decreasing log-uniforms."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((budget, K))
    log_u = decreasing_log_uniforms(rng, budget)
    return lambda start, stop: (dirs[start:stop], log_u[start:stop])


ORDERS = [1, 2, math.inf, 3.0]


class TestChunkedBallSearch:
    @pytest.mark.parametrize("K", range(1, 14))
    def test_row_sums_are_the_reduction(self, K):
        rng = np.random.default_rng(K)
        a = rng.standard_normal((1000, K)) * 10.0 ** rng.integers(-8, 9, (1000, K))
        assert uncertainty._row_sums(a).tobytes() == np.add.reduce(a, axis=1).tobytes()

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("K", [1, 7, 8, 13])
    def test_reports_do_not_depend_on_chunk(self, monkeypatch, K, alpha):
        gens = jordan_wigner(max(1, K // 2))
        budget = 301
        reports = []
        for chunk in (1, 5, 8192, budget + 1):
            monkeypatch.setattr(uncertainty, "_BALL_CHUNK", chunk)
            reports.append(find_minimizer(gens, K, alpha, budget, seed=17).to_dict())
        assert all(rep == reports[0] for rep in reports[1:])

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("K", [1, 2, 7, 8, 13])
    def test_equals_whole_array_search(self, K, alpha):
        # enough chunks that the radius floor prunes most of them
        budget = 20 * uncertainty._BALL_CHUNK + 123
        seeds = np.random.SeedSequence(5).spawn(2)
        got = uncertainty._ball_bests(*seeds, [K], budget, uncertainty._order(alpha))[K]
        assert got.tobytes() == whole_array_ball_best(*seeds, K, budget, alpha).tobytes()

    @pytest.mark.parametrize("alpha, pruned", [(1, True), (2, True), (math.inf, True), (3.0, False)])
    def test_floor_prunes_rows_it_rules_out(self, alpha, pruned):
        budget, K = 20 * uncertainty._BALL_CHUNK, 7
        rows = ball_draws(3, budget, K)
        order = uncertainty._order(alpha)
        scored = []

        def counted(g):
            scored.append(len(g))
            return order.term(g)

        got = uncertainty._best_in_ball(rows, budget, K, order._replace(term=counted))
        assert got.tobytes() == uncertainty._best_in_ball(rows, budget, K, order).tobytes()
        # a general order has no floor, so its search scores every row
        assert sum(scored) < budget / 2 if pruned else sum(scored) == budget

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_sweep_equals_independent_calls(self, alpha):
        gens = jordan_wigner(2)
        ks = range(1, 6)
        swept = [rep.to_dict() for rep in find_minimizers(gens, ks, alpha, budget=700, seed=9)]
        assert swept == [find_minimizer(gens, k, alpha, 700, 9).to_dict() for k in ks]

    def test_cli_sweep_rows_equal_find_minimizer(self, capsys):
        argv = ["sweep", "--n", "2", "--k-min", "1", "--k-max", "5", "--alpha", "2",
                "--samples", "700", "--seed", "9", "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        assert [row["K"] for row in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            rep = find_minimizer(jordan_wigner(2), row["K"], 2, 700, 9)
            assert (row["closed_form"], row["numeric_min"], row["gap"]) == (
                rep.closed_form_bound, rep.numeric_min, rep.gap)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_memory_is_draws_plus_chunks(self, alpha):
        budget, K = 200000, 7
        draws = budget * K * 8 + budget * 8  # directions and uniform radii
        chunk = uncertainty._BALL_CHUNK * K * 8  # one (chunk, K) float array
        # The Shannon entropy holds about ten (chunk, K) temporaries at once;
        # the whole-array search held about ten (budget, K) arrays.
        bound = draws + 12 * chunk
        assert bound < 2 * budget * K * 8
        tracemalloc.start()
        try:
            uncertainty._ball_bests(*np.random.SeedSequence(1).spawn(2), [K], budget,
                                    uncertainty._order(alpha))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


FLOOR_ORDERS = [1, 2, math.inf]
# The floor and the K-average are computed by different formulas, so where a
# point attains the floor (the vertex, the equal spread) they part by a few ulps.
FLOOR_ROUNDING = 1e-15


class TestRadiusFloor:
    """``_Order.floor(r, K)``: the least K-average over the sphere of radius r."""

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    @pytest.mark.parametrize("K", range(1, 30))
    def test_floor_is_a_lower_bound(self, K, alpha):
        order = uncertainty._order(alpha)
        rng = np.random.default_rng(K)
        dirs = rng.standard_normal((300, K))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        vertex = np.eye(K)[:1]
        spread = np.full((1, K), 1.0 / math.sqrt(K))
        for r in (0.0, 0.5, 1.0 - 1e-12, 1.0):
            points = r * np.vstack([vertex, spread, dirs])
            floor = order.floor(np.array([r]), K)[0]
            assert np.all(floor <= uncertainty._ball_objective(points, order) + FLOOR_ROUNDING)
        # at r = 1 the floor is the paper's closed form
        paper = {1: 1.0 - 1.0 / K, 2: 1.0 - math.log2(1.0 + 1.0 / K),
                 math.inf: 1.0 - math.log2(1.0 + 1.0 / math.sqrt(K))}[alpha]
        assert abs(order.floor(np.array([1.0]), K)[0] - paper) <= 1e-15

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    def test_floor_decreases_in_the_radius(self, alpha):
        # so the zero point, of value term(0) = 1, lies on or above every floor
        r = np.linspace(0.0, 1.0, 1001)
        for K in (1, 2, 7, 13):
            floor = uncertainty._order(alpha).floor(r, K)
            assert floor[0] == 1.0 and np.all(np.diff(floor) <= 0.0)


def per_chunk_best_in_ball(rows, budget, K, order):
    """The search that tests every row's radius floor, chunk by chunk, kept as the oracle."""
    chunk = uncertainty._BALL_CHUNK
    best = best_val = None
    for start in range(0, budget, chunk):
        d, log_u = rows(start, start + chunk)
        radii = np.exp(log_u / K)
        if best is not None and order.floor is not None:
            keep = order.floor(radii, K) <= best_val + uncertainty._FLOOR_SLACK
            if not keep.any():
                continue
            d, radii = d[keep], radii[keep]
        norms = np.sqrt(uncertainty._row_sums(d * d))
        norms[norms == 0.0] = 1.0
        points = d * (radii / norms)[:, None]
        vals = uncertainty._row_sums(order.term(points)) / K
        i = int(np.argmin(vals))
        if best is None or vals[i] < best_val:
            best, best_val = points[i].copy(), vals[i]
    return best


def floor_edge(order, K, level):
    """The largest radius of [0, 1] whose floor lies above ``level``, by bisection to an ulp."""
    lo, hi = 0.0, 1.0
    if order.floor(hi, K) > level:
        return hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if order.floor(mid, K) > level else (lo, mid)
    return lo


class TestRadiusCut:
    """One floor test per scored chunk, on its last radius, in place of a floor per row."""

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("K", [1, 2, 7, 8, 13])
    def test_equals_per_chunk_search(self, K, alpha):
        budget = 20 * uncertainty._BALL_CHUNK + 123
        rows = ball_draws(11, budget, K)
        order = uncertainty._order(alpha)
        got = uncertainty._best_in_ball(rows, budget, K, order)
        assert got.tobytes() == per_chunk_best_in_ball(rows, budget, K, order).tobytes()

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    def test_floor_reads_few_rows(self, alpha):
        budget = 20 * uncertainty._BALL_CHUNK
        order = uncertainty._order(alpha)
        for K in (7, 13):
            rows = ball_draws(3, budget, K)
            seen, last = [], []

            def counted(r, K):
                seen.append(np.copy(r))
                return order.floor(r, K)

            def read(start, stop):
                d, log_u = rows(start, stop)
                last.append(np.exp(log_u[-1:] / K))
                return d, log_u

            got = uncertainty._best_in_ball(read, budget, K, order._replace(floor=counted))
            assert got.tobytes() == uncertainty._best_in_ball(rows, budget, K, order).tobytes()
            # the floor is read once per scored chunk, on its last radius, never row by row
            assert seen and all(r.size == 1 for r in seen)
            assert np.concatenate(last).tobytes() == np.array(seen, dtype=float).tobytes()
            # and the search stops before the last chunk
            assert len(seen) < budget / uncertainty._BALL_CHUNK

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    @pytest.mark.parametrize("K", range(1, 14))
    def test_cut_drops_only_rows_the_floor_rules_out(self, monkeypatch, K, alpha):
        order = uncertainty._order(alpha)
        slack = uncertainty._FLOOR_SLACK
        rng = np.random.default_rng([K, 7])
        chunk = 4
        monkeypatch.setattr(uncertainty, "_BALL_CHUNK", chunk)
        # bests across [bound(K), 1], and some at the floors of drawn radii,
        # a few ulps and a few slacks either side of them
        floors = order.floor(rng.random(20), K)
        edges = np.concatenate([floors + c * slack for c in (-3, -2, -1, 0, 1, 2, 3)])
        bests = np.concatenate([
            rng.uniform(closed_form_min(K, alpha), 1.0, 40),
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
            [closed_form_min(K, alpha), 1.0],
        ])
        for best in bests:
            # radii whose floors lie within ulps of best + slack, where the search stops
            r = floor_edge(order, K, best + slack)
            planted = [r, np.nextafter(r, -1.0), np.nextafter(r, 2.0),
                       r * (1.0 - 1e-12), r * (1.0 + 1e-12), r / (1.0 - 1e-9)]
            radii = np.sort(np.clip(np.concatenate([rng.random(40), planted]), 1e-300, 1.0))[::-1]
            log_u = K * np.log(np.concatenate([[1.0] * chunk, radii]))
            read, scored = [], []

            def rows(start, stop):
                read.append(stop)
                return np.ones((stop - start, K)), log_u[start:stop]

            def planted_best(d, radii, order):
                # the first chunk holds the best, of value ``best``; no later row beats it
                scored.append(radii[-1])
                return d[0], best if len(scored) == 1 else math.inf

            monkeypatch.setattr(uncertainty, "_best_row", planted_best)
            uncertainty._best_in_ball(rows, log_u.size, K, order)
            dropped = np.exp(log_u[max(read):] / K)
            # the floor decreases in the radius only to its rounding: an ulp
            # below the stop radius it may lie that far under best + slack
            assert np.all(order.floor(dropped, K) > best + slack - FLOOR_ROUNDING)
            # the search stops on the first chunk whose last floor lies above best + slack
            above = [order.floor(r, K) > best + slack for r in scored]
            assert not any(above[:-1]) and (above[-1] or max(read) == log_u.size)


def count_draws(monkeypatch, method):
    """Wrap ``np.random.default_rng`` so that each call of its ``method`` records its count."""
    filled = []
    make = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self._rng = make(seed)

        def __getattr__(self, name):
            draw = getattr(self._rng, name)
            if name != method:
                return draw

            def counted(size=None, out=None):
                filled.append(out.size if out is not None else int(np.prod(size)))
                return draw(size, out=out)

            return counted

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return filled


def count_normals(monkeypatch):
    """Wrap ``np.random.default_rng`` so that each ``standard_normal`` call records its count."""
    return count_draws(monkeypatch, "standard_normal")


class TestOutsideIn:
    """Rows in decreasing radius: the search stops on the floor and draws nothing past it."""

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    def test_floor_orders_draw_few_directions(self, monkeypatch, alpha):
        monkeypatch.setattr(uncertainty, "_BALL_CHUNK", 8192)
        budget, K = 400000, 7
        seed_dirs, _, seed_radii = np.random.SeedSequence(1).spawn(3)
        filled = count_normals(monkeypatch)
        order = uncertainty._order(alpha)
        best = uncertainty._ball_bests(seed_dirs, seed_radii, [K], budget, order)
        assert best[K].shape == (K,)
        assert 0 < sum(filled) < budget * K / 4

    def test_general_order_draws_the_whole_stream_once(self, monkeypatch):
        budget, ks = 3 * uncertainty._BALL_CHUNK + 5, [7, 1, 3, 3]
        filled = count_normals(monkeypatch)
        uncertainty._ball_bests(*np.random.SeedSequence(2).spawn(2), ks, budget,
                                uncertainty._order(3.0))
        assert sum(filled) == budget * max(ks)

    def test_radii_are_decreasing_uniforms(self, monkeypatch):
        budget, seen = 20000, []
        best_in_ball = uncertainty._best_in_ball

        def recorded(rows, budget, K, order):
            def read(start, stop):
                d, log_u = rows(start, stop)
                seen.append(log_u.copy())
                return d, log_u

            return best_in_ball(read, budget, K, order)

        monkeypatch.setattr(uncertainty, "_best_in_ball", recorded)
        uncertainty._ball_bests(*np.random.SeedSequence(6).spawn(2), [1], budget,
                                uncertainty._order(3.0))
        log_u = np.concatenate(seen)
        assert log_u.size == budget
        u = np.exp(log_u)
        assert np.all(np.diff(u) <= 0.0)
        # Kolmogorov-Smirnov distance to U(0, 1), below its 5 % critical value
        rising, i = u[::-1], np.arange(1, budget + 1)
        distance = max(np.max(i / budget - rising), np.max(rising - (i - 1) / budget))
        assert distance < 1.36 / math.sqrt(budget)

    @pytest.mark.parametrize("ks", [[3], [5, 2]])
    def test_reader_radii_are_the_whole_draw(self, monkeypatch, ks):
        chunk = uncertainty._BALL_CHUNK
        budget = 3 * chunk + 5
        seed_dirs, seed_radii = np.random.SeedSequence(4).spawn(2)
        read = {}

        def split_reads(rows, budget, K, order):
            splits = [0, 1, chunk - 1, chunk, 2 * chunk, 3 * chunk, budget]
            read[K] = [rows(start, stop) for start, stop in itertools.pairwise(splits)]
            return np.zeros(K)

        monkeypatch.setattr(uncertainty, "_best_in_ball", split_reads)
        uncertainty._ball_bests(seed_dirs, seed_radii, ks, budget, uncertainty._order(3.0))
        whole = decreasing_log_uniforms(np.random.default_rng(seed_radii), budget)
        for K in ks:
            assert np.concatenate([log_u for _, log_u in read[K]]).tobytes() == whole.tobytes()
            fresh = np.random.default_rng(seed_dirs).standard_normal((budget, K))
            assert np.concatenate([d for d, _ in read[K]]).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_radii_are_drawn_to_the_deepest_row_read(self, monkeypatch, alpha):
        budget, ks = 20 * uncertainty._BALL_CHUNK + 123, [7, 1, 3, 3]
        deepest = [0]
        best_in_ball = uncertainty._best_in_ball

        def recorded(rows, budget, K, order):
            def read(start, stop):
                deepest[0] = max(deepest[0], stop)
                return rows(start, stop)

            return best_in_ball(read, budget, K, order)

        monkeypatch.setattr(uncertainty, "_best_in_ball", recorded)
        drawn = count_draws(monkeypatch, "standard_exponential")
        order = uncertainty._order(alpha)
        uncertainty._ball_bests(*np.random.SeedSequence(2).spawn(2), ks, budget, order)
        # each exponential is drawn once; a floor order stops short of the budget
        assert sum(drawn) == deepest[0]
        assert deepest[0] < budget if order.floor else deepest[0] == budget


def where_xlog2x(p):
    """The two-``np.where`` form of ``p log2 p``, kept as the oracle."""
    return np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)


def forbid_draws(monkeypatch):
    """Make any random draw of the minimizer fail the test."""
    def no_draw(*args):
        raise AssertionError("the minimizer drew")

    monkeypatch.setattr(uncertainty, "_ball_bests", no_draw)
    monkeypatch.setattr(uncertainty, "random_pure_states", no_draw)


class TestSharedStreams:
    def test_stream_views_and_radii_equal_fresh_draws(self, monkeypatch):
        budget = 2 * uncertainty._BALL_CHUNK + 123
        ball_bests = uncertainty._ball_bests
        for alpha in ORDERS:
            calls = []

            def recorded(seed_dirs, seed_radii, ks, budget, order):
                calls.append((seed_dirs, seed_radii, ball_bests(seed_dirs, seed_radii, ks, budget, order)))
                return calls[-1][2]

            monkeypatch.setattr(uncertainty, "_ball_bests", recorded)
            find_minimizers(jordan_wigner(4), [7, 1, 3, 3], alpha, budget, seed=8)
            [(seed_dirs, seed_radii, bests)] = calls
            # the directions and the cross-check keep the children of a two-way spawn
            assert (seed_dirs.spawn_key, seed_radii.spawn_key) == ((0,), (2,))
            assert sorted(bests) == [1, 3, 7]
            for K, best in bests.items():
                fresh = whole_array_ball_best(seed_dirs, seed_radii, K, budget, alpha)
                assert best.tobytes() == fresh.tobytes()

    def test_empty_ks_draws_nothing(self, monkeypatch):
        forbid_draws(monkeypatch)
        assert find_minimizers(jordan_wigner(2), [], 2, budget=700, seed=9) == []

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_unsorted_repeated_ks_equal_independent_calls(self, alpha):
        gens = jordan_wigner(3)
        ks = [7, 1, 3, 3]
        swept = [rep.to_dict() for rep in find_minimizers(gens, ks, alpha, budget=700, seed=9)]
        assert swept == [find_minimizer(gens, k, alpha, 700, 9).to_dict() for k in ks]

    def test_xlog2x_is_the_where_form(self):
        rng = np.random.default_rng(4)
        special = np.array([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310,
                            0.5, 1.0 - 2.0**-53, -1e-300, -1.0, np.nan, np.inf])
        for p in (special, rng.random((50, 7)), rng.random(1000) * 1e-307, np.float64(0.25)):
            p = np.asarray(p)
            assert uncertainty._xlog2x(p).tobytes() == where_xlog2x(p).tobytes()

    def test_cross_check_rows_equal_whole_batch(self):
        for n, count in itertools.product(range(1, 7), (5, 17, 2000)):
            gens = jordan_wigner(n)
            rows = vector_expectations(random_pure_states(n, count, 11), gens)
            whole = extended_expectations(random_state_batch(n, count, 11, "pure-haar"), gens)
            assert rows.shape == (count, 2 * n + 1)
            assert np.max(np.abs(rows - whole)) <= 1e-14, (n, count)

    def test_cross_check_memory_is_draw_plus_chunks(self):
        # the cross-check's 2000 vectors take 2000 x 64 x 16 bytes = 2 MiB
        tracemalloc.start()
        try:
            find_minimizer(jordan_wigner(6), 13, math.inf, budget=20000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_ball_draws_are_freed_before_the_cross_check(self):
        # 20000 x 14 x 8 bytes = 2.1 MiB of ball draws; held through the
        # cross-check's draw they raise the peak from about 6.8 to 8.2 MiB
        tracemalloc.start()
        try:
            find_minimizer(jordan_wigner(6), 13, math.inf, budget=20000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cross_check_over_budget_at_n17(self, monkeypatch):
        # 1.3 x 2000 x 2**17 x 16 bytes = 5.1 GiB of state vectors and their
        # draw, refused by arithmetic with nothing drawn
        forbid_draws(monkeypatch)
        with pytest.raises(CapacityError, match="pure-state cross-check"):
            find_minimizer(jordan_wigner(17), 3, 1, budget=2000, seed=0)

    def test_cross_check_past_the_dense_guard_draws_nothing(self, monkeypatch):
        # 1.3 GiB at n = 15 fits the budget, but no state vector past
        # DENSE_GUARD qubits is drawn, so the ball search must not run either
        forbid_draws(monkeypatch)
        with pytest.raises(DomainError, match="cross-check's state vectors"):
            find_minimizer(jordan_wigner(DENSE_GUARD + 1), 3, 1, budget=2000, seed=0)

    def test_minimizer_builds_no_dense_state(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("the minimizer built a d x d array")

        monkeypatch.setattr(states, "from_gvector", dense)
        monkeypatch.setattr(pauli, "scatter", dense)
        monkeypatch.setattr(np.linalg, "cholesky", dense)
        rep = find_minimizer(jordan_wigner(6), 13, 2, budget=2000, seed=1)
        assert abs(rep.gap) <= OPTIMIZATION

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_numeric_min_is_the_dense_measurement(self, alpha):
        # the two-vector state measures as the dense state of the same point
        for n, K in ((1, 3), (2, 1), (3, 5), (4, 9)):
            gens = jordan_wigner(n)
            for rep in find_minimizers(gens, range(1, K + 1), alpha, budget=700, seed=3):
                dense = entropy_average(from_gvector(rep.argmin_g, gens), gens, rep.K, alpha)
                assert abs(rep.numeric_min - dense) <= 1e-14, (n, rep.K)

    def test_cross_check_counts_against_budget(self, monkeypatch):
        # 1.3 x 2000 x 64 x 16 bytes = 2.5 MiB of state vectors and their
        # draw at n = 6 is over a 2 MiB budget, which the ball search fits
        forbid_draws(monkeypatch)
        monkeypatch.setattr(uncertainty, "MEMORY_BUDGET", 2**21)
        with pytest.raises(CapacityError, match="pure-state cross-check"):
            find_minimizer(jordan_wigner(6), 3, 1, budget=2000, seed=0)

    def test_ball_draw_over_budget(self):
        # 1e9 x 3 x 8 bytes = 22 GiB, refused by arithmetic
        with pytest.raises(CapacityError, match="unit-ball"):
            find_minimizer(jordan_wigner(1), 3, 1, budget=10**9, seed=0)

    def test_cli_refuses_over_budget(self, monkeypatch, capsys):
        forbid_draws(monkeypatch)
        assert main(["minimize", "--n", "17", "--K", "3", "--samples", "2000"]) == 1
        assert "memory budget" in capsys.readouterr().err

    def test_n10_is_certified(self):
        # the cross-check's 2000 vectors take 32 MiB
        rep = find_minimizer(jordan_wigner(10), 3, 2, 2000, 1)
        assert abs(rep.gap) <= OPTIMIZATION
        assert abs(rep.cross_check_min - rep.closed_form_bound) <= OPTIMIZATION


def branch_term(g, alpha):
    """The two-outcome entropy as one branching function computed it, kept as the oracle."""
    g = np.clip(g, -1.0, 1.0)
    if math.isinf(alpha):
        return -np.log2((1.0 + np.abs(g)) / 2.0)
    if abs(alpha - 1.0) < 1e-12:
        p = (1.0 + g) / 2.0
        q = (1.0 - g) / 2.0
        return -(where_xlog2x(p) + where_xlog2x(q))
    if alpha == 2.0:
        return -np.log2((1.0 + g * g) / 2.0)
    c = alpha - 1.0
    q = np.abs(g) * -0.5 + 0.5
    m = 1.0 - q
    r = np.maximum(q / m, 1e-300)
    ln2 = math.log(2.0)
    return np.log1p(np.expm1(np.log2(r) * (c * ln2)) * q) / (-c * ln2) - np.log2(m)


def branch_derivatives(t, alpha):
    """phi' and phi'' of phi(t) = term(sqrt(t)) in closed form, as one branching function
    computed them, kept as the oracle; t is taken 1e-12 inside [0, 1].  phi'' holds only
    from :func:`series_cut` on."""
    t = np.clip(t, 1e-12, 1.0 - 1e-12)
    b = np.sqrt(t)
    ln2 = math.log(2.0)
    if math.isinf(alpha):
        d1 = -1.0 / (2.0 * b * ln2 * (1.0 + b))
        return d1, d1 * (-1.0 / b - 1.0 / (1.0 + b)) / (2.0 * b)
    if abs(alpha - 1.0) < 1e-12:
        return ((np.log(1.0 - b) - np.log(1.0 + b)) / (4.0 * ln2 * b),
                (np.log((1.0 + b) / (1.0 - b)) - 2.0 * b / (1.0 - t)) / (8.0 * ln2 * t**1.5))
    if alpha == 2.0:
        return -1.0 / ((1.0 + t) * ln2), 1.0 / ((1.0 + t) ** 2 * ln2)
    a, c = alpha, alpha - 1.0
    ln_r = -2.0 * np.arctanh(b)
    r_a = np.exp(a * ln_r)
    dln_r = -2.0 / (1.0 - t)
    # a / c taken first, so that no factor overflows at an order near the float maximum
    d1 = (a / c) * np.expm1(c * ln_r) / (2.0 * b * ln2 * (1.0 + b) * (1.0 + r_a))
    log_slope = (c * np.exp(c * ln_r) * dln_r / np.expm1(c * ln_r) - 1.0 / b - 1.0 / (1.0 + b)
                 - a * r_a * dln_r / (1.0 + r_a))
    return d1, d1 * log_slope / (2.0 * b)


def series_cut(alpha):
    """Below this ``t`` the code sums phi'' as a series, where the closed forms of
    :func:`branch_derivatives` cancel: 1e-3 for Shannon, ``min(1e-3, 1e-2/a**2)``
    for a general order, 0 for the collision and min-entropies."""
    if math.isinf(alpha) or alpha == 2.0:
        return 0.0
    a = 1.0 if abs(alpha - 1.0) < 1e-12 else alpha
    return min(1e-3, 1e-2 / (a * a))


TABLE_ORDERS = [1.0, 1.0 + 1e-13, 2.0, math.inf, 0.5, 1.5, 3.0]


def exact_power_d2(alpha, t, terms=40):
    """``phi''(t)`` of the order ``alpha`` in exact rationals, rounded once: with
    ``p**a + q**a = 2**(1 - a) S(t)``, ``S = sum_j C(a, 2j) t**j`` (40 terms reach
    1e-80 at t <= 1e-3), ``phi'' = (S'' S - S'**2) / (S**2 (1 - a) ln 2)``.  An order
    within 1e-12 of 1 is Shannon's, whose ``phi = 1 - sum_j t**j/(2j (2j - 1) ln 2)``."""
    if abs(alpha - 1.0) < 1e-12:
        t = Fraction(t)
        series = sum(Fraction(j - 1, 2 * (2 * j - 1)) * t ** (j - 2) for j in range(2, terms))
        return -float(series) / math.log(2.0)
    a, t = Fraction(alpha), Fraction(t)
    coeff, s, s1, s2 = Fraction(1), Fraction(0), Fraction(0), Fraction(0)
    for j in range(terms):
        if j:
            coeff *= (a - 2 * j + 2) * (a - 2 * j + 1) / ((2 * j - 1) * (2 * j))
        s += coeff * t**j
        s1 += j * coeff * t ** max(j - 1, 0)
        s2 += j * (j - 1) * coeff * t ** max(j - 2, 0)
    return float((s2 * s - s1 * s1) / (s * s * (1 - a))) / math.log(2.0)


class TestOrderTable:
    GRID = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12), 5e-324, -5e-324, 1e-310,
         2.2250738585072014e-308, 1.0 + 2.0**-52, -1.0 - 2.0**-52, 0.5, -0.5],
        np.random.default_rng(12).uniform(-1.0, 1.0, 196),
    ])

    T_GRID = np.concatenate([
        [0.0, 1.0, 1e-12, 1.0 - 1e-12, 5e-13, 1.0 - 5e-13, 5e-324, 1e-300, 0.25, 0.5],
        np.random.default_rng(13).uniform(0.0, 1.0, 190),
    ])

    @pytest.mark.parametrize("alpha", TABLE_ORDERS)
    def test_term_and_slope_are_the_branch_formulas(self, alpha):
        # phi'' bit for bit from the series cut on; below it, where the closed form
        # cancels, within rounding of the exact value
        order = uncertainty._order(alpha)
        for g in (self.GRID, self.GRID.reshape(-1, 7)):
            assert order.term(g).tobytes() == branch_term(g, alpha).tobytes()
        t_grid = np.concatenate([self.T_GRID, np.geomspace(1e-12, 1e-3, 10)[:-1]])
        below = np.clip(t_grid, 1e-12, 1.0 - 1e-12) < series_cut(alpha)
        for t in (t_grid, t_grid.reshape(-1, 11)):
            d1, d2 = branch_derivatives(t, alpha)
            assert order.d1(t).tobytes() == d1.tobytes()
            got = order.d2(t)
            mask = below.reshape(t.shape)
            assert got[~mask].tobytes() == d2[~mask].tobytes()
        clipped = np.maximum(t_grid[below], 1e-12)
        want = np.array([exact_power_d2(alpha, x) for x in clipped])
        assert np.max(np.abs(order.d2(clipped) / want - 1.0), initial=0.0) <= 1e-14
        assert entropy_of_expectations(self.GRID, alpha).tobytes() == (
            branch_term(self.GRID, alpha).tobytes())

    @pytest.mark.parametrize("alpha", [1.0, 2.0, math.inf, 0.01, 0.5, 1.5, 3.0, 10.0, 1e6])
    def test_derivatives_are_central_differences(self, alpha):
        # fourth-order differences of phi(t) = term(sqrt(t)) and of d1, on steps that keep
        # truncation and rounding below 1e-7; at 1e6 phi bends on the scale t ~ 1/alpha**2
        order = uncertainty._order(alpha)
        t = np.linspace(0.02, 0.98, 49)
        h = np.minimum(np.minimum(t / 3.0, 5e-4), np.maximum(1.5e-5, 0.01 * (1.0 - t)))

        def diff(f):
            return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)

        d1, d2 = order.d1(t), order.d2(t)
        assert np.max(np.abs(d1 - diff(lambda s: order.term(np.sqrt(s)))) / np.abs(d1)) <= 1e-7
        assert np.max(np.abs(d2 - diff(order.d1)) / np.maximum(np.abs(d2), 1e-3)) <= 1e-6

    def test_shannon_derivatives_are_the_bias_entropy_ones(self):
        t = self.T_GRID[(self.T_GRID >= 1e-12) & (self.T_GRID <= 1.0 - 1e-12)]
        assert uncertainty._SHANNON.d1(t).tobytes() == bias_entropy_d1(t).tobytes()
        assert uncertainty._SHANNON.d2(t).tobytes() == bias_entropy_d2(t).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0, 0.01, 10.0, 500.0])
    def test_general_term_is_the_direct_formula(self, alpha):
        # the largest probability factored out of p**a + q**a changes only the rounding
        g = np.clip(self.GRID, -1.0, 1.0)
        p, q = (1.0 + g) / 2.0, (1.0 - g) / 2.0
        with np.errstate(divide="ignore"):
            direct = np.log2(p**alpha + q**alpha) / (1.0 - alpha)
        finite = np.isfinite(direct)
        assert finite.sum() > 200
        assert np.max(np.abs(uncertainty._order(alpha).term(g)[finite] - direct[finite])) <= 1e-14

    @pytest.mark.parametrize("alpha", TABLE_ORDERS)
    def test_closed_form_exactly_for_one_two_and_inf(self, alpha):
        order = uncertainty._order(alpha)
        assert uncertainty._Order._fields == ("term", "d1", "d2", "entropy", "floor")
        assert (order.floor is not None) == (alpha in (1.0, 1.0 + 1e-13, 2.0, math.inf))
        if order.floor is not None:
            assert closed_form_min(5, alpha) == float(order.floor(1.0, 5))
            assert closed_form_kind(alpha) == "exact-minimum"
        else:
            with pytest.raises(DomainError, match="no closed form"):
                closed_form_kind(alpha)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-11, 1.0 + 1e-11])
    def test_general_order_near_one_is_shannon(self, alpha):
        # outside the Shannon window, where nothing may cancel: the exact distance from
        # Shannon is about 3e-12 for the term and 1e-12 for the entropy, and, by mpmath,
        # 3.1e-11 for d1 at t <= 0.98 and 4.3e-11 for d2 on [1e-3, 0.8] (1.1e-10 at 0.9;
        # below 1e-3 see test_general_order_curvature_near_zero_is_the_series)
        order, shannon = uncertainty._order(alpha), uncertainty._order(1)
        assert order is not shannon
        rng = np.random.default_rng(4)
        g = rng.uniform(-1.0, 1.0, 100000)
        assert np.max(np.abs(order.term(g) - shannon.term(g))) <= 1e-10
        t = g * g * 0.98
        assert np.max(np.abs(order.d1(t) - shannon.d1(t))) <= 1e-10
        t = rng.uniform(1e-3, 0.8, 100000)
        assert np.max(np.abs(order.d2(t) - shannon.d2(t))) <= 1e-10
        p = [0.5, 0.3, 0.2]
        assert abs(renyi_entropy(p, alpha) - renyi_entropy(p, 1)) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0 - 1e-11, 1.0 + 1e-11, 1.5, 3.0])
    def test_general_order_curvature_near_zero_is_the_series(self, alpha):
        # the closed form's 1/b terms cancel as t -> 0: at 1 +- 1e-11 its d2 lay 6e-5
        # from Shannon's at t = 1e-12, and 2.6e-4 (relative) from the exact value
        t = np.geomspace(1e-12, 1e-3, 31)[:-1]  # the series' range: t < 1e-3
        order = uncertainty._order(alpha)
        want = np.array([exact_power_d2(alpha, x) for x in t])
        assert np.max(np.abs(order.d2(t) / want - 1.0)) <= 1e-14
        if abs(alpha - 1.0) < 1e-9:
            shannon = uncertainty._order(1).d2(t)
            assert np.max(np.abs(order.d2(t) - shannon)) <= 1e-10

    @pytest.mark.parametrize("alpha", [1e-162, 1e-300, 5e-324])
    def test_tiny_order_has_a_series_cut(self, alpha, capsys):
        # the cut 1e-2/a**2 divided by a * a, which underflows to 0 here, and every
        # entry point raised ZeroDivisionError; below a = 1 the cut is 1e-3
        assert renyi_entropy([0.5, 0.5], alpha) == pytest.approx(1.0, abs=1e-14)
        assert entropy_of_expectations([0.3], alpha) == pytest.approx([1.0], abs=1e-14)
        # phi'' is a times a function of t, up to O(a**2): that of a = 1e-100, on both
        # sides of the cut; a subnormal order keeps only its sign
        t = np.concatenate([np.geomspace(1e-12, 0.99, 40), [0.0, 1.0]])
        d2 = uncertainty._order(alpha).d2(t)
        assert np.all(d2 <= 0.0)
        if alpha >= np.finfo(float).tiny:
            want = uncertainty._order(1e-100).d2(t) * (alpha / 1e-100)
            assert np.max(np.abs(d2 / want - 1.0)) <= 1e-15
        argv = ["minimize", "--n", "2", "--K", "5", "--alpha", repr(alpha), "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["results"]["alpha"] == alpha

    @pytest.mark.parametrize("alpha", [4e306, 1e307, 1.7e308])
    def test_huge_order_is_silent(self, alpha):
        # (a - 1) ln r overflows to -inf here, which expm1 takes to the right -1
        order = uncertainty._order(alpha)
        g = np.array([1.0, -1.0, 0.7, 0.9, -0.9, 0.0])
        t = np.array([1.0, 0.0, 0.49, 0.81, 0.5, 1e-6])
        p = np.array([1.0 - 1e-300, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [order.term(g), order.d1(t), order.d2(t), order.entropy(p)]
            renyi_entropy(p, alpha)
        c = alpha - 1.0
        with np.errstate(over="ignore"):
            want = [branch_term(g, alpha), *branch_derivatives(t, alpha),
                    -(np.log2(p.max()) + np.log1p(np.sum(p * np.expm1(c * np.log(p / p.max()))))
                      / (c * math.log(2.0)))]
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]

    @pytest.mark.parametrize("alpha", [1e307, 1.3e308, 1.7e308])
    def test_huge_order_slope_is_the_min_entropy_slope(self, alpha):
        # c ln2 (1 + |g|) overflowed to inf from about 1e308, which read the slope as 0
        t = np.array([0.81, 0.81, 0.998001, 0.25, 0.0, 1.0])
        order = uncertainty._order(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = order.d1(t), order.d2(t)
        assert got[0].tobytes() == uncertainty._MIN_ENTROPY.d1(t).tobytes()
        assert got[1].tobytes() == uncertainty._MIN_ENTROPY.d2(t).tobytes()

    def test_near_one_is_shannon(self):
        assert uncertainty._order(1.0 + 1e-13) is uncertainty._order(1)
        assert closed_form_min(4, 1.0 + 1e-13) == closed_form_min(4, 1) == 0.75
        p = [0.3, 0.6, 0.1]
        assert renyi_entropy(p, 1.0 + 1e-13) == renyi_entropy(p, 1)


class TestConcavity:
    def test_limit_at_zero(self):
        assert bias_entropy(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_quarter_point(self):
        assert bias_entropy(0.25) == pytest.approx(H_THREE_QUARTERS, abs=1e-14)

    def test_curvature_negative_at_half(self):
        assert bias_entropy_d2(0.5) < 0.0

    def test_curvature_near_zero_is_the_series(self):
        # the closed form cancels near t = 0: bias_entropy_d2(1e-12) once read +1.79
        t = np.concatenate([[1e-15, 1e-12, 1e-9, 1e-3, 1e-2], np.geomspace(1e-15, 1e-2, 500)])
        k = np.arange(2, 40)[:, None]
        series = -np.sum((k - 1) * t ** (k - 2) / (2 * k - 1), axis=0) / (2.0 * math.log(2.0))
        curvature = bias_entropy_d2(t)
        assert np.all(curvature < 0.0)
        assert np.max(np.abs(curvature / series - 1.0)) <= 1e-10
        assert bias_entropy_d2(1e-12) == pytest.approx(-1.0 / (6.0 * math.log(2.0)), rel=1e-11)

    def test_profile_matches_finite_differences(self):
        grid = np.linspace(0.01, 0.99, 197)
        slope, curvature = bias_entropy_d1(grid), bias_entropy_d2(grid)
        assert np.max(curvature) <= 1e-12
        h = np.minimum(np.minimum(grid / 3.0, 5e-4), np.maximum(1.5e-5, 0.01 * (1.0 - grid)))
        f = bias_entropy
        fd1 = (-f(grid + 2 * h) + 8 * f(grid + h) - 8 * f(grid - h) + f(grid - 2 * h)) / (12 * h)
        fd2 = (
            -f(grid + 2 * h) + 16 * f(grid + h) - 30 * f(grid) + 16 * f(grid - h) - f(grid - 2 * h)
        ) / (12 * h * h)
        assert np.max(np.abs(slope - fd1) / np.abs(slope)) <= 1e-6
        assert np.max(np.abs(curvature - fd2) / np.abs(curvature)) <= 1e-6

    def test_slope_matches_direct_formula(self):
        t = 0.3
        direct = (math.log(1 - math.sqrt(t)) - math.log(1 + math.sqrt(t))) / (
            4 * math.log(2) * math.sqrt(t)
        )
        assert bias_entropy_d1(t) == pytest.approx(direct, abs=1e-15)

    def test_grid_domain_errors(self):
        for derivative in (bias_entropy_d1, bias_entropy_d2):
            with pytest.raises(DomainError):
                derivative([0.0, 0.5])
            with pytest.raises(DomainError):
                derivative([0.5, 1.0])

    @pytest.mark.parametrize("t", [1.5, -0.25, 1.0 + 2.0**-52, math.nan, [0.5, 2.0]])
    def test_bias_entropy_refuses_outside_unit_interval(self, t):
        # 1.5 once gave -0.171 bits with a RuntimeWarning
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            bias_entropy(t)

    @pytest.mark.parametrize("t", [0.0, 1.0, -1e-300, math.nan])
    def test_derivatives_refuse_the_closed_ends(self, t):
        for derivative in (bias_entropy_d1, bias_entropy_d2):
            with pytest.raises(DomainError, match=r"\(0, 1\)"):
                derivative(t)

    def test_ends_and_the_shannon_term(self):
        assert bias_entropy(0.0) == 1.0 and bias_entropy(1.0) == 0.0
        t = np.linspace(0.0, 1.0, 1001)
        assert bias_entropy(t).tobytes() == entropy_of_expectations(np.sqrt(t), 1).tobytes()


class TestMaassenUffink:
    def test_identical_bases(self):
        assert maassen_uffink_bound(np.eye(4), np.eye(4)) == pytest.approx(0.0, abs=1e-15)

    def test_computational_vs_hadamard(self):
        hada = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        assert maassen_uffink_bound(np.eye(2), hada) == pytest.approx(0.5, abs=1e-15)

    def test_bound_holds_for_random_states(self):
        hada = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        bound = maassen_uffink_bound(np.eye(2), hada)
        mats = random_state_batch(1, 100, seed=2, ensemble="mixed-hs")
        for mat in mats:
            pa = np.real(np.diag(mat))
            pb = np.real(np.diag(hada.conj().T @ mat @ hada))
            avg = 0.5 * (renyi_entropy(pa, 1) + renyi_entropy(pb, 1))
            assert avg >= bound - 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            maassen_uffink_bound(np.eye(2) * 1.5, np.eye(2))

    def test_rejects_empty_bases(self):
        # a 0 x 0 residual reached numpy's zero-size reduction as a bare ValueError
        empty = np.zeros((0, 0))
        for a, b in ((empty, empty), (np.eye(2), empty), (empty, np.eye(2))):
            with pytest.raises(DomainError, match="non-empty square matrix"):
                maassen_uffink_bound(a, b)

    def test_rejects_nan_basis(self):
        basis = np.eye(2, dtype=complex)
        basis[0, 1] = np.nan
        with pytest.raises(DomainError, match="not unitary"):
            maassen_uffink_bound(np.eye(2), basis)
