"""Entropies, closed-form bounds, the minimizer, and concavity."""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cliffcert import uncertainty
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
from cliffcert.tolerances import OPTIMIZATION

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


def whole_array_ball_best(seed_dirs, seed_radii, K, budget, alpha):
    """The unit-ball search on the whole ``budget x K`` array, kept as the oracle."""
    dirs = np.random.default_rng(seed_dirs).standard_normal((budget, K))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    radii = np.random.default_rng(seed_radii).random(budget) ** (1.0 / K)
    ball = dirs * (radii / norms)[:, None]
    return ball[int(np.argmin(entropy_of_expectations(ball, alpha).mean(axis=-1)))]


def ball_draws(seed, budget, K):
    """Directions and uniform radius draws for the unit-ball search."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((budget, K)), rng.random(budget)


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
        dirs, uniform = ball_draws(3, budget, K)
        order = uncertainty._order(alpha)
        scored = []

        def counted(g):
            scored.append(len(g))
            return order.term(g)

        got = uncertainty._best_in_ball(dirs, uniform, order._replace(term=counted))
        assert got.tobytes() == uncertainty._best_in_ball(dirs, uniform, order).tobytes()
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


def per_chunk_best_in_ball(dirs, uniform, order):
    """The search that tests every row's radius floor, chunk by chunk, kept as the oracle."""
    budget, K = dirs.shape
    chunk = uncertainty._BALL_CHUNK
    best = best_val = None
    for start in range(0, budget, chunk):
        d = dirs[start:start + chunk]
        radii = uniform[start:start + chunk] ** (1.0 / K)
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


class TestRadiusCut:
    """One radius cut, taken again each time the running best improves, in place of a floor per row."""

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("K", [1, 2, 7, 8, 13])
    def test_equals_per_chunk_search(self, K, alpha):
        budget = 20 * uncertainty._BALL_CHUNK + 123
        dirs, uniform = ball_draws(11, budget, K)
        order = uncertainty._order(alpha)
        got = uncertainty._best_in_ball(dirs, uniform, order)
        assert got.tobytes() == per_chunk_best_in_ball(dirs, uniform, order).tobytes()

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    def test_floor_reads_few_rows(self, alpha):
        budget = 20 * uncertainty._BALL_CHUNK
        order = uncertainty._order(alpha)
        grid = np.linspace(0.0, 1.0, uncertainty._CUT_RADII)
        for K in (7, 13):
            dirs, uniform = ball_draws(3, budget, K)
            seen = []

            def counted(r, K):
                seen.append(np.copy(r))
                return order.floor(r, K)

            got = uncertainty._best_in_ball(dirs, uniform, order._replace(floor=counted))
            assert got.tobytes() == uncertainty._best_in_ball(dirs, uniform, order).tobytes()
            # the floor is read only by the cut, on its grid, never row by row
            assert seen and all(np.array_equal(r, grid) for r in seen)
            assert sum(r.size for r in seen) < budget / 4

    @pytest.mark.parametrize("alpha", FLOOR_ORDERS)
    @pytest.mark.parametrize("K", range(1, 14))
    def test_cut_drops_only_rows_the_floor_rules_out(self, K, alpha):
        order = uncertainty._order(alpha)
        rng = np.random.default_rng([K, 7])
        grid = np.linspace(0.0, 1.0, uncertainty._CUT_RADII)
        # best values across [bound(K), 1], and some within a few slacks of a
        # grid radius's floor; at 2 slacks below, the cut moves to the next radius
        floors = order.floor(grid[rng.integers(0, grid.size, 20)], K)
        edges = np.concatenate([floors - c * uncertainty._FLOOR_SLACK for c in (0, 1, 2, 3)])
        bests = np.concatenate([
            rng.uniform(closed_form_min(K, alpha), 1.0, 40),
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
            [closed_form_min(K, alpha), 1.0],
        ])
        for best in bests:
            cut = uncertainty._radius_cut(order, K, best)
            planted = [cut, np.nextafter(cut, -1.0), np.nextafter(cut, 2.0),
                       cut * (1.0 - 1e-12), cut * (1.0 + 1e-12), cut / (1.0 - 1e-9)]
            uniform = np.clip(np.concatenate([rng.random(200), planted]), 0.0, 1.0)
            dropped = uniform[uniform <= cut]
            radii = dropped ** (1.0 / K)
            assert np.all(order.floor(radii, K) > best + uncertainty._FLOOR_SLACK)


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

    def test_dense_reevaluation_over_budget(self, monkeypatch):
        # 4 x 4**14 x 16 bytes = 16 GiB for the re-evaluated state, refused
        # by arithmetic with nothing drawn
        forbid_draws(monkeypatch)
        with pytest.raises(CapacityError, match="dense re-evaluation"):
            find_minimizer(jordan_wigner(14), 3, 1, budget=2000, seed=0)

    def test_cross_check_counts_against_budget(self, monkeypatch):
        # 5 x 2000 x 64 x 16 bytes = 9.8 MiB of state vectors at n = 6 is over
        # a 4 MiB budget, which the ball search and the dense state fit
        forbid_draws(monkeypatch)
        monkeypatch.setattr(uncertainty, "MEMORY_BUDGET", 2**22)
        with pytest.raises(CapacityError, match="pure-state cross-check"):
            find_minimizer(jordan_wigner(6), 3, 1, budget=2000, seed=0)

    def test_ball_draw_over_budget(self):
        # 1e9 x 3 x 8 bytes = 22 GiB, refused by arithmetic
        with pytest.raises(CapacityError, match="unit-ball"):
            find_minimizer(jordan_wigner(1), 3, 1, budget=10**9, seed=0)

    def test_cli_refuses_over_budget(self, monkeypatch, capsys):
        forbid_draws(monkeypatch)
        assert main(["minimize", "--n", "14", "--K", "3", "--samples", "2000"]) == 1
        assert "memory budget" in capsys.readouterr().err

    def test_n10_is_certified(self):
        # the cross-check's 2000 vectors take 32 MiB, the dense state 16 MiB
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


def branch_slope(g, alpha):
    """The descent's per-term slope as one branching function computed it, kept as the oracle."""
    g = np.clip(g, -1.0 + 1e-12, 1.0 - 1e-12)
    if math.isinf(alpha):
        return -np.sign(g) / ((1.0 + np.abs(g)) * math.log(2.0))
    if abs(alpha - 1.0) < 1e-12:
        return 0.5 * np.log2((1.0 - g) / (1.0 + g))
    if alpha == 2.0:
        return -2.0 * g / ((1.0 + g * g) * math.log(2.0))
    a, c = alpha, alpha - 1.0
    b = np.abs(g)
    s = 1.0 + b
    r = (1.0 - b) / s
    return np.sign(g) * a * np.expm1(c * np.log(r)) / (c * math.log(2.0) * s * (1.0 + r**a))


TABLE_ORDERS = [1.0, 1.0 + 1e-13, 2.0, math.inf, 0.5, 1.5, 3.0]


class TestOrderTable:
    GRID = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12), 5e-324, -5e-324, 1e-310,
         2.2250738585072014e-308, 1.0 + 2.0**-52, -1.0 - 2.0**-52, 0.5, -0.5],
        np.random.default_rng(12).uniform(-1.0, 1.0, 196),
    ])

    @pytest.mark.parametrize("alpha", TABLE_ORDERS)
    def test_term_and_slope_are_the_branch_formulas(self, alpha):
        order = uncertainty._order(alpha)
        for g in (self.GRID, self.GRID.reshape(-1, 7)):
            assert order.term(g).tobytes() == branch_term(g, alpha).tobytes()
            assert order.slope(g).tobytes() == branch_slope(g, alpha).tobytes()
        assert entropy_of_expectations(self.GRID, alpha).tobytes() == (
            branch_term(self.GRID, alpha).tobytes())

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
        assert uncertainty._Order._fields == ("term", "slope", "entropy", "floor")
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
        # Shannon is about 3e-12 for the term and 1e-12 for the entropy, and 6.2e-11 for
        # the slope at |g| <= 0.99 (1.5e-10 at 0.999), by mpmath
        order, shannon = uncertainty._order(alpha), uncertainty._order(1)
        assert order is not shannon
        g = np.random.default_rng(4).uniform(-1.0, 1.0, 100000)
        assert np.max(np.abs(order.term(g) - shannon.term(g))) <= 1e-10
        g *= 0.99
        assert np.max(np.abs(order.slope(g) - shannon.slope(g))) <= 1e-10
        p = [0.5, 0.3, 0.2]
        assert abs(renyi_entropy(p, alpha) - renyi_entropy(p, 1)) <= 1e-10

    @pytest.mark.parametrize("alpha", [4e306, 1e307, 1.7e308])
    def test_huge_order_is_silent(self, alpha):
        # (a - 1) ln r overflows to -inf here, which expm1 takes to the right -1
        order = uncertainty._order(alpha)
        g = np.array([1.0, -1.0, 0.7, 0.9, -0.9, 0.0])
        p = np.array([1.0 - 1e-300, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [order.term(g), order.slope(g), order.entropy(p)]
            renyi_entropy(p, alpha)
        c = alpha - 1.0
        with np.errstate(over="ignore"):
            want = [branch_term(g, alpha), branch_slope(g, alpha),
                    -(np.log2(p.max()) + np.log1p(np.sum(p * np.expm1(c * np.log(p / p.max()))))
                      / (c * math.log(2.0)))]
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]

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
