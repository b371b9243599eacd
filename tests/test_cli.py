"""Command-line contract: exit codes, report schema, determinism, formats."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from cliffcert import (DensityMatrix, __version__, cli, extended_expectations, jordan_wigner,
                       matrix_from_expectations, pauli, random_state_batch, reduce_to_axis,
                       rotors, uncertainty)
from cliffcert.cli import main
from cliffcert.errors import CapacityError
from cliffcert.tolerances import OPTIMIZATION, PSD

SCHEMA_KEYS = {"tool_version", "command", "config", "results", "residuals", "wall_time_ms"}


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


class TestVerify:
    def test_passes_and_exit_zero(self, capsys):
        code, doc = run_json(capsys, ["verify", "--n", "2", "--samples", "60", "--seed", "7"])
        assert code == 0
        assert set(doc) == SCHEMA_KEYS
        assert all(check["passed"] for check in doc["results"])
        assert set(doc["residuals"]) == {c["name"] for c in doc["results"]}

    def test_ball_realization_catches_swapped_weights(self, monkeypatch, capsys):
        real = cli.realize

        def swapped(g, gens):
            psi, weights = real(g, gens)
            return psi, weights[::-1]

        monkeypatch.setattr(cli, "realize", swapped)
        code, doc = run_json(capsys, ["verify", "--n", "3"])
        assert code == 1
        assert [c["name"] for c in doc["results"] if not c["passed"]] == ["ball-realization"]

    def test_n_zero_is_usage_error(self, capsys):
        assert main(["verify", "--n", "0"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["verify", "--bogus"]) == 2

    def test_deterministic_reports(self, tmp_path):
        # identical invocations must agree byte-for-byte apart from wall time
        out = tmp_path / "report.json"
        for command in (
            ["verify", "--n", "2", "--samples", "80", "--seed", "7"],
            ["minimize", "--n", "2", "--K", "5", "--alpha", "inf", "--samples", "3000",
             "--seed", "7"],
            ["sweep", "--n", "2", "--k-min", "1", "--k-max", "5", "--alpha", "1",
             "--samples", "3000", "--seed", "7"],
        ):
            argv = command + ["--format", "json", "--out", str(out)]
            assert main(argv) == 0
            first = out.read_text()
            assert main(argv) == 0
            second = out.read_text()
            doc1, doc2 = json.loads(first), json.loads(second)
            doc1.pop("wall_time_ms")
            doc2.pop("wall_time_ms")
            assert json.dumps(doc1) == json.dumps(doc2)

    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        argv = ["verify", "--n", "2", "--samples", "300", "--seed", "9",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        base = json.loads(out.read_text())
        monkeypatch.setenv("CLIFFCERT_THREADS", "4")
        assert main(argv) == 0
        threaded = json.loads(out.read_text())
        assert threaded["config"]["threads"] == 4
        assert threaded["results"] == base["results"]
        assert threaded["residuals"] == base["residuals"]


def g1_pivot_rotor(gens, coeffs):
    """``_vector_rotor`` with G_1 as the pivot for either sign of c_1: the flip of a
    vector with c_1 < 0 is lost, so its state lands on -G_1."""
    sign = -1.0 if coeffs[1] < 0.0 else 1.0
    m = sign * coeffs
    m[1] += 1.0
    m /= math.sqrt(2.0 * m[1])
    return pauli.apply(gens.actions[1], pauli.scatter(m, gens.actions), "left")


VECTOR_ROTOR = rotors._vector_rotor


def off_axis_rotor(gens, coeffs):
    """``_vector_rotor`` aimed 1e-6 off: c_2 moved by 1e-6 and renormalized."""
    c = coeffs.copy()
    c[2] += 1e-6
    return VECTOR_ROTOR(gens, c / np.linalg.norm(c))


def reduced_by_the_suite(monkeypatch, n, samples):
    """The rotor suite's checks, and each state it reduces with the rotor it builds for
    it; the state is the last matrix the suite measured before it built the rotor."""
    measured, reduced = [], []

    def measure(mat, gens):
        measured.append(mat)
        return extended_expectations(mat, gens)

    def rotor(gens, coeffs):
        u = VECTOR_ROTOR(gens, coeffs)
        reduced.append((measured[-1], u))
        return u

    with monkeypatch.context() as m:
        m.setattr(cli, "extended_expectations", measure)
        m.setattr(rotors, "_vector_rotor", rotor)
        checks = cli._suite_rotors(jordan_wigner(n), np.random.SeedSequence(n), samples)
    return checks, reduced


class TestRotorSuite:
    @pytest.mark.parametrize("seed", [1234, 7])
    def test_flip_branch_runs_at_every_n(self, seed, monkeypatch, capsys):
        monkeypatch.setattr(rotors, "_vector_rotor", g1_pivot_rotor)
        for n in range(1, 9):
            code, doc = run_json(capsys, ["verify", "--n", str(n), "--samples", "50",
                                          "--seed", str(seed)])
            assert code == 1, n
            failed = [c["name"] for c in doc["results"] if not c["passed"]]
            assert failed == ["reduction-constructive"], n

    def test_reduced_states_alternate_the_sign_of_g1(self, monkeypatch):
        for n, samples in ((1, 50), (4, 300), (6, 50)):
            checks, reduced = reduced_by_the_suite(monkeypatch, n, samples)
            assert all(c["passed"] for c in checks)
            gens = jordan_wigner(n)
            signs = [float(np.sign(extended_expectations(mat, gens)[1])) for mat, _ in reduced]
            assert signs == [1.0, -1.0] * (cli._spot_count(samples) // 2)

    def test_rotor_aimed_off_fails_only_the_reduction(self, monkeypatch, capsys):
        # compared as d x d entries of size 1/d, this rotor passed from n = 5 on
        monkeypatch.setattr(rotors, "_vector_rotor", off_axis_rotor)
        for n in range(2, 9):
            code, doc = run_json(capsys, ["verify", "--n", str(n), "--samples", "50",
                                          "--seed", "1234"])
            assert code == 1, n
            failed = {c["name"]: c["residual"] for c in doc["results"] if not c["passed"]}
            assert list(failed) == ["reduction-constructive"], n
            assert 1e-7 <= failed["reduction-constructive"] <= 1e-5, n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_suite_rotor_is_the_library_reduction(self, n, monkeypatch):
        # reduce_to_axis twirls the rotated state onto the G_1 axis; the suite measures
        # it unrotated and untwirled, so tie the two together on the suite's own states
        gens = jordan_wigner(n)
        checks, reduced = reduced_by_the_suite(monkeypatch, n, 200)
        assert all(c["passed"] for c in checks)
        signs = {float(np.sign(extended_expectations(mat, gens)[1])) for mat, _ in reduced}
        assert signs == {1.0, -1.0}
        axis = np.zeros(2 * n + 1)
        for mat, u in reduced:
            # the drawn state, unnormalized: from_matrix would divide by a trace 1 ulp off
            rho_hat, u_lib, _ = reduce_to_axis(DensityMatrix(n, mat), gens)
            assert u_lib.tobytes() == u.tobytes()
            axis[1] = extended_expectations(u @ mat @ u.conj().T, gens)[1]
            assert np.max(np.abs(rho_hat.mat - matrix_from_expectations(axis, gens))) <= 1e-15

    @pytest.mark.parametrize("defect", ["commutes with G_0", "zero"])
    def test_reflection_check_fails_a_wrong_generator_lift(self, defect, monkeypatch):
        # a det +1 generator lift commutes with G_0; U = 0 has U G_0 + G_0 U = 0,
        # and only the Frobenius term reads it
        lift = cli.lift

        def wrong(t, gens):
            if len(t) == 2 * gens.n + 1:
                return lift(t, gens)
            if defect == "zero":
                return np.zeros((2**gens.n, 2**gens.n), dtype=complex)
            t = t.copy()
            t[:, 0] = -t[:, 0]
            return lift(t, gens)

        monkeypatch.setattr(cli, "lift", wrong)
        for n in (1, 3, 5):
            checks = cli._suite_rotors(jordan_wigner(n), np.random.SeedSequence(n), 200)
            failed = {c["name"]: c["residual"] for c in checks if not c["passed"]}
            assert list(failed) == ["rotor-reflection"]
            assert failed["rotor-reflection"] >= 1.0


def nan_at(real, index):
    """``real`` with NaN written at ``index`` of the array it returns (a tuple's first item)."""
    def faulty(*args):
        out = real(*args)
        (out[0] if isinstance(out, tuple) else out)[index] = np.nan
        return out

    return faulty


PROJECTION_CHECKS = ["projection-positivity", "projection-idempotent", "projection-trace"]


class TestNaNFaults:
    @pytest.mark.parametrize("module, name, index, failing", [
        (cli, "lift", ..., ["rotor-lift", "rotor-reflection"]),
        (cli, "realize", (0, 0), ["ball-realization"]),
        (rotors, "_vector_rotor", ..., ["reduction-constructive"]),
        (cli, "matrix_from_expectations", (-1, 0, 0), PROJECTION_CHECKS),
        (cli, "factor_expectations", -1, PROJECTION_CHECKS + ["expectation-ball"]),
        (cli, "bias_entropy_d2", 500, ["concavity-sign", "concavity-curvature-fd"]),
    ], ids=["lift", "realize", "vector-rotor", "render", "factor", "curvature"])
    def test_nan_fails_exactly_its_checks(self, monkeypatch, capsys, module, name, index,
                                          failing):
        monkeypatch.setattr(module, name, nan_at(getattr(module, name), index))
        code, doc = run_json(capsys, ["verify", "--n", "3", "--samples", "50"])
        assert code == 1
        assert [c["name"] for c in doc["results"] if not c["passed"]] == failing
        assert all(math.isnan(doc["residuals"][check]) for check in failing)


class TestMinimize:
    def test_shannon_case(self, capsys):
        code, doc = run_json(
            capsys,
            ["minimize", "--n", "1", "--K", "3", "--alpha", "1",
             "--samples", "20000", "--seed", "3"],
        )
        assert code == 0
        results = doc["results"]
        assert results["numeric_min"] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert abs(results["gap"]) <= 1e-6
        assert results["bound_kind"] == "exact-minimum"

    def test_collision_case_n2_k5(self, capsys):
        code, doc = run_json(
            capsys,
            ["minimize", "--n", "2", "--K", "5", "--alpha", "2",
             "--samples", "20000", "--seed", "3"],
        )
        assert code == 0
        expected = 1.0 - math.log2(1.2)
        assert doc["results"]["numeric_min"] == pytest.approx(expected, abs=1e-6)

    def test_alpha_inf_round_trips(self, capsys):
        code, doc = run_json(
            capsys,
            ["minimize", "--n", "2", "--K", "4", "--alpha", "inf",
             "--samples", "5000", "--seed", "3"],
        )
        assert code == 0
        assert doc["config"]["alpha"] == "inf"
        assert doc["results"]["bound_kind"] == "exact-minimum"

    def test_k_exceeding_extended_set(self, capsys):
        assert main(["minimize", "--n", "2", "--K", "6"]) == 2

    def test_missing_k(self):
        assert main(["minimize", "--n", "2"]) == 2

    def test_bad_alpha(self):
        assert main(["minimize", "--n", "1", "--K", "2", "--alpha", "fast"]) == 2

    @pytest.mark.parametrize("command", [["minimize", "--K", "2"], ["sweep", "--k-min", "1", "--k-max", "2"]])
    def test_nan_alpha_is_usage_error(self, command):
        assert main(command + ["--n", "1", "--alpha", "nan", "--samples", "100"]) == 2

    def test_nan_alpha_names_the_order(self, capsys):
        # --alpha is parsed by the library's rule, which refuses NaN as not positive
        assert main(["minimize", "--n", "1", "--K", "2", "--alpha", "nan"]) == 2
        assert "argument --alpha: Renyi order must be positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["-1", "0", "-inf"])
    @pytest.mark.parametrize("command", [["minimize", "--K", "2"], ["sweep", "--k-min", "1", "--k-max", "2"]])
    def test_non_positive_alpha_is_usage_error(self, command, alpha, capsys):
        # the "--alpha=" spelling; main joins "--alpha -inf" into it (tested below)
        assert main(command + ["--n", "1", f"--alpha={alpha}", "--samples", "100"]) == 2
        assert "argument --alpha: Renyi order must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", [["--alpha", "-inf"], ["--alpha=-inf"]])
    @pytest.mark.parametrize("command", [["minimize", "--K", "2"], ["sweep", "--k-min", "1", "--k-max", "2"]])
    def test_minus_inf_alpha_names_the_order(self, command, spelling, capsys):
        assert main(command + ["--n", "1", *spelling, "--samples", "100"]) == 2
        assert "argument --alpha: Renyi order must be positive, got -inf" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["inf", "0.5", "Infinity", "INF"])
    @pytest.mark.parametrize("command", [["minimize", "--K", "2"], ["sweep", "--k-min", "1", "--k-max", "2"]])
    def test_positive_alpha_accepted(self, command, alpha):
        assert main(command + ["--n", "1", "--alpha", alpha, "--samples", "100", "--format", "json"]) == 0


class TestSweep:
    def test_shannon_closed_form_column(self, capsys):
        code = main(
            ["sweep", "--n", "4", "--alpha", "1", "--k-min", "2", "--k-max", "9",
             "--samples", "2000", "--seed", "5", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "K,alpha,closed_form,numeric_min,gap"
        rows = [line.split(",") for line in lines[1:]]
        ks = [int(r[0]) for r in rows]
        assert ks == list(range(2, 10))
        closed = [float(r[2]) for r in rows]
        for k, val in zip(ks, closed):
            assert val == pytest.approx(1.0 - 1.0 / k, abs=1e-12)
        assert closed == sorted(closed)
        gaps = [float(r[4]) for r in rows]
        assert all(abs(g) <= 1e-6 for g in gaps)

    def test_k1_collision_is_zero(self, capsys):
        code, doc = run_json(
            capsys,
            ["sweep", "--n", "1", "--alpha", "2", "--k-min", "1", "--k-max", "1",
             "--samples", "500", "--seed", "5"],
        )
        assert code == 0
        assert doc["results"][0]["closed_form"] == 0.0

    @pytest.mark.parametrize("alpha", ["1", "2", "inf"])
    def test_k1_zeros_are_positive(self, alpha, capsys):
        # the K = 1 closed form at alpha = inf and 2 once printed as -0.0
        argv = ["sweep", "--n", "2", "--k-min", "1", "--k-max", "2", "--alpha", alpha]
        assert main(argv + ["--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2:] == ["0.0", "0.0", "0.0"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        first = doc["results"][0]
        for key in ("closed_form", "numeric_min", "gap", "cross_check_min"):
            assert math.copysign(1.0, first[key]) == 1.0 and first[key] == 0.0, key

    def test_bad_range(self):
        assert main(["sweep", "--n", "2", "--alpha", "1", "--k-min", "3", "--k-max", "2"]) == 2
        assert main(["sweep", "--n", "2", "--alpha", "1", "--k-min", "1", "--k-max", "7"]) == 2
        assert main(["sweep", "--n", "2", "--alpha", "1"]) == 2


class TestBench:
    def test_bench_document(self, capsys):
        code, doc = run_json(capsys, ["bench", "--seed", "1"])
        assert code == 0
        results = doc["results"]
        assert results["agreement"]["mismatches"] == 0
        assert results["single_product_n10000_seconds"] < 1.0
        ns = [row["n"] for row in results["symplectic"]]
        assert ns == [1000, 10000, 100000]


class TestFormats:
    def test_text_verify(self, capsys):
        assert main(["verify", "--n", "1", "--samples", "40", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "wall time" in out

    def test_csv_verify_header(self, capsys):
        assert main(["verify", "--n", "1", "--samples", "40", "--format", "csv"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "check,passed,residual"

    def test_minimize_csv(self, capsys):
        code = main(["minimize", "--n", "1", "--K", "3", "--alpha", "1",
                     "--samples", "2000", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,K,alpha,closed_form")

    def test_tolerance_override_logged(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--n", "1", "--samples", "40", "--tol-psd", "1e-8"],
        )
        assert code == 0
        assert doc["config"]["tolerance_overrides"] == ["tol_psd"]
        assert doc["config"]["tol_psd"] == 1e-8


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "1", "--samples", "40", "--seed", "-1"],
        ["minimize", "--n", "1", "--K", "2", "--samples", "100", "--seed", "-3"],
        ["bench", "--seed", "-1"],
    ])
    def test_negative_seed_is_usage_error(self, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_tol_opt_is_usage_error(self, value):
        argv = ["minimize", "--n", "2", "--K", "5", "--alpha", "2", "--samples", "200"]
        assert main(argv + ["--tol-opt", value]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tol_psd_is_usage_error(self, value):
        assert main(["verify", "--n", "1", "--samples", "40", "--tol-psd", value]) == 2

    @pytest.mark.parametrize("where", ["missing_dir/x.json", "."])
    def test_unwritable_out_is_refused_before_the_run(self, tmp_path, monkeypatch, capsys, where):
        def no_run(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "sweep", no_run)
        out = tmp_path / where
        argv = ["sweep", "--n", "2", "--k-min", "1", "--k-max", "3", "--alpha", "2",
                "--samples", "2000", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}")
        assert list(tmp_path.iterdir()) == []

    def test_write_failure_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # a directory that vanishes between the check and the write
        monkeypatch.setattr(cli, "_out_problem", lambda path: None)
        out = tmp_path / "missing_dir" / "x.json"
        assert main(["verify", "--n", "1", "--samples", "40", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}")


def shift_gaps(monkeypatch, shift, field="gap"):
    """Move every minimizer report's ``field`` by ``shift``, as the CLI sees it."""
    def moved(report):
        return dataclasses.replace(report, **{field: getattr(report, field) + shift})

    real_one, real_many = cli.find_minimizer, cli.find_minimizers
    monkeypatch.setattr(cli, "find_minimizer", lambda *args: moved(real_one(*args)))
    monkeypatch.setattr(cli, "find_minimizers", lambda *args: [moved(r) for r in real_many(*args)])


class TestExitCheck:
    @pytest.mark.parametrize("command", [
        ["minimize", "--n", "2", "--K", "5", "--alpha", "2"],
        ["minimize", "--n", "1", "--K", "3", "--alpha", "1"],
        ["sweep", "--n", "1", "--k-min", "1", "--k-max", "3", "--alpha", "1"],
    ])
    def test_above_exact_minimum_fails(self, monkeypatch, command):
        argv = command + ["--samples", "2000", "--seed", "3", "--format", "json"]
        shift_gaps(monkeypatch, 0.5 * OPTIMIZATION)
        assert main(argv) == 0
        shift_gaps(monkeypatch, 2.0 * OPTIMIZATION)
        assert main(argv) == 1

    @pytest.mark.parametrize("command, residual", [
        (["minimize", "--n", "2", "--K", "5", "--alpha", "2"], "bound_gap"),
        (["sweep", "--n", "1", "--k-min", "1", "--k-max", "3", "--alpha", "1"], "max_abs_gap"),
    ])
    def test_nan_gap_fails(self, monkeypatch, capsys, command, residual):
        shift_gaps(monkeypatch, math.nan)
        code, doc = run_json(capsys, command + ["--samples", "2000", "--seed", "3"])
        assert code == 1
        assert math.isnan(doc["residuals"][residual])

    def test_tiny_tolerance_fails_a_positive_gap(self, capsys):
        argv = ["minimize", "--n", "2", "--K", "5", "--alpha", "2", "--samples", "2000",
                "--seed", "3", "--format", "json"]
        assert main(argv) == 0
        gap = json.loads(capsys.readouterr().out)["results"]["gap"]
        assert gap > 0.0
        assert main(argv + ["--tol-opt", repr(gap / 2)]) == 1

    def test_failed_sweep_reports_its_largest_gap(self, capsys):
        # rows above the bound fail at a zero tolerance; the residual names the gap
        argv = ["sweep", "--n", "2", "--k-min", "1", "--k-max", "5", "--alpha", "2",
                "--samples", "2000", "--seed", "3", "--tol-opt", "0"]
        code, doc = run_json(capsys, argv)
        residuals = doc["residuals"]
        assert residuals["max_abs_gap"] == max(abs(row["gap"]) for row in doc["results"])
        assert code == int(residuals["max_abs_gap"] > 0.0) == 1
        assert "max_bound_violation" in residuals

    def test_alpha_inf_is_two_sided(self, monkeypatch):
        shift_gaps(monkeypatch, 2.0 * OPTIMIZATION)
        assert main(["minimize", "--n", "2", "--K", "4", "--alpha", "inf",
                     "--samples", "2000", "--seed", "3", "--format", "json"]) == 1


MINIMIZE_N2 = ["minimize", "--n", "2", "--K", "5", "--alpha", "2", "--samples", "2000",
               "--seed", "3"]
SWEEP_N2 = ["sweep", "--n", "2", "--k-min", "1", "--k-max", "5", "--alpha", "2",
            "--samples", "2000", "--seed", "3"]


class TestDescentAndCrossCheck:
    def test_reports_say_how_the_descents_ended(self, capsys):
        code, doc = run_json(capsys, MINIMIZE_N2)
        assert code == 0 and set(doc) == SCHEMA_KEYS
        results, residuals = doc["results"], doc["residuals"]
        assert results["converged"] is True and len(results["descent_steps"]) == 2
        assert residuals["cross_check_gap"] == (
            results["cross_check_min"] - results["closed_form_bound"])
        code, doc = run_json(capsys, SWEEP_N2)
        assert code == 0 and set(doc) == SCHEMA_KEYS
        rows = doc["results"]
        assert all(row["converged"] is True for row in rows)
        assert doc["residuals"]["max_abs_cross_check_gap"] == max(
            abs(row["cross_check_min"] - row["closed_form"]) for row in rows)

    @pytest.mark.parametrize("argv", [MINIMIZE_N2, SWEEP_N2,
                                      ["minimize", "--n", "2", "--K", "5", "--alpha", "3"]])
    def test_a_descent_cut_at_max_iter_fails(self, monkeypatch, argv):
        assert main(argv + ["--format", "json"]) == 0
        real = uncertainty._projected_descent
        monkeypatch.setattr(uncertainty, "_projected_descent",
                            lambda g0, order: real(g0, order, max_iter=1))
        assert main(argv + ["--format", "json"]) == 1

    @pytest.mark.parametrize("argv", [MINIMIZE_N2, SWEEP_N2])
    def test_cross_check_off_the_bound_fails(self, monkeypatch, capsys, argv):
        shift_gaps(monkeypatch, 0.5 * OPTIMIZATION, "cross_check_min")
        assert main(argv + ["--format", "json"]) == 0
        capsys.readouterr()
        shift_gaps(monkeypatch, -2.5 * OPTIMIZATION, "cross_check_min")  # -2 tol_opt in all
        code, doc = run_json(capsys, argv)
        assert code == 1
        residuals = doc["residuals"]
        gap = residuals["cross_check_gap" if argv[0] == "minimize" else "max_abs_cross_check_gap"]
        assert abs(gap) > OPTIMIZATION


class TestLargeOrder:
    """General orders far above 1075, where a power sum of probabilities underflows to 0."""

    @pytest.mark.parametrize("command", [
        ["minimize", "--n", "2", "--K", "5"],
        ["sweep", "--n", "2", "--k-min", "1", "--k-max", "5"],
    ])
    def test_alpha_1e6_runs(self, capsys, command):
        code, doc = run_json(capsys, command + ["--alpha", "1e6", "--samples", "2000"])
        assert code == 0
        rows = doc["results"] if command[0] == "sweep" else [doc["results"]]
        for row in rows:
            # H_alpha lies between H_inf and alpha/(alpha - 1) H_inf, so the
            # minimum lies just above the min-entropy's
            floor = 1.0 - math.log2(1.0 + 1.0 / math.sqrt(row["K"]))
            assert row["numeric_min"] >= floor - 1e-12
            assert row["numeric_min"] <= floor * (1.0 + 2e-6) + 1e-9


def forbid_sampling(monkeypatch):
    def no_draw(*args):
        raise AssertionError("verify sampled states")

    monkeypatch.setattr(cli, "random_state_batch", no_draw)
    monkeypatch.setattr(cli, "_ginibre_chunks", no_draw)


class TestVerifyMemory:
    def test_n13_at_default_samples_is_refused(self, monkeypatch, capsys):
        # the rotor suite's 4 Hilbert-Schmidt states at n = 13 and three one-state
        # chunks of temporaries, 7 x 8192**2 x 16 bytes, are 7 GiB against the 4 GiB
        # budget; three one-state projection slices are 3 GiB
        forbid_sampling(monkeypatch)
        assert main(["verify", "--n", "13"]) == 1
        assert "rotor suite" in capsys.readouterr().err

    def test_n11_at_default_samples_fits_by_arithmetic(self, monkeypatch):
        # three one-state slices at n = 11, 3 x 2048**2 x 16 bytes = 192 MiB, and the
        # rotor suite's 4 states and 3 slices, 448 MiB; at n = 12, 0.75 and 1.75 GiB
        forbid_sampling(monkeypatch)
        for n in (11, 12):
            cli._check_projection_memory(n, 200, 1)

    def test_chunks_in_flight_count(self, monkeypatch, capsys):
        # one 256-state chunk at n = 3 holds three 256-state slices,
        # 3 x 256 x 64 x 16 bytes: 0.75 MiB, two 1.5 MiB, against 1 MiB
        monkeypatch.setattr(cli, "MEMORY_BUDGET", 2**20)
        # two chunks in flight whatever the machine's CPU count
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["verify", "--n", "3", "--samples", "512", "--format", "json"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("CLIFFCERT_THREADS", "2")
        forbid_sampling(monkeypatch)
        assert main(argv) == 1
        assert "memory budget" in capsys.readouterr().err

    def test_rotor_batch_is_refused_before_any_suite(self, monkeypatch, capsys):
        # 200000 Hilbert-Schmidt states at n = 6: 200000 x 4096 x 16 bytes = 12 GiB
        def no_run(*args, **kwargs):
            raise AssertionError("verify ran a suite")

        class NoSpawn:
            def __init__(self, *args, **kwargs):
                pass

            spawn = no_run

        monkeypatch.setattr(cli, "random_state_batch", no_run)
        monkeypatch.setattr(cli.np.random, "SeedSequence", NoSpawn)
        assert main(["verify", "--n", "6", "--samples", "10000000"]) == 1
        assert "rotor suite" in capsys.readouterr().err

    def test_chunk_seeds_are_refused_before_any_is_built(self, monkeypatch, capsys):
        # 390625000 chunks: a 3 GB list of sizes, then about 146 GB of spawned seeds
        def no_chunks(*args, **kwargs):
            raise AssertionError("verify built its chunks")

        class NoSpawn:
            def __init__(self, *args, **kwargs):
                pass

            spawn = no_chunks

        monkeypatch.setattr(cli.np.random, "SeedSequence", NoSpawn)
        monkeypatch.setattr(cli, "_chunk_sizes", no_chunks)
        assert main(["verify", "--n", "1", "--samples", "100000000000"]) == 1
        assert "memory budget" in capsys.readouterr().err


class TestProjectionSuite:
    def test_chunk_holds_at_most_two_stacks(self):
        # 256 states at n = 6: the states and their draw, then the projection alone
        stack = 256 * 64**2 * 16
        gens = jordan_wigner(6)
        gens.actions  # cached tables, built before the trace
        tracemalloc.start()
        try:
            checks = cli._suite_projection(gens, np.random.SeedSequence(5), 256, PSD, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c["passed"] for c in checks)
        assert peak <= 2 * stack

    @pytest.mark.parametrize("n", [7, 8])
    def test_chunk_holds_a_few_slices(self, n):
        # 256 states: at most three slices of 2 MiB of factors (the next factors
        # beside the last projection; 2.26 traced at n = 7, 2.51 at n = 8), nothing
        # the size of the chunk
        gens = jordan_wigner(n)
        gens.actions, gens.pairings  # cached tables, built before the trace
        slice_bytes = cli._block_rows(16 * 4**n) * 16 * 4**n
        tracemalloc.start()
        try:
            checks = cli._suite_projection(gens, np.random.SeedSequence(5), 256, PSD, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c["passed"] for c in checks)
        assert peak <= cli._PROJECTION_SLICES * slice_bytes + 2**20

    def test_builds_no_hilbert_schmidt_state(self, monkeypatch):
        def no_states(*args):
            raise AssertionError("the projection suite built Hilbert-Schmidt states")

        monkeypatch.setattr(cli, "random_state_batch", no_states)
        for n in (1, 4, 7):
            checks = cli._suite_projection(jordan_wigner(n), np.random.SeedSequence(n), 40, PSD, 1)
            assert all(c["passed"] for c in checks)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_measures_the_states_of_the_hilbert_schmidt_batch(self, n, monkeypatch):
        # the factors' expectations are those of random_state_batch's states at the
        # chunk's seed, up to rounding; at n = 6 and 7 they span several slices
        gens = jordan_wigner(n)
        seen = []
        real = cli.matrix_from_expectations

        def record(g, gens):
            seen.append(g)
            return real(g, gens)

        monkeypatch.setattr(cli, "matrix_from_expectations", record)
        cli._suite_projection(gens, np.random.SeedSequence(n), 40, PSD, 1)
        seed = np.random.SeedSequence(n).spawn(1)[0]
        want = extended_expectations(random_state_batch(n, 40, seed), gens)
        got = np.concatenate(seen)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_idempotency_sees_a_dropped_generator(self, monkeypatch, capsys):
        # a renderer that drops G_2 renders its own output back the same way, so
        # only the expectations of the projection reveal it
        real = cli.matrix_from_expectations

        def without_g2(g, gens):
            g = np.array(g, dtype=float)
            g[..., 2] = 0.0
            return real(g, gens)

        monkeypatch.setattr(cli, "matrix_from_expectations", without_g2)
        code, doc = run_json(capsys, ["verify", "--n", "2", "--samples", "40"])
        check = next(c for c in doc["results"] if c["name"] == "projection-idempotent")
        assert code == 1 and not check["passed"]
        assert check["residual"] > 0.01


class FakePool:
    """A ``ThreadPoolExecutor`` stand-in that records ``max_workers`` and starts no thread."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestThreadPool:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(FakePool, "workers", [])
        monkeypatch.setattr(cli, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        return FakePool.workers

    def test_pool_is_capped_by_the_cpus(self, pool):
        # 3,907 chunks of a million states: one thread each, up to the requested 100000
        items = list(range(len(cli._chunk_sizes(1_000_000))))
        assert cli._map_chunks(lambda i: i + 1, items, 100_000) == [i + 1 for i in items]
        assert pool == [3]

    def test_pool_is_capped_by_the_chunks(self, pool):
        assert cli._map_chunks(abs, [-1, -2], 100_000) == [1, 2]
        assert cli._map_chunks(abs, [-1], 100_000) == [1]
        assert pool == [2]

    def test_config_keeps_the_requested_threads(self, pool, monkeypatch, capsys):
        monkeypatch.setenv("CLIFFCERT_THREADS", "100000")
        code, doc = run_json(capsys, ["verify", "--n", "1", "--samples", "1024"])
        assert code == 0 and doc["config"]["threads"] == 100_000
        assert pool == [3]

    def test_memory_check_counts_the_capped_pool(self, pool, monkeypatch):
        # three 256-state chunks at n = 3 fit the budget, four do not
        monkeypatch.setattr(cli, "MEMORY_BUDGET", 3 * (256 * 8 + 3 * 256 * 16) * 64)
        cli._check_projection_memory(3, 4 * 256, 100_000)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        with pytest.raises(CapacityError):
            cli._check_projection_memory(3, 4 * 256, 100_000)


class TestProjectionPositivity:
    @staticmethod
    def forbid(monkeypatch, *names):
        def no_call(*args, **kwargs):
            raise AssertionError("a factorization or eigensolver ran")

        for name in names:
            monkeypatch.setattr(np.linalg, name, no_call)

    def test_probes_alone_decide_passing_states(self, monkeypatch, capsys):
        self.forbid(monkeypatch, "cholesky", "eigvalsh")
        for n in range(1, 9):
            code, doc = run_json(capsys, ["verify", "--n", str(n)])
            assert code == 0
            assert doc["residuals"]["projection-positivity"] == 0.0

    def test_state_outside_the_ball_is_sized_by_its_norm(self, monkeypatch, capsys):
        # one state of the chunk moved to |g| = 1.5 and rendered in Bloch form: the
        # probes certify A**2 = 2.25 * 1, so its least eigenvalue (1 - 1.5)/d is
        # read from |g| and no eigensolver runs
        eigvalsh = np.linalg.eigvalsh
        self.forbid(monkeypatch, "cholesky", "eigvalsh")
        real_factor, real_render = cli.factor_expectations, cli.matrix_from_expectations
        chunks = []

        def outside(w, gens):
            g = real_factor(w, gens)
            g[len(g) // 2] *= 1.5 / np.linalg.norm(g[len(g) // 2])
            return g

        def render(g, gens):
            chunks.append(real_render(g, gens))
            return chunks[-1]

        monkeypatch.setattr(cli, "factor_expectations", outside)
        monkeypatch.setattr(cli, "matrix_from_expectations", render)
        code, doc = run_json(capsys, ["verify", "--n", "3", "--samples", "40"])
        check = next(c for c in doc["results"] if c["name"] == "projection-positivity")
        assert code == 1 and not check["passed"]
        assert len(chunks) == 1
        assert abs(check["residual"] - (1.5 - 1.0) / 8) <= 1e-15
        assert abs(check["residual"] + eigvalsh(chunks[0])[:, 0].min()) <= 1e-15

    def test_perturbed_state_is_factored_and_passes(self, monkeypatch, capsys):
        # a positive perturbation (1e-6/d) x x^H of one state, x the uniform unit
        # vector, breaks A**2 = |g|**2 * 1 far above the rounding bound, so that
        # state alone is factored, and it passes
        cholesky = np.linalg.cholesky
        factored = []

        def record(a):
            factored.append(len(a))
            return cholesky(a)

        self.forbid(monkeypatch, "eigvalsh")
        monkeypatch.setattr(np.linalg, "cholesky", record)
        real = cli.matrix_from_expectations

        def perturbed(g, gens):
            out = real(g, gens)
            d = out.shape[-1]
            out[len(out) // 2] += 1e-6 / d**2
            return out

        monkeypatch.setattr(cli, "matrix_from_expectations", perturbed)
        code, doc = run_json(capsys, ["verify", "--n", "3", "--samples", "40"])
        check = next(c for c in doc["results"] if c["name"] == "projection-positivity")
        assert check["passed"] and check["residual"] == 0.0
        assert factored == [1]

    def test_indefinite_matrix_is_sized_by_eigvalsh(self, monkeypatch, capsys):
        # a trace-one Hermitian matrix with eigenvalues (-0.25, 0.25, 0.4, 0.6)
        u, _ = np.linalg.qr(np.arange(16.0).reshape(4, 4) ** 1.5 + 1j * np.eye(4))
        bad = (u * [-0.25, 0.25, 0.4, 0.6]) @ u.conj().T
        real = cli.matrix_from_expectations
        chunks = []

        def with_bad(g, gens):
            out = real(g, gens)
            if out.ndim == 3:  # a projection chunk, not the rotor suite's single state
                out[len(out) // 2] = bad
                chunks.append(out)
            return out

        monkeypatch.setattr(cli, "matrix_from_expectations", with_bad)
        code, doc = run_json(capsys, ["verify", "--n", "2", "--samples", "40"])
        check = next(c for c in doc["results"] if c["name"] == "projection-positivity")
        assert code == 1 and not check["passed"]
        assert check["residual"] == -np.linalg.eigvalsh(chunks[0])[:, 0].min()
        assert check["residual"] == pytest.approx(0.25, abs=1e-14)


def config_items(**given):
    config = {"n": 2, "K": None, "alpha": 1.0, "samples": 200, "seed": 1234, "k_min": None,
              "k_max": None, "tol_psd": PSD, "tol_opt": OPTIMIZATION, "format": "json",
              "out": None, "threads": 1, "tolerance_overrides": []}
    assert set(given) <= set(config)
    return list({**config, **given}.items())


def text_lines(capsys, argv):
    code = main(argv + ["--format", "text"])
    return code, capsys.readouterr().out.splitlines()


class TestContract:
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "1", "--samples", "40", "--K", "3"],
        ["verify", "--n", "1", "--samples", "40", "--alpha", "2"],
        ["bench", "--n", "3"],
        ["minimize", "--n", "2", "--K", "3", "--samples", "100", "--k-min", "1"],
        ["sweep", "--n", "1", "--k-min", "1", "--k-max", "2", "--samples", "100",
         "--tol-psd", "1e-8"],
    ])
    def test_commands_reject_flags_they_do_not_read(self, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("argv, given", [
        (["verify"], {}),
        (["minimize", "--K", "3"], {"K": 3}),
        (["sweep", "--k-min", "1", "--k-max", "2"], {"k_min": 1, "k_max": 2}),
        (["bench"], {}),
    ])
    def test_config_at_defaults(self, monkeypatch, capsys, argv, given):
        monkeypatch.delenv("CLIFFCERT_THREADS", raising=False)
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert list(doc["config"].items()) == config_items(**given)

    def test_text_verify_marks_pass_and_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "conjugation_residual", lambda *args: 1.0)
        code, lines = text_lines(capsys, ["verify", "--n", "1", "--samples", "40"])
        assert code == 1
        assert lines[0] == f"cliffcert {__version__} :: verify"
        assert lines[1].split() == ["check", "passed", "residual"]
        status = {line.split()[0]: line.split()[1] for line in lines[2:-1]}
        assert status.pop("rotor-lift") == "FAIL"
        assert set(status.values()) == {"PASS"} and len(status) == 13
        assert re.fullmatch(r"  wall time: \d+\.\d ms", lines[-1])

    @pytest.mark.parametrize("argv, header, count", [
        (["minimize", "--n", "2", "--K", "5", "--alpha", "2", "--samples", "2000"],
         "n K alpha closed_form numeric_min gap samples seed", 1),
        (["sweep", "--n", "2", "--k-min", "1", "--k-max", "5", "--alpha", "1",
          "--samples", "2000"], "K alpha closed_form numeric_min gap", 5),
        (["bench"], "section n metric value", 4),
    ])
    def test_text_is_the_csv_table_aligned(self, capsys, argv, header, count):
        code, lines = text_lines(capsys, argv)
        assert code == 0
        assert lines[0] == f"cliffcert {__version__} :: {argv[0]}"
        assert lines[1].split() == header.split()
        assert len(lines) == count + 3
        assert re.fullmatch(r"  wall time: \d+\.\d ms", lines[-1])
        if argv[0] != "bench":  # bench's timings differ from run to run
            assert main(argv + ["--format", "csv"]) == 0
            csv_rows = capsys.readouterr().out.splitlines()
            assert [line.split() for line in lines[1:-1]] == [r.split(",") for r in csv_rows]
