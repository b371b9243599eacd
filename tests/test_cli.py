"""Command-line contract: exit codes, report schema, determinism, formats."""

import json
import math

import pytest

from cliffcert.cli import main

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
        assert doc["results"]["bound_kind"] == "proven-lower-bound"

    def test_k_exceeding_extended_set(self, capsys):
        assert main(["minimize", "--n", "2", "--K", "6"]) == 2

    def test_missing_k(self):
        assert main(["minimize", "--n", "2"]) == 2

    def test_bad_alpha(self):
        assert main(["minimize", "--n", "1", "--K", "2", "--alpha", "fast"]) == 2

    @pytest.mark.parametrize("command", [["minimize", "--K", "2"], ["sweep", "--k-min", "1", "--k-max", "2"]])
    def test_nan_alpha_is_usage_error(self, command):
        assert main(command + ["--n", "1", "--alpha", "nan", "--samples", "100"]) == 2


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
