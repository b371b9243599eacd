"""Tests of the benchmark itself: tasks, output checks, memory pre-flight, tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibration as cal  # noqa: E402
import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

cc = importlib.import_module("cliffcert")
importlib.import_module("cliffcert.cli")

# One small task of every kind, so the tracer sees every layer quickly.
SMALL = [
    wl.Task("verify", ("verify", "--n", "2", "--samples", "60", "--seed", "7")),
    wl.Task("minimize", ("minimize", "--n", "2", "--K", "5", "--alpha", "2",
                         "--samples", "2000", "--seed", "3")),
    wl.Task("sweep", ("sweep", "--n", "1", "--k-min", "1", "--k-max", "3", "--alpha", "inf",
                      "--samples", "2000", "--seed", "3")),
    wl.Task("graded", matrix=wl._hs_state(np.random.default_rng(0), 2)),
]
BUDGET = 8 * 2**30


def _same_tasks(a, b) -> bool:
    return all(x.label == y.label and x.argv == y.argv
               and (x.is_cli or np.array_equal(x.matrix, y.matrix)) for x, y in zip(a, b))


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_one_seed_gives_one_task_list(workload):
    first = wl.make_tasks(workload, 5)
    assert len(first) in (3, 3 * wl.SWEEP_SEEDS, wl.GRADED_STATES)
    assert _same_tasks(first, wl.make_tasks(workload, 5))
    assert not _same_tasks(first, wl.make_tasks(workload, 6))


@pytest.mark.parametrize("task", SMALL[:3], ids=lambda t: t.label)
def test_reports_identical_apart_from_wall_time(task):
    docs = []
    for _ in range(2):
        code, text = wl.run_cli(cc.cli, task.argv)
        assert code == 0
        doc = json.loads(text)
        doc.pop("wall_time_ms")
        docs.append(json.dumps(doc))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("task", SMALL, ids=lambda t: t.label)
def test_small_tasks_pass_their_checks(task):
    assert wl.run_task(cc, task, BUDGET) == []


def _report(task):
    return json.loads(wl.run_cli(cc.cli, task.argv)[1])


def test_minimize_check_is_two_sided():
    doc = _report(SMALL[1])
    assert wl.check_cli(SMALL[1].argv, doc, cc.tolerances) == []
    bound = doc["results"]["closed_form_bound"]
    for key, shift in (("numeric_min", 1e-3), ("numeric_min", -1e-3), ("cross_check_min", 1e-3)):
        bad = json.loads(json.dumps(doc))
        bad["results"][key] = bound + shift
        assert wl.check_cli(SMALL[1].argv, bad, cc.tolerances), (key, shift)
    loose = json.loads(json.dumps(doc))
    loose["config"]["tol_opt"] = 1.0
    assert wl.check_cli(SMALL[1].argv, loose, cc.tolerances)


def test_sweep_and_verify_checks_catch_failures():
    doc = _report(SMALL[2])
    doc["results"][-1]["numeric_min"] = doc["results"][-1]["closed_form"] + 1e-3
    assert wl.check_cli(SMALL[2].argv, doc, cc.tolerances)
    doc = _report(SMALL[0])
    doc["results"][0]["passed"] = False
    assert wl.check_cli(SMALL[0].argv, doc, cc.tolerances)


def test_graded_checks_catch_failures(monkeypatch):
    task = SMALL[3]
    with monkeypatch.context() as m:
        m.setattr(cc.GradedExpansion, "reconstruct", lambda self, gens: 0.0 * task.matrix)
        assert any("round trip" in e for e in wl.run_task(cc, task, BUDGET))
    with monkeypatch.context() as m:
        m.setattr(cc, "project_bloch", lambda rho, gens: rho)
        assert any("project_bloch" in e for e in wl.run_task(cc, task, BUDGET))
    with monkeypatch.context() as m:
        real = cc.gvector
        m.setattr(cc, "gvector", lambda rho, gens: cc.GVector(gens.n, 2.0 * real(rho, gens).values))
        m.setattr(cc, "from_gvector", lambda g, gens: cc.DensityMatrix.from_matrix(task.matrix))
        assert any("unit ball" in e for e in wl.run_task(cc, task, BUDGET))


def test_memory_preflight_by_arithmetic():
    task = wl.Task("m", ("minimize", "--n", "6", "--K", "13", "--alpha", "inf",
                         "--samples", "20000", "--seed", "1"))
    # three 2000 x 64 x 64 complex arrays: 375 MiB, under the 418 MiB measured peak
    assert wl.peak_bytes(task) == 3 * 2000 * 64 * 64 * 16
    wl.preflight(task, BUDGET)
    big = wl.Task("m", ("minimize", "--n", "10", "--K", "13", "--alpha", "inf",
                        "--samples", "20000", "--seed", "1"))
    assert wl.peak_bytes(big) > BUDGET
    with pytest.raises(wl.MemoryBudgetError):
        wl.preflight(big, BUDGET)


def test_reference_speed_scaling():
    assert cal.to_reference(2.0, (cal.REFERENCE_S, cal.REFERENCE_S)) == pytest.approx(2.0)
    assert cal.to_reference(2.0, (2 * cal.REFERENCE_S,)) == pytest.approx(1.0)
    assert cal.to_reference(2.0, (cal.REFERENCE_S, 3 * cal.REFERENCE_S)) == pytest.approx(1.0)
    assert cal.loop_s() > 0.0


def _traced_pass():
    with tr.Tracer(cc) as tracer:
        done = worker.Pass(cc, SMALL, BUDGET, tracer)
    return done, tracer


def test_traced_counts_repeat_and_self_times_fit_in_wall_time():
    first, t1 = _traced_pass()
    second, t2 = _traced_pass()
    assert first.failures == [] and second.failures == []
    m1, m2 = tr.layer_metrics(t1.spans), tr.layer_metrics(t2.spans)
    assert worker._counts(m1) == worker._counts(m2)
    for done, tracer in ((first, t1), (second, t2)):
        assert sum(s[6] for s in tracer.spans) <= done.wall
    # every layer, and each wrapped class member, is seen
    for name in ("pauli.to_dense.calls", "pauli.mul.calls", "clifford.dense_extended.builds",
                 "clifford.graded_basis.calls", "states.random_state_batch.states",
                 "states.extended_expectations.rows", "states.from_matrix.calls",
                 "states.reconstruct.calls", "rotors.lift.angles", "rotors.flip_unitary.calls",
                 "uncertainty.find_minimizer.calls", "uncertainty.entropy_of_expectations.rows",
                 "cli.main.calls"):
        assert m1[name] > 0, name
    assert m1["cli.main.calls"] == 3
    assert 0.0 < m1["rotors.plane_rotor.pseudo_share"] < 1.0
    assert 0.0 < m1["pauli.to_dense.distinct_ratio"] <= 1.0
    assert m1["cli.cmd_verify.self_s"] > 0.0
    assert set(m1) == {name for name, _, _ in tr.METRICS} - {"trace.overhead_s"}


def _bindings():
    mods = [cc, *(getattr(cc, layer) for layer in tr.LAYERS)]
    out = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    out.update({("commands", k): id(v) for k, v in cc.cli._COMMANDS.items()})
    for mod, cls, attr, _ in tr.MEMBERS:
        out[(cls, attr)] = id(getattr(cc, mod).__dict__[cls].__dict__[attr])
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    original = cc.states.extended_expectations
    with tr.Tracer(cc):
        wrapped = cc.states.extended_expectations
        assert wrapped is not original and wrapped.__wrapped__ is original
        for ns in (cc, cc.rotors, cc.uncertainty, cc.cli):
            assert ns.extended_expectations is wrapped
        assert cc.uncertainty.random_state_batch is cc.states.random_state_batch
        assert cc.cli._COMMANDS["verify"] is cc.cli.cmd_verify
        assert cc.cli.lift is cc.rotors.lift is not cc.rotors.lift.__wrapped__
    assert _bindings() == before


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tr.METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-ball", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
