"""Self-tests of the benchmark: its oracles, its op accounting and its tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import MODULES, SPANS, Tracer

cli = run.import_cli()

from fell_lab import conv, ktheory, scenarios, spaces  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.ROOT / "perfbench" / "predictions.json").read_text())


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# --- oracles ---------------------------------------------------------------


def test_standard_wedge_literal_is_the_programs_wedge():
    assert workloads.STANDARD_WEDGE == scenarios.standard_wedge().to_dict()


def test_udv_expectation_matches_six_term_solver_at_tiny_sizes():
    torsion_seen = False
    for n in range(1, 6):
        for s in range(25):
            system = workloads.ktheory_system(n, random.Random(s))
            k0, k1 = ktheory.solve_six_term(ktheory.ses_from_dict(system.data))
            assert {"K0": str(k0), "K1": str(k1)} == system.expected, (n, s)
            torsion_seen |= "Z/" in system.expected["K0"] + system.expected["K1"]
    assert torsion_seen


@pytest.mark.parametrize("perturbed", [False, True])
def test_grid_oracle_exit_code_and_selfadjoint_defect(tmp_path, perturbed):
    grid = workloads.grid_file(40, perturbed, random.Random(3))
    sizes = {len(p["matrix"]) for p in grid.data["element"]["points"]}
    assert sizes == {1, 2, 3}
    op = workloads.grid_op(grid, tmp_path / "grid.json")
    outcome = run.run_op(cli.main, op.argv)
    report = json.loads(outcome.out)
    if perturbed:
        assert outcome.rc == 1
        assert report["max_selfadjoint_defect"] == pytest.approx(1e-6, rel=1e-6)
    else:
        assert outcome.rc == 0
        assert report["max_selfadjoint_defect"] == 0.0
    assert run.complaint(op, outcome) is None


def test_sphere_oracle_accepts_the_scenario():
    op = workloads.sphere_op(7)
    argv = op.argv + ["--param", "samples=200"]
    outcome = run.run_op(cli.main, argv)
    assert outcome.rc == 0
    # The parameters echo changes with the extra argument, so check the rest.
    report = json.loads(outcome.out)
    report["parameters"] = {"seed": 7}
    assert op.check(json.dumps(report)) is None
    report["checks"][2]["actual"] = "0.4"
    assert "fullness floor" in op.check(json.dumps(report))


# --- failure accounting ----------------------------------------------------


def ktheory_op(tmp_path, seed=0):
    return workloads.ktheory_op(workloads.ktheory_system(4, random.Random(seed)), tmp_path / "k.json")


def test_wrong_expectation_is_counted_as_failed(tmp_path):
    op = ktheory_op(tmp_path)
    right = op.check
    op.check = lambda out: right(out.replace("Z", "Z/7", 1))
    accounting = run.Run("ktheory-solve", 0, 0.0, tmp_path)
    accounting.record(op, run.run_op(cli.main, op.argv))
    assert (accounting.attempted, len(accounting.failures)) == (1, 1)


def test_raising_tracebacks_and_wrong_exit_codes_fail_without_stopping(tmp_path):
    op = ktheory_op(tmp_path)
    good = run.run_op(cli.main, op.argv)

    def raises(argv):
        raise RuntimeError("boom")

    def exits(argv):
        raise SystemExit(3)

    def prints_traceback(argv):
        print(good.out, end="")
        print("Traceback (most recent call last):\n  ValueError", file=sys.stderr)
        return 0

    def wrong_code(argv):
        print(good.out, end="")
        return 1

    accounting = run.Run("ktheory-solve", 0, 0.0, tmp_path)
    for main in (raises, exits, prints_traceback, wrong_code, cli.main):
        accounting.record(op, run.run_op(main, op.argv))
    assert accounting.attempted == 5
    assert len(accounting.failures) == 4


def test_a_broken_oracle_shows_in_the_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "group_str", lambda rank, torsion: "Z/7")
    assert run.main(["--workload", "ktheory-solve", "--seed", "1", "--seconds", "0.01"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


# --- the command and its result line ---------------------------------------


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric_with_its_unit(capsys, trace, key):
    argv = ["--workload", "ktheory-solve", "--seed", "2", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[key]
    }
    assert set(details["env"]) == {"python", "numpy", "nproc", "git_commit", "seed"}
    if trace:
        assert result["metrics"]["ktheory.snf_calls_per_matrix"]["value"] == 2.0
        assert result["metrics"]["conv.evaluate.calls"]["value"] == 0.0


def test_benchmark_lists_the_workloads_and_predictions_name_real_spans():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(PREDICTIONS["workloads"]) == set(workloads.WORKLOADS)
    for table in PREDICTIONS["workloads"].values():
        assert set(table["stresses"]) | set(table["bypasses"]) <= set(SPANS)
        assert not set(table["stresses"]) & set(table["bypasses"])
    assert set(PREDICTIONS["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for prediction in PREDICTIONS["per_layer"].values():
        assert set(prediction["moves"]) <= end_to_end


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "ktheory-solve",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- tracer ----------------------------------------------------------------


def test_tracer_rebinds_every_import_and_restores_them(tmp_path):
    modules = [spaces, conv, ktheory, scenarios, cli]
    assert [m.__name__.rpartition(".")[2] for m in modules] == list(MODULES)
    before = [dict(vars(m)) for m in modules] + [dict(vars(conv.GridRule))]
    tracer = Tracer()
    with tracer:
        assert conv.resolve_orbit is spaces.resolve_orbit is not before[0]["resolve_orbit"]
        assert scenarios.evaluate is conv.evaluate is not before[1]["evaluate"]
        op = workloads.grid_op(workloads.grid_file(30, False, random.Random(0)), tmp_path / "g.json")
        assert run.complaint(op, run.run_op(cli.main, op.argv)) is None
    after = [dict(vars(m)) for m in modules] + [dict(vars(conv.GridRule))]
    assert all(a == b for a, b in zip(after, before))
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["conv.GridRule.lookup"] == tracer.calls["conv.evaluate"] == 30
    assert tracer.samples_verified == 30
    assert all(t >= 0.0 for t in tracer.self_s.values())
