"""Self-check of the traced counters: exact repeats and hand counts.

    python3 -m pytest -q perfbench/selfcheck.py

Runs the benchmark twice per workload with ``--trace 1`` and the same seed
(one set of ops each; the sweep workload takes a few minutes) and checks
that the counts repeat exactly, that outputs are byte-identical across the two processes,
and that the counts match numbers derived by hand from the scenario files.
The file name keeps it out of the package's own test run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from gamedyn import monomorphic_vertices, load_scenario  # noqa: E402
from workloads import WORKLOADS, scenario_path  # noqa: E402

COUNT_SUFFIXES = (".calls", ".iterations", ".steps", ".bytes", "_ratio")


def _traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result, json.loads(record_line)["record"]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def two_runs(request):
    return request.param, _traced_run(request.param, 7), _traced_run(request.param, 7)


def _scenario(name: str):
    return load_scenario(scenario_path(ROOT, name))


def _steps(scn) -> int:
    return round(scn.run_float("horizon", 50.0) / scn.run_float("dt", 0.01))


def test_counts_repeat_exactly(two_runs):
    _, (res_a, rec_a), (res_b, rec_b) = two_runs
    counts_a = {k: v["value"] for k, v in res_a["metrics"].items()
                if k.endswith(COUNT_SUFFIXES)}
    counts_b = {k: v["value"] for k, v in res_b["metrics"].items()
                if k.endswith(COUNT_SUFFIXES)}
    assert counts_a == counts_b
    assert rec_a["op_counts"] == rec_b["op_counts"]
    assert rec_a["op_sha256"] == rec_b["op_sha256"]


def test_self_times_add_up(two_runs):
    _, (res_a, _), (res_b, _) = two_runs
    for res in (res_a, res_b):
        assert res["metrics"]["trace.self_sum_gap"]["value"] <= 0.01


def test_hand_counts(two_runs):
    workload, (result, record), _ = two_runs
    m = {k: v["value"] for k, v in result["metrics"].items()}
    per_op = record["op_counts"]
    if workload == "simulate":
        steps = {name: _steps(_scenario(name)) for _, name in WORKLOADS["simulate"]}
        assert steps["pigou"] == 5000
        assert sum(steps.values()) == 29000
        for name, n in steps.items():
            assert per_op[f"simulate:{name}"]["dynamics.integrate.steps"] == n
        assert m["dynamics.integrate.steps"] == 29000
        assert m["dynamics.integrate.calls"] == 8
        # RK4: four cost evaluations per step, nothing else evaluates costs
        assert m["game.evaluate_costs.calls"] == 4 * 29000 == 116000
        assert m["logit.fixed_point.calls"] == 0
    elif workload == "census":
        expected = 0
        for _, name in WORKLOADS["census"]:
            scn = _scenario(name)
            game, _ = scn.build_game()
            n = scn.run_int("steps", 25) * (scn.run_int("multistart", 8)
                                            + len(monomorphic_vertices(game)))
            assert per_op[f"bifurcation:{name}"]["logit.fixed_point.calls"] == n
            expected += n
        assert expected == 1300
        assert m["logit.fixed_point.calls"] == 1300
        assert m["analysis.continuation_sweep.calls"] == 0
    else:
        expected = 0
        for _, name in WORKLOADS["sweep"]:
            scn = _scenario(name)
            game, _ = scn.build_game()
            seeds = len(monomorphic_vertices(game)) + 1
            op = per_op[f"sweep:{name}"]
            # one solve per seed and grid point, plus one retry per solve
            # that lands on an unstable point
            retries = op.get("logit.fixed_point.unstable", 0)
            assert retries == 0
            n = seeds * scn.run_int("steps", 60) + retries
            assert op["logit.fixed_point.calls"] == n
            expected += n
        assert expected == 600 + 680
        assert m["logit.fixed_point.calls"] == 1280
        assert m["analysis.branch_keep_ratio"] == pytest.approx(2 / 27)
