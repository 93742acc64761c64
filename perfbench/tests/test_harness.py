"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests

The smoke test runs ``disprove_rank(F16, 8)`` (about 1.5 s) through
``run.py``, untraced and traced.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "f16-smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_frozen_f81_levels_match_acceptance_suite():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "acceptance_copy", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    assert workloads.OUR_F81_LEVELS == acceptance.OUR_F81_LEVELS


def test_declared_metrics_are_well_formed():
    bench = declared()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    names = list(e2e) + [m["name"] for m in bench["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_smoke_runs_print_declared_metrics_and_the_same_levels():
    summaries = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, result = run_bench(trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in declared()[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        summaries.append(record["summary"])
    assert summaries[0] == summaries[1]
    assert summaries[0]["searches"][0]["levels"] == workloads.F16_R8_LEVELS
