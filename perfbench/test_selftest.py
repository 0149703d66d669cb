"""Fast self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_selftest.py -q

Runs every workload with ``--tiny`` in both run kinds and checks the output
format: every metric BENCHMARK.json names is emitted with its unit, the
answers are correct, the traced spans nest, and a directory without the
package is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7",
            "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def record_of(stdout: str) -> dict:
    line = next(l for l in stdout.splitlines() if l.strip().startswith("record: "))
    return json.loads((ROOT / line.split("record: ", 1)[1]).read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


# Spans that must nest in the traced run of each workload.
NESTED = {
    "search": [(None, "search.max_compatible")],
    "session": [("cli.main", "compat.compatibility_graph"), ("compat.compatibility_graph", "partitions.all_partitions")],
    "retract": [("retraction.build_star", "search.max_compatible"), ("retraction.retract", "hugging.is_hugged_in")],
    "census": [("report.analyze", "search.max_compatible"), ("report.analyze", "conditions.condition_report")],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(workload):
    out = run(workload, 1)
    assert out.returncode == 0, out.stderr
    record = record_of(out.stdout)
    edges = {(e["caller"], e["span"]) for e in record["call_tree"]}
    for edge in NESTED[workload]:
        assert edge in edges
    assert record["metrics"]["trace.overhead"]["from"] == "traced / untraced"
    assert record["passes"]["untraced"] >= 1 and record["passes"]["traced"] >= 1


def test_search_probe_hits_its_deadline():
    out = run("search", 0)
    record = record_of(out.stdout)
    assert record["probe"]["status"] == "deadline"
    assert record["failed_frac"] > 0


def test_refused_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run("census", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert not out.stdout.strip()
