"""Smoke test of the benchmark harness on tiny grids. It asserts no timings."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
CHAIN = ["cli.run", "functionals.volume_product", "legendre.polar_density",
         "legendre.legendre_transform", "legendre.legendre_1d"]


def _run(script: Path, out: Path, workload: str, trace: int):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny", "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            done = _run(HERE / "run.py", out, workload, trace)
            assert done.returncode == 0, done.stderr
            cache[workload, trace] = json.loads(done.stdout.splitlines()[-1])
        return cache[workload, trace]

    get.out = out
    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(runs, workload):
    e2e = runs(workload, 0)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["attempted"] >= 1
    assert set(e2e["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    layers = runs(workload, 1)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert names == {name for name, _, _ in tracing.per_layer_names()}
    assert set(layers["metrics"]) == names
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        got = (e2e if m in BENCHMARK["end_to_end"] else layers)["metrics"][m["name"]]
        assert got["unit"] == m["unit"]


def test_traced_cli_run_records_the_nested_chain(runs):
    runs("cli1d", 1)
    lines = (runs.out / "cli1d-tiny-seed3-trace1" / "spans.jsonl").read_text().splitlines()
    spans = {s[0]: s for s in map(json.loads, lines)}

    def chain(span):
        names = []
        while span is not None:
            names.append(span[2])
            span = spans.get(span[1])
        return names[::-1]

    assert any(chain(s) == CHAIN for s in spans.values() if s[2] == CHAIN[-1])


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / HERE.name / "run.py", tmp_path / "out", "cli1d", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
