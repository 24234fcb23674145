"""Fast checks of the benchmark itself: generators, gate, tracer, output.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from semcomp import compressor, errors, kg, probgraph, resource  # noqa: E402


def _tiny(name):
    return workloads.tiny(workloads.SPECS[name])


def test_smoke_mode_passes_on_every_workload():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == {"smoke": "passed"}
    results = [json.loads(line) for line in lines
               if line.startswith('{"correct"')]
    assert len(results) == 2 * len(workloads.SPECS)
    end_to_end = {name for name, *_ in metrics.END_TO_END}
    per_layer = {name for name, *_ in metrics.PER_LAYER}
    for i, result in enumerate(results):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert set(result["metrics"]) == (per_layer if i % 2 else end_to_end)
        assert all(m["value"] is not None for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_generation_is_seeded(name):
    spec = _tiny(name)
    assert workloads.generate(spec, 3) == workloads.generate(spec, 3)
    assert workloads.generate(spec, 3) != workloads.generate(spec, 4)


def test_counts_repeat_exactly_and_tracer_restores_the_library(tmp_path):
    spec = _tiny("skewed")
    first = harness.run(spec, 5, 0, True, tmp_path)
    second = harness.run(spec, 5, 0, False, tmp_path)
    assert first.info["counts"] == second.info["counts"]
    assert first.info["counts"]["later_round_omitted_per_msg"] > 0
    assert not hasattr(compressor.compress, "__wrapped__")
    assert resource.compress is compressor.compress
    assert not hasattr(probgraph.ProbabilityGraph.content_hash.fget,
                       "__wrapped__")


def test_gate_counts_a_lossy_round_trip(tmp_path, monkeypatch):
    real = compressor.decompress

    def lossy(graph, msg):
        return kg.KnowledgeGraph(real(graph, msg).triples[1:])

    monkeypatch.setattr(compressor, "decompress", lossy)
    spec = _tiny("tie_heavy")
    result = harness.run(spec, 1, 0, False, tmp_path)
    assert result.gate.failed == spec.n_messages
    assert "restored triples differ" in result.gate.failures[0]


def test_gate_counts_a_failed_cli_command(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise errors.ValidationError("broken on purpose")

    monkeypatch.setattr(resource, "estimate_q", broken)
    result = harness.run(_tiny("plan"), 1, 0, False, tmp_path)
    assert result.gate.failed >= 1
    assert any(failure.startswith("estimate-q exited 2")
               for failure in result.gate.failures)


def test_benchmark_json_matches_the_definitions():
    assert (ROOT / "BENCHMARK.json").read_text() == metrics.benchmark_json()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                          "skewed", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
