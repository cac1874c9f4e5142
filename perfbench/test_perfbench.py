"""Self-test of the benchmark at tiny sizes; kept short because tier-1
pytest collects it."""
import json

import pytest

from perfbench import run


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    lines, result = run.run_benchmark(workload, seed=3, seconds=0,
                                      trace=trace, sizes=run.TINY)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace and workload == "census_gen":
        metrics = result["metrics"]
        assert metrics["census.entries"]["value"] == 38
        assert metrics["notation.parse_params.calls"]["value"] == 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
