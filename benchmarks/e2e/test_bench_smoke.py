"""Smoke test of the end-to-end benchmark (``slow``: outside the tier-1 run).

``benchmarks/conftest.py`` marks everything under ``benchmarks/`` slow; select
with ``python -m pytest benchmarks/e2e -m slow``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_config as config  # noqa: E402
from launcher import generate_dataset  # noqa: E402
from traffic import Traffic, first_ops  # noqa: E402


@pytest.fixture(scope="module")
def traffic() -> Traffic:
    return Traffic(generate_dataset())


@pytest.mark.parametrize("workload", config.WORKLOAD_NAMES)
def test_traffic_is_deterministic_per_seed_and_differs_across_seeds(traffic, workload):
    assert first_ops(traffic, workload, 13, 400) == first_ops(traffic, workload, 13, 400)
    assert first_ops(traffic, workload, 13, 400) != first_ops(traffic, workload, 14, 400)
    assert first_ops(traffic, workload, 13, 50) != list(
        op for op, _ in zip(traffic.stream(workload, 13, client=1), range(50))
    )


def test_serve_hot_has_the_configured_number_of_distinct_texts(traffic):
    texts = traffic.hot_texts(13)
    assert len({(op.text, op.reasoning) for op in texts}) == config.HOT_DISTINCT_TEXTS
    # The template at each popularity rank must not move with the seed.
    assert [op.query_class for op in texts] == [op.query_class for op in traffic.hot_texts(14)]


def test_benchmark_json_repeats_the_config():
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert manifest["workloads"] == config.WORKLOADS
    assert manifest["end_to_end"] == config.END_TO_END
    assert manifest["per_layer"] == config.PER_LAYER
    assert manifest["run_seconds"] == config.DEFAULT_SECONDS
    assert manifest["paths"] == ["benchmarks/e2e"]


def test_quick_run_produces_every_named_metric():
    completed = subprocess.run(
        # Seed 1: a quick run must not overwrite a real results/BENCH_13.json.
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--seed", "1"],
        capture_output=True, text=True, timeout=900,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    document = json.loads((HERE / "results" / "BENCH_1.json").read_text())
    assert sorted(document["workloads"]) == sorted(config.WORKLOAD_NAMES)
    everywhere = {m["name"] for m in config.END_TO_END} | {"cold_start_ms", "failed_share"}
    for name, result in document["workloads"].items():
        expected = set(everywhere)
        if name == "live_update_mix":
            expected |= {"write_p50_ms", "write_p95_ms"}
        assert set(result["end_to_end"]) == expected
        assert set(result["per_layer"]) == {m["name"] for m in config.PER_LAYER}
        for entry in list(result["end_to_end"].values()) + list(result["per_layer"].values()):
            assert entry["unit"]
        assert result["samples"]["reads"] > 0
        assert result["end_to_end"]["failed_share"]["value"] == 0
        assert (HERE / "results" / f"trace_{name}.jsonl").stat().st_size > 0
        assert 0.95 <= result["layer_shares"]["coverage"] <= 1.05
    for key in ("nproc", "python", "commit", "seed", "dataset",
                "result_cache_capacity", "plan_cache_capacity"):
        assert key in document["environment"]
