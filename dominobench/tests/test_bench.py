"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest dominobench/tests
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY_SEED = 7


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a whole run takes a second or two."""
    fig14 = workloads.WORKLOADS["fig14-point"]
    monkeypatch.setattr(fig14, "m", 4)
    monkeypatch.setattr(fig14, "n", 2)
    monkeypatch.setattr(fig14, "spec", dataclasses.replace(
        fig14.spec, horizon_us=10_000.0, warmup_us=2_000.0))
    fig12 = workloads.WORKLOADS["fig12-domino"]
    monkeypatch.setattr(fig12, "spec", dataclasses.replace(
        fig12.spec, horizon_us=20_000.0, warmup_us=5_000.0))
    monkeypatch.setattr(workloads.WORKLOADS["service-churn"], "updates", 300)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def bench(capsys, workload: str, trace: int, seed: int = TINY_SEED):
    """(result, metric lines, stderr) of one in-process run."""
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    captured = capsys.readouterr()
    out = captured.out.strip().splitlines()
    return json.loads(out[-1]), out[:-1], captured.err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric_with_unit(tiny, capsys, workload, trace):
    result, table, _ = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_OPS
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    # The human-readable lines name each metric with unit and samples.
    for metric, line in zip(wanted, table[-len(wanted):]):
        assert line.split()[0] == metric["name"]
        assert line.split()[2] == metric["unit"]
        assert line.split()[3].startswith("n=")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_sees_its_layers(tiny, capsys):
    result, _, _ = bench(capsys, "fig12-domino", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sched.schedule_batch_calls"] > 0
    assert metrics["sim.events"] > 0 and metrics["core.mac_triggers"] > 0
    assert metrics["service.revisions"] == 0
    result, _, _ = bench(capsys, "service-churn", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["service.revisions"] > 0 and metrics["service.oracle_s"] > 0
    assert metrics["service.revision_p99_ms"] > 0
    assert metrics["sim.events"] == 0


def test_injected_output_mismatch_is_a_failed_operation(tiny, capsys,
                                                        monkeypatch):
    workload = workloads.WORKLOADS["fig12-domino"]
    real_op = workload.op
    calls = []

    def flaky_op(inputs):
        result = real_op(inputs)
        calls.append(1)
        if len(calls) == 2:
            result.outputs["flow_digest"] = "0" * 64
        return result

    monkeypatch.setattr(workload, "op", flaky_op)
    result, _, err = bench(capsys, "fig12-domino", trace=0)
    assert result["failed"] == 1
    assert not result["correct"]
    assert "op: outputs differ" in err


def test_timed_metrics_are_scaled_to_nominal_host_speed(monkeypatch):
    # A host at half the nominal speed: the probe takes twice as long.
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.NOMINAL_S)
    gauge = hostspeed.Gauge()
    gauge.sample()
    assert gauge.scale() == pytest.approx(0.5)
    ops = [workloads.OpResult(wall_s=2.0, sim_ms=100.0, events=1000,
                              outputs={}, latencies_ms=[4.0, 6.0, 8.0])]
    raw = run.end_to_end(ops, [1.0])
    scaled = run.end_to_end(ops, [1.0], gauge.scale())
    assert scaled["revision_p50_ms"][0] == pytest.approx(3.0)
    assert scaled["sim_ms_per_s"][0] == pytest.approx(100.0)
    assert scaled["updates_per_s"][0] == pytest.approx(1000.0)
    assert scaled["setup_s"] == raw["setup_s"]


def test_probe_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert hostspeed.probe() > 0
    assert gc.isenabled()


def test_pinned_outputs_are_the_reference_at_the_default_seed(tiny, capsys):
    # Tiny sizes cannot reproduce the pinned full-size outputs.
    result, _, _ = bench(capsys, "fig12-domino", trace=0,
                         seed=workloads.DEFAULT_SEED)
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_pinned_file_covers_every_workload():
    pinned = json.loads(run.PINNED.read_text())
    assert sorted(pinned) == sorted(NAMES)


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
