"""Tests of the benchmark's own code on reduced-size workloads.

Run from the root of a source checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reduced(name: str) -> harness.Workload:
    """The named workload on a short window, so one request is quick."""
    return dataclasses.replace(
        harness.WORKLOADS[name], duration_s=1800.0, warmup_duration_s=600.0
    )


def _result_line(report: harness.Report) -> dict:
    return json.loads(harness.render(report).splitlines()[-1])


def test_benchmark_file_matches_the_catalogue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in harness.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in harness.PER_LAYER
    ]
    assert set(harness.COUNTS) | set(harness.LAYER_TIMES) == {
        m.name for m in harness.PER_LAYER
    }


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    report = harness.measure(_reduced(name), seed=3, seconds=0, trace=trace, workdir=tmp_path)
    result = _result_line(report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    catalogue = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in catalogue
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == max(1, harness.WORKLOADS[name].replicas) * (2 if trace else 1)
    assert "fail_ratio = 0/" in harness.render(report)


def test_forced_check_failure_raises_fail_ratio(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "summary_problems", lambda *args: ["forced failure"])
    report = harness.measure(
        _reduced("capped_mc"), seed=3, seconds=0, trace=False, workdir=tmp_path
    )
    result = _result_line(report)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 4
    assert "fail_ratio = 4/4" in harness.render(report)


def test_a_raising_run_counts_as_failed(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(harness, "run_request", boom)
    report = harness.measure(
        _reduced("whatif_24h"), seed=3, seconds=0, trace=False, workdir=tmp_path
    )
    assert (report.attempted, report.failed) == (1, 1)
    assert any("engine exploded" in problem for problem in report.problems)


def test_timings_are_rescaled_to_the_reference_host_speed(monkeypatch, tmp_path):
    # A host at half the reference speed: the kernel takes twice as long,
    # so a request measured at 1 s reads as 0.5 reference seconds.
    monkeypatch.setattr(harness, "reference_kernel", lambda: 2 * harness.REFERENCE_KERNEL_S)
    monkeypatch.setattr(
        harness, "send",
        lambda *args, **kwargs: harness.Outcome(runs=1, wall_s=1.0, setup_s=0.1),
    )
    monkeypatch.setattr(harness, "_check", lambda *args: 0)
    report = harness.measure(
        harness.WORKLOADS["whatif_24h"], seed=3, seconds=0, trace=False, workdir=tmp_path
    )
    assert report.metrics["run_s.p50"] == (0.5, "s")
    assert report.metrics["setup_s"] == (0.05, "s")
    assert report.metrics["runs_per_s"] == (2.0, "1/s")


def test_summary_checks_catch_each_violation():
    capped = harness.WORKLOADS["capped_mc"]
    good = {
        "jobs_completed": 9.0, "jobs_dismissed": 1.0, "mean_pue": 1.1,
        "cap_violation_kwh": 0.0, "capped_hold_s": 60.0,
    }
    assert harness.summary_problems(capped, good, 10) == []
    assert harness.summary_problems(capped, good, 11)
    assert harness.summary_problems(capped, {**good, "mean_pue": math.inf}, 10)
    assert harness.summary_problems(capped, {**good, "cap_violation_kwh": 1e-9}, 10)
    assert harness.summary_problems(capped, {**good, "capped_hold_s": 0.0}, 10)
    uncapped = harness.WORKLOADS["whatif_24h"]
    assert harness.summary_problems(uncapped, {**good, "capped_hold_s": 0.0}, 10) == []


def test_counts_repeat_exactly_for_a_fixed_seed(tmp_path):
    workload = _reduced("capped_mc")
    first, second = (
        harness.measure(workload, seed=5, seconds=0, trace=True, workdir=tmp_path)
        for _ in range(2)
    )
    counts = [{k: r.metrics[k] for k in harness.COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["engine.steps"][0] > 0


def test_request_seeds_are_distinct_and_follow_the_seed():
    def take(seed, n=50):
        stream = harness.request_seeds(seed)
        return [next(stream) for _ in range(n)]

    assert take(7) == take(7)
    assert len(set(take(7))) == 50
    assert take(7) != take(8)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whatif_24h",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
