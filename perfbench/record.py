"""Repeat the benchmark over several seeds and write a self-describing record.

Usage, from the root of a source checkout::

    python3 perfbench/record.py --out perfbench/RECORD.json

For every workload in ``BENCHMARK.json`` this runs ``perfbench/run.py`` once
per seed 1 to 10 (``--trace 0``, one process each, one after another) and records,
per end-to-end metric, the ten values, their median and their spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median. It then makes two traced runs on the first
seed and checks that every work count repeats exactly. The record also
carries the metric catalogue (unit, meaning, which end-to-end metric and
workload each per-layer metric should move) and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))

NOTES = [
    "Timings are in reference seconds: each request's wall time is rescaled by "
    "REFERENCE_KERNEL_S over the reference kernel's time around it, which cancels "
    "host speed drift; reference_kernel_s_per_run gives the kernel's median per run.",
    "End-to-end timings are medians within one invocation; 'spread' is the "
    "interquartile distance of the per-seed values as a share of their median.",
    "Per-layer timings are medians over the instrumented requests of one traced "
    "invocation; counts belong to its first request and must repeat exactly.",
    "capped_mc runs on the batch kernel, which computes power, losses, cooling and "
    "per-tick stats in private mirrors: power.sample_s and cooling.step_s read 0 "
    "there, stats.record_s holds record_job only, and those layers' cost is inside "
    "engine.unattributed_s.",
    "engine.unattributed_s is the plain request's engine.loop_s minus the timed layer "
    "calls of the instrumented request on the same seeds, so the probe's wrapper code "
    "outside the timed calls is not in it; the timed calls still carry their own "
    "timer cost, which trace.overhead bounds.",
    "capped_mc engine.steps is the step total of the first 4-replica group; the "
    "per-replica steps of that group are the baseline for exact capped coalescing.",
]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="record file to write")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = int(benchmark["run_seconds"])
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    names = [workload["name"] for workload in benchmark["workloads"]]

    record: dict = {
        "machine": harness.machine_info(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {name: asdict(harness.WORKLOADS[name]) for name in names},
        "end_to_end": [asdict(metric) for metric in harness.END_TO_END]
        + [asdict(harness.FAIL_RATIO)],
        "per_layer": [asdict(metric) for metric in harness.PER_LAYER],
        "notes": NOTES,
        "results": {},
    }
    for name in names:
        runs = [_run(name, seed, seconds, 0) for seed in SEEDS]
        metrics = {}
        for metric in bounds:
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds[metric],
                "samples_per_run": [
                    _samples(run["lines"], metric) for run in runs
                ],
            }
            print(
                f"{name:14s} {metric:12s} median {metrics[metric]['median']:.5g} "
                f"spread {metrics[metric]['spread']:.4f} (bound {bounds[metric]})",
                flush=True,
            )
        traced = [_run(name, SEEDS[0], seconds, 1) for _ in range(2)]
        counts = [
            {key: run["metrics"][key]["value"] for key in harness.COUNTS} for run in traced
        ]
        record["results"][name] = {
            "end_to_end": metrics,
            "reference_kernel_s_per_run": [_kernel_s(run["lines"]) for run in runs],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "per_layer": traced[0]["metrics"],
            "counts_repeat_exactly": counts[0] == counts[1],
            "first_request_steps_per_run": next(
                json.loads(line[len(harness.STEPS_LINE):])
                for line in traced[0]["lines"]
                if line.startswith(harness.STEPS_LINE)
            ),
        }
        print(f"{name:14s} counts repeat exactly: {counts[0] == counts[1]}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def _kernel_s(lines: list[str]) -> float | None:
    prefix = "# reference kernel median "
    for line in lines:
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def _samples(lines: list[str], metric: str) -> int | None:
    prefix = f"{metric} = "
    for line in lines:
        if line.startswith(prefix) and "(samples: " in line:
            return int(line.rsplit("(samples: ", 1)[1].rstrip(")"))
    return None


if __name__ == "__main__":
    sys.exit(main())
