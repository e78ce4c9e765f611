"""Layered benchmark of the S-RAPS twin's what-if, frontier and Monte Carlo paths.

Each workload drives the package through its public entry points —
:func:`repro.sweep.run_request` for single what-if runs and
:func:`repro.sweep.run_sweep` with ``workers=1, batch_size=K`` for capped
Monte Carlo sweeps — in a closed loop with one client: the next request is
sent when the previous one has returned its summary. Every request gets its
own seed, drawn from the invocation's ``--seed``; the program only sees the
generated request.

End-to-end timings are medians over every request of one invocation, taken
with only per-request probes installed (one wrapper call per request, none
per engine step). A traced invocation alternates plain and instrumented
requests on the same seeds: the instrumented ones wrap the public methods of
each layer (scheduler, resource manager, power aggregator, cooling plant,
stats collector, store) with timers from outside the program, attach the
engine's own opt-in :class:`~repro.obs.SpanTracer` to serial runs, and read
the components' ``observability_counters()``. The ratio of instrumented to
plain loop time is reported as ``trace.overhead``.

Every timing is given in reference seconds. On a shared host the speed
drifts by tens of percent over minutes, so after each request the loop times
:func:`reference_kernel`, a fixed mix of interpreter and small-numpy work
that does not touch the program. A request's times are
multiplied by ``REFERENCE_KERNEL_S`` over the mean of the kernel times just
before and just after it: they read as the seconds the request would take at
the host speed where the kernel takes ``REFERENCE_KERNEL_S``. Work the
program adds or removes still shows one for one; host drift cancels.

Every request is checked: it must not raise, must account for every
generated job, must report finite summary values and, on the capped
workload, must keep compute power under the cap while actually holding jobs
and land as exactly one ``completed`` row in the results store.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro import (
    CoolingPlant,
    ResourceManager,
    ResultsStore,
    RunRequest,
    Scheduler,
    SimulationEngine,
    SpanTracer,
    StatsCollector,
    SweepSpec,
    SyntheticWorkloadGenerator,
    run_request,
    run_sweep,
)
from repro.engine import BatchSimulationEngine
from repro.obs import Observability
from repro.power import RunningSetPowerAggregator
from repro.sweep import driver as sweep_driver
from repro.sweep.spec import WORKLOAD_VARIANTS


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: what each request of the loop asks for.

    ``replicas == 0`` sends each request through ``run_request``; a positive
    value sends groups of that many seeds through one ``run_sweep`` call
    into a fresh SQLite store.
    """

    name: str
    why: str
    system: str
    variant: str
    duration_s: float
    warmup_duration_s: float
    replicas: int = 0
    power_cap_kw: float | None = None
    price_per_kwh: float | None = None
    carbon_kg_per_kwh: float | None = None


#: Every workload schedules with EASY backfill, the paper's production policy.
POLICY = "backfill"


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="whatif_24h",
            why=(
                "one tiny-system scenario, 24 h, EASY backfill: ~6.4k steps and "
                "~170 jobs, so per-step power, cooling and stats dominate"
            ),
            system="tiny",
            variant="default",
            duration_s=24 * 3600.0,
            warmup_duration_s=3600.0,
        ),
        Workload(
            name="frontier_12h",
            why=(
                "9,600-node frontier, 12 h: ~14.5k jobs, ~2k running at once, "
                "only ~1.8k steps, so synthesis, coalescing, scheduling and memory dominate"
            ),
            system="frontier",
            variant="frontier_scale",
            duration_s=12 * 3600.0,
            warmup_duration_s=1800.0,
        ),
        Workload(
            # 20.46 kW is 0.7x the uncapped compute peak of busy_trace on
            # tiny, so the cap binds and the coalescing veto keeps the
            # capped replicas near-dense (~10^4 steps against ~10^3 uncapped).
            name="capped_mc",
            why=(
                "4-seed groups of busy-trace tiny, 8 h, under a binding 20.46 kW cap "
                "through run_sweep: batch kernel, cap scheduler and store writes"
            ),
            system="tiny",
            variant="busy_trace",
            duration_s=8 * 3600.0,
            warmup_duration_s=3600.0,
            replicas=4,
            power_cap_kw=20.46,
            price_per_kwh=0.12,
            carbon_kg_per_kwh=0.35,
        ),
    )
}


# -- metric catalogue ----------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """A reported metric: its unit, what it means, and what it should move."""

    name: str
    unit: str
    better: str
    means: str
    moves: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower",
        "median time from request to the first simulated step (workload synthesis plus "
        "engine construction); on capped_mc per batch group: generate_batch plus "
        "BatchSimulationEngine(...); in reference seconds",
    ),
    Metric(
        "run_s.p50", "s", "lower",
        "median wall time per run from request to summary; on capped_mc the group's "
        "run_sweep wall time divided by its replicas; in reference seconds",
    ),
    Metric(
        "runs_per_s", "1/s", "higher",
        "completed runs divided by the summed wall time of their requests, in "
        "reference seconds",
    ),
    Metric("peak_rss_mb", "MB", "lower", "process high-water resident set size"),
)

#: Printed with the end-to-end metrics and carried by the result line's
#: ``failed``/``attempted`` fields; not a bounded metric because it is 0 at
#: a correct commit and a bound relative to 0 has no meaning.
FAIL_RATIO = Metric(
    "fail_ratio", "failed/attempted", "lower",
    "runs that raised, were not stored as completed, or failed a correctness check",
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("workloads.generate_s", "s", "lower",
           "time in SyntheticWorkloadGenerator.generate / generate_batch per run",
           "setup_s and run_s.p50 on frontier_12h; barely on whatif_24h"),
    Metric("workloads.jobs", "count", "higher",
           "jobs generated for the first request (prehistory included)"),
    Metric("engine.init_s", "s", "lower",
           "time in SimulationEngine(...) / BatchSimulationEngine(...) per run",
           "setup_s on frontier_12h and capped_mc"),
    Metric("engine.loop_s", "s", "lower",
           "time in SimulationEngine.run / BatchSimulationEngine.run per run",
           "run_s.p50 on every workload"),
    Metric("engine.steps", "count", "lower",
           "engine steps (recorded samples) of the first request",
           "runs_per_s on capped_mc; identical on whatif_24h and frontier_12h"),
    Metric("engine.us_per_step", "us", "lower",
           "loop time per step: SpanTracer phase total per step on serial runs, "
           "BatchSimulationEngine.run time per step on capped_mc",
           "run_s.p50 on whatif_24h"),
    Metric("engine.coalesce_s", "s", "lower",
           "SpanTracer coalesce phase per run (serial runs only; 0 on capped_mc)",
           "run_s.p50 on frontier_12h"),
    Metric("engine.unattributed_s", "s", "lower",
           "the plain request's engine.loop_s minus the timed layer calls of the "
           "instrumented request on the same seeds: coalescing and engine glue, and on "
           "capped_mc the batch kernel's private power/loss/cooling/stats mirrors; the "
           "timed calls still carry their own timer cost (see trace.overhead)",
           "run_s.p50 on capped_mc"),
    Metric("scheduler.schedule_s", "s", "lower",
           "time in Scheduler.schedule per run",
           "run_s.p50 on frontier_12h and capped_mc; ~6% on whatif_24h"),
    Metric("scheduler.calls", "count", "lower",
           "Scheduler.schedule calls of the first request"),
    Metric("scheduler.backfill_reservations", "count", "lower",
           "EASY reservations computed in the first request"),
    Metric("scheduler.cap_hold_events", "count", "lower",
           "power-cap hold events in the first request (0 when uncapped)",
           "runs_per_s on capped_mc"),
    Metric("cluster.rm_s", "s", "lower",
           "time in ResourceManager.allocate / complete_finished_jobs / release per run",
           "run_s.p50 on frontier_12h"),
    Metric("cluster.end_heap_pops", "count", "lower",
           "resource-manager end-time heap pops in the first request"),
    Metric("cluster.journal_appends", "count", "lower",
           "resource-manager allocate/release journal appends in the first request"),
    Metric("power.sample_s", "s", "lower",
           "time in RunningSetPowerAggregator.sample per run (0 on capped_mc: the "
           "batch kernel reads the aggregator's totals directly)",
           "run_s.p50 on whatif_24h"),
    Metric("power.breakpoint_crossings", "count", "lower",
           "profile breakpoint crossings applied in the first request"),
    Metric("power.states_built", "count", "lower",
           "job power states built in the first request",
           "peak_rss_mb on frontier_12h"),
    Metric("power.batched_builds", "count", "lower",
           "batched power-state build passes in the first request"),
    Metric("cooling.step_s", "s", "lower",
           "time in CoolingPlant.step per run (0 on capped_mc: private mirror)",
           "run_s.p50 on whatif_24h"),
    Metric("stats.record_s", "s", "lower",
           "time in StatsCollector.record_tick / record_job per run (record_job only "
           "on capped_mc)",
           "run_s.p50 on whatif_24h"),
    Metric("stats.summary_s", "s", "lower",
           "time in StatsCollector.summary per run",
           "run_s.p50 on whatif_24h"),
    Metric("batch.shared_builds", "count", "higher",
           "shared rank-space power-state passes in the first group (0 on serial runs)",
           "setup_s on capped_mc"),
    Metric("batch.prebuilt_state_hits", "count", "higher",
           "job starts served from the prebuilt pool in the first group (0 on serial runs)",
           "setup_s on capped_mc"),
    Metric("sweep.store_s", "s", "lower",
           "time in ResultsStore.record_completed per run (0 on serial runs)",
           "runs_per_s on capped_mc"),
    Metric("sweep.driver_s", "s", "lower",
           "run_sweep wall time minus run_batch and store time, per run (0 on serial runs)",
           "runs_per_s on capped_mc"),
    Metric("trace.overhead", "ratio", "lower",
           "instrumented engine.loop_s median divided by the plain one on the same seeds"),
)

#: Per-layer timings: medians over instrumented requests, divided by the
#: replicas of a group on capped_mc. Everything else in PER_LAYER is a
#: deterministic work count of the invocation's first request.
LAYER_TIMES = tuple(
    metric.name for metric in PER_LAYER if metric.unit in ("s", "us", "ratio")
)
COUNTS = tuple(metric.name for metric in PER_LAYER if metric.unit == "count")


# -- probes --------------------------------------------------------------------


class LayerClock:
    """Accumulated wall time and calls of one layer's public methods.

    Calls made while the layer is already on the stack (a policy wrapper
    calling its base policy, ``complete_finished_jobs`` calling ``release``)
    are not counted twice.
    """

    __slots__ = ("seconds", "calls", "_active")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._active = False

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if clock._active:
                return fn(*args, **kwargs)
            clock._active = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.seconds += perf_counter() - start
                clock.calls += 1
                clock._active = False

        return timed


class Patches:
    """Attribute replacements on classes/modules, undone on close."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _defining_classes(base: type, attr: str) -> Iterator[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    seen: set[type] = set()
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            yield cls
        stack.extend(cls.__subclasses__())


#: Layer clock name -> (owner, method names) timed in instrumented requests.
_LAYER_METHODS: dict[str, tuple[tuple[Any, tuple[str, ...]], ...]] = {
    "scheduler.schedule_s": ((Scheduler, ("schedule",)),),
    "cluster.rm_s": (
        (ResourceManager, ("allocate", "complete_finished_jobs", "release")),
    ),
    "power.sample_s": ((RunningSetPowerAggregator, ("sample",)),),
    "cooling.step_s": ((CoolingPlant, ("step",)),),
    "stats.record_s": ((StatsCollector, ("record_tick", "record_job")),),
    "stats.summary_s": ((StatsCollector, ("summary",)),),
    "sweep.store_s": ((ResultsStore, ("record_completed",)),),
}


class Probe:
    """Per-request observations made from outside the program.

    Always installed: wrappers on workload generation, engine construction
    and the engine loop entry points (a handful of calls per request). With
    ``layers=True`` also the per-step layer clocks of :data:`_LAYER_METHODS`.
    """

    def __init__(self, *, layers: bool) -> None:
        self.generate = LayerClock()
        self.init = LayerClock()
        self.loop = LayerClock()
        self.batch_call = LayerClock()
        self.layers = {name: LayerClock() for name in _LAYER_METHODS} if layers else {}
        self.request_started: float | None = None
        self.loop_started: float | None = None
        self.generated: list[int] = []
        self.engines: list[Any] = []
        self._patches = Patches()

    def __enter__(self) -> "Probe":
        patches = self._patches
        patches.replace(SyntheticWorkloadGenerator, "generate", self._on_generate)
        patches.replace(SyntheticWorkloadGenerator, "generate_batch", self._on_generate_batch)
        patches.replace(SimulationEngine, "__init__", self.init.wrap)
        patches.replace(BatchSimulationEngine, "__init__", self.init.wrap)
        patches.replace(SimulationEngine, "run", self._on_run)
        patches.replace(BatchSimulationEngine, "run", self._on_run)
        patches.replace(sweep_driver, "run_batch", self._on_run_batch)
        for name, owners in _LAYER_METHODS.items():
            clock = self.layers.get(name)
            if clock is None:
                continue
            for owner, methods in owners:
                for method in methods:
                    for cls in _defining_classes(owner, method):
                        patches.replace(cls, method, clock.wrap)
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.close()

    def _on_generate(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self.generate.wrap(fn)

        def generate(*args: Any, **kwargs: Any) -> Any:
            jobs = timed(*args, **kwargs)
            self.generated.append(len(jobs))
            return jobs

        return generate

    def _on_generate_batch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self.generate.wrap(fn)

        def generate_batch(*args: Any, **kwargs: Any) -> Any:
            workloads = timed(*args, **kwargs)
            self.generated.extend(len(jobs) for jobs in workloads)
            return workloads

        return generate_batch

    def _on_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self.loop.wrap(fn)

        def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
            self.loop_started = perf_counter()
            self.engines.append(engine)
            return timed(engine, *args, **kwargs)

        return run

    def _on_run_batch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self.batch_call.wrap(fn)

        def run_batch(*args: Any, **kwargs: Any) -> Any:
            self.request_started = perf_counter()
            return timed(*args, **kwargs)

        return run_batch


# -- requests ------------------------------------------------------------------


def request_seeds(seed: int) -> Iterator[int]:
    """Distinct per-request seeds drawn from the invocation seed, in order."""
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    while True:
        value = int(rng.integers(0, 2**32))
        if value not in seen:
            seen.add(value)
            yield value


@dataclass
class Outcome:
    """What one request (one run, or one batch group) produced."""

    runs: int
    wall_s: float
    setup_s: float | None = None
    loop_s: float = math.nan
    summaries: list[dict[str, float]] = field(default_factory=list)
    generated: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    #: Per-run time inside the timed layer calls of the engine loop.
    attributed_s: float = math.nan
    #: Factor from this request's measured seconds to reference seconds.
    to_reference: float = math.nan
    counts: dict[str, float] = field(default_factory=dict)


def _serial_request(
    workload: Workload, seed: int, duration_s: float, probe: Probe, tracer: SpanTracer | None
) -> Outcome:
    factory = WORKLOAD_VARIANTS[workload.variant]
    request = RunRequest(
        system=workload.system,
        policy=POLICY,
        duration_s=duration_s,
        seed=seed,
        spec=None if factory is None else factory(),
    )
    obs = Observability(tracer=tracer) if tracer is not None else None
    start = perf_counter()
    result = run_request(request, obs=obs)
    summary = result.summary()
    wall_s = perf_counter() - start
    assert probe.loop_started is not None
    return Outcome(
        runs=1,
        wall_s=wall_s,
        setup_s=probe.loop_started - start,
        summaries=[summary],
        generated=list(probe.generated),
    )


def _sweep_request(
    workload: Workload, seeds: list[int], duration_s: float, probe: Probe, store_path: Path
) -> Outcome:
    spec = SweepSpec(
        name=workload.name,
        duration_s=duration_s,
        systems=(workload.system,),
        policies=(POLICY,),
        workloads=(workload.variant,),
        seeds=tuple(seeds),
        power_caps=(workload.power_cap_kw,),
        price_per_kwh=workload.price_per_kwh,
        carbon_kg_per_kwh=workload.carbon_kg_per_kwh,
    )
    start = perf_counter()
    run_sweep(
        spec, store_path, workers=1, batch_size=len(seeds), heartbeat_interval_s=None
    )
    wall_s = perf_counter() - start
    outcome = Outcome(runs=len(seeds), wall_s=wall_s)
    if probe.request_started is not None and probe.loop_started is not None:
        outcome.setup_s = probe.loop_started - probe.request_started
    run_ids = {run.run_id: run.request.seed for run in spec.materialize()}
    with ResultsStore(store_path) as store:
        rows = store.runs(sweep=spec.name)
    by_seed = dict(zip(seeds, probe.generated)) if len(probe.generated) == len(seeds) else {}
    for row in rows:
        if row.run_id not in run_ids:
            outcome.problems.append(f"store holds unexpected run {row.run_id}")
    for run_id, seed in run_ids.items():
        matching = [row for row in rows if row.run_id == run_id]
        if len(matching) != 1 or matching[0].status != "completed":
            statuses = [row.status for row in matching]
            outcome.problems.append(f"run {run_id} (seed {seed}) stored as {statuses}")
            continue
        summary = matching[0].summary
        assert summary is not None
        outcome.summaries.append(summary)
        outcome.generated.append(by_seed.get(seed, -1))
    return outcome


def summary_problems(
    workload: Workload, summary: dict[str, float], generated: int
) -> list[str]:
    """Correctness checks of one run's summary; empty when it passes."""
    problems: list[str] = []
    accounted = summary["jobs_completed"] + summary["jobs_dismissed"]
    if accounted != generated:
        problems.append(
            f"jobs completed + dismissed = {accounted:.0f}, generated {generated}"
        )
    bad = sorted(name for name, value in summary.items() if not math.isfinite(value))
    if bad:
        problems.append("non-finite summary values: " + ", ".join(bad))
    if workload.power_cap_kw is not None:
        if summary["cap_violation_kwh"] != 0.0:
            problems.append(f"cap_violation_kwh = {summary['cap_violation_kwh']!r}")
        if not summary["capped_hold_s"] > 0.0:
            problems.append(f"cap never bound: capped_hold_s = {summary['capped_hold_s']!r}")
    return problems


def _check(workload: Workload, outcome: Outcome) -> int:
    """Run the summary checks; returns how many of the request's runs failed."""
    failed_runs = outcome.runs - len(outcome.summaries)
    for summary, generated in zip(outcome.summaries, outcome.generated):
        problems = summary_problems(workload, summary, generated)
        if problems:
            failed_runs += 1
            outcome.problems.extend(problems)
    return failed_runs


def _layer_readings(workload: Workload, probe: Probe, outcome: Outcome,
                    tracer: SpanTracer | None) -> None:
    """Fill an instrumented request's per-run layer timings and work counts."""
    per_run = 1.0 / outcome.runs
    layers = {name: clock.seconds * per_run for name, clock in probe.layers.items()}
    layers["workloads.generate_s"] = probe.generate.seconds * per_run
    layers["engine.init_s"] = probe.init.seconds * per_run
    layers["engine.loop_s"] = probe.loop.seconds * per_run
    outcome.attributed_s = sum(
        layers[name]
        for name in ("scheduler.schedule_s", "cluster.rm_s", "power.sample_s",
                     "cooling.step_s", "stats.record_s")
    )
    steps = sum(summary["ticks"] for summary in outcome.summaries)
    if tracer is not None:
        totals = tracer.totals_ns
        phases = sum(ns for name, ns in totals.items() if name != "run")
        layers["engine.us_per_step"] = phases / 1e3 / steps if steps else 0.0
        layers["engine.coalesce_s"] = totals.get("coalesce", 0) / 1e9
    else:
        loop_s = probe.loop.seconds
        layers["engine.us_per_step"] = loop_s * 1e6 / steps if steps else 0.0
        layers["engine.coalesce_s"] = 0.0
    if workload.replicas:
        store_s = layers["sweep.store_s"]
        layers["sweep.driver_s"] = (
            outcome.wall_s * per_run - probe.batch_call.seconds * per_run - store_s
        )
    else:
        layers["sweep.driver_s"] = 0.0
    outcome.layers = layers

    counts = dict.fromkeys(COUNTS, 0.0)
    counts["workloads.jobs"] = float(sum(probe.generated))
    counts["engine.steps"] = float(steps)
    counts["scheduler.calls"] = float(probe.layers["scheduler.schedule_s"].calls)
    engines: list[Any] = []
    for engine in probe.engines:
        if isinstance(engine, BatchSimulationEngine):
            batch = engine.observability_counters()
            counts["batch.shared_builds"] += batch["engine_batch_shared_builds_total"]
            counts["batch.prebuilt_state_hits"] += batch[
                "engine_batch_prebuilt_state_hits_total"
            ]
            engines.extend(engine.engines)
        else:
            engines.append(engine)
    for engine in engines:
        sched = engine.scheduler.observability_counters()
        counts["scheduler.backfill_reservations"] += sched.get("backfill_reservations", 0)
        counts["scheduler.cap_hold_events"] += sched.get("cap_hold_events", 0)
        rm = engine.resource_manager.observability_counters()
        counts["cluster.end_heap_pops"] += rm["end_heap_pops"]
        counts["cluster.journal_appends"] += rm["journal_appends"]
        power = engine.power_aggregator.observability_counters()
        counts["power.breakpoint_crossings"] += power["breakpoint_crossings"]
        counts["power.states_built"] += power["states_built"]
        counts["power.batched_builds"] += power["batched_builds"]
    outcome.counts = counts


def send(
    workload: Workload,
    seeds: list[int],
    duration_s: float,
    *,
    layers: bool,
    workdir: Path,
) -> Outcome:
    """Send one request (a run, or a group of ``len(seeds)`` replicas)."""
    tracer = SpanTracer(keep_events=False) if layers and not workload.replicas else None
    probe = Probe(layers=layers)
    with probe:
        try:
            if workload.replicas:
                # A fresh store per request: plain and instrumented requests
                # share seeds, and a reused store would resume (skip) them.
                with tempfile.TemporaryDirectory(dir=workdir) as store_dir:
                    store_path = Path(store_dir) / "runs.sqlite"
                    outcome = _sweep_request(workload, seeds, duration_s, probe, store_path)
            else:
                outcome = _serial_request(workload, seeds[0], duration_s, probe, tracer)
        except Exception:  # one failed request must not end the benchmark
            return Outcome(
                runs=len(seeds), wall_s=math.nan, problems=[traceback.format_exc()]
            )
    outcome.loop_s = probe.loop.seconds / outcome.runs
    if layers:
        _layer_readings(workload, probe, outcome, tracer)
    return outcome


# -- the timed loop ------------------------------------------------------------


@dataclass
class Report:
    """Everything one invocation measured; ``metrics`` is what gets printed."""

    workload: str
    trace: bool
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, int]
    machine: dict[str, object]
    #: Median time of the reference kernel over the invocation.
    kernel_s: float
    #: Steps of each run of the first instrumented request (traced only).
    first_request_steps: list[int] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def machine_info() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


#: Median time of :func:`reference_kernel` on the 2-vCPU machine that
#: produced ``perfbench/RECORD.json``, when the host ran at its fast end.
REFERENCE_KERNEL_S = 0.035


def reference_kernel() -> float:
    """Time a fixed mix of dict, float and small-numpy work; returns seconds.

    The mix resembles the engine's per-step work, so host slow-downs hit both
    alike. Past one small dict it allocates no garbage-collected objects, so
    no collection runs whose cost would depend on the program's heap.
    """
    start = perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.0001
    grid = np.arange(64.0)
    for i in range(3_000):
        acc += float(np.clip(grid * i, 0.0, 5.0).sum())
    return perf_counter() - start


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> Report:
    """Warm up, then send requests back to back for ``seconds`` seconds."""
    group = max(1, workload.replicas)
    seed_stream = request_seeds(seed)

    def next_seeds() -> list[int]:
        return [next(seed_stream) for _ in range(group)]

    # Warm-up on a short window: imports, lazy caches and first-call paths
    # are paid here, outside the timed section.
    send(workload, next_seeds(), workload.warmup_duration_s, layers=False, workdir=workdir)

    attempted = failed = 0
    problems: list[str] = []
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    kernel_s = [reference_kernel()]
    section_start = perf_counter()
    while True:
        seeds = next_seeds()
        runs = []
        for layers in (False, True) if trace else (False,):
            outcome = send(workload, seeds, workload.duration_s, layers=layers, workdir=workdir)
            kernel_s.append(reference_kernel())
            outcome.to_reference = 2.0 * REFERENCE_KERNEL_S / (kernel_s[-2] + kernel_s[-1])
            runs.append(outcome)
        for outcome in runs:
            attempted += outcome.runs
            failed += _check(workload, outcome)
            problems.extend(outcome.problems)
        plain.append(runs[0])
        if trace:
            traced.append(runs[1])
        if perf_counter() - section_start >= seconds:
            break

    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    first_request_steps: list[int] = []
    ok = [outcome for outcome in plain if not outcome.problems]
    if trace:
        good = [outcome for outcome in traced if not outcome.problems]
        for name in LAYER_TIMES:
            if name in ("trace.overhead", "engine.unattributed_s"):
                continue
            metrics[name] = (
                _median([o.layers[name] * o.to_reference for o in good]), _unit(name)
            )
            samples[name] = len(good)
        # The gap is taken against the plain request on the same seeds, so the
        # probe's own code outside the timed calls does not land in it.
        unattributed = [
            p.loop_s * p.to_reference - t.attributed_s * t.to_reference
            for p, t in zip(plain, traced)
            if not p.problems and not t.problems
        ]
        metrics["engine.unattributed_s"] = (_median(unattributed), "s")
        samples["engine.unattributed_s"] = len(unattributed)
        metrics["trace.overhead"] = (
            _median([o.loop_s * o.to_reference for o in good])
            / _median([o.loop_s * o.to_reference for o in ok]),
            "ratio",
        )
        samples["trace.overhead"] = len(good)
        first = traced[0].counts if traced[0].counts else dict.fromkeys(COUNTS, math.nan)
        for name in COUNTS:
            metrics[name] = (first[name], "count")
            samples[name] = 1
        first_request_steps = [int(summary["ticks"]) for summary in traced[0].summaries]
        metrics = {metric.name: metrics[metric.name] for metric in PER_LAYER}
    else:
        run_s = [o.wall_s / o.runs * o.to_reference for o in ok]
        setup_s = [o.setup_s * o.to_reference for o in ok if o.setup_s is not None]
        completed = sum(o.runs for o in ok)
        busy_s = sum(o.wall_s * o.to_reference for o in ok)
        metrics["setup_s"] = (_median(setup_s), "s")
        metrics["run_s.p50"] = (_median(run_s), "s")
        metrics["runs_per_s"] = (completed / busy_s if busy_s else math.nan, "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
        samples.update({"setup_s": len(setup_s), "run_s.p50": len(run_s),
                        "runs_per_s": completed, "peak_rss_mb": 1})
    return Report(
        workload=workload.name,
        trace=trace,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=metrics,
        samples=samples,
        machine=machine_info(),
        kernel_s=_median(kernel_s),
        first_request_steps=first_request_steps,
    )


def _unit(name: str) -> str:
    return next(metric.unit for metric in PER_LAYER if metric.name == name)


#: Prefix of the traced output line listing the first request's per-run steps.
STEPS_LINE = "# engine.steps per run of the first request: "


def render(report: Report) -> str:
    """Human-readable lines, then the one-line JSON result (last line)."""
    machine = " ".join(f"{key}={value}" for key, value in report.machine.items())
    lines = [
        f"# {report.workload} trace={int(report.trace)} {machine}",
        f"# reference kernel median {report.kernel_s:.6g} s "
        f"(timings rescaled to {REFERENCE_KERNEL_S} s)",
    ]
    for name, (value, unit) in report.metrics.items():
        lines.append(f"{name} = {value:.6g} {unit} (samples: {report.samples[name]})")
    lines.append(
        f"{FAIL_RATIO.name} = {report.failed}/{report.attempted} {FAIL_RATIO.unit}"
    )
    if report.first_request_steps:
        lines.append(f"{STEPS_LINE}{report.first_request_steps}")
    for problem in report.problems[:10]:
        lines.append("# check failed: " + problem.strip().replace("\n", "\n# "))
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)
