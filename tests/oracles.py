"""O(R) scan oracles for the engine's indexed hot paths.

Production code answers every per-step running-set query from an index:
releases and the next job end from the resource manager's end-time heap,
the next profile breakpoint from the power aggregator's change heap,
membership changes from the allocate/release journal, job-start power
states from one batched build per refresh, EASY reservations from the
expected-release index and the replay ordering from a memo. The functions
and subclasses here recompute the same answers the slow way — by scanning
the running set, resyncing by set difference, building each power state
per job and re-sorting every call — so tests can hold each index to the
scan it replaced.
"""

from __future__ import annotations

from typing import Any

from repro.cluster import ResourceManager
from repro.engine import SimulationEngine
from repro.engine.scheduler import (
    BackfillScheduler,
    ReplayScheduler,
    Scheduler,
    get_scheduler,
)
from repro.power import RunningSetPowerAggregator, SystemPowerModel
from repro.power.system_power import _JobPowerState
from repro.telemetry import Job

__all__ = [
    "BaselineEngine",
    "ResyncPerJobAggregator",
    "ScanCheckedEngine",
    "ScanReservationBackfill",
    "SortingReplay",
    "baseline_scheduler",
    "per_job_totals",
    "scan_due_jobs",
    "scan_next_breakpoint",
    "scan_next_job_end",
]


def _end_time(job: Job) -> float:
    assert job.sim_start_time is not None
    return job.sim_start_time + job.duration


def scan_due_jobs(rm: ResourceManager, now: float) -> list[Job]:
    """Running jobs whose end time is at or before ``now``, by job id."""
    due = [job for job in rm.running_by_id.values() if _end_time(job) <= now]
    return sorted(due, key=lambda job: job.job_id)


def scan_next_job_end(rm: ResourceManager) -> float | None:
    """Earliest end time over the running set, or ``None`` when idle."""
    return min((_end_time(job) for job in rm.running_by_id.values()), default=None)


def scan_next_breakpoint(rm: ResourceManager, now: float) -> float | None:
    """Earliest profile change strictly after ``now`` over the running set."""
    changes = [
        change
        for job in rm.running_by_id.values()
        if (change := job.next_power_change_after(now)) is not None
    ]
    return min(changes, default=None)


def per_job_totals(
    model: SystemPowerModel, rm: ResourceManager, now: float
) -> tuple[float, int, float, float]:
    """From-scratch aggregator ``totals(now)``: a ``for_job`` state per running job."""
    power_w = cpu_weighted = gpu_weighted = 0.0
    nodes_busy = 0
    for job_id in sorted(rm.running_by_id):
        job = rm.running_by_id[job_id]
        state = _JobPowerState.for_job(job, model.node_model(job.partition), now)
        power_w += state.current_power_w
        cpu_weighted += state.current_cpu_weighted
        gpu_weighted += state.current_gpu_weighted
        nodes_busy += job.nodes_required
    return power_w, nodes_busy, cpu_weighted, gpu_weighted


class ScanCheckedEngine(SimulationEngine):
    """Engine that checks its indexes against the scans before every step.

    Each release must equal :func:`scan_due_jobs`, and each coalescing
    decision must see :func:`scan_next_job_end` and
    :func:`scan_next_breakpoint` from the heaps. ``checked_steps`` counts
    the coalescing checks, so a test can assert that they ran.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.checked_steps = 0
        self.checked_releases = 0
        rm = self.resource_manager
        release = rm.complete_finished_jobs

        def checked_release(now: float) -> list[Job]:
            due = scan_due_jobs(rm, now)
            finished = release(now)
            assert finished == due, f"t={now}: heap released {finished}, scan {due}"
            self.checked_releases += len(finished)
            return finished

        rm.complete_finished_jobs = checked_release

    def _coalesced_dt(self, now: float, timestep: float) -> float:
        rm = self.resource_manager
        assert rm.next_job_end() == scan_next_job_end(rm), f"t={now}: job end"
        assert self.power_aggregator.next_breakpoint_after(now) == (
            scan_next_breakpoint(rm, now)
        ), f"t={now}: breakpoint"
        self.checked_steps += 1
        return super()._coalesced_dt(now, timestep)


class ResyncPerJobAggregator(RunningSetPowerAggregator):
    """Every membership change by set-diff resync, every start by ``for_job``.

    A second journal consumer drains the journal first, so the drain in
    :meth:`_sync_membership` cannot answer and the resync runs; the batched
    builder is bypassed even when several jobs start together.
    """

    def _sync_membership(self, now: float) -> None:
        self._rm.drain_change_journal(self._rm.journal_total)
        super()._sync_membership(now)

    def _build_states(self, started_jobs: list[Job], now: float) -> list[_JobPowerState]:
        return [
            _JobPowerState.for_job(job, self._model.node_model(job.partition), now)
            for job in started_jobs
        ]


class ScanReservationBackfill(BackfillScheduler):
    """EASY backfill whose every reservation takes the occupant scan."""

    def _reserve(self, head, head_key, free_counts, resource_manager, started, now):
        occupants = self._occupants(resource_manager, started, head_key, now)
        shadow_time, spare = self._reservation(
            head, free_counts.free_in(head_key), occupants, now
        )
        return shadow_time, spare, now


class SortingReplay(ReplayScheduler):
    """Replay that sorts the queue afresh on every call (no memo)."""

    def _ordered_queue(self, queue, resource_manager):
        return sorted(queue, key=lambda j: (j.start_time, j.job_id))


def baseline_scheduler(policy: str) -> Scheduler:
    """The registered policy with its indexes swapped for the scans."""
    scheduler = get_scheduler(policy)
    if isinstance(scheduler, BackfillScheduler):
        return ScanReservationBackfill()
    if isinstance(scheduler, ReplayScheduler):
        return SortingReplay()
    return scheduler


class BaselineEngine(ScanCheckedEngine):
    """The engine with every index replaced by the scan it supersedes.

    Scan-checked releases and bounds, resync-and-per-job power states,
    occupant-scan reservations and an unmemoized replay ordering: the
    differential baseline the production engine must match at 1e-9.
    """

    def __init__(self, system, jobs, scheduler: str, **kwargs: Any) -> None:
        super().__init__(system, jobs, baseline_scheduler(scheduler), **kwargs)
        self.power_aggregator = ResyncPerJobAggregator(
            self.power_model, self.resource_manager
        )
