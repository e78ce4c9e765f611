"""Tests for power-capped operation: ``PowerCapScheduler`` end to end.

The tiny system has an 8.0 kW idle floor and tops out around 16.3 kW of
compute power on the default 2 h seed-1 workload, so caps in the 9-16 kW
band actually bind: 14 kW only delays jobs, 12 kW and below makes some
jobs infeasible outright.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import OperatingSignals, PowerCapScheduler, run_simulation
from repro.engine import (
    BackfillScheduler,
    FCFSScheduler,
    Scheduler,
    SimulationEngine,
)
from repro.exceptions import SchedulingError
from repro.power import SystemPowerModel
from repro.telemetry import JobState

from helpers import make_job


def _run(policy="fcfs", *, signals=None, dense_ticks=False, seed=1):
    return run_simulation(
        system="tiny",
        policy=policy,
        duration="2h",
        seed=seed,
        signals=signals,
        dense_ticks=dense_ticks,
    )


class TestAutoWrap:
    def test_capped_signals_wrap_the_policy(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=14.0))
        assert result.policy == "power_cap(fcfs)"

    def test_capless_signals_do_not_wrap(self):
        result = _run(signals=OperatingSignals.constant(price_per_kwh=0.1))
        assert result.policy == "fcfs"

    def test_uncapped_run_keeps_zero_defaults(self):
        summary = _run().summary()
        assert summary["energy_cost"] == 0.0
        assert summary["carbon_kg"] == 0.0
        assert summary["cap_violation_kwh"] == 0.0
        assert summary["capped_hold_s"] == 0.0


class TestConstantCap:
    def test_loose_cap_changes_nothing(self):
        baseline = _run().summary()
        capped = _run(signals=OperatingSignals.constant(power_cap_kw=500.0)).summary()
        for key, value in baseline.items():
            if key in ("energy_cost", "carbon_kg"):
                continue
            assert capped[key] == pytest.approx(value, rel=1e-9), key

    def test_binding_cap_holds_jobs(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=14.0))
        summary = result.summary()
        assert summary["capped_hold_s"] > 0.0
        assert not result.dismissed_jobs
        # Every job still completes, just later.
        assert len(result.completed_jobs) == len(result.jobs)
        assert summary["mean_wait_s"] > _run().summary()["mean_wait_s"]

    def test_tight_cap_dismisses_infeasible_jobs(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=12.0))
        assert result.dismissed_jobs
        for job in result.dismissed_jobs:
            assert job.state is JobState.DISMISSED
            assert job.metadata["dismiss_reason"].startswith("power cap infeasible")

    @pytest.mark.parametrize("cap_kw", [14.0, 12.0, 10.0, 8.5])
    def test_constant_cap_never_violated(self, cap_kw):
        """The admission check is exact: compute power stays under the cap."""
        result = _run(signals=OperatingSignals.constant(power_cap_kw=cap_kw))
        assert result.summary()["cap_violation_kwh"] == 0.0
        compute_kw = result.stats.column("compute_power_kw")
        assert np.all(compute_kw <= cap_kw + 1e-9)

    def test_cap_below_incremental_dismisses_most_jobs(self):
        # 8.5 kW leaves 0.5 kW of headroom over the 8.0 kW idle floor:
        # almost nothing fits, and infeasible jobs are dismissed on sight
        # (never merely held), so no hold time accrues.
        result = _run(signals=OperatingSignals.constant(power_cap_kw=8.5))
        summary = result.summary()
        assert len(result.dismissed_jobs) == 16
        assert len(result.completed_jobs) == len(result.jobs) - 16
        assert summary["capped_hold_s"] == 0.0


class TestCostAndCarbon:
    def test_energy_cost_matches_manual_integral(self):
        signals = OperatingSignals(
            price_per_kwh=((0.0, 0.08), (1800.0, 0.24), (5400.0, 0.08)),
            carbon_kg_per_kwh=((0.0, 0.35),),
        )
        result = _run(signals=signals)
        stats = result.stats
        time_s = stats.column("time_s")
        dt_s = stats.column("dt_s")
        facility_kw = stats.column("facility_power_kw")
        prices = np.asarray([signals.price_at(t) for t in time_s])
        expected_cost = float(np.sum(facility_kw * prices * dt_s / 3600.0))
        expected_carbon = float(np.sum(facility_kw * 0.35 * dt_s / 3600.0))
        summary = result.summary()
        assert summary["energy_cost"] == pytest.approx(expected_cost, rel=1e-9)
        assert summary["carbon_kg"] == pytest.approx(expected_carbon, rel=1e-9)
        # Sanity: carbon tracks total energy directly.
        assert summary["carbon_kg"] == pytest.approx(
            0.35 * summary["total_energy_kwh"], rel=1e-9
        )

    def test_price_steps_are_coalescing_breakpoints(self):
        """A price step mid-run must bound an event-engine interval, so the
        dense and event engines integrate the exact same cost."""
        signals = OperatingSignals(price_per_kwh=((0.0, 0.05), (1234.5, 0.50)))
        event = _run(signals=signals).summary()
        dense = _run(signals=signals, dense_ticks=True).summary()
        assert event["energy_cost"] == pytest.approx(dense["energy_cost"], rel=1e-9)


class TestDemandResponse:
    def test_cap_window_only_binds_inside_the_window(self):
        signals = OperatingSignals.cap_window(1800.0, 3600.0, 10.0)
        result = _run(signals=signals)
        assert result.policy == "power_cap(fcfs)"
        summary = result.summary()
        # The cap lifts afterwards, so nothing is infeasible forever.
        assert not result.dismissed_jobs
        assert summary["capped_hold_s"] > 0.0
        # Violations can only accrue inside the window, from jobs already
        # running when the cap drops (the scheduler never kills jobs).
        stats = result.stats
        time_s = stats.column("time_s")
        compute_kw = stats.column("compute_power_kw")
        outside = (time_s < 1800.0) | (time_s >= 3600.0)
        caps = np.asarray([signals.cap_at(t) for t in time_s])
        assert np.all(np.isinf(caps[outside]))


class TestMeanUtilWeighting:
    def test_cpu_gpu_means_are_dt_weighted(self):
        """Event and dense runs must agree on mean_cpu_util/mean_gpu_util:
        only a dt-weighted mean is invariant to sample coalescing."""
        event = _run().summary()
        dense = _run(dense_ticks=True).summary()
        assert event["mean_cpu_util"] == pytest.approx(dense["mean_cpu_util"], rel=1e-9)
        assert event["mean_gpu_util"] == pytest.approx(dense["mean_gpu_util"], rel=1e-9)
        assert 0.0 <= event["mean_cpu_util"] <= 1.0


class TestSchedulerUnit:
    def test_explicit_wrapper_instance(self, tiny_system):
        jobs = [make_job(nodes=4, submit=0.0, duration=600.0)]
        scheduler = PowerCapScheduler(
            FCFSScheduler(), OperatingSignals.constant(power_cap_kw=14.0)
        )
        engine = SimulationEngine(
            tiny_system,
            jobs,
            scheduler,
            signals=OperatingSignals.constant(power_cap_kw=14.0),
        )
        result = engine.run()
        assert result.policy == "power_cap(fcfs)"
        assert [j.state for j in result.jobs] == [JobState.COMPLETED]

    def test_unbound_power_model_raises(self, tiny_system):
        scheduler = PowerCapScheduler(
            FCFSScheduler(), OperatingSignals.constant(power_cap_kw=14.0)
        )
        from repro.cluster import ResourceManager

        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2, submit=0.0, duration=600.0)
        with pytest.raises(SchedulingError, match="bind_power_model"):
            scheduler.schedule([job], rm, 0.0)

    def test_observability_counters(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=12.0))
        # Counters are surfaced through the run's summary side-channel: use
        # a fresh engine to inspect the scheduler directly instead.
        signals = OperatingSignals.constant(power_cap_kw=12.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        counters = scheduler.observability_counters()
        assert counters["cap_hold_events"] == 0
        assert counters["cap_dismissed_jobs"] == 0
        assert result.dismissed_jobs  # the end-to-end effect of the counter path

    def test_reset_clears_cap_state(self, tiny_system):
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        scheduler.bind_power_model(SystemPowerModel(tiny_system))
        scheduler._held = 3
        scheduler._committed_kw = {1: 2.0}
        scheduler._committed_total_kw = 2.0
        scheduler.reset()
        assert scheduler.held_jobs() == 0
        assert scheduler._committed_kw == {}
        assert scheduler._committed_total_kw == 0.0

    def test_fcfs_holding_defers_to_base_hint(self):
        # FCFS proposals depend only on free-node counts, so a pass that
        # held jobs and admitted none no longer vetoes coalescing.
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        scheduler._held = 1
        queue = [make_job(nodes=2, submit=0.0)]
        assert FCFSScheduler().proposals_stable_until(123.0) is None
        assert scheduler.next_event_hint(queue, 123.0) is None

    def test_backfill_holding_returns_recorded_bound(self):
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        base = BackfillScheduler()
        scheduler = PowerCapScheduler(base, signals)
        scheduler._held = 1
        queue = [make_job(nodes=2, submit=0.0)]
        base._stable_until = 500.0
        assert scheduler.next_event_hint(queue, 123.0) == 500.0
        base._stable_until = None
        assert scheduler.next_event_hint(queue, 123.0) is None

    def test_admitting_pass_vetoes_while_holding(self):
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        base = BackfillScheduler()
        scheduler = PowerCapScheduler(base, signals)
        base._stable_until = 500.0
        scheduler._held = 1
        scheduler._admitted_pass = 1
        queue = [make_job(nodes=2, submit=0.0)]
        assert scheduler.next_event_hint(queue, 123.0) == 123.0
        # Admissions alone (nothing held) keep the base's own contract.
        scheduler._held = 0
        assert scheduler.next_event_hint(queue, 123.0) is None

    def test_dismissal_pass_still_vetoes(self):
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        scheduler._dismissed_pass = 1
        queue = [make_job(nodes=2, submit=0.0)]
        assert scheduler.next_event_hint(queue, 123.0) == 123.0
        scheduler._held = 1
        assert scheduler.next_event_hint(queue, 123.0) == 123.0
        # An emptied queue has nothing left to unblock.
        assert scheduler.next_event_hint([], 123.0) is None

    def test_scheduler_default_still_vetoes(self):
        class Quiescent(Scheduler):
            name = "quiescent"

            def schedule(self, queue, resource_manager, now):
                return []

            def next_event_hint(self, queue, now):
                return None

        base = Quiescent()
        assert base.proposals_stable_until(123.0) == 123.0
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        scheduler = PowerCapScheduler(base, signals)
        scheduler._held = 1
        assert scheduler.next_event_hint([make_job(nodes=2)], 123.0) == 123.0


class TestDismissalCoalescing:
    """Regression: a dismissal must bound coalescing like a hold does.

    Dismissing a blocked queue head removes it from the queue *after* the
    base policy ran, so the jobs behind it can start on the very next grid
    tick — which a dense run acts on immediately. The event-driven run used
    to coalesce straight past that tick (the pass held nothing, so the
    hint deferred to the base policy's "quiescent" contract) and start the
    unblocked job only at the next natural event, thousands of seconds
    late.
    """

    def _jobs(self, tiny_system):
        light = dict(cpu=0.1, gpu=0.0)
        return [
            # Occupies most of the machine well past the dismissal point, so
            # an unfixed event-driven run has a far-away end to coalesce to.
            make_job(nodes=20, submit=0.0, start=0.0, duration=7200.0, wall_limit=7200.0, **light),
            # Frees its nodes at t=600, which is when the blocked head is
            # first proposed (and dismissed).
            make_job(nodes=8, submit=0.0, start=0.0, duration=600.0, wall_limit=600.0, **light),
            # Power-hungry head: node-blocked until t=600 (only 4 nodes
            # free), cap-infeasible once proposed.
            make_job(nodes=8, submit=10.0, start=10.0, duration=3600.0, wall_limit=3600.0, cpu=1.0, gpu=1.0),
            # Waits behind the head (too wide for the 4 free nodes);
            # startable the tick after the head is dismissed.
            make_job(nodes=6, submit=20.0, start=20.0, duration=900.0, wall_limit=9000.0, **light),
        ]

    def _cap_kw(self, tiny_system, jobs):
        model = SystemPowerModel(tiny_system)

        def incr(job):
            peak_w = model.job_peak_power_w(job)
            idle_w = model.node_idle_power_w(job.partition) * job.nodes_required
            return max(0.0, (peak_w - idle_w) / 1000.0)

        light_load = incr(jobs[0]) + max(incr(jobs[1]), incr(jobs[3]))
        hungry = incr(jobs[2])
        # The scenario needs the light jobs to co-run under a cap the
        # hungry job can never fit below.
        assert light_load < 0.9 * hungry
        return model.idle_floor_kw() + 0.9 * hungry

    def test_dismissal_unblocks_queue_without_coalescing_past_it(self, tiny_system):
        results = {}
        for dense in (True, False):
            jobs = self._jobs(tiny_system)
            signals = OperatingSignals.constant(power_cap_kw=self._cap_kw(tiny_system, jobs))
            engine = SimulationEngine(
                tiny_system, jobs, "backfill", signals=signals, dense_ticks=dense
            )
            results[dense] = engine.run()

        for result in results.values():
            [dismissed] = result.dismissed_jobs
            assert dismissed.nodes_required == 8
            assert "power cap infeasible" in dismissed.metadata["dismiss_reason"]
            # The trailing 6-node job starts on the first grid tick after
            # the head's dismissal at t=600, not at the next natural event
            # (the 20-node job's end at t=7200).
            trailing = next(
                j for j in result.completed_jobs if j.nodes_required == 6
            )
            assert trailing.sim_start_time == 615.0

        dense_summary = results[True].summary()
        event_summary = results[False].summary()
        for key, value in dense_summary.items():
            if key == "ticks":
                continue
            assert event_summary[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


class TestAdmissionCoalescing:
    """Regression: a pass that admits some proposals and holds others must
    not coalesce on the bound the base policy recorded for it.

    Admission moves the admitted jobs into the running set after the base
    policy decided. In the EASY walk the admitted 1-node job was a
    started-this-tick entry that slid along with ``now``; from the next
    tick on it is a fixed running-job end, and the held 3-node job slides
    past it at t = 3615 - 1800 = 1815. The crossing then moves, the spare
    count grows to one node, and the trailing 1-node job backfills. A run
    that coalesced on the stale bound jumped to the next release at t=3615
    and started that job 1800 s late.
    """

    def _jobs(self):
        light = dict(cpu=0.1, gpu=0.0)
        return [
            # Leaves 6 of tiny's 32 nodes free until long after the window.
            make_job(nodes=26, submit=0.0, start=0.0, duration=20000.0, wall_limit=20000.0, **light),
            # Admitted at t=15; its expected end 3615 becomes a fixed entry.
            make_job(nodes=1, submit=10.0, start=10.0, duration=3600.0, wall_limit=3600.0, **light),
            # Power-hungry: fits the cap's headroom but not what is left of
            # it, so it is held on every pass (a sliding walk entry).
            make_job(nodes=3, submit=11.0, start=11.0, duration=1800.0, wall_limit=1800.0, cpu=1.0, gpu=1.0),
            # The node-blocked head the reservation is for.
            make_job(nodes=5, submit=12.0, start=12.0, duration=600.0, wall_limit=600.0, **light),
            # Outlives the shadow time, so it needs a spare node.
            make_job(nodes=1, submit=13.0, start=13.0, duration=7200.0, wall_limit=7200.0, **light),
        ]

    def _signals(self, tiny_system):
        model = SystemPowerModel(tiny_system)
        hungry = self._jobs()[2]
        peak_w = model.job_peak_power_w(hungry)
        idle_w = model.node_idle_power_w(hungry.partition) * hungry.nodes_required
        cap_kw = model.idle_floor_kw() + (peak_w - idle_w) / 1000.0 + 0.01
        return OperatingSignals.constant(power_cap_kw=cap_kw)

    def test_backfill_bound_after_admission(self, tiny_system):
        engine = SimulationEngine(
            tiny_system, self._jobs(), "backfill", signals=self._signals(tiny_system)
        )
        scheduler = engine.scheduler
        assert isinstance(scheduler, PowerCapScheduler)
        engine.step()  # t=0: the 26-node job starts
        engine.step()  # t=15: 1-node job admitted, 3-node job held
        assert scheduler.held_jobs() == 1
        assert scheduler.next_event_hint(engine.queued_jobs, 15.0) == 15.0
        assert engine.now == 30.0
        engine.step()  # t=30: same proposals, held, nothing admitted
        assert scheduler.held_jobs() == 1
        assert scheduler.base.proposals_stable_until(30.0) == 1815.0
        assert scheduler.next_event_hint(engine.queued_jobs, 30.0) == 1815.0
        assert engine.now == 1815.0

    def test_dense_event_equal(self, tiny_system):
        results = {}
        for dense in (True, False):
            engine = SimulationEngine(
                tiny_system,
                self._jobs(),
                "backfill",
                signals=self._signals(tiny_system),
                dense_ticks=dense,
            )
            results[dense] = engine.run()
        for result in results.values():
            trailing = result.jobs[4]
            assert trailing.sim_start_time == 1815.0
        dense_summary = results[True].summary()
        event_summary = results[False].summary()
        assert dense_summary["capped_hold_s"] > 0.0
        assert event_summary["ticks"] < dense_summary["ticks"] / 20
        for key, value in dense_summary.items():
            if key == "ticks":
                continue
            assert event_summary[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


class TestEquivalenceUnderCaps:
    @pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
    def test_dense_event_equal_under_stepped_signals(self, policy):
        signals = OperatingSignals(
            power_cap_kw=((0.0, 12.0), (3600.0, 14.5), (7000.3, 11.0)),
            price_per_kwh=((0.0, 0.1), (5400.0, 0.3)),
            carbon_kg_per_kwh=((0.0, 0.25),),
        )
        event = _run(policy, signals=signals).summary()
        dense = _run(policy, signals=signals, dense_ticks=True).summary()
        for key, value in dense.items():
            if key == "ticks":
                continue
            assert event[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
