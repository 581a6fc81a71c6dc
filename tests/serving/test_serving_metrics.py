"""Metrics instrumentation of the serving stack.

Pins the satellite requirement that breaker/health *gauge* transitions
agree with the resilient scheduler's ``fault_summary`` counters: the
same run observed through the metrics registry and through the report
must tell one story.
"""

import pytest

from repro.core.framework import AnaheimFramework
from repro.faults.plan import default_plan
from repro.gpu.configs import A100_80GB
from repro.obs.metrics import MetricsRegistry
from repro.pim.configs import A100_NEAR_BANK
from repro.serving import BreakerBoard, HealthMonitor, JobRunner, \
    ServePolicy, parse_jobs
from repro.serving.breaker import STATE_VALUES, BreakerState, \
    CircuitBreaker
from repro.serving.health import _ORDER, DegradationState


class TestBreakerGauge:
    def test_initial_state_published_closed(self):
        registry = MetricsRegistry()
        CircuitBreaker(device="pim", metrics=registry)
        gauge = registry.get("anaheim_breaker_state")
        assert gauge.value(device="pim") == STATE_VALUES[
            BreakerState.CLOSED]

    def test_gauge_tracks_every_transition(self):
        registry = MetricsRegistry()
        breaker = CircuitBreaker(device="pim", threshold=2,
                                 cooldown_s=1.0, metrics=registry)
        gauge = registry.get("anaheim_breaker_state")

        breaker.record_failure(0.0)
        assert gauge.value(device="pim") == 0  # still closed
        breaker.record_failure(0.1)            # threshold hit -> OPEN
        assert gauge.value(device="pim") == STATE_VALUES[
            BreakerState.OPEN]
        assert breaker.allow(2.0)              # cooldown -> HALF_OPEN
        assert gauge.value(device="pim") == STATE_VALUES[
            BreakerState.HALF_OPEN]
        breaker.record_success(2.1)            # probe ok -> CLOSED
        assert gauge.value(device="pim") == STATE_VALUES[
            BreakerState.CLOSED]

        # The transitions counter (declared lazily on the first
        # transition) replays the breaker's own event log.
        transitions = registry.get("anaheim_breaker_transitions_total")
        for state in ("open", "half-open", "closed"):
            recorded = sum(1 for e in breaker.events if e["to"] == state)
            assert transitions.value(device="pim", to=state) == recorded
        assert sum(transitions.value(device="pim", to=s)
                   for s in ("open", "half-open", "closed")) == \
            len(breaker.events)

    def test_board_publishes_one_gauge_per_device(self):
        registry = MetricsRegistry()
        BreakerBoard(metrics=registry)
        gauge = registry.get("anaheim_breaker_state")
        samples = gauge.snapshot_samples()
        assert {s["labels"]["device"] for s in samples} == \
            {"gpu", "pim", "transfer"}
        assert all(s["value"] == 0 for s in samples)


class TestDegradationGauge:
    def test_gauge_matches_order_index_through_escalation(self):
        registry = MetricsRegistry()
        health = HealthMonitor(degraded_after=1, gpu_only_after=2,
                               metrics=registry)
        gauge = registry.get("anaheim_degradation_state")
        assert gauge.value() == 0

        health.note_quarantine(3, now=0.5)
        assert health.state is DegradationState.PIM_DEGRADED
        assert gauge.value() == _ORDER.index(health.state) == 1
        health.note_quarantine(7, now=0.9)
        assert health.state is DegradationState.GPU_ONLY
        assert gauge.value() == _ORDER.index(health.state) == 2
        health.note_breaker_open("gpu", now=1.0)
        assert gauge.value() == _ORDER.index(DegradationState.FAILED)

        # One escalation event per counted transition, by target state.
        counter = registry.get("anaheim_degradation_transitions_total")
        for state in ("pim-degraded", "gpu-only", "failed"):
            recorded = sum(1 for e in health.events if e["to"] == state)
            assert counter.value(to=state) == recorded
        assert len(health.events) == 3

    def test_escalation_only_moves_forward(self):
        registry = MetricsRegistry()
        health = HealthMonitor(metrics=registry)
        health.escalate(DegradationState.GPU_ONLY, 0.0, "forced")
        assert not health.escalate(DegradationState.PIM_DEGRADED, 1.0,
                                   "ignored")
        assert registry.get("anaheim_degradation_state").value() == 2
        assert registry.get(
            "anaheim_degradation_transitions_total").value(
                to="pim-degraded") == 0


class TestSchedulerCountersMatchSummary:
    @pytest.fixture(scope="class")
    def faulted(self):
        """One degrading Boot run observed through a fresh registry."""
        from repro.params import paper_params
        from repro.workloads.applications import build
        params = paper_params()
        workload = build("Boot", params)
        registry = MetricsRegistry()
        plan = default_plan(seed=0, stuck_sites=(1, 5))
        health = HealthMonitor(degraded_after=1, gpu_only_after=2,
                               metrics=registry)
        breakers = BreakerBoard(metrics=registry)
        framework = AnaheimFramework(
            A100_80GB, A100_NEAR_BANK, fault_plan=plan, health=health,
            breakers=breakers, metrics=registry)
        result = framework.run(workload.blocks, params.degree,
                               label="Boot (metrics)")
        return registry, result.report.fault_summary, health, breakers

    def test_fault_event_counters_equal_summary(self, faulted):
        registry, summary, _, _ = faulted
        faults = registry.get("anaheim_fault_events_total")
        for event in ("injected", "benign", "detected"):
            assert faults.value(event=event) == summary[event], event
        assert faults.value(event="rerouted") == summary["rerouted"]
        assert faults.value(event="degraded_reroute") == \
            summary["degraded_reroutes"]
        assert faults.value(event="quarantine") == \
            len(summary["quarantined_sites"])

    def test_degradation_gauge_matches_summary_state(self, faulted):
        registry, summary, health, _ = faulted
        degradation = summary["degradation"]
        assert degradation["state"] == health.state.value
        gauge = registry.get("anaheim_degradation_state")
        assert gauge.value() == _ORDER.index(health.state)
        counter = registry.get("anaheim_degradation_transitions_total")
        total = sum(counter.value(to=s.value) for s in DegradationState)
        assert total == len(degradation["events"])

    def test_breaker_gauges_match_summary_states(self, faulted):
        registry, summary, _, breakers = faulted
        gauge = registry.get("anaheim_breaker_state")
        recorded = registry.get("anaheim_breaker_transitions_total")
        for device, info in summary["breakers"].items():
            state = BreakerState(info["state"])
            assert gauge.value(device=device) == STATE_VALUES[state], \
                device
            total = 0 if recorded is None else sum(
                recorded.value(device=device, to=s.value)
                for s in BreakerState)
            assert total == len(info["events"])

    @pytest.fixture(scope="class")
    def timed_out(self):
        """A Boot run that retries, falls back and times out, but stays
        on PIM long enough to keep every recovery path busy."""
        from repro.params import paper_params
        from repro.workloads.applications import build
        params = paper_params()
        workload = build("Boot", params)
        registry = MetricsRegistry()
        framework = AnaheimFramework(
            A100_80GB, A100_NEAR_BANK,
            fault_plan=default_plan(seed=0, stuck_sites=(1, 5)),
            health=HealthMonitor(degraded_after=3, gpu_only_after=50,
                                 metrics=registry),
            breakers=BreakerBoard(metrics=registry),
            kernel_timeout=1e-4, metrics=registry)
        report = framework.run(workload.blocks, params.degree,
                               label="Boot (timeouts)").report
        return registry, report

    def test_recovery_counters_equal_summary(self, timed_out):
        registry, report = timed_out
        summary = report.fault_summary
        faults = registry.get("anaheim_fault_events_total")
        assert summary["recovered_retry"] > 0
        assert summary["recovered_fallback"] > 0
        assert faults.value(event="retry") == summary["recovered_retry"]
        assert faults.value(event="fallback") == \
            summary["recovered_fallback"]

    def test_timeout_and_reroute_counters_equal_summary(self, timed_out):
        registry, report = timed_out
        summary = report.fault_summary
        faults = registry.get("anaheim_fault_events_total")
        assert summary["kernel_timeouts"] > 0
        assert faults.value(event="kernel_timeout") == \
            summary["kernel_timeouts"]
        assert faults.value(event="breaker_reroute") == \
            summary["breaker_reroutes"]

    def test_transitions_counter_equals_report(self, timed_out):
        registry, report = timed_out
        assert report.transitions > 0
        assert registry.get("anaheim_transitions_total").value() == \
            report.transitions


class TestJobRunnerMetrics:
    def test_serve_units_and_latency_histogram(self):
        jobs = parse_jobs(["faults:analytic:Boot"])
        policy = ServePolicy(seeds=(0, 1), stuck_sites=(1, 5),
                             degraded_after=1, gpu_only_after=2)
        registry = MetricsRegistry()
        result = JobRunner(jobs, policy, metrics=registry).run()
        assert result["ok"]

        units = registry.get("anaheim_serve_units_total")
        assert units.value(kind="faults", status="ok") == 2
        hist = registry.get("anaheim_serve_unit_seconds")
        assert hist.count(kind="faults", workload="Boot") == 2
        # Simulated (faulted) time, not wall clock: the histogram sum
        # replays the units' own reported faulted_time_s.
        simulated = sum(
            u["result"]["faulted_time_s"]
            for u in result["jobs"][0]["units"].values())
        assert hist.sum(kind="faults", workload="Boot") == \
            pytest.approx(simulated)

    def test_restored_units_counted_not_reobserved(self, tmp_path):
        jobs = parse_jobs(["faults:analytic:Boot"])
        policy = ServePolicy(seeds=(0, 1), stuck_sites=(1, 5),
                             degraded_after=1, gpu_only_after=2)
        ckpt = tmp_path / "ck.json"
        JobRunner(jobs, policy, checkpoint_path=ckpt, max_units=1).run()

        registry = MetricsRegistry()
        result = JobRunner(jobs, policy, checkpoint_path=ckpt,
                           resume_path=ckpt, metrics=registry).run()
        assert result["ok"]
        assert registry.get(
            "anaheim_serve_units_restored_total").value() == 1
        # Only the freshly-executed unit lands in the latency histogram.
        assert registry.get("anaheim_serve_unit_seconds").count(
            kind="faults", workload="Boot") == 1

    def test_on_unit_fires_for_fresh_and_restored(self, tmp_path):
        jobs = parse_jobs(["faults:analytic:Boot"])
        policy = ServePolicy(seeds=(0, 1), stuck_sites=(1, 5),
                             degraded_after=1, gpu_only_after=2)
        ckpt = tmp_path / "ck.json"
        JobRunner(jobs, policy, checkpoint_path=ckpt, max_units=1).run()

        seen = []
        JobRunner(jobs, policy, checkpoint_path=ckpt, resume_path=ckpt,
                  on_unit=lambda job, unit, doc, fresh:
                  seen.append((unit, fresh))).run()
        assert sorted(seen) == [("analytic/0", False),
                                ("analytic/1", True)]
