"""End-to-end overload protection: simulation, soak, serve wiring.

The heart of the acceptance bar lives here: the same seed must produce
byte-identical admit/shed decisions, unit documents, and metrics
digests for any worker count, and the 2x-capacity chaos cell must
complete with every offered job conserved.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serving import ServePolicy
from repro.serving.admission import AdmissionPolicy, CostModel
from repro.serving.health import DegradationState, HealthMonitor
from repro.serving.overload import (chaos_events, check_invariants,
                                    jobs_from_completions,
                                    run_overload_serve, simulate_overload)
from repro.serving.soak import (overload_bench_cell,
                                overload_bench_metrics, run_soak)
from repro.serving.traffic import (DEFAULT_TENANTS, ArrivalSpec,
                                   capacity_qps)

#: Synthetic service costs in the same ballpark as the analytic model's
#: Boot/HELR times — keeps simulation tests off the real framework.
MODEL = CostModel({"Boot": {"pim": 0.027, "gpu": 0.037},
                   "HELR": {"pim": 0.033, "gpu": 0.041}})

POLICY = AdmissionPolicy()


def overload_spec(load=2.0, duration_s=2.0, seed=0) -> ArrivalSpec:
    rate = load * capacity_qps(MODEL, DEFAULT_TENANTS)
    return ArrivalSpec(process="poisson", rate_qps=rate,
                       duration_s=duration_s, seed=seed)


class TestSimulation:
    def test_deterministic(self):
        docs = [simulate_overload(overload_spec(), DEFAULT_TENANTS,
                                  POLICY, MODEL, health=HealthMonitor())
                for _ in range(2)]
        assert json.dumps(docs[0], sort_keys=True) == \
            json.dumps(docs[1], sort_keys=True)

    def test_invariants_hold_under_overload(self):
        sim = simulate_overload(overload_spec(), DEFAULT_TENANTS, POLICY,
                                MODEL, health=HealthMonitor())
        assert check_invariants(sim) == []
        summary = sim["summary"]
        assert summary["shed_total"] > 0            # protection engaged
        assert summary["completed"] > 0
        assert summary["brownout"]["state"] == "gpu-only"

    def test_underload_admits_everything(self):
        sim = simulate_overload(overload_spec(load=0.4), DEFAULT_TENANTS,
                                POLICY, MODEL, health=HealthMonitor())
        summary = sim["summary"]
        assert summary["rejected_total"] == 0
        assert summary["shed_total"] == 0
        assert summary["admitted"] == summary["completed"]
        assert summary["brownout"]["state"] == "healthy"

    def test_queue_drains_fully(self):
        """Every admitted job ends completed or cleanly shed."""
        sim = simulate_overload(overload_spec(load=3.0), DEFAULT_TENANTS,
                                POLICY, MODEL, health=HealthMonitor())
        summary = sim["summary"]
        assert summary["admitted"] == summary["completed"] \
            + summary["shed_total"]

    def test_chaos_quarantines_escalate_health(self):
        health = HealthMonitor(gpu_only_after=3)
        chaos = chaos_events(fault_seed=0, duration_s=2.0)
        sim = simulate_overload(overload_spec(load=0.4), DEFAULT_TENANTS,
                                POLICY, MODEL, health=health, chaos=chaos)
        assert health.state is DegradationState.GPU_ONLY
        # post-brownout dispatches re-lowered to GPU-only service
        assert any(c["mode"] == "gpu" for c in sim["completions"])

    def test_chaos_events_are_seeded(self):
        assert chaos_events(0, 2.0) == chaos_events(0, 2.0)
        assert chaos_events(0, 2.0) != chaos_events(1, 2.0)

    def test_jobs_from_completions_wires_degraded_start(self):
        completions = [
            {"index": 0, "kind": "run", "workload": "Boot",
             "mode": "pim"},
            {"index": 1, "kind": "faults", "workload": "Boot",
             "mode": "gpu"},
        ]
        jobs = jobs_from_completions(completions)
        assert not jobs[0].degraded_start
        assert jobs[0].kind == "run"
        assert jobs[1].degraded_start
        assert jobs[1].layers == ("analytic",)


class TestSoak:
    def test_campaign_gates_green(self):
        doc = run_soak(cost_model=MODEL, duration_s=1.0)
        assert doc["gate"]["passed"], doc["gate"]["violations"]
        assert len(doc["cells"]) == 6           # 3 loads x 2 chaos kinds
        overloaded = [c for c in doc["cells"] if c["load"] > 1.0]
        assert all(c["summary"]["shed_total"]
                   + c["summary"]["rejected_total"] > 0
                   for c in overloaded)

    def test_campaign_is_deterministic(self):
        docs = [run_soak(cost_model=MODEL, duration_s=1.0)
                for _ in range(2)]
        assert json.dumps(docs[0], sort_keys=True) == \
            json.dumps(docs[1], sort_keys=True)

    def test_bench_cell_metrics_are_stable(self):
        cells = [overload_bench_cell(cost_model=MODEL)
                 for _ in range(2)]
        assert overload_bench_metrics(cells[0]) == \
            overload_bench_metrics(cells[1])
        metrics = overload_bench_metrics(cells[0])
        assert metrics["shed_rate"] > 0
        assert metrics["goodput_qps"] > 0
        assert metrics["offered"] == metrics["admitted"] \
            + metrics["rejected_total"]


class TestServeWiring:
    """The full pipeline on the real analytic model (slower)."""

    def run_one(self, workers, metrics):
        # 0.8s at ~2x capacity: long enough that watermark shedding and
        # door rejections are both active, short enough to execute.
        spec = ArrivalSpec(process="poisson", rate_qps=64.0,
                           duration_s=0.8, seed=0)
        return run_overload_serve(
            spec, DEFAULT_TENANTS, AdmissionPolicy(),
            ServePolicy(seeds=(0,)), metrics=metrics, workers=workers)

    def test_workers_do_not_change_the_bytes(self):
        """Acceptance bar: byte-identical documents, decisions, and
        metric digests for --workers 1, 2, and 4 with shedding and
        rejections active (shed/rejected units exercise
        MetricsRegistry.merge on the pool paths)."""
        documents, digests = [], []
        for workers in (1, 2, 4):
            registry = MetricsRegistry()
            document, _ = self.run_one(workers, registry)
            documents.append(json.dumps(document, sort_keys=True))
            digests.append(registry.digest())
        assert documents[0] == documents[1] == documents[2]
        assert digests[0] == digests[1] == digests[2]
        summary = json.loads(documents[0])["admission"]["summary"]
        assert summary["shed_total"] > 0
        assert summary["rejected_total"] > 0

    def test_document_carries_the_admission_section(self):
        registry = MetricsRegistry()
        document, runner = self.run_one(1, registry)
        admission = document["admission"]
        summary = admission["summary"]
        assert summary["offered"] == summary["admitted"] \
            + summary["rejected_total"]
        assert summary["admitted"] == summary["completed"] \
            + summary["shed_total"]
        assert len(document["jobs"]) == summary["completed"]
        assert len(admission["decisions"]) >= summary["offered"]
        # simulation metrics landed in the registry
        assert registry.get("anaheim_admission_total").value(
            decision="admitted") == summary["admitted"]
        assert registry.get("anaheim_shed_total").value(
            reason="watermark") + registry.get(
                "anaheim_shed_total").value(reason="expired") == \
            summary["shed_total"]
