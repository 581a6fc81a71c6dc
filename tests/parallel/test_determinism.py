"""Byte-identity of pooled execution with the serial paths.

The headline property of the parallel engine: every observable output
of a ``--workers N`` run — serve documents, checkpoint files, merged
metrics digests, campaign matrices — is byte-identical to ``--workers
1``.  Scripted unit behavior is shared between the parent's serial
runner and the pool workers through module globals, which forked
workers inherit (the pool is created lazily, after each test sets its
script), so serial and pooled runs execute the same deterministic
retry/degradation story.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError
from repro.obs.metrics import MetricsRegistry
from repro.serving.jobs import JobRunner, JobSpec, ServePolicy

PARENT_PID = os.getpid()

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="scripted pool units need fork inheritance")

#: Scripted unit behavior, keyed by ``job.id:unit``.  Module globals so
#: the (forked) pool workers replay the exact script the parent set.
FAIL_SCRIPT: dict = {}
END_SCRIPT: dict = {}
CRASH_UNITS: set = set()


class ScriptedRunner(JobRunner):
    """JobRunner whose units are a pure function of the module script:
    ``FAIL_SCRIPT[key]`` attempts raise FaultError before one succeeds
    with end state ``END_SCRIPT.get(key, "healthy")``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scripted_failures = dict(FAIL_SCRIPT)

    def _execute_unit(self, job, unit, degraded):
        key = f"{job.id}:{unit}"
        if self._scripted_failures.get(key, 0) > 0:
            self._scripted_failures[key] -= 1
            raise FaultError(f"scripted failure for {key}")
        return {"unit": unit, "degraded": degraded,
                "end_state": END_SCRIPT.get(key, "healthy")}


def scripted_pool_attempt(task):
    """Worker-side twin of ``_pool_attempt`` over the scripted runner."""
    registry = MetricsRegistry() if task.collect_metrics else None
    runner = ScriptedRunner([task.job], task.policy, metrics=registry)
    doc = runner._attempt_unit(task.job, task.unit, task.key,
                               task.degraded)
    return doc, registry


def crashing_pool_attempt(task):
    """Kill the worker process on scripted units; safe in the parent
    (the inline crash-recovery rerun goes through here too)."""
    if task.unit in CRASH_UNITS and os.getpid() != PARENT_PID:
        os._exit(1)
    return scripted_pool_attempt(task)


def set_script(failures=None, end_states=None, crash_units=()):
    FAIL_SCRIPT.clear()
    FAIL_SCRIPT.update(failures or {})
    END_SCRIPT.clear()
    END_SCRIPT.update(end_states or {})
    CRASH_UNITS.clear()
    CRASH_UNITS.update(crash_units)


def scripted_run(workloads, workers, pool_fn=scripted_pool_attempt,
                 **kwargs):
    jobs = [JobSpec(id="0-run", kind="run", workloads=tuple(workloads))]
    registry = MetricsRegistry()
    runner = ScriptedRunner(jobs, kwargs.pop("policy", ServePolicy()),
                            workers=workers, pool_task_fn=pool_fn,
                            metrics=registry, **kwargs)
    doc = runner.run()
    return runner, doc, registry


def canon(doc):
    return json.dumps(doc, sort_keys=True)


WORKLOADS = ("A", "B", "C", "D")


@needs_fork
class TestServeByteIdentity:
    @given(fails=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           degrade_at=st.integers(-1, 3))
    @settings(max_examples=5, deadline=None)
    def test_docs_and_digests_match_serial(self, fails, degrade_at):
        failures = {f"0-run:{u}": n
                    for u, n in zip(WORKLOADS, fails) if n}
        end_states = ({f"0-run:{WORKLOADS[degrade_at]}": "gpu-only"}
                      if degrade_at >= 0 else {})
        set_script(failures, end_states)
        _, serial_doc, serial_reg = scripted_run(WORKLOADS, workers=1)
        for workers in (2, 4):
            _, doc, registry = scripted_run(WORKLOADS, workers=workers)
            assert canon(doc) == canon(serial_doc)
            assert registry.digest() == serial_reg.digest()

    def test_degradation_carry_over_matches_serial(self):
        # Unit B ends GPU_ONLY: C and D must re-dispatch re-lowered.
        set_script(end_states={"0-run:B": "gpu-only"})
        _, serial_doc, _ = scripted_run(WORKLOADS, workers=1)
        _, doc, _ = scripted_run(WORKLOADS, workers=2)
        assert canon(doc) == canon(serial_doc)
        units = doc["jobs"][0]["units"]
        assert not units["A"]["result"]["degraded"]
        assert units["C"]["result"]["degraded"]
        assert units["D"]["result"]["degraded"]

    def test_checkpoint_files_identical(self, tmp_path):
        set_script(failures={"0-run:B": 1})
        serial_ckpt = tmp_path / "serial.json"
        pooled_ckpt = tmp_path / "pooled.json"
        scripted_run(WORKLOADS, workers=1, checkpoint_path=serial_ckpt)
        scripted_run(WORKLOADS, workers=2, checkpoint_path=pooled_ckpt)
        assert serial_ckpt.read_bytes() == pooled_ckpt.read_bytes()

    def test_interrupt_and_resume_matches_uninterrupted(self, tmp_path):
        set_script(failures={"0-run:C": 2})
        _, full_doc, _ = scripted_run(WORKLOADS, workers=1)
        ckpt = tmp_path / "ckpt.json"
        _, partial_doc, _ = scripted_run(
            WORKLOADS, workers=2, checkpoint_path=ckpt, max_units=2)
        assert partial_doc["interrupted"]
        assert ckpt.exists()
        _, resumed_doc, _ = scripted_run(
            WORKLOADS, workers=2, resume_path=ckpt)
        assert canon(resumed_doc) == canon(full_doc)
        # Restored units re-merge nothing, so the lifetime registry
        # only holds the fresh half — the *document* identity is the
        # resume contract, matching the serial resume semantics.

    def test_deadline_is_rechecked_between_rounds(self):
        # The fake clock advances 3 s per committed unit, so a 5 s
        # deadline passes once the first two-unit round has landed.
        set_script()
        now = {"t": 0.0}

        def on_unit(job, unit, doc, fresh):
            if fresh:
                now["t"] += 3.0

        _, doc, _ = scripted_run(
            WORKLOADS, workers=2, policy=ServePolicy(deadline_s=5.0),
            clock=lambda: now["t"], on_unit=on_unit)
        job = doc["jobs"][0]
        statuses = {unit: d["status"] for unit, d in job["units"].items()}
        assert statuses == {"A": "ok", "B": "ok",
                            "C": "deadline-skipped",
                            "D": "deadline-skipped"}
        assert job["status"] == "deadline-exceeded"

    def test_worker_status_accounts_every_fresh_unit(self):
        set_script()
        runner, doc, _ = scripted_run(WORKLOADS, workers=2)
        assert doc["ok"]
        assert sum(s["units"] for s in runner.worker_status.values()) \
            == len(WORKLOADS)
        assert all(label == "parent" or label.startswith("w")
                   for label in runner.worker_status)


@needs_fork
class TestCrashRecovery:
    def test_killed_worker_unit_reruns_inline_identically(self):
        set_script(failures={"0-run:B": 1}, crash_units={"B"})
        runner, doc, _ = scripted_run(
            WORKLOADS, workers=2, pool_fn=crashing_pool_attempt)
        set_script(failures={"0-run:B": 1})
        _, serial_doc, _ = scripted_run(WORKLOADS, workers=1)
        assert canon(doc) == canon(serial_doc)
        assert "parent" in runner.worker_status
        crashes = [s["samples"][0]["value"]
                   for s in runner.worker_metrics.snapshot()["metrics"]
                   if s["name"] == "anaheim_worker_crashes_total"]
        assert crashes and crashes[0] >= 1

    def test_resume_after_crashy_interrupted_run(self, tmp_path):
        # Kill workers on unit C, interrupt after two units, resume
        # with a healthy pool: final document matches a clean serial
        # run end to end.
        set_script(crash_units={"C"})
        ckpt = tmp_path / "ckpt.json"
        scripted_run(WORKLOADS, workers=2, pool_fn=crashing_pool_attempt,
                     checkpoint_path=ckpt, max_units=3)
        set_script()
        _, resumed_doc, _ = scripted_run(WORKLOADS, workers=2,
                                         resume_path=ckpt)
        _, serial_doc, _ = scripted_run(WORKLOADS, workers=1)
        assert canon(resumed_doc) == canon(serial_doc)


@needs_fork
class TestCampaignByteIdentity:
    def test_analytic_matrix_matches_serial(self):
        from repro.faults.campaign import run_matrix
        serial_reg = MetricsRegistry()
        serial = run_matrix(seeds=(0, 1), functional=False,
                            record_wall=False, metrics=serial_reg)
        pooled_reg = MetricsRegistry()
        pooled = run_matrix(seeds=(0, 1), functional=False,
                            record_wall=False, metrics=pooled_reg,
                            workers=2)
        assert canon(pooled) == canon(serial)
        assert pooled_reg.digest() == serial_reg.digest()
