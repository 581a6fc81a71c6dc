"""JobRunner behavior with a stubbed unit executor.

The stub lets these tests pin down the *service* semantics — retry
decisions, deadlines, interruption, checkpoint/resume byte-identity,
degradation carry-over — without paying for real scheduler runs (the
end-to-end versions live in test_serve_e2e.py).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, ParameterError
from repro.serving.jobs import (JobRunner, JobSpec, ServePolicy,
                                parse_job_spec, parse_jobs)


class StubRunner(JobRunner):
    """JobRunner whose units are scripted: ``failures[key]`` attempts
    raise FaultError before one succeeds; executions are logged."""

    def __init__(self, *args, failures=None, end_states=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures = dict(failures or {})
        self.end_states = dict(end_states or {})
        self.calls = []

    def _execute_unit(self, job, unit, degraded):
        key = f"{job.id}:{unit}"
        self.calls.append((key, degraded))
        if self.failures.get(key, 0) > 0:
            self.failures[key] -= 1
            raise FaultError(f"scripted failure for {key}")
        return {"unit": unit, "degraded": degraded,
                "end_state": self.end_states.get(key, "healthy")}


def run_job(workloads=("Boot",), **kwargs):
    jobs = [JobSpec(id="0-run", kind="run", workloads=tuple(workloads))]
    policy = kwargs.pop("policy", ServePolicy())
    runner = StubRunner(jobs, policy, **kwargs)
    return runner, runner.run()


class TestRetries:
    def test_success_first_try(self):
        runner, doc = run_job()
        unit = doc["jobs"][0]["units"]["Boot"]
        assert unit["status"] == "ok"
        assert unit["attempts"] == 1
        assert unit["backoff_s"] == []
        assert doc["ok"]

    def test_retry_then_success(self):
        runner, doc = run_job(failures={"0-run:Boot": 2})
        unit = doc["jobs"][0]["units"]["Boot"]
        assert unit["status"] == "ok"
        assert unit["attempts"] == 3
        assert len(unit["backoff_s"]) == 2
        assert doc["jobs"][0]["retries"] == 2
        assert doc["jobs"][0]["service_time_s"] == pytest.approx(
            sum(unit["backoff_s"]))

    def test_budget_exhausted_fails_the_unit(self):
        runner, doc = run_job(failures={"0-run:Boot": 99},
                              policy=ServePolicy(max_retries=2))
        unit = doc["jobs"][0]["units"]["Boot"]
        assert unit["status"] == "failed"
        assert unit["attempts"] == 3
        assert unit["error"].startswith("FaultError:")
        assert "\n" not in unit["error"]
        assert doc["jobs"][0]["status"] == "failed"
        assert not doc["ok"]

    def test_backoff_matches_the_policy_schedule(self):
        policy = ServePolicy(max_retries=2, seed=5)
        runner, doc = run_job(failures={"0-run:Boot": 2}, policy=policy)
        unit = doc["jobs"][0]["units"]["Boot"]
        assert tuple(unit["backoff_s"]) == \
            policy.retry_policy().schedule("0-run:Boot")

    @given(seed=st.integers(0, 2 ** 16),
           pattern=st.lists(st.integers(0, 4), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_retry_decisions_are_deterministic(self, seed, pattern):
        """Same (seed, failure pattern) -> identical retry decisions
        and backoff schedules across independent runners."""
        workloads = [f"W{i}" for i in range(len(pattern))]
        failures = {f"0-run:W{i}": n for i, n in enumerate(pattern)}
        policy = ServePolicy(seed=seed, max_retries=3)

        docs = []
        for _ in range(2):
            jobs = [JobSpec(id="0-run", kind="run",
                            workloads=tuple(workloads))]
            runner = StubRunner(jobs, policy, failures=dict(failures))
            docs.append(runner.run())
        assert json.dumps(docs[0]) == json.dumps(docs[1])
        for i, n in enumerate(pattern):
            unit = docs[0]["jobs"][0]["units"][f"W{i}"]
            expected_attempts = min(n, 3) + 1
            assert unit["attempts"] == expected_attempts
            assert len(unit["backoff_s"]) == min(n, 3)


class TestDeadlines:
    def test_deadline_skips_remaining_units(self):
        ticks = iter([0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
        runner, doc = run_job(
            workloads=("Boot", "HELR", "Sort"),
            policy=ServePolicy(deadline_s=5.0),
            clock=lambda: next(ticks))
        units = doc["jobs"][0]["units"]
        assert units["Boot"]["status"] == "ok"
        assert units["HELR"] == {"status": "deadline-skipped"}
        assert units["Sort"] == {"status": "deadline-skipped"}
        assert doc["jobs"][0]["status"] == "deadline-exceeded"
        assert not doc["ok"]

    def test_deadline_is_per_job(self):
        """A slow first job must not consume the second job's budget."""
        clock = {"now": 0.0}

        class SlowStub(StubRunner):
            def _execute_unit(self, job, unit, degraded):
                clock["now"] += 10.0
                return super()._execute_unit(job, unit, degraded)

        jobs = [JobSpec(id="0-run", kind="run", workloads=("Boot",)),
                JobSpec(id="1-run", kind="run", workloads=("HELR",))]
        runner = SlowStub(jobs, ServePolicy(deadline_s=5.0),
                          clock=lambda: clock["now"])
        doc = runner.run()
        assert doc["jobs"][0]["units"]["Boot"]["status"] == "ok"
        assert doc["jobs"][1]["units"]["HELR"]["status"] == "ok"


class TestInterruptAndResume:
    def test_max_units_interrupts(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        jobs = [JobSpec(id="0-run", kind="run",
                        workloads=("Boot", "HELR", "Sort"))]
        runner = StubRunner(jobs, ServePolicy(), checkpoint_path=ckpt,
                            max_units=2)
        doc = runner.run()
        assert doc["interrupted"]
        assert not doc["ok"]
        assert len(runner.calls) == 2
        assert ckpt.exists()

    def test_resume_is_byte_identical(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        policy = ServePolicy(max_retries=2, seed=3)
        failures = {"0-run:HELR": 1}

        def make(**kwargs):
            jobs = [JobSpec(id="0-run", kind="run",
                            workloads=("Boot", "HELR", "Sort"))]
            return StubRunner(jobs, policy, failures=dict(failures),
                              **kwargs)

        clean = make().run()
        killed = make(checkpoint_path=ckpt, max_units=1).run()
        assert killed["interrupted"]
        resumed_runner = make(checkpoint_path=ckpt, resume_path=ckpt)
        resumed = resumed_runner.run()

        assert json.dumps(clean, indent=2) == json.dumps(resumed, indent=2)
        assert resumed_runner.resumed_units == 1
        # the resumed runner re-executed only the remaining units
        assert [key for key, _ in resumed_runner.calls] == \
            ["0-run:HELR", "0-run:HELR", "0-run:Sort"]

    def test_resume_into_changed_matrix_refuses(self, tmp_path):
        from repro.errors import CheckpointError
        ckpt = tmp_path / "ck.json"
        jobs = [JobSpec(id="0-run", kind="run", workloads=("Boot",))]
        StubRunner(jobs, ServePolicy(), checkpoint_path=ckpt).run()
        other = [JobSpec(id="0-run", kind="run", workloads=("Sort",))]
        with pytest.raises(CheckpointError, match="digest mismatch"):
            StubRunner(other, ServePolicy(), resume_path=ckpt)


class TestDegradationCarryOver:
    def test_gpu_only_unit_degrades_the_rest_of_the_job(self):
        runner, doc = run_job(
            workloads=("Boot", "HELR", "Sort"),
            end_states={"0-run:Boot": "gpu-only"})
        assert runner.calls == [("0-run:Boot", False),
                                ("0-run:HELR", True),
                                ("0-run:Sort", True)]

    def test_healthy_units_do_not_degrade(self):
        runner, doc = run_job(workloads=("Boot", "HELR"))
        assert runner.calls == [("0-run:Boot", False),
                                ("0-run:HELR", False)]

    def test_degradation_does_not_leak_across_jobs(self):
        jobs = [JobSpec(id="0-run", kind="run", workloads=("Boot",)),
                JobSpec(id="1-run", kind="run", workloads=("HELR",))]
        runner = StubRunner(jobs, ServePolicy(),
                            end_states={"0-run:Boot": "gpu-only"})
        runner.run()
        assert runner.calls == [("0-run:Boot", False),
                                ("1-run:HELR", False)]

    def test_degraded_start_skips_straight_to_gpu(self):
        """A brownout decision made at admission time (``degraded_start``)
        dispatches every unit degraded from the first."""
        jobs = [JobSpec(id="0-run", kind="run", workloads=("Boot", "HELR"),
                        degraded_start=True)]
        runner = StubRunner(jobs, ServePolicy())
        runner.run()
        assert runner.calls == [("0-run:Boot", True),
                                ("0-run:HELR", True)]

    def test_carry_over_survives_resume(self, tmp_path):
        """The degradation signal rides in the checkpointed docs."""
        ckpt = tmp_path / "ck.json"
        end_states = {"0-run:Boot": "gpu-only"}

        def make(**kwargs):
            jobs = [JobSpec(id="0-run", kind="run",
                            workloads=("Boot", "HELR"))]
            return StubRunner(jobs, ServePolicy(),
                              end_states=dict(end_states), **kwargs)

        make(checkpoint_path=ckpt, max_units=1).run()
        resumed = make(resume_path=ckpt)
        resumed.run()
        assert resumed.calls == [("0-run:HELR", True)]


class TestSpecs:
    def test_parse_run(self):
        spec = parse_job_spec("run:Boot,HELR", 0)
        assert spec.kind == "run"
        assert spec.workloads == ("Boot", "HELR")
        assert spec.units((0,)) == ["Boot", "HELR"]

    def test_parse_faults(self):
        spec = parse_job_spec("faults:analytic:HELR", 2)
        assert spec.id == "2-faults"
        assert spec.layers == ("analytic",)
        assert spec.units((0, 1)) == ["analytic/0", "analytic/1"]

    def test_parse_faults_both_layers(self):
        spec = parse_job_spec("faults", 0)
        assert spec.units((7,)) == ["functional/7", "analytic/7"]

    @pytest.mark.parametrize("token", [
        "run", "run:", "run:NoSuchWorkload", "faults:neither",
        "faults:analytic:NoSuchWorkload", "deploy:Boot",
    ])
    def test_bad_specs_raise_cleanly(self, token):
        with pytest.raises(ParameterError) as excinfo:
            parse_job_spec(token, 0)
        assert "\n" not in str(excinfo.value)

    def test_parse_jobs_requires_at_least_one(self):
        with pytest.raises(ParameterError):
            parse_jobs([])
