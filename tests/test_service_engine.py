"""Unit tests for the resilient job engine (`repro.service.engine`)."""

import os
import signal
import time

import pytest

from repro.service.engine import (
    FAILED,
    OK,
    QUARANTINED,
    EngineReport,
    Job,
    JobEngine,
    JobOutcome,
    JobsInterrupted,
    RetryPolicy,
    ServiceError,
)


def _double(x):
    return x * 2


def _raise_always(_x):
    raise RuntimeError("boom")


def _raise_until_attempt(path):
    """Fail until a sentinel exists, then succeed (retry-then-ok)."""
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("fired\n")
        raise RuntimeError("first attempt fails")
    return "recovered"


def _kill_self(_x):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


def _quick_policy(**overrides):
    defaults = dict(backoff_base=0.01, backoff_cap=0.05)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestRunBasics:
    def test_runs_jobs_in_submission_order(self):
        with JobEngine(workers=2, policy=_quick_policy()) as engine:
            report = engine.run(
                [Job(key=f"j{i}", fn=_double, payload=i) for i in range(7)]
            )
        assert report.ok
        assert [o.value for o in report.outcomes] == [0, 2, 4, 6, 8, 10, 12]
        assert [o.key for o in report.outcomes] == [f"j{i}" for i in range(7)]

    def test_engine_is_reusable_across_runs(self):
        with JobEngine(workers=2, policy=_quick_policy()) as engine:
            first = engine.run([Job(key="a", fn=_double, payload=1)])
            second = engine.run([Job(key="b", fn=_double, payload=2)])
        assert first.outcomes[0].value == 2
        assert second.outcomes[0].value == 4

    def test_on_complete_receives_each_success_by_index(self):
        seen = {}
        with JobEngine(
            workers=2, policy=_quick_policy(max_attempts=1)
        ) as engine:
            report = engine.run(
                [Job(key="a", fn=_double, payload=1),
                 Job(key="b", fn=_raise_always, payload=0),
                 Job(key="c", fn=_double, payload=3)],
                on_complete=seen.__setitem__,
            )
        assert seen == {0: 2, 2: 6}
        assert report.outcomes[1].status == FAILED

    def test_closed_engine_refuses_to_run(self):
        engine = JobEngine(workers=1)
        engine.close()
        with pytest.raises(ServiceError):
            engine.run([Job(key="a", fn=_double, payload=1)])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            JobEngine(workers=0)

    def test_stats_shape(self):
        with JobEngine(workers=1, policy=_quick_policy()) as engine:
            stats = engine.run(
                [Job(key="a", fn=_double, payload=1)]
            ).stats()
        assert stats["jobs"] == 1
        assert stats["crashes"] == 0
        assert stats["degraded"] is False


class TestRetries:
    def test_raising_job_fails_after_max_attempts(self):
        with JobEngine(
            workers=1, policy=_quick_policy(max_attempts=2)
        ) as engine:
            report = engine.run(
                [Job(key="bad", fn=_raise_always, payload=None)]
            )
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert "boom" in outcome.error
        assert outcome.attempts == 2
        assert report.retries == 1
        # Raising jobs never crashed a worker: safe to retry inline.
        assert outcome.safe_inline

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        sentinel = str(tmp_path / "fired")
        with JobEngine(workers=1, policy=_quick_policy()) as engine:
            report = engine.run(
                [Job(key="flaky", fn=_raise_until_attempt, payload=sentinel)]
            )
        outcome = report.outcomes[0]
        assert outcome.status == OK
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy()
        first = policy.backoff("key", 1)
        assert first == policy.backoff("key", 1)
        assert first != policy.backoff("key", 2)
        assert first != policy.backoff("other", 1)
        nominal = policy.backoff_base
        assert nominal * 0.5 <= first <= nominal

    def test_backoff_caps(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=2.0)
        assert policy.backoff("k", 30) <= 2.0


class TestCrashes:
    def test_crashed_worker_requeues_and_completes_others(self):
        jobs = [Job(key="killer", fn=_kill_self, payload=None)] + [
            Job(key=f"ok{i}", fn=_double, payload=i) for i in range(4)
        ]
        with JobEngine(
            workers=2, policy=_quick_policy(max_crashes=1)
        ) as engine:
            report = engine.run(jobs)
        killer = report.outcome("killer")
        assert killer.status == QUARANTINED
        assert killer.crashes == 2
        assert not killer.safe_inline
        assert report.quarantined == 1
        # Every other job still completed.
        for i in range(4):
            assert report.outcome(f"ok{i}").value == i * 2

    def test_pool_rebuild_counted(self):
        # The other jobs take long enough that work is still outstanding
        # when the crash is reaped, so the pool must be rebuilt; instant
        # jobs could all finish on the surviving worker first.
        jobs = [Job(key="killer", fn=_kill_self, payload=None)] + [
            Job(key=f"ok{i}", fn=_sleep, payload=0.2) for i in range(3)
        ]
        with JobEngine(
            workers=2, policy=_quick_policy(max_crashes=0)
        ) as engine:
            report = engine.run(jobs)
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1


class TestTimeouts:
    def test_hung_job_is_killed_and_fails(self):
        with JobEngine(
            workers=1,
            policy=_quick_policy(max_attempts=1, timeout=0.5),
        ) as engine:
            report = engine.run(
                [Job(key="hang", fn=_sleep, payload=60)]
            )
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert "timed out" in outcome.error
        assert outcome.timeouts == 1
        assert not outcome.safe_inline

    def test_timeout_only_hits_slow_jobs(self):
        jobs = [
            Job(key="hang", fn=_sleep, payload=60),
            Job(key="fast", fn=_double, payload=21),
        ]
        with JobEngine(
            workers=2,
            policy=_quick_policy(max_attempts=1, timeout=1.0),
        ) as engine:
            report = engine.run(jobs)
        assert report.outcome("hang").status == FAILED
        assert report.outcome("fast").value == 42


class TestDegradedMode:
    def test_unbuildable_pool_degrades_to_serial(self, monkeypatch):
        import repro.service.engine as engine_mod

        def _no_spawn(*_args, **_kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(engine_mod, "_Worker", _no_spawn)
        with JobEngine(
            workers=2, policy=_quick_policy(max_spawn_failures=2)
        ) as engine:
            report = engine.run(
                [Job(key=f"j{i}", fn=_double, payload=i) for i in range(3)]
            )
        assert report.degraded
        assert report.ok
        assert all(o.ran_inline for o in report.outcomes)
        assert [o.value for o in report.outcomes] == [0, 2, 4]

    def test_degraded_mode_reports_inline_errors(self, monkeypatch):
        import repro.service.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "_Worker",
            lambda *_a, **_k: (_ for _ in ()).throw(OSError("nope")),
        )
        with JobEngine(
            workers=1, policy=_quick_policy(max_spawn_failures=1)
        ) as engine:
            report = engine.run(
                [Job(key="bad", fn=_raise_always, payload=None)]
            )
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert outcome.ran_inline
        assert "boom" in outcome.error


class TestBadJobs:
    def test_unpicklable_job_fails_without_retry_loop(self):
        unpicklable = lambda x: x  # noqa: E731 - deliberately local
        with JobEngine(workers=1, policy=_quick_policy()) as engine:
            report = engine.run(
                [
                    Job(key="local", fn=unpicklable, payload=1),
                    Job(key="fine", fn=_double, payload=3),
                ]
            )
        assert report.outcome("local").status == FAILED
        assert "unpicklable" in report.outcome("local").error
        assert report.outcome("fine").value == 6


class TestOutcomeContracts:
    def test_outcome_to_dict_roundtrips_fields(self):
        outcome = JobOutcome(key="k", status=FAILED, error="e", attempts=2)
        payload = outcome.to_dict()
        assert payload["key"] == "k"
        assert payload["status"] == FAILED
        assert payload["attempts"] == 2

    def test_report_ok_requires_every_outcome_ok(self):
        report = EngineReport(outcomes=[
            JobOutcome(key="a", status=OK),
            JobOutcome(key="b", status=FAILED),
        ])
        assert not report.ok

    def test_jobs_interrupted_carries_outcomes(self):
        exc = JobsInterrupted([JobOutcome(key="a", status=OK)])
        assert len(exc.outcomes) == 1


class TestOrchestratorWaits:
    """A queued job behind busy workers must not spin the orchestrator."""

    def test_ready_job_behind_busy_workers_waits(self):
        from collections import deque
        from types import SimpleNamespace

        from repro.service import engine as engine_mod

        engine = JobEngine(workers=1)
        engine._pool = [SimpleNamespace(state=object(), deadline=None)]
        now = time.monotonic()
        queued = engine_mod._JobState(0, Job("q", _double, 1), 1)
        queued.ready_at = 0.0  # never retried: ready since submission
        assert engine._wait_timeout(deque([queued]), now) > 0
        backing_off = engine_mod._JobState(1, Job("b", _double, 1), 2)
        backing_off.ready_at = now + 0.01
        timeout = engine._wait_timeout(deque([queued, backing_off]), now)
        assert timeout == pytest.approx(0.01)
        engine._pool = []

    def test_orchestrator_cpu_is_a_small_share_of_the_wall(self):
        # Busy-polling burned 45-65% of the wall in this scenario; waiting
        # properly costs about 1%.  A quarter is a loose, load-tolerant
        # bound.
        jobs = [Job(key=f"s{i}", fn=_sleep, payload=0.5) for i in range(4)]
        with JobEngine(workers=1, policy=_quick_policy()) as engine:
            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            report = engine.run(jobs)
            cpu = time.process_time() - cpu_started
            wall = time.perf_counter() - wall_started
        assert report.ok
        assert cpu < 0.25 * wall, (cpu, wall)


class TestInterrupt:
    def test_sigint_mid_run_raises_with_completed_outcomes(self, monkeypatch):
        import repro.service.engine as engine_mod

        real_wait = engine_mod._bounded_wait
        workers_seen = []

        def interrupt_after_first_outcome(handles, timeout):
            workers_seen.extend(w.process for w in engine._pool)
            if engine._outcomes:
                raise KeyboardInterrupt
            return real_wait(handles, timeout)

        monkeypatch.setattr(
            engine_mod, "_bounded_wait", interrupt_after_first_outcome
        )
        jobs = [
            Job(key="fast", fn=_double, payload=21),
            Job(key="slow", fn=_sleep, payload=30),
        ]
        with JobEngine(workers=2, policy=_quick_policy()) as engine:
            with pytest.raises(JobsInterrupted) as caught:
                engine.run(jobs)
            assert engine._pool == []
        [outcome] = caught.value.outcomes
        assert (outcome.key, outcome.status, outcome.value) == ("fast", OK, 42)
        assert workers_seen
        assert not any(process.is_alive() for process in workers_seen)
