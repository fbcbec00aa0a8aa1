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
    ServiceError,
    run_jobs,
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


def _raise_counted(path):
    """Record the running process in ``path``, then raise."""
    with open(path, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    raise RuntimeError("boom")


def _runs(path):
    """``(pooled, in_process)`` run counts recorded by ``_raise_counted``."""
    with open(path) as handle:
        pids = [int(line) for line in handle]
    in_process = pids.count(os.getpid())
    return len(pids) - in_process, in_process


def _no_spawn(*_args, **_kwargs):
    raise OSError("no processes for you")


def _kill_self(_x):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


class TestRunBasics:
    def test_runs_jobs_in_submission_order(self):
        with JobEngine(workers=2) as engine:
            report = engine.run(
                [Job(key=f"j{i}", fn=_double, payload=i) for i in range(7)]
            )
        assert report.ok
        assert [o.value for o in report.outcomes] == [0, 2, 4, 6, 8, 10, 12]
        assert [o.key for o in report.outcomes] == [f"j{i}" for i in range(7)]

    def test_engine_is_reusable_across_runs(self):
        with JobEngine(workers=2) as engine:
            first = engine.run([Job(key="a", fn=_double, payload=1)])
            second = engine.run([Job(key="b", fn=_double, payload=2)])
        assert first.outcomes[0].value == 2
        assert second.outcomes[0].value == 4

    def test_on_complete_receives_each_success_by_index(self):
        seen = {}
        with JobEngine(workers=2) as engine:
            report = engine.run(
                [Job(key="a", fn=_double, payload=1),
                 Job(key="b", fn=_raise_always, payload=0),
                 Job(key="c", fn=_double, payload=3)],
                on_complete=seen.__setitem__,
            )
        assert seen == {0: 2, 2: 6}
        assert report.outcomes[1].status == FAILED

    def test_run_stopped_by_a_raising_callback_leaves_no_worker(self):
        def refuse(_index, _value):
            raise ValueError("disk full")

        with JobEngine(workers=2) as engine:
            with pytest.raises(ValueError):
                engine.run(
                    [Job(key="fast", fn=_double, payload=1),
                     Job(key="slow", fn=_sleep, payload=30)],
                    on_complete=refuse,
                )
            assert engine._pool == []
            report = engine.run([Job(key="next", fn=_double, payload=2)])
        assert [o.value for o in report.outcomes] == [4]

    def test_closed_engine_refuses_to_run(self):
        engine = JobEngine(workers=1)
        engine.close()
        with pytest.raises(ServiceError):
            engine.run([Job(key="a", fn=_double, payload=1)])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            JobEngine(workers=0)

    def test_stats_shape(self):
        with JobEngine(workers=1) as engine:
            stats = engine.run(
                [Job(key="a", fn=_double, payload=1)]
            ).stats()
        assert stats["jobs"] == 1
        assert stats["crashes"] == 0
        assert stats["degraded"] is False


class TestRetries:
    def test_raising_job_fails_after_one_dispatch(self):
        with JobEngine(workers=1) as engine:
            report = engine.run(
                [Job(key="bad", fn=_raise_always, payload=None)]
            )
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert outcome.error == "RuntimeError: boom"
        assert outcome.attempts == 1
        assert report.retries == 0
        # Raising jobs never crashed a worker: safe to retry inline.
        assert outcome.safe_inline

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        # The pooled dispatch fails; run_jobs' serial retry recovers.
        sentinel = str(tmp_path / "fired")
        results = {}
        run = run_jobs(
            _raise_until_attempt, [(0, "flaky", sentinel)], 2,
            results.__setitem__,
        )
        assert results == {0: "recovered"}
        assert not run.lost
        assert run.stats["retries"] == 0
        assert run.stats["serial_retries"] == 1

    def test_raising_job_runs_once_pooled_once_in_process(self, tmp_path):
        log = str(tmp_path / "runs")
        run = run_jobs(_raise_counted, [(0, "bad", log)], 2, {}.__setitem__)
        assert _runs(log) == (1, 1)
        assert run.lost[0] == (
            "failed: RuntimeError: boom; serial retry: RuntimeError: boom"
        )
        assert run.stats["retries"] == 0


class TestCrashes:
    def test_crashed_worker_requeues_and_completes_others(self):
        jobs = [Job(key="killer", fn=_kill_self, payload=None)] + [
            Job(key=f"ok{i}", fn=_double, payload=i) for i in range(4)
        ]
        with JobEngine(workers=2) as engine:
            report = engine.run(jobs)
        killer = report.outcome("killer")
        assert killer.status == QUARANTINED
        assert killer.crashes == 3
        assert killer.error == (
            "worker crashed 3 times running this job (poison; quarantined)"
        )
        assert report.retries == 2  # re-dispatched after crashes 1 and 2
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
        with JobEngine(workers=2) as engine:
            report = engine.run(jobs)
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1


class TestTimeouts:
    def test_hung_job_is_killed_and_fails(self):
        with JobEngine(workers=1, timeout=0.5) as engine:
            report = engine.run(
                [Job(key="hang", fn=_sleep, payload=60)]
            )
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert outcome.error == "timed out after 0.5s (attempt 3)"
        assert outcome.timeouts == 3
        assert report.retries == 2
        assert not outcome.safe_inline

    def test_timeout_only_hits_slow_jobs(self):
        jobs = [
            Job(key="hang", fn=_sleep, payload=60),
            Job(key="fast", fn=_double, payload=21),
        ]
        with JobEngine(workers=2, timeout=0.5) as engine:
            report = engine.run(jobs)
        assert report.outcome("hang").status == FAILED
        assert report.outcome("fast").value == 42


class TestDegradedMode:
    def test_unbuildable_pool_gives_jobs_back_unrun(self, monkeypatch):
        import repro.service.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_Worker", _no_spawn)
        with JobEngine(workers=2) as engine:
            report = engine.run(
                [Job(key=f"j{i}", fn=_double, payload=i) for i in range(3)]
            )
            again = engine.run([Job(key="again", fn=_double, payload=1)])
        for run in (report, again):
            assert run.degraded
            assert {(o.status, o.error, o.attempts) for o in run.outcomes} == {
                (FAILED, "pool unavailable", 0)
            }
        assert len(report.outcomes) == 3

    def test_unbuildable_pool_degrades_to_serial(self, monkeypatch):
        # run_jobs' serial retry is the fallback: every job still runs.
        import repro.service.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_Worker", _no_spawn)
        results = {}
        run = run_jobs(
            _double, [(i, f"j{i}", i) for i in range(3)], 2,
            results.__setitem__,
        )
        assert results == {0: 0, 1: 2, 2: 4}
        assert run.stats["degraded"] is True
        assert run.stats["serial_retries"] == 3

    def test_degraded_mode_reports_inline_errors(self, monkeypatch, tmp_path):
        import repro.service.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_Worker", _no_spawn)
        log = str(tmp_path / "runs")
        run = run_jobs(_raise_counted, [(0, "bad", log)], 2, {}.__setitem__)
        assert _runs(log) == (0, 1)
        assert run.lost == {
            0: "failed: pool unavailable; serial retry: RuntimeError: boom"
        }

    def test_lost_pool_gives_back_crashed_and_running_jobs(
        self, monkeypatch
    ):
        # Two workers spawn; one dies with its job and cannot be
        # replaced, so the pool is lost while the other is mid-job.
        # Both jobs come back unrun; only the crashed one is poison.
        import repro.service.engine as engine_mod

        spawned = []

        def spawn_two(context):
            if len(spawned) == 2:
                raise OSError("no more processes")
            spawned.append(real_worker(context))
            return spawned[-1]

        real_worker = engine_mod._Worker
        monkeypatch.setattr(engine_mod, "_Worker", spawn_two)
        with JobEngine(workers=2) as engine:
            report = engine.run([
                Job(key="killer", fn=_kill_self, payload=None),
                Job(key="sleeper", fn=_sleep, payload=30),
            ])
        assert report.degraded
        killer, sleeper = report.outcomes
        assert (killer.status, killer.crashes) == (QUARANTINED, 1)
        assert killer.error == (
            "pool unavailable and the job has 1 crash(es)/0 timeout(s); "
            "not safe to run in-process"
        )
        assert (sleeper.status, sleeper.error) == (FAILED, "pool unavailable")
        assert not any(worker.process.is_alive() for worker in spawned)


class TestBadJobs:
    def test_unpicklable_job_fails_without_retry_loop(self):
        unpicklable = lambda x: x  # noqa: E731 - deliberately local
        with JobEngine(workers=1) as engine:
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
        # Only a worker's deadline cuts the wait short of a full tick;
        # a queued job waits for a busy worker to report back.
        from types import SimpleNamespace

        from repro.service import engine as engine_mod

        engine = JobEngine(workers=1)
        busy = SimpleNamespace(state=object(), deadline=None)
        engine._pool = [busy]
        now = time.monotonic()
        assert engine._wait_timeout(now) == engine_mod._WAIT_TICK_S
        busy.deadline = now + 0.01
        assert engine._wait_timeout(now) == pytest.approx(0.01)
        engine._pool = []

    def test_orchestrator_cpu_is_a_small_share_of_the_wall(self):
        # Busy-polling burned 45-65% of the wall in this scenario; waiting
        # properly costs about 1%.  A quarter is a loose, load-tolerant
        # bound.
        jobs = [Job(key=f"s{i}", fn=_sleep, payload=0.5) for i in range(4)]
        with JobEngine(workers=1) as engine:
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
        with JobEngine(workers=2) as engine:
            with pytest.raises(JobsInterrupted) as caught:
                engine.run(jobs)
            assert engine._pool == []
        [outcome] = caught.value.outcomes
        assert (outcome.key, outcome.status, outcome.value) == ("fast", OK, 42)
        assert workers_seen
        assert not any(process.is_alive() for process in workers_seen)
