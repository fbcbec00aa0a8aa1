"""The resilient job engine under every sharded workload.

All sharded work in the repository — fault sweeps, multi-geometry
sweeps, vector batch sweeps, fuzz corpora — used to go straight to a
:class:`concurrent.futures.ProcessPoolExecutor`.  That executor has the
wrong failure semantics for long sweeps: one OOM-killed worker raises
``BrokenProcessPool`` and discards every completed shard, a wedged
worker hangs the whole run, and a poison shard aborts the sweep instead
of being reported.  :class:`JobEngine` replaces it with a small worker
pool built directly on :mod:`multiprocessing` pipes so the orchestrator
always knows *which* job a dead worker was running:

* **per-job timeouts** — a worker that exceeds its deadline is killed
  (``SIGKILL``; a wedged job cannot be asked nicely) and replaced, and
  the job is retried or failed;
* **bounded retry with exponential backoff + jitter** — a raising job
  is requeued up to :attr:`RetryPolicy.max_attempts` times; the jitter
  is *deterministic* (derived from the job key and attempt number) so
  engine behaviour is reproducible under test;
* **crash recovery** — a worker that dies mid-job (OOM killer, SIGKILL,
  segfault) is detected through its process sentinel, the pool is
  rebuilt, and the in-flight job is requeued; after
  :attr:`RetryPolicy.max_crashes` crashes the job is **quarantined**
  (reported, never rerun) instead of taking the run down;
* **graceful degradation** — when replacement workers cannot be
  spawned at all, the engine drops to a serial in-process fallback for
  the remaining jobs (mirroring the vector→scalar fallback contract);
  jobs with crash or timeout history are quarantined rather than run
  in the orchestrator process;
* **interruption with artifacts** — ``KeyboardInterrupt`` (SIGINT)
  surfaces as :class:`JobsInterrupted` carrying every completed
  outcome, so callers can write a partial, resumable report instead of
  exiting empty-handed.

The orchestrator itself is an asyncio coroutine: blocking waits on the
worker pipes/sentinels run in the default executor, and the
retry/requeue logic is plain coroutine code.  :meth:`JobEngine.run` is
the synchronous facade.  One engine may be reused across several
``run()`` calls (the multi-geometry sweep shares one pool across
geometries) and must be :meth:`closed <JobEngine.close>` — or used as a
context manager — when done.

Jobs must be picklable: ``fn`` a module-level function, ``payload``
plain data.  Workers are forked where available and ignore SIGINT, so
interrupting a sweep leaves shutdown coordination to the orchestrator.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Upper bound on one blocking wait on the pool, so the event loop (and
#: a pending SIGINT) is serviced regularly even while every worker is
#: deep in a long shard.
_WAIT_TICK_S = 0.25

#: Job statuses.
OK = "ok"
FAILED = "failed"
QUARANTINED = "quarantined"


class ServiceError(RuntimeError):
    """Base class for job-engine errors."""


class JobsInterrupted(ServiceError):
    """SIGINT mid-run; carries every outcome completed so far.

    ``outcomes`` preserves submission order (completed jobs only), so a
    caller can merge a partial, resumable artifact before exiting.
    """

    def __init__(self, outcomes: List["JobOutcome"]) -> None:
        super().__init__(
            f"interrupted with {len(outcomes)} completed job(s)"
        )
        self.outcomes = outcomes


@dataclass(frozen=True)
class Job:
    """One unit of work: a picklable ``fn(payload)`` call.

    ``key`` is the job's stable identity — it names the job in
    quarantine records and seeds the deterministic retry jitter, and
    callers typically reuse their result-store key for it.
    """

    key: str
    fn: Callable[[Any], Any]
    payload: Any


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/quarantine knobs of one engine.

    Attributes:
        max_attempts: dispatch attempts per job (errors and timeouts
            both consume attempts).
        max_crashes: worker crashes a job survives before it is
            quarantined as poison (crashes do *not* consume regular
            attempts — a crashed worker says nothing about the job's
            own logic, until it repeats).
        timeout: per-job wall-clock budget in seconds (``None`` = no
            deadline).
        backoff_base: first retry delay, seconds.
        backoff_factor: delay multiplier per further attempt.
        backoff_cap: delay ceiling, seconds.
        max_spawn_failures: consecutive worker-spawn failures before
            the engine degrades to the serial in-process fallback.
    """

    max_attempts: int = 3
    max_crashes: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    max_spawn_failures: int = 3

    def backoff(self, key: str, attempt: int) -> float:
        """Deterministic exponential backoff with jitter.

        The jitter (50–100% of the nominal delay) is derived from
        ``(key, attempt)`` rather than a live RNG, so two runs of the
        same workload back off identically — the determinism contract
        extends to the engine's own timing decisions.
        """
        nominal = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        fraction = 0.5 + int.from_bytes(digest[:4], "big") / 0xFFFFFFFF * 0.5
        return nominal * fraction


@dataclass
class JobOutcome:
    """Terminal state of one job.

    ``status`` is ``ok`` (``value`` holds the return), ``failed``
    (attempts exhausted on errors/timeouts) or ``quarantined`` (crash
    budget exhausted, or unsafe to rerun in degraded mode).
    """

    key: str
    status: str = OK
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    crashes: int = 0
    timeouts: int = 0
    ran_inline: bool = False

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def safe_inline(self) -> bool:
        """Whether rerunning this job in-process is defensible.

        A job that crashed a worker or hit a timeout must never run in
        the orchestrator process — the same OOM/hang would take the
        whole run (and its completed results) down with it.
        """
        return self.crashes == 0 and self.timeouts == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "ran_inline": self.ran_inline,
        }


@dataclass
class EngineReport:
    """One ``run()``'s outcomes (submission order) plus pool telemetry."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    workers: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    degraded: bool = False
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def outcome(self, key: str) -> Optional[JobOutcome]:
        for candidate in self.outcomes:
            if candidate.key == key:
                return candidate
        return None

    def stats(self) -> Dict[str, Any]:
        """The telemetry block sweeps embed under ``timing.service``."""
        return {
            "workers": self.workers,
            "jobs": len(self.outcomes),
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
        }


def _worker_main(task_r, result_w) -> None:
    """Worker loop: recv ``(job_id, fn, payload)``, send the outcome.

    SIGINT is ignored so a terminal Ctrl-C reaches only the
    orchestrator, which coordinates shutdown (and partial-report
    writing) itself.  EOF on the task pipe — including the orchestrator
    dying — is the shutdown signal.
    """
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        job_id, fn, payload = item
        try:
            outcome = (job_id, OK, fn(payload))
        except BaseException as error:  # noqa: BLE001 - forwarded, not hidden
            outcome = (job_id, FAILED, f"{type(error).__name__}: {error}")
        try:
            result_w.send(outcome)
        except Exception as error:
            # The *result* failed to pickle; the job itself succeeded.
            # Report the serialisation failure rather than dying (which
            # would read as a crash and waste the crash budget).
            try:
                result_w.send((
                    job_id, FAILED,
                    f"unserialisable result: {type(error).__name__}: {error}",
                ))
            except Exception:
                return


class _JobState:
    """Mutable per-job bookkeeping while a job is live."""

    __slots__ = (
        "index", "job", "job_id", "attempts", "crashes", "timeouts",
        "ready_at",
    )

    def __init__(self, index: int, job: Job, job_id: int) -> None:
        self.index = index
        self.job = job
        self.job_id = job_id
        self.attempts = 0
        self.crashes = 0
        self.timeouts = 0
        self.ready_at = 0.0


class _Worker:
    """One pooled worker process and its two pipes."""

    def __init__(self, context) -> None:
        task_r, self.task_w = context.Pipe(duplex=False)
        self.result_r, result_w = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main, args=(task_r, result_w), daemon=False
        )
        self.process.start()
        # Close the child's pipe ends in the parent so a dead child
        # surfaces as EOF on result_r instead of a silent stall.
        task_r.close()
        result_w.close()
        self.state: Optional[_JobState] = None
        self.deadline: Optional[float] = None

    def close_pipes(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except Exception:
                pass

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join(timeout=5)
        self.close_pipes()

    def stop(self) -> None:
        """Graceful shutdown: EOF the task pipe, then escalate."""
        try:
            self.task_w.send(None)
        except Exception:
            pass
        self.process.join(timeout=1)
        if self.process.is_alive():
            self.kill()
        else:
            self.close_pipes()


def _pool_context():
    """Fork where available (cheap workers), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class JobEngine:
    """A reusable resilient worker pool (see the module docstring).

    Args:
        workers: pool size; each ``run()`` spawns at most this many
            worker processes (and no more than it has jobs).
        policy: retry/backoff/quarantine knobs.
    """

    def __init__(
        self,
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self._context = _pool_context()
        self._pool: List[_Worker] = []
        self._spawn_failures = 0
        self._degraded = False
        self._job_counter = 0
        self._closed = False
        self._pending_rebuilds = 0  # workers lost, replacements owed
        # Per-run state, kept on the instance so an interrupt handler
        # can harvest completed outcomes after the coroutine dies.
        self._states: List[_JobState] = []
        self._outcomes: Dict[int, JobOutcome] = {}
        self._report = EngineReport()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker; idempotent."""
        self._closed = True
        for worker in self._pool:
            worker.stop()
        self._pool = []

    def _nuke_pool(self) -> None:
        """Emergency teardown: SIGKILL everything, no goodbyes."""
        for worker in self._pool:
            worker.kill()
        self._pool = []

    # -- entry points ------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> EngineReport:
        """Run ``jobs`` to completion; the synchronous facade.

        Raises:
            JobsInterrupted: on SIGINT, with the completed outcomes.
        """
        if self._closed:
            raise ServiceError("engine is closed")
        try:
            return asyncio.run(self.run_async(jobs))
        except KeyboardInterrupt:
            completed = [
                self._outcomes[state.job_id]
                for state in self._states
                if state.job_id in self._outcomes
            ]
            self._nuke_pool()
            raise JobsInterrupted(completed) from None

    async def run_async(self, jobs: Sequence[Job]) -> EngineReport:
        """The asyncio orchestrator behind :meth:`run`."""
        started = time.perf_counter()
        self._states = [
            _JobState(index, job, self._next_job_id())
            for index, job in enumerate(jobs)
        ]
        self._outcomes = {}
        self._report = EngineReport(workers=self.workers)
        self._drain_stale()

        pending = deque(self._states)
        loop = asyncio.get_running_loop()
        while len(self._outcomes) < len(self._states):
            now = time.monotonic()
            if not self._degraded:
                self._ensure_pool(len(self._states) - len(self._outcomes))
            if self._degraded:
                self._run_inline(pending)
                break
            self._dispatch(pending, now)
            handles: List[Any] = []
            for worker in self._pool:
                handles.append(worker.result_r)
                handles.append(worker.process.sentinel)
            timeout = self._wait_timeout(pending, now)
            if handles:
                await loop.run_in_executor(
                    None, _bounded_wait, handles, timeout
                )
            else:  # no pool (all died, respawn pending) — just pace
                await asyncio.sleep(min(timeout, _WAIT_TICK_S))
            now = time.monotonic()
            self._collect(pending, now)
            self._reap_dead(pending, now)
            self._reap_timeouts(pending, now)

        self._report.outcomes = [
            self._outcomes[state.job_id] for state in self._states
        ]
        self._report.wall_time_s = time.perf_counter() - started
        return self._report

    # -- internals ---------------------------------------------------------

    def _next_job_id(self) -> int:
        self._job_counter += 1
        return self._job_counter

    def _drain_stale(self) -> None:
        """Discard results a previous (interrupted) run left in pipes."""
        for worker in self._pool:
            try:
                while worker.result_r.poll(0):
                    worker.result_r.recv()
            except (EOFError, OSError):
                pass
            worker.state = None
            worker.deadline = None

    def _ensure_pool(self, outstanding: int) -> None:
        target = min(self.workers, max(outstanding, 1))
        while len(self._pool) < target:
            try:
                worker = _Worker(self._context)
            except Exception:
                self._spawn_failures += 1
                if self._spawn_failures >= self.policy.max_spawn_failures:
                    self._degraded = True
                    self._report.degraded = True
                    self._nuke_pool()
                return
            self._spawn_failures = 0
            self._pool.append(worker)
            if self._pending_rebuilds > 0:
                self._pending_rebuilds -= 1
                self._report.pool_rebuilds += 1

    def _pop_ready(self, pending: deque, now: float) -> Optional[_JobState]:
        for _ in range(len(pending)):
            state = pending.popleft()
            if state.ready_at <= now:
                return state
            pending.append(state)
        return None

    def _dispatch(self, pending: deque, now: float) -> None:
        for worker in self._pool:
            if not pending:
                return
            if worker.state is not None or not worker.process.is_alive():
                continue
            state = self._pop_ready(pending, now)
            if state is None:
                return
            try:
                worker.task_w.send(
                    (state.job_id, state.job.fn, state.job.payload)
                )
            except (pickle.PicklingError, AttributeError, TypeError) as err:
                # The *job* is unpicklable — a caller bug, not a pool
                # fault.  Fail it immediately; no retry will help.
                state.attempts += 1
                self._finish(state, FAILED, error=f"unpicklable job: {err}")
                continue
            except Exception:
                # Broken pipe: the worker died between polls.  Requeue
                # the job; the sentinel reaper respawns the worker.
                pending.appendleft(state)
                continue
            state.attempts += 1
            worker.state = state
            worker.deadline = (
                now + self.policy.timeout
                if self.policy.timeout is not None
                else None
            )

    def _wait_timeout(self, pending: deque, now: float) -> float:
        timeout = _WAIT_TICK_S
        for worker in self._pool:
            if worker.deadline is not None:
                timeout = min(timeout, worker.deadline - now)
        for state in pending:
            # A job that is ready now waits for a busy worker to report
            # back (which wakes the wait); only a future retry backoff
            # is a reason to wake early.
            if state.ready_at > now:
                timeout = min(timeout, state.ready_at - now)
        return max(timeout, 0.0)

    def _finish(
        self,
        state: _JobState,
        status: str,
        value: Any = None,
        error: Optional[str] = None,
        ran_inline: bool = False,
    ) -> None:
        self._outcomes[state.job_id] = JobOutcome(
            key=state.job.key,
            status=status,
            value=value,
            error=error,
            attempts=state.attempts,
            crashes=state.crashes,
            timeouts=state.timeouts,
            ran_inline=ran_inline,
        )
        if status == QUARANTINED:
            self._report.quarantined += 1

    def _retry(self, state: _JobState, pending: deque, now: float) -> None:
        self._report.retries += 1
        state.ready_at = now + self.policy.backoff(
            state.job.key, state.attempts
        )
        pending.append(state)

    def _handle_result(
        self,
        worker: _Worker,
        message: Any,
        pending: deque,
        now: float,
    ) -> None:
        job_id, status, value = message
        state = worker.state
        if state is None or state.job_id != job_id:
            return  # stale leftover; already handled elsewhere
        worker.state = None
        worker.deadline = None
        if status == OK:
            self._finish(state, OK, value=value)
        elif state.attempts >= self.policy.max_attempts:
            self._finish(state, FAILED, error=str(value))
        else:
            self._retry(state, pending, now)

    def _collect(self, pending: deque, now: float) -> None:
        for worker in self._pool:
            try:
                while worker.result_r.poll(0):
                    self._handle_result(
                        worker, worker.result_r.recv(), pending, now
                    )
            except (EOFError, OSError):
                continue  # dead worker; the sentinel reaper handles it

    def _reap_dead(self, pending: deque, now: float) -> None:
        for worker in list(self._pool):
            if worker.process.is_alive():
                continue
            # A worker can finish its job and *then* die; drain first so
            # a completed result is never misread as a crash.
            try:
                while worker.result_r.poll(0):
                    self._handle_result(
                        worker, worker.result_r.recv(), pending, now
                    )
            except (EOFError, OSError):
                pass
            state = worker.state
            self._pool.remove(worker)
            worker.kill()
            self._pending_rebuilds += 1
            if state is None:
                continue
            state.crashes += 1
            self._report.crashes += 1
            if state.crashes > self.policy.max_crashes:
                self._finish(
                    state, QUARANTINED,
                    error=(
                        f"worker crashed {state.crashes} times running "
                        f"this job (poison; quarantined)"
                    ),
                )
            else:
                self._retry(state, pending, now)

    def _reap_timeouts(self, pending: deque, now: float) -> None:
        for worker in list(self._pool):
            state = worker.state
            if (
                state is None
                or worker.deadline is None
                or now < worker.deadline
            ):
                continue
            self._report.timeouts += 1
            state.timeouts += 1
            self._pool.remove(worker)
            worker.kill()  # a hung job only responds to SIGKILL
            self._pending_rebuilds += 1
            if state.attempts >= self.policy.max_attempts:
                self._finish(
                    state, FAILED,
                    error=(
                        f"timed out after {self.policy.timeout}s "
                        f"(attempt {state.attempts})"
                    ),
                )
            else:
                self._retry(state, pending, now)

    def _run_inline(self, pending: deque) -> None:
        """Serial in-process fallback once the pool is unbuildable.

        One attempt per job, no timeout enforcement (there is no worker
        to kill), and jobs with crash/timeout history are quarantined —
        rerunning a suspected OOM/hang in the orchestrator process
        would forfeit every completed result.
        """
        while pending:
            state = pending.popleft()
            if state.crashes > 0 or state.timeouts > 0:
                self._finish(
                    state, QUARANTINED,
                    error=(
                        "pool unavailable and the job has "
                        f"{state.crashes} crash(es)/{state.timeouts} "
                        "timeout(s); not safe to run in-process"
                    ),
                )
                continue
            state.attempts += 1
            try:
                value = state.job.fn(state.job.payload)
            except KeyboardInterrupt:
                pending.appendleft(state)
                raise
            except Exception as error:
                self._finish(
                    state, FAILED,
                    error=f"{type(error).__name__}: {error}",
                    ran_inline=True,
                )
            else:
                self._finish(state, OK, value=value, ran_inline=True)


def _bounded_wait(handles: List[Any], timeout: float) -> List[Any]:
    """``connection.wait`` capped at the tick (keeps SIGINT responsive)."""
    return mp_connection.wait(handles, min(timeout, _WAIT_TICK_S))
