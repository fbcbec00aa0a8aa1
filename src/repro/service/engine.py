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

* **one dispatch per job** — a job that raises, or cannot be
  pickled, finishes ``failed`` at once; the engine never reruns it;
* **per-job timeouts** — a worker that exceeds its deadline is killed
  (``SIGKILL``; a wedged job cannot be asked nicely) and replaced, and
  the job is re-dispatched, until its :data:`TIMEOUT_BUDGET`-th timeout
  fails it;
* **crash recovery** — a worker that dies mid-job (OOM killer, SIGKILL,
  segfault) is detected through its process sentinel, the pool is
  rebuilt, and the in-flight job is re-dispatched at once; on its
  :data:`CRASH_BUDGET`-th crash the job is **quarantined** (reported,
  never rerun) instead of taking the run down.  A lost worker is the
  only reason the engine dispatches a job twice;
* **an unspawnable pool** — when workers cannot be spawned at all, the
  engine gives every unfinished job back unrun: ``quarantined`` if it
  has crash or timeout history, ``failed`` otherwise, and says so in
  :attr:`EngineReport.degraded`;
* **interruption with artifacts** — ``KeyboardInterrupt`` (SIGINT)
  surfaces as :class:`JobsInterrupted` carrying every completed
  outcome, so callers can write a partial, resumable report instead of
  exiting empty-handed.

The orchestrator is a plain loop in :meth:`JobEngine.run`: it waits on
the worker pipes and sentinels for at most one tick, then collects
results, reaps dead and timed-out workers and re-dispatches.  One engine
may be reused across several ``run()`` calls (the multi-geometry sweep
shares one pool across geometries) and must be :meth:`closed
<JobEngine.close>` — or used as a context manager — when done.

Callers do not drive the engine themselves: :func:`run_jobs` is the
one runner of sharded work (fault-sweep shards, fuzz batches).  It
runs items inline or on an engine, applies a chaos plan, hands each
result over as it completes, reruns in-process (once, unwrapped) every
job that failed without crashing or hanging a worker — the one
in-process rerun, which also carries a run whose pool could not be
spawned — and reports lost jobs and interrupts as data instead of
exceptions.

Jobs must be picklable: ``fn`` a module-level function, ``payload``
plain data.  Workers are forked where available and ignore SIGINT, so
interrupting a sweep leaves shutdown coordination to the orchestrator.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Upper bound on one blocking wait on the pool, so deadlines are
#: serviced regularly even while every worker is deep in a long shard.
_WAIT_TICK_S = 0.25

#: A job whose worker crashed this many times is quarantined as poison.
CRASH_BUDGET = 3

#: A job that timed out this many times fails.
TIMEOUT_BUDGET = 3

#: Consecutive failed worker spawns after which the pool counts as
#: unavailable.
_SPAWN_ATTEMPTS = 3

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

    ``key`` is the job's stable identity — it names the job in its
    outcome, and callers typically reuse their result-store key for
    it.
    """

    key: str
    fn: Callable[[Any], Any]
    payload: Any


@dataclass
class JobOutcome:
    """Terminal state of one job.

    ``status`` is ``ok`` (``value`` holds the return), ``failed`` (the
    job raised, could not be pickled, exhausted its timeout budget or
    never ran for want of a pool) or ``quarantined`` (crash budget
    exhausted, or left unrun by a lost pool after crashing or hanging
    a worker).
    """

    key: str
    status: str = OK
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    crashes: int = 0
    timeouts: int = 0

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
    """Worker loop: recv ``(fn, payload)``, send ``(status, value)``.

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
        fn, payload = item
        try:
            outcome = (OK, fn(payload))
        except BaseException as error:  # noqa: BLE001 - forwarded, not hidden
            outcome = (FAILED, f"{type(error).__name__}: {error}")
        try:
            result_w.send(outcome)
        except Exception as error:
            # The *result* failed to pickle; the job itself succeeded.
            # Report the serialisation failure rather than dying (which
            # would read as a crash and waste the crash budget).
            try:
                result_w.send((
                    FAILED,
                    f"unserialisable result: {type(error).__name__}: {error}",
                ))
            except Exception:
                return


class _JobState:
    """Mutable per-job bookkeeping while a job is live."""

    __slots__ = ("index", "job", "attempts", "crashes", "timeouts")

    def __init__(self, index: int, job: Job) -> None:
        self.index = index
        self.job = job
        self.attempts = 0
        self.crashes = 0
        self.timeouts = 0


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
        timeout: per-job wall-clock budget in seconds (``None`` = no
            deadline).
    """

    def __init__(
        self, workers: int = 2, timeout: Optional[float] = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.timeout = timeout
        self._context = _pool_context()
        self._pool: List[_Worker] = []
        self._spawn_failures = 0
        self._degraded = False
        self._closed = False
        self._pending_rebuilds = 0  # workers lost, replacements owed
        # Per-run state, shared by the helpers of run(); an interrupt
        # harvests the completed outcomes from it.
        self._states: List[_JobState] = []
        self._outcomes: Dict[int, JobOutcome] = {}
        self._report = EngineReport()
        self._on_complete: Optional[Callable[[int, Any], None]] = None

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

    def run(
        self,
        jobs: Sequence[Job],
        on_complete: Optional[Callable[[int, Any], None]] = None,
    ) -> EngineReport:
        """Run ``jobs`` to completion.

        ``on_complete(index, value)`` is called in this process as soon
        as job ``jobs[index]`` succeeds, before the run goes on, so a
        caller can checkpoint each result while the pool still works.

        Raises:
            JobsInterrupted: on SIGINT, with the completed outcomes.
        """
        if self._closed:
            raise ServiceError("engine is closed")
        started = time.perf_counter()
        self._states = [
            _JobState(index, job) for index, job in enumerate(jobs)
        ]
        self._outcomes = {}
        self._report = EngineReport(workers=self.workers)
        self._on_complete = on_complete
        # Whatever ends a run early, no worker outlives it mid-job, so
        # the next run() reads only its own results.
        try:
            pending = deque(self._states)
            while len(self._outcomes) < len(self._states):
                now = time.monotonic()
                if not self._degraded:
                    self._ensure_pool(len(self._states) - len(self._outcomes))
                if self._degraded:
                    self._give_back(pending)
                    break
                self._dispatch(pending, now)
                handles: List[Any] = []
                for worker in self._pool:
                    handles.append(worker.result_r)
                    handles.append(worker.process.sentinel)
                timeout = self._wait_timeout(now)
                if handles:
                    _bounded_wait(handles, timeout)
                else:  # no pool (all died, respawn pending) — just pace
                    time.sleep(min(timeout, _WAIT_TICK_S))
                now = time.monotonic()
                self._collect()
                self._reap_dead(pending)
                self._reap_timeouts(pending, now)
        except KeyboardInterrupt:
            self._nuke_pool()
            raise JobsInterrupted(
                [self._outcomes[i] for i in sorted(self._outcomes)]
            ) from None
        except BaseException:
            self._nuke_pool()
            raise

        self._report.outcomes = [
            self._outcomes[index] for index in range(len(self._states))
        ]
        self._report.wall_time_s = time.perf_counter() - started
        return self._report

    # -- internals ---------------------------------------------------------

    def _ensure_pool(self, outstanding: int) -> None:
        target = min(self.workers, max(outstanding, 1))
        while len(self._pool) < target:
            try:
                worker = _Worker(self._context)
            except Exception:
                self._spawn_failures += 1
                if self._spawn_failures >= _SPAWN_ATTEMPTS:
                    self._degraded = True
                return
            self._spawn_failures = 0
            self._pool.append(worker)
            if self._pending_rebuilds > 0:
                self._pending_rebuilds -= 1
                self._report.pool_rebuilds += 1

    def _dispatch(self, pending: deque, now: float) -> None:
        for worker in self._pool:
            if not pending:
                return
            if worker.state is not None or not worker.process.is_alive():
                continue
            state = pending.popleft()
            try:
                worker.task_w.send(
                    (state.job.fn, state.job.payload)
                )
            except (pickle.PicklingError, AttributeError, TypeError) as err:
                # The *job* is unpicklable — a caller bug, not a pool
                # fault: it fails like a job that raised.
                state.attempts += 1
                self._finish(state, FAILED, error=f"unpicklable job: {err}")
                continue
            except Exception:
                # Broken pipe: the worker died between polls.  Put the
                # job back; the sentinel reaper respawns the worker.
                pending.appendleft(state)
                continue
            state.attempts += 1
            worker.state = state
            worker.deadline = (
                now + self.timeout if self.timeout is not None else None
            )

    def _wait_timeout(self, now: float) -> float:
        """How long to wait: until the nearest deadline, at most a tick.

        A queued job waits for a busy worker to report back, which
        wakes the wait by itself."""
        timeout = _WAIT_TICK_S
        for worker in self._pool:
            if worker.deadline is not None:
                timeout = min(timeout, worker.deadline - now)
        return max(timeout, 0.0)

    def _finish(
        self,
        state: _JobState,
        status: str,
        value: Any = None,
        error: Optional[str] = None,
    ) -> None:
        if status == OK and self._on_complete is not None:
            self._on_complete(state.index, value)
        self._outcomes[state.index] = JobOutcome(
            key=state.job.key,
            status=status,
            value=value,
            error=error,
            attempts=state.attempts,
            crashes=state.crashes,
            timeouts=state.timeouts,
        )
        if status == QUARANTINED:
            self._report.quarantined += 1

    def _redispatch(self, state: _JobState, pending: deque) -> None:
        """Queue again a job whose worker was lost (crash or timeout)."""
        self._report.retries += 1
        pending.append(state)

    def _handle_result(self, worker: _Worker, message: Any) -> None:
        status, value = message
        state = worker.state
        worker.state = None
        worker.deadline = None
        if status == OK:
            self._finish(state, OK, value=value)
        else:
            self._finish(state, FAILED, error=str(value))

    def _collect(self) -> None:
        for worker in self._pool:
            try:
                while worker.result_r.poll(0):
                    self._handle_result(worker, worker.result_r.recv())
            except (EOFError, OSError):
                continue  # dead worker; the sentinel reaper handles it

    def _reap_dead(self, pending: deque) -> None:
        for worker in list(self._pool):
            if worker.process.is_alive():
                continue
            # A worker can finish its job and *then* die; drain first so
            # a completed result is never misread as a crash.
            try:
                while worker.result_r.poll(0):
                    self._handle_result(worker, worker.result_r.recv())
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
            if state.crashes >= CRASH_BUDGET:
                self._finish(
                    state, QUARANTINED,
                    error=(
                        f"worker crashed {state.crashes} times running "
                        f"this job (poison; quarantined)"
                    ),
                )
            else:
                self._redispatch(state, pending)

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
            if state.timeouts >= TIMEOUT_BUDGET:
                self._finish(
                    state, FAILED,
                    error=(
                        f"timed out after {self.timeout}s "
                        f"(attempt {state.attempts})"
                    ),
                )
            else:
                self._redispatch(state, pending)

    def _give_back(self, pending: deque) -> None:
        """Finish every unfinished job unrun: the pool cannot be spawned.

        The jobs still running on surviving workers are stopped with
        them.  A job with crash or timeout history is quarantined; any
        other fails, which leaves it to the caller's in-process rerun."""
        self._report.degraded = True
        states = [w.state for w in self._pool if w.state is not None]
        self._nuke_pool()
        states.extend(pending)
        pending.clear()
        for state in states:
            if state.crashes or state.timeouts:
                self._finish(
                    state, QUARANTINED,
                    error=(
                        "pool unavailable and the job has "
                        f"{state.crashes} crash(es)/{state.timeouts} "
                        "timeout(s); not safe to run in-process"
                    ),
                )
            else:
                self._finish(state, FAILED, error="pool unavailable")


@dataclass
class JobsRun:
    """What :func:`run_jobs` leaves to its caller besides the results.

    ``lost`` maps a job's index to its incident text; ``stats`` is the
    engine's telemetry plus ``serial_retries`` (``None`` when the jobs
    ran inline); ``interrupted`` says SIGINT stopped the run, after
    every completed result was handed over.
    """

    lost: Dict[int, str] = field(default_factory=dict)
    stats: Optional[Dict[str, Any]] = None
    interrupted: bool = False


def run_jobs(
    fn: Callable[[Any], Any],
    items: Sequence[Tuple[int, str, Any]],
    workers: int,
    on_result: Callable[[int, Any], None],
    service: Optional[JobEngine] = None,
    timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> JobsRun:
    """Run ``fn(payload)`` for each ``(index, key, payload)`` item.

    The one driver of sharded work (sweep shards, fuzz batches).  Each
    result goes to ``on_result(index, value)`` as soon as it exists.

    * Inline, one item after another in this process, when
      ``workers == 1`` and neither a shared ``service`` engine nor a
      chaos behaviour asks for a pool; ``chaos.interrupt_after``
      stands in for SIGINT after that many items.
    * Otherwise on a :class:`JobEngine` (``service``, or a private one
      of at most ``workers`` workers with a ``timeout`` per job), the
      payloads wrapped by the ``chaos`` plan under their index.  A job
      that failed without crashing or hanging a worker — it raised, or
      never ran for want of a pool — is rerun once here, unwrapped;
      one that crashed or hung is not, and its index is ``lost``.

    Callers key ``index`` to their own item (shard or batch number),
    and ``key`` names the job in the engine.
    """
    run = JobsRun()
    if not items:
        return run
    pooled = service is not None or workers > 1 or bool(
        chaos is not None and chaos.behaviors
    )
    if not pooled:
        try:
            for done, (index, _key, payload) in enumerate(items, 1):
                on_result(index, fn(payload))
                if (
                    chaos is not None
                    and chaos.interrupt_after is not None
                    and chaos.interrupt_after <= done < len(items)
                ):
                    raise KeyboardInterrupt
        except KeyboardInterrupt:
            run.interrupted = True
        return run

    engine = service if service is not None else JobEngine(
        workers=min(workers, len(items)), timeout=timeout
    )
    submissions = []
    for index, key, payload in items:
        job_fn, job_payload = (
            chaos.wrap(index, fn, payload) if chaos is not None
            else (fn, payload)
        )
        submissions.append(Job(key=key, fn=job_fn, payload=job_payload))
    try:
        report = engine.run(
            submissions,
            on_complete=lambda position, value: on_result(
                items[position][0], value
            ),
        )
    except JobsInterrupted:
        run.interrupted = True
        return run
    finally:
        if service is None:
            engine.close()
    run.stats = report.stats()
    run.stats["serial_retries"] = 0
    for (index, _key, payload), outcome in zip(items, report.outcomes):
        if outcome.ok:
            continue
        incident = f"{outcome.status}: {outcome.error}"
        if outcome.safe_inline:
            # No worker was lost running it: the completed results are
            # safe with the caller, so a serial retry in this process
            # is cheap insurance against transient worker trouble and
            # the fallback for a pool that could not be spawned.
            try:
                on_result(index, fn(payload))
                run.stats["serial_retries"] += 1
                continue
            except KeyboardInterrupt:
                run.interrupted = True
                return run
            except Exception as error:
                incident += (
                    f"; serial retry: {type(error).__name__}: {error}"
                )
        run.lost[index] = incident
    return run


def _bounded_wait(handles: List[Any], timeout: float) -> List[Any]:
    """``connection.wait`` capped at the tick (keeps SIGINT responsive)."""
    return mp_connection.wait(handles, min(timeout, _WAIT_TICK_S))
