"""Deterministic fault injection for the service layer itself.

:class:`~repro.faults.injector.FaultInjector` breaks the *memory under
test*; this module breaks the *harness*: workers are SIGKILLed
mid-shard, jobs raise or hang on schedule, store entries rot.  Every
behaviour is deterministic — keyed by shard index, with "-once"
variants coordinated through sentinel files — so the chaos suite can
assert exact recovery outcomes (byte-identical reports, precise crash
counts) instead of probabilistic ones.

A :class:`ChaosPlan` is threaded into the sharded sweeps
(``run_fault_sweep(..., chaos=plan)``); each shard's worker invocation
is wrapped in :func:`chaos_apply`, which misbehaves *before* running
the real shard:

``kill`` / ``kill-once``
    ``SIGKILL`` the worker process (unconditionally / on the first
    attempt only).  ``kill`` exhausts the engine's crash budget and
    exercises quarantine; ``kill-once`` exercises crash recovery with
    a byte-identical final report.
``raise`` / ``raise-once``
    Raise :class:`ChaosError` (every attempt / first attempt only),
    exercising the pooled job's one dispatch and the runner's
    in-process rerun, which runs the shard unwrapped.
``hang`` / ``hang-once``
    Sleep far past any sane deadline, exercising the per-job timeout
    kill (a wedged worker is indistinguishable from a hung one — both
    only respond to SIGKILL).
``none``
    Run the shard untouched.

``interrupt_after`` simulates ``SIGINT`` in the *orchestrator*: the
inline checkpointed sweep raises :class:`KeyboardInterrupt` after that
many shards complete, which drives the interrupt→partial-report→resume
path without real signals or timing races (fuzz identity (i) runs it
on every sample).

:func:`corrupt_store_entry` flips a stored payload without updating its
hash, so the store's integrity check must catch it and the sweep must
recompute the shard.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.store import ResultStore, StoreKey

#: Recognised shard behaviours.
BEHAVIOURS = (
    "none", "kill", "kill-once", "raise", "raise-once", "hang", "hang-once",
)


class ChaosError(RuntimeError):
    """The injected job failure (distinguishable from real bugs)."""


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic misbehaviour schedule for one sweep.

    Attributes:
        behaviors: shard index → behaviour (absent shards run clean).
        sentinel_dir: directory for the "-once" coordination files;
            required when any "-once" behaviour is scheduled (it must
            be visible to the worker processes, so a tmpdir).
        hang_s: how long "hang" sleeps (far above the test deadline).
        interrupt_after: raise ``KeyboardInterrupt`` in the
            orchestrator after this many shards complete (inline
            checkpointed sweeps only); ``None`` disables.
    """

    behaviors: Dict[int, str] = field(default_factory=dict)
    sentinel_dir: Optional[str] = None
    hang_s: float = 3600.0
    interrupt_after: Optional[int] = None

    def __post_init__(self) -> None:
        unknown = set(self.behaviors.values()) - set(BEHAVIOURS)
        if unknown:
            raise ValueError(
                f"unknown chaos behaviour(s) {sorted(unknown)}; "
                f"known: {list(BEHAVIOURS)}"
            )
        if (
            any(b.endswith("-once") for b in self.behaviors.values())
            and self.sentinel_dir is None
        ):
            raise ValueError(
                "'-once' behaviours need a sentinel_dir to remember "
                "their first firing across worker processes"
            )

    def wrap(
        self,
        shard_index: int,
        fn: Callable[[Any], Any],
        payload: Any,
    ) -> Tuple[Callable[[Any], Any], Any]:
        """The ``(fn, payload)`` a sweep should submit for this shard."""
        behavior = self.behaviors.get(shard_index, "none")
        if behavior == "none":
            return fn, payload
        return chaos_apply, (
            behavior,
            self._sentinel(shard_index, behavior),
            self.hang_s,
            fn,
            payload,
        )

    def _sentinel(self, shard_index: int, behavior: str) -> Optional[str]:
        if not behavior.endswith("-once"):
            return None
        return str(
            pathlib.Path(self.sentinel_dir)
            / f"chaos-{behavior}-{shard_index}.fired"
        )


def _fire_once(sentinel: Optional[str]) -> bool:
    """Atomically claim the first firing of a "-once" behaviour."""
    if sentinel is None:
        return True
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def chaos_apply(args: Tuple[str, Optional[str], float, Callable, Any]) -> Any:
    """Worker-side wrapper: misbehave as scheduled, then run the job."""
    behavior, sentinel, hang_s, fn, payload = args
    if behavior in ("kill", "kill-once"):
        if behavior == "kill" or _fire_once(sentinel):
            os.kill(os.getpid(), signal.SIGKILL)
    elif behavior in ("raise", "raise-once"):
        if behavior == "raise" or _fire_once(sentinel):
            raise ChaosError(f"injected failure ({behavior})")
    elif behavior in ("hang", "hang-once"):
        if behavior == "hang" or _fire_once(sentinel):
            time.sleep(hang_s)
    return fn(payload)


def corrupt_store_entry(store: ResultStore, key: StoreKey) -> bool:
    """Flip the stored payload of ``key`` without updating its hash.

    Returns whether an entry existed to corrupt.  The mutation keeps
    the file valid JSON — the interesting detection path is the
    content-hash mismatch, not a parse error.
    """
    import json

    path = store.entries_dir / key.digest[:2] / f"{key.digest}.json"
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return False
    payload = entry.get("payload")
    if isinstance(payload, dict):
        payload["checked"] = payload.get("checked", 0) + 1
        payload["chaos_bitflip"] = True
    else:
        entry["payload"] = {"chaos_bitflip": True, "was": payload}
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=2)
        handle.write("\n")
    return True
