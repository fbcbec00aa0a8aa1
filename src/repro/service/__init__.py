"""BIST-as-a-service: the crash-tolerant job layer under every sweep.

The paper's programmable controllers exist to keep memory testing
dependable in the field; this package keeps the *harness* dependable at
the same standard.  :mod:`~repro.service.engine` is the resilient
worker pool (timeouts, bounded retry with deterministic backoff, crash
quarantine, serial degradation), :mod:`~repro.service.store` the
content-hashed result cache that makes sweeps resumable and reruns
cheap, :mod:`~repro.service.chaos` the deterministic fault-injection
harness for the service itself, and :mod:`~repro.service.session` the
file-backed configure→start→poll→collect sessions behind
``repro serve``.  See ``docs/SERVICE.md``.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.service.chaos": [
        "BEHAVIOURS", "ChaosError", "ChaosPlan", "corrupt_store_entry",
    ],
    "repro.service.engine": [
        "EngineReport", "Job", "JobEngine", "JobOutcome", "JobsInterrupted",
        "RetryPolicy", "ServiceError",
    ],
    "repro.service.session": [
        "collect_session", "list_sessions", "run_session", "session_id",
        "session_status", "submit_session",
    ],
    "repro.service.store": [
        "ResultStore", "StoreKey", "canonical_json", "code_version",
        "payload_digest", "write_json",
    ],
})

__all__ = [
    "BEHAVIOURS",
    "ChaosError",
    "ChaosPlan",
    "EngineReport",
    "Job",
    "JobEngine",
    "JobOutcome",
    "JobsInterrupted",
    "ResultStore",
    "RetryPolicy",
    "ServiceError",
    "StoreKey",
    "canonical_json",
    "code_version",
    "collect_session",
    "corrupt_store_entry",
    "list_sessions",
    "payload_digest",
    "run_session",
    "session_id",
    "session_status",
    "submit_session",
    "write_json",
]
