"""File-backed sweep sessions: the configure→start→poll→collect idiom.

``repro serve`` models the paper's BIST-controller handshake at the
harness level, the way a LiteDRAM-style controller is driven: a client
**configures** a session (writes the sweep spec), **starts** it (runs
the sweep through the job engine with the session store as cache),
**polls** its status, and **collects** the report.  Because every state
transition is a file under the session directory, sessions survive the
process that created them: a ``run`` that crashes or is interrupted
leaves the spec plus checkpointed shards, and the next ``run`` resumes
from them.

Layout under a service root::

    entries/                      the shared :class:`ResultStore`
    sessions/<id>/spec.json       the submitted sweep specification
    sessions/<id>/report.json     the (possibly partial) sweep report

The session id is the first 12 hex digits of the canonicalised spec's
SHA-256 — submitting the same sweep twice yields the same session, and
its second run is pure cache hits.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional

from repro.service.store import ResultStore, canonical_json, write_json

#: Session lifecycle states, derived purely from which files exist and
#: what the report says — no daemon, no lock, crash-safe by layout.
STATES = ("submitted", "interrupted", "failed", "complete")


def _sessions_dir(root) -> pathlib.Path:
    return pathlib.Path(root) / "sessions"


def normalise_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Fill defaults so equivalent submissions share a session id."""
    out = {
        "algorithms": spec.get("algorithms") or "all",
        "geometries": [list(g) for g in spec.get("geometries") or [[8, 2, 1]]],
        "per_kind": int(spec.get("per_kind", 2)),
        "seed": int(spec.get("seed", 0)),
        "full": bool(spec.get("full", False)),
        "compress": bool(spec.get("compress", True)),
        "max_ops": spec.get("max_ops"),
        "engine": spec.get("engine", "scalar"),
        "mode": spec.get("mode", "sequential"),
    }
    if isinstance(out["algorithms"], (list, tuple)):
        out["algorithms"] = sorted(out["algorithms"])
    return out


def session_id(spec: Dict[str, Any]) -> str:
    digest = hashlib.sha256(
        canonical_json(normalise_spec(spec)).encode("utf-8")
    ).hexdigest()
    return digest[:12]


def submit_session(root, spec: Dict[str, Any]) -> str:
    """Configure: persist ``spec`` and return the session id."""
    spec = normalise_spec(spec)
    sid = session_id(spec)
    directory = _sessions_dir(root) / sid
    directory.mkdir(parents=True, exist_ok=True)
    write_json(directory / "spec.json", spec)
    return sid


def load_spec(root, sid: str) -> Dict[str, Any]:
    path = _sessions_dir(root) / sid / "spec.json"
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise KeyError(f"no session {sid!r} under {root}") from None


def load_report(root, sid: str) -> Optional[Dict[str, Any]]:
    path = _sessions_dir(root) / sid / "report.json"
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def session_status(root, sid: str) -> Dict[str, Any]:
    """Poll: one session's state, derived from its files."""
    spec = load_spec(root, sid)
    report = load_report(root, sid)
    if report is None:
        state = "submitted"
    elif report.get("interrupted"):
        state = "interrupted"
    elif report.get("ok"):
        state = "complete"
    else:
        state = "failed"
    status: Dict[str, Any] = {"session": sid, "state": state, "spec": spec}
    if report is not None:
        status["checked"] = report.get("checked", 0)
        status["failures"] = report.get("failure_count", 0)
    return status


def list_sessions(root) -> List[Dict[str, Any]]:
    directory = _sessions_dir(root)
    if not directory.is_dir():
        return []
    return [
        session_status(root, path.name)
        for path in sorted(directory.iterdir())
        if (path / "spec.json").is_file()
    ]


def run_session(root, sid: str, jobs: int = 1,
                shard_timeout: Optional[float] = None) -> Dict[str, Any]:
    """Start (or resume): run the session's sweep and persist the report.

    The spec's :data:`~repro.conformance.faulty.check.SWEEP_OPTIONS`
    are passed to :func:`~repro.conformance.faulty.check.run_fault_sweeps`
    as they are.  Always runs with the service root's
    :class:`ResultStore` and ``resume=True``, so a rerun after a crash
    or interrupt only computes the missing shards.  An interrupt still
    writes the partial report (marked ``interrupted``) before re-raising
    :class:`~repro.conformance.faulty.check.SweepInterrupted`.
    """
    from repro.conformance.faulty.check import (
        SWEEP_OPTIONS,
        SweepInterrupted,
        run_fault_sweeps,
    )
    from repro.march import library

    spec = load_spec(root, sid)
    names = (
        list(library.ALGORITHMS)
        if spec["algorithms"] == "all"
        else list(spec["algorithms"])
    )
    path = _sessions_dir(root) / sid / "report.json"
    try:
        report = run_fault_sweeps(
            [tuple(g) for g in spec["geometries"]],
            [library.get(name) for name in names],
            jobs=jobs, store=ResultStore(root), resume=True,
            shard_timeout=shard_timeout,
            **{key: spec[key] for key in SWEEP_OPTIONS},
        )
    except SweepInterrupted as interrupt:
        write_json(path, interrupt.report.to_json())
        raise
    payload = report.to_json()
    write_json(path, payload)
    return payload


def collect_session(root, sid: str) -> Dict[str, Any]:
    """Collect: the finished report (raises until the run completed)."""
    report = load_report(root, sid)
    if report is None:
        raise KeyError(
            f"session {sid!r} has no report yet; run it first"
        )
    return report
