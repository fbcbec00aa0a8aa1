"""Content-hashed on-disk result store: sweeps resume, reruns are hits.

The store maps a **key** — the canonical JSON of every input that
determines a result: algorithm notations, geometry, fault specs, mode,
engine, shard bounds, and the :func:`code_version` digest of the
``repro`` package sources — to a JSON **payload** (typically one shard's
:meth:`~repro.conformance.faulty.check.FaultSweepReport.to_json`).  The
hashing discipline mirrors the golden-trace corpus
(:mod:`repro.conformance.corpus`): the key is identified by the SHA-256
of its canonical encoding, and every entry embeds a second SHA-256 over
its payload, re-verified on every read.  A corrupted entry (bit rot, a
torn write from a crashed process, the chaos harness) is therefore
*detected*, counted, evicted, and transparently recomputed by the
caller — never silently served.

Because the key embeds :func:`code_version`, any edit to the package
sources invalidates the whole cache: a stale result can never outlive
the code that produced it.  Writes are atomic (temp file +
``os.replace`` in the same directory), so a SIGKILL mid-``put`` leaves
either the complete previous entry or no entry — both safe.

Layout under the store root::

    entries/<digest[:2]>/<digest>.json    one entry per key
    sessions/<session-id>/                ``repro serve`` sessions
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

#: Store entry schema; bumped on incompatible layout changes (a schema
#: mismatch reads as a miss, so old stores age out instead of erroring).
SCHEMA = 1

_CODE_VERSION: Optional[str] = None


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def write_json(path, payload: Any) -> None:
    """Write ``payload`` to ``path`` as indented JSON plus a newline:
    the format of store entries, session files and CLI reports."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def payload_digest(payload: Any) -> str:
    """SHA-256 over the canonical encoding of ``payload``."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def code_version() -> str:
    """Digest of every ``repro`` source file (cached per process).

    Keying cache entries by this digest means a re-run after *any* code
    change recomputes from scratch — the cheap, always-correct
    invalidation rule.  ~1 MB of sources hash in milliseconds, once.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


@dataclass(frozen=True)
class StoreKey:
    """A canonicalised key and its identifying digest."""

    fields: str  # canonical JSON of the key fields
    digest: str  # sha256(fields)

    def to_dict(self) -> Dict[str, Any]:
        return json.loads(self.fields)


class ResultStore:
    """The on-disk store (see the module docstring).

    Counters (``hits``/``misses``/``corruptions``/``puts``) accumulate
    over the instance's lifetime and feed the sweep reports' service
    telemetry.
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corruptions = 0
        self.puts = 0

    # -- keys --------------------------------------------------------------

    def key(self, **fields: Any) -> StoreKey:
        """Build a key from JSON-serialisable fields.

        ``schema`` and ``code`` (the :func:`code_version` digest) are
        always folded in, so callers only name the *workload* inputs.
        """
        fields.setdefault("schema", SCHEMA)
        fields.setdefault("code", code_version())
        encoded = canonical_json(fields)
        return StoreKey(
            fields=encoded,
            digest=hashlib.sha256(encoded.encode("utf-8")).hexdigest(),
        )

    def _path(self, key: StoreKey) -> pathlib.Path:
        return self.entries_dir / key.digest[:2] / f"{key.digest}.json"

    # -- access ------------------------------------------------------------

    def get(self, key: StoreKey) -> Optional[Any]:
        """The stored payload, or ``None`` on miss *or* corruption.

        Every read re-verifies the embedded payload hash; an entry that
        fails to parse, carries a stale schema, belongs to a different
        key (hash collision in the path — practically impossible, still
        checked), or hashes differently than recorded is counted as a
        corruption, evicted, and reported as a miss so the caller
        recomputes.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._evict(path)
            self.corruptions += 1
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != SCHEMA
            or entry.get("key") != key.fields
            or entry.get("sha256") != payload_digest(entry.get("payload"))
        ):
            self._evict(path)
            self.corruptions += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def put(self, key: StoreKey, payload: Any) -> pathlib.Path:
        """Store ``payload`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": SCHEMA,
            "key": key.fields,
            "sha256": payload_digest(payload),
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        write_json(tmp, entry)
        os.replace(tmp, path)
        self.puts += 1
        return path

    def contains(self, key: StoreKey) -> bool:
        return self._path(key).exists()

    def forget(self, key: StoreKey) -> bool:
        """Drop one entry (used to expire checkpoints); True if it was
        present."""
        path = self._path(key)
        if path.exists():
            self._evict(path)
            return True
        return False

    def entry_paths(self) -> Iterator[pathlib.Path]:
        """Every entry file currently in the store."""
        yield from sorted(self.entries_dir.glob("*/*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_paths())

    @staticmethod
    def _evict(path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corruptions": self.corruptions,
            "puts": self.puts,
        }
