"""The checked-in golden-trace regression corpus.

``tests/corpus/golden/`` holds one JSON file per (library algorithm,
geometry) pair: the algorithm in march notation, the geometry, the
architectures the pair is differentially tested on, and the full golden
operation stream in a compact one-op-per-line text encoding, protected
by a SHA-256 content hash.  ``tests/corpus/regressions/`` holds
minimised reproducers promoted from nightly fuzz failures in the same
format (see ``docs/TESTING.md`` for the promotion workflow); entries
carrying a ``fault`` key additionally pin the *fault-response* of every
architecture under that injected fault
(:func:`repro.conformance.faulty.check.check_fault_conformance`).
``tests/corpus/streams/`` holds traces of the non-march operation
streams — the classical tests of :mod:`repro.classic` and the
transparent (content-preserving) transforms of
:mod:`repro.core.transparent` — pinned against the named generator in
:data:`STREAM_GENERATORS` rather than against the march expander.

``repro conformance corpus-check`` re-derives everything: the stored
hash must match the stored ops (file integrity), the stored ops must
match a fresh golden expansion (the reference semantics didn't drift),
and every listed architecture must still reproduce the stream op-for-op
(the controllers didn't drift).  Any edit to march semantics, the
assembler, a controller or the expander that changes behaviour
therefore fails CI with a first-divergence report instead of silently
shipping.

Op encoding (stable, documented in ``docs/TESTING.md``)::

    w <port> <address> <value>      write
    r <port> <address> <expected>   read
    d <port> <delay>                retention pause

Concurrent stream entries encode one *cycle* per line: the same-cycle
sub-operations in ascending port order joined by ``" | "``, e.g.
``w 0 2 1 | r 1 2 0``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.conformance.check import ARCHITECTURES, check_conformance
from repro.conformance.divergence import first_difference
from repro.conformance.trace import golden_trace
from repro.core.controller import ControllerCapabilities
from repro.march.concurrent import CycleOps, expand_concurrent
from repro.march.notation import format_test, parse_test
from repro.march.simulator import MemoryOperation
from repro.march.test import MarchTest

Geometry = Tuple[int, int, int]

#: Corpus file schema version (bump on incompatible format changes).
SCHEMA = 1

#: Default geometry grid of the golden corpus: bit-oriented single-port,
#: word-oriented multiport and wide single-port — every loop level
#: (addresses, backgrounds, ports) is exercised by at least one entry.
GOLDEN_GEOMETRIES: Tuple[Tuple[int, int, int], ...] = (
    (4, 1, 1),
    (3, 2, 2),
    (2, 4, 1),
)

#: Default corpus root, relative to the repository checkout.
DEFAULT_CORPUS_DIR = "tests/corpus"


class CorpusError(ValueError):
    """Raised for malformed corpus files."""


def encode_op(op: MemoryOperation) -> str:
    """One-line text encoding of an operation (see module docstring)."""
    if op.is_delay:
        return f"d {op.port} {op.delay}"
    if op.is_write:
        return f"w {op.port} {op.address} {op.value}"
    return f"r {op.port} {op.address} {op.expected}"


def encode_cycle(cycle: "CycleOps") -> str:
    """One-line encoding of a same-cycle op group (``" | "``-joined)."""
    return " | ".join(encode_op(op) for op in cycle)


def encode_stream_item(item: Any) -> str:
    """Encode either a plain operation or a :class:`CycleOps` group."""
    if isinstance(item, CycleOps):
        return encode_cycle(item)
    return encode_op(item)


def decode_op(text: str) -> MemoryOperation:
    """Inverse of :func:`encode_op`."""
    parts = text.split()
    try:
        kind = parts[0]
        if kind == "d":
            port, delay = int(parts[1]), int(parts[2])
            return MemoryOperation(port, 0, False, delay=delay)
        if kind == "w":
            port, address, value = (int(p) for p in parts[1:4])
            return MemoryOperation(port, address, True, value=value)
        if kind == "r":
            port, address, expected = (int(p) for p in parts[1:4])
            return MemoryOperation(port, address, False, expected=expected)
    except (IndexError, ValueError) as error:
        raise CorpusError(f"bad op line {text!r}: {error}") from None
    raise CorpusError(f"bad op line {text!r}: unknown kind {kind!r}")


def trace_digest(ops: Sequence[str]) -> str:
    """SHA-256 content hash over the encoded operation lines."""
    return hashlib.sha256("\n".join(ops).encode("utf-8")).hexdigest()


def _slug(name: str) -> str:
    cleaned = name.lower().replace("+", "p")
    return "".join(c if c.isalnum() else "-" for c in cleaned).strip("-")


#: Corpus sub-directory per entry kind.
_KIND_DIRS = {"golden": "golden", "stream": "streams"}


def _entry_path(
    root: pathlib.Path, kind: str, name: str, geometry: Geometry
) -> pathlib.Path:
    words, width, ports = geometry
    sub = _KIND_DIRS.get(kind, "regressions")
    return root / sub / f"{_slug(name)}__w{words}x{width}p{ports}.json"


def applicable_architectures(test: MarchTest) -> List[str]:
    """Architectures that can realise ``test`` (progfsm is bounded)."""
    from repro.core.progfsm.compiler import is_realizable

    architectures = list(ARCHITECTURES)
    if not is_realizable(test):
        architectures.remove("progfsm")
    return architectures


def build_entry(
    test: MarchTest,
    geometry: Tuple[int, int, int],
    kind: str = "golden",
    provenance: Optional[Dict[str, Any]] = None,
    compress: bool = True,
) -> Dict[str, Any]:
    """One corpus entry: notation + geometry + golden trace + hash."""
    words, width, ports = geometry
    caps = ControllerCapabilities(n_words=words, width=width, ports=ports)
    encoded = [encode_op(op) for op in golden_trace(test, caps).ops]
    entry: Dict[str, Any] = {
        "schema": SCHEMA,
        "kind": kind,
        "name": test.name,
        "notation": format_test(test),
        "geometry": list(geometry),
        "compress": compress,
        "architectures": applicable_architectures(test),
        "ops": encoded,
        "sha256": trace_digest(encoded),
    }
    if provenance:
        entry["provenance"] = provenance
    return entry


def write_entry(path: pathlib.Path, entry: Dict[str, Any]) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=1)
        handle.write("\n")
    return path


def load_entry(path: pathlib.Path) -> Dict[str, Any]:
    with open(path) as handle:
        entry = json.load(handle)
    required = ["kind", "geometry", "ops", "sha256"]
    required.append(
        "generator" if entry.get("kind") == "stream" else "notation"
    )
    for key in required:
        if key not in entry:
            raise CorpusError(f"{path}: missing corpus key {key!r}")
    if entry.get("schema") != SCHEMA:
        raise CorpusError(
            f"{path}: unsupported corpus schema {entry.get('schema')!r} "
            f"(this tool reads schema {SCHEMA})"
        )
    return entry


def record_golden(
    root: pathlib.Path,
    geometries: Sequence[Tuple[int, int, int]] = GOLDEN_GEOMETRIES,
    algorithms: Optional[Iterable[str]] = None,
) -> List[pathlib.Path]:
    """(Re)write the golden corpus: library algorithms × geometry grid."""
    from repro.march import library

    names = list(algorithms) if algorithms is not None else list(
        library.ALGORITHMS
    )
    written: List[pathlib.Path] = []
    for name in names:
        test = library.get(name)
        for geometry in geometries:
            entry = build_entry(test, tuple(geometry), kind="golden")
            path = _entry_path(root, "golden", name, tuple(geometry))
            written.append(write_entry(path, entry))
    return written


def _transparent_stream_builder(algorithm: str):
    """Stream builder for the transparent transform of ``algorithm``.

    The transparent expansion depends on the live contents; the corpus
    pins it against the deterministic fill ``initial[a] = a & mask`` so
    the trace exercises per-address data without any RNG.
    """

    def build(caps: ControllerCapabilities) -> List[MemoryOperation]:
        from repro.core.transparent import (
            transparent_stream,
            transparent_version,
        )
        from repro.march import library

        test = transparent_version(library.get(algorithm))
        mask = (1 << caps.width) - 1
        initial = [address & mask for address in range(caps.n_words)]
        return [
            op for *_, op in transparent_stream(
                test, initial, caps.width, caps.ports
            )
        ]

    return build


def _classic_stream_builder(generator: str):
    def build(caps: ControllerCapabilities) -> List[MemoryOperation]:
        from repro import classic

        if generator == "checkerboard-bake":
            return list(
                classic.checkerboard(
                    caps.n_words, caps.width, caps.ports, bake=512
                )
            )
        if generator == "pseudorandom":
            # pseudorandom_test is single-port; length defaults to the
            # 10N March C budget, seeds are the documented defaults.
            return list(
                classic.pseudorandom_test(caps.n_words, caps.width)
            )
        fn = getattr(classic, generator.replace("-", "_"))
        return list(fn(caps.n_words, caps.width, caps.ports))

    return build


def _concurrent_stream_builder(algorithm: str):
    """Stream builder for the concurrent dual-port expansion.

    Yields :class:`~repro.march.concurrent.CycleOps` groups (encoded
    one cycle per line), pinning both the base-port march and the
    companion-port read expectations of
    :func:`repro.march.concurrent.expand_concurrent`.
    """

    def build(caps: ControllerCapabilities) -> List[CycleOps]:
        from repro.march import library

        return list(
            expand_concurrent(
                library.get(algorithm),
                caps.n_words,
                width=caps.width,
                ports=caps.ports,
            )
        )

    return build


def _prt_stream_builder(which: str):
    """Stream builder for a named default pseudo-ring session.

    Pins the full seed + circulation + readout stream of
    :class:`repro.prt.session.PrtSession` per geometry, so any edit to
    the ring tap selection, the seed LFSR or the shift semantics fails
    CI with a first-divergence report.
    """

    def build(caps: ControllerCapabilities) -> List[MemoryOperation]:
        import repro.prt as prt

        session = {
            "prt-ring-up": prt.PRT_RING_UP,
            "prt-ring-down": prt.PRT_RING_DOWN,
        }[which]
        return list(session.operations(caps))

    return build


def _infield_stream_builder():
    """Stream builder for the deterministic in-field session plan.

    Pins the full seed + traffic + transparent-slot operation stream of
    :func:`repro.conformance.infield.build_infield_plan` with the
    default test trio and ``seed=0``, so any edit to the scheduler, the
    traffic RNG discipline or the transparent rebasing fails CI with a
    first-divergence report.
    """

    def build(caps: ControllerCapabilities) -> List[MemoryOperation]:
        from repro.conformance.infield import build_infield_plan

        return build_infield_plan(caps, seed=0).stream.ops

    return build


#: Named deterministic operation-stream generators the ``streams/``
#: corpus is pinned against.  Each maps a geometry to the exact stream;
#: corpus-check regenerates and compares, so any behavioural edit to a
#: classical test or the transparent transform fails CI with a
#: first-divergence report.
STREAM_GENERATORS: Dict[str, Any] = {
    "walking-ones": _classic_stream_builder("walking-ones"),
    "walking-zeros": _classic_stream_builder("walking-zeros"),
    "galpat": _classic_stream_builder("galpat"),
    "checkerboard": _classic_stream_builder("checkerboard"),
    "checkerboard-bake": _classic_stream_builder("checkerboard-bake"),
    "pseudorandom": _classic_stream_builder("pseudorandom"),
    "transparent-mats+": _transparent_stream_builder("MATS+"),
    "transparent-march-c": _transparent_stream_builder("March C"),
    "transparent-march-y": _transparent_stream_builder("March Y"),
    "concurrent-mats+": _concurrent_stream_builder("MATS+"),
    "concurrent-march-c": _concurrent_stream_builder("March C"),
    "infield-session": _infield_stream_builder(),
    "prt-ring-up": _prt_stream_builder("prt-ring-up"),
    "prt-ring-down": _prt_stream_builder("prt-ring-down"),
}

#: Geometry grid of the stream corpus.  The O(N²) classical tests keep
#: it deliberately small; both entries still cover width > 1 and the
#: multi-port sweep.
STREAM_GEOMETRIES: Tuple[Geometry, ...] = ((4, 1, 1), (3, 2, 2))


def build_stream_entry(
    generator: str, geometry: Geometry
) -> Dict[str, Any]:
    """One ``streams/`` corpus entry: generator name + pinned trace."""
    words, width, ports = geometry
    caps = ControllerCapabilities(n_words=words, width=width, ports=ports)
    encoded = [
        encode_stream_item(item)
        for item in STREAM_GENERATORS[generator](caps)
    ]
    return {
        "schema": SCHEMA,
        "kind": "stream",
        "name": generator,
        "generator": generator,
        "geometry": list(geometry),
        "ops": encoded,
        "sha256": trace_digest(encoded),
    }


def record_streams(
    root: pathlib.Path,
    geometries: Sequence[Geometry] = STREAM_GEOMETRIES,
    generators: Optional[Iterable[str]] = None,
) -> List[pathlib.Path]:
    """(Re)write the stream corpus: generator registry × geometry grid."""
    names = (
        list(generators) if generators is not None
        else list(STREAM_GENERATORS)
    )
    written: List[pathlib.Path] = []
    for name in names:
        for geometry in geometries:
            entry = build_stream_entry(name, tuple(geometry))
            path = _entry_path(root, "stream", name, tuple(geometry))
            written.append(write_entry(path, entry))
    return written


def record_regression(
    root: pathlib.Path,
    notation: str,
    geometry: Geometry,
    name: str,
    compress: bool = True,
    provenance: Optional[Dict[str, Any]] = None,
    fault: Optional[str] = None,
    mode: Optional[str] = None,
    expect_detected: Optional[bool] = None,
) -> pathlib.Path:
    """Check in one minimised reproducer as a regression entry.

    ``fault`` (a :mod:`repro.faults.spec` string) additionally pins the
    differential *fault-response* under that injected fault — the
    corpus checker re-runs the full faulty differential for such
    entries.  ``mode`` selects the stimulus regime the fault response
    is re-checked under (one of
    :data:`repro.conformance.faulty.check.MODES`; ``None`` means
    sequential), and ``expect_detected`` additionally pins the
    *detection* verdict — e.g. a concurrent-only fault promoted from a
    shrunk reproducer stays detected by the dual-port stimulus forever.
    """
    test = parse_test(notation, name=name)
    entry = build_entry(
        test,
        tuple(geometry),
        kind="regression",
        provenance=provenance,
        compress=compress,
    )
    if mode is not None:
        from repro.conformance.faulty.check import MODES

        if mode not in MODES:
            raise CorpusError(
                f"unknown regression mode {mode!r} (expected one of "
                f"{'/'.join(MODES)})"
            )
        entry["mode"] = mode
    if fault is not None:
        from repro.faults.spec import format_fault, parse_fault

        # Validate before committing, and store the canonical form.
        entry["fault"] = format_fault(parse_fault(fault))
        if expect_detected is not None:
            entry["expect_detected"] = bool(expect_detected)
    elif expect_detected is not None:
        raise CorpusError("expect_detected requires a fault spec")
    path = _entry_path(root, "regression", name, tuple(geometry))
    return write_entry(path, entry)


def promote_from_report(
    root: pathlib.Path, report: Dict[str, Any]
) -> List[pathlib.Path]:
    """Promote every mismatch of a fuzz-report JSON into the corpus.

    Prefers the shrunk reproducer the harness minimised automatically
    (the three-axis faulty reproducer when the failure was a
    fault-response divergence); falls back to the full sample when
    shrinking was unavailable.  The fuzz seed, sample index and drawn
    fault are kept as provenance, so a checked-in regression is
    traceable to the nightly run that found it.
    """
    written: List[pathlib.Path] = []
    seed = report.get("seed", 0)
    for entry in report.get("mismatches", []):
        shrunk_faulty = entry.get("shrunk_faulty") or {}
        shrunk = shrunk_faulty or entry.get("shrunk") or {}
        notation = shrunk.get("notation") or entry.get("notation")
        geometry = shrunk.get("geometry") or entry.get("geometry")
        fault = shrunk_faulty.get("fault") or (
            entry.get("fault_spec") if shrunk_faulty else None
        )
        if not notation or not geometry:
            continue
        name = f"fuzz-seed{seed}-sample{entry.get('index', 0)}"
        provenance = {
            "seed": seed,
            "index": entry.get("index"),
            "sample_seed": entry.get("sample_seed"),
            "original_notation": entry.get("notation"),
            "original_geometry": entry.get("geometry"),
            "original_fault": entry.get("fault_spec"),
            "mismatches": entry.get("mismatches"),
        }
        written.append(
            record_regression(
                root,
                notation,
                tuple(geometry),
                name=name,
                compress=bool(entry.get("compress", True)),
                provenance=provenance,
                fault=fault,
            )
        )
    return written


@dataclass
class EntryResult:
    """Verdict for one corpus file."""

    path: str
    name: str
    ok: bool
    problems: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "name": self.name,
            "ok": self.ok,
            "problems": self.problems,
        }


@dataclass
class CorpusReport:
    """Aggregated outcome of a corpus check."""

    root: str
    entries: List[EntryResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.entries) and all(e.ok for e in self.entries)

    @property
    def checked(self) -> int:
        return len(self.entries)

    @property
    def failed(self) -> List[EntryResult]:
        return [e for e in self.entries if not e.ok]

    def format(self) -> str:
        lines = [
            f"corpus {self.root}: {self.checked} entr"
            f"{'y' if self.checked == 1 else 'ies'} checked, "
            f"{len(self.failed)} problem(s)"
        ]
        if not self.entries:
            lines.append("  (no corpus files found — run "
                         "'repro conformance record' first)")
        for entry in self.entries:
            if entry.ok:
                continue
            lines.append(f"  FAIL {entry.path} ({entry.name})")
            for problem in entry.problems:
                lines.extend(f"    {line}"
                             for line in problem.splitlines())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "checked": self.checked,
            "ok": self.ok,
            "entries": [entry.to_dict() for entry in self.entries],
        }


def check_entry(path: pathlib.Path) -> EntryResult:
    """Validate one corpus file (integrity + golden + architectures)."""
    result = EntryResult(path=str(path), name=path.stem, ok=True)

    def problem(text: str) -> None:
        result.ok = False
        result.problems.append(text)

    try:
        entry = load_entry(path)
    except (CorpusError, json.JSONDecodeError, OSError) as error:
        problem(f"unreadable corpus entry: {error}")
        return result
    result.name = entry.get("name", path.stem)

    # 1. File integrity: the stored hash covers the stored ops.
    stored_ops = entry["ops"]
    digest = trace_digest(stored_ops)
    if digest != entry["sha256"]:
        problem(
            f"content hash mismatch: stored {entry['sha256'][:12]}…, "
            f"ops hash to {digest[:12]}… (corpus file edited by hand?)"
        )

    # Stream entries replay against their named generator, not the
    # march machinery.
    if entry["kind"] == "stream":
        _check_stream_entry(entry, stored_ops, problem)
        return result

    # 2. Reference stability: a fresh golden expansion reproduces the ops.
    try:
        test = parse_test(entry["notation"], name=result.name)
    except Exception as error:
        problem(f"unparseable notation: {error}")
        return result
    words, width, ports = entry["geometry"]
    caps = ControllerCapabilities(n_words=words, width=width, ports=ports)
    fresh = [encode_op(op) for op in golden_trace(test, caps).ops]
    if fresh != stored_ops:
        problem(_drift("golden trace", "expander", fresh, stored_ops))

    # 3. Architecture conformance: every listed controller reproduces it.
    architectures = [
        a for a in entry.get("architectures", list(ARCHITECTURES))
        if a in ARCHITECTURES
    ]
    conformance = check_conformance(
        test,
        caps,
        architectures=architectures,
        compress=bool(entry.get("compress", True)),
    )
    if not conformance.ok:
        problem(conformance.describe_failures())
    for arch_result in conformance.results:
        if arch_result.skipped is not None:
            problem(
                f"{arch_result.architecture} listed in the corpus entry "
                f"but skipped at check time: {arch_result.skipped}"
            )

    # 4. Fault-response stability: entries pinning an injected fault
    # re-run the full differential against it.
    if entry.get("fault"):
        _check_fault_entry(entry, test, caps, architectures, problem)
    return result


def _drift(
    subject: str,
    source: str,
    fresh: Sequence[str],
    stored: Sequence[str],
) -> str:
    """The problem text for a replay whose ops differ from the stored
    ones, naming the first differing op of each side."""
    index = first_difference(fresh, stored)

    def at(ops: Sequence[str]) -> str:
        return ops[index] if index < len(ops) else "<end of stream>"

    return (
        f"{subject} drifted at op {index}: corpus has {at(stored)!r}, "
        f"{source} now yields {at(fresh)!r} "
        f"({len(stored)} stored vs {len(fresh)} fresh ops)"
    )


def _check_stream_entry(
    entry: Dict[str, Any], stored_ops: Sequence[str], problem
) -> None:
    """Replay a ``streams/`` entry against its named generator."""
    generator = entry.get("generator")
    if generator not in STREAM_GENERATORS:
        problem(
            f"unknown stream generator {generator!r}; known: "
            f"{sorted(STREAM_GENERATORS)}"
        )
        return
    words, width, ports = entry["geometry"]
    caps = ControllerCapabilities(n_words=words, width=width, ports=ports)
    try:
        fresh = [
            encode_stream_item(item)
            for item in STREAM_GENERATORS[generator](caps)
        ]
    except Exception as error:
        problem(f"stream generator {generator!r} crashed: {error}")
        return
    if fresh != stored_ops:
        problem(
            _drift(f"stream {generator!r}", "generator", fresh, stored_ops)
        )


def _check_fault_entry(
    entry: Dict[str, Any],
    test: MarchTest,
    caps: ControllerCapabilities,
    architectures: Sequence[str],
    problem,
) -> None:
    """Re-run the fault-response differential a regression entry pins."""
    from repro.conformance.faulty.check import check_fault_conformance
    from repro.faults.spec import FaultSpecError, format_fault, parse_fault

    try:
        fault = parse_fault(entry["fault"])
    except FaultSpecError as error:
        problem(f"bad fault spec in corpus entry: {error}")
        return
    canonical = format_fault(fault)
    if canonical != entry["fault"]:
        problem(
            f"fault spec {entry['fault']!r} is not canonical "
            f"(write it as {canonical!r})"
        )
    mode = entry.get("mode", "sequential")
    try:
        response = check_fault_conformance(
            test,
            caps,
            fault,
            architectures=architectures,
            compress=bool(entry.get("compress", True)),
            mode=mode,
        )
    except ValueError as error:
        problem(f"fault-response re-check failed: {error}")
        return
    if not response.ok:
        problem(
            f"fault-response regression under {entry['fault']} "
            f"[{mode} mode]: " + response.describe_failures()
        )
    expect_detected = entry.get("expect_detected")
    if expect_detected is not None and response.ok:
        if response.detected != bool(expect_detected):
            problem(
                f"detection verdict drifted under {entry['fault']} "
                f"[{mode} mode]: corpus pins detected="
                f"{bool(expect_detected)}, harness now reports "
                f"detected={response.detected}"
            )


def check_corpus(root: pathlib.Path) -> CorpusReport:
    """Validate every golden, stream and regression entry under ``root``."""
    report = CorpusReport(root=str(root))
    paths = (
        sorted(root.glob("golden/*.json"))
        + sorted(root.glob("streams/*.json"))
        + sorted(root.glob("regressions/*.json"))
    )
    for path in paths:
        report.entries.append(check_entry(path))
    return report
