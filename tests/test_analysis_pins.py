"""Static-analysis output of both programmable controllers, pinned by digest.

The verifier builds a control-flow graph, walks the collapsed
controller and runs the rule catalogue for microcode and upper-buffer
programs alike.  These digests hash the text each layer produces over
a fixed grid (the library, compressed and not, on three geometries,
each program verified against every one of them), so a refactor of
the graph, walk, analysis record or rule runner must reproduce every
edge, verdict and finding byte for byte.
"""

import hashlib
import json

import pytest

from repro.analysis import (
    build_cfg,
    build_fsm_cfg,
    interpret,
    interpret_fsm,
    verify_march,
    verify_program,
)
from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import assemble
from repro.core.progfsm.compiler import compile_to_sm, is_realizable
from repro.march import library

GEOMETRIES = ((64, 1, 1), (16, 4, 2), (1, 1, 1))
NAMES = sorted(library.ALGORITHMS)
REALISABLE = [name for name in NAMES if is_realizable(library.get(name))]


def _caps(geometry):
    n_words, width, ports = geometry
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


def _microcode():
    for name in NAMES:
        for compress in (True, False):
            for geometry in GEOMETRIES:
                caps = _caps(geometry)
                program = assemble(
                    library.get(name), caps, compress=compress, verify=False
                )
                yield (name, compress, geometry), program, caps


def _progfsm():
    for name in REALISABLE:
        for geometry in GEOMETRIES:
            caps = _caps(geometry)
            program = compile_to_sm(library.get(name), caps, verify=False)
            yield (name, geometry), program, caps


def _digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode("utf-8"))
    return digest.hexdigest()[:16]


def _edges(programs, build):
    for label, program, _ in programs:
        for edge in build(program).edges:
            yield f"{label} {edge}"


def _walks(programs, walk):
    for label, program, caps in programs:
        result = walk(program, caps)
        yield (
            f"{label} {result.verdict.value} {result.cycles} "
            f"{result.reason!r} {result.location} {result.states_visited}"
        )


def _reports(programs, verify):
    """Each program verified against every geometry and none, so the
    capability rules fire on the mismatched pairs."""
    for label, program, _ in programs:
        for target in GEOMETRIES + (None,):
            caps = None if target is None else _caps(target)
            report = verify(program, caps).to_json()
            yield f"{label} {target} {json.dumps(report)}"


def _march_reports(target):
    for name in NAMES:
        report = verify_march(library.get(name), target=target)
        yield f"{name} {json.dumps(report.to_json())}"


PINS = {
    "microcode-cfg": "0422a5bbf796f9c5",
    "progfsm-cfg": "b4f602e574d14070",
    "microcode-walk": "c4709df0c5e058ae",
    "progfsm-walk": "33c8b05a853b5356",
    "microcode-verify": "243a5acd72e17cce",
    "progfsm-verify": "6b926fde4f782667",
    "march-microcode": "f47addf203dd1602",
    "march-progfsm": "b0d90aee9eb9fba7",
    "march-none": "f47addf203dd1602",
}


def _lines(kind):
    if kind == "microcode-cfg":
        return _edges(_microcode(), build_cfg)
    if kind == "progfsm-cfg":
        return _edges(_progfsm(), build_fsm_cfg)
    if kind == "microcode-walk":
        return _walks(_microcode(), interpret)
    if kind == "progfsm-walk":
        return _walks(_progfsm(), interpret_fsm)
    if kind == "microcode-verify":
        return _reports(_microcode(), verify_program)
    if kind == "progfsm-verify":
        return _reports(_progfsm(), verify_program)
    return _march_reports(
        {"march-microcode": "microcode", "march-progfsm": "progfsm",
         "march-none": None}[kind]
    )


@pytest.mark.parametrize("kind", sorted(PINS))
def test_analysis_output_is_pinned(kind):
    assert _digest(_lines(kind)) == PINS[kind]
