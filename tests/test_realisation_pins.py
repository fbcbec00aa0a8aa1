"""Each architecture's realisation of the library, pinned by digest.

The differential harnesses, the vector sweep's proofs and the
controller-cycle table all run the controller a march test realises
on: the program it assembles or compiles, the collapsed walk of the
rows it fetches and the cycle bound it runs under.  These digests hash
what each of them reports over a fixed grid (every architecture, the
library, four geometries, compression on and off), so a change to how
a controller is realised, walked or bounded must reproduce every
verdict, cycle count and op summary byte for byte.
"""

import hashlib

import pytest

import repro.core
from repro.conformance.check import proved_conformant
from repro.core.controller import CONTROLLER_CLASSES, ControllerCapabilities
from repro.core.progfsm.compiler import CompileError
from repro.eval.test_time import controller_cycle_table
from repro.march import library

ARCHITECTURES = ("microcode", "progfsm", "hardwired")
GEOMETRIES = ((64, 1, 1), (16, 4, 2), (1, 1, 1), (5, 4, 2))
NAMES = sorted(library.ALGORITHMS)


def _stock_walk(architecture, test, caps, compress):
    """The walk and cycle bound of the controller the stock builder runs."""
    controller_class = getattr(repro.core, CONTROLLER_CLASSES[architecture])
    controller = controller_class.realise(test, caps, compress)
    return controller.walk(), controller.cycle_bound()


def _grid():
    for architecture in ARCHITECTURES:
        for name in NAMES:
            for n_words, width, ports in GEOMETRIES:
                caps = ControllerCapabilities(n_words, width, ports)
                for compress in (True, False):
                    label = (
                        f"{architecture} {name} {n_words}x{width}x{ports} "
                        f"{compress}"
                    )
                    yield label, architecture, library.get(name), caps, compress


def _digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode("utf-8"))
    return digest.hexdigest()[:16]


def _proofs():
    for label, architecture, test, caps, compress in _grid():
        try:
            verdict = proved_conformant(architecture, test, caps, compress)
        except CompileError as error:
            verdict = f"CompileError({error})"
        yield f"{label} {verdict}"


def _walks():
    for label, architecture, test, caps, compress in _grid():
        try:
            walk, bound = _stock_walk(architecture, test, caps, compress)
        except CompileError as error:
            yield f"{label} CompileError({error})"
            continue
        yield (
            f"{label} {walk.verdict.value} {walk.cycles} {bound} "
            f"{walk.summary!r} {walk.summary_reason!r}"
        )


def _cycle_rows(n_words, width, ports, analytic):
    for row in controller_cycle_table(n_words, width, ports, analytic=analytic):
        yield repr(row)


PINS = {
    "proofs": "41bc922e3a9d3d81",
    "walks": "b7b7985d2aca8995",
    "cycles-16x4x2-analytic": "36cec4af59540ed3",
    "cycles-16x4x2-simulated": "36cec4af59540ed3",
    "cycles-1024x1x1-analytic": "c0e098afacfb9173",
    "cycles-1024x1x1-simulated": "c0e098afacfb9173",
}


def _lines(kind):
    if kind == "proofs":
        return _proofs()
    if kind == "walks":
        return _walks()
    _, geometry, method = kind.split("-")
    n_words, width, ports = map(int, geometry.split("x"))
    return _cycle_rows(n_words, width, ports, method == "analytic")


@pytest.mark.parametrize("kind", sorted(PINS))
def test_realisation_is_pinned(kind):
    assert _digest(_lines(kind)) == PINS[kind]
