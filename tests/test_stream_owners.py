"""Owner text of every attributed stream builder, pinned by digest.

A divergence report names the program location that issued an op: the
march item for a golden stream, the rotation and item for a concurrent
cycle stream, the ring phase and position for a pseudo-ring session or
its controller, the seed/traffic/slot location for an in-field plan.
These digests hash one ``owner, op`` line per op of each builder's
stream over a fixed grid, so any change to how a stream stores or
formats its owners must reproduce the same text.  (The controller
builders are pinned in ``tests/test_controller_traces.py``.)
"""

import hashlib

import pytest

from repro.conformance.corpus import GOLDEN_GEOMETRIES, STREAM_GEOMETRIES
from repro.conformance.infield import build_infield_plan
from repro.conformance.trace import concurrent_trace, golden_trace
from repro.core.controller import ControllerCapabilities
from repro.march import library
from repro.prt import PRT_RING_DOWN, PRT_RING_UP, PrtController


def _caps(geometry):
    n_words, width, ports = geometry
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


def _lines(stream):
    """One ``owner, op`` line per op of a stream."""
    for index, op in enumerate(stream.ops):
        yield f"{stream.owner(index)}, {op}"


def _digest(streams):
    """sha256 (first 16 hex digits) over ``(label, stream)`` pairs."""
    digest = hashlib.sha256()
    for label, stream in streams:
        for line in _lines(stream):
            digest.update(f"{label} {line}\n".encode("utf-8"))
    return digest.hexdigest()[:16]


def _golden():
    for name in sorted(library.ALGORITHMS):
        for geometry in GOLDEN_GEOMETRIES:
            yield (name, geometry), golden_trace(
                library.get(name), _caps(geometry)
            )


def _concurrent():
    for name in sorted(library.ALGORITHMS):
        for geometry in ((3, 2, 2), (4, 2, 2)):
            yield (name, geometry), concurrent_trace(
                library.get(name), _caps(geometry)
            )


def _prt_session():
    for session in (PRT_RING_UP, PRT_RING_DOWN):
        for geometry in STREAM_GEOMETRIES:
            yield (session.name, geometry), session.attributed_stream(
                _caps(geometry)
            )


def _prt_controller():
    for session in (PRT_RING_UP, PRT_RING_DOWN):
        for geometry in STREAM_GEOMETRIES:
            controller = PrtController(session.config, _caps(geometry))
            yield (session.name, geometry), controller.attributed_stream()


def _infield():
    for geometry in ((4, 1, 1), (3, 2, 2)):
        yield geometry, build_infield_plan(_caps(geometry), seed=0).stream


BUILDERS = {
    "golden": _golden,
    "concurrent": _concurrent,
    "prt-session": _prt_session,
    "prt-controller": _prt_controller,
    "infield": _infield,
}

#: builder -> digest of its owner lines over the grid above.
PINNED = {
    "golden": "a7280f26a309aab6",
    "concurrent": "379eb7710ccfe171",
    "prt-session": "f6627a3793f3d225",
    "prt-controller": "d8d1bd5b7e69d4e8",
    "infield": "f31bd621022ee5f1",
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_owner_digests(builder):
    assert _digest(BUILDERS[builder]()) == PINNED[builder]
