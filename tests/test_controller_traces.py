"""Full cycle traces of the three cycle-stepped controllers.

Each controller's ``trace()`` evaluates its combinational blocks — the
instruction decode, :func:`decoder_outputs`, :func:`lower_fsm_step`,
:func:`step_signals` — once per distinct input, in memos local to the
run.  These tests pin what that must not change and what must not
outlive a run:

* one digest per controller × library test × geometry over *every*
  trace entry, op cycles and non-op cycles (branches, loop rows,
  pauses) alike; the stream corpus sees only the ops;
* a block replaced between two builds of the same (test, geometry)
  changes the second stream, and the scalar oracle reports it;
* a storage defect, a scan load, a buffer reload or a re-synthesised
  state graph between two ``trace()`` calls on one controller changes
  the second trace exactly as pinned.
"""

import dataclasses
import hashlib

import pytest

from repro.conformance import run_fault_sweep
from repro.conformance.check import STREAM_BUILDERS
from repro.core.controller import ControllerCapabilities
from repro.core.hardwired import controller as hardwired_controller
from repro.core.hardwired.controller import HardwiredBistController
from repro.core.hardwired.synthesis import synthesize
from repro.core.microcode import controller as microcode_controller
from repro.core.microcode.assembler import assemble
from repro.core.microcode.controller import MicrocodeBistController
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.storage import StorageUnit
from repro.core.progfsm import controller as progfsm_controller
from repro.core.progfsm.compiler import CompileError, compile_to_sm
from repro.core.progfsm.controller import ProgrammableFsmBistController
from repro.core.progfsm.instruction import FsmInstruction
from repro.core.progfsm.upper_buffer import DEFAULT_ROWS
from repro.faults.spec import parse_fault
from repro.march import library

GEOMETRIES = ((4, 1, 1), (3, 2, 2), (4, 2, 2))


def _caps(geometry):
    n_words, width, ports = geometry
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


def _microcode(test, caps):
    return MicrocodeBistController(test, caps, verify=False)


def _progfsm(test, caps):
    program = compile_to_sm(test, caps, verify=False)
    return ProgrammableFsmBistController(
        program, caps, buffer_rows=max(DEFAULT_ROWS, len(program)),
        verify=False,
    )


def _hardwired(test, caps):
    return HardwiredBistController(test, caps)


#: Per architecture: the controller as the stream builders configure
#: it, and one trace entry as a plain field tuple — cycle; instruction
#: counter, buffer row or state index; the instruction (or state kind);
#: port, address, background; repeat bit or loop path; the operation.
#: The FSM tuple also carries the lower-FSM state.
ARCHITECTURES = {
    "microcode": (
        _microcode,
        lambda e: (
            e.cycle, e.ic, str(e.instruction), e.port, e.address,
            e.background, e.repeat_bit, str(e.operation),
        ),
    ),
    "progfsm": (
        _progfsm,
        lambda e: (
            e.cycle, e.row, str(e.instruction), e.state.name, e.port,
            e.address, e.background, e.path, str(e.operation),
        ),
    ),
    "hardwired": (
        _hardwired,
        lambda e: (
            e.cycle, e.state.index, e.state.kind, e.port, e.address,
            e.background, str(e.operation),
        ),
    ),
}


def trace_digest(architecture, controller):
    """sha256 (first 16 hex digits) of every entry of one full trace."""
    fields = ARCHITECTURES[architecture][1]
    digest = hashlib.sha256()
    for entry in controller.trace():
        digest.update(repr(fields(entry)).encode("utf-8") + b"\n")
    return digest.hexdigest()[:16]


#: architecture -> test -> digests at GEOMETRIES; ``None`` where the
#: algorithm is outside the FSM's SM0–SM7 library.
PINNED = {
    "microcode": {
        "MATS": ("13d3f62d86404c70", "d3e8304ea4f89829", "c25d022081d5dfa6"),
        "MATS+": ("b6bfe1e8a394c844", "074b168d61f85422", "dd45daa99fea7d06"),
        "MATS++": ("25992e1f25fb4299", "6d82d6e6d41a0b87", "e6f9db4ac89de4cf"),
        "March A": ("bd1fe76a9f058e9d", "17dbf378ccdff509", "891e40b90cd0ae56"),
        "March A+": ("edda78c11adb40f2", "a527eeec7679ae4e", "d79fe361561a12ad"),
        "March A++": ("5812ca1d1da0e8be", "1eab0a964d52c380", "bde72d212683f405"),
        "March B": ("58c16599c34d853f", "a08e433dde8fea3b", "e0d1e91ca1fe4c3f"),
        "March C": ("89b5921b8801f1cc", "229e82e0a09e1b26", "947036414920647b"),
        "March C (original)": ("2d989cf62bb1fad9", "f45c61341ccb74ab", "8f94ebedfb00684a"),
        "March C+": ("af3c3df2cb129794", "6d7bb1cf39bf33b9", "ab08468d6cd90ba8"),
        "March C++": ("c2c42190b366428d", "d2d68e55eca49cda", "cb5852664263c73e"),
        "March G": ("4bc9b07c08474aa6", "aca38ab95a49761e", "459032a3fb8d1320"),
        "March LR": ("4e9d1a9296a87e19", "745abe8ac5c4407f", "97fcfc6ab27bf9aa"),
        "March X": ("83a37b44e629d689", "69804cec268b5e91", "39f5b9418652eb8c"),
        "March Y": ("a53df9d95a6f21ad", "881d1a265a083058", "ca64a35d6a458bef"),
        "PMOVI": ("cdd3a499497bf0cb", "23900280499ad914", "d227ae0788f58f33"),
        "Zero-One": ("d4b30794cc95ea52", "69d1d30a6f19ba0c", "72084b8f36317c7d"),
    },
    "progfsm": {
        "MATS": ("a08b5ac6e15ffe5e", "e42e075af61a8521", "fb3e315bfd1fbe48"),
        "MATS+": ("3fb2b1d947a1c33d", "2bc42a9dc1975306", "aaabb80f3eae6381"),
        "MATS++": ("7b9cb456182f626b", "29a6354bb60cdfb3", "5a8e25b8e26b1c55"),
        "March A": ("3a97b57749f9eb80", "7c4aae67a75efe33", "431ced7bce751fe4"),
        "March A+": ("4ac2beea71fdd25b", "c88960a9ad4b274e", "daabbe4c461fce57"),
        "March A++": (None, None, None),
        "March B": (None, None, None),
        "March C": ("7f7255817ca1208f", "ca8aaa1f2d05c053", "3be689fb658704cc"),
        "March C (original)": ("9f296f9e12a87438", "57182ce67d4976eb", "5306e83bcc15b679"),
        "March C+": ("ca6c40c34a603ca8", "35846abd046a4924", "4b9c46e08b3c96f7"),
        "March C++": (None, None, None),
        "March G": (None, None, None),
        "March LR": ("d5fa44c71b2ac68a", "7eced8bdc42524bc", "c39fdccc1896cdc9"),
        "March X": ("6e51aa7ebb2196e5", "b98bc6258a6b039f", "ef17f1f9a865a98a"),
        "March Y": ("e8452079613086a3", "4d483d1df46ca28b", "10568da319127615"),
        "PMOVI": ("ddc654c94f30db30", "d75b29526c1d7e0f", "73a8404ea2541dc0"),
        "Zero-One": ("a8345a455745a5a6", "68dfc9639ecf8472", "faef862fdc6d625a"),
    },
    "hardwired": {
        "MATS": ("c78153ea6a09d92b", "3d31e5166cdc72dd", "706543999b71e51c"),
        "MATS+": ("a13229799af2367f", "db6aae74bf8829b3", "72324d649569d5b1"),
        "MATS++": ("ee557b047196139e", "3406a449a6b739c9", "f647fc2766b5eedc"),
        "March A": ("de17ced55032617a", "ddc798395d743f26", "953f6a33bb154284"),
        "March A+": ("cbfaeb2d2bbb7571", "c830ac628c4c9782", "fe3ede090c49cbe0"),
        "March A++": ("5aa3501e1b1bd34d", "16014443a3271503", "a489608d9278645f"),
        "March B": ("2ca207cf7a3d3a2d", "4c87179b5003ce2a", "847395722f154c4f"),
        "March C": ("ef8d73cf1b3c8575", "d752379b3ca89aa5", "9e35d769fb559a84"),
        "March C (original)": ("7667fe3c9d588b61", "3f64d747e649bb8d", "4dc081e7ff074a34"),
        "March C+": ("78ddd53b50571bb4", "ab98b9cf96e59c5f", "938a4912334548b2"),
        "March C++": ("8430eca99181e828", "5b20e34fc81e1ad0", "6792fc3fba075deb"),
        "March G": ("52143ab59900ae20", "5b695192c36fb6db", "ddd245c59e628215"),
        "March LR": ("376d1ae5e800d9a6", "64ae5bc6db3ade26", "dff3d30544a0996e"),
        "March X": ("869327d4d4b0f2bd", "a657959d68003309", "ea2e3aee9696c484"),
        "March Y": ("7e4883d189050c1f", "f4a0aa16f2a2bccc", "9f51cc35457c0c4b"),
        "PMOVI": ("056d170ee7629f81", "9d27c9f3f37f686c", "e445524ab49cf55f"),
        "Zero-One": ("b746734e391479ff", "8dfee53479e6c725", "0cd7bf1bfce67995"),
    },
}


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
@pytest.mark.parametrize("name", sorted(library.ALGORITHMS))
def test_full_trace_digests(architecture, name):
    build = ARCHITECTURES[architecture][0]
    digests = []
    for geometry in GEOMETRIES:
        try:
            controller = build(library.get(name), _caps(geometry))
        except CompileError:
            digests.append(None)
            continue
        digests.append(trace_digest(architecture, controller))
    assert tuple(digests) == PINNED[architecture][name]


#: architecture -> sha256 (first 16 hex digits) of the attributed
#: stream its stream builder emits for every library test on
#: GEOMETRIES, one ``name, geometry, owner, op`` line per op: the owner
#: strings are formatted once per program row or state and reused.
PINNED_OWNERS = {
    "microcode": "eddeb3cad8f46aec",
    "progfsm": "2b9266041283ccc9",
    "hardwired": "10462bf1a9055a25",
}


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
def test_attributed_stream_digests(architecture):
    build = STREAM_BUILDERS[architecture]
    digest = hashlib.sha256()
    for name in sorted(library.ALGORITHMS):
        for geometry in GEOMETRIES:
            try:
                stream = build(library.get(name), _caps(geometry), True)
            except CompileError:
                continue
            for index, op in enumerate(stream.ops):
                line = f"{name} {geometry} {stream.owner(index)} {op}"
                digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest()[:16] == PINNED_OWNERS[architecture]


# -- nothing outlives a run -------------------------------------------------

GEOMETRY = (4, 2, 2)
CAPS = _caps(GEOMETRY)


def pinned_on_caps(architecture, name):
    """The pinned full-trace digest of ``name`` on CAPS."""
    return PINNED[architecture][name][GEOMETRIES.index(GEOMETRY)]


FAULTS = [parse_fault("saf:0:0:1"), parse_fault("tf:2:1:up")]


def _always_last_data(real):
    """``decoder_outputs`` / ``step_signals`` with Last Data stuck at 1:
    the controller runs only the first data background."""
    def patched(*args, **kwargs):
        args = list(args)
        args[2] = True
        return real(*args, **kwargs)

    return patched


def _inverted_writes(real):
    """``lower_fsm_step`` writing the complement of the SM pattern."""
    def patched(*args):
        out = real(*args)
        return dataclasses.replace(
            out, rel_polarity=out.rel_polarity ^ int(out.write)
        )

    return patched


def _decode_flipping(real, field, when):
    """An instruction ``decode`` that inverts ``field`` where ``when``."""
    def patched(cls, word):
        instruction = real(word)
        if not when(instruction):
            return instruction
        return dataclasses.replace(
            instruction, **{field: not getattr(instruction, field)}
        )

    return classmethod(patched)


BLOCK_PATCHES = {
    "microcode decoder_outputs": (
        "microcode", microcode_controller, "decoder_outputs",
        lambda: _always_last_data(microcode_controller.decoder_outputs),
    ),
    "microcode decode": (
        "microcode", MicroInstruction, "decode",
        lambda: _decode_flipping(
            MicroInstruction.decode, "data_inv", lambda i: i.write_en
        ),
    ),
    "progfsm lower_fsm_step": (
        "progfsm", progfsm_controller, "lower_fsm_step",
        lambda: _inverted_writes(progfsm_controller.lower_fsm_step),
    ),
    "progfsm decode": (
        "progfsm", FsmInstruction, "decode",
        lambda: _decode_flipping(
            FsmInstruction.decode, "compare", lambda i: i.is_element
        ),
    ),
    "hardwired step_signals": (
        "hardwired", hardwired_controller, "step_signals",
        lambda: _always_last_data(hardwired_controller.step_signals),
    ),
}


@pytest.mark.parametrize("patch", sorted(BLOCK_PATCHES))
def test_block_patched_between_builds_changes_next_stream(
    monkeypatch, patch
):
    architecture, owner, name, patched = BLOCK_PATCHES[patch]
    test = library.get("March C")
    build = ARCHITECTURES[architecture][0]
    before = [e.operation for e in build(test, CAPS).trace()]
    first = run_fault_sweep([test], CAPS, FAULTS)
    assert first.ok and first.checked == len(FAULTS)

    monkeypatch.setattr(owner, name, patched())
    after = [e.operation for e in build(test, CAPS).trace()]
    assert after != before
    second = run_fault_sweep([test], CAPS, FAULTS)
    assert not second.ok
    assert {
        response["architecture"]
        for failure in second.failures
        for response in failure["architectures"]
        if response["status"] != "ok"
    } == {architecture}


def _storage_defect(controller):
    # Row 2 is "w1 addr=up+inc LOOP": DATA_INV stuck at 0 makes it w0.
    controller.storage.inject_storage_defect(2, 3, 0)


def _scan_load(controller):
    image = StorageUnit(rows=controller.storage.rows)
    image.load(assemble(library.get("MATS+"), CAPS).instructions)
    controller.storage.scan_load(image.scan_dump())


def _buffer_reload(controller):
    controller.load(library.get("MATS+"))


def _resynthesise(controller):
    controller.graph = synthesize(library.get("MATS+"), CAPS)


#: Change applied to a March C controller on CAPS between two traces,
#: and the pinned digest of the second trace.  The changes act on the
#: stored program (microcode storage, FSM buffer) or, for the hardwired
#: controller, which stores none, on its synthesised state graph.  A
#: MATS+ program loaded either way traces exactly as a controller built
#: for MATS+.
RELOADS = {
    "microcode storage defect": (
        "microcode", _storage_defect, "620db96f3db4f9e8",
    ),
    "microcode scan load": (
        "microcode", _scan_load, pinned_on_caps("microcode", "MATS+"),
    ),
    "progfsm buffer reload": (
        "progfsm", _buffer_reload, pinned_on_caps("progfsm", "MATS+"),
    ),
    "hardwired new graph": (
        "hardwired", _resynthesise, pinned_on_caps("hardwired", "MATS+"),
    ),
}


@pytest.mark.parametrize("change", sorted(RELOADS))
def test_change_between_traces_shows_in_next_trace(change):
    architecture, apply, pinned = RELOADS[change]
    controller = ARCHITECTURES[architecture][0](library.get("March C"), CAPS)
    assert trace_digest(architecture, controller) == (
        pinned_on_caps(architecture, "March C")
    )
    apply(controller)
    assert trace_digest(architecture, controller) == pinned
