"""March-test → microcode assembler.

Translation scheme (one microcode row per march operation):

* every operation of an element becomes one instruction carrying the
  element's traversal-order bit; the element's final operation also sets
  ``ADDR_INC`` and the ``LOOP`` condition, which implements the
  per-address sweep through the branch register;
* a retention :class:`~repro.march.element.Pause` becomes a ``HOLD``
  instruction (pause durations must be powers of two — the pause timer
  is a 2^k counter);
* when the algorithm is symmetric and ``compress`` is enabled, the
  mirrored half is dropped and replaced by a single ``REPEAT``
  instruction whose field bits carry the auxiliary complements
  (:class:`repro.march.properties.AuxComplement`) — this reproduces the
  paper's 9-instruction March C program of Fig. 2 exactly;
* the program tail implements the capability loops: ``NEXT_BG`` when the
  controller supports word-oriented memories, ``INC_PORT`` when it
  supports multiport memories, a plain ``TERMINATE`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.controller import ControllerCapabilities
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp, MAX_HOLD_EXPONENT
from repro.march.element import AddressOrder, MarchElement, Pause
from repro.march.properties import AuxComplement, SymmetricSplit, symmetric_split
from repro.march.test import MarchItem, MarchTest


class AssemblyError(ValueError):
    """Raised when a march test cannot be encoded as microcode."""


@dataclass
class MicrocodeProgram:
    """An assembled microcode program plus provenance metadata.

    Attributes:
        name: source algorithm name.
        instructions: the microcode rows, in storage order.
        source: the march test the program realises.
        compressed: True when REPEAT compression was applied.
        split: the symmetric decomposition used (when compressed).
    """

    name: str
    instructions: List[MicroInstruction]
    source: MarchTest
    compressed: bool = False
    split: Optional[SymmetricSplit] = None

    def __len__(self) -> int:
        return len(self.instructions)


def _pause_exponent(duration: int, item_index: int) -> int:
    """Exponent k with 2**k == duration; pauses must be powers of two.

    Validated here, at assembly time, so a bad retention pause fails
    with the offending element named instead of surfacing as a cryptic
    instruction-encoding error in the controller.
    """
    if duration <= 0 or duration & (duration - 1):
        raise AssemblyError(
            f"item {item_index} (Del({duration})): pause duration "
            f"{duration} is not a power of two; the HOLD pause timer is "
            "a 2^k counter"
        )
    exponent = duration.bit_length() - 1
    if exponent > MAX_HOLD_EXPONENT:
        raise AssemblyError(
            f"item {item_index} (Del({duration})): pause duration "
            f"{duration} exceeds the HOLD timer's exponent range"
        )
    return exponent


def _element_rows(element: MarchElement) -> List[MicroInstruction]:
    """One instruction per operation; the last loops the address sweep."""
    down = element.order.resolve() is AddressOrder.DOWN
    rows: List[MicroInstruction] = []
    for index, op in enumerate(element.ops):
        last = index == len(element.ops) - 1
        rows.append(
            MicroInstruction(
                addr_inc=last,
                addr_down=down,
                data_inv=op.is_write and op.polarity == 1,
                compare=op.is_read and op.polarity == 1,
                read_en=op.is_read,
                write_en=op.is_write,
                cond=ConditionOp.LOOP if last else ConditionOp.NOP,
            )
        )
    return rows


def _item_rows(item: MarchItem, item_index: int) -> List[MicroInstruction]:
    if isinstance(item, Pause):
        return [
            MicroInstruction(
                cond=ConditionOp.HOLD,
                hold_exponent=_pause_exponent(item.duration, item_index),
            )
        ]
    return _element_rows(item)


def _repeat_row(aux: AuxComplement) -> MicroInstruction:
    return MicroInstruction(
        addr_down=aux.address_order,
        data_inv=aux.data,
        compare=aux.compare,
        cond=ConditionOp.REPEAT,
    )


def _tail_rows(capabilities: ControllerCapabilities) -> List[MicroInstruction]:
    rows: List[MicroInstruction] = []
    if capabilities.word_oriented:
        rows.append(MicroInstruction(data_inc=True, cond=ConditionOp.NEXT_BG))
    if capabilities.multiport:
        rows.append(MicroInstruction(cond=ConditionOp.INC_PORT))
    else:
        rows.append(MicroInstruction(cond=ConditionOp.TERMINATE))
    return rows


def assemble(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    compress: bool = True,
    verify: bool = True,
) -> MicrocodeProgram:
    """Assemble a march test into a microcode program.

    Args:
        test: the algorithm to encode.
        capabilities: target controller configuration; decides which
            loop instructions the program tail needs.
        compress: apply REPEAT compression when the algorithm is
            symmetric with a single-row initialisation prefix (March C,
            March A and their '+'/'++' derivatives all qualify).
        verify: run the static verifier over the finished program and
            raise on error-severity findings.  Disable to inspect a
            program the verifier would reject (``repro lint`` does).

    Raises:
        AssemblyError: for non-power-of-two pause durations (the
            offending item is named in the message).
        VerificationError: when ``verify`` is set and the program fails
            static verification (a subclass of :class:`AssemblyError`).
    """
    split = symmetric_split(test, require_single_op_prefix=True) if compress else None
    rows: List[MicroInstruction] = []
    if split is not None:
        for element in split.prefix:
            rows.extend(_element_rows(element))
        for element in split.body:
            rows.extend(_element_rows(element))
        rows.append(_repeat_row(split.aux))
        suffix_start = len(test.items) - len(split.suffix)
        for offset, item in enumerate(split.suffix):
            rows.extend(_item_rows(item, suffix_start + offset))
    else:
        for item_index, item in enumerate(test.items):
            rows.extend(_item_rows(item, item_index))
    rows.extend(_tail_rows(capabilities))
    program = MicrocodeProgram(
        name=test.name,
        instructions=rows,
        source=test,
        compressed=split is not None,
        split=split,
    )
    if verify:
        from repro.analysis.verifier import verify_program

        verify_program(program, capabilities).raise_on_errors()
    return program
