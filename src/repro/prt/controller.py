"""Behavioural pseudo-ring BIST controller realisation.

The march controllers in :mod:`repro.core` realise march algorithms;
this module realises the pseudo-ring scheme as the minimal engine the
Bodean papers describe: a phase FSM (seed → taps → shift → readout), a
position counter that doubles as the address generator, a seed LFSR, a
carry/feedback register pair and a MISR.  The memory under test is the
ring — the controller holds no per-cell state in hardware; the
``predict`` array below models the *signature-prediction software*
(exactly as :func:`repro.classic.pseudorandom.pseudorandom_test`'s
shadow does), which is what lets every read carry an expected value and
the stream ride the differential fault-conformance machinery.

The FSM is implemented cycle-by-cycle with explicit registers — a
structurally independent second implementation of the session spec, so
:func:`repro.conformance.faulty.check.check_fault_conformance` comparing
it op-for-op against :class:`repro.prt.session.PrtSession`'s nested-loop
expansion is a real differential check, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.area.components import (
    Counter,
    HardwareSpec,
    LfsrRegister,
    LogicBlock,
    Register,
    XorArray,
)
from repro.classic.geometry import check_geometry
from repro.classic.pseudorandom import Lfsr, Misr, lfsr_taps
from repro.conformance.trace import Stream, tabulate
from repro.core.controller import ControllerCapabilities, Flexibility
from repro.core.datapath import PortSequencer, response_comparator_hardware
from repro.march.simulator import MemoryOperation
from repro.prt.session import (
    SEED_LFSR_WIDTH, PrtConfig, ring_address, ring_taps,
)

#: Documented fixed estimate for the phase FSM's next-state/output
#: glue (6 phases, a handful of counter-terminal conditions) — the same
#: convention as the other tiny :class:`LogicBlock` entries.
PHASE_FSM_GE = 30.0

#: FSM phases, in session order.
PHASES = ("seed", "tap", "shift-read", "shift-write", "readout", "done")


def _controller_owner(entry: Tuple, op: MemoryOperation) -> str:
    """Owner text of a controller owner entry ``(port, phase, words,
    order)``; the ring position is read off the op's address."""
    port, phase, n_words, order = entry
    position = ring_address(n_words, order, op.address)
    return f"prt-ctl port {port} {phase} pos {position}"


@dataclass(frozen=True)
class PrtTraceEntry:
    """One controller cycle: the FSM phase and the operation it issued."""

    phase: str
    port: int
    position: int
    op: MemoryOperation


class PrtController:
    """Cycle-stepped pseudo-ring BIST engine for one geometry.

    Duck-compatible with the :func:`repro.eval.experiments` row builder
    (``architecture`` / ``flexibility`` / ``hardware()``); it is *not* a
    :class:`~repro.core.controller.BistController` — there is no loaded
    march test to report.
    """

    architecture = "Pseudo-Ring"
    #: One fixed scheme (seed/pass-count parameters, no algorithm
    #: programmability) — the paper's LOW grade, like the hardwired rows.
    flexibility = Flexibility.LOW

    def __init__(
        self,
        config: PrtConfig,
        capabilities: ControllerCapabilities,
    ) -> None:
        caps = capabilities
        check_geometry(caps.n_words, caps.width, caps.ports)
        self.config = config
        self.capabilities = caps
        self.taps = ring_taps(caps.n_words)
        self.signature: Optional[int] = None

    def _address(self, position: int) -> int:
        if self.config.order == "up":
            return position
        return self.capabilities.n_words - 1 - position

    def trace(self) -> Iterator[PrtTraceEntry]:
        """Step the FSM; one memory operation per yielded cycle.

        Consuming the full trace latches the observed-side-free
        predicted signature into :attr:`signature`.
        """
        cfg = self.config
        caps = self.capabilities
        n = caps.n_words
        mask = (1 << caps.width) - 1
        last_tap = len(self.taps) - 1
        misr = Misr(cfg.misr_width)
        port = 0
        while port < caps.ports:
            fill = Lfsr(SEED_LFSR_WIDTH, cfg.seed)
            predict = [0] * n
            phase = "seed"
            position = 0
            ring_pass = 0
            tap_ptr = 0
            feedback = 0
            carry = 0
            while phase != "done":
                if phase == "seed":
                    word = fill.value(caps.width) & mask
                    predict[position] = word
                    yield PrtTraceEntry(phase, port, position, MemoryOperation(
                        port, self._address(position), True, value=word
                    ))
                    if position == n - 1:
                        phase, position, tap_ptr, feedback = "tap", 0, 0, 0
                    else:
                        position += 1
                elif phase == "tap":
                    tap = self.taps[tap_ptr]
                    yield PrtTraceEntry(phase, port, tap, MemoryOperation(
                        port, self._address(tap), False, expected=predict[tap]
                    ))
                    feedback ^= predict[tap]
                    if tap_ptr == last_tap:
                        phase, position, carry = "shift-read", 0, feedback
                    else:
                        tap_ptr += 1
                elif phase == "shift-read":
                    yield PrtTraceEntry(phase, port, position, MemoryOperation(
                        port, self._address(position), False,
                        expected=predict[position],
                    ))
                    phase = "shift-write"
                elif phase == "shift-write":
                    yield PrtTraceEntry(phase, port, position, MemoryOperation(
                        port, self._address(position), True, value=carry
                    ))
                    outgoing = predict[position]
                    predict[position] = carry
                    carry = outgoing
                    if position == n - 1:
                        ring_pass += 1
                        if ring_pass == cfg.passes:
                            phase, position = "readout", 0
                        else:
                            phase, tap_ptr, feedback = "tap", 0, 0
                    else:
                        position += 1
                        phase = "shift-read"
                else:  # readout
                    expected = predict[position]
                    misr.absorb(expected)
                    yield PrtTraceEntry(phase, port, position, MemoryOperation(
                        port, self._address(position), False,
                        expected=expected,
                    ))
                    if position == n - 1:
                        phase = "done"
                    else:
                        position += 1
            port += 1
        self.signature = misr.signature

    def attributed_stream(self) -> Stream:
        """The controller's stream, attributed to port and FSM phase: one
        ``(port, phase, words, order)`` owner entry per port and phase
        (:func:`_controller_owner`)."""
        n, order = self.capabilities.n_words, self.config.order
        return tabulate(
            ((e.op, (e.port, e.phase, n, order)) for e in self.trace()),
            _controller_owner,
        )

    def hardware(self) -> HardwareSpec:
        """Structural inventory of the pseudo-ring engine.

        No background generator and no program storage: the address
        counter doubles as the ring position sequencer and the memory
        array is the state register — the area story the PRT papers
        sell, checkable against the march controllers in Tables 1/2.
        """
        cfg = self.config
        caps = self.capabilities
        address_bits = max(1, math.ceil(math.log2(max(2, caps.n_words))))
        spec = HardwareSpec(
            name=(
                f"pseudo-ring PRT controller ({caps.n_words} words x "
                f"{caps.width} bits x {caps.ports} ports)"
            ),
            notes=(
                "phase FSM + seed LFSR + carry/feedback pair + MISR; "
                "the memory under test provides the ring stages"
            ),
        )
        spec.add(Register("prt/phase register", 3))
        spec.add(LogicBlock("prt/phase next-state logic", PHASE_FSM_GE))
        spec.add(Counter(
            "prt/position counter", address_bits, up_down=True,
            loadable=True,
        ))
        spec.add(Counter(
            "prt/pass counter", max(1, cfg.passes.bit_length())
        ))
        if len(self.taps) > 1:
            spec.add(Counter(
                "prt/tap pointer",
                max(1, (len(self.taps) - 1).bit_length()),
            ))
        spec.add(LfsrRegister(
            "prt/seed lfsr", SEED_LFSR_WIDTH,
            taps=bin(lfsr_taps(SEED_LFSR_WIDTH)).count("1"),
        ))
        spec.add(Register("prt/carry register", caps.width))
        spec.add(Register("prt/feedback register", caps.width))
        spec.add(XorArray("prt/feedback xor", caps.width))
        spec.add(LfsrRegister(
            "prt/misr", cfg.misr_width,
            taps=bin(lfsr_taps(cfg.misr_width)).count("1"), misr=True,
        ))
        spec.extend(PortSequencer(caps.ports).hardware())
        spec.extend(response_comparator_hardware(caps.width))
        return spec
