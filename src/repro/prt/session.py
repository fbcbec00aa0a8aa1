"""Pseudo-ring testing (PRT) sessions: the golden stimulus expansion.

Bodean et al.'s pseudo-ring schemes ("New Schemes for Self-Testing
RAM"; "Pseudo-Ring Testing Schemes and Algorithms of RAM Built-In and
Embedded Self-Testing") reuse the memory under test *itself* as the
state register of a linear-feedback shift ring: the BIST engine only
needs a seed source, an address sequencer, a feedback XOR and a
signature compactor — the N-word array provides the N ring stages.  One
session has four phases:

1. **ring configuration / seed injection** — every ring position is
   written with a word from the seed LFSR, giving each of the W bit
   columns a pseudorandom, non-degenerate starting state;
2. **circulation passes** — per pass, the feedback word is gathered by
   reading the ring's tap positions (tap sets come from the verified
   maximal-length table of :mod:`repro.classic.pseudorandom` where the
   ring length has an entry), then one read-then-write sweep shifts
   every column one ring position down, injecting the feedback at
   position 0.  Every cell is read *and* rewritten with a
   pattern-dependent neighbour value each pass — a data-dependency
   workload no march element produces;
3. **signature readout** — a final read sweep feeds the MISR.

The whole session is a pure function of (configuration, geometry): the
expected value of every read comes from a shadow ring model, so the
stream is self-checking and rides the existing fault-capture, coverage
and conformance machinery unchanged.  Determinism per seed is fuzz
identity (j) in ``docs/TESTING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.classic.geometry import check_geometry
from repro.classic.pseudorandom import MAX_LFSR_WIDTH, Lfsr, Misr, lfsr_taps
from repro.conformance.trace import Stream, tabulate
from repro.core.controller import ControllerCapabilities
from repro.march.simulator import MemoryOperation

#: Width of the seed-injection LFSR (fixed, like the pseudorandom
#: test's data register: long period regardless of word width).
SEED_LFSR_WIDTH = 16


def ring_taps(n_words: int) -> Tuple[int, ...]:
    """Feedback tap *ring positions* for an ``n_words``-stage ring.

    Ring lengths with a verified maximal-length entry in the LFSR tap
    table use those tap positions (the ring then cycles through a
    maximal state sequence per column, the schemes' ideal); other
    lengths fall back to the two-tap ``{0, N-1}`` ring, which is still
    deterministic and still circulates every cell — only the state
    period is not guaranteed maximal.
    """
    check_geometry(n_words)
    if n_words <= MAX_LFSR_WIDTH:
        mask = lfsr_taps(n_words)
        return tuple(b for b in range(n_words) if (mask >> b) & 1)
    return (0, n_words - 1)


def ring_address(n_words: int, order: str, position: int) -> int:
    """The address of ring ``position`` — and, the map being its own
    inverse, the ring position of address ``position``."""
    return position if order == "up" else n_words - 1 - position


def _session_owner(entry: Tuple, op: MemoryOperation) -> str:
    """Owner text of a session owner entry ``(port, phase, pass, words,
    order)``; the ring position is read off the op's address."""
    port, phase, ring_pass, n_words, order = entry
    pos = ring_address(n_words, order, op.address)
    where = phase if ring_pass is None else f"pass {ring_pass} {phase}"
    head, _, access = where.partition("-")  # "shift-read": "shift", "read"
    return f"port {port} {head} pos {pos} {access}".rstrip()


def _readout_flags(stream: Stream) -> Iterator[bool]:
    """Per op of a PRT stream, whether the readout phase issued it."""
    readout = [entry[1] == "readout" for entry in stream.table]
    return map(readout.__getitem__, stream.owners)


@dataclass(frozen=True)
class PrtConfig:
    """Parameters of one pseudo-ring session (geometry-independent).

    Attributes:
        passes: circulation passes between seed and readout.  The
            default 4 gives a ``10N + 4T`` session — March C's 10N
            budget, for a like-for-like comparison.
        seed: seed-LFSR initial state (non-zero, < 2^16).  The default
            is tuned for coverage: small seeds like 1 start the Galois
            register in a long zero-run, starving the ring of
            transitions.
        order: ring orientation — ``up`` maps ring position k to
            address k, ``down`` to address N-1-k (the address-order
            dual, analogous to march ⇑/⇓).
        misr_width: signature register width.
    """

    passes: int = 4
    seed: int = 0x2D5C
    order: str = "up"
    misr_width: int = 16

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ValueError(f"need at least one pass, got {self.passes}")
        if not 0 < self.seed < (1 << SEED_LFSR_WIDTH):
            raise ValueError(
                f"seed must be a non-zero {SEED_LFSR_WIDTH}-bit value, "
                f"got {self.seed}"
            )
        if self.order not in ("up", "down"):
            raise ValueError(f"order must be 'up' or 'down', got {self.order!r}")
        # Instantiating the registers validates the widths eagerly.
        Lfsr(SEED_LFSR_WIDTH, self.seed)
        Misr(self.misr_width)


class PrtSession:
    """One pseudo-ring test session, expandable per memory geometry.

    Mirrors :class:`~repro.march.test.MarchTest`'s role: the algorithm
    object the conformance and sweep machinery carries around, expanded
    against a :class:`~repro.core.controller.ControllerCapabilities` on
    demand.  ``notation`` is the stable human/store identity (what
    ``format_test`` is to march tests).
    """

    def __init__(self, config: PrtConfig = PrtConfig()) -> None:
        self.config = config

    @property
    def name(self) -> str:
        cfg = self.config
        return f"prt-{cfg.order}-p{cfg.passes}-s{cfg.seed}"

    @property
    def notation(self) -> str:
        cfg = self.config
        return (
            f"PRT(passes={cfg.passes},seed={cfg.seed},order={cfg.order})"
        )

    def __repr__(self) -> str:
        return f"PrtSession({self.notation})"

    def op_count(self, capabilities: ControllerCapabilities) -> int:
        """Session length: ``P·(N + passes·(T + 2N) + N)`` operations."""
        caps = capabilities
        taps = len(ring_taps(caps.n_words))
        per_port = (
            caps.n_words
            + self.config.passes * (taps + 2 * caps.n_words)
            + caps.n_words
        )
        return caps.ports * per_port

    def attributed_stream(
        self, capabilities: ControllerCapabilities
    ) -> Stream:
        """The golden session stream, attributed to port, phase and pass.

        One ``(port, phase, pass, words, order)`` owner entry per phase
        run (:func:`_session_owner`); the phases are those of
        :data:`repro.prt.controller.PHASES`.
        """
        caps = capabilities
        check_geometry(caps.n_words, caps.width, caps.ports)
        return tabulate(self._issue(caps), _session_owner)

    def _issue(self, caps: ControllerCapabilities) -> Iterator[Tuple]:
        """The session's ``(op, owner entry)`` pairs, in stream order."""
        cfg = self.config
        n = caps.n_words
        mask = (1 << caps.width) - 1
        taps = ring_taps(n)

        def address(position: int) -> int:
            return ring_address(n, cfg.order, position)

        def owner(port: int, phase: str, ring_pass: Optional[int] = None):
            return (port, phase, ring_pass, n, cfg.order)

        for port in range(caps.ports):
            fill = Lfsr(SEED_LFSR_WIDTH, cfg.seed)
            shadow = [0] * n
            for pos in range(n):
                value = fill.value(caps.width) & mask
                shadow[pos] = value
                yield MemoryOperation(
                    port, address(pos), True, value=value
                ), owner(port, "seed")
            for ring_pass in range(cfg.passes):
                feedback = 0
                for tap in taps:
                    yield MemoryOperation(
                        port, address(tap), False, expected=shadow[tap]
                    ), owner(port, "tap", ring_pass)
                    feedback ^= shadow[tap]
                carry = feedback
                for pos in range(n):
                    value = shadow[pos]
                    yield MemoryOperation(
                        port, address(pos), False, expected=value
                    ), owner(port, "shift-read", ring_pass)
                    yield MemoryOperation(
                        port, address(pos), True, value=carry
                    ), owner(port, "shift-write", ring_pass)
                    shadow[pos] = carry
                    carry = value
            for pos in range(n):
                yield MemoryOperation(
                    port, address(pos), False, expected=shadow[pos]
                ), owner(port, "readout")

    def operations(
        self, capabilities: ControllerCapabilities
    ) -> Iterator[MemoryOperation]:
        """The raw operation stream (owner attribution stripped)."""
        yield from self.attributed_stream(capabilities).ops

    def predicted_signature(
        self, capabilities: ControllerCapabilities
    ) -> int:
        """The fault-free MISR signature of the readout phase(s)."""
        return self.readout_signature(self.attributed_stream(capabilities))

    def readout_signature(self, stream: Stream) -> int:
        """The MISR signature of ``stream``'s readout expectations — the
        fault-free signature of a stream this session already built."""
        misr = Misr(self.config.misr_width)
        for op, readout in zip(stream.ops, _readout_flags(stream)):
            if readout:
                misr.absorb(op.expected)
        return misr.signature

    def signatures(
        self, memory, capabilities: ControllerCapabilities
    ) -> Tuple[int, int]:
        """Run the session on ``memory``: (predicted, observed) signatures.

        The BIST verdict of a signature-checked realisation — a mismatch
        is the fail flag.  The predicted side absorbs the shadow-model
        readout expectations, the observed side the memory's responses.
        """
        predicted = Misr(self.config.misr_width)
        observed = Misr(self.config.misr_width)
        stream = self.attributed_stream(capabilities)
        for op, readout in zip(stream.ops, _readout_flags(stream)):
            if op.is_write:
                memory.write(op.port, op.address, op.value)
                continue
            response = memory.read(op.port, op.address)
            if readout:
                predicted.absorb(op.expected)
                observed.absorb(response)
        return predicted.signature, observed.signature
