"""Diagnostic records produced by the static verifier and lint engine.

A :class:`Diagnostic` is one finding — a rule identifier, a severity, a
source location (microcode instruction index and/or march item/operation
index) and an optional fix hint.  A :class:`DiagnosticReport` collects
the findings for one program and renders them as text or JSON; callers
that must not run a bad program (the assembler, the controllers, the
``repro lint`` CLI) gate on :attr:`DiagnosticReport.has_errors`.

Severity policy, matched to the execution model:

* ``ERROR`` — the program hangs the controller, overflows its storage,
  or needs loop hardware the target capabilities lack; running it is
  unsafe or meaningless.
* ``WARNING`` — the program runs but is suspicious (dead rows, reads
  that fail on a fault-free memory, no explicit terminator).
* ``INFO`` — advisory (missed REPEAT compression, portability notes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.walk import Walk


class Severity(enum.Enum):
    """Lint finding severity, ordered ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Location:
    """Where a finding points.

    Attributes:
        instruction: microcode row index (None for march-level findings).
        item: index into ``MarchTest.items``.
        op: operation index within a march element.
    """

    instruction: Optional[int] = None
    item: Optional[int] = None
    op: Optional[int] = None

    def __str__(self) -> str:
        parts: List[str] = []
        if self.instruction is not None:
            parts.append(f"instr {self.instruction}")
        if self.item is not None:
            parts.append(f"item {self.item}")
        if self.op is not None:
            parts.append(f"op {self.op}")
        return ", ".join(parts) or "program"

    def to_dict(self) -> Dict[str, Optional[int]]:
        return {"instruction": self.instruction, "item": self.item,
                "op": self.op}


#: Location shorthand used by rules that flag the whole program.
PROGRAM = Location()


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    Attributes:
        rule: rule identifier, e.g. ``"MC003"`` (see the catalogue in
            ``docs/ANALYSIS.md``).
        severity: finding severity.
        message: human-readable statement of the problem.
        location: where the finding points.
        hint: optional suggested fix.
    """

    rule: str
    severity: Severity
    message: str
    location: Location = PROGRAM
    hint: Optional[str] = None

    def __str__(self) -> str:
        text = f"{self.severity.value}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
            "hint": self.hint,
        }


@dataclass
class DiagnosticReport:
    """All findings for one program, ordered most severe first.

    Attributes:
        name: program / algorithm name the findings refer to.
        diagnostics: the findings.
        walk: the :class:`~repro.core.walk.Walk` that proved the
            program, when the verifier was given a geometry.
    """

    name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    walk: Optional[Walk] = field(default=None, repr=False, compare=False)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def sorted(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.location.instruction or 0,
                           d.location.item or 0, d.rule),
        )

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def by_rule(self, rule: str) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.rule == rule)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.diagnostics)

    def summary(self) -> str:
        counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return (f"{counts[Severity.ERROR]} error(s), "
                f"{counts[Severity.WARNING]} warning(s), "
                f"{counts[Severity.INFO]} info")

    def format(self) -> str:
        """Multi-line text rendering (the ``repro lint`` output)."""
        lines = [f"{self.name}: {self.summary()}"]
        lines.extend(f"  {diagnostic}" for diagnostic in self.sorted())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def raise_on_errors(self) -> None:
        """Raise :class:`~repro.analysis.verifier.VerificationError` if
        any error-severity finding is present."""
        if self.has_errors:
            from repro.analysis.verifier import VerificationError

            raise VerificationError(self)
