"""First-divergence location between two attributed operation streams."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Dict, Iterable, Optional

from repro.conformance.trace import Stream, format_normalized, normalize

_END = object()


def first_difference(first: Iterable, second: Iterable) -> Optional[int]:
    """Index of the first position where two sequences differ — where
    one ends before the other counts — or ``None`` when they are equal."""
    pairs = zip_longest(first, second, fillvalue=_END)
    for index, (a, b) in enumerate(pairs):
        if a != b:
            return index
    return None


@dataclass(frozen=True)
class Divergence:
    """The first point where a candidate stream departs from the golden.

    Attributes:
        architecture: name of the diverging candidate.
        index: operation index of the first disagreement (the op-stream
            "cycle" — delays count as one op, like everywhere else).
        reference_op / reference_owner: the golden op and its owning
            march item at that index (None/"" past the golden end).
        candidate_op / candidate_owner: the candidate op and its owning
            program row/state (None/"" when the candidate ended early).
    """

    architecture: str
    index: int
    reference_op: Optional[tuple]
    reference_owner: str
    candidate_op: Optional[tuple]
    candidate_owner: str

    @property
    def kind(self) -> str:
        """``mismatch`` | ``missing`` (short stream) | ``extra`` ops."""
        if self.candidate_op is None:
            return "missing"
        if self.reference_op is None:
            return "extra"
        return "mismatch"

    def describe(self) -> str:
        lines = [
            f"{self.architecture} diverges from the golden stream at "
            f"op {self.index} ({self.kind}):"
        ]
        lines.append(
            f"  expected {format_normalized(self.reference_op)}"
            + (f"  <- {self.reference_owner}" if self.reference_owner else "")
        )
        lines.append(
            f"  got      {format_normalized(self.candidate_op)}"
            + (f"  <- {self.candidate_owner}" if self.candidate_owner else "")
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "index": self.index,
            "kind": self.kind,
            "expected": format_normalized(self.reference_op),
            "expected_owner": self.reference_owner,
            "got": format_normalized(self.candidate_op),
            "got_owner": self.candidate_owner,
        }


def first_divergence(
    reference: Stream, candidate: Stream, architecture: str
) -> Optional[Divergence]:
    """Compare two streams op-for-op.

    Returns ``None`` when the candidate reproduces the reference
    exactly (under the normalisation rules of
    :mod:`repro.conformance.trace`), else the first disagreement.
    """
    index = first_difference(
        map(normalize, reference.ops), map(normalize, candidate.ops)
    )
    if index is None:
        return None
    ref, cand = (
        normalize(stream.ops[index]) if index < len(stream) else None
        for stream in (reference, candidate)
    )
    return Divergence(
        architecture, index,
        ref, reference.owner(index), cand, candidate.owner(index),
    )
