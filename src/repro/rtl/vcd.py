"""VCD (Value Change Dump) export of controller execution traces.

Writes the cycle-accurate traces of the BIST controllers as standard
IEEE 1364 VCD, so a hardware engineer can inspect BIST behaviour in
GTKWave next to real RTL simulations.  The exporter is generic — a list
of per-cycle sample dictionaries plus signal widths — with adapters for
the microcode controller trace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Printable identifier characters per the VCD grammar.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifiers(count: int) -> List[str]:
    """Short unique VCD identifiers (!, ", #, ... then two-char codes)."""
    ids: List[str] = []
    index = 0
    while len(ids) < count:
        if index < len(_ID_CHARS):
            ids.append(_ID_CHARS[index])
        else:
            high, low = divmod(index - len(_ID_CHARS), len(_ID_CHARS))
            ids.append(_ID_CHARS[high] + _ID_CHARS[low])
        index += 1
    return ids


def _format_value(value: int, width: int) -> str:
    if width == 1:
        return str(value & 1)
    return "b" + format(value & ((1 << width) - 1), "b") + " "


def samples_to_vcd(
    samples: Sequence[Dict[str, int]],
    widths: Dict[str, int],
    module: str = "bist",
    timescale: str = "1ns",
) -> str:
    """Render per-cycle samples as a VCD document.

    Args:
        samples: one dict per cycle mapping signal name → value; every
            dict must provide every signal in ``widths``.
        widths: signal name → bit width (defines declaration order).
        module: scope name in the VCD hierarchy.
        timescale: VCD timescale declaration.
    """
    names = list(widths)
    ids = dict(zip(names, _identifiers(len(names))))
    lines = [
        "$date repro.rtl.vcd export $end",
        f"$timescale {timescale} $end",
        f"$scope module {module} $end",
    ]
    for name in names:
        width = widths[name]
        lines.append(f"$var wire {width} {ids[name]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    previous: Dict[str, int] = {}
    for time, sample in enumerate(samples):
        changes = []
        for name in names:
            value = sample[name]
            if previous.get(name) != value:
                identifier = ids[name]
                changes.append(
                    f"{_format_value(value, widths[name])}{identifier}"
                )
                previous[name] = value
        if changes or time == 0:
            lines.append(f"#{time}")
            lines.extend(changes)
    lines.append(f"#{len(samples)}")
    return "\n".join(lines) + "\n"


def microcode_trace_vcd(controller) -> str:
    """VCD of a full microcode-controller run.

    Signals: instruction counter, issued address/port, the data
    background, the repeat bit and the read/write strobes — the view of
    Fig. 1's datapath an engineer would probe in simulation.
    """
    import math

    caps = controller.capabilities
    widths = {
        "ic": max(1, math.ceil(math.log2(max(2, controller.storage.rows)))),
        "address": max(1, math.ceil(math.log2(max(2, caps.n_words)))),
        "port": max(1, math.ceil(math.log2(max(2, caps.ports)))),
        "background": max(1, caps.width),
        "repeat_bit": 1,
        "read_en": 1,
        "write_en": 1,
        "test_end": 1,
    }
    samples: List[Dict[str, int]] = []
    for entry in controller.trace():
        operation = entry.operation
        samples.append(
            {
                "ic": entry.ic,
                "address": entry.address,
                "port": entry.port,
                "background": entry.background,
                "repeat_bit": int(entry.repeat_bit),
                "read_en": int(bool(operation and operation.is_read)),
                "write_en": int(bool(operation and operation.is_write)),
                "test_end": 0,
            }
        )
    if samples:
        samples.append({**samples[-1], "read_en": 0, "write_en": 0,
                        "test_end": 1})
    return samples_to_vcd(samples, widths, module="microcode_bist")


def parse_vcd_changes(text: str) -> List[Tuple[int, str, int]]:
    """Minimal VCD reader: (time, signal name, value) change events.

    Round-trip helper for the test suite; handles exactly the subset
    :func:`samples_to_vcd` emits.
    """
    names: Dict[str, str] = {}
    changes: List[Tuple[int, str, int]] = []
    time = 0
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("$var"):
            parts = line.split()
            names[parts[3]] = parts[4]
        elif line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b"):
            value_text, identifier = line[1:].split()
            changes.append((time, names[identifier], int(value_text, 2)))
        elif line and line[0] in "01" and not line.startswith("$"):
            identifier = line[1:]
            if identifier in names:
                changes.append((time, names[identifier], int(line[0])))
    return changes
