"""Per-phase compilation dumps (the `-print-after-all` of this compiler).

`DumpSink` collects named textual snapshots of the program as it moves
through the pipeline; `compile_program(..., dumps=sink)` fills it.  The
CLI's ``--dump-ir`` and the examples use it, and it is invaluable when a
differential test shreds a fuzz seed.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple


class DumpSink:
    """Ordered collection of (phase name, text) snapshots."""

    def __init__(self) -> None:
        self._dumps: List[Tuple[str, str]] = []

    def add(self, phase: str, text: str) -> None:
        self._dumps.append((phase, text))

    def extend(self, pairs: List[Tuple[str, str]]) -> None:
        """Append pre-formatted snapshots in order — the pass manager's
        parallel workers buffer their dumps and merge them here in
        module function order."""
        self._dumps.extend(pairs)

    def phases(self) -> List[str]:
        return [name for name, _ in self._dumps]

    def get(self, phase: str) -> str:
        for name, text in self._dumps:
            if name == phase:
                return text
        raise KeyError(phase)

    def format(self) -> str:
        parts = []
        for name, text in self._dumps:
            parts.append(f"==== {name} " + "=" * max(4, 60 - len(name)))
            parts.append(text)
        return "\n".join(parts)

    def write_dir(self, directory: str) -> None:
        """Write each snapshot to ``<directory>/<NN>_<phase>.txt``."""
        os.makedirs(directory, exist_ok=True)
        for index, (name, text) in enumerate(self._dumps):
            safe = name.replace(" ", "_").replace("/", "-")
            path = os.path.join(directory, f"{index:02d}_{safe}.txt")
            with open(path, "w") as f:
                f.write(text + "\n")


def record_module(sink: Optional[DumpSink], phase: str, module) -> None:
    if sink is None:
        return
    from ..ir import format_module

    sink.add(phase, format_module(module))


def record_machine(sink: Optional[DumpSink], phase: str, program) -> None:
    if sink is None:
        return
    sink.add(phase, program.format())
