"""Per-pass observability: wall time, invocation counts, IR deltas.

Every pass the manager runs produces one :class:`PassTiming` record —
which pass, over which function (``None`` for module/machine scope), on
which fallback-ladder rung, how long it took, and the IR-size triple
``(stmts, loads, stores)`` before and after.  The records accumulate in
a :class:`PassTrace`:

* :meth:`PassTrace.format_table` renders the ``--time-passes`` report
  (aggregated per pass, LLVM-style);
* :meth:`PassTrace.to_json` is the machine-readable trace carried on
  :class:`~repro.pipeline.RunResult` and uploaded as a CI artifact by
  the ``bench_smoke`` tier, so pass wall-time regressions are visible
  PR-over-PR.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: an IR-size measurement: (statements/instructions, loads, stores)
Counts = Tuple[int, int, int]


@dataclass
class PassTiming:
    """One pass invocation."""

    pass_name: str
    kind: str                       # "module" | "function" | "machine"
    function: Optional[str]         # None for module/machine scope
    rung: str                       # fallback-ladder rung ("as-configured"…)
    wall_s: float
    before: Counts
    after: Counts
    #: the invocation raised (the fail-safe guard absorbed it)
    failed: bool = False

    @property
    def delta(self) -> Counts:
        return tuple(a - b for a, b in zip(self.after, self.before))

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "kind": self.kind,
            "function": self.function,
            "rung": self.rung,
            "wall_s": self.wall_s,
            "stmts_before": self.before[0], "stmts_after": self.after[0],
            "loads_before": self.before[1], "loads_after": self.after[1],
            "stores_before": self.before[2], "stores_after": self.after[2],
            "failed": self.failed,
        }


@dataclass
class PassTrace:
    """Ordered collection of pass invocations for one compilation."""

    records: List[PassTiming] = field(default_factory=list)

    def add(self, record: PassTiming) -> None:
        self.records.append(record)

    def extend(self, records: List[PassTiming]) -> None:
        self.records.extend(records)

    # ---- queries ---------------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    def pass_names(self) -> List[str]:
        """Distinct pass names, in first-run order."""
        seen: List[str] = []
        for r in self.records:
            if r.pass_name not in seen:
                seen.append(r.pass_name)
        return seen

    def invocations(self, pass_name: str) -> int:
        return sum(1 for r in self.records if r.pass_name == pass_name)

    def wall_s(self, pass_name: str) -> float:
        return sum(r.wall_s for r in self.records
                   if r.pass_name == pass_name)

    # ---- reports ---------------------------------------------------------
    def format_table(self) -> str:
        """The ``--time-passes`` report: one aggregated row per pass, in
        first-run order, plus a total."""
        total = self.total_wall_s or 1e-12
        header = (f"{'wall(s)':>9}  {'%':>5}  {'runs':>4}  "
                  f"{'Δstmts':>7}  {'Δloads':>7}  {'Δstores':>8}  pass")
        lines = [f"=== pass execution timing report "
                 f"(total {self.total_wall_s:.4f}s, "
                 f"{len(self.records)} invocations) ===", header]
        for name in self.pass_names():
            rows = [r for r in self.records if r.pass_name == name]
            wall = sum(r.wall_s for r in rows)
            deltas = [sum(r.delta[i] for r in rows if not r.failed)
                      for i in range(3)]
            lines.append(
                f"{wall:>9.4f}  {100.0 * wall / total:>5.1f}  "
                f"{len(rows):>4d}  {deltas[0]:>+7d}  {deltas[1]:>+7d}  "
                f"{deltas[2]:>+8d}  {name}")
        return "\n".join(lines)

    def to_json(self, analysis_stats: Optional[Dict[str, object]] = None,
                cache_stats: Optional[Dict[str, object]] = None,
                engine_stats: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        """Machine-readable trace (optionally with the analysis-cache,
        compile-cache counters and the simulator engine merged in)."""
        doc: Dict[str, object] = {
            "total_wall_s": self.total_wall_s,
            "invocations": len(self.records),
            "passes": [r.to_dict() for r in self.records],
        }
        if analysis_stats is not None:
            doc["analyses"] = analysis_stats
        if cache_stats is not None:
            doc["compile_cache"] = cache_stats
        if engine_stats is not None:
            doc["engine"] = engine_stats
        return doc

    def dump_json(self, path: str,
                  analysis_stats: Optional[Dict[str, object]] = None,
                  cache_stats: Optional[Dict[str, object]] = None,
                  engine_stats: Optional[Dict[str, object]] = None
                  ) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(analysis_stats, cache_stats,
                                   engine_stats), f,
                      indent=2)
            f.write("\n")
