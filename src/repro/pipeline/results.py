"""Result records and comparison helpers for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core import OptStats, SpecConfig
from ..target import MachineStats, MProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir import Module
    from ..profiling import AliasProfile, EdgeProfile
    from .passes.analysis import AnalysisManager
    from .passes.timing import PassTrace


@dataclass
class Diagnostic:
    """One recorded pipeline incident (a crash, verifier failure or
    degraded resource) that the pass manager absorbed instead of
    raising."""

    stage: str                      # e.g. "optimize", "train-run", "codegen"
    function: Optional[str]         # affected function, None = whole module
    error: str                      # what went wrong (one line)
    action: str                     # what the manager did about it

    def __str__(self) -> str:
        where = self.function or "<module>"
        return f"[{self.stage}] {where}: {self.error} -> {self.action}"


@dataclass
class CompileResult:
    """Everything the pipeline produced before simulation."""

    original: "Module"
    optimized: "Module"
    program: MProgram
    config: SpecConfig
    opt_stats: Dict[str, OptStats]
    alias_profile: Optional["AliasProfile"] = None
    edge_profile: Optional["EdgeProfile"] = None
    #: incidents the fail-safe guards absorbed (empty on a clean build)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: functions that did not get the configured optimization level,
    #: mapped to the ladder rung (or "unoptimized") they ended up on
    degraded: Dict[str, str] = field(default_factory=dict)
    #: per-pass wall-time + IR-delta records (``--time-passes``)
    pass_trace: Optional["PassTrace"] = None
    #: the analysis cache used (hit/miss counters live here)
    analyses: Optional["AnalysisManager"] = None


class OutputMismatch(AssertionError):
    """The simulated program's output diverged from the reference
    interpreter's.  Subclasses ``AssertionError`` so existing
    ``pytest.raises(AssertionError)`` / bare-assert callers keep
    working, but carries both transcripts and renders a readable diff."""

    def __init__(self, expected: List[str], actual: List[str]) -> None:
        self.expected = expected
        self.actual = actual
        super().__init__(self.diff())

    def diff(self, context: int = 3) -> str:
        """First divergence plus a few lines of surrounding context."""
        want, got = self.expected, self.actual
        n = max(len(want), len(got))
        first = next((i for i in range(n)
                      if (want[i] if i < len(want) else None)
                      != (got[i] if i < len(got) else None)), n)
        lines = [f"simulated output diverged from the reference at line "
                 f"{first} (expected {len(want)} lines, got {len(got)})"]
        for i in range(max(0, first - context),
                       min(n, first + context + 1)):
            w = want[i] if i < len(want) else "<missing>"
            g = got[i] if i < len(got) else "<missing>"
            marker = "!" if w != g else " "
            lines.append(f" {marker} {i:4d}  expected {w!r:24}  got {g!r}")
        return "\n".join(lines)


@dataclass
class RunResult:
    """One compiled-and-simulated execution."""

    config: SpecConfig
    stats: MachineStats
    output: List[str]
    expected: Optional[List[str]] = None
    opt_stats: Dict[str, OptStats] = field(default_factory=dict)
    program: Optional[MProgram] = None
    #: fail-safe incidents the driver absorbed while compiling
    diagnostics: List = field(default_factory=list)
    #: function name → ladder rung it degraded to ("unoptimized" worst)
    degraded: Dict[str, str] = field(default_factory=dict)
    #: per-pass wall-time + IR-delta records from compilation
    pass_trace: Optional["PassTrace"] = None


@dataclass
class Comparison:
    """Speculative vs. base — the paper's Figure 10/11 row for one
    benchmark."""

    name: str
    base: RunResult
    spec: RunResult

    @property
    def load_reduction(self) -> float:
        """Fraction of memory-accessing loads removed (Figure 10)."""
        base_loads = self.base.stats.memory_loads
        if base_loads == 0:
            return 0.0
        return 1.0 - self.spec.stats.memory_loads / base_loads

    @property
    def speedup(self) -> float:
        """Execution-time speedup over the base (Figure 10): fraction of
        cycles saved."""
        if self.base.stats.cycles == 0:
            return 0.0
        return 1.0 - self.spec.stats.cycles / self.base.stats.cycles

    @property
    def data_access_reduction(self) -> float:
        """Reduction in data-access (load stall) cycles (Figure 10)."""
        base = self.base.stats.data_access_cycles
        if base == 0:
            return 0.0
        return 1.0 - self.spec.stats.data_access_cycles / base

    @property
    def check_ratio(self) -> float:
        """Dynamic check loads / loads retired in the speculative build
        (Figure 11)."""
        return self.spec.stats.check_ratio

    @property
    def misspeculation_ratio(self) -> float:
        """Failed checks / executed checks (Figure 11)."""
        return self.spec.stats.misspeculation_ratio

    def row(self) -> Dict[str, float]:
        return {
            "benchmark": self.name,
            "load_reduction_%": 100.0 * self.load_reduction,
            "speedup_%": 100.0 * self.speedup,
            "data_access_reduction_%": 100.0 * self.data_access_reduction,
            "check_ratio_%": 100.0 * self.check_ratio,
            "misspec_ratio_%": 100.0 * self.misspeculation_ratio,
        }


def format_table(rows: List[Dict[str, object]], title: str = "") -> str:
    """Render rows as a fixed-width text table (the harness output)."""
    if not rows:
        return title
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(_fmt(r[h])) for r in rows))
        for h in headers
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for r in rows:
        lines.append("  ".join(_fmt(r[h]).ljust(widths[h])
                               for h in headers))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
