"""Machine counters — the reproduction of the paper's pfmon measurement
surface (see the counters reference table in docs/machine_model.md).

The load accounting splits three ways and the distinction carries every
figure:

* ``loads_retired`` (= ``total_loads``) — all retired load instructions,
  whatever their flavour: the denominator of Figure 11's check ratio.
* ``memory_loads`` — loads that actually went to the memory pipeline:
  plain + advanced + control-speculative loads, plus *failed* checks
  (a check hit never accesses memory).  Figure 10's load reduction is
  computed over these.
* ``redundant_loads`` — loads the speculation eliminated (check hits),
  with ``reuse_fraction`` relating them to all retired loads — the
  machine-level counterpart of Figure 12's load-reuse potential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class FnStats:
    """Per-function slice of the counters (§5.1's smvp numbers are
    per-procedure)."""

    name: str = ""
    instructions: int = 0
    cycles: int = 0
    plain_loads: int = 0
    advanced_loads: int = 0
    spec_loads: int = 0
    check_loads: int = 0
    check_misses: int = 0
    stores: int = 0
    deferred_faults: int = 0
    spec_checks: int = 0
    spec_recoveries: int = 0
    replay_loads: int = 0
    taken_branches: int = 0
    fallthroughs: int = 0

    @property
    def loads_retired(self) -> int:
        return (self.plain_loads + self.advanced_loads + self.spec_loads
                + self.check_loads + self.replay_loads)

    @property
    def memory_loads(self) -> int:
        return (self.plain_loads + self.advanced_loads + self.spec_loads
                + self.check_misses + self.replay_loads)


@dataclass
class MachineStats:
    """Whole-run counters reported by :func:`repro.target.run_program`."""

    cycles: int = 0
    instructions: int = 0
    plain_loads: int = 0
    advanced_loads: int = 0
    spec_loads: int = 0
    check_loads: int = 0
    check_misses: int = 0
    stores: int = 0
    #: stall cycles whose binding producer was a load (Figure 10's
    #: "data access" series)
    data_access_cycles: int = 0
    #: ``ld.s``/``ld.a`` that hit an unmapped (or injector-poisoned)
    #: address and delivered NaT instead of faulting
    deferred_faults: int = 0
    #: executed ``chk.s`` instructions
    spec_checks: int = 0
    #: ``chk.s`` that caught a NaT and entered a recovery block
    spec_recoveries: int = 0
    #: retired ``ld.r`` replay loads (recovery-block re-executions)
    replay_loads: int = 0
    #: control transfers that left the fall-through path (each pays
    #: ``branch_penalty``; the hot-path layout pass minimizes these)
    taken_branches: int = 0
    #: control transfers to the lexically-next block (penalty-free)
    fallthroughs: int = 0
    fn_stats: Dict[str, FnStats] = field(default_factory=dict)

    # Counters of the deleted hot-trace JIT engine (docs/performance.md).
    # No engine sets them; they stay readable as always-0 class
    # attributes (not fields, so not in ``to_dict``) because
    # ``perfbench/tracing.py`` still reads them.
    traces_compiled = 0
    trace_hits = 0
    side_exits = 0
    trace_dyn_instr = 0

    # ---- derived counters ----------------------------------------------
    @property
    def loads_retired(self) -> int:
        return (self.plain_loads + self.advanced_loads + self.spec_loads
                + self.check_loads + self.replay_loads)

    @property
    def total_loads(self) -> int:
        """All retired load instructions (alias of ``loads_retired``)."""
        return self.loads_retired

    @property
    def memory_loads(self) -> int:
        """Loads that reached the memory pipeline (check hits excluded)."""
        return (self.plain_loads + self.advanced_loads + self.spec_loads
                + self.check_misses + self.replay_loads)

    @property
    def redundant_loads(self) -> int:
        """Loads eliminated by speculation: checks that hit the ALAT."""
        return self.check_loads - self.check_misses

    @property
    def reuse_fraction(self) -> float:
        """Fraction of retired loads satisfied without touching memory."""
        if self.loads_retired == 0:
            return 0.0
        return self.redundant_loads / self.loads_retired

    @property
    def check_ratio(self) -> float:
        """Dynamic check loads over retired loads (Figure 11, top)."""
        if self.loads_retired == 0:
            return 0.0
        return self.check_loads / self.loads_retired

    @property
    def misspeculation_ratio(self) -> float:
        """Failed checks over executed checks (Figure 11, bottom)."""
        if self.check_loads == 0:
            return 0.0
        return self.check_misses / self.check_loads

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly counters (the CLI's ``--json`` payload)."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "plain_loads": self.plain_loads,
            "advanced_loads": self.advanced_loads,
            "spec_loads": self.spec_loads,
            "check_loads": self.check_loads,
            "check_misses": self.check_misses,
            "stores": self.stores,
            "loads_retired": self.loads_retired,
            "memory_loads": self.memory_loads,
            "redundant_loads": self.redundant_loads,
            "reuse_fraction": self.reuse_fraction,
            "check_ratio": self.check_ratio,
            "misspeculation_ratio": self.misspeculation_ratio,
            "data_access_cycles": self.data_access_cycles,
            "deferred_faults": self.deferred_faults,
            "spec_checks": self.spec_checks,
            "spec_recoveries": self.spec_recoveries,
            "replay_loads": self.replay_loads,
            "taken_branches": self.taken_branches,
            "fallthroughs": self.fallthroughs,
        }

    def fn(self, name: str) -> FnStats:
        """The (created-on-demand) per-function slice for ``name``."""
        stats = self.fn_stats.get(name)
        if stats is None:
            stats = self.fn_stats[name] = FnStats(name=name)
        return stats
