"""Optimization configuration (the paper's experimental knobs)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..ssa.spec import DEFAULT_STATIC_THRESHOLD, SpecMode


@dataclass(frozen=True)
class SpecConfig:
    """Selects which speculation and which SSAPRE optimizations run.

    The paper's configurations map to:

    * :meth:`base` — O3 + TBAA: classical SSAPRE (register promotion +
      expression PRE) with control speculation, no data speculation.
    * :meth:`profile` — the paper's headline configuration: data
      speculation flagged from a training-run alias profile (§3.2.1),
      control speculation guided by the edge profile.
    * :meth:`heuristic` — data speculation from the three syntax rules of
      §3.2.2 (no profiling at all).
    * :meth:`static` — data speculation from static probabilistic alias
      analysis (``repro.analysis.prob_alias``): profile-free like
      heuristic, but likeliness is a per-site probability in [0, 1]
      thresholded by :attr:`static_threshold` — works cold, with no
      train input at all.
    * :meth:`aggressive` — ignore every may-alias: Figure 12's unsafe
      upper bound (valid only when aliasing never materializes at
      runtime).
    * :meth:`unoptimized` — no PRE at all (for calibration).
    """

    mode: SpecMode = SpecMode.OFF
    control_speculation: bool = True
    use_edge_profile: bool = False
    register_promotion: bool = True
    expression_pre: bool = True
    strength_reduction: bool = True
    lftr: bool = True
    store_forwarding: bool = True
    use_tbaa: bool = True
    #: flow-sensitive µ/χ list refinement (the paper's Figure 4 step 5)
    flow_refine: bool = True
    #: latency-aware list scheduling of the generated code (§5.1 notes
    #: scheduling quality matters for check instructions)
    schedule: bool = True
    #: machine-level scheduling mode: "block" (per-block list
    #: scheduling, the bit-identical baseline) or "superblock"
    #: (profile-guided trace formation + hot-path layout,
    #: docs/scheduling.md); the CLI exposes this as --sched
    scheduler: str = "block"
    #: superblock formation: per-function budget of tail-duplicated
    #: instructions (0 disables tail duplication)
    superblock_tail_budget: int = 24
    #: likeliness threshold for profile flags (§3.1): aliases observed in
    #: fewer than this fraction of a site's executions stay speculative
    likeliness_threshold: float = 0.0
    #: probability cutoff for the static source: a may-alias whose
    #: statically-computed probability reaches this is treated as real
    static_threshold: float = DEFAULT_STATIC_THRESHOLD
    #: interprocedural mod/ref summaries refine call-site µ/χ lists
    #: (a static sharpening ORC's baseline also performs)
    interprocedural_modref: bool = True
    #: which points-to analysis seeds the alias classes:
    #: "steensgaard" (the paper's choice) or "andersen" (inclusion-based)
    pointer_analysis: str = "steensgaard"
    #: False = speculative reloads reuse the register with NO check
    #: instruction (the paper's "manually tuned" §5.1 variant; unsafe
    #: unless the aliasing never materializes on the measured input)
    emit_checks: bool = True
    dce: bool = True
    max_rounds: int = 4
    #: simulator dispatch implementation (:data:`repro.target.ENGINES`):
    #: "predecode" (default) or "classic".
    #: A machine-side knob, not a compiler one — it never changes the
    #: generated code, only how the service simulates it; it rides on
    #: the config so the wire protocol's spec strings can select it
    #: (``resolve_config("profile+classic")``), and ``repr(config)``
    #: is part of every content key.
    engine: str = "predecode"

    @property
    def spec_source(self) -> str:
        """The wire name of the speculation-flag provenance
        (a :class:`repro.ssa.spec.SpecMode` value)."""
        return self.mode.value

    @property
    def needs_alias_profile(self) -> bool:
        return self.mode is SpecMode.PROFILE

    @property
    def needs_train_run(self) -> bool:
        """Does compiling under this config require training inputs?"""
        return self.needs_alias_profile or self.use_edge_profile

    @property
    def data_speculation(self) -> bool:
        return self.mode is not SpecMode.OFF

    @staticmethod
    def unoptimized() -> "SpecConfig":
        return SpecConfig(mode=SpecMode.OFF, control_speculation=False,
                          register_promotion=False, expression_pre=False,
                          strength_reduction=False, lftr=False,
                          store_forwarding=False, dce=False)

    @staticmethod
    def base() -> "SpecConfig":
        return SpecConfig(mode=SpecMode.OFF)

    @staticmethod
    def profile() -> "SpecConfig":
        return SpecConfig(mode=SpecMode.PROFILE, use_edge_profile=True)

    @staticmethod
    def heuristic() -> "SpecConfig":
        return SpecConfig(mode=SpecMode.HEURISTIC)

    @staticmethod
    def static(threshold: float = DEFAULT_STATIC_THRESHOLD) -> "SpecConfig":
        """Cold-start configuration: full data speculation with no
        training run — flags from static probabilistic alias analysis,
        control speculation from static branch heuristics only."""
        return SpecConfig(mode=SpecMode.STATIC, static_threshold=threshold)

    @staticmethod
    def aggressive() -> "SpecConfig":
        # The "manually tuned" upper bound of §5.1/Fig. 12 gets the same
        # edge-profile-guided control speculation as the profile build —
        # it differs only in ignoring aliases without emitting checks.
        return SpecConfig(mode=SpecMode.AGGRESSIVE, use_edge_profile=True)

    def but(self, **changes) -> "SpecConfig":
        """A copy with some fields changed (ablation helper)."""
        return replace(self, **changes)
