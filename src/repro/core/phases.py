"""The SSAPRE optimization stack as a typed *phase* registry.

:func:`repro.core.optimize_function` used to be a monolith hard-coding
the sequence register promotion → expression PRE (with strength
reduction) → LFTR → DCE.  This module is the decomposed form: each
phase is one :class:`Phase` record — a name, a gate deciding whether a
:class:`~repro.core.config.SpecConfig` enables it, and a runner over
the shared :class:`~repro.core.engine.PREContext`.  The pipeline's pass
manager (:mod:`repro.pipeline.passes`) builds one entry of its pass
table from every phase; ``optimize_function`` itself is a thin loop
over :func:`phases_for`.  Register promotion and expression PRE are
the same SSAPRE round loop over different expression classes
(:func:`promote_loads`, :func:`eliminate_redundant_exprs`).

All phases of one function share **one** ``PREContext`` — strength
reduction's injury records feed LFTR through ``ctx.sr_records``, and
the version cache is shared — so splitting the monolith changes neither
the order nor the results of the optimizations.

Strength reduction is not an independently sequenced transformation: it
is the PRE engine's injury-repair mode, consulted *during* promotion
and expression PRE.  Its phase therefore runs first and merely arms
``ctx.repair_injuries``; dropping the phase (as the fallback ladder's
``no-lftr`` rung does) disarms repair exactly like the old
``strength_reduction=False`` configuration flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, TYPE_CHECKING

from .config import SpecConfig
from .dce import eliminate_dead_code
from .engine import PREContext
from .lftr import replace_linear_tests
from .materialize import run_ssapre_on_class
from .occurrences import collect_expr_classes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import OptStats


@dataclass
class PREStats:
    """What one SSAPRE stage (register promotion or expression PRE) did
    to one function."""

    classes: int = 0
    reloads: int = 0
    checks: int = 0
    insertions: int = 0
    speculated_phis: int = 0
    rounds: int = 0


def _pre_rounds(ctx: PREContext, kind: str, max_rounds: int,
                include_stores: bool,
                allow_data_speculation: bool) -> PREStats:
    """Run SSAPRE over every ``kind`` class, in rounds to a fixpoint
    (bounded by ``max_rounds``).  Rounds iterate bottom-up: once an inner
    expression is promoted to a temporary, enclosing expressions that
    mention it become first-order candidates in the next round (the
    paper's ``A[Anext][0][0]`` chains)."""
    stats = PREStats()
    speculated_before = ctx.speculated_phis
    for _ in range(max_rounds):
        progressed = False
        for ec in collect_expr_classes(ctx.ssa, kind,
                                       include_stores=include_stores):
            mat = run_ssapre_on_class(ctx, ec, allow_data_speculation)
            stats.classes += 1
            stats.reloads += mat.reloads
            stats.checks += mat.checks_emitted
            stats.insertions += mat.insertions
            progressed |= bool(mat.reloads or mat.insertions)
        stats.rounds += 1
        if not progressed:
            break
    stats.speculated_phis = ctx.speculated_phis - speculated_before
    return stats


def promote_loads(ctx: PREContext, max_rounds: int = 4,
                  store_forwarding: bool = True,
                  allow_data_speculation: bool = True) -> PREStats:
    """Speculative register promotion — PRE applied to loads (paper §5).

    Load classes are direct reads of memory-resident scalars and
    indirect loads; with ``store_forwarding`` stores of the same shape
    are left occurrences that define the value.  Data speculation is
    driven entirely by the ``likely`` flags on χ/µ: with no-speculation
    flags the same code performs classical (safe) load PRE."""
    return _pre_rounds(ctx, "load", max_rounds, store_forwarding,
                       allow_data_speculation)


def eliminate_redundant_exprs(ctx: PREContext,
                              max_rounds: int = 4) -> PREStats:
    """Expression PRE (and, with ``ctx.repair_injuries``, strength
    reduction per Kennedy et al. [20]) over arithmetic operations.

    After register promotion, memory reads are temporaries, so operands
    are register values: data speculation does not apply (nothing for
    the ALAT to check); control speculation still does."""
    return _pre_rounds(ctx, "arith", max_rounds, include_stores=False,
                       allow_data_speculation=False)


@dataclass(frozen=True)
class Phase:
    """One SSAPRE optimization phase.

    Attributes:
        name: the registered pass name (kebab-case, e.g.
            ``"register-promotion"``).
        flag: the :class:`SpecConfig` field gating the phase — the pass
            manager uses it to keep a truncated pipeline and its rung
            config consistent.
        run: ``run(ctx, config, stats)`` executes the phase over the
            shared :class:`PREContext`, recording into ``stats``.
    """

    name: str
    flag: str
    run: Callable[[PREContext, SpecConfig, "OptStats"], None]

    def enabled(self, config: SpecConfig) -> bool:
        return bool(getattr(config, self.flag))


def _arm_strength_reduction(ctx: PREContext, config: SpecConfig,
                            stats: "OptStats") -> None:
    ctx.repair_injuries = True


def _run_promotion(ctx: PREContext, config: SpecConfig,
                   stats: "OptStats") -> None:
    stats.promotion = promote_loads(
        ctx,
        max_rounds=config.max_rounds,
        store_forwarding=config.store_forwarding,
        allow_data_speculation=config.data_speculation,
    )


def _run_epre(ctx: PREContext, config: SpecConfig,
              stats: "OptStats") -> None:
    stats.epre = eliminate_redundant_exprs(ctx, max_rounds=config.max_rounds)


def _run_lftr(ctx: PREContext, config: SpecConfig,
              stats: "OptStats") -> None:
    stats.lftr_replacements = replace_linear_tests(ctx)


def _run_dce(ctx: PREContext, config: SpecConfig,
             stats: "OptStats") -> None:
    stats.dce_removed = eliminate_dead_code(ctx.ssa)


#: The full stack, in execution order.
PHASES = (
    Phase("strength-reduction", "strength_reduction",
          _arm_strength_reduction),
    Phase("register-promotion", "register_promotion", _run_promotion),
    Phase("expression-pre", "expression_pre", _run_epre),
    Phase("lftr", "lftr", _run_lftr),
    Phase("dce", "dce", _run_dce),
)

PHASES_BY_NAME = {phase.name: phase for phase in PHASES}


def phases_for(config: SpecConfig) -> List[Phase]:
    """The phases ``config`` enables, in execution order."""
    return [phase for phase in PHASES if phase.enabled(config)]


def make_context(ssa, config: SpecConfig,
                 edge_profile=None) -> PREContext:
    """The shared per-function :class:`PREContext`, exactly as the old
    monolith constructed it (injury repair starts disarmed; the
    ``strength-reduction`` phase arms it before any phase reads it)."""
    return PREContext(
        ssa,
        control_speculation=config.control_speculation,
        edge_profile=edge_profile if config.use_edge_profile else None,
        repair_injuries=False,
        emit_checks=config.emit_checks,
    )
