"""The paper's core contribution: speculative SSAPRE.

:func:`optimize_function` runs the full SSAPRE-based optimization stack
(register promotion → expression PRE / strength reduction → LFTR → DCE)
over one function already in speculative SSA form.  The stack itself is
decomposed into the typed phase registry of :mod:`repro.core.phases`;
the pipeline's pass manager wraps each phase as a registered pass and
``optimize_function`` is the sequential façade over the same phases.
"""

from dataclasses import dataclass
from typing import Optional

from ..ssa import SSAFunction
from .config import SpecConfig
from .dce import eliminate_dead_code
from .engine import PREContext, SSAPRE
from .lftr import replace_linear_tests
from .materialize import Materializer, run_ssapre_on_class
from .occurrences import (ExprClass, InsertedOcc, LeftOcc, Occurrence,
                          ParentLink, PhiOcc, PhiOpnd, RealOcc,
                          collect_expr_classes, leaf_versions, lexical_key)
from .phases import (PHASES, PHASES_BY_NAME, Phase, PREStats,
                     eliminate_redundant_exprs, make_context, phases_for,
                     promote_loads)

#: both SSAPRE stages report the same statistics
PromotionStats = EPREStats = PREStats


@dataclass
class OptStats:
    """Combined per-function optimization statistics."""

    promotion: Optional[PREStats] = None
    epre: Optional[PREStats] = None
    lftr_replacements: int = 0
    dce_removed: int = 0


def optimize_function(ssa: SSAFunction, config: SpecConfig,
                      edge_profile=None) -> OptStats:
    """Run the configured SSAPRE optimizations on ``ssa`` (in place).

    Sequential façade over the phase registry of
    :mod:`repro.core.phases`: every enabled phase runs in order over one
    shared :class:`PREContext`.  The pipeline's pass manager runs the
    same phases as individual instrumented passes."""
    stats = OptStats()
    ctx = make_context(ssa, config, edge_profile)
    for phase in phases_for(config):
        phase.run(ctx, config, stats)
    return stats


__all__ = [
    "EPREStats", "ExprClass", "InsertedOcc", "LeftOcc", "Materializer",
    "Occurrence", "OptStats", "PHASES", "PHASES_BY_NAME", "PREContext",
    "PREStats", "ParentLink", "Phase", "PhiOcc", "PhiOpnd",
    "PromotionStats", "RealOcc", "SSAPRE", "SpecConfig",
    "collect_expr_classes", "eliminate_dead_code",
    "eliminate_redundant_exprs", "leaf_versions", "lexical_key",
    "make_context", "optimize_function", "phases_for", "promote_loads",
    "replace_linear_tests", "run_ssapre_on_class",
]
