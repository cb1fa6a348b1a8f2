"""The pass table: :data:`PASS_REGISTRY` maps every pipeline pass name
to a plain function ``run(state)``.

A pass is one named, instrumented unit of pipeline work.  It operates
on the state of the stage that runs it — the
:class:`~repro.pipeline.passes.manager.ModuleState` (module passes),
one function's :class:`~repro.pipeline.passes.manager.FunctionState`
(function passes) or the
:class:`~repro.pipeline.passes.manager.MachineState` (machine passes);
the stage also supplies the ``kind`` of its
:class:`~repro.pipeline.passes.timing.PassTiming` records.

The manager looks each pass up **by name when it runs it**, so tests
can inject a deliberately crashing or wrapped pass with
``monkeypatch.setitem(PASS_REGISTRY, "lftr", crashing_lftr)`` and the
fail-safe ladder will see it — the sanctioned seam for fault-injection
into the compiler itself.

The SSAPRE entries are built from the phase table of
:mod:`repro.core.phases`, all sharing the function's single
:class:`PREContext`, so the pipeline runs *exactly* the sequence
:func:`repro.core.optimize_function` runs, individually timed and
individually droppable by the fallback ladder.

``verify-ssa`` resolves :func:`repro.ssa.verify_ssa` **through the
driver module at call time**: ``repro.pipeline.driver.verify_ssa`` has
always been the test suite's seam for injecting verifier failures, and
late binding keeps that seam working.
"""

from __future__ import annotations

from typing import Callable, Dict

from ...analysis import DominatorTree
from ...core import PHASES
from ...ir import split_module_critical_edges, verify_module
from ...ssa import (FlowSensitivePointsTo, SpecMode, build_ssa, flagger_for,
                    lower_function, lower_module)
from ...target import compile_module, schedule_function, verify_program


# ---------------------------------------------------------------------------
# Module passes
# ---------------------------------------------------------------------------


def split_critical_edges(state) -> None:
    """Split critical edges module-wide (required before speculative
    code motion can place Φ-operand computations on edges)."""
    split_module_critical_edges(state.module)


def lower_out_of_ssa(state) -> None:
    """Out-of-SSA: replace every successfully optimized function with
    its lowered body (functions missing from ``ssa_functions`` keep
    their original body — the fallback ladder's bottom rung)."""
    state.optimized = lower_module(state.module, state.ssa_functions)


def verify_current_module(state) -> None:
    """Re-verify the current module (the fail-safe guard after
    lowering)."""
    verify_module(state.current_module)


# ---------------------------------------------------------------------------
# Function passes
# ---------------------------------------------------------------------------


def build_speculative_ssa(state) -> None:
    """Build the (speculative) HSSA form of the function.

    Per-function analyses — alias info, dominance, flow-sensitive
    points-to, static alias probabilities — come from the
    :class:`AnalysisManager`, so a fallback-ladder retry rebuilds SSA
    *without* recomputing them."""
    config = state.config
    fn = state.fn
    analyses = state.analyses
    classifier = state.classifier
    module_id = id(state.module)
    info = analyses.get(
        "alias-info", (id(classifier), fn.name),
        lambda: classifier.analyze_function(fn))
    dom = analyses.get(
        "dominance", (module_id, fn.name), lambda: DominatorTree(fn))
    refinement = None
    if config.flow_refine:
        refinement = analyses.get(
            "flow-points-to", (module_id, fn.name),
            lambda: FlowSensitivePointsTo(fn))
    prob_info_for = None
    if config.mode is SpecMode.STATIC:
        from ...analysis.prob_alias import compute_prob_alias

        prob_info_for = lambda f: analyses.get(
            "prob-alias", (module_id, f.name),
            lambda: compute_prob_alias(f, dom if f is fn else None))
    flagger = flagger_for(config.mode, state.alias_profile,
                          config.likeliness_threshold,
                          static_threshold=config.static_threshold,
                          prob_info_for=prob_info_for)
    state.ssa = build_ssa(state.module, fn, classifier,
                          flagger=flagger, refinement=refinement,
                          info=info, dom=dom)


def _phase_pass(phase) -> Callable[[object], None]:
    """The pass running one :class:`repro.core.Phase` over the
    function's shared :class:`PREContext`."""

    def run(state) -> None:
        phase.run(state.ensure_ctx(), state.config, state.stats)

    return run


def verify_optimized_ssa(state) -> None:
    """Re-verify the optimized SSA (the fail-safe guard after the
    SSAPRE phases)."""
    from .. import driver

    driver.verify_ssa(state.ssa)


def trial_lower(state) -> None:
    """Trial out-of-SSA lowering: the conversion must not crash before
    the function is accepted (its result is discarded; the real
    lowering is the ``lower-module`` pass)."""
    lower_function(state.ssa)


# ---------------------------------------------------------------------------
# Machine passes
# ---------------------------------------------------------------------------


def codegen(state) -> None:
    """Generate IA-64-flavoured machine code from the optimized
    module."""
    state.program = compile_module(state.optimized)


def schedule(state) -> None:
    """Latency-aware list scheduling of one machine function
    (``state.mfn``)."""
    schedule_function(state.mfn)


def superblock_form(state) -> None:
    """Grow profile-guided superblocks (mutual-most-likely traces with
    bounded tail duplication) over one machine function; the partition
    lands on ``state.traces`` for the schedule/layout passes
    (docs/scheduling.md)."""
    from ...target.superblock import form_superblocks

    state.traces = form_superblocks(
        state.mfn, state.edge_profile,
        tail_budget=state.config.superblock_tail_budget)


def superblock_schedule(state) -> None:
    """Profile-weighted trace scheduling of one machine function's
    superblocks: priority = static height × block weight, speculative
    loads may hoist above side exits (docs/scheduling.md)."""
    from ...target.superblock import schedule_superblocks

    schedule_superblocks(state.mfn, state.traces)


def superblock_layout(state) -> None:
    """Hot-path code layout: order one machine function's traces so hot
    successors fall through (only *taken* transfers pay the machine's
    ``branch_penalty``)."""
    from ...target.superblock import layout_function

    layout_function(state.mfn, state.traces, state.edge_profile)


def verify_machine(state) -> None:
    """Machine-level verification of the whole program (the fail-safe
    guard after codegen/scheduling)."""
    verify_program(state.program)


#: pass name → ``run(state)``
PASS_REGISTRY: Dict[str, Callable[[object], None]] = {
    "split-critical-edges": split_critical_edges,
    "lower-module": lower_out_of_ssa,
    "verify-module": verify_current_module,
    "build-ssa": build_speculative_ssa,
    **{phase.name: _phase_pass(phase) for phase in PHASES},
    "verify-ssa": verify_optimized_ssa,
    "lower-ssa": trial_lower,
    "codegen": codegen,
    "schedule": schedule,
    "superblock-form": superblock_form,
    "superblock-schedule": superblock_schedule,
    "superblock-layout": superblock_layout,
    "verify-machine": verify_machine,
}
