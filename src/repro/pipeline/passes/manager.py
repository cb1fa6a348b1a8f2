"""The pass manager: declarative pipeline assembly, the fallback
ladder as pipeline truncations, cached analyses, and per-pass
instrumentation.

:class:`PassManager` owns one compilation of one source program:

* the pipeline is assembled **declaratively** from the
  :class:`~repro.core.SpecConfig` — :func:`function_pass_names` maps a
  config to the pass names it enables, and the fallback ladder's rungs
  (:data:`LADDER`) are *truncations* of that sequence (drop the named
  passes, flip the matching config flags) rather than opaque config
  lambdas;
* every pass is a plain function looked up by name in
  :data:`~repro.pipeline.passes.registry.PASS_REGISTRY` when it runs,
  and one instrumented runner (:func:`_timed`) times and measures it
  (statements/loads/stores before and after) into a
  :class:`~repro.pipeline.passes.timing.PassTrace` — the
  ``--time-passes`` report and the machine-readable JSON trace;
* per-function and module-level analyses go through one
  :class:`~repro.pipeline.passes.analysis.AnalysisManager` per compile,
  so a ladder retry rebuilds SSA without recomputing alias info,
  dominance or points-to;
* functions compile in module order; each buffers its outcome — SSA,
  stats, diagnostics, dumps, timings — so the dumps of failed ladder
  rungs are discarded before the manager merges the buffers.

The fail-safe guards (docs/recovery.md) live here: the manager wraps
pass execution, records :class:`~repro.pipeline.results.Diagnostic`
entries for absorbed failures, and walks the ladder.  Passes themselves
stay oblivious.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...analysis import AliasClassifier
from ...core import OptStats, SpecConfig
from ...core.phases import PHASES, PHASES_BY_NAME, make_context
from ...errors import FuelExhausted
from ...ir import Module, verify_module
from ...lang import compile_source
from ...ssa import SpecMode, format_ssa, ssa_counts
from ...target import compile_function
from ..dumps import record_machine, record_module
from ..results import CompileResult, Diagnostic
from .analysis import AnalysisManager
from .registry import PASS_REGISTRY
from .timing import Counts, PassTiming, PassTrace

_MODULE_RUNG = "-"      # rung label for module/machine-scope records


# ---------------------------------------------------------------------------
# Pipeline states (what each pass kind operates on)
# ---------------------------------------------------------------------------


@dataclass
class ModuleState:
    """Module-scope pipeline state."""

    module: Module
    #: successfully optimized functions, in module order
    ssa_functions: List = field(default_factory=list)
    #: the out-of-SSA module (set by ``lower-module``)
    optimized: Optional[Module] = None

    @property
    def current_module(self) -> Module:
        return self.optimized if self.optimized is not None else self.module


@dataclass
class FunctionState:
    """One function's compilation state on one ladder rung."""

    module: Module
    fn: object
    config: SpecConfig
    classifier: AliasClassifier
    analyses: AnalysisManager
    alias_profile: object = None
    edge_profile: object = None
    #: the (speculative) SSA form (set by ``build-ssa``)
    ssa: object = None
    #: the shared PREContext of the SSAPRE phases (lazily created)
    ctx: object = None
    stats: OptStats = field(default_factory=OptStats)

    def ensure_ctx(self):
        """The function's single shared :class:`PREContext` — strength
        reduction's injury records must be visible to LFTR, so all
        SSAPRE phases operate on one context."""
        if self.ctx is None:
            self.ctx = make_context(self.ssa, self.config,
                                    self.edge_profile)
        return self.ctx


@dataclass
class MachineState:
    """Machine-program pipeline state.  ``mfn`` is the current machine
    function while the per-function scheduling passes run;
    ``edge_profile`` and ``config`` feed the superblock passes, and
    ``traces`` carries one function's superblock partition from
    ``superblock-form`` to ``superblock-schedule``/``superblock-layout``."""

    optimized: Module
    config: SpecConfig
    program: object = None
    mfn: object = None
    edge_profile: object = None
    traces: object = None


# ---------------------------------------------------------------------------
# Pipeline assembly: config → pass names; ladder rungs → truncations
# ---------------------------------------------------------------------------


def function_pass_names(config: SpecConfig) -> List[str]:
    """The per-function pass sequence ``config`` enables, in order."""
    names = ["build-ssa"]
    names += [phase.name for phase in PHASES if phase.enabled(config)]
    names += ["verify-ssa", "lower-ssa"]
    return names


@dataclass(frozen=True)
class Rung:
    """One fallback-ladder rung: a pipeline truncation.  ``drop`` names
    SSAPRE passes removed from the pipeline (their config flags are
    flipped to match, keeping pipeline and config consistent);
    ``overrides`` are extra config changes (e.g. disabling
    speculation)."""

    name: str
    drop: Tuple[str, ...] = ()
    overrides: Dict[str, object] = field(default_factory=dict)


#: The fallback ladder (weakest last).  Mirrors the old ``_LADDER``
#: config lambdas exactly, but expressed as pipeline truncations.
LADDER: Tuple[Rung, ...] = (
    Rung("no-lftr", drop=("lftr", "strength-reduction")),
    Rung("no-epre", drop=("lftr", "strength-reduction", "expression-pre")),
    Rung("no-spec", drop=("lftr", "strength-reduction", "expression-pre"),
         overrides={"mode": SpecMode.OFF, "control_speculation": False}),
)


def rung_config(config: SpecConfig, rung: Rung) -> SpecConfig:
    """``config`` with ``rung``'s dropped passes' flags flipped off and
    its overrides applied."""
    changes: Dict[str, object] = {
        PHASES_BY_NAME[name].flag: False for name in rung.drop}
    changes.update(rung.overrides)
    return config.but(**changes)


#: one ladder rung's per-function pipeline: (rung, config, pass names)
Plan = Tuple[str, SpecConfig, List[str]]


def ladder_plans(config: SpecConfig, failsafe: bool = True) -> List[Plan]:
    """The per-function plans to try, strongest first."""
    rungs = [("as-configured", config)]
    if failsafe:
        rungs += [(rung.name, rung_config(config, rung)) for rung in LADDER]
    return [(name, cfg, function_pass_names(cfg)) for name, cfg in rungs]


@dataclass
class FunctionOutcome:
    """Buffered result of one function's ladder walk (merged by the
    manager in module order once the walk has settled on a rung)."""

    name: str
    ssa: object = None
    stats: Optional[OptStats] = None
    rung: str = "as-configured"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    timings: List[PassTiming] = field(default_factory=list)
    dumps: List[Tuple[str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Instrumented pass execution
# ---------------------------------------------------------------------------


def _timed(name: str, kind: str, function: Optional[str], rung: str,
           measure: Callable[[object], Counts], state,
           sink: List[PassTiming]) -> None:
    """Run the pass ``name`` over ``state`` and append its
    :class:`PassTiming` to ``sink``: wall time, and ``measure(state)``
    before and after (a failed run records ``before`` twice, then
    re-raises).  The pass is looked up in :data:`PASS_REGISTRY` here,
    so a monkeypatched entry is what actually runs."""
    run = PASS_REGISTRY[name]
    before = measure(state)
    start = time.perf_counter()
    try:
        run(state)
    except Exception:
        sink.append(PassTiming(name, kind, function, rung,
                               time.perf_counter() - start,
                               before, before, failed=True))
        raise
    sink.append(PassTiming(name, kind, function, rung,
                           time.perf_counter() - start,
                           before, measure(state)))


def _module_counts(state: ModuleState) -> Counts:
    return state.current_module.counts()


def _ssa_counts(state: FunctionState) -> Counts:
    return ssa_counts(state.ssa) if state.ssa is not None else (0, 0, 0)


def _machine_counts(state: MachineState) -> Counts:
    if state.mfn is not None:
        return state.mfn.counts()
    if state.program is not None:
        return state.program.counts()
    return (0, 0, 0)


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class PassManager:
    """Owns one compilation: pipeline assembly, analysis caching,
    fail-safe guards, instrumentation."""

    def __init__(self, config: Optional[SpecConfig] = None, *,
                 failsafe: bool = True, dumps=None,
                 fuel: int = 50_000_000,
                 profile_transform: Optional[Callable] = None) -> None:
        self.config = config or SpecConfig.base()
        self.failsafe = failsafe
        self.dumps = dumps
        self.fuel = fuel
        self.profile_transform = profile_transform
        self.analyses = AnalysisManager()
        self.trace = PassTrace()
        self.diagnostics: List[Diagnostic] = []
        self.degraded: Dict[str, str] = {}

    # ---- entry point -----------------------------------------------------
    def compile(self, source: str,
                train_inputs: Sequence[float] = ()) -> CompileResult:
        """Compile ``source`` end to end (no simulation)."""
        self.analyses = AnalysisManager()
        self.trace = PassTrace()
        self.diagnostics = []
        self.degraded = {}
        records = self.trace.records

        # parse + lower; a parse failure is fatal even in fail-safe mode
        # (there is nothing to fall back to)
        module = compile_source(source)
        verify_module(module)
        record_module(self.dumps, "lowered", module)

        # train runs (profiles are analyses: collected once, cached)
        config, alias_profile, edge_profile = \
            self._collect_profiles(module, train_inputs)

        mstate = ModuleState(module=module)
        _timed("split-critical-edges", "module", None, _MODULE_RUNG,
               _module_counts, mstate, records)

        classifier = self._alias_classifier(module, config)

        # per-function stage: the ladder plans are built once from the
        # (possibly profile-degraded) config and shared by all functions
        plans = ladder_plans(config, self.failsafe)
        outcomes = [self._compile_function(module, fn, plans, classifier,
                                           alias_profile, edge_profile)
                    for fn in module.functions.values()]

        # deterministic merge, in module function order
        opt_stats: Dict[str, OptStats] = {}
        for outcome in outcomes:
            self.diagnostics.extend(outcome.diagnostics)
            self.trace.extend(outcome.timings)
            if outcome.ssa is None:
                self.degraded[outcome.name] = "unoptimized"
                continue
            if outcome.rung != "as-configured":
                self.degraded[outcome.name] = outcome.rung
            if self.dumps is not None:
                self.dumps.extend(outcome.dumps)
            opt_stats[outcome.name] = outcome.stats
            mstate.ssa_functions.append(outcome.ssa)

        # out-of-SSA + module re-verification guard
        _timed("lower-module", "module", None, _MODULE_RUNG,
               _module_counts, mstate, records)
        try:
            _timed("verify-module", "module", None, _MODULE_RUNG,
                   _module_counts, mstate, records)
        except Exception as exc:  # noqa: BLE001 - the guard IS the point
            if not self.failsafe:
                raise
            self.diagnostics.append(Diagnostic(
                "lower", None, f"{type(exc).__name__}: {exc}",
                "discard all optimization; compile original module"))
            for name in module.functions:
                self.degraded[name] = "unoptimized"
            mstate.optimized = module
        optimized = mstate.current_module
        record_module(self.dumps, "optimized", optimized)

        # codegen + scheduling + machine verification guard
        machine = MachineState(optimized=optimized, config=config,
                               edge_profile=edge_profile)
        _timed("codegen", "machine", None, _MODULE_RUNG, _machine_counts,
               machine, records)
        if config.schedule:
            sched_passes = ("superblock-form", "superblock-schedule",
                            "superblock-layout") \
                if config.scheduler == "superblock" else ("schedule",)
            for mfn in machine.program.functions.values():
                machine.mfn = mfn
                machine.traces = None
                try:
                    for pass_name in sched_passes:
                        _timed(pass_name, "machine", mfn.name,
                               _MODULE_RUNG, _machine_counts, machine,
                               records)
                except Exception as exc:  # noqa: BLE001
                    if not self.failsafe:
                        raise
                    self.diagnostics.append(Diagnostic(
                        "schedule", mfn.name,
                        f"{type(exc).__name__}: {exc}",
                        "keep unscheduled code"))
                    machine.program.functions[mfn.name] = compile_function(
                        optimized.functions[mfn.name])
            machine.mfn = None
            machine.traces = None
        try:
            _timed("verify-machine", "machine", None, _MODULE_RUNG,
                   _machine_counts, machine, records)
        except Exception as exc:  # noqa: BLE001
            if not self.failsafe:
                raise
            self.diagnostics.append(Diagnostic(
                "codegen", None, f"{type(exc).__name__}: {exc}",
                "discard all optimization; compile original module"))
            for name in module.functions:
                self.degraded[name] = "unoptimized"
            from ...target import compile_module, verify_program

            machine.program = compile_module(module)
            verify_program(machine.program)  # the original must verify
        record_machine(self.dumps, "machine", machine.program)

        return CompileResult(
            original=module, optimized=optimized, program=machine.program,
            config=config, opt_stats=opt_stats,
            alias_profile=alias_profile, edge_profile=edge_profile,
            diagnostics=self.diagnostics, degraded=self.degraded,
            pass_trace=self.trace, analyses=self.analyses)

    # ---- profiles and module analyses ------------------------------------
    def _collect_profiles(self, module: Module,
                          train_inputs: Sequence[float]):
        """Train runs.  A broken train run only costs the profiles: the
        manager degrades to profile-free configurations and keeps
        compiling (unless ``failsafe=False``).  The profilers are looked
        up through the driver module at call time, so its globals stay
        usable as test seams."""
        from .. import driver

        config = self.config
        alias_profile = None
        edge_profile = None
        scope = (id(module), tuple(train_inputs), self.fuel)
        if config.needs_alias_profile:
            try:
                alias_profile = self.analyses.get(
                    "alias-profile", scope,
                    lambda: driver.collect_alias_profile(
                        module, fuel=self.fuel, inputs=train_inputs))
            except FuelExhausted as exc:
                if not self.failsafe:
                    raise
                self.diagnostics.append(Diagnostic(
                    "train-run", exc.function, str(exc),
                    "no alias profile; data speculation disabled"))
                config = config.but(mode=SpecMode.OFF)
        if alias_profile is not None and self.profile_transform is not None:
            alias_profile = self.profile_transform(alias_profile)
        if config.use_edge_profile:
            try:
                edge_profile = self.analyses.get(
                    "edge-profile", scope,
                    lambda: driver.collect_edge_profile(
                        module, fuel=self.fuel, inputs=train_inputs))
            except FuelExhausted as exc:
                if not self.failsafe:
                    raise
                self.diagnostics.append(Diagnostic(
                    "train-run", exc.function, str(exc),
                    "no edge profile; static speculation heights"))
                config = config.but(use_edge_profile=False)
        return config, alias_profile, edge_profile

    def _alias_classifier(self, module: Module,
                          config: SpecConfig) -> AliasClassifier:
        def compute() -> AliasClassifier:
            modref = None
            if config.interprocedural_modref:
                from ...analysis import compute_modref

                modref = self.analyses.get("modref", id(module),
                                           lambda: compute_modref(module))
            points_to = None
            if config.pointer_analysis == "andersen":
                from ...analysis.andersen import Andersen

                points_to = Andersen(module)
            return AliasClassifier(module, steensgaard=points_to,
                                   use_tbaa=config.use_tbaa, modref=modref)

        return self.analyses.get(
            "alias-classifier",
            (id(module), config.use_tbaa, config.interprocedural_modref,
             config.pointer_analysis),
            compute)

    # ---- per-function stage ----------------------------------------------
    def _compile_function(self, module, fn, plans, classifier,
                          alias_profile, edge_profile) -> FunctionOutcome:
        """Walk ``fn`` down the ladder plans until one succeeds.  All
        output (dumps, diagnostics, timings) is buffered on the outcome;
        dumps of failed rungs are discarded."""
        outcome = FunctionOutcome(fn.name)
        want_dumps = self.dumps is not None
        for index, (rung, config, names) in enumerate(plans):
            fstate = FunctionState(
                module=module, fn=fn, config=config,
                classifier=classifier, analyses=self.analyses,
                alias_profile=alias_profile, edge_profile=edge_profile)
            rung_dumps: List[Tuple[str, str]] = []
            try:
                for name in names:
                    _timed(name, "function", fn.name, rung, _ssa_counts,
                           fstate, outcome.timings)
                    if want_dumps and name == "build-ssa":
                        # snapshot taken BEFORE any optimization runs
                        rung_dumps.append((f"speculative-ssa {fn.name}",
                                           format_ssa(fstate.ssa)))
                if want_dumps:
                    rung_dumps.append((f"after-ssapre {fn.name}",
                                       format_ssa(fstate.ssa)))
            except Exception as exc:  # noqa: BLE001 - the guard IS the point
                if not self.failsafe:
                    raise
                next_rung = plans[index + 1][0] \
                    if index + 1 < len(plans) else None
                outcome.diagnostics.append(Diagnostic(
                    "optimize", fn.name,
                    f"{type(exc).__name__}: {exc} (at {rung!r})",
                    f"retry at ladder rung {next_rung!r}"
                    if next_rung is not None
                    else "keep unoptimized original"))
                continue
            outcome.ssa = fstate.ssa
            outcome.stats = fstate.stats
            outcome.rung = rung
            outcome.dumps = rung_dumps
            return outcome
        outcome.rung = "unoptimized"
        return outcome
