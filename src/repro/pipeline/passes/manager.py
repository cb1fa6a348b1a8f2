"""The pass manager: declarative pipeline assembly, the fallback
ladder as pipeline truncations, cached analyses, and per-pass
instrumentation.

:class:`PassManager` owns one compilation of one source program:

* the pipeline is assembled **declaratively** from the
  :class:`~repro.core.SpecConfig` — :func:`function_pass_names` maps a
  config to the pass sequence it enables, and the fallback ladder's
  rungs (:data:`LADDER`) are *truncations* of that sequence (drop the
  named passes, flip the matching config flags) rather than opaque
  config lambdas;
* per-function and module-level analyses go through one shared
  :class:`~repro.pipeline.passes.analysis.AnalysisManager`, so a
  ladder retry rebuilds SSA without recomputing alias info, dominance
  or points-to, and profiles are collected once;
* functions compile in module order; each buffers its outcome — SSA,
  stats, diagnostics, dumps, timings — so the dumps of failed ladder
  rungs are discarded before the manager merges the buffers;
* every pass invocation is timed and measured (statements/loads/stores
  before and after) into a
  :class:`~repro.pipeline.passes.timing.PassTrace` — the
  ``--time-passes`` report and the machine-readable JSON trace.

The fail-safe guards (docs/recovery.md) live here: the manager wraps
pass execution, records :class:`~repro.pipeline.results.Diagnostic`
entries for absorbed failures, and walks the ladder.  Passes themselves
stay oblivious — and must be **stateless**, because one instance per
plan is shared across every function of the module.
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
from . import adapters  # noqa: F401 — registers the built-in passes
from .analysis import AnalysisManager
from .base import Pass, create_pass
from .timing import PassTiming, PassTrace

_MODULE_RUNG = "-"      # rung label for module/machine-scope records


def _driver():
    """The driver module, late-bound: ``collect_alias_profile``,
    ``collect_edge_profile`` and ``verify_ssa`` are looked up through it
    at call time so its module globals stay usable as test seams."""
    from .. import driver

    return driver


# ---------------------------------------------------------------------------
# Pipeline states (what each pass kind operates on)
# ---------------------------------------------------------------------------


@dataclass
class ModuleState:
    """Module-scope pipeline state."""

    module: Module
    config: SpecConfig
    analyses: AnalysisManager
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
    config: Optional[SpecConfig] = None
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


@dataclass(frozen=True)
class PipelinePlan:
    """An instantiated per-function pipeline for one ladder rung."""

    rung: str
    config: SpecConfig
    passes: Tuple[Pass, ...]


def _plan(rung_name: str, config: SpecConfig) -> PipelinePlan:
    return PipelinePlan(rung_name, config,
                        tuple(create_pass(name)
                              for name in function_pass_names(config)))


def ladder_plans(config: SpecConfig,
                 failsafe: bool = True) -> List[PipelinePlan]:
    """The per-function plans to try, strongest first.  Passes are
    instantiated **by registry name here**, so a monkeypatched
    ``PASS_REGISTRY`` entry is what every rung actually runs."""
    plans = [_plan("as-configured", config)]
    if failsafe:
        plans += [_plan(rung.name, rung_config(config, rung))
                  for rung in LADDER]
    return plans


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
# The manager
# ---------------------------------------------------------------------------


class PassManager:
    """Owns one compilation: pipeline assembly, analysis caching,
    fail-safe guards, instrumentation."""

    def __init__(self, config: Optional[SpecConfig] = None, *,
                 failsafe: bool = True, dumps=None,
                 fuel: int = 50_000_000,
                 profile_transform: Optional[Callable] = None,
                 analyses: Optional[AnalysisManager] = None) -> None:
        self.config = config or SpecConfig.base()
        self.failsafe = failsafe
        self.dumps = dumps
        self.fuel = fuel
        self.profile_transform = profile_transform
        self.analyses = analyses if analyses is not None \
            else AnalysisManager()
        self.trace = PassTrace()
        self.diagnostics: List[Diagnostic] = []
        self.degraded: Dict[str, str] = {}

    # ---- entry point -----------------------------------------------------
    def compile(self, source: str,
                train_inputs: Sequence[float] = ()) -> CompileResult:
        """Compile ``source`` end to end (no simulation)."""
        self.trace = PassTrace()
        self.diagnostics = []
        self.degraded = {}

        # parse + lower; a parse failure is fatal even in fail-safe mode
        # (there is nothing to fall back to)
        module = compile_source(source)
        verify_module(module)
        record_module(self.dumps, "lowered", module)

        # train runs (profiles are analyses: collected once, cached)
        config, alias_profile, edge_profile = \
            self._collect_profiles(module, train_inputs)

        mstate = ModuleState(module=module, config=config,
                             analyses=self.analyses)
        self._run_module_pass("split-critical-edges", mstate)

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
        self._run_module_pass("lower-module", mstate)
        try:
            self._run_module_pass("verify-module", mstate)
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
        self._run_machine_pass("codegen", machine)
        if config.schedule:
            sched_passes = ("superblock-form", "superblock-schedule",
                            "superblock-layout") \
                if config.scheduler == "superblock" else ("schedule",)
            for mfn in machine.program.functions.values():
                machine.mfn = mfn
                machine.traces = None
                try:
                    for pass_name in sched_passes:
                        self._run_machine_pass(pass_name, machine)
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
            self._run_machine_pass("verify-machine", machine)
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
        compiling (unless ``failsafe=False``)."""
        config = self.config
        driver = _driver()
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
        for index, plan in enumerate(plans):
            fstate = FunctionState(
                module=module, fn=fn, config=plan.config,
                classifier=classifier, analyses=self.analyses,
                alias_profile=alias_profile, edge_profile=edge_profile)
            rung_dumps: List[Tuple[str, str]] = []
            try:
                for p in plan.passes:
                    self._run_function_pass(p, fstate, plan.rung,
                                            outcome.timings)
                    if want_dumps and p.name == "build-ssa":
                        # snapshot taken BEFORE any optimization runs
                        rung_dumps.append((f"speculative-ssa {fn.name}",
                                           format_ssa(fstate.ssa)))
                if want_dumps:
                    rung_dumps.append((f"after-ssapre {fn.name}",
                                       format_ssa(fstate.ssa)))
            except Exception as exc:  # noqa: BLE001 - the guard IS the point
                if not self.failsafe:
                    raise
                next_rung = plans[index + 1].rung \
                    if index + 1 < len(plans) else None
                outcome.diagnostics.append(Diagnostic(
                    "optimize", fn.name,
                    f"{type(exc).__name__}: {exc} (at {plan.rung!r})",
                    f"retry at ladder rung {next_rung!r}"
                    if next_rung is not None
                    else "keep unoptimized original"))
                continue
            outcome.ssa = fstate.ssa
            outcome.stats = fstate.stats
            outcome.rung = plan.rung
            outcome.dumps = rung_dumps
            return outcome
        outcome.rung = "unoptimized"
        return outcome

    # ---- instrumented pass execution -------------------------------------
    def _run_function_pass(self, p: Pass, state: FunctionState, rung: str,
                           sink: List[PassTiming]) -> None:
        before = ssa_counts(state.ssa) if state.ssa is not None \
            else (0, 0, 0)
        start = time.perf_counter()
        try:
            p.run(state)
        except Exception:
            sink.append(PassTiming(p.name, p.kind, state.fn.name, rung,
                                   time.perf_counter() - start,
                                   before, before, failed=True))
            raise
        after = ssa_counts(state.ssa) if state.ssa is not None else before
        sink.append(PassTiming(p.name, p.kind, state.fn.name, rung,
                               time.perf_counter() - start, before, after))
        self.analyses.apply_invalidations(p.invalidates)

    def _run_module_pass(self, name: str, state: ModuleState) -> None:
        p = create_pass(name)
        before = state.current_module.counts()
        start = time.perf_counter()
        try:
            p.run(state)
        except Exception:
            self.trace.add(PassTiming(p.name, p.kind, None, _MODULE_RUNG,
                                      time.perf_counter() - start,
                                      before, before, failed=True))
            self.analyses.apply_invalidations(p.invalidates)
            raise
        self.trace.add(PassTiming(p.name, p.kind, None, _MODULE_RUNG,
                                  time.perf_counter() - start, before,
                                  state.current_module.counts()))
        self.analyses.apply_invalidations(p.invalidates)

    def _measure_machine(self, state: MachineState):
        if state.mfn is not None:
            return state.mfn.counts()
        if state.program is not None:
            return state.program.counts()
        return (0, 0, 0)

    def _run_machine_pass(self, name: str, state: MachineState) -> None:
        p = create_pass(name)
        function = state.mfn.name if state.mfn is not None else None
        before = self._measure_machine(state)
        start = time.perf_counter()
        try:
            p.run(state)
        except Exception:
            self.trace.add(PassTiming(p.name, p.kind, function,
                                      _MODULE_RUNG,
                                      time.perf_counter() - start,
                                      before, before, failed=True))
            raise
        self.trace.add(PassTiming(p.name, p.kind, function, _MODULE_RUNG,
                                  time.perf_counter() - start, before,
                                  self._measure_machine(state)))
        self.analyses.apply_invalidations(p.invalidates)
