"""End-to-end pipeline façade: source → profiles → speculative SSA →
SSAPRE → machine code → simulation.

The pipeline itself lives in the pass manager
(:mod:`repro.pipeline.passes`, docs/pipeline.md): typed passes
assembled declaratively from the :class:`~repro.core.SpecConfig`,
cached analyses, the fail-safe fallback ladder (docs/recovery.md) as
pipeline truncations, and per-pass timing (``--time-passes``).  This
module keeps the two entry points the rest of the repository — tests,
benchmarks, CLI, fuzzers — calls:

* :func:`compile_program` — compile, no simulation;
* :func:`compile_and_run` — compile, simulate on the ref input, verify
  against the reference interpreter (the correctness oracle).

Several module globals here are deliberate **test seams**, resolved
late by the pass manager so reassigning or monkeypatching them takes
effect: ``collect_alias_profile`` / ``collect_edge_profile`` (profile
injection), ``verify_ssa`` (verifier-failure injection) and
``run_program`` (simulator stubbing).  To inject a failure into an
individual pass, replace its entry in
:data:`repro.pipeline.passes.PASS_REGISTRY` instead.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..core import SpecConfig, optimize_function  # noqa: F401 — re-export
from ..profiling import (collect_alias_profile,  # noqa: F401 — seams
                         collect_edge_profile, run_module)
from ..ssa import verify_ssa  # noqa: F401 — seam (see module docstring)
from ..target import run_program
from .cache import CompileCache, default_cache
from .passes.analysis import AnalysisManager
from .passes.manager import PassManager
from .results import CompileResult, Diagnostic  # noqa: F401 — re-export
from .results import OutputMismatch, RunResult

#: ``cache=None`` means "driver default": no cache in
#: :func:`compile_program`, the process-wide cache in
#: :func:`compile_and_run`.  ``False`` disables, an instance selects.
CacheArg = Union[CompileCache, bool, None]


def _resolve_cache(cache: CacheArg,
                   default: Optional[CompileCache]) -> Optional[CompileCache]:
    if cache is None:
        return default
    if cache is False:
        return None
    if cache is True:
        return default_cache()
    return cache


def compile_program(source: str, config: Optional[SpecConfig] = None,
                    train_inputs: Sequence[float] = (),
                    fuel: int = 50_000_000,
                    dumps=None,
                    profile_transform: Optional[Callable] = None,
                    failsafe: bool = True,
                    analyses: Optional[AnalysisManager] = None,
                    cache: CacheArg = None) -> CompileResult:
    """Compile ``source`` (no simulation).

    Pass a :class:`repro.pipeline.DumpSink` as ``dumps`` to capture
    per-phase snapshots (lowered IR, speculative SSA before/after the
    optimizations, final machine code).  ``profile_transform`` maps the
    collected alias profile before the flagger sees it — the hook the
    fault-injection campaign uses to feed the compiler adversarial
    profiles (:mod:`repro.hazards`).  With ``failsafe`` (the default)
    pass crashes and verifier failures degrade the affected function
    down the fallback ladder and are recorded in
    :attr:`CompileResult.diagnostics`; with ``failsafe=False`` they
    raise.  Pass a shared :class:`~repro.pipeline.passes.AnalysisManager`
    as ``analyses`` to reuse cached analyses across compiles; by default
    each call gets a fresh cache (ladder retries within the compile
    still hit it).

    Pass a :class:`~repro.pipeline.CompileCache` (or ``True`` for the
    process-wide one) as ``cache`` to memoize the whole compile under
    its content key; calls carrying per-call observers (``dumps``,
    ``profile_transform``, a shared ``analyses``) bypass the cache —
    their side effects are the point of the call."""
    config = config or SpecConfig.base()
    if not config.needs_train_run:
        # the no-train-run path: profile-free configs (base, heuristic,
        # static) never run the trainer, and normalizing the inputs here
        # keeps cache keys from fragmenting on irrelevant train data
        train_inputs = ()
    memo = _resolve_cache(cache, default=None)
    key = None
    if memo is not None:
        if (dumps is not None or profile_transform is not None
                or analyses is not None):
            memo.bypasses += 1
            memo = None
        else:
            key = CompileCache.key(source, config, train_inputs, fuel,
                                   failsafe)
            cached = memo.get(key)
            if cached is not None:
                return cached
    manager = PassManager(config, failsafe=failsafe, dumps=dumps, fuel=fuel,
                          profile_transform=profile_transform,
                          analyses=analyses)
    result = manager.compile(source, train_inputs)
    if memo is not None:
        memo.put(key, result)
    return result


def compile_and_run(source: str, config: Optional[SpecConfig] = None,
                    train_inputs: Sequence[float] = (),
                    ref_inputs: Sequence[float] = (),
                    check_output: bool = True,
                    fuel: int = 50_000_000,
                    machine_kwargs: Optional[dict] = None,
                    profile_transform: Optional[Callable] = None,
                    failsafe: bool = True,
                    cache: CacheArg = None) -> RunResult:
    """Full pipeline: compile (profiling on ``train_inputs``), simulate on
    ``ref_inputs``, and — unless disabled — verify the output against the
    reference interpreter.  An oracle divergence raises
    :class:`~repro.pipeline.OutputMismatch` (an ``AssertionError``
    carrying a readable diff).

    Compiles are memoized in the process-wide
    :class:`~repro.pipeline.CompileCache` by default — repeat runs of
    an identical (source, config, train inputs) triple reuse the
    compiled program and only re-simulate.  Pass ``cache=False`` to
    force a fresh compile, or a specific :class:`CompileCache` to use
    it instead."""
    compiled = compile_program(source, config, train_inputs, fuel=fuel,
                               profile_transform=profile_transform,
                               failsafe=failsafe,
                               cache=_resolve_cache(cache, default_cache()))
    stats, output = run_program(compiled.program, inputs=ref_inputs,
                                fuel=4 * fuel,
                                **(machine_kwargs or {}))
    expected: Optional[List[str]] = None
    if check_output:
        expected = run_module(compiled.original, fuel=fuel,
                              inputs=ref_inputs)
        if output != expected:
            raise OutputMismatch(expected, output)
    return RunResult(
        config=compiled.config,
        stats=stats,
        output=output,
        expected=expected,
        opt_stats=compiled.opt_stats,
        program=compiled.program,
        diagnostics=compiled.diagnostics,
        degraded=compiled.degraded,
        pass_trace=compiled.pass_trace,
    )
