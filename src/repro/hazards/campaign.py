"""The differential fault-injection campaign.

For every workload, one prepare step compiles once (optionally through
an adversarial profile transform) and fetches the correctness oracle —
the reference interpreter's output on the *original* program — through
the driver (:func:`repro.pipeline.reference_output`, memoized in the
compile cache).  The campaign then simulates the optimized program
under every ``(scenario, seed)`` perturbation and requires bit-for-bit
output equality.  An injected run may cost extra cycles (replays,
check misses, cold caches); it must never change a single output line.

The campaign is the repository's standing proof of the recovery
tentpole: ``pytest -m faultinject`` runs it seeded and bounded, and the
CLI exposes it as ``python -m repro.cli campaign``.

With ``jobs > 1`` the injected runs fan out over a **process pool**
(simulation is pure Python, so threads would serialize on the GIL).
The pool's initializer hands every worker the prepared ``(program,
expected output, ref inputs)`` of each workload once; workers never
compile and never run the oracle, they only simulate.  Tasks are
distributed and results collected with ``executor.map``, which
preserves submission order, so the report is **bit-for-bit identical**
to ``jobs=1`` regardless of completion order.  ``jobs=1`` keeps the
sequential path (no pool, no pickling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..core import SpecConfig
# perfbench's probe patches compile_program/run_module/run_program here
from ..pipeline import compile_program, reference_output
from ..profiling import run_module  # noqa: F401
from ..target import MachineError, MProgram, run_program
from ..workloads import all_workloads, get_workload, recovery_workloads
from ..workloads.runner import machine_kwargs
from .injector import make_injector


@dataclass
class InjectedRun:
    """One perturbed simulation checked against the oracle."""

    workload: str
    scenario: str
    seed: int
    ok: bool
    cycles: int = 0
    deferred_faults: int = 0
    spec_recoveries: int = 0
    check_misses: int = 0
    replay_loads: int = 0
    error: str = ""


@dataclass
class CampaignReport:
    """All runs of one campaign, plus the per-workload compile notes."""

    runs: List[InjectedRun] = field(default_factory=list)
    degraded: List[str] = field(default_factory=list)
    #: True when the injected runs actually fanned out over the process
    #: pool; False when ``jobs=1`` or the break-even fallback kept the
    #: campaign sequential.  The perf benchmark reports this instead of
    #: letting a sub-1.0 "speedup" imply the pool ran and lost.
    parallel_taken: bool = False

    @property
    def failures(self) -> List[InjectedRun]:
        return [r for r in self.runs if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_recoveries(self) -> int:
        return sum(r.spec_recoveries for r in self.runs)

    def summary(self) -> str:
        lines = [f"campaign: {len(self.runs)} injected runs, "
                 f"{len(self.failures)} mismatches, "
                 f"{sum(r.deferred_faults for r in self.runs)} deferred "
                 f"faults, {self.total_recoveries} chk.s recoveries, "
                 f"{sum(r.check_misses for r in self.runs)} check misses"]
        for r in self.failures:
            lines.append(f"  FAIL {r.workload} scenario={r.scenario} "
                         f"seed={r.seed}: {r.error or 'output mismatch'}")
        if self.degraded:
            lines.append(f"  degraded functions: {', '.join(self.degraded)}")
        return "\n".join(lines)


class _Prepared(NamedTuple):
    """One workload made ready for injection: everything its injected
    runs need, and all a pool worker is ever sent."""

    name: str
    program: MProgram
    expected: List[str]
    ref_inputs: List[float]
    fuel: int
    engine: str


def _prepare(workload, config: SpecConfig,
             profile_transform: Optional[Callable], fuel: int,
             engine: str, report: CampaignReport) -> _Prepared:
    """Compile ``workload`` once, fetch its oracle output through the
    driver, and record its degraded functions in ``report``."""
    compiled = compile_program(workload.source, config,
                               train_inputs=workload.train_inputs,
                               fuel=fuel,
                               profile_transform=profile_transform)
    report.degraded.extend(f"{workload.name}:{fn}"
                           for fn in compiled.degraded)
    expected = reference_output(workload.source, compiled.original,
                                workload.ref_inputs, fuel=fuel)
    return _Prepared(workload.name, compiled.program, expected,
                     list(workload.ref_inputs), fuel, engine)


def _injected_run(prepared: _Prepared, scenario: str,
                  seed: int) -> InjectedRun:
    """Simulate one ``(scenario, seed)`` perturbation and check it
    against the oracle — the single code path both the sequential and
    the parallel campaign execute."""
    injector = make_injector(scenario, seed)
    run = InjectedRun(prepared.name, scenario, seed, ok=False)
    try:
        stats, output = run_program(
            prepared.program, inputs=prepared.ref_inputs,
            fuel=4 * prepared.fuel, injector=injector,
            engine=prepared.engine, **machine_kwargs())
    except MachineError as exc:
        run.error = str(exc)
    else:
        run.ok = output == prepared.expected
        if not run.ok:
            run.error = _first_divergence(prepared.expected, output)
        run.cycles = stats.cycles
        run.deferred_faults = stats.deferred_faults
        run.spec_recoveries = stats.spec_recoveries
        run.check_misses = stats.check_misses
        run.replay_loads = stats.replay_loads
    return run


#: measured break-even for the process-pool fan-out: on boxes with
#: fewer CPUs, or matrices with fewer injected runs, per-task pickling
#: and per-worker start-up dominate and the pool *loses* to serial
#: (BENCH_perf.json recorded jobs=4 at 0.75x of jobs=1 on a low-CPU
#: machine).  ``run_campaign`` silently falls back to the sequential
#: path below either threshold — bit-for-bit identical output either
#: way.
PARALLEL_MIN_CPUS = 4
PARALLEL_MIN_RUNS = 48


def run_campaign(workload_names: Optional[Sequence[str]] = None,
                 config: Optional[SpecConfig] = None,
                 scenarios: Sequence[str] = ("poison", "storm", "chaos"),
                 seeds: Iterable[int] = (0, 1, 2),
                 profile_transform: Optional[Callable] = None,
                 fuel: int = 50_000_000,
                 jobs: int = 1,
                 force_parallel: bool = False,
                 engine: str = "predecode") -> CampaignReport:
    """Run the differential campaign (see module docstring).

    Each workload is compiled and its oracle output fetched **once**
    per campaign, in the calling process; only the simulator re-runs
    per ``(scenario, seed)``, so a 200-run campaign costs a handful of
    compiles, not two hundred.  The report is bit-for-bit identical for
    any ``jobs``, and ``profile_transform`` may be any callable (it
    never crosses a process boundary).

    ``jobs > 1`` only engages the process pool past the measured
    break-even — at least :data:`PARALLEL_MIN_CPUS` CPUs and
    :data:`PARALLEL_MIN_RUNS` injected runs; below it the pool is
    slower than serial and the campaign silently runs sequentially
    (the report is identical either way — and
    :attr:`CampaignReport.parallel_taken` records which path ran).
    ``force_parallel=True`` overrides the fallback — the knob the
    bit-identity tests use to exercise the pool machinery regardless
    of the host.

    ``engine`` selects the simulator dispatch implementation for every
    injected run (:data:`repro.target.ENGINES`); the oracle is always
    the reference interpreter, so ``engine="trace"`` turns the campaign
    into a differential proof that the trace JIT deoptimizes correctly
    under every perturbation.
    """
    workloads = ([get_workload(n) for n in workload_names]
                 if workload_names is not None
                 else all_workloads() + recovery_workloads())
    # Default: data speculation from the alias profile, but *static*
    # control speculation — the edge profile would prove the recovery
    # workloads' guards hot and optimize their ld.s sites away, leaving
    # the poison scenario nothing to poison.
    config = config or SpecConfig.profile().but(use_edge_profile=False)
    scenarios = list(scenarios)
    seeds = list(seeds)
    jobs = max(1, int(jobs))
    report = CampaignReport()
    prepared = [_prepare(workload, config, profile_transform, fuel, engine,
                         report)
                for workload in workloads]
    matrix = [(index, scenario, seed)
              for index in range(len(prepared))
              for scenario in scenarios
              for seed in seeds]
    import os

    past_break_even = ((os.cpu_count() or 1) >= PARALLEL_MIN_CPUS
                       and len(matrix) >= PARALLEL_MIN_RUNS)
    if jobs > 1 and matrix and (past_break_even or force_parallel):
        from concurrent.futures import ProcessPoolExecutor

        report.parallel_taken = True
        # executor.map collects in submission order, so the report
        # cannot depend on completion order
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_init_worker,
                                 initargs=(prepared,)) as pool:
            report.runs.extend(pool.map(_worker_run, matrix, chunksize=1))
    else:
        report.runs.extend(_injected_run(prepared[index], scenario, seed)
                           for index, scenario, seed in matrix)
    return report


#: a pool worker's copy of the prepared workloads, set once by its
#: initializer; each task names one by index
_PREPARED: List[_Prepared] = []


def _init_worker(prepared: List[_Prepared]) -> None:
    _PREPARED[:] = prepared


def _worker_run(task: Tuple[int, str, int]) -> InjectedRun:
    index, scenario, seed = task
    return _injected_run(_PREPARED[index], scenario, seed)


def _first_divergence(expected: List[str], actual: List[str]) -> str:
    for i, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return f"line {i}: expected {want!r}, got {got!r}"
    return (f"length mismatch: expected {len(expected)} lines, "
            f"got {len(actual)}")
