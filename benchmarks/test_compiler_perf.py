"""The wall-clock perf benchmark (docs/performance.md).

Times the three hot execution paths this repo's figures bottom out in —
simulation, compilation, and the fault-injection campaign — and writes
``BENCH_perf.json`` at the repo root: the perf trajectory CI uploads as
an artifact, one before/after pair per phase measured **in the same
run** so the numbers are comparable:

* **simulate** — every workload through all three machine engines: the
  frozen ``classic`` tree-walking dispatch (the pre-PR baseline), the
  ``predecode`` engine that classifies operands at translation time,
  and the ``trace`` engine — the hot-trace JIT that compiles hot block
  sequences into fused Python closures (docs/performance.md).  Outputs
  and every architectural counter must agree bit-for-bit; the
  simulation-heavy set must show a ≥1.8x predecode-over-classic
  geomean, and the trace engine must add a ≥1.5x geomean over
  predecode (≥3x over classic).
* **compile** — cold pipeline runs versus content-addressed
  :class:`~repro.pipeline.CompileCache` hits.
* **campaign** — the seeded injection matrix sequentially (``jobs=1``)
  and over a 4-worker process pool; the ≥3x scaling bar only applies
  on machines that actually have 4 CPUs, and the report says
  ``parallel_taken: false`` when the break-even fallback kept the
  ``jobs=4`` run sequential (instead of recording a misleading
  sub-1.0 "speedup").

All timings are best-of-N (``REPRO_BENCH_REPS``, default 3) to shed
scheduler noise; throughput is reported as dynamic instructions per
second, the unit the CI regression gate compares against the committed
baseline (``benchmarks/BENCH_perf_baseline.json`` — the gate is
skipped until one is committed).
"""

import json
import math
import os
import time

import pytest

from repro.core import SpecConfig
from repro.hazards import run_campaign
from repro.pipeline import CompileCache, compile_program
from repro.target import run_program
from repro.workloads import all_workloads
from repro.workloads.runner import machine_kwargs

pytestmark = pytest.mark.bench_smoke

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_perf_baseline.json")

REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))

#: workloads whose wall clock is dominated by the simulation loop (the
#: rest spend comparable time in the compile pipeline / oracle)
SIM_HEAVY = ("gzip", "mcf", "twolf", "vpr")

#: the injection matrix the campaign phase times: large enough that the
#: per-worker compile cost amortizes over simulations
CAMPAIGN_SCENARIOS = ("poison", "storm")
CAMPAIGN_SEEDS = tuple(range(6))
CAMPAIGN_JOBS = 4

#: accumulated across the phase tests below (pytest runs them in file
#: order); the final test assembles and writes BENCH_perf.json
REPORT = {"workloads": {}, "campaign": None}


def _best_of(fn, reps=REPS):
    """Best-of-N wall clock: returns (seconds, last result)."""
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_simulate_engine_speedups():
    """Phase 1: classic vs predecode vs trace dispatch, all eight
    workloads.

    The engines must be bit-identical (outputs, architectural stats,
    per-function stats); the pre-decode must buy >=1.8x geomean over
    classic on the simulation-heavy set (no sim-heavy workload below
    1.4x), and the trace JIT must add >=1.5x geomean over predecode
    (>=3x over classic) on the same set — the PR gate."""
    for w in all_workloads():
        compiled = compile_program(w.source, SpecConfig.profile(),
                                   train_inputs=w.train_inputs)
        kwargs = machine_kwargs()
        timings = {}
        for engine in ("classic", "predecode", "trace"):
            secs, (stats, output) = _best_of(
                lambda e=engine: run_program(compiled.program,
                                             inputs=w.ref_inputs,
                                             engine=e, **kwargs))
            timings[engine] = (secs, stats, output)
        classic_s, cstats, cout = timings["classic"]
        predecode_s, pstats, pout = timings["predecode"]
        trace_s, tstats, tout = timings["trace"]
        assert pout == cout == tout, f"{w.name}: engine outputs diverge"
        assert pstats.to_dict() == cstats.to_dict(), \
            f"{w.name}: engine stats diverge"
        assert tstats.arch_dict() == cstats.arch_dict(), \
            f"{w.name}: trace engine architectural stats diverge"
        assert ({k: vars(v) for k, v in pstats.fn_stats.items()}
                == {k: vars(v) for k, v in cstats.fn_stats.items()}
                == {k: vars(v) for k, v in tstats.fn_stats.items()}), \
            f"{w.name}: per-function stats diverge"
        assert tstats.traces_compiled > 0 and tstats.trace_hits > 0, \
            f"{w.name}: trace engine never left the interpreter"
        REPORT["workloads"][w.name] = {"simulate": {
            "classic_s": classic_s,
            "predecode_s": predecode_s,
            "trace_s": trace_s,
            "speedup": classic_s / predecode_s,
            "trace_speedup_vs_predecode": predecode_s / trace_s,
            "trace_speedup_vs_classic": classic_s / trace_s,
            "dyn_instructions": pstats.instructions,
            "classic_dyn_instr_per_s": pstats.instructions / classic_s,
            "predecode_dyn_instr_per_s":
                pstats.instructions / predecode_s,
            "trace_dyn_instr_per_s": pstats.instructions / trace_s,
            "trace_cache": dict(
                tstats.engine_dict(),
                coverage=(tstats.trace_dyn_instr / tstats.instructions
                          if tstats.instructions else 0.0)),
        }}

    speedups = {name: entry["simulate"]["speedup"]
                for name, entry in REPORT["workloads"].items()}
    trace_vs_pre = {name: entry["simulate"]["trace_speedup_vs_predecode"]
                    for name, entry in REPORT["workloads"].items()}
    trace_vs_cls = {name: entry["simulate"]["trace_speedup_vs_classic"]
                    for name, entry in REPORT["workloads"].items()}
    heavy = [speedups[name] for name in SIM_HEAVY]
    heavy_tp = [trace_vs_pre[name] for name in SIM_HEAVY]
    heavy_tc = [trace_vs_cls[name] for name in SIM_HEAVY]
    REPORT["simulate_summary"] = {
        "sim_heavy": list(SIM_HEAVY),
        "sim_heavy_geomean_speedup": _geomean(heavy),
        "all_geomean_speedup": _geomean(list(speedups.values())),
        "trace_sim_heavy_geomean_vs_predecode": _geomean(heavy_tp),
        "trace_sim_heavy_geomean_vs_classic": _geomean(heavy_tc),
        "trace_all_geomean_vs_predecode":
            _geomean(list(trace_vs_pre.values())),
    }
    for name in SIM_HEAVY:
        assert speedups[name] >= 1.4, \
            f"{name}: predecode only {speedups[name]:.2f}x over classic"
    assert _geomean(heavy) >= 1.8, \
        f"sim-heavy geomean {_geomean(heavy):.2f}x < 1.8x"
    assert _geomean(heavy_tp) >= 1.5, \
        f"trace sim-heavy geomean {_geomean(heavy_tp):.2f}x < 1.5x " \
        f"over predecode"
    assert _geomean(heavy_tc) >= 3.0, \
        f"trace sim-heavy geomean {_geomean(heavy_tc):.2f}x < 3x " \
        f"over classic"


def test_compile_cache_speedup():
    """Phase 2: cold pipeline runs vs content-addressed cache hits."""
    for w in all_workloads():
        cold_s, _ = _best_of(
            lambda: compile_program(w.source, SpecConfig.profile(),
                                    train_inputs=w.train_inputs,
                                    cache=False))
        cache = CompileCache()
        compile_program(w.source, SpecConfig.profile(),
                        train_inputs=w.train_inputs, cache=cache)
        cached_s, _ = _best_of(
            lambda: compile_program(w.source, SpecConfig.profile(),
                                    train_inputs=w.train_inputs,
                                    cache=cache))
        assert cache.hits >= REPS
        REPORT["workloads"][w.name]["compile"] = {
            "cold_s": cold_s,
            "cached_s": cached_s,
            "speedup": cold_s / max(cached_s, 1e-9),
        }
        # a hit is a dict lookup; anything under 10x means it recompiled
        assert cold_s / max(cached_s, 1e-9) >= 10.0, w.name


def test_campaign_parallel_scaling():
    """Phase 3: the injection matrix sequentially vs a 4-worker pool.

    Bit-identical reports at any job count is pinned by the faultinject
    tier; here we time it.  The >=3x bar only binds where 4 CPUs exist
    (the 1-CPU CI shard still records both numbers)."""
    names = [w.name for w in all_workloads()]
    kwargs = dict(workload_names=names, scenarios=CAMPAIGN_SCENARIOS,
                  seeds=CAMPAIGN_SEEDS)
    t0 = time.perf_counter()
    seq = run_campaign(jobs=1, **kwargs)
    jobs1_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_campaign(jobs=CAMPAIGN_JOBS, **kwargs)
    jobs4_s = time.perf_counter() - t0
    assert seq.ok, seq.summary()
    assert [vars(r) for r in par.runs] == [vars(r) for r in seq.runs]
    REPORT["campaign"] = {
        "runs": len(seq.runs),
        "scenarios": list(CAMPAIGN_SCENARIOS),
        "seeds": list(CAMPAIGN_SEEDS),
        "jobs1_s": jobs1_s,
        "jobs4_s": jobs4_s,
        "jobs": CAMPAIGN_JOBS,
        # On boxes below the pool's break-even (cpus/runs), run_campaign
        # falls back to the sequential path: report that explicitly
        # instead of a misleading sub-1.0 "speedup" of serial vs serial.
        "parallel_taken": par.parallel_taken,
        "speedup": jobs1_s / jobs4_s if par.parallel_taken else None,
    }
    if par.parallel_taken and (os.cpu_count() or 1) >= CAMPAIGN_JOBS:
        assert jobs1_s / jobs4_s >= 3.0, \
            f"campaign --jobs {CAMPAIGN_JOBS} only " \
            f"{jobs1_s / jobs4_s:.2f}x over sequential"


def test_write_bench_perf_json():
    """Assemble BENCH_perf.json and apply the CI regression gate:
    dynamic-instructions/sec must not drop >25% below the committed
    baseline (skipped until ``benchmarks/BENCH_perf_baseline.json``
    exists)."""
    assert len(REPORT["workloads"]) == len(all_workloads())
    assert all("simulate" in e and "compile" in e
               for e in REPORT["workloads"].values())
    assert REPORT["campaign"] is not None
    throughput = _geomean(
        [e["simulate"]["predecode_dyn_instr_per_s"]
         for e in REPORT["workloads"].values()])
    trace_throughput = _geomean(
        [e["simulate"]["trace_dyn_instr_per_s"]
         for e in REPORT["workloads"].values()])
    # schema 2 (docs/performance.md): adds the trace engine — per
    # workload trace_s / trace_speedup_vs_{predecode,classic} /
    # trace_dyn_instr_per_s / trace_cache counters, the trace geomeans
    # in simulate_summary, trace_geomean_dyn_instr_per_s at top level —
    # and replaces the campaign speedup with null + parallel_taken:
    # false when the break-even fallback kept jobs=4 sequential.
    doc = {
        "schema": 2,
        "best_of": REPS,
        "cpu_count": os.cpu_count(),
        "geomean_dyn_instr_per_s": throughput,
        "trace_geomean_dyn_instr_per_s": trace_throughput,
        "simulate_summary": REPORT["simulate_summary"],
        "campaign": REPORT["campaign"],
        "workloads": REPORT["workloads"],
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    summary = doc["simulate_summary"]
    campaign = REPORT["campaign"]
    campaign_note = (f"{campaign['speedup']:.2f}x"
                     if campaign["parallel_taken"]
                     else "sequential fallback")
    print(f"\nBENCH_perf.json: sim-heavy geomean "
          f"{summary['sim_heavy_geomean_speedup']:.2f}x predecode, "
          f"{summary['trace_sim_heavy_geomean_vs_predecode']:.2f}x "
          f"trace-over-predecode "
          f"({summary['trace_sim_heavy_geomean_vs_classic']:.2f}x "
          f"over classic), campaign jobs={campaign['jobs']} "
          f"{campaign_note}, {throughput:,.0f} predecode / "
          f"{trace_throughput:,.0f} trace dyn instr/s")

    if not os.path.exists(BASELINE_PATH):
        pytest.skip("no committed perf baseline yet — gate not armed")
    with open(BASELINE_PATH) as f:
        baseline = json.load(f)
    floor = 0.75 * baseline["geomean_dyn_instr_per_s"]
    assert throughput >= floor, \
        f"dyn-instr/s regressed >25%: {throughput:,.0f} < " \
        f"75% of baseline {baseline['geomean_dyn_instr_per_s']:,.0f}"
    trace_floor = 0.75 * baseline.get("trace_geomean_dyn_instr_per_s", 0)
    assert trace_throughput >= trace_floor, \
        f"trace dyn-instr/s regressed >25%: {trace_throughput:,.0f} < " \
        f"75% of baseline " \
        f"{baseline['trace_geomean_dyn_instr_per_s']:,.0f}"
