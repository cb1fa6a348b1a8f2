"""The hot-trace JIT engine (docs/performance.md, ``pytest -m
trace_engine``).

``run_program(engine="trace")`` layers a Dynamo-style trace JIT on the
predecoded program: arrival counters warm up per block, hot block
sequences are recorded and compiled into fused Python closures, and any
divergence from the recorded path side-exits back to the interpreter
with exact architectural state.  The contract these tests pin is the
same one the classic/predecode pair already honours — bit-identical
output, bit-identical architectural counters (:meth:`arch_dict`),
bit-identical per-function slices — plus the trace engine's own
obligations: the dispatch counters must be populated and deterministic,
the hot threshold must be tunable, side exits must deoptimize
losslessly, and inlined leaf calls must attribute instructions and
cycles to the callee's ``FnStats`` exactly as the interpreter does.

The fault-injection half (``pytest -m faultinject``) reruns the seeded
campaign with every injected simulation on the trace engine: poisoned
speculative loads, ALAT evictions and cache flushes land *inside*
compiled traces, and every run must still match the reference
interpreter bit for bit.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SpecConfig
from repro.pipeline import compile_program
from repro.target import machine_trace, run_program
from repro.workloads import all_workloads, get_workload
from repro.workloads.fuzz import random_program
from repro.workloads.runner import machine_kwargs

pytestmark = pytest.mark.trace_engine

_WORKLOADS = [w.name for w in all_workloads()]


def _compiled(name):
    w = get_workload(name)
    result = compile_program(w.source, SpecConfig.profile(),
                             train_inputs=w.train_inputs)
    return result.program, list(w.ref_inputs)


def _compiled_source(source, config=None, train_inputs=()):
    return compile_program(source, config or SpecConfig.profile(),
                           train_inputs=train_inputs).program


def _run(program, inputs, engine):
    return run_program(program, inputs=inputs, engine=engine,
                       **machine_kwargs())


def _assert_identical(program, inputs):
    """Trace vs classic: output, architectural counters and every
    per-function slice must agree bit for bit."""
    cstats, cout = _run(program, inputs, "classic")
    tstats, tout = _run(program, inputs, "trace")
    assert tout == cout
    assert tstats.arch_dict() == cstats.arch_dict()
    assert set(tstats.fn_stats) == set(cstats.fn_stats)
    for name, cfn in cstats.fn_stats.items():
        assert vars(tstats.fn_stats[name]) == vars(cfn), name
    return tstats


@pytest.mark.parametrize("name", _WORKLOADS)
def test_trace_bit_identical_all_workloads(name):
    program, inputs = _compiled(name)
    _assert_identical(program, inputs)


def test_trace_counters_populated():
    """A simulation-heavy workload must actually leave the interpreter:
    traces compile, the cache hits, and the bulk of the dynamic
    instruction stream retires inside fused closures."""
    program, inputs = _compiled("gzip")
    stats, _ = _run(program, inputs, "trace")
    assert stats.traces_compiled > 0
    assert stats.trace_hits > 0
    assert 0 < stats.trace_dyn_instr <= stats.instructions
    # the headline property of the JIT: most retired instructions ran
    # inside compiled traces, not the predecode loop
    assert stats.trace_dyn_instr / stats.instructions > 0.5


def test_trace_counters_deterministic():
    """Two identical runs agree on everything, dispatch counters
    included — trace recording is driven by arrival counts, not time."""
    program, inputs = _compiled("mcf")
    a, _ = _run(program, inputs, "trace")
    b, _ = _run(program, inputs, "trace")
    assert a.to_dict() == b.to_dict()


def test_hot_threshold_knob(monkeypatch):
    """``HOT_THRESHOLD`` (read at machine construction) tunes warm-up:
    an unreachable threshold keeps every block in the dispatch loop,
    a threshold of 1 compiles at least as many traces as
    the default — and the run stays bit-identical either way."""
    program, inputs = _compiled("art")
    cstats, cout = _run(program, inputs, "classic")
    default_stats, _ = _run(program, inputs, "trace")

    monkeypatch.setattr(machine_trace, "HOT_THRESHOLD", 10 ** 9)
    cold_stats, cold_out = _run(program, inputs, "trace")
    assert cold_out == cout
    assert cold_stats.arch_dict() == cstats.arch_dict()
    assert cold_stats.traces_compiled == 0
    assert cold_stats.trace_hits == 0

    monkeypatch.setattr(machine_trace, "HOT_THRESHOLD", 1)
    eager_stats, eager_out = _run(program, inputs, "trace")
    assert eager_out == cout
    assert eager_stats.arch_dict() == cstats.arch_dict()
    assert eager_stats.traces_compiled >= default_stats.traces_compiled


def test_side_exits_deoptimize_losslessly():
    """A branch that flips direction after warm-up forces side exits
    out of the recorded arm; the deopt must restore exact architectural
    state (pinned by bit-identity with classic)."""
    source = """
    void main() {
      int i; int s;
      s = 0;
      for (i = 0; i < 400; i = i + 1) {
        if (i < 200) { s = s + i; } else { s = s - i; }
      }
      print(s);
    }
    """
    program = _compiled_source(source, SpecConfig.base())
    stats = _assert_identical(program, [])
    assert stats.traces_compiled > 0
    assert stats.side_exits > 0


def test_inlined_leaf_calls_attribute_to_callee():
    """mcf's ``rnd`` is the canonical branch-free leaf: hot traces
    inline it, and the callee's FnStats (instructions *and* cycles)
    must still match the interpreter's call-by-call attribution."""
    program, inputs = _compiled("mcf")
    tstats = _assert_identical(program, inputs)
    assert tstats.trace_dyn_instr > 0
    assert "rnd" in tstats.fn_stats  # the leaf actually exists and ran
    assert tstats.fn_stats["rnd"].instructions > 0


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_fuzz_trace_matches_classic(seed):
    """Hypothesis differential fuzz: on arbitrary generated programs the
    trace engine is bit-identical to classic.  The hot threshold drops
    to 2 so even short-lived fuzz loops compile traces (otherwise the
    property would mostly exercise the warm-up path)."""
    source = random_program(seed, max_stmts=10)
    program = _compiled_source(source)
    old = machine_trace.HOT_THRESHOLD
    machine_trace.HOT_THRESHOLD = 2
    try:
        _assert_identical(program, [])
    finally:
        machine_trace.HOT_THRESHOLD = old


@pytest.mark.faultinject
def test_trace_campaign_210_runs_bit_for_bit():
    """The seeded fault-injection campaign with every injected run on
    the trace engine: poison/storm/chaos perturbations land inside
    compiled traces and every deopt must be lossless — ≥210 runs, zero
    divergence, and the recovery machinery demonstrably fired."""
    from repro.hazards import run_campaign

    report = run_campaign(scenarios=("poison", "storm", "chaos"),
                          seeds=range(7), engine="trace")
    assert len(report.runs) >= 210
    assert report.ok, report.summary()
    assert sum(r.deferred_faults for r in report.runs) > 0
    assert report.total_recoveries > 0
    assert sum(r.check_misses for r in report.runs) > 0


@pytest.mark.faultinject
def test_trace_campaign_matches_predecode_campaign():
    """The engine is invisible to the campaign report: the same seeded
    matrix produces field-for-field identical runs under trace and
    predecode (cycle counts included — injected replays cost the same
    wherever they execute)."""
    from repro.hazards import run_campaign

    kwargs = dict(workload_names=["gzip", "parser"],
                  scenarios=("poison", "storm"), seeds=(0, 1))
    pre = run_campaign(engine="predecode", **kwargs)
    tra = run_campaign(engine="trace", **kwargs)
    assert [vars(r) for r in tra.runs] == [vars(r) for r in pre.runs]
    assert tra.degraded == pre.degraded
