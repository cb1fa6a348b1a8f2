"""The pass-manager architecture (docs/pipeline.md).

The refactor's contract: the declaratively assembled pipeline is
**bit-identical** to the old hand-rolled driver monolith, parallel
compilation changes nothing, ladder retries hit the analysis cache, and
every pass invocation is observable in the trace.
"""

import json

import pytest

from repro.analysis import AliasClassifier
from repro.core import SpecConfig, optimize_function
from repro.ir import split_module_critical_edges, verify_module
from repro.lang import compile_source
from repro.pipeline import PASS_REGISTRY, PassManager, compile_program
from repro.pipeline.passes import (LADDER, function_pass_names, ladder_plans,
                                   rung_config)
from repro.ssa import build_ssa, flagger_for, lower_function, lower_module
from repro.target import (compile_module, run_program, schedule_function,
                          verify_program)
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# golden equivalence: pass manager ≡ the old monolithic driver
# ---------------------------------------------------------------------------


def _compile_like_the_old_monolith(source, config):
    """The exact pass sequence the pre-pass-manager driver hard-coded
    (profile-free configs, clean path): parse → split critical edges →
    classify aliases → per-function build/optimize/verify/trial-lower →
    out-of-SSA → codegen → schedule."""
    module = compile_source(source)
    verify_module(module)
    split_module_critical_edges(module)
    classifier = AliasClassifier(module, use_tbaa=config.use_tbaa)
    ssa_functions = []
    for fn in module.functions.values():
        flagger = flagger_for(config.mode, None,
                              config.likeliness_threshold)
        ssa = build_ssa(module, fn, classifier, flagger=flagger)
        optimize_function(ssa, config)
        lower_function(ssa)
        ssa_functions.append(ssa)
    optimized = lower_module(module, ssa_functions)
    verify_module(optimized)
    program = compile_module(optimized)
    if config.schedule:
        for mfn in program.functions.values():
            schedule_function(mfn)
    verify_program(program)
    return program


@pytest.mark.parametrize("config", [SpecConfig.base(),
                                    SpecConfig.heuristic()],
                         ids=["base", "heuristic"])
@pytest.mark.parametrize("name", ["mcf", "twolf"])
def test_manager_matches_old_monolith_bit_for_bit(name, config):
    workload = get_workload(name)
    golden = _compile_like_the_old_monolith(workload.source, config)
    compiled = compile_program(workload.source, config)
    assert compiled.degraded == {}
    assert compiled.program.format() == golden.format()
    want_stats, want_out = run_program(golden,
                                       inputs=workload.ref_inputs)
    got_stats, got_out = run_program(compiled.program,
                                     inputs=workload.ref_inputs)
    assert got_out == want_out
    assert got_stats == want_stats


# ---------------------------------------------------------------------------
# analysis caching across ladder retries
# ---------------------------------------------------------------------------

SRC = """
int sum(int *a, int n) {
  int i; int s; s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
  return s;
}
void main() {
  int a[6]; int i;
  for (i = 0; i < 6; i = i + 1) { a[i] = i * i; }
  print(sum(a, 6));
}
"""


def crashing_lftr(state):
    raise RuntimeError("induced lftr bug")


def test_ladder_retry_reuses_cached_analyses(monkeypatch):
    """A crash at full strength must NOT recompute per-function
    analyses on the retry: the second rung's build-ssa hits the cache
    for alias info and dominance."""
    monkeypatch.setitem(PASS_REGISTRY, "lftr", crashing_lftr)
    compiled = compile_program(SRC, SpecConfig.base())
    analyses = compiled.analyses
    # both functions fell exactly one rung (the ladder dropped lftr)
    assert compiled.degraded == {"sum": "no-lftr", "main": "no-lftr"}
    # first attempt: one miss per function; retry: one hit per function
    assert analyses.miss_counts["alias-info"] == 2
    assert analyses.hit_counts["alias-info"] == 2
    assert analyses.miss_counts["dominance"] == 2
    assert analyses.hit_counts["dominance"] == 2
    assert analyses.stats()["hits"] >= 4


def test_clean_compile_computes_each_analysis_once():
    compiled = compile_program(SRC, SpecConfig.base())
    analyses = compiled.analyses
    assert compiled.degraded == {}
    assert analyses.miss_counts["alias-info"] == 2      # one per function
    assert analyses.hit_counts["alias-info"] == 0


# ---------------------------------------------------------------------------
# declarative pipeline assembly + the ladder as truncations
# ---------------------------------------------------------------------------


def test_pipeline_is_assembled_from_the_config():
    full = function_pass_names(SpecConfig.base())
    assert full == ["build-ssa", "strength-reduction",
                    "register-promotion", "expression-pre", "lftr", "dce",
                    "verify-ssa", "lower-ssa"]
    bare = function_pass_names(SpecConfig.base().but(
        strength_reduction=False, expression_pre=False, lftr=False))
    assert bare == ["build-ssa", "register-promotion", "dce",
                    "verify-ssa", "lower-ssa"]


def test_ladder_rungs_are_pipeline_truncations():
    config = SpecConfig.aggressive()
    plans = ladder_plans(config, failsafe=True)
    assert [rung for rung, _, _ in plans] \
        == ["as-configured", "no-lftr", "no-epre", "no-spec"]
    names = [pass_names for _, _, pass_names in plans]
    assert "lftr" in names[0] and "strength-reduction" in names[0]
    assert "lftr" not in names[1] and "strength-reduction" not in names[1]
    assert "expression-pre" in names[1]
    assert "expression-pre" not in names[2]
    # dropped passes flip the matching config flags (pipeline ≡ config)
    for rung, (_, rung_cfg, rung_names) in zip(LADDER, plans[1:]):
        assert rung_cfg == rung_config(config, rung)
        assert rung_names == function_pass_names(rung_cfg)
        assert not rung_cfg.lftr
    assert plans[3][1].mode.name == "OFF"
    assert not plans[3][1].control_speculation
    # failsafe=False: only the as-configured plan
    assert [rung for rung, _, _ in ladder_plans(config, failsafe=False)] \
        == ["as-configured"]


# ---------------------------------------------------------------------------
# per-pass observability
# ---------------------------------------------------------------------------


def test_pass_trace_records_every_invocation():
    compiled = compile_program(SRC, SpecConfig.base())
    trace = compiled.pass_trace
    assert trace is not None
    # 2 functions x 8 passes
    assert trace.invocations("build-ssa") == 2
    assert trace.invocations("dce") == 2
    assert trace.invocations("lower-module") == 1
    assert trace.invocations("codegen") == 1
    assert all(r.wall_s >= 0.0 for r in trace.records)
    # dce only ever removes statements
    assert all(r.delta[0] <= 0 for r in trace.records
               if r.pass_name == "dce")
    # codegen reports the emitted program size
    codegen = [r for r in trace.records if r.pass_name == "codegen"]
    assert codegen[0].after[0] > 0
    table = trace.format_table()
    assert "pass execution timing report" in table
    for name in ("build-ssa", "register-promotion", "codegen"):
        assert name in table


def test_pass_trace_marks_failed_invocations(monkeypatch):
    monkeypatch.setitem(PASS_REGISTRY, "lftr", crashing_lftr)
    compiled = compile_program(SRC, SpecConfig.base())
    failed = [r for r in compiled.pass_trace.records if r.failed]
    assert failed and all(r.pass_name == "lftr" for r in failed)
    assert all(r.rung == "as-configured" for r in failed)
    # the retry's records carry the rung they ran on
    assert any(r.rung == "no-lftr" for r in compiled.pass_trace.records
               if r.pass_name == "build-ssa")


def test_pass_trace_json_roundtrip(tmp_path):
    compiled = compile_program(SRC, SpecConfig.base())
    path = tmp_path / "trace.json"
    compiled.pass_trace.dump_json(str(path), compiled.analyses.stats())
    doc = json.loads(path.read_text())
    assert doc["invocations"] == len(compiled.pass_trace.records)
    assert doc["passes"][0]["pass"] == "split-critical-edges"
    assert {"pass", "kind", "function", "rung", "wall_s", "stmts_before",
            "stmts_after", "failed"} <= set(doc["passes"][0])
    assert doc["analyses"]["misses"] > 0


def test_manager_is_reusable():
    """One manager, two compiles: records and the analysis cache reset
    per compile."""
    manager = PassManager(SpecConfig.base())
    first = manager.compile(SRC)
    n = len(first.pass_trace.records)
    second = manager.compile(SRC)
    assert len(second.pass_trace.records) == n
    assert second.program.format() == first.program.format()
    assert second.analyses is not first.analyses
    assert second.analyses.stats() == first.analyses.stats()
