"""Fail-safe pipeline: induced pass failures must degrade, not raise
(docs/recovery.md).

Pass crashes are injected through the pass registry — replacing a
``PASS_REGISTRY`` entry is the sanctioned seam for simulating a bug in
the compiler itself (docs/pipeline.md); ``verify_ssa`` and
``run_program`` stay patchable as driver module globals."""

import pytest

import repro.pipeline.driver as driver
from repro.core import SpecConfig
from repro.errors import FuelExhausted
from repro.pipeline import (PASS_REGISTRY, Diagnostic, OutputMismatch,
                            compile_and_run, compile_program)
from repro.profiling import run_module

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


def test_clean_compile_has_no_diagnostics():
    compiled = compile_program(SRC, SpecConfig.base())
    assert compiled.diagnostics == []
    assert compiled.degraded == {}


def exploding_pass(state):
    """Registry stand-in for a pass with an unconditional bug."""
    raise RuntimeError("induced optimizer bug")


def test_induced_optimizer_crash_degrades_down_the_ladder(monkeypatch):
    """Crash every rung's attempt (the injected pass is part of every
    ladder rung): every function falls all the way to its unoptimized
    original, the compile still completes, and the produced program
    still runs correctly."""
    monkeypatch.setitem(PASS_REGISTRY, "dce", exploding_pass)
    compiled = compile_program(SRC, SpecConfig.base())
    assert set(compiled.degraded) == {"sum", "main"}
    assert all(rung == "unoptimized" for rung in compiled.degraded.values())
    # one diagnostic per ladder rung per function, strongest rung first
    assert all(d.stage == "optimize" for d in compiled.diagnostics)
    per_fn = [d for d in compiled.diagnostics if d.function == "sum"]
    assert ["(at 'as-configured')" in d.error for d in per_fn] \
        == [True, False, False, False]
    assert [d.error.split(" (at ")[1].rstrip(")")
            for d in per_fn] == ["'as-configured'", "'no-lftr'",
                                 "'no-epre'", "'no-spec'"]
    assert compiled.diagnostics[-1].action == "keep unoptimized original"
    from repro.target import run_program

    _, output = run_program(compiled.program)
    assert output == run_module(compiled.original)


def test_induced_verifier_failure_degrades(monkeypatch):
    """A pass that silently corrupts SSA is caught by the re-verify
    guard and degraded the same way a crash is."""
    def reject(fn):
        from repro.ssa import SSAVerificationError

        raise SSAVerificationError("induced verifier failure")

    monkeypatch.setattr(driver, "verify_ssa", reject)
    compiled = compile_program(SRC, SpecConfig.base())
    assert set(compiled.degraded) == {"sum", "main"}
    assert "induced verifier failure" in compiled.diagnostics[0].error


def test_failsafe_off_raises(monkeypatch):
    monkeypatch.setitem(PASS_REGISTRY, "dce", exploding_pass)
    with pytest.raises(RuntimeError, match="induced optimizer bug"):
        compile_program(SRC, SpecConfig.base(), failsafe=False)


def make_flaky_dce():
    """A registry stand-in that crashes only each function's first
    attempt, then behaves like the real pass."""
    real = PASS_REGISTRY["dce"]
    calls = {}

    def flaky_dce(state):
        name = state.fn.name
        n = calls[name] = calls.get(name, 0) + 1
        if n == 1:
            raise RuntimeError("first attempt only")
        real(state)

    return flaky_dce


def test_partial_ladder_degradation_keeps_later_rungs(monkeypatch):
    """Fail only the full-strength attempt: the function lands on the
    first fallback rung, not at the bottom."""
    monkeypatch.setitem(PASS_REGISTRY, "dce", make_flaky_dce())
    compiled = compile_program(SRC, SpecConfig.base())
    assert compiled.degraded == {"sum": "no-lftr", "main": "no-lftr"}
    from repro.target import run_program

    _, output = run_program(compiled.program)
    assert output == run_module(compiled.original)


def test_run_result_carries_diagnostics(monkeypatch):
    def reject(fn):
        from repro.ssa import SSAVerificationError

        raise SSAVerificationError("induced")

    monkeypatch.setattr(driver, "verify_ssa", reject)
    result = compile_and_run(SRC, SpecConfig.base())
    assert result.output == result.expected
    assert result.degraded
    assert any(isinstance(d, Diagnostic) for d in result.diagnostics)


def test_output_mismatch_diff_is_readable(monkeypatch):
    original = driver.run_program

    def corrupted(program, **kwargs):
        stats, output = original(program, **kwargs)
        output[-1] = "9999"
        return stats, output

    monkeypatch.setattr(driver, "run_program", corrupted)
    with pytest.raises(OutputMismatch) as exc_info:
        compile_and_run(SRC, SpecConfig.base())
    text = str(exc_info.value)
    assert "diverged" in text
    assert "'9999'" in text and "'55'" in text
    # it is still an AssertionError for legacy callers
    assert isinstance(exc_info.value, AssertionError)


def test_fuel_exhaustion_is_a_typed_diagnostic():
    loop = "void main() { int i; i = 0; while (i < 2) { i = 0; } }"
    with pytest.raises(FuelExhausted) as exc_info:
        compile_and_run(loop, SpecConfig.base(), fuel=10_000,
                        check_output=False)
    exc = exc_info.value
    assert exc.function == "main"
    assert "main" in exc.context()
    assert "fuel exhausted" in str(exc)


def test_profiling_fuel_exhaustion_degrades_to_no_speculation():
    """An infinite loop on the *train* input only costs the profiles:
    the compile completes with data speculation disabled."""
    loop = """
void main() {
  int n; int i; int s; int a[4];
  n = input(); i = 0; s = 0; a[0] = 7;
  while (i < n) { s = s + a[0]; }
  print(s);
}
"""
    compiled = compile_program(loop, SpecConfig.profile(),
                               train_inputs=[1], fuel=10_000)
    assert any(d.stage == "train-run" for d in compiled.diagnostics)
    assert not compiled.config.needs_alias_profile
    # with n = 0 on the ref input the program terminates and runs fine
    from repro.target import run_program

    _, output = run_program(compiled.program, inputs=[0])
    assert output == ["0"]
