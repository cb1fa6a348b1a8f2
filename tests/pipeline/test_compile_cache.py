"""The content-addressed compile cache (docs/performance.md).

The cache may only ever be invisible: a hit must hand back exactly what
a fresh compile would produce, and anything that could change the
produced program — source text, SpecConfig, monkeypatched seams,
swapped registry passes — must change the key.
"""

import pytest

from repro.core import SpecConfig
from repro.pipeline import (PASS_REGISTRY, CompileCache, OutputMismatch,
                            compile_and_run, compile_program,
                            default_cache, reference_output)
from repro.target import run_program
from repro.workloads import get_workload

SOURCE = """
int g;
int bump(int k) { g = g + k; return g; }
int main() {
  int i; int total;
  i = 0; total = 0;
  while (i < 20) { total = bump(i) + total; i = i + 1; }
  print(total);
  return 0;
}
"""


def _compile(cache, source=SOURCE, config=None, **kwargs):
    return compile_program(source, config or SpecConfig.profile(),
                           train_inputs=(), cache=cache, **kwargs)


def test_identical_compile_hits():
    cache = CompileCache()
    first = _compile(cache)
    second = _compile(cache)
    assert cache.hits == 1 and cache.misses == 1
    # a hit is the same result object — the compile was skipped entirely
    assert second is first


def test_different_config_misses():
    cache = CompileCache()
    _compile(cache, config=SpecConfig.profile())
    _compile(cache, config=SpecConfig.base())
    assert cache.hits == 0 and cache.misses == 2


def test_mutated_source_misses():
    cache = CompileCache()
    _compile(cache)
    _compile(cache, source=SOURCE.replace("i < 20", "i < 21"))
    assert cache.hits == 0 and cache.misses == 2


def test_train_inputs_and_fuel_key():
    cache = CompileCache()
    compile_program(SOURCE, SpecConfig.profile(), train_inputs=(1,),
                    cache=cache)
    compile_program(SOURCE, SpecConfig.profile(), train_inputs=(2,),
                    cache=cache)
    compile_program(SOURCE, SpecConfig.profile(), train_inputs=(2,),
                    fuel=1_000_000, cache=cache)
    assert cache.hits == 0 and cache.misses == 3


def test_observer_calls_bypass():
    from repro.pipeline import DumpSink

    cache = CompileCache()
    _compile(cache, dumps=DumpSink())
    _compile(cache, profile_transform=lambda p: p)
    assert cache.bypasses == 2
    assert cache.hits == 0 and cache.misses == 0
    assert len(cache) == 0


def test_seam_monkeypatch_misses(monkeypatch):
    from repro.pipeline import driver

    cache = CompileCache()
    _compile(cache)
    real = driver.verify_ssa
    monkeypatch.setattr(driver, "verify_ssa",
                        lambda ssa, **kw: real(ssa, **kw))
    _compile(cache)
    assert cache.hits == 0 and cache.misses == 2
    monkeypatch.undo()
    _compile(cache)  # original seam restored -> original key hits
    assert cache.hits == 1


def test_registry_swap_misses(monkeypatch):
    cache = CompileCache()
    _compile(cache)

    real = PASS_REGISTRY["dce"]

    def wrapped_dce(state):
        real(state)

    monkeypatch.setitem(PASS_REGISTRY, "dce", wrapped_dce)
    _compile(cache)
    assert cache.hits == 0 and cache.misses == 2


def test_cached_program_not_mutated_by_simulation():
    cache = CompileCache()
    w = get_workload("mcf")
    result = compile_program(w.source, SpecConfig.profile(),
                             train_inputs=w.train_inputs, cache=cache)
    snapshot = result.program.format()
    stats, output = run_program(result.program, inputs=w.ref_inputs)
    assert result.program.format() == snapshot
    # ... and a post-simulation hit still yields the identical program
    again = compile_program(w.source, SpecConfig.profile(),
                            train_inputs=w.train_inputs, cache=cache)
    assert again is result
    stats2, output2 = run_program(again.program, inputs=w.ref_inputs)
    assert output2 == output
    assert stats2.to_dict() == stats.to_dict()


def test_lru_capacity_and_eviction():
    cache = CompileCache(capacity=1)
    _compile(cache)
    _compile(cache, config=SpecConfig.base())  # evicts the first entry
    assert cache.evictions == 1 and len(cache) == 1
    _compile(cache)  # first entry is gone -> recompiles
    assert cache.hits == 0 and cache.misses == 3


def test_compile_and_run_uses_process_cache():
    shared = default_cache()
    baseline = (shared.hits, shared.misses)
    first = compile_and_run(SOURCE, SpecConfig.profile(), ref_inputs=())
    second = compile_and_run(SOURCE, SpecConfig.profile(), ref_inputs=())
    assert second.output == first.output
    assert shared.hits >= baseline[0] + 1
    # cache=False forces a fresh compile and never touches the memo
    hits_before = shared.hits
    misses_before = shared.misses
    fresh = compile_and_run(SOURCE, SpecConfig.profile(), ref_inputs=(),
                            cache=False)
    assert fresh.output == first.output
    assert (shared.hits, shared.misses) == (hits_before, misses_before)


def test_profile_free_configs_normalize_train_inputs():
    """Configs with ``needs_train_run == False`` never see the trainer,
    so their cache keys must not fragment on irrelevant train inputs:
    base/heuristic/static compiles with different train data share one
    entry, while a profile compile keys on them (see above)."""
    for config in (SpecConfig.base(), SpecConfig.heuristic(),
                   SpecConfig.static()):
        assert not config.needs_train_run
        cache = CompileCache()
        compile_program(SOURCE, config, train_inputs=(1,), cache=cache)
        compile_program(SOURCE, config, train_inputs=(2, 3), cache=cache)
        assert (cache.hits, cache.misses) == (1, 1), config.mode


def test_compiler_fingerprint_stamps_content_keys():
    """Content keys carry the compiler's identity — package version +
    registered pass names — so persisted caches (service
    ``--cache-dir``) invalidate when the compiler changes."""
    from repro import __version__
    from repro.pipeline import compiler_fingerprint, content_key

    fp = compiler_fingerprint()
    assert __version__ in fp
    assert "build-ssa" in fp and "dce" in fp

    key = content_key(SOURCE, SpecConfig.profile(), (1,), 1000, True)
    assert key == content_key(SOURCE, SpecConfig.profile(), (1,), 1000,
                              True)

    import repro.pipeline.cache as cache_mod
    original = cache_mod.compiler_fingerprint
    try:
        cache_mod.compiler_fingerprint = lambda: "other-compiler"
        assert content_key(SOURCE, SpecConfig.profile(), (1,), 1000,
                           True) != key
    finally:
        cache_mod.compiler_fingerprint = original


# ---------------------------------------------------------------------------
# the memoized oracle (reference interpreter output)
# ---------------------------------------------------------------------------

@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the driver's oracle interpretations.  Swapping the seam
    also changes every oracle key, so no entry from an earlier test can
    answer for this one."""
    from repro.pipeline import driver

    calls = []
    real = driver.run_module

    def counting(module, **kwargs):
        calls.append(kwargs)
        return real(module, **kwargs)

    monkeypatch.setattr(driver, "run_module", counting)
    return calls


def test_figure_configs_share_one_oracle_run(oracle_calls):
    """The five figure configurations of one workload interpret the
    unoptimized program once between them."""
    from repro.workloads import run_workload

    w = get_workload("mcf")
    for config in (SpecConfig.base(), SpecConfig.profile(),
                   SpecConfig.heuristic(), SpecConfig.static(),
                   SpecConfig.aggressive()):
        result = run_workload(w, config)
        assert result.output == result.expected
    assert len(oracle_calls) == 1


def test_clear_and_cache_false_rerun_the_oracle(oracle_calls):
    cache = CompileCache()
    first = compile_and_run(SOURCE, SpecConfig.profile(), cache=cache)
    compile_and_run(SOURCE, SpecConfig.base(), cache=cache)
    assert len(oracle_calls) == 1
    assert (cache.oracle_hits, cache.oracle_misses) == (1, 1)
    # oracle lookups never move the compile counters the service reports
    assert (cache.hits, cache.misses) == (0, 2)

    cache.clear()
    again = compile_and_run(SOURCE, SpecConfig.profile(), cache=cache)
    assert len(oracle_calls) == 2
    assert again.expected == first.expected

    compile_and_run(SOURCE, SpecConfig.profile(), cache=False)
    assert len(oracle_calls) == 3
    stats = cache.stats()
    assert (stats["oracle_hits"], stats["oracle_misses"]) == (1, 2)


def test_swapped_run_module_never_gets_a_stale_output(monkeypatch):
    from repro.pipeline import driver

    cache = CompileCache()
    real = compile_and_run(SOURCE, SpecConfig.base(), cache=cache)
    monkeypatch.setattr(driver, "run_module",
                        lambda module, **kwargs: ["not the output"])
    with pytest.raises(OutputMismatch):
        compile_and_run(SOURCE, SpecConfig.base(), cache=cache)
    monkeypatch.undo()
    # the original seam is back: its memoized output answers again
    assert compile_and_run(SOURCE, SpecConfig.base(),
                           cache=cache).expected == real.expected
    assert cache.oracle_hits == 1


def test_fuel_exhausted_oracle_is_not_memoized(oracle_calls):
    from repro.errors import FuelExhausted

    cache = CompileCache()
    compiled = compile_program(SOURCE, SpecConfig.base(), cache=cache)
    for attempt in (1, 2):
        with pytest.raises(FuelExhausted):
            reference_output(SOURCE, compiled.original, fuel=10,
                             cache=cache)
        assert len(oracle_calls) == attempt
    assert cache.oracle_hits == 0
