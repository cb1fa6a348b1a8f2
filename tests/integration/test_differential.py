"""Differential / property-based integration tests.

The central correctness claim of the paper's framework is that
ALAT-checked data speculation never changes program semantics.  These
tests drive that claim with randomly generated programs: for every safe
configuration the simulated optimized binary must print exactly what the
reference interpreter prints for the original program.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SpecConfig
from repro.lang import compile_source
from repro.pipeline import compile_and_run
from repro.profiling import run_module
from repro.workloads.fuzz import random_program

CONFIGS = [
    SpecConfig.unoptimized(),
    SpecConfig.base(),
    SpecConfig.base().but(control_speculation=False),
    SpecConfig.profile(),
    SpecConfig.heuristic(),
    SpecConfig.profile().but(store_forwarding=False),
    SpecConfig.heuristic().but(flow_refine=False),
]


@pytest.mark.parametrize("seed", range(25))
def test_random_program_all_configs(seed):
    source = random_program(seed)
    module = compile_source(source)
    expected = run_module(module, fuel=2_000_000)
    for config in CONFIGS:
        result = compile_and_run(source, config, fuel=2_000_000)
        assert result.output == expected, (
            f"seed={seed} config={config.mode} diverged\n{source}"
        )
        assert result.degraded == {}, (
            f"seed={seed} config={config.mode} degraded: {result.degraded}"
        )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=1000, max_value=100_000))
def test_random_program_speculative_matches_interpreter(seed):
    """Hypothesis-driven: profile-speculative compilation preserves
    semantics on arbitrary generated programs."""
    source = random_program(seed, max_stmts=10)
    result = compile_and_run(source, SpecConfig.profile(),
                             fuel=2_000_000)
    assert result.output == result.expected


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_program_ssa_invariants(seed):
    """Hypothesis-driven: HSSA construction satisfies the SSA invariants
    (single def, uses dominated by defs) on arbitrary programs."""
    from repro.analysis import AliasClassifier
    from repro.ssa import build_ssa, verify_ssa

    source = random_program(seed, max_stmts=10)
    module = compile_source(source)
    classifier = AliasClassifier(module)
    for fn in module.functions.values():
        verify_ssa(build_ssa(module, fn, classifier))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_program_spec_flags_degenerate_when_off(seed):
    """Property: the OFF flagging leaves every µ/χ binding — the
    speculative SSA form degenerates to classical HSSA."""
    from repro.analysis import AliasClassifier
    from repro.ssa import (SpecMode, build_ssa, flagger_for, iter_loads)

    source = random_program(seed, max_stmts=8)
    module = compile_source(source)
    classifier = AliasClassifier(module)
    for fn in module.functions.values():
        ssa = build_ssa(module, fn, classifier,
                        flagger=flagger_for(SpecMode.OFF))
        for block in ssa.blocks:
            for stmt in block.stmts:
                assert all(chi.likely for chi in stmt.chis)
                assert all(mu.likely for mu in getattr(stmt, "mus", ()))
        for load in iter_loads(ssa):
            assert all(mu.likely for mu in load.mus)


def test_generator_is_deterministic():
    assert random_program(7) == random_program(7)
    assert random_program(7) != random_program(8)


def test_generated_programs_parse_and_run():
    for seed in range(40):
        module = compile_source(random_program(seed))
        run_module(module, fuel=2_000_000)
