"""Input sensitivity — the paper's §1 motivation for *speculative*
treatment of profile data.

"If we find *p and *q are not aliases in the current profiling, it does
not guarantee that they are not aliases under different program inputs
(i.e. input sensitivity).  We can only assume speculatively that they
are not aliases…  This requires data speculation support."

This experiment trains gzip once (no collisions) and then measures it on
a family of ref inputs whose collision frequency on the promoted
hash-head slot rises from never to every 4th round.  The compiled binary
is the *same* in every run; only the input changes:

* output stays correct on every input (the ALAT absorbs the surprise);
* the mis-speculation ratio tracks the input's collision rate;
* the speculation keeps paying until mis-speculation dominates.
"""

import pytest

from repro.core import SpecConfig
from repro.pipeline import compile_and_run, compile_program, format_table
from repro.profiling import run_module
from repro.target import run_program
from repro.workloads import get_workload
from repro.workloads.runner import machine_kwargs

from conftest import emit_table


@pytest.fixture(scope="module")
def sensitivity_rows():
    gzip = get_workload("gzip")
    # train input: stores land in head[8..56) — never the promoted slot
    compiled = compile_program(gzip.source, SpecConfig.profile(),
                               train_inputs=gzip.train_inputs)
    rows = []
    # ref family: off=0 puts stores at head[(r*stride)%span]; the stride
    # controls how often that hits slot 0
    for stride, label in ((0, "never"), (2, "1/24 rounds"),
                          (4, "1/12 rounds"), (12, "1/4 rounds")):
        ref = [200, 64, 60, stride, 8 if stride == 0 else 0, 48, 0]
        stats, output = run_program(compiled.program, inputs=ref,
                                    **machine_kwargs())
        expected = run_module(compiled.original, inputs=ref)
        assert output == expected  # correctness under every input
        rows.append({
            "ref_input_collisions": label,
            "checks": stats.check_loads,
            "check_misses": stats.check_misses,
            "misspec_%": 100.0 * stats.misspeculation_ratio,
        })
    return rows


def test_input_sensitivity_table(sensitivity_rows, benchmark):
    text = format_table(
        sensitivity_rows,
        title="Input sensitivity (gzip): one binary, profile from a "
              "collision-free train input, measured on varying refs",
    )
    emit_table("input_sensitivity", text)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(sensitivity_rows) == 4


def test_misspeculation_tracks_input(sensitivity_rows):
    ratios = [r["misspec_%"] for r in sensitivity_rows]
    assert ratios[0] == 0.0          # collision-free ref: no misses
    assert ratios == sorted(ratios)  # monotone in collision frequency
    assert ratios[-1] > ratios[0]


def test_checks_constant_across_inputs(sensitivity_rows):
    """The speculation decision was made at compile time: the number of
    executed checks is input-independent (same trip counts)."""
    checks = {r["checks"] for r in sensitivity_rows}
    assert len(checks) == 1
