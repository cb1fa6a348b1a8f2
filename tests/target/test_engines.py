"""The two dispatch engines must be indistinguishable except in speed.

``run_program(engine="classic")`` keeps the pre-decode PR's interpretive
loop alive as the reference engine and wall-clock baseline
(docs/performance.md); these tests pin the contract the perf benchmark
relies on — identical output, identical counters, identical
per-function slices — on workloads that exercise every speculative
flavour (ld.a/ld.c through gzip's promotion, ld.s + chk.s recovery
through the spec workloads).
"""

import pytest

from repro.core import SpecConfig
from repro.pipeline import compile_program
from repro.target.machine import ENGINES, MachineError, run_program
from repro.workloads import all_workloads
from repro.workloads.runner import machine_kwargs

_WORKLOADS = {w.name: w for w in all_workloads()}


def _compiled(name):
    w = _WORKLOADS[name]
    result = compile_program(w.source, SpecConfig.profile(),
                             train_inputs=w.train_inputs)
    return result.program, w.ref_inputs


@pytest.mark.parametrize("name", ["art", "ammp", "equake", "gzip"])
def test_engines_bit_identical(name):
    program, inputs = _compiled(name)
    kwargs = machine_kwargs()
    runs = {}
    for engine in ENGINES:
        stats, output = run_program(program, inputs, engine=engine,
                                    **kwargs)
        runs[engine] = (stats, output)
    classic_stats, classic_out = runs["classic"]
    pre_stats, pre_out = runs["predecode"]
    assert pre_out == classic_out
    assert pre_stats.to_dict() == classic_stats.to_dict()
    assert set(pre_stats.fn_stats) == set(classic_stats.fn_stats)
    for fn_name, classic_fn in classic_stats.fn_stats.items():
        assert vars(pre_stats.fn_stats[fn_name]) == vars(classic_fn)


def test_engine_selection_via_overrides():
    program, inputs = _compiled("art")
    base = run_program(program, inputs, **machine_kwargs())
    via_override = run_program(
        program, inputs,
        machine_overrides={"engine": "classic"}, **machine_kwargs())
    assert via_override[1] == base[1]
    assert via_override[0].to_dict() == base[0].to_dict()


def test_engines_are_predecode_and_classic():
    assert ENGINES == ("predecode", "classic")


def test_unknown_engine_rejected():
    program, inputs = _compiled("art")
    for engine in ("jit", "trace"):
        with pytest.raises(MachineError, match="unknown engine"):
            run_program(program, inputs, engine=engine)
