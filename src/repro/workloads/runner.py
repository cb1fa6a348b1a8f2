"""Run workloads through the pipeline and compare configurations.

The machine configuration used for all workload measurements is fixed
here so every figure's harness measures the same simulated hardware:
Itanium-flavoured latencies with caches scaled down to the synthetic
working sets (so mcf misses and equake mostly hits, as on real SPEC).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import SpecConfig
from ..pipeline import Comparison, RunResult, compile_and_run
from ..target import ALAT, DataCache
from .base import Workload, get_workload

#: machine parameters shared by every workload measurement
MACHINE_GEOMETRY = dict(
    issue_width=4,
    mem_ports=2,
    branch_penalty=1,
    call_overhead=2,
)


def machine_kwargs(**overrides) -> dict:
    """The standard workload machine (fresh ALAT + cache per call),
    with optional geometry overrides — the width-sweep ablation uses
    this to vary ``issue_width``/``mem_ports`` while keeping the rest
    of the machine fixed."""
    kwargs = dict(
        MACHINE_GEOMETRY,
        alat=ALAT(entries=32, ways=2),
        cache=DataCache(l1_lines=128, l2_lines=1024, ways=4,
                        line_cells=8, l1_latency=2, l2_latency=9,
                        mem_latency=60),
    )
    kwargs.update(overrides)
    return kwargs



def run_workload(workload: Workload, config: Optional[SpecConfig] = None,
                 check_output: bool = True,
                 machine_overrides: Optional[dict] = None,
                 engine: str = "predecode") -> RunResult:
    """Compile and simulate one workload under one configuration.

    ``engine`` selects the simulator dispatch implementation
    (:data:`repro.target.ENGINES`); all engines produce identical
    output and architectural counters, so figures are engine-agnostic.
    """
    kwargs = machine_kwargs(**{"engine": engine,
                               **(machine_overrides or {})})
    return compile_and_run(
        workload.source,
        config or SpecConfig.base(),
        train_inputs=workload.train_inputs,
        ref_inputs=workload.ref_inputs,
        check_output=check_output,
        machine_kwargs=kwargs,
    )


def compare_workload(name: str, spec_config: Optional[SpecConfig] = None,
                     base_config: Optional[SpecConfig] = None,
                     engine: str = "predecode") -> Comparison:
    """Base vs. speculative run of one workload (a Figure 10/11 row)."""
    workload = get_workload(name)
    base = run_workload(workload, base_config or SpecConfig.base(),
                        engine=engine)
    spec = run_workload(workload, spec_config or SpecConfig.profile(),
                        engine=engine)
    return Comparison(name, base, spec)
