"""The pass-manager architecture (docs/pipeline.md).

The pass table (:mod:`~repro.pipeline.passes.registry`: pass name →
plain function), the per-compile analysis cache
(:mod:`~repro.pipeline.passes.analysis`), per-pass instrumentation
(:mod:`~repro.pipeline.passes.timing`) and the manager that runs them
(:mod:`~repro.pipeline.passes.manager`).
"""

from .analysis import AnalysisManager
from .registry import PASS_REGISTRY
from .timing import PassTiming, PassTrace
from .manager import (LADDER, FunctionOutcome, FunctionState, MachineState,
                      ModuleState, PassManager, Rung, function_pass_names,
                      ladder_plans, rung_config)

__all__ = [
    "AnalysisManager", "FunctionOutcome", "FunctionState", "LADDER",
    "MachineState", "ModuleState", "PASS_REGISTRY", "PassManager",
    "PassTiming", "PassTrace", "Rung", "function_pass_names",
    "ladder_plans", "rung_config",
]
