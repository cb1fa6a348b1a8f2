"""End-to-end pipeline (source → speculative SSAPRE → simulated IA-64)."""

from ..core import SpecConfig
from .cache import (CompileCache, compiler_fingerprint, content_key,
                    default_cache, shard_of)
from .driver import (compile_and_run, compile_program, reference_output,
                     run_compiled)
from .dumps import DumpSink
from .passes import (PASS_REGISTRY, AnalysisManager, PassManager,
                     PassTiming, PassTrace)
from .results import (CompileResult, Comparison, Diagnostic,
                      OutputMismatch, RunResult, format_table)

__all__ = [
    "AnalysisManager", "Comparison", "CompileCache", "CompileResult",
    "Diagnostic", "DumpSink", "OutputMismatch", "PASS_REGISTRY",
    "PassManager", "PassTiming", "PassTrace", "RunResult", "SpecConfig",
    "compile_and_run", "compile_program", "compiler_fingerprint",
    "content_key", "default_cache",
    "format_table", "reference_output", "run_compiled", "shard_of",
]
