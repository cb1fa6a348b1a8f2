"""The paper's speculative SSA form: HSSA with likeliness-flagged µ/χ."""

from .construct import SSABuilder, build_ssa
from .out_of_ssa import lower_expr, lower_function, lower_module
from .printer import format_ssa
from .refine import FlowSensitivePointsTo, refine_module
from .spec import (DEFAULT_STATIC_THRESHOLD, Flagger, SpecMode,
                   aggressive_flagger, flag_snapshot, flagger_for,
                   heuristic_flagger, iter_loads, make_profile_flagger,
                   make_static_flagger, no_spec_flagger)
from .values import (Chi, Mu, SAddrOf, SAssign, SBin, SCall, SCondBr, SConst,
                     SExpr, SJump, SLoad, SPhi, SPrint, SReturn, SSABlock,
                     SSAFunction, SSAVar, SStmt, SStore, STerm, SUn, SVarUse,
                     ssa_counts)
from .verify import SSAVerificationError, verify_ssa

__all__ = [
    "Chi", "DEFAULT_STATIC_THRESHOLD", "Flagger", "Mu", "SAddrOf",
    "SAssign", "SBin", "SCall",
    "SCondBr", "SConst", "SExpr", "SJump", "SLoad", "SPhi", "SPrint",
    "SReturn", "SSABlock", "SSABuilder", "SSAFunction", "SSAVar",
    "SSAVerificationError", "SStmt", "SStore", "STerm", "SUn", "SVarUse",
    "FlowSensitivePointsTo", "SpecMode", "aggressive_flagger",
    "build_ssa", "flag_snapshot", "flagger_for", "refine_module",
    "format_ssa", "heuristic_flagger", "iter_loads",
    "lower_expr", "lower_function", "lower_module", "make_profile_flagger",
    "make_static_flagger", "no_spec_flagger", "ssa_counts",
    "verify_ssa",
]
