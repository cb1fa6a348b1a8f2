"""Edge profiling for control speculation.

SSAPRE's control speculation (Lo et al. [25], used unchanged by the paper)
inserts computations on paths where the expression is *not* down-safe; the
edge profile decides when that gamble pays off.  The profiler counts every
CFG edge traversal and derives block execution frequencies.
"""

from __future__ import annotations

from collections import Counter

from ..ir import BasicBlock, Function, Module
from .interp import Interpreter, Tracer


class EdgeProfile:
    """Edge and block execution counts, per function.

    Counts are kept under two keys: block/edge ``uid`` s (for the
    SSAPRE passes, which run on the very module the profile was
    collected on) and ``(function name, block name)`` (for the machine
    level — out-of-SSA rebuilds every block, so only names survive to
    codegen; see :mod:`repro.target.superblock`)."""

    def __init__(self) -> None:
        self.edge_count: Counter = Counter()
        self.block_count: Counter = Counter()
        self.entry_count: Counter = Counter()
        #: ``(fn name, src block name, dst block name) -> traversals``
        self.edge_name_count: Counter = Counter()
        #: ``(fn name, block name) -> executions``
        self.block_name_count: Counter = Counter()

    def edge(self, src: BasicBlock, dst: BasicBlock) -> int:
        return self.edge_count.get((src.uid, dst.uid), 0)

    def block(self, block: BasicBlock) -> int:
        return self.block_count.get(block.uid, 0)

    def freq(self, block: BasicBlock) -> float:
        """Raw execution count of ``block`` as a float — **not**
        normalized (0.0 when never executed).  The speculation engine
        compares sums of these, where exact integer-valued counts avoid
        rounding-dependent ties; use :meth:`prob` when a normalized
        branch probability is wanted."""
        return float(self.block(block))

    def prob(self, src: BasicBlock, dst: BasicBlock) -> float:
        """Branch probability of the CFG edge ``src -> dst``: the
        edge's traversal count over all of ``src``'s outgoing
        traversals.  When ``src`` was never executed (a 0-count
        fallback) the probability is split uniformly over its
        successors; an edge that is not in ``src.succs`` at all has
        probability 0.0."""
        succs = list(src.succs)
        if dst not in succs:
            return 0.0
        total = sum(self.edge(src, s) for s in succs)
        if total == 0:
            return 1.0 / len(succs)
        return self.edge(src, dst) / total

    # ---- name-keyed views (survive out-of-SSA; machine level) ----------
    def block_by_name(self, fn_name: str, block_name: str) -> int:
        return self.block_name_count.get((fn_name, block_name), 0)

    def edge_by_name(self, fn_name: str, src_name: str,
                     dst_name: str) -> int:
        return self.edge_name_count.get((fn_name, src_name, dst_name), 0)

    def has_function(self, fn_name: str) -> bool:
        """Whether the train run entered ``fn_name`` at all."""
        return self.entry_count.get(fn_name, 0) > 0


class EdgeProfiler(Tracer):
    """Tracer building an :class:`EdgeProfile`."""

    def __init__(self) -> None:
        self.profile = EdgeProfile()

    def on_function_enter(self, fn: Function) -> None:
        self.profile.entry_count[fn.name] += 1
        self.profile.block_count[fn.entry.uid] += 1
        self.profile.block_name_count[(fn.name, fn.entry.name)] += 1

    def on_edge(self, fn: Function, src: BasicBlock, dst: BasicBlock) -> None:
        self.profile.edge_count[(src.uid, dst.uid)] += 1
        self.profile.block_count[dst.uid] += 1
        self.profile.edge_name_count[(fn.name, src.name, dst.name)] += 1
        self.profile.block_name_count[(fn.name, dst.name)] += 1


def collect_edge_profile(module: Module, fuel: int = 50_000_000,
                         inputs=()) -> EdgeProfile:
    """Run ``main`` on the *train* input; collect edge/block counts."""
    profiler = EdgeProfiler()
    interp = Interpreter(module, [profiler], fuel=fuel)
    interp.inputs = list(inputs)
    interp.run()
    return profiler.profile
