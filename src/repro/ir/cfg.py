"""Basic blocks and control-flow-graph utilities."""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple

from .stmt import Stmt, Terminator

_block_ids = itertools.count()


class BasicBlock:
    """A straight-line sequence of statements ended by one terminator.

    Blocks are created through :meth:`repro.ir.function.Function.new_block`
    and linked purely via their terminators; predecessor/successor views are
    recomputed by :meth:`repro.ir.function.Function.compute_cfg`.
    """

    __slots__ = ("name", "uid", "stmts", "terminator", "preds", "succs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.uid = next(_block_ids)
        self.stmts: List[Stmt] = []
        self.terminator: Optional[Terminator] = None
        self.preds: List["BasicBlock"] = []
        self.succs: List["BasicBlock"] = []

    def append(self, stmt: Stmt) -> None:
        self.stmts.append(stmt)

    def successors(self) -> Tuple["BasicBlock", ...]:
        if self.terminator is None:
            return ()
        return self.terminator.successors()

    def pred_index(self, pred: "BasicBlock") -> int:
        """Position of ``pred`` in this block's predecessor list (φ operand
        order)."""
        return self.preds.index(pred)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name}>"


def reverse_postorder(entry: BasicBlock) -> List[BasicBlock]:
    """Blocks reachable from ``entry`` in reverse postorder (defs before
    uses for reducible flow, the order every dataflow pass here iterates)."""
    visited = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        # Iterative DFS to avoid recursion limits on long CFGs.
        stack: List[Tuple[BasicBlock, Iterator[BasicBlock]]] = []
        visited.add(block)
        stack.append((block, iter(block.successors())))
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    visit(entry)
    order.reverse()
    return order
