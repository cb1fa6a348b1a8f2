"""Functions and modules of the mid-level IR."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from .cfg import BasicBlock, reverse_postorder
from .stmt import CallStmt, Stmt, Terminator
from .symbols import StorageKind, Symbol
from .types import Type


class Function:
    """A procedure: parameters, locals, and a CFG of basic blocks."""

    def __init__(
        self, name: str, params: List[Symbol], ret_ty: Optional[Type] = None
    ) -> None:
        self.name = name
        self.params = list(params)
        self.ret_ty = ret_ty
        self.locals: List[Symbol] = []
        self.blocks: List[BasicBlock] = []
        self.entry: BasicBlock = self.new_block("entry")
        self._label_counter = itertools.count()

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create and register a fresh basic block."""
        name = f"{hint}{len(self.blocks)}"
        block = BasicBlock(name)
        self.blocks.append(block)
        return block

    def add_local(self, sym: Symbol) -> Symbol:
        self.locals.append(sym)
        return sym

    def compute_cfg(self) -> None:
        """(Re)compute predecessor/successor lists and drop unreachable
        blocks."""
        reachable = reverse_postorder(self.entry)
        reachable_set = set(reachable)
        self.blocks = [b for b in self.blocks if b in reachable_set]
        for block in self.blocks:
            block.preds = []
            block.succs = []
        for block in self.blocks:
            for succ in block.successors():
                block.succs.append(succ)
                succ.preds.append(block)

    def rpo(self) -> List[BasicBlock]:
        return reverse_postorder(self.entry)

    def statements(self) -> Iterator[Tuple[BasicBlock, Stmt]]:
        """Iterate ``(block, stmt)`` pairs over all non-terminator
        statements."""
        for block in self.blocks:
            for stmt in block.stmts:
                yield block, stmt

    def terminators(self) -> Iterator[Tuple[BasicBlock, Terminator]]:
        for block in self.blocks:
            if block.terminator is not None:
                yield block, block.terminator

    def counts(self) -> Tuple[int, int, int]:
        """``(statements, loads, stores)`` — the IR-size triple the pass
        manager records around module passes for ``--time-passes``
        deltas.  Statements include terminators; loads are
        :class:`~repro.ir.Load` occurrences in any expression tree."""
        from .expr import Load
        from .stmt import Store

        stmts = loads = stores = 0
        for _, stmt in self.statements():
            stmts += 1
            if isinstance(stmt, Store):
                stores += 1
            for expr in stmt.exprs():
                for node in expr.walk():
                    if isinstance(node, Load):
                        loads += 1
        for _, term in self.terminators():
            stmts += 1
            for expr in term.exprs():
                for node in expr.walk():
                    if isinstance(node, Load):
                        loads += 1
        return stmts, loads, stores

    def __repr__(self) -> str:
        return f"<Function {self.name}({', '.join(p.name for p in self.params)})>"


class Module:
    """A whole program: global symbols and functions.

    ``main`` (no parameters) is the entry point used by the interpreter and
    the machine simulator.  :meth:`finalize` must be called once the IR is
    complete; it numbers call sites (heap LOC names and the per-call-site
    mod/ref profile) and recomputes all CFGs.
    """

    def __init__(self) -> None:
        self.globals: List[Symbol] = []
        self.functions: Dict[str, Function] = {}

    def add_global(self, sym: Symbol) -> Symbol:
        if sym.kind is not StorageKind.GLOBAL:
            raise ValueError(f"{sym!r} is not a global symbol")
        self.globals.append(sym)
        return sym

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    @property
    def main(self) -> Function:
        return self.functions["main"]

    def counts(self) -> Tuple[int, int, int]:
        """Module-wide ``(statements, loads, stores)``."""
        stmts = loads = stores = 0
        for fn in self.functions.values():
            s, l, st = fn.counts()
            stmts += s
            loads += l
            stores += st
        return stmts, loads, stores

    def finalize(self) -> "Module":
        """Number call sites and recompute CFGs.  Returns ``self``."""
        site_ids = itertools.count()
        for fn in self.functions.values():
            fn.compute_cfg()
            for _, stmt in fn.statements():
                if isinstance(stmt, CallStmt):
                    stmt.site_id = next(site_ids)
        return self

    def __repr__(self) -> str:
        return f"<Module {sorted(self.functions)}>"
