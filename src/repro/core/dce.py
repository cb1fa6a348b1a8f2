"""Dead-code elimination on the SSA form (mark and sweep).

Cleans up after SSAPRE/LFTR: unused φs, unused pure assignments (including
loads — reading memory has no observable effect in this IR), and unused
induction-variable updates once linear-function test replacement removed
their last consumers.

The pass seeds liveness from side-effecting statements (stores, calls,
``print``, terminators, and assignments carrying χs) and marks backwards
through use-def edges, so a φ ↔ increment cycle with no observable
consumer dies as a whole.

Liveness is version-level for program variables and *symbol-level* for
compiler temporaries: out-of-SSA collapses a temporary's versions onto one
symbol, so any live version keeps every definition of that symbol alive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import StorageKind, Symbol
from ..ssa import (SAssign, SCall, SLoad, SPhi, SSAFunction, SSAVar, SStmt,
                   SVarUse)


class _Marker:
    def __init__(self, ssa: SSAFunction) -> None:
        self.ssa = ssa
        self.live_vars: Set[SSAVar] = set()
        self.live_temp_syms: Set[Symbol] = set()
        self.worklist: List[SSAVar] = []
        #: def index: var -> defining stmt/phi (for marking def inputs)
        self.def_of: Dict[SSAVar, object] = {}
        #: all defs per temp symbol (symbol-level liveness)
        self.temp_defs: Dict[Symbol, List[SSAVar]] = {}

    def build_def_index(self) -> None:
        for block in self.ssa.blocks:
            for phi in block.phis:
                if phi.lhs is not None:
                    self._add_def(phi.lhs, phi)
            for stmt in block.stmts:
                if isinstance(stmt, SAssign) and isinstance(stmt.lhs, SSAVar):
                    self._add_def(stmt.lhs, stmt)
                if isinstance(stmt, SCall) and isinstance(stmt.dst, SSAVar):
                    self._add_def(stmt.dst, stmt)
                for chi in stmt.chis:
                    if chi.lhs is not None:
                        self._add_def(chi.lhs, stmt)

    def _add_def(self, var: SSAVar, site: object) -> None:
        self.def_of[var] = site
        if var.symbol.kind is StorageKind.TEMP:
            self.temp_defs.setdefault(var.symbol, []).append(var)

    # ---- marking ---------------------------------------------------------
    def mark_var(self, var: Optional[SSAVar]) -> None:
        if var is None or var in self.live_vars:
            return
        self.live_vars.add(var)
        self.worklist.append(var)
        if var.symbol.kind is StorageKind.TEMP \
                and var.symbol not in self.live_temp_syms:
            self.live_temp_syms.add(var.symbol)
            for other in self.temp_defs.get(var.symbol, ()):
                self.mark_var(other)

    def mark_symbol(self, symbol: Symbol) -> None:
        if symbol.kind is StorageKind.TEMP \
                and symbol not in self.live_temp_syms:
            self.live_temp_syms.add(symbol)
            for var in self.temp_defs.get(symbol, ()):
                self.mark_var(var)

    def mark_expr(self, expr) -> None:
        for node in expr.walk():
            if isinstance(node, SVarUse):
                if node.var is not None:
                    self.mark_var(node.var)
                else:
                    self.mark_symbol(node.symbol)
            elif isinstance(node, SLoad):
                for mu in node.mus:
                    self.mark_var(mu.var)

    def mark_stmt_inputs(self, stmt: SStmt) -> None:
        for expr in stmt.exprs():
            self.mark_expr(expr)
        for mu in getattr(stmt, "mus", ()):
            self.mark_var(mu.var)
        for chi in stmt.chis:
            self.mark_var(chi.rhs)
        if isinstance(stmt, SAssign) and stmt.check_source is not None:
            self.mark_var(stmt.check_source)

    def run(self) -> None:
        self.build_def_index()
        # Seeds: side-effecting statements and terminators.
        for block in self.ssa.blocks:
            for stmt in block.stmts:
                if self._has_side_effect(stmt):
                    self.mark_stmt_inputs(stmt)
            if block.term is not None:
                for expr in block.term.exprs():
                    self.mark_expr(expr)
        # Propagate: a live var's defining statement's inputs are live.
        while self.worklist:
            var = self.worklist.pop()
            site = self.def_of.get(var)
            if site is None:
                continue
            if isinstance(site, SPhi):
                for arg in site.args:
                    self.mark_var(arg)
            else:
                self.mark_stmt_inputs(site)  # type: ignore[arg-type]

    @staticmethod
    def _has_side_effect(stmt: SStmt) -> bool:
        from ..ssa import SPrint, SStore

        if isinstance(stmt, SAssign):
            if stmt.chis:
                return True
            # Defs of globals / address-taken locals are observable
            # through memory (calls, pointers): never dead.
            lhs = stmt.lhs
            symbol = lhs.symbol if isinstance(lhs, SSAVar) else lhs
            return symbol.is_memory_resident
        if isinstance(stmt, SPhi):
            return False
        return isinstance(stmt, (SStore, SCall, SPrint))


def eliminate_dead_code(ssa: SSAFunction) -> int:
    """Remove assignments and φs whose values can never reach an
    observable effect; returns the number of removals."""
    marker = _Marker(ssa)
    marker.run()
    removed = 0

    def live(var: Optional[SSAVar]) -> bool:
        if var is None:
            return True  # unrenamed: be conservative
        if var in marker.live_vars:
            return True
        return (var.symbol.kind is StorageKind.TEMP
                and var.symbol in marker.live_temp_syms)

    for block in ssa.blocks:
        keep_phis = []
        for phi in block.phis:
            if live(phi.lhs):
                keep_phis.append(phi)
            else:
                removed += 1
        block.phis = keep_phis
        keep_stmts = []
        for stmt in block.stmts:
            dead = (
                isinstance(stmt, SAssign)
                and not _Marker._has_side_effect(stmt)
                and isinstance(stmt.lhs, SSAVar)
                and not live(stmt.lhs)
            )
            if dead:
                removed += 1
            else:
                keep_stmts.append(stmt)
        block.stmts = keep_stmts
    return removed
