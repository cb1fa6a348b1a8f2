"""HSSA construction: µ/χ insertion, φ placement, renaming.

The pipeline is the paper's Figure 4:

1. equivalence-class alias analysis + virtual variable assignment
   (:mod:`repro.analysis.aliasclass`);
2. µ and χ list creation for indirect references, aliased direct
   assignments and call statements (this module);
3. φ insertion at iterated dominance frontiers and renaming — the standard
   algorithm of Cytron et al. [7], applied uniformly to real *and* virtual
   variables (this module);
4. speculation-flag assignment from a profile or heuristic rules
   (:mod:`repro.ssa.spec`);
5. optional flow-sensitive refinement (:mod:`repro.ssa.refine`).

All µ/χ operands start with ``likely=True`` (classical, non-speculative
HSSA); step 4 downgrades the ones that data speculation may ignore.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.aliasclass import AliasClassifier, FunctionAliasInfo
from ..analysis.tbaa import tbaa_compatible
from ..ir import (AddrOf, Assign, BasicBlock, Bin, CallStmt, CondBr, Const,
                  Expr, Function, Jump, Load, Module, PrintStmt, Return,
                  Store, Symbol, Un, VarRead)
from .values import (Chi, Mu, SAddrOf, SAssign, SBin, SCall, SCondBr, SConst,
                     SExpr, SJump, SLoad, SPhi, SPrint, SReturn, SSABlock,
                     SSAFunction, SSAVar, SStmt, SStore, SUn, SVarUse)


class SSABuilder:
    """Builds one function's speculative-ready HSSA form."""

    def __init__(self, module: Module, fn: Function,
                 classifier: AliasClassifier, refinement=None,
                 info: Optional[FunctionAliasInfo] = None,
                 dom=None) -> None:
        self.module = module
        self.fn = fn
        self.classifier = classifier
        #: optional flow-sensitive points-to facts (repro.ssa.refine)
        #: used to shrink µ/χ lists — the paper's Figure 4 last step
        self.refinement = refinement
        self.info: FunctionAliasInfo = (
            info if info is not None else classifier.analyze_function(fn))
        self.ssa = SSAFunction(fn, dom=dom)
        self.ssa.info = self.info  # type: ignore[attr-defined]
        # Map: real symbol -> virtual variables whose class contains it
        # (used to χ virtual vars at direct assignments of aliased scalars).
        self._affected_vvars: Dict[Symbol, List[Symbol]] = (
            self._compute_affected_vvars()
        )
        self._stacks: Dict[Symbol, List[SSAVar]] = defaultdict(list)

    def _compute_affected_vvars(self) -> Dict[Symbol, List[Symbol]]:
        st = self.classifier.steensgaard
        result: Dict[Symbol, List[Symbol]] = defaultdict(list)
        symbols = set(self.module.globals) | set(self.fn.params)
        symbols |= set(self.fn.locals)
        for sym in symbols:
            if not sym.address_taken or sym.is_array:
                continue
            class_id = st.class_of_loc(sym)
            for vvar in self.info.vvars:
                if self.info.vvar_class[vvar] == class_id and (
                    not self.classifier.use_tbaa
                    or tbaa_compatible(sym.ty, vvar.ty)
                ):
                    result[sym].append(vvar)
        return result

    # ---- step 1: statement conversion with µ/χ skeletons -----------------
    def build(self, flagger=None) -> SSAFunction:
        """Convert, optionally flag (pre-rename, per the paper's Figure 4),
        then place φs and rename."""
        for block in self.ssa.blocks:
            for stmt in block.base.stmts:
                block.add_stmt(self._convert_stmt(stmt))
            block.term = self._convert_term(block.base.terminator, block)
            block.term.block = block
        if flagger is not None:
            flagger(self.ssa, self.info)
        self._insert_phis()
        self._rename()
        return self.ssa

    def _convert_expr(self, expr: Expr) -> SExpr:
        if isinstance(expr, Const):
            return SConst(expr.value, expr.ty)
        if isinstance(expr, VarRead):
            if expr.sym.is_array:
                return SAddrOf(expr.sym)  # array decay: a constant address
            return SVarUse(expr.sym)
        if isinstance(expr, AddrOf):
            return SAddrOf(expr.sym)
        if isinstance(expr, Load):
            site = self.info.for_load(expr)
            own = Mu(site.vvar, likely=True, is_own=True)
            mus = [own] + [Mu(v) for v in site.real_vars
                           if self._may_target(id(expr), v)]
            return SLoad(self._convert_expr(expr.addr), expr.value_ty,
                         mus, own, site, expr)
        if isinstance(expr, Bin):
            return SBin(expr.op, self._convert_expr(expr.left),
                        self._convert_expr(expr.right))
        if isinstance(expr, Un):
            return SUn(expr.op, self._convert_expr(expr.operand))
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

    def _may_target(self, site_key: int, sym: Symbol) -> bool:
        if self.refinement is None:
            return True
        return self.refinement.may_target(site_key, sym)

    def _convert_stmt(self, stmt) -> SStmt:
        if isinstance(stmt, Assign):
            chis = [Chi(v) for v in self._affected_vvars.get(stmt.sym, ())]
            return SAssign(stmt.sym, self._convert_expr(stmt.value), chis)
        if isinstance(stmt, Store):
            site = self.info.for_store(stmt)
            chis = [Chi(site.vvar, likely=True, is_own=True)]
            chis += [Chi(v) for v in site.other_vvars]
            chis += [Chi(v) for v in site.real_vars
                     if self._may_target(id(stmt), v)]
            return SStore(self._convert_expr(stmt.addr),
                          self._convert_expr(stmt.value),
                          stmt.value_ty, chis, site, stmt)
        if isinstance(stmt, CallStmt):
            if stmt.is_alloc or stmt.callee in ("input", "inputf"):
                # intrinsics: allocate fresh storage / read the input
                # stream; they neither read nor write existing memory
                mus: List[Mu] = []
                chis = []
            else:
                mu_syms, chi_syms = self.info.call_lists(stmt.callee)
                mus = [Mu(s) for s in mu_syms]
                chis = [Chi(s) for s in chi_syms]
            return SCall(stmt.dst, stmt.callee,
                         [self._convert_expr(a) for a in stmt.args],
                         mus, chis, stmt.site_id, stmt)
        if isinstance(stmt, PrintStmt):
            return SPrint([self._convert_expr(a) for a in stmt.args])
        raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover

    def _convert_term(self, term, block: SSABlock):
        if isinstance(term, Jump):
            return SJump(self.ssa.block_of(term.target))
        if isinstance(term, CondBr):
            return SCondBr(self._convert_expr(term.cond),
                           self.ssa.block_of(term.then_block),
                           self.ssa.block_of(term.else_block))
        if isinstance(term, Return):
            value = (self._convert_expr(term.value)
                     if term.value is not None else None)
            return SReturn(value)
        raise TypeError(f"unknown terminator {term!r}")  # pragma: no cover

    # ---- step 2: φ insertion ------------------------------------------------
    def _def_blocks(self) -> Dict[Symbol, Set[BasicBlock]]:
        defs: Dict[Symbol, Set[BasicBlock]] = defaultdict(set)
        for block in self.ssa.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, SAssign):
                    defs[stmt.lhs].add(block.base)
                elif isinstance(stmt, SCall) and stmt.dst is not None:
                    defs[stmt.dst].add(block.base)
                for chi in stmt.chis:
                    defs[chi.symbol].add(block.base)
        return defs

    def _insert_phis(self) -> None:
        dom = self.ssa.dom
        for symbol, blocks in self._def_blocks().items():
            for base in dom.iterated_frontier(blocks):
                block = self.ssa.block_of(base)
                phi = SPhi(symbol, len(block.preds))
                phi.block = block
                block.phis.append(phi)

    # ---- step 3: renaming ----------------------------------------------------
    def _top(self, symbol: Symbol, block: SSABlock) -> SSAVar:
        stack = self._stacks[symbol]
        if not stack:
            # Live-on-entry version (parameter / uninitialized / global).
            var = self.ssa.new_version(symbol)
            var.def_site = "entry"
            var.def_block = self.ssa.entry
            self.ssa.entry_versions[symbol] = var
            stack.append(var)
        return stack[-1]

    def _define(self, symbol: Symbol, site: object, block: SSABlock,
                pushed: List[Symbol]) -> SSAVar:
        # Ensure the entry version exists first so version numbers reflect
        # def order (entry is always version 1).
        self._top(symbol, block)
        var = self.ssa.new_version(symbol)
        var.def_site = site
        var.def_block = block
        self._stacks[symbol].append(var)
        pushed.append(symbol)
        return var

    def _rename_expr(self, expr: SExpr, block: SSABlock) -> None:
        for node in expr.walk():
            if isinstance(node, SVarUse):
                node.var = self._top(node.symbol, block)
            elif isinstance(node, SLoad):
                for mu in node.mus:
                    mu.var = self._top(mu.symbol, block)

    def _rename(self) -> None:
        # Iterative preorder walk over the dominator tree with explicit
        # push bookkeeping.
        dom = self.ssa.dom
        actions: List[Tuple[str, object]] = [("visit", self.ssa.entry)]
        while actions:
            kind, payload = actions.pop()
            if kind == "pop":
                for symbol in payload:  # type: ignore[union-attr]
                    self._stacks[symbol].pop()
                continue
            block: SSABlock = payload  # type: ignore[assignment]
            pushed: List[Symbol] = []
            self._visit_block(block, pushed)
            actions.append(("pop", pushed))
            children = dom.children[block.base]
            for base in reversed(children):
                actions.append(("visit", self.ssa.block_of(base)))

    def _visit_block(self, block: SSABlock, pushed: List[Symbol]) -> None:
        for phi in block.phis:
            phi.lhs = self._define(phi.symbol, phi, block, pushed)
        for stmt in block.stmts:
            for expr in stmt.exprs():
                self._rename_expr(expr, block)
            if isinstance(stmt, SCall):
                for mu in stmt.mus:
                    mu.var = self._top(mu.symbol, block)
            if isinstance(stmt, SAssign):
                stmt.lhs = self._define(stmt.lhs, stmt, block, pushed)
            elif isinstance(stmt, SCall) and stmt.dst is not None:
                stmt.dst = self._define(stmt.dst, stmt, block, pushed)
            for chi in stmt.chis:
                chi.rhs = self._top(chi.symbol, block)
                chi.lhs = self._define(chi.symbol, chi, block, pushed)
        if block.term is not None:
            for expr in block.term.exprs():
                self._rename_expr(expr, block)
        for succ in block.succs:
            index = succ.pred_index(block)
            for phi in succ.phis:
                phi.args[index] = self._top(phi.symbol, block)


def build_ssa(module: Module, fn: Function,
              classifier: Optional[AliasClassifier] = None,
              flagger=None, refinement=None, *,
              info=None, dom=None) -> SSAFunction:
    """Build the (speculative) HSSA form of ``fn``.

    Without a ``flagger``, every µ/χ stays ``likely`` — classical HSSA.
    Pass a flagger from :mod:`repro.ssa.spec` to obtain the paper's
    speculative SSA form, and a :class:`repro.ssa.refine.
    FlowSensitivePointsTo` to shrink the µ/χ lists flow-sensitively.

    ``info`` / ``dom`` accept a precomputed
    :class:`~repro.analysis.aliasclass.FunctionAliasInfo` and
    :class:`~repro.analysis.DominatorTree` of ``fn`` — the pass
    manager's analysis cache supplies them so fallback-ladder retries
    do not recompute per-function analyses from scratch.
    """
    if classifier is None:
        classifier = AliasClassifier(module)
    return SSABuilder(module, fn, classifier, refinement,
                      info=info, dom=dom).build(flagger)
