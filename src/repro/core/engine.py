"""The speculative SSAPRE engine — steps 1–4 of the paper's §4.

For one :class:`~repro.core.occurrences.ExprClass` this module runs:

* **Φ-Insertion** (paper Appendix A): Φs at DF⁺ of every occurrence, plus
  Φs wherever an operand variable has a φ — *traced through speculative
  weak updates*, so an expression killed only by unlikely χs still places
  its Φs;
* **Rename**: dominator-preorder renaming with an occurrence stack.  The
  paper's extension: when an occurrence's versions do not match the stack
  top directly, chase each version's def chain through speculative weak
  updates (unlikely χs); on success the occurrence joins the class with a
  speculation flag (it will need a check instruction).  Strength-reduction
  mode additionally chases *injuring* definitions (``i = i ± c``),
  recording repairs;
* **DownSafety**: Φs whose value can reach an exit or a kill without a
  real use are not down-safe, propagated backwards through Φ operands;
* **WillBeAvailable**: CanBeAvail/Later exactly as Kennedy et al. [21],
  with the control-speculation escape hatch of Lo et al. [25]: a
  non-down-safe Φ may still be made available when the edge profile (or,
  absent a profile, a loop-invariance heuristic) says the insertions are
  cheaper than the saved recomputations.

Materialization (Finalize + CodeMotion, incl. the paper's Appendix B check
generation) lives in :mod:`repro.core.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir import Symbol
from ..ssa import (Chi, SAssign, SBin, SCall, SConst, SExpr, SPhi, SReturn,
                   SSABlock, SSAFunction, SSAVar, SVarUse)
from .occurrences import (ExprClass, LeftOcc, Occurrence, PhiOcc, RealOcc,
                          leaf_versions)


@dataclass
class PREContext:
    """Shared state across expression classes and rounds."""

    ssa: SSAFunction
    control_speculation: bool = True
    edge_profile: Optional[object] = None      # profiling.EdgeProfile
    repair_injuries: bool = False              # strength-reduction mode
    emit_checks: bool = True                   # False: unsafe manual bound
    #: statistics: how many Φs were made available only by speculation
    speculated_phis: int = 0
    #: strength-reduction records for LFTR: (iv symbol, stride, temp
    #: symbol, header blocks where the temp's Φ is available)
    sr_records: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._loops = None
        self._version_at_cache: Dict[Tuple[int, int], Optional[SSAVar]] = {}

    @property
    def loops(self):
        if self._loops is None:
            from ..analysis.loops import LoopForest

            self._loops = LoopForest(self.ssa.fn, self.ssa.dom)
        return self._loops

    # ---- current version of a symbol at the end of a block ---------------
    def version_at_end(self, block: SSABlock,
                       symbol: Symbol) -> Optional[SSAVar]:
        key = (block.base.uid, symbol.uid)
        if key in self._version_at_cache:
            return self._version_at_cache[key]
        result: Optional[SSAVar] = None
        for stmt in reversed(block.stmts):
            if isinstance(stmt, SAssign) and isinstance(stmt.lhs, SSAVar) \
                    and stmt.lhs.symbol is symbol:
                result = stmt.lhs
                break
            if isinstance(stmt, SCall) and isinstance(stmt.dst, SSAVar) \
                    and stmt.dst.symbol is symbol:
                result = stmt.dst
                break
            chi_hit = None
            for chi in stmt.chis:
                if chi.symbol is symbol:
                    chi_hit = chi.lhs
            if chi_hit is not None:
                result = chi_hit
                break
        if result is None:
            for phi in block.phis:
                if phi.symbol is symbol:
                    result = phi.lhs
                    break
        if result is None:
            idom = self.ssa.dom.idom.get(block.base)
            if idom is not None:
                result = self.version_at_end(self.ssa.block_of(idom), symbol)
            else:
                # entry block: the live-on-entry version, if one was made
                result = self._entry_version(symbol)
        self._version_at_cache[key] = result
        return result

    def _entry_version(self, symbol: Symbol) -> Optional[SSAVar]:
        return self.ssa.entry_versions.get(symbol)

    def invalidate_cache(self) -> None:
        """Drop memoized version lookups (call after CodeMotion mutates the
        SSA function)."""
        self._version_at_cache.clear()


@dataclass
class ChaseResult:
    ok: bool
    speculative: bool = False
    injuries: tuple = ()


class _StackEntry:
    __slots__ = ("occ", "versions", "used", "cls")

    def __init__(self, occ: Occurrence, versions, cls: int) -> None:
        self.occ = occ
        self.versions = versions  # dict for Real/Left, None for Phi
        self.used = False
        self.cls = cls


class SSAPRE:
    """Runs the analysis steps for one expression class."""

    def __init__(self, ctx: PREContext, ec: ExprClass,
                 allow_data_speculation: bool = True) -> None:
        self.ctx = ctx
        self.ec = ec
        self.ssa = ctx.ssa
        self.allow_data_speculation = allow_data_speculation
        self._next_cls = 0
        #: leaf symbols of the expression (versions signature domain)
        self.leaf_symbols: List[Symbol] = sorted(
            leaf_versions(ec.template), key=lambda s: s.uid
        ) if ec.template is not None else []
        #: ``(iv, stride)`` in strength-reduction mode for ``iv * const``
        #: templates; only the induction operand may be matched through
        #: injuring defs
        self.sr: Optional[Tuple[Symbol, object]] = (
            sr_template(ec.template) if ctx.repair_injuries else None)
        self._occs_by_block: Dict[SSABlock, List[Occurrence]] = {}
        for occ in ec.real_occs:
            self._occs_by_block.setdefault(occ.block, []).append(occ)
        for occ in ec.left_occs:
            self._occs_by_block.setdefault(occ.block, []).append(occ)
        for occs in self._occs_by_block.values():
            occs.sort(key=lambda o: o.seq)

    # ------------------------------------------------------------------
    # Step 1: Φ-Insertion (Appendix A)
    # ------------------------------------------------------------------
    def insert_phis(self) -> None:
        dom = self.ssa.dom
        df_blocks: Set[object] = set()
        occ_blocks = [o.block.base for o in self.ec.real_occs]
        occ_blocks += [o.block.base for o in self.ec.left_occs]
        df_blocks |= dom.iterated_frontier(occ_blocks)
        # Appendix A: Φs where operand variables merge — traced through
        # speculative weak updates (χ without flags).
        visited_phis: Set[SPhi] = set()
        for occ in self.ec.real_occs:
            for var in leaf_versions(occ.node).values():
                self._operand_phi_walk(var, visited_phis, df_blocks)
        for phi_stmt in visited_phis:
            df_blocks.add(phi_stmt.block.base)
        # Close under DF⁺ again (Φ blocks are merge points whose own DF may
        # demand further Φs) — cheap and keeps placement canonical.
        df_blocks |= dom.iterated_frontier(df_blocks)
        for base in df_blocks:
            block = self.ssa.block_of(base)
            if len(block.preds) < 2:
                continue
            if block not in self.ec.phis:
                self.ec.phis[block] = PhiOcc(block)

    def _operand_phi_walk(self, var: SSAVar, visited: Set[SPhi],
                          df_blocks: Set[object]) -> None:
        """Appendix A's ``while v is defined by χ without speculation
        flags: v ← operand of χ`` walk, recursing through φ operands."""
        var = self._skip_weak_defs(var)
        site = var.def_site
        if isinstance(site, SPhi) and site not in visited:
            visited.add(site)
            for arg in site.args:
                if arg is not None:
                    self._operand_phi_walk(arg, visited, df_blocks)

    def _skip_weak_defs(self, var: SSAVar) -> SSAVar:
        while isinstance(var.def_site, Chi):
            chi: Chi = var.def_site
            if chi.likely or not self.allow_data_speculation:
                break
            assert chi.rhs is not None
            var = chi.rhs
        return var

    # ------------------------------------------------------------------
    # Step 2: Rename
    # ------------------------------------------------------------------
    def rename(self) -> None:
        stack: List[_StackEntry] = []
        actions: List[Tuple[str, object]] = [("visit", self.ssa.entry)]
        dom = self.ssa.dom
        while actions:
            kind, payload = actions.pop()
            if kind == "pop":
                del stack[payload:]  # type: ignore[arg-type]
                continue
            block: SSABlock = payload  # type: ignore[assignment]
            depth = len(stack)
            self._rename_block(block, stack)
            actions.append(("pop", depth))
            for base in reversed(dom.children[block.base]):
                actions.append(("visit", self.ssa.block_of(base)))
        # propagate ¬downsafe backwards through Φ operands without real use
        worklist = [p for p in self.ec.phis.values() if not p.downsafe]
        while worklist:
            phi = worklist.pop()
            for opnd in phi.operands:
                d = opnd.def_occ
                if (isinstance(d, PhiOcc) and not opnd.has_real_use
                        and d.downsafe):
                    d.downsafe = False
                    worklist.append(d)

    def _new_class(self) -> int:
        self._next_cls += 1
        return self._next_cls

    def _rename_block(self, block: SSABlock,
                      stack: List[_StackEntry]) -> None:
        phi = self.ec.phis.get(block)
        if phi is not None:
            phi.cls = self._new_class()
            stack.append(_StackEntry(phi, None, phi.cls))
        for occ in self._occs_by_block.get(block, ()):
            if isinstance(occ, LeftOcc):
                self._rename_left(occ, stack)
            else:
                self._rename_real(occ, stack)  # type: ignore[arg-type]
        if isinstance(block.term, SReturn) and stack:
            top = stack[-1]
            if isinstance(top.occ, PhiOcc) and not top.used:
                top.occ.downsafe = False
        for succ in block.succs:
            succ_phi = self.ec.phis.get(succ)
            if succ_phi is not None:
                self._rename_phi_operand(block, succ, succ_phi, stack)

    def _left_versions(self, occ: LeftOcc) -> Dict[Symbol, SSAVar]:
        versions = leaf_versions(occ.stmt.addr)
        own_chi = next(c for c in occ.stmt.chis if c.is_own)
        assert own_chi.lhs is not None
        versions[own_chi.symbol] = own_chi.lhs
        return versions

    def _rename_left(self, occ: LeftOcc,
                     stack: List[_StackEntry]) -> None:
        # A store of the shape always (re)defines the expression value.
        if stack and isinstance(stack[-1].occ, PhiOcc) \
                and not stack[-1].used:
            stack[-1].occ.downsafe = False
        occ.versions = self._left_versions(occ)
        occ.cls = self._new_class()
        entry = _StackEntry(occ, occ.versions, occ.cls)
        entry.used = True  # a definition counts as a real occurrence
        stack.append(entry)

    def _rename_real(self, occ: RealOcc,
                     stack: List[_StackEntry]) -> None:
        occ.versions = leaf_versions(occ.node)
        if stack:
            top = stack[-1]
            res = self._match(top, occ.versions)
            if res.ok:
                occ.cls = top.cls
                occ.speculative = res.speculative
                occ.injuries = list(res.injuries)
                top.used = True
                if isinstance(top.occ, PhiOcc):
                    top.occ.used = True
                return
            if isinstance(top.occ, PhiOcc) and not top.used:
                top.occ.downsafe = False
        occ.cls = self._new_class()
        entry = _StackEntry(occ, occ.versions, occ.cls)
        entry.used = True
        stack.append(entry)

    def _rename_phi_operand(self, pred: SSABlock, succ: SSABlock,
                            phi: PhiOcc, stack: List[_StackEntry]) -> None:
        opnd = phi.operands[succ.pred_index(pred)]
        versions: Dict[Symbol, SSAVar] = {}
        complete = True
        for symbol in self.leaf_symbols:
            var = self.ctx.version_at_end(pred, symbol)
            if var is None:
                complete = False
                break
            versions[symbol] = var
        opnd.versions = versions if complete else None
        if not stack or not complete:
            opnd.def_occ = None
            return
        top = stack[-1]
        res = self._match(top, versions)
        if not res.ok:
            if isinstance(top.occ, PhiOcc) and not top.used:
                top.occ.downsafe = False
            opnd.def_occ = None
            return
        opnd.def_occ = top.occ
        opnd.speculative = res.speculative
        opnd.injuries = list(res.injuries)
        opnd.has_real_use = top.used

    # ---- version matching with weak-update skipping -----------------------
    def _match(self, entry: _StackEntry, versions) -> ChaseResult:
        speculative = False
        injuries: List[object] = []
        for symbol in self.leaf_symbols:
            current = versions.get(symbol)
            if current is None:
                return ChaseResult(False)
            if entry.versions is not None:
                target = entry.versions.get(symbol)
                if target is None:
                    return ChaseResult(False)
                res = self._chase(current, lambda v, t=target: v is t,
                                  symbol)
            else:
                phi_block = entry.occ.block  # type: ignore[union-attr]
                res = self._chase(
                    current,
                    lambda v, b=phi_block: self._at_or_above(v, b),
                    symbol,
                )
            if not res.ok:
                return ChaseResult(False)
            speculative |= res.speculative
            injuries.extend(res.injuries)
        return ChaseResult(True, speculative, tuple(injuries))

    def _at_or_above(self, var: SSAVar, block: SSABlock) -> bool:
        """Is ``var``'s value already current at the *start* of ``block``?"""
        if var.def_site == "entry":
            return True
        def_block = var.def_block
        if def_block is None:
            return False
        if def_block is block:
            return isinstance(var.def_site, SPhi)
        return self.ssa.dom.strictly_dominates(def_block.base, block.base)

    def _chase(self, var: SSAVar, accept: Callable[[SSAVar], bool],
               symbol: Symbol) -> ChaseResult:
        speculative = False
        injuries: List[object] = []
        v = var
        for _ in range(10_000):  # def chains are acyclic; belt and braces
            if accept(v):
                return ChaseResult(True, speculative, tuple(injuries))
            site = v.def_site
            if isinstance(site, Chi) and not site.likely \
                    and self.allow_data_speculation:
                assert site.rhs is not None
                v = site.rhs
                speculative = True
                continue
            if isinstance(site, SAssign) and site.spec_kind == "check" \
                    and site.check_source is not None \
                    and self.allow_data_speculation:
                # Appendix B: an address defined by a speculative check —
                # chase to the version the check re-validates (chk.a).
                v = site.check_source
                speculative = True
                continue
            if self.sr is not None and self.sr[0] is symbol:
                hurt = injury(site, symbol)
                if hurt is not None:
                    injuries.append(site)
                    v = hurt[1]
                    continue
            return ChaseResult(False)
        return ChaseResult(False)  # pragma: no cover

    # ------------------------------------------------------------------
    # Step 4: WillBeAvailable (CanBeAvail + Later)
    # ------------------------------------------------------------------
    def will_be_available(self) -> None:
        phis = list(self.ec.phis.values())
        # Propagate "used" backwards: a Φ feeding a used Φ is used too.
        # Control speculation must never rescue a Φ whose merged value no
        # occurrence consumes — the insertions would be pure overhead and
        # may even read variables with no value yet on the inserted path.
        changed = True
        while changed:
            changed = False
            for phi in phis:
                if not phi.used:
                    continue
                for opnd in phi.operands:
                    d = opnd.def_occ
                    if isinstance(d, PhiOcc) and not d.used:
                        d.used = True
                        changed = True
        # An operand with no computable versions on its edge (a leaf
        # variable has no value there) is ⊥, so it needs an insertion that
        # cannot be built: its Φ cannot be made available.
        for phi in phis:
            if phi.can_be_avail and any(op.versions is None
                                        for op in phi.operands):
                self._reset_can_be_avail(phi)
        # CanBeAvail with the control-speculation escape.
        for phi in phis:
            if not phi.can_be_avail:
                continue
            if phi.downsafe:
                continue
            if any(op.is_bottom for op in phi.operands):
                if self._speculate(phi):
                    phi.speculated = True
                    self.ctx.speculated_phis += 1
                else:
                    self._reset_can_be_avail(phi)
        # Later
        for phi in phis:
            phi.later = phi.can_be_avail
        for phi in phis:
            if phi.later and any(
                (not op.is_bottom) and op.has_real_use
                for op in phi.operands
            ):
                self._reset_later(phi)

    def _reset_can_be_avail(self, phi: PhiOcc) -> None:
        phi.can_be_avail = False
        for other in self.ec.phis.values():
            for opnd in other.operands:
                if opnd.def_occ is phi and not opnd.has_real_use:
                    if other.can_be_avail and not (
                        other.downsafe or self._speculate(other)
                    ):
                        self._reset_can_be_avail(other)

    def _reset_later(self, phi: PhiOcc) -> None:
        phi.later = False
        for other in self.ec.phis.values():
            if other.later and any(
                opnd.def_occ is phi for opnd in other.operands
            ):
                self._reset_later(other)

    # ---- control-speculation profitability ----------------------------
    def _speculate(self, phi: PhiOcc) -> bool:
        if not self.ctx.control_speculation:
            return False
        if not phi.used:
            return False  # no consumer: speculation cannot pay off
        profile = self.ctx.edge_profile
        if profile is not None:
            insert_w = sum(
                profile.freq(op.pred.base)
                for op in phi.operands
                if op.is_bottom or not op.has_real_use
            )
            use_w = sum(
                profile.freq(occ.block.base)
                for occ in self.ec.real_occs
                if self.ssa.dominates(phi.block, occ.block)
            )
            return use_w > insert_w
        # No profile: classic loop-invariant speculation — the Φ sits at a
        # loop header and all missing operands flow in from outside the
        # loop (hoisting the expression into the preheader).  An operand
        # counts as missing when it is ⊥ or fed by a Φ that cannot be
        # made available (the nested-loop cascade: the outer header's Φ
        # dies, the inner header's Φ still deserves a preheader insert).
        loop = self.ctx.loops.innermost(phi.block.base)
        if loop is None:
            return False
        if loop.header is not phi.block.base:
            return False
        missing = [
            op for op in phi.operands
            if op.is_bottom
            or (isinstance(op.def_occ, PhiOcc)
                and not op.def_occ.can_be_avail
                and not op.has_real_use)
        ]
        return bool(missing) and all(
            op.pred.base not in loop.blocks for op in missing
        )


# ---- strength-reduction recognition ---------------------------------------


def sr_template(t: Optional[SExpr]) -> Optional[Tuple[Symbol, object]]:
    """``(iv, stride)`` if ``t`` is a strength-reduction candidate
    ``iv * const`` (either operand order); else None."""
    if isinstance(t, SBin) and t.op == "*":
        if isinstance(t.left, SVarUse) and isinstance(t.right, SConst):
            return t.left.symbol, t.right.value
        if isinstance(t.right, SVarUse) and isinstance(t.left, SConst):
            return t.right.symbol, t.left.value
    return None


def injury(site: object, iv: Symbol) -> Optional[Tuple[object, SSAVar]]:
    """If ``site`` is an injuring def ``iv = iv ± const`` (or
    ``iv = const + iv``), return ``(delta, source version)``; else None."""
    if not isinstance(site, SAssign) or not isinstance(site.lhs, SSAVar) \
            or site.lhs.symbol is not iv:
        return None
    rhs = site.rhs
    if not isinstance(rhs, SBin) or rhs.op not in ("+", "-"):
        return None
    if (isinstance(rhs.left, SVarUse) and rhs.left.symbol is iv
            and isinstance(rhs.right, SConst)):
        value = rhs.right.value
        return (-value if rhs.op == "-" else value), rhs.left.var
    if (rhs.op == "+" and isinstance(rhs.right, SVarUse)
            and rhs.right.symbol is iv and isinstance(rhs.left, SConst)):
        return rhs.left.value, rhs.right.var
    return None
