"""SSAPRE steps 5–6: Finalize and CodeMotion (paper §4.4, Appendix B).

**Finalize** walks the dominator tree with a scoped availability stack per
rename class and decides, for every real occurrence, whether it is a *save*
(first computation — keeps the computation, stores it into the expression
temporary ``t``) or a *reload* (redundant — replaced by ``t``), and which Φ
operands need computations *inserted* at the end of their predecessor.

**CodeMotion** materializes the decision:

* saves become ``t = E``; reloads become uses of ``t``;
* Φ operand insertions append ``t = E`` (with the operand's versions) at
  the predecessor's end — these execute speculatively on paths that never
  needed E, so they are marked ``sload`` (non-faulting, IA-64 ``ld.s``)
  when E contains a load;
* **speculative reloads** (occurrences that joined their class only by
  skipping speculative weak updates) become *check* statements
  ``t = E  [check]`` — the paper's ld.c — and every definition whose value
  can reach the check is flagged ``advance`` (ld.a), following Appendix
  B's ``Set_speculative_check_flag`` / ``Set_speculative_load_flag``;
* a check that re-validates a temp consumed by an enclosing expression
  records its ``check_source``, giving Appendix B's chk.a chaining for
  indirect references whose address is itself a checked temp;
* strength-reduction *injury repairs* insert ``t = t + Δ·stride`` after
  each injuring definition.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import Symbol, Type, make_temp
from ..ssa import (Mu, SAssign, SBin, SConst, SExpr, SLoad, SPhi, SSABlock,
                   SSAFunction, SSAVar, SUn, SVarUse)
from .engine import PREContext, SSAPRE, injury
from .occurrences import (ExprClass, InsertedOcc, LeftOcc, PhiOcc, PhiOpnd,
                          RealOcc)


class Materializer:
    """Finalize + CodeMotion for one expression class."""

    def __init__(self, pre: SSAPRE) -> None:
        self.pre = pre
        self.ctx: PREContext = pre.ctx
        self.ec: ExprClass = pre.ec
        self.ssa: SSAFunction = pre.ssa
        self._avail: Dict[int, List[object]] = {}
        self._needs_temp: Set[int] = set()  # id() of def occurrences
        self._inserted: List[InsertedOcc] = []
        self._temp: Optional[Symbol] = None
        #: statistics
        self.checks_emitted = 0
        self.reloads = 0
        self.insertions = 0

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        actions: List[Tuple[str, object]] = [("visit", self.ssa.entry)]
        dom = self.ssa.dom
        marks: List[Dict[int, int]] = []
        while actions:
            kind, payload = actions.pop()
            if kind == "pop":
                lens: Dict[int, int] = payload  # type: ignore[assignment]
                # truncate EVERY class stack to its snapshot length —
                # classes first pushed inside the subtree default to 0,
                # otherwise their entries would leak into sibling blocks
                for cls, stack in self._avail.items():
                    del stack[lens.get(cls, 0):]
                continue
            block: SSABlock = payload  # type: ignore[assignment]
            lens = {cls: len(st) for cls, st in self._avail.items()}
            self._finalize_block(block)
            actions.append(("pop", lens))
            for base in reversed(dom.children[block.base]):
                actions.append(("visit", self.ssa.block_of(base)))

    def _push(self, cls: int, occ: object) -> None:
        self._avail.setdefault(cls, []).append(occ)

    def _top(self, cls: Optional[int]) -> Optional[object]:
        if cls is None:
            return None
        stack = self._avail.get(cls)
        return stack[-1] if stack else None

    def _finalize_block(self, block: SSABlock) -> None:
        phi = self.ec.phis.get(block)
        if phi is not None and phi.will_be_avail:
            self._push(phi.cls, phi)
        for occ in self.pre._occs_by_block.get(block, ()):
            if isinstance(occ, LeftOcc):
                if occ.forwardable:
                    occ.save = True
                    self._push(occ.cls, occ)
            else:
                assert isinstance(occ, RealOcc)
                d = self._top(occ.cls)
                if d is None:
                    occ.save = True
                    self._push(occ.cls, occ)
                else:
                    occ.reload = True
                    occ.avail_def = d
                    self._needs_temp.add(id(d))
        for succ in block.succs:
            succ_phi = self.ec.phis.get(succ)
            if succ_phi is None or not succ_phi.will_be_avail:
                continue
            opnd = succ_phi.operands[succ.pred_index(block)]
            needs_insert = self._operand_needs_insert(opnd)
            if not needs_insert:
                d = opnd.def_occ
                top = self._top(getattr(d, "cls", None))
                if top is not None and not (
                    isinstance(top, PhiOcc) and not top.will_be_avail
                ) and not (
                    isinstance(top, LeftOcc) and not top.forwardable
                ):
                    opnd.def_occ = top
                    self._needs_temp.add(id(top))
                else:
                    # has_real_use promised a computed value on this
                    # path, but nothing availed dominates the edge:
                    # recompute instead.
                    needs_insert = True
            if needs_insert:
                ins = InsertedOcc(block)
                ins.versions = dict(opnd.versions)
                ins.cls = succ_phi.cls
                opnd.def_occ = ins
                opnd.insert = True
                self._inserted.append(ins)
                self._needs_temp.add(id(ins))
            self._needs_temp.add(id(succ_phi))

    @staticmethod
    def _operand_needs_insert(opnd: PhiOpnd) -> bool:
        """Kennedy et al. [21] Finalize: insert iff the operand is ⊥ or
        carries no real occurrence and is defined by an unavailable Φ."""
        if opnd.is_bottom:
            return True
        if isinstance(opnd.def_occ, PhiOcc) \
                and not opnd.def_occ.will_be_avail \
                and not opnd.has_real_use:
            return True
        # A non-forwardable store defines the value but cannot hand it
        # over in a register: recompute (load) it at the predecessor end.
        return (isinstance(opnd.def_occ, LeftOcc)
                and not opnd.def_occ.forwardable
                and not opnd.has_real_use)

    # ------------------------------------------------------------------
    # CodeMotion
    # ------------------------------------------------------------------
    def code_motion(self) -> None:
        if not self._worth_materializing():
            return
        ty = self._expr_type(self.ec.template)
        self._temp = make_temp(ty, "pre")
        self._materialize_defs()
        self._materialize_phis()
        self._materialize_reloads()
        self._materialize_injuries()
        self.ctx.invalidate_cache()

    def _worth_materializing(self) -> bool:
        if any(o.reload for o in self.ec.real_occs):
            return True
        return any(p.will_be_avail for p in self.ec.phis.values())

    @staticmethod
    def _expr_type(expr: SExpr) -> Type:
        from ..ir import INT

        if isinstance(expr, SLoad):
            return expr.value_ty
        if isinstance(expr, SVarUse):
            return expr.symbol.ty
        if isinstance(expr, SBin):
            left = Materializer._expr_type(expr.left)
            right = Materializer._expr_type(expr.right)
            from ..ir import common_arith_type
            from ..ir.expr import COMPARISON_OPS

            if expr.op in COMPARISON_OPS:
                return INT
            return common_arith_type(left, right)
        if isinstance(expr, SUn):
            return Materializer._expr_type(expr.operand)
        return INT

    def _new_temp_var(self, cls: Optional[int]) -> SSAVar:
        assert self._temp is not None
        var = self.ssa.new_version(self._temp)
        var.temp_class = (id(self.ec), cls)
        return var

    def _insert_before(self, block: SSABlock, container: object,
                       stmt: SAssign) -> None:
        stmt.block = block
        try:
            index = block.stmts.index(container)
        except ValueError:
            index = len(block.stmts)  # container is the terminator
        block.stmts.insert(index, stmt)

    def _insert_after(self, block: SSABlock, container: object,
                      stmt: SAssign) -> None:
        stmt.block = block
        index = block.stmts.index(container)
        block.stmts.insert(index + 1, stmt)

    # ---- defs ------------------------------------------------------------
    def _materialize_defs(self) -> None:
        for occ in self.ec.real_occs:
            if occ.save and id(occ) in self._needs_temp:
                var = self._new_temp_var(occ.cls)
                var.def_block = occ.block
                save = SAssign(var, occ.node)
                var.def_site = save
                self._insert_before(occ.block, occ.parent.container, save)
                occ.parent.replace(SVarUse(self._temp, var))
                occ.temp_var = var
        for occ in self.ec.left_occs:
            if occ.save and id(occ) in self._needs_temp:
                var = self._new_temp_var(occ.cls)
                var.def_block = occ.block
                value = self._clone_leaf(occ.stmt.value)
                save = SAssign(var, value)
                var.def_site = save
                self._insert_after(occ.block, occ.stmt, save)
                occ.temp_var = var
        for ins in self._inserted:
            var = self._new_temp_var(ins.cls)
            var.def_block = ins.block
            expr = self._rebuild(self.ec.template, ins.versions)
            assign = SAssign(var, expr)
            var.def_site = assign
            if self._contains_load(expr):
                assign.spec_kind = "sload"  # control speculation: ld.s
            ins.block.insert_before_term(assign)
            ins.assign = assign
            ins.temp_var = var
            self.insertions += 1

    def _materialize_phis(self) -> None:
        assert self._temp is not None
        for phi in self.ec.phis.values():
            if not phi.will_be_avail:
                continue
            var = self._new_temp_var(phi.cls)
            var.def_block = phi.block
            phi.temp_var = var
        for phi in self.ec.phis.values():
            if not phi.will_be_avail:
                continue
            sphi = SPhi(self._temp, len(phi.block.preds))
            sphi.block = phi.block
            sphi.lhs = phi.temp_var
            phi.temp_var.def_site = sphi
            for i, opnd in enumerate(phi.operands):
                sphi.args[i] = opnd.def_occ.temp_var
            phi.block.phis.append(sphi)

    # ---- reloads and checks ------------------------------------------------
    def _def_speculative(self, d: object,
                         visited: Optional[Set[int]] = None) -> bool:
        """Does the value arriving from ``d`` cross a speculative edge
        (some Φ operand matched only via weak-update skipping)?"""
        if visited is None:
            visited = set()
        if not isinstance(d, PhiOcc) or id(d) in visited:
            return False
        visited.add(id(d))
        for opnd in d.operands:
            if opnd.speculative:
                return True
            if self._def_speculative(opnd.def_occ, visited):
                return True
        return False

    def _materialize_reloads(self) -> None:
        assert self._temp is not None
        for occ in self.ec.real_occs:
            if not occ.reload:
                continue
            d = occ.avail_def
            dv = d.temp_var
            self.reloads += 1
            needs_check = (occ.speculative or self._def_speculative(d)) \
                and self.ctx.emit_checks
            if needs_check and self._contains_load(occ.node):
                var = self._new_temp_var(occ.cls)
                var.def_block = occ.block
                check = SAssign(var, occ.node)
                var.def_site = check
                check.spec_kind = "check"
                check.check_source = dv
                self._insert_before(occ.block, occ.parent.container, check)
                occ.parent.replace(SVarUse(self._temp, var))
                occ.temp_var = var
                self.checks_emitted += 1
                self._mark_advance(d)
            else:
                occ.parent.replace(SVarUse(self._temp, dv))

    def _mark_advance(self, d: object,
                      visited: Optional[Set[int]] = None) -> None:
        """Appendix B's Set_speculative_load_flag: every definition whose
        value can reach a check becomes an advanced load (ld.a)."""
        if visited is None:
            visited = set()
        if id(d) in visited:
            return
        visited.add(id(d))
        if isinstance(d, PhiOcc):
            for opnd in d.operands:
                if opnd.def_occ is not None:
                    self._mark_advance(opnd.def_occ, visited)
            return
        assign: Optional[SAssign] = None
        if isinstance(d, RealOcc):
            site = d.temp_var.def_site if d.temp_var is not None else None
            assign = site if isinstance(site, SAssign) else None
        elif isinstance(d, InsertedOcc):
            assign = d.assign
        elif isinstance(d, LeftOcc):
            return  # the store itself arms nothing; value came from a reg
        if assign is not None and assign.spec_kind in (None, "sload") \
                and self._contains_load(assign.rhs):
            assign.spec_kind = "advance"

    # ---- strength-reduction repairs -----------------------------------
    def _materialize_injuries(self) -> None:
        if self.pre.sr is None or self._temp is None:
            return
        iv, stride = self.pre.sr
        phi_blocks = {p.block for p in self.ec.phis.values()
                      if p.will_be_avail}
        self.ctx.sr_records.append((iv, stride, self._temp, phi_blocks))
        repaired: Set[int] = set()
        injury_sites: List[Tuple[object, Optional[int]]] = []
        for occ in self.ec.real_occs:
            injury_sites.extend((site, occ.cls) for site in occ.injuries)
        for phi in self.ec.phis.values():
            if not phi.will_be_avail:
                continue
            for opnd in phi.operands:
                injury_sites.extend((site, phi.cls)
                                    for site in opnd.injuries)
        for site, cls in injury_sites:
            if id(site) in repaired:
                continue
            repaired.add(id(site))
            delta = injury(site, iv)[0]
            var = self._new_temp_var(cls)
            block = site.block
            var.def_block = block
            # the repair reads the temp version live at the injury (the
            # nearest dominating def); out-of-SSA collapses every version
            # onto the shared symbol, so the version only has to satisfy
            # the SSA verifier's dominance check
            use = SVarUse(self._temp, self._temp_version_at(site))
            repair = SAssign(
                var, SBin("+", use, SConst(delta * stride, self._temp.ty))
            )
            var.def_site = repair
            self._insert_after(block, site, repair)

    def _temp_version_at(self, site: object) -> Optional[SSAVar]:
        """The version of the SSAPRE temp live just before ``site``:
        scan backwards from the site, then up the dominator tree."""
        temp = self._temp
        block = site.block
        idx = block.stmts.index(site)
        idoms = self.ssa.dom.idom
        while True:
            for stmt in reversed(block.stmts[:idx]):
                lhs = getattr(stmt, "lhs", None) or getattr(stmt, "dst",
                                                            None)
                if isinstance(lhs, SSAVar) and lhs.symbol is temp:
                    return lhs
            for phi in block.phis:
                if phi.lhs is not None and phi.lhs.symbol is temp:
                    return phi.lhs
            parent = idoms.get(block.base)
            if parent is None or parent is block.base:
                return None
            block = self.ssa.block_of(parent)
            idx = len(block.stmts)

    # ---- expression cloning ------------------------------------------------
    def _clone_leaf(self, expr: SExpr) -> SExpr:
        if isinstance(expr, SConst):
            return SConst(expr.value, expr.ty)
        assert isinstance(expr, SVarUse)
        return SVarUse(expr.symbol, expr.var)

    def _rebuild(self, template: SExpr,
                 versions: Dict[Symbol, SSAVar]) -> SExpr:
        from ..ssa import SAddrOf

        if isinstance(template, SConst):
            return SConst(template.value, template.ty)
        if isinstance(template, SAddrOf):
            return SAddrOf(template.symbol)
        if isinstance(template, SVarUse):
            return SVarUse(template.symbol,
                           versions.get(template.symbol, template.var))
        if isinstance(template, SLoad):
            addr = self._rebuild(template.addr, versions)
            own = Mu(template.own_mu.symbol, template.own_mu.likely, True)
            own.var = versions.get(template.own_mu.symbol,
                                   template.own_mu.var)
            mus = [own]
            for mu in template.mus:
                if mu.is_own:
                    continue
                clone = Mu(mu.symbol, mu.likely, False)
                clone.var = versions.get(mu.symbol, mu.var)
                mus.append(clone)
            return SLoad(addr, template.value_ty, mus, own, template.site,
                         template.orig)
        if isinstance(template, SBin):
            return SBin(template.op, self._rebuild(template.left, versions),
                        self._rebuild(template.right, versions))
        if isinstance(template, SUn):
            return SUn(template.op, self._rebuild(template.operand, versions))
        raise TypeError(f"cannot rebuild {template!r}")  # pragma: no cover

    @staticmethod
    def _contains_load(expr: SExpr) -> bool:
        for node in expr.walk():
            if isinstance(node, SLoad):
                return True
            if isinstance(node, SVarUse) and node.symbol.is_memory_resident:
                return True
        return False


def run_ssapre_on_class(ctx: PREContext, ec: ExprClass,
                        allow_data_speculation: bool = True) -> Materializer:
    """Run all six steps on one expression class; returns the materializer
    (for its statistics)."""
    pre = SSAPRE(ctx, ec, allow_data_speculation)
    pre.insert_phis()
    pre.rename()
    pre.will_be_available()
    mat = Materializer(pre)
    mat.finalize()
    mat.code_motion()
    return mat
