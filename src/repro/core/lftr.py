"""Linear-function test replacement (paper §1/§4, after Kennedy et
al. [20]).

After strength reduction turns ``i * c`` into a temporary ``t`` maintained
by repairs, the loop-exit comparison ``i < n`` can be rewritten to
``t < n*c``, letting dead-code elimination retire the original induction
variable when nothing else uses it.

Guards (all must hold, keeping the transformation conservative):

* the test is ``i <op> const`` at the header of a natural loop;
* strength reduction recorded ``(i, c, t)`` with the temp's Φ available at
  that header (so ``t == i*c`` holds whenever the test executes);
* every definition of ``i`` inside the loop is an injury (``i = i ± k``)
  or a φ — i.e. ``i`` is a genuine linear induction variable there;
* the stride ``c`` is a positive constant (comparison direction
  preserved); negative strides flip the comparison.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..ir import Symbol
from ..ssa import (SAssign, SBin, SCall, SCondBr, SConst, SSABlock,
                   SSAFunction, SVarUse)
from .engine import PREContext

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _iv_is_linear_in_loop(ssa: SSAFunction, loop, symbol: Symbol) -> bool:
    """Every def of ``symbol`` inside ``loop`` is i = i ± const or a φ."""
    for base in loop.blocks:
        block = ssa.block_of(base)
        for stmt in block.stmts:
            if isinstance(stmt, SAssign) and stmt.lhs.symbol is symbol:
                rhs = stmt.rhs
                linear = (
                    isinstance(rhs, SBin)
                    and rhs.op in ("+", "-")
                    and isinstance(rhs.left, SVarUse)
                    and rhs.left.symbol is symbol
                    and isinstance(rhs.right, SConst)
                )
                if not linear:
                    return False
            elif isinstance(stmt, SCall) and stmt.dst is not None \
                    and stmt.dst.symbol is symbol:
                return False
            for chi in stmt.chis:
                if chi.symbol is symbol:
                    return False
    return True


def replace_linear_tests(ctx: PREContext) -> int:
    """Apply LFTR wherever the guards hold; returns replacements made."""
    ssa = ctx.ssa
    if not ctx.sr_records:
        return 0
    records: Dict[Symbol, Tuple[float, Symbol, Set[SSABlock]]] = {}
    for iv, stride, temp, phi_blocks in ctx.sr_records:
        if isinstance(stride, int) and stride != 0:
            records[iv] = (stride, temp, phi_blocks)
    if not records:
        return 0
    replaced = 0
    for loop in ctx.loops.loops:
        header = ssa.block_of(loop.header)
        term = header.term
        if not isinstance(term, SCondBr):
            continue
        cond = term.cond
        if not (isinstance(cond, SBin) and cond.op in _FLIP):
            continue
        iv_use, bound = None, None
        flipped = False
        if isinstance(cond.left, SVarUse) and isinstance(
                cond.right, (SConst, SVarUse)):
            iv_use, bound = cond.left, cond.right
        elif isinstance(cond.right, SVarUse) and isinstance(cond.left,
                                                            SConst):
            iv_use, bound = cond.right, cond.left
            flipped = True
        if iv_use is None:
            continue
        record = records.get(iv_use.symbol)
        if record is None:
            continue
        stride, temp, phi_blocks = record
        if header not in phi_blocks:
            continue  # t == i*stride not guaranteed at this test
        if not _iv_is_linear_in_loop(ssa, loop, iv_use.symbol):
            continue
        # the header holds the temp's Φ, so this is the version live at
        # the test (the Φ, or a later def inside the header)
        t_var = ctx.version_at_end(header, temp)
        new_bound = _make_bound(ctx, loop, header, bound, stride, temp)
        if new_bound is None:
            continue
        op = cond.op if not flipped else _FLIP[cond.op]
        if stride < 0:
            op = _FLIP[op]
        t_use = SVarUse(temp, t_var)
        term.cond = (SBin(op, t_use, new_bound) if not flipped
                     else SBin(_FLIP[op], new_bound, t_use))
        replaced += 1
    return replaced


def _make_bound(ctx: PREContext, loop, header: SSABlock, bound,
                stride, temp) -> Optional[object]:
    """The replaced test compares against ``bound * stride``.

    Constant bounds fold; loop-invariant variable bounds get the multiply
    inserted into the loop preheader (the unique predecessor outside the
    loop)."""
    from ..ir import make_temp
    from ..ssa import SAssign

    if isinstance(bound, SConst):
        return SConst(bound.value * stride, temp.ty)
    # variable bound: must be loop-invariant (def dominates the header
    # from outside the loop) with a unique outside predecessor
    assert isinstance(bound, SVarUse)
    var = bound.var
    if var is None or var.def_block is None:
        return None
    ssa = ctx.ssa
    if var.def_block.base in loop.blocks:
        return None  # redefined inside the loop: not invariant
    outside_preds = [p for p in header.preds
                     if p.base not in loop.blocks]
    if len(outside_preds) != 1:
        return None
    preheader = outside_preds[0]
    if not ssa.dom.dominates(var.def_block.base, preheader.base):
        return None
    bound_temp = make_temp(temp.ty, "lftr")
    bt_var = ssa.new_version(bound_temp)
    bt_var.def_block = preheader
    assign = SAssign(bt_var, SBin("*", SVarUse(bound.symbol, var),
                                  SConst(stride, temp.ty)))
    bt_var.def_site = assign
    preheader.insert_before_term(assign)
    return SVarUse(bound_temp, bt_var)
