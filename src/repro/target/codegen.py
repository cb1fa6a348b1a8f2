"""Code generation: optimized mid-level IR → :class:`MProgram`.

The translation is a straightforward tree walk — SSAPRE already did the
clever part — with two points of interest:

* **Speculative flavours.**  An :class:`~repro.ir.Assign` whose
  ``spec_kind`` is ``"advance"`` / ``"check"`` / ``"sload"`` and whose
  value is a bare memory read lowers to ``ld.a`` / ``ld.c`` / ``ld.s``
  targeting the symbol's home register; the dest register is the ALAT
  key, so the check finds the entry its advanced load armed (after
  out-of-SSA both sides of the pair collapse to one symbol, hence one
  register).  A flavoured assign whose value is a *compound* expression
  (a control-speculative insertion of a whole template) lowers its
  embedded loads as non-faulting ``ld.s`` — they execute on paths where
  the original program might not have reached them.

* **Misspeculation recovery.**  Every control-speculative assign
  (``sload``, and compound ``advance`` templates with embedded
  ``ld.s``) is followed by a ``chk.s`` on its result register: the
  emitting block is split, the check falls through to the continuation
  on a real value, and on NaT branches to an out-of-line recovery
  block that *replays the whole assign* with non-speculative ``ld.r``
  loads before jumping back to the continuation (docs/recovery.md).
  Bare ``ld.a`` advances need no ``chk.s``: their ``ld.c`` re-executes
  the load on an ALAT miss, which is already a full replay.

* **Storage classes.**  Register-candidate symbols live in virtual
  registers.  Globals and address-taken locals live in memory; their
  direct reads/writes become ``lea`` + ``ld``/``st`` — the load
  population register promotion shrinks.  Frame layout order mirrors
  the reference interpreter exactly, so concrete addresses (observable
  through pointer arithmetic) agree between the two executions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir import (AddrOf, Assign, BasicBlock, Bin, CallStmt, CondBr, Const,
                  Expr, Function, Jump, Load, Module, PrintStmt, Return,
                  Store, Symbol, Un, VarRead)
from .isa import (BIN_OP_NAMES, LOAD_OPS, UN_OP_NAMES, MBlock, MFunction,
                  MInstr, MProgram)

_SPEC_LOAD_OP = {"advance": "ld.a", "check": "ld.c", "sload": "ld.s"}


class _FunctionCodegen:
    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.out = MFunction(fn.name)
        self._reg_of: Dict[Symbol, int] = {}
        self._nregs = 0
        self._block_map: Dict[BasicBlock, MBlock] = {}
        # layout segments per IR block (head + chk.s continuations) and
        # the out-of-line recovery blocks, appended after everything
        self._segments: Dict[BasicBlock, List[MBlock]] = {}
        self._segment_of: Optional[BasicBlock] = None
        self._recovery: List[MBlock] = []
        self._nsplits = 0

    # ---- registers ------------------------------------------------------
    def _fresh_reg(self) -> int:
        reg = self._nregs
        self._nregs += 1
        return reg

    def reg_of(self, sym: Symbol) -> int:
        reg = self._reg_of.get(sym)
        if reg is None:
            reg = self._fresh_reg()
            self._reg_of[sym] = reg
        return reg

    # ---- driver ---------------------------------------------------------
    def run(self) -> MFunction:
        fn, out = self.fn, self.out
        # Parameters arrive in registers, in order.
        for sym in fn.params:
            out.param_regs.append(self.reg_of(sym))
        # Frame layout: the reference interpreter's allocation order.
        for sym in fn.locals:
            if sym.is_array:
                out.frame_allocs.append((sym, sym.array_size))
            elif sym.address_taken:
                out.frame_allocs.append((sym, 1))
        spills: List[Symbol] = []
        for sym in fn.params:
            if sym.address_taken:
                out.frame_allocs.append((sym, 1))
                spills.append(sym)

        blocks = list(fn.blocks)
        if fn.entry in blocks:  # entry leads the layout
            blocks.remove(fn.entry)
            blocks.insert(0, fn.entry)
        for block in blocks:
            self._block_map[block] = MBlock(block.name)

        entry = self._block_map[fn.entry]
        # Address-taken parameters: spill the incoming register to the
        # frame slot the rest of the function addresses.
        for sym in spills:
            addr = entry.append(MInstr("lea", self._fresh_reg(), sym=sym))
            entry.append(MInstr("st", srcs=(addr.dest, self.reg_of(sym)),
                                fp=sym.ty.is_float))

        for block in blocks:
            self._lower_block(block, self._block_map[block])
        # Layout: each block's segments in flow order (chk.s falls
        # through to its continuation), recovery blocks out of line at
        # the end so the no-misspeculation path never pays for them.
        for block in blocks:
            out.blocks.extend(self._segments[block])
        out.blocks.extend(self._recovery)
        out.nregs = self._nregs
        out.max_live = compute_max_live(out)
        return out

    # ---- expressions ----------------------------------------------------
    def _emit_expr(self, out: MBlock, expr: Expr,
                   dest: Optional[int] = None,
                   nonfaulting: bool = False) -> int:
        """Emit code evaluating ``expr``; returns the result register.

        ``dest`` pins the result into a specific register.  With
        ``nonfaulting`` every embedded memory read becomes ``ld.s``
        (the expression was hoisted to a path that may not reach the
        original load)."""
        if isinstance(expr, Const):
            instr = MInstr("movi", dest if dest is not None
                           else self._fresh_reg(), imm=expr.value)
            out.append(instr)
            return instr.dest
        if isinstance(expr, VarRead):
            sym = expr.sym
            if sym.is_array:  # array decays to its base address
                instr = out.append(MInstr("lea", dest if dest is not None
                                          else self._fresh_reg(), sym=sym))
                return instr.dest
            if sym.is_memory_resident:
                return self._emit_scalar_load(
                    out, sym, "ld.s" if nonfaulting else "ld", dest)
            reg = self.reg_of(sym)
            if dest is not None and dest != reg:
                out.append(MInstr("mov", dest, (reg,)))
                return dest
            return reg
        if isinstance(expr, AddrOf):
            instr = out.append(MInstr("lea", dest if dest is not None
                                      else self._fresh_reg(), sym=expr.sym))
            return instr.dest
        if isinstance(expr, Load):
            addr = self._emit_expr(out, expr.addr, nonfaulting=nonfaulting)
            instr = out.append(MInstr(
                "ld.s" if nonfaulting else "ld",
                dest if dest is not None else self._fresh_reg(),
                (addr,), fp=expr.value_ty.is_float))
            return instr.dest
        if isinstance(expr, Bin):
            left = self._emit_expr(out, expr.left, nonfaulting=nonfaulting)
            right = self._emit_expr(out, expr.right, nonfaulting=nonfaulting)
            instr = out.append(MInstr(
                BIN_OP_NAMES[expr.op],
                dest if dest is not None else self._fresh_reg(),
                (left, right)))
            return instr.dest
        if isinstance(expr, Un):
            operand = self._emit_expr(out, expr.operand,
                                      nonfaulting=nonfaulting)
            instr = out.append(MInstr(
                UN_OP_NAMES[expr.op],
                dest if dest is not None else self._fresh_reg(),
                (operand,)))
            return instr.dest
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

    def _emit_scalar_load(self, out: MBlock, sym: Symbol, op: str,
                          dest: Optional[int]) -> int:
        addr = out.append(MInstr("lea", self._fresh_reg(), sym=sym))
        instr = out.append(MInstr(op, dest if dest is not None
                                  else self._fresh_reg(), (addr.dest,),
                                  fp=sym.ty.is_float))
        return instr.dest

    # ---- statements -----------------------------------------------------
    def _assign_to(self, out: MBlock, sym: Symbol, value_reg: int) -> None:
        """Store ``value_reg`` into ``sym``'s home (register or memory)."""
        if sym.is_memory_resident:
            addr = out.append(MInstr("lea", self._fresh_reg(), sym=sym))
            out.append(MInstr("st", srcs=(addr.dest, value_reg),
                              fp=sym.ty.is_float))
        elif value_reg != self.reg_of(sym):
            out.append(MInstr("mov", self.reg_of(sym), (value_reg,)))

    def _lower_assign(self, out: MBlock, stmt: Assign) -> MBlock:
        """Lower one assign; returns the block subsequent code goes
        into (a new continuation when the assign grew a ``chk.s``)."""
        sym, value, kind = stmt.sym, stmt.value, stmt.spec_kind
        if kind in _SPEC_LOAD_OP and not sym.is_memory_resident:
            op = _SPEC_LOAD_OP[kind]
            start = len(out.instrs)
            compound = False
            if isinstance(value, Load):
                addr = self._emit_expr(out, value.addr)
                out.append(MInstr(op, self.reg_of(sym), (addr,),
                                  fp=value.value_ty.is_float))
            elif isinstance(value, VarRead) \
                    and value.sym.is_memory_resident:
                self._emit_scalar_load(out, value.sym, op, self.reg_of(sym))
            else:
                # Compound speculative template (control-speculative
                # insertion): no single load to flavour — evaluate it
                # with non-faulting embedded loads.
                self._emit_expr(out, value, dest=self.reg_of(sym),
                                nonfaulting=kind in ("sload", "advance"))
                compound = True
            if kind == "sload" or (kind == "advance" and compound):
                return self._emit_check(out, start, self.reg_of(sym))
            return out
        if sym.is_memory_resident:
            reg = self._emit_expr(out, value)
            self._assign_to(out, sym, reg)
        else:
            self._emit_expr(out, value, dest=self.reg_of(sym))
        return out

    def _emit_check(self, out: MBlock, start: int, reg: int) -> MBlock:
        """Terminate ``out`` with ``chk.s reg`` and build the recovery
        block: a copy of the assign's span (``out.instrs[start:]``)
        with every load replayed as non-speculative ``ld.r``, jumping
        back to the continuation block this returns."""
        self._nsplits += 1
        cont = MBlock(f"{out.name}.c{self._nsplits}")
        rec = MBlock(f"{out.name}.r{self._nsplits}")
        for instr in out.instrs[start:]:
            rec.append(MInstr("ld.r" if instr.op in LOAD_OPS else instr.op,
                              instr.dest, instr.srcs, instr.imm, instr.sym,
                              instr.callee, instr.targets, instr.fp,
                              instr.coerce))
        rec.append(MInstr("jmp", targets=(cont,)))
        out.append(MInstr("chk.s", srcs=(reg,), targets=(cont, rec)))
        self._segments[self._segment_of].append(cont)
        self._recovery.append(rec)
        return cont

    def _lower_block(self, block: BasicBlock, out: MBlock) -> None:
        self._segments[block] = [out]
        self._segment_of = block
        for stmt in block.stmts:
            if isinstance(stmt, Assign):
                out = self._lower_assign(out, stmt)
            elif isinstance(stmt, Store):
                addr = self._emit_expr(out, stmt.addr)
                value = self._emit_expr(out, stmt.value)
                out.append(MInstr("st", srcs=(addr, value),
                                  fp=stmt.value_ty.is_float,
                                  coerce=stmt.value_ty.is_float))
            elif isinstance(stmt, CallStmt):
                self._lower_call(out, stmt)
            elif isinstance(stmt, PrintStmt):
                args = [self._emit_expr(out, a) for a in stmt.args]
                out.append(MInstr("print", srcs=args))
            else:  # pragma: no cover
                raise TypeError(f"unknown statement {stmt!r}")
        term = block.terminator
        assert term is not None, f"unterminated block {block.name}"
        if isinstance(term, Jump):
            out.append(MInstr("jmp", targets=(self._block_map[term.target],)))
        elif isinstance(term, CondBr):
            cond = self._emit_expr(out, term.cond)
            out.append(MInstr("br", srcs=(cond,),
                              targets=(self._block_map[term.then_block],
                                       self._block_map[term.else_block])))
        elif isinstance(term, Return):
            srcs = ()
            if term.value is not None:
                srcs = (self._emit_expr(out, term.value),)
            out.append(MInstr("ret", srcs=srcs))
        else:  # pragma: no cover
            raise TypeError(f"unknown terminator {term!r}")

    def _lower_call(self, out: MBlock, stmt: CallStmt) -> None:
        temp = None
        if stmt.dst is not None:
            temp = (self.reg_of(stmt.dst)
                    if not stmt.dst.is_memory_resident
                    else self._fresh_reg())
        if stmt.callee in ("input", "inputf"):
            # these always produce a value (a dest-less input still
            # consumes from the stream)
            out.append(MInstr(stmt.callee,
                              temp if temp is not None
                              else self._fresh_reg()))
        elif stmt.is_alloc:
            size = self._emit_expr(out, stmt.args[0])
            out.append(MInstr("alloc",
                              temp if temp is not None
                              else self._fresh_reg(), (size,)))
        else:
            args = [self._emit_expr(out, a) for a in stmt.args]
            out.append(MInstr("call", temp, args, callee=stmt.callee))
        if stmt.dst is not None and stmt.dst.is_memory_resident:
            self._assign_to(out, stmt.dst, temp)


def compile_function(fn: Function) -> MFunction:
    """Compile one IR function to machine code."""
    return _FunctionCodegen(fn).run()


def compile_module(module: Module) -> MProgram:
    """Compile an optimized :class:`~repro.ir.Module` to a
    :class:`MProgram` ready for :func:`~repro.target.run_program`."""
    program = MProgram()
    for sym in module.globals:
        program.globals.append((sym, sym.array_size if sym.is_array else 1))
    for fn in module.functions.values():
        program.add_function(compile_function(fn))
    return program


def compute_max_live(fn: MFunction) -> int:
    """Static maximum of simultaneously-live virtual registers.

    Backward liveness over the machine CFG; the per-point peak is the
    §5.2 register-pressure proxy (what would drive Itanium's stacked
    register allocation)."""
    succs: Dict[int, List[int]] = {}
    index = {block: i for i, block in enumerate(fn.blocks)}
    for i, block in enumerate(fn.blocks):
        term = block.terminator
        succs[i] = [index[t] for t in term.targets] if term else []
    live_in: List[frozenset] = [frozenset()] * len(fn.blocks)
    live_out: List[set] = [set() for _ in fn.blocks]
    changed = True
    while changed:
        changed = False
        for i in range(len(fn.blocks) - 1, -1, -1):
            out_set = set()
            for s in succs[i]:
                out_set |= live_in[s]
            live_out[i] = out_set
            live = set(out_set)
            for instr in reversed(fn.blocks[i].instrs):
                if instr.dest is not None:
                    live.discard(instr.dest)
                live.update(instr.uses)
            frozen = frozenset(live)
            if frozen != live_in[i]:
                live_in[i] = frozen
                changed = True
    max_live = len(set(fn.param_regs))
    for i, block in enumerate(fn.blocks):
        live = set(live_out[i])
        max_live = max(max_live, len(live))
        for instr in reversed(block.instrs):
            if instr.dest is not None:
                live.discard(instr.dest)
            live.update(instr.uses)
            max_live = max(max_live, len(live))
    return max_live
