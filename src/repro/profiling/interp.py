"""Reference interpreter for the mid-level IR.

The interpreter serves three roles in the reproduction:

1. **Profiling substrate** — it executes the program on a *train* input
   while :class:`Tracer` observers collect the alias profile (LOC sets per
   indirect reference and call site, §3.2.1), the edge profile (for control
   speculation) and the dynamic load-reuse numbers of Figure 12.
2. **Correctness oracle** — the observable output (``print``) of the
   optimized, simulated machine code must match the interpreter's output on
   the original IR; this is how the test suite checks that ALAT-checked data
   speculation never changes program semantics.
3. **Semantics definition** — C-like integer division/remainder (truncating
   toward zero), cell-addressed memory, array decay.

Memory model: a bump allocator hands out cell addresses for globals, for
address-taken locals/arrays (per frame) and for heap objects (per executed
``alloc``).  Every allocation is registered with its abstract memory
location (LOC) so tracers can map concrete addresses back to LOCs.

Execution model: instead of re-walking the IR tree per statement, each
function is flattened **once per interpreter** (on its first call) into a
graph of :class:`_CBlock` records whose statements and expressions are
pre-compiled Python closures.  The flattening resolves everything that is
static — operand storage class, binary/unary opcode, global addresses,
float coercions, whether any tracer is attached — so the per-execution
work is just calling the closures.  Observable behaviour (output, memory
layout, tracer event streams, error messages, fuel accounting) is
identical to the tree-walking evaluator this replaced; the wall-clock
difference is measured by ``benchmarks/test_compiler_perf.py``.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.locs import HeapLoc, Loc
from ..errors import FuelExhausted
from ..ir import (AddrOf, Assign, BasicBlock, Bin, CallStmt, CondBr, Const,
                  Expr, Function, Jump, Load, Module, PrintStmt, Return,
                  StorageKind, Store, Symbol, Un, VarRead)

Value = Union[int, float]


class InterpError(Exception):
    """Raised on a runtime error (bad address, missing main, fuel
    exhausted)."""


class InterpFuelExhausted(FuelExhausted, InterpError):
    """Fuel ran out in the reference interpreter.  Carries function +
    block context for the driver's diagnostics."""

    def __init__(self, function: str, block: str) -> None:
        super().__init__(
            f"fuel exhausted (infinite loop?) in {function} at block "
            f"{block}")
        self.function = function
        self.instruction = block


class Tracer:
    """Observer interface; all hooks are optional no-ops.

    ``site`` identities: indirect loads are identified by ``id(expr)``,
    stores by ``id(stmt)``, calls by ``stmt.site_id`` — the same keys the
    SSA construction uses, so profiles can be applied directly.
    """

    def on_load(self, fn: Function, expr: Load, addr: int, value: Value,
                loc: Optional[Loc], offset: int = 0) -> None:
        """An indirect load executed (``offset`` = cell within LOC)."""

    def on_store(self, fn: Function, stmt: Store, addr: int, value: Value,
                 loc: Optional[Loc], offset: int = 0) -> None:
        """An indirect store executed (``offset`` = cell within LOC)."""

    def on_scalar_read(self, fn: Function, sym: Symbol, value: Value) -> None:
        """A memory-resident scalar (global / address-taken) was read."""

    def on_scalar_write(self, fn: Function, sym: Symbol) -> None:
        """A memory-resident scalar (global / address-taken) was assigned
        to directly (``Assign``; indirect stores fire :meth:`on_store`)."""

    def on_edge(self, fn: Function, src: BasicBlock, dst: BasicBlock) -> None:
        """A CFG edge was traversed."""

    def on_call_enter(self, fn: Function, stmt: CallStmt) -> None:
        """A non-intrinsic call is about to execute (site active)."""

    def on_call_exit(self, fn: Function, stmt: CallStmt) -> None:
        """The call at ``stmt`` returned."""

    def on_function_enter(self, fn: Function) -> None:
        """A new invocation of ``fn`` began."""

    def on_function_exit(self, fn: Function) -> None:
        """The invocation returned."""


def c_div(a: Value, b: Value) -> Value:
    """C-style division: floats divide exactly, ints truncate toward 0."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_rem(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend.  The quotient logic
    is ``c_div`` unfolded in place — ``rem`` is hot in the pointer-chasing
    workloads and the extra call showed up in simulator profiles."""
    if b == 0:
        raise InterpError("integer remainder by zero")
    if isinstance(a, float) or isinstance(b, float):
        return a - a / b * b
    q = abs(a) // abs(b)
    return a - (q if (a >= 0) == (b >= 0) else -q) * b


_BIN_FUNCS: Dict[str, Callable[[Value, Value], Value]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": c_div,
    "%": c_rem,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}


class _Frame:
    """One function invocation: register values + addresses of memory-
    resident locals."""

    __slots__ = ("fn", "regs", "addr_of")

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.regs: Dict[Symbol, Value] = {}
        self.addr_of: Dict[Symbol, int] = {}


# _CBlock terminator kinds, hottest first in the dispatch chain.
_JUMP, _CONDBR, _RETURN, _BAD = range(4)


class _CBlock:
    """A basic block flattened to closures.  ``stmts`` are thunks taking
    the frame; the terminator is pre-decoded into ``kind`` plus direct
    references to successor ``_CBlock`` s (no name/dict lookups on the
    block-to-block transition)."""

    __slots__ = ("name", "block", "stmts", "kind", "value", "cond",
                 "target", "then_t", "else_t")

    def __init__(self, block: BasicBlock) -> None:
        self.name = block.name
        self.block = block
        self.stmts: Tuple[Callable[[_Frame], None], ...] = ()
        self.kind = _JUMP
        self.value = None   # Return value closure, or the bad terminator
        self.cond = None    # CondBr condition closure
        self.target = self  # Jump successor
        self.then_t = self  # CondBr successors
        self.else_t = self


class _CFunc:
    """A compiled function: entry block + the frame-setup plan."""

    __slots__ = ("entry", "local_plan", "param_plan")

    def __init__(self, entry: _CBlock,
                 local_plan: Tuple[Tuple[Symbol, int], ...],
                 param_plan: Tuple[Tuple[Symbol, bool], ...]) -> None:
        self.entry = entry
        self.local_plan = local_plan  # (sym, cells); 0 cells = register
        self.param_plan = param_plan  # (sym, address_taken)


class Interpreter:
    """Executes a module's ``main``; collects ``print`` output."""

    def __init__(
        self,
        module: Module,
        tracers: Sequence[Tracer] = (),
        fuel: int = 50_000_000,
    ) -> None:
        self.module = module
        self.tracers = list(tracers)
        self.fuel = fuel
        self.memory: Dict[int, Value] = {}
        self.output: List[str] = []
        self._next_addr = 16  # keep 0 as a recognizable null
        self._region_starts: List[int] = []
        self._regions: List[Tuple[int, int, Loc]] = []
        self._global_addr: Dict[Symbol, int] = {}
        self.inputs: List[Value] = []
        self._input_pos = 0
        self._compiled: Dict[Function, _CFunc] = {}
        self._allocate_globals()

    # ---- memory ---------------------------------------------------------
    def _allocate(self, cells: int, loc: Loc) -> int:
        base = self._next_addr
        self._next_addr += max(cells, 1) + 1  # +1 guard cell between objects
        for i in range(max(cells, 1)):
            self.memory[base + i] = 0
        self._region_starts.append(base)
        self._regions.append((base, base + max(cells, 1), loc))
        return base

    def _allocate_globals(self) -> None:
        for sym in self.module.globals:
            cells = sym.array_size if sym.is_array else 1
            self._global_addr[sym] = self._allocate(cells, sym)

    def loc_of_addr(self, addr: int) -> Optional[Loc]:
        """Map a concrete address to its LOC (None when out of range)."""
        found = self.loc_and_offset(addr)
        return found[0] if found is not None else None

    def loc_and_offset(self, addr: int):
        """Map an address to (LOC, offset within the LOC), or None.

        The offset enables sub-object LOC naming in the alias profiler
        (the granularity knob of Chen et al. [4] that the paper's §3.2.1
        references for heap objects).
        """
        index = bisect.bisect_right(self._region_starts, addr) - 1
        if index < 0:
            return None
        start, end, loc = self._regions[index]
        if start <= addr < end:
            return loc, addr - start
        return None

    def _next_input(self) -> Value:
        if self._input_pos >= len(self.inputs):
            raise InterpError("input stream exhausted")
        value = self.inputs[self._input_pos]
        self._input_pos += 1
        return value

    # ---- running ---------------------------------------------------------
    def run(self) -> List[str]:
        """Execute ``main()``; returns the collected output lines."""
        if "main" not in self.module.functions:
            raise InterpError("module has no main()")
        self._call(self.module.functions["main"], [])
        return self.output

    def _call(self, fn: Function, args: List[Value]) -> Optional[Value]:
        if len(args) != len(fn.params):
            raise InterpError(f"{fn.name}: arity mismatch")
        cfn = self._compiled.get(fn)
        if cfn is None:
            cfn = self._compiled[fn] = self._compile_fn(fn)
        frame = _Frame(fn)
        tracers = self.tracers
        for tracer in tracers:
            tracer.on_function_enter(fn)
        regs = frame.regs
        addr_of = frame.addr_of
        for sym, cells in cfn.local_plan:
            if cells:
                addr_of[sym] = self._allocate(cells, sym)
            else:
                regs[sym] = 0
        for (sym, taken), value in zip(cfn.param_plan, args):
            if taken:
                addr = addr_of[sym] = self._allocate(1, sym)
                self.memory[addr] = value
            else:
                regs[sym] = value

        cb = cfn.entry
        if tracers:
            while True:
                for thunk in cb.stmts:
                    thunk(frame)
                self.fuel -= 1
                if self.fuel <= 0:
                    raise InterpFuelExhausted(fn.name, cb.name)
                kind = cb.kind
                if kind == _JUMP:
                    nxt = cb.target
                elif kind == _CONDBR:
                    nxt = cb.then_t if cb.cond(frame) else cb.else_t
                elif kind == _RETURN:
                    value = cb.value
                    result = value(frame) if value is not None else None
                    for tracer in tracers:
                        tracer.on_function_exit(fn)
                    return result
                else:  # pragma: no cover
                    raise InterpError(f"unknown terminator {cb.value!r}")
                for tracer in tracers:
                    tracer.on_edge(fn, cb.block, nxt.block)
                cb = nxt
        while True:
            for thunk in cb.stmts:
                thunk(frame)
            self.fuel -= 1
            if self.fuel <= 0:
                raise InterpFuelExhausted(fn.name, cb.name)
            kind = cb.kind
            if kind == _JUMP:
                cb = cb.target
            elif kind == _CONDBR:
                cb = cb.then_t if cb.cond(frame) else cb.else_t
            elif kind == _RETURN:
                value = cb.value
                return value(frame) if value is not None else None
            else:  # pragma: no cover
                raise InterpError(f"unknown terminator {cb.value!r}")

    # ---- function flattening ----------------------------------------------
    def _compile_fn(self, fn: Function) -> _CFunc:
        local_plan = tuple(
            (sym, sym.array_size if sym.is_array
             else (1 if sym.address_taken else 0))
            for sym in fn.locals)
        param_plan = tuple((sym, bool(sym.address_taken))
                           for sym in fn.params)
        cblocks: Dict[BasicBlock, _CBlock] = {}
        worklist: List[BasicBlock] = []

        def get(block: BasicBlock) -> _CBlock:
            cb = cblocks.get(block)
            if cb is None:
                cb = cblocks[block] = _CBlock(block)
                worklist.append(block)
            return cb

        entry = get(fn.entry)
        while worklist:
            block = worklist.pop()
            cb = cblocks[block]
            stmts = [self._compile_stmt(fn, s) for s in block.stmts]
            term = block.terminator
            if term is None:
                # Fires after the statements, before the fuel charge —
                # exactly where the tree-walker's assert sat.
                def no_term(frame):
                    raise AssertionError("block has no terminator")
                stmts.append(no_term)
            elif isinstance(term, Return):
                cb.kind = _RETURN
                cb.value = (self._compile_expr(fn, term.value)
                            if term.value is not None else None)
            elif isinstance(term, Jump):
                cb.kind = _JUMP
                cb.target = get(term.target)
            elif isinstance(term, CondBr):
                cb.kind = _CONDBR
                cb.cond = self._compile_expr(fn, term.cond)
                cb.then_t = get(term.then_block)
                cb.else_t = get(term.else_block)
            else:  # pragma: no cover
                cb.kind = _BAD
                cb.value = term  # reported after the fuel charge
            cb.stmts = tuple(stmts)
        return _CFunc(entry, local_plan, param_plan)

    # ---- statements -------------------------------------------------------
    def _compile_stmt(self, fn: Function,
                      stmt) -> Callable[[_Frame], None]:
        tracers = self.tracers
        memory = self.memory
        if isinstance(stmt, Assign):
            value_c = self._compile_expr(fn, stmt.value)
            sym = stmt.sym
            if sym.kind is StorageKind.GLOBAL:
                addr = self._global_addr[sym]
                if tracers:
                    def assign_g(frame, value_c=value_c, addr=addr, sym=sym):
                        value = value_c(frame)
                        memory[addr] = value
                        for tracer in tracers:
                            tracer.on_scalar_write(fn, sym)
                    return assign_g
                def assign_g(frame, value_c=value_c, addr=addr):
                    memory[addr] = value_c(frame)
                return assign_g
            if sym.is_array or sym.address_taken:
                if tracers:
                    def assign_m(frame, value_c=value_c, sym=sym):
                        value = value_c(frame)
                        memory[frame.addr_of[sym]] = value
                        for tracer in tracers:
                            tracer.on_scalar_write(fn, sym)
                    return assign_m
                def assign_m(frame, value_c=value_c, sym=sym):
                    memory[frame.addr_of[sym]] = value_c(frame)
                return assign_m
            def assign_r(frame, value_c=value_c, sym=sym):
                frame.regs[sym] = value_c(frame)
            return assign_r
        if isinstance(stmt, Store):
            addr_c = self._compile_expr(fn, stmt.addr)
            value_c = self._compile_expr(fn, stmt.value)
            to_float = stmt.value_ty.is_float
            if tracers:
                loc_and_offset = self.loc_and_offset

                def store_t(frame, addr_c=addr_c, value_c=value_c,
                            to_float=to_float, stmt=stmt):
                    addr = int(addr_c(frame))
                    value = value_c(frame)
                    if to_float:
                        value = float(value)
                    if addr not in memory:
                        raise InterpError(
                            f"store to unallocated address {addr}")
                    memory[addr] = value
                    found = loc_and_offset(addr)
                    loc, offset = found if found is not None else (None, 0)
                    for tracer in tracers:
                        tracer.on_store(fn, stmt, addr, value, loc, offset)
                return store_t

            def store(frame, addr_c=addr_c, value_c=value_c,
                      to_float=to_float):
                addr = int(addr_c(frame))
                value = value_c(frame)
                if to_float:
                    value = float(value)
                if addr not in memory:
                    raise InterpError(f"store to unallocated address {addr}")
                memory[addr] = value
            return store
        if isinstance(stmt, CallStmt):
            return self._compile_call(fn, stmt)
        if isinstance(stmt, PrintStmt):
            arg_cs = tuple(self._compile_expr(fn, a) for a in stmt.args)
            output = self.output
            fmt = self._format

            def print_(frame, arg_cs=arg_cs):
                output.append(" ".join(fmt(c(frame)) for c in arg_cs))
            return print_

        def bad_stmt(frame, stmt=stmt):  # pragma: no cover
            raise InterpError(f"unknown statement {stmt!r}")
        return bad_stmt

    def _compile_call(self, fn: Function,
                      stmt: CallStmt) -> Callable[[_Frame], None]:
        tracers = self.tracers
        memory = self.memory
        dst = stmt.dst
        if stmt.callee in ("input", "inputf"):
            conv = float if stmt.callee == "inputf" else int
            next_input = self._next_input

            def input_(frame, conv=conv, dst=dst):
                value = conv(next_input())
                if dst is not None:
                    frame.regs[dst] = value
            return input_
        if stmt.is_alloc:
            size_c = self._compile_expr(fn, stmt.args[0])
            site_id = stmt.site_id
            allocate = self._allocate

            def alloc(frame, size_c=size_c, site_id=site_id, dst=dst):
                size = int(size_c(frame))
                assert site_id is not None
                base = allocate(size, HeapLoc(site_id))
                if dst is not None:
                    frame.regs[dst] = base
            return alloc
        arg_cs = tuple(self._compile_expr(fn, a) for a in stmt.args)
        functions = self.module.functions
        name = stmt.callee
        call = self._call
        # Pre-decode the destination write (same classes as Assign; direct
        # scalar writes of call results fire no hook — call_mod already
        # includes the callee's effects).
        if dst is None:
            write = None
        elif dst.kind is StorageKind.GLOBAL:
            dst_addr = self._global_addr[dst]

            def write(frame, result, dst_addr=dst_addr):
                memory[dst_addr] = result
        elif dst.is_array or dst.address_taken:
            def write(frame, result, dst=dst):
                memory[frame.addr_of[dst]] = result
        else:
            def write(frame, result, dst=dst):
                frame.regs[dst] = result

        if tracers:
            def call_t(frame, arg_cs=arg_cs, name=name, stmt=stmt,
                       write=write):
                callee = functions[name]
                args = [c(frame) for c in arg_cs]
                for tracer in tracers:
                    tracer.on_call_enter(fn, stmt)
                result = call(callee, args)
                for tracer in tracers:
                    tracer.on_call_exit(fn, stmt)
                if write is not None:
                    if result is None:
                        raise InterpError(f"void call result used: {stmt}")
                    write(frame, result)
            return call_t

        def call_(frame, arg_cs=arg_cs, name=name, stmt=stmt, write=write):
            callee = functions[name]
            args = [c(frame) for c in arg_cs]
            result = call(callee, args)
            if write is not None:
                if result is None:
                    raise InterpError(f"void call result used: {stmt}")
                write(frame, result)
        return call_

    # ---- expressions --------------------------------------------------------
    def _compile_expr(self, fn: Function,
                      expr: Expr) -> Callable[[_Frame], Value]:
        tracers = self.tracers
        memory = self.memory
        if isinstance(expr, Const):
            value = expr.value

            def const(frame, value=value):
                return value
            return const
        if isinstance(expr, VarRead):
            sym = expr.sym
            if sym.is_array:
                return self._compile_addr_of(fn, sym)
            if sym.kind is StorageKind.GLOBAL:
                addr = self._global_addr[sym]
                if tracers:
                    def read_g(frame, addr=addr, sym=sym):
                        value = memory[addr]
                        for tracer in tracers:
                            tracer.on_scalar_read(fn, sym, value)
                        return value
                    return read_g

                def read_g(frame, addr=addr):
                    return memory[addr]
                return read_g
            if sym.address_taken:
                if tracers:
                    def read_m(frame, sym=sym):
                        value = memory[frame.addr_of[sym]]
                        for tracer in tracers:
                            tracer.on_scalar_read(fn, sym, value)
                        return value
                    return read_m

                def read_m(frame, sym=sym):
                    return memory[frame.addr_of[sym]]
                return read_m

            def read_r(frame, sym=sym):
                try:
                    return frame.regs[sym]
                except KeyError:
                    raise InterpError(
                        f"{frame.fn.name}: read of uninitialized symbol "
                        f"{sym.name}") from None
            return read_r
        if isinstance(expr, AddrOf):
            return self._compile_addr_of(fn, expr.sym)
        if isinstance(expr, Load):
            addr_c = self._compile_expr(fn, expr.addr)
            if tracers:
                loc_and_offset = self.loc_and_offset

                def load_t(frame, addr_c=addr_c, expr=expr):
                    addr = int(addr_c(frame))
                    try:
                        value = memory[addr]
                    except KeyError:
                        raise InterpError(
                            f"load from unallocated address {addr}"
                        ) from None
                    found = loc_and_offset(addr)
                    loc, offset = found if found is not None else (None, 0)
                    for tracer in tracers:
                        tracer.on_load(fn, expr, addr, value, loc, offset)
                    return value
                return load_t

            def load(frame, addr_c=addr_c):
                addr = int(addr_c(frame))
                try:
                    return memory[addr]
                except KeyError:
                    raise InterpError(
                        f"load from unallocated address {addr}") from None
            return load
        if isinstance(expr, Bin):
            left_c = self._compile_expr(fn, expr.left)
            right_c = self._compile_expr(fn, expr.right)
            op = expr.op
            if op == "+":
                return lambda frame: left_c(frame) + right_c(frame)
            if op == "-":
                return lambda frame: left_c(frame) - right_c(frame)
            if op == "*":
                return lambda frame: left_c(frame) * right_c(frame)
            if op == "<":
                return lambda frame: int(left_c(frame) < right_c(frame))
            if op == "<=":
                return lambda frame: int(left_c(frame) <= right_c(frame))
            if op == ">":
                return lambda frame: int(left_c(frame) > right_c(frame))
            if op == ">=":
                return lambda frame: int(left_c(frame) >= right_c(frame))
            if op == "==":
                return lambda frame: int(left_c(frame) == right_c(frame))
            if op == "!=":
                return lambda frame: int(left_c(frame) != right_c(frame))
            if op == "/":
                return lambda frame: c_div(left_c(frame), right_c(frame))
            if op == "%":
                return lambda frame: c_rem(left_c(frame), right_c(frame))
            bin_fn = _BIN_FUNCS.get(op)
            if bin_fn is not None:
                return lambda frame: bin_fn(left_c(frame), right_c(frame))

            def bad_bin(frame, op=op):  # pragma: no cover
                left = left_c(frame)
                right = right_c(frame)
                return _BIN_FUNCS[op](left, right)  # KeyError, like the
            return bad_bin                          # tree-walker's lookup
        if isinstance(expr, Un):
            operand_c = self._compile_expr(fn, expr.operand)
            op = expr.op
            if op == "-":
                return lambda frame: -operand_c(frame)
            if op == "!":
                return lambda frame: int(not operand_c(frame))
            if op == "~":
                return lambda frame: ~int(operand_c(frame))
            if op == "int":
                return lambda frame: int(operand_c(frame))
            if op == "float":
                return lambda frame: float(operand_c(frame))

            def bad_un(frame, expr=expr):  # pragma: no cover
                operand_c(frame)
                raise InterpError(f"unknown expression {expr!r}")
            return bad_un

        def bad_expr(frame, expr=expr):  # pragma: no cover
            raise InterpError(f"unknown expression {expr!r}")
        return bad_expr

    def _compile_addr_of(self, fn: Function,
                         sym: Symbol) -> Callable[[_Frame], int]:
        if sym.kind is StorageKind.GLOBAL:
            addr = self._global_addr[sym]

            def addr_g(frame, addr=addr):
                return addr
            return addr_g

        def addr_l(frame, sym=sym):
            try:
                return frame.addr_of[sym]
            except KeyError:
                raise InterpError(
                    f"{frame.fn.name}: address of register symbol "
                    f"{sym.name}") from None
        return addr_l

    @staticmethod
    def _format(value: Value) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)


def run_module(module: Module, tracers: Sequence[Tracer] = (),
               fuel: int = 50_000_000,
               inputs: Sequence[Value] = ()) -> List[str]:
    """Convenience wrapper: interpret ``module`` and return its output."""
    interp = Interpreter(module, tracers, fuel)
    interp.inputs = list(inputs)
    return interp.run()
