"""The machine simulator: in-order EPIC-style timing over an exact
functional execution.

Functional semantics mirror the reference interpreter byte-for-byte
(same bump allocator, same guard cells, same C-style division, same
``%.6g`` float printing), so the correctness oracle can compare outputs
verbatim.  On top of that runs the timing model of
docs/machine_model.md: ``issue_width`` slots per cycle with
``mem_ports`` memory ports, a register scoreboard (consumers stall
until their producer's latency elapses), a taken-branch penalty and a
small call overhead.  Stall cycles whose binding producer was a load
are attributed to *data access* — Figure 10's third series.

The speculative flavours meet the :class:`~repro.target.ALAT` here:
``ld.a`` arms an entry, ``st`` invalidates matching entries, and
``ld.c`` either rides a surviving entry at ``check_hit_latency``
(default 0 — the paper's whole premise) or re-executes as a real load,
counted as a mis-speculation.

Deferred exceptions are modelled with the :data:`NAT` poison token
(IA-64's "Not a Thing"): a speculative load that cannot complete —
unmapped address, or a fault injected by a
:class:`~repro.hazards.Injector` — delivers ``NAT`` instead of raising.
The poison propagates through ALU ops, ``mov`` and call arguments; a
non-speculative consumer (plain ``ld``/``st`` address, store value,
branch condition, ``print``, ``alloc``) raises :class:`MachineError`,
and ``chk.s`` branches to its recovery block, which replays the loads
with ``ld.r`` (docs/recovery.md).

Dispatch is **pre-decoded** (docs/performance.md): translation flattens
every instruction into a tuple whose first three slots are uniform —
``(code, stall_srcs, is_mem, ...payload)`` — so the million-instruction
dispatch loop does *zero* per-instruction operand classification; the
source-register tuple, result latency and memory-port flag were all
computed once per function.  ``ld.c`` carries its hit and miss stall
sets separately: a check that rides a surviving ALAT entry binds only
on the tag register, never on the (possibly still in flight) address
recomputation.

There are two dispatch loops.  The fast one is :meth:`_Machine._call`
below (``run_program``'s default, ``engine="predecode"``).  The second,
in :mod:`repro.target.machine_classic` (``run_program(...,
engine="classic")``), interprets without pre-decoding: it is the
reference engine the bit-identity tests compare predecode against, and
the wall-clock baseline of ``benchmarks/test_compiler_perf.py``.
The classic engine shares this module's NaT token, error types and ALU
tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import FuelExhausted
from ..ir import StorageKind
from ..profiling.interp import c_div, c_rem
from .alat import ALAT
from .cache import DataCache
from .isa import MProgram
from .stats import MachineStats

Value = Union[int, float]


class MachineError(Exception):
    """Raised on a machine-level runtime error (bad address, fuel
    exhausted, missing main, malformed program)."""


class MachineFuelExhausted(FuelExhausted, MachineError):
    """Fuel ran out in the simulator.  Carries the function and block
    being executed so the driver can report a diagnostic instead of a
    stack trace."""

    def __init__(self, function: str, block: str, instructions: int) -> None:
        super().__init__(
            f"fuel exhausted (infinite loop?) in {function} at block "
            f"{block} after {instructions} instructions")
        self.function = function
        self.instruction = block
        self.instructions = instructions


class _NaT:
    """The deferred-exception poison token.  A singleton compared by
    identity (``value is NAT``); it deliberately supports *no*
    arithmetic — the simulator checks for it explicitly, so any leak
    into a Python operator is a loud bug, not silent corruption."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NaT"


#: The one NaT value speculative loads deliver on a deferred fault.
NAT = _NaT()


# ---- opcode encoding --------------------------------------------------
#
# Numbered hottest-first: the execute stage dispatches through an
# if/elif chain in this order, so the dynamic-frequency ranking (ALU
# ops and moves dominate every workload) keeps the average comparison
# count low.

(_ADD, _BIN, _CMPLT, _MOV, _MOVI, _LD, _BR, _JMP, _ST, _REM, _LDC,
 _LDA, _LDS, _LDR, _CHK, _LEA, _UN, _CALL, _RET, _ALLOC, _PRINT,
 _INPUT, _INPUTF) = range(23)

_BIN_FN = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": c_div,
    "rem": c_rem,
    "cmp.lt": lambda a, b: int(a < b),
    "cmp.le": lambda a, b: int(a <= b),
    "cmp.gt": lambda a, b: int(a > b),
    "cmp.ge": lambda a, b: int(a >= b),
    "cmp.eq": lambda a, b: int(a == b),
    "cmp.ne": lambda a, b: int(a != b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
}

_UN_FN = {
    "neg": lambda a: -a,
    "not": lambda a: int(not a),
    "bnot": lambda a: ~int(a),
    "cvt.int": int,
    "cvt.float": float,
}

#: result latency in cycles by ALU op (everything else is 1)
_ALU_LATENCY = {"mul": 3, "div": 12, "rem": 12}

#: shared empty frame-address map for functions with no local allocs
_NO_FRAME_ADDRS: Dict[object, int] = {}


class _TFunc:
    """One translated function: blocks of **pre-decoded** instruction
    tuples.

    Every tuple shares a uniform prefix the dispatch loop relies on:

    * ``[0]`` — opcode (the hotness-ordered encoding above);
    * ``[1]`` — stall sources: the register tuple the scoreboard must
      see ready before issue (for ``ld.c`` this is the *miss* set —
      address then tag register);
    * ``[2]`` — memory-op flag (consumes a memory port at issue).

    The payload from ``[3]`` on is op-specific; ``ld.c`` additionally
    carries its *hit* stall set — just the ALAT tag register — in
    ``[7]``, selected at dispatch when the entry survived, so a check
    that rides the ALAT never stalls on the address recomputation.
    Terminators and calls carry their in-block position + 1 as the last
    payload slot, which lets the dispatch loop bill executed-instruction
    counts per *block* instead of per instruction.
    """

    __slots__ = ("name", "blocks", "nregs", "param_regs", "frame_allocs",
                 "fs")

    def __init__(self, fn) -> None:
        self.fs = None  # this run's FnStats, bound on first call
        self.name = fn.name
        self.nregs = fn.nregs
        self.param_regs = fn.param_regs
        self.frame_allocs = fn.frame_allocs
        index = {id(block): i for i, block in enumerate(fn.blocks)}
        self.blocks: List[List[tuple]] = []
        for i, block in enumerate(fn.blocks):
            out: List[tuple] = []
            for instr in block.instrs:
                op = instr.op
                if op == "add":
                    # the two most frequent ALU ops on every workload get
                    # their own opcodes: no callable in the payload, unit
                    # latency baked in
                    a, b = instr.srcs
                    out.append((_ADD, instr.srcs, False, instr.dest,
                                a, b))
                elif op == "cmp.lt":
                    a, b = instr.srcs
                    out.append((_CMPLT, instr.srcs, False, instr.dest,
                                a, b))
                elif op == "rem":
                    a, b = instr.srcs
                    out.append((_REM, instr.srcs, False, instr.dest,
                                a, b, _ALU_LATENCY["rem"]))
                elif op in _BIN_FN:
                    a, b = instr.srcs
                    out.append((_BIN, instr.srcs, False, instr.dest,
                                _BIN_FN[op], a, b,
                                _ALU_LATENCY.get(op, 1)))
                elif op == "mov":
                    out.append((_MOV, instr.srcs, False, instr.dest,
                                instr.srcs[0]))
                elif op == "movi":
                    out.append((_MOVI, (), False, instr.dest, instr.imm))
                elif op == "ld":
                    out.append((_LD, instr.srcs, True, instr.dest,
                                instr.srcs[0], instr.fp))
                elif op == "st":
                    out.append((_ST, instr.srcs, True, instr.srcs[0],
                                instr.srcs[1], instr.coerce, instr.fp))
                elif op == "ld.c":
                    addr = instr.srcs[0]
                    out.append((_LDC, (addr, instr.dest), True,
                                instr.dest, addr, instr.fp,
                                None, (instr.dest,)))
                elif op == "ld.a":
                    out.append((_LDA, instr.srcs, True, instr.dest,
                                instr.srcs[0], instr.fp))
                elif op == "ld.s":
                    out.append((_LDS, instr.srcs, True, instr.dest,
                                instr.srcs[0], instr.fp))
                elif op == "ld.r":
                    out.append((_LDR, instr.srcs, True, instr.dest,
                                instr.srcs[0], instr.fp))
                elif op == "jmp":
                    target = index[id(instr.targets[0])]
                    out.append((_JMP, (), False, target, target != i + 1,
                                len(out) + 1))
                elif op == "br":
                    then_i = index[id(instr.targets[0])]
                    else_i = index[id(instr.targets[1])]
                    out.append((_BR, instr.srcs, False, instr.srcs[0],
                                then_i, else_i,
                                then_i != i + 1, else_i != i + 1,
                                len(out) + 1))
                elif op == "chk.s":
                    cont_i = index[id(instr.targets[0])]
                    rec_i = index[id(instr.targets[1])]
                    out.append((_CHK, instr.srcs, False, instr.srcs[0],
                                cont_i, rec_i,
                                cont_i != i + 1, rec_i != i + 1,
                                len(out) + 1))
                elif op == "lea":
                    out.append((_LEA, (), False, instr.dest, instr.sym,
                                instr.sym.kind is StorageKind.GLOBAL))
                elif op in _UN_FN:
                    out.append((_UN, instr.srcs, False, instr.dest,
                                _UN_FN[op], instr.srcs[0]))
                elif op == "call":
                    out.append((_CALL, instr.srcs, False, instr.dest,
                                instr.callee, len(out) + 1))
                elif op == "ret":
                    src = instr.srcs[0] if instr.srcs else None
                    out.append((_RET, instr.srcs, False, src,
                                len(out) + 1))
                elif op == "alloc":
                    out.append((_ALLOC, instr.srcs, False, instr.dest,
                                instr.srcs[0]))
                elif op == "print":
                    out.append((_PRINT, instr.srcs, False))
                elif op == "input":
                    out.append((_INPUT, (), False, instr.dest))
                elif op == "inputf":
                    out.append((_INPUTF, (), False, instr.dest))
                else:
                    raise MachineError(f"unknown opcode {op!r}")
            self.blocks.append(out)


class _Machine:
    """One simulation run of the predecode engine: memory + scoreboard
    + counters."""

    def __init__(self, program: MProgram, inputs: Sequence[Value],
                 fuel: int, issue_width: int, mem_ports: int,
                 branch_penalty: int, call_overhead: int,
                 alat: ALAT, cache: DataCache,
                 check_hit_latency: int, check_issue_free: bool,
                 injector=None) -> None:
        self.funcs = {name: _TFunc(fn)
                      for name, fn in program.functions.items()}
        self.inputs = list(inputs)
        self._input_pos = 0
        self.fuel = fuel
        self.issue_width = issue_width
        self.mem_ports = mem_ports
        self.branch_penalty = branch_penalty
        self.call_overhead = call_overhead
        self.alat = alat
        self.cache = cache
        self.check_hit_latency = check_hit_latency
        self.check_issue_free = check_issue_free
        self.injector = injector

        self.memory: Dict[int, Value] = {}
        self._next_addr = 16  # matches the interpreter: 0 stays null
        self._global_addr: Dict[object, int] = {}
        for sym, cells in program.globals:
            self._global_addr[sym] = self._allocate(cells)
        self.output: List[str] = []
        self.stats = MachineStats()
        self._frame_serial = 0

        # scoreboard
        self.cycle = 0
        self.slots = 0
        self.ports = 0

        # run-constant environment, unpacked by _call in one statement
        # instead of ~25 attribute reads per frame.  The trailing cache
        # geometry feeds the inlined residency fast paths in _LD/_ST
        # (the per-set dicts are mutated in place, never rebound, so
        # binding them once per run is safe — see DataCache.flush).
        self._env = (
            self.stats, self.memory, self.memory.get, self.alat,
            self.alat.peek, self.alat.check, self.alat.arm,
            self.alat.invalidate, self.alat.disarm, self.cache,
            self.cache.load, self.cache.store, self.injector,
            self.funcs.get, self._global_addr, self.issue_width,
            self.mem_ports, self.branch_penalty, self.check_hit_latency,
            self.check_issue_free, self.cache.line_cells,
            self.cache._l1.sets, self.cache._l1.nsets,
            self.cache.l1_latency, self.cache._l2.sets,
            self.cache._l2.nsets, self.alat._sets, self.alat.nsets)

    # ---- memory ---------------------------------------------------------
    def _allocate(self, cells: int) -> int:
        base = self._next_addr
        span = cells if cells > 0 else 1
        self._next_addr += span + 1  # +1 guard cell, like the interpreter
        memory = self.memory
        for i in range(span):
            memory[base + i] = 0
        return base

    def _next_input(self) -> Value:
        if self._input_pos >= len(self.inputs):
            raise MachineError("input stream exhausted")
        value = self.inputs[self._input_pos]
        self._input_pos += 1
        return value

    # ---- running --------------------------------------------------------
    def run(self) -> Tuple[MachineStats, List[str]]:
        if "main" not in self.funcs:
            raise MachineError("program has no main()")
        self._call(self.funcs["main"], [])
        stats = self.stats
        stats.cycles = self.cycle
        # the dispatch loop maintains only the per-function slices; the
        # whole-run counters are their exact sums, recovered here once
        # instead of being double-written at every frame return
        for f in stats.fn_stats.values():
            stats.instructions += f.instructions
            stats.plain_loads += f.plain_loads
            stats.advanced_loads += f.advanced_loads
            stats.spec_loads += f.spec_loads
            stats.check_loads += f.check_loads
            stats.check_misses += f.check_misses
            stats.stores += f.stores
            stats.deferred_faults += f.deferred_faults
            stats.spec_checks += f.spec_checks
            stats.spec_recoveries += f.spec_recoveries
            stats.replay_loads += f.replay_loads
            stats.taken_branches += f.taken_branches
            stats.fallthroughs += f.fallthroughs
        return self.stats, self.output

    # ---- the dispatch loop --------------------------------------------
    def _call(self, fn: _TFunc, args: List[Value]) -> Optional[Value]:
        if len(args) != len(fn.param_regs):
            raise MachineError(f"{fn.name}: arity mismatch")
        self._frame_serial += 1
        frame = self._frame_serial
        regs: List[Value] = [0] * fn.nregs
        ready = [0] * fn.nregs          # cycle each register's value lands
        from_load = [False] * fn.nregs  # producer was a load (for Fig. 10)
        for reg, value in zip(fn.param_regs, args):
            regs[reg] = value
        if fn.frame_allocs:
            addr_of: Dict[object, int] = {}
            for sym, cells in fn.frame_allocs:
                addr_of[sym] = self._allocate(cells)
        else:
            addr_of = _NO_FRAME_ADDRS  # read-only when nothing allocates

        (stats, memory, mem_get, alat, alat_peek, alat_check, alat_arm,
         alat_invalidate, alat_disarm, cache, cache_load, cache_store,
         injector, funcs_get, global_addr, issue_width, mem_ports,
         branch_penalty, check_hit_latency, check_issue_free, line_cells,
         l1_sets, l1_nsets, l1_latency, l2_sets, l2_nsets, al_sets,
         al_nsets) = self._env
        fs = fn.fs
        if fs is None:
            fs = fn.fs = stats.fn(fn.name)
        self.cycle += self.call_overhead
        nat = NAT
        blocks = fn.blocks
        block_index = 0
        # The scoreboard lives in locals for the duration of the
        # dispatch loop (written back around calls and on return), the
        # two per-instruction counters are buffered and flushed at the
        # same boundaries, and the stall + issue stages are fused into
        # each opcode's branch so a pre-decoded tuple costs exactly one
        # dispatch — pure dispatch-cost savings; every observable total
        # matches the classic engine exactly.  Each branch's fused
        # scoreboard keeps the classic invariants: a stall or a
        # slot/port rollover starts a fresh cycle (and this very
        # instruction then issues into it, hence ``slots = 1``).
        cycle = self.cycle
        slots = self.slots
        ports = self.ports
        fuel = self.fuel
        n_instr = 0     # buffered stats.instructions / fs.instructions
        da_cycles = 0   # buffered stats.data_access_cycles
        fs_cycles = 0   # buffered fs.cycles
        # the remaining per-event counters, buffered the same way; each
        # flushes to stats.X and fs.X with the same value at return
        n_plain = n_store = n_checkload = n_checkmiss = 0
        n_adv = n_spec = n_replay = n_defer = 0
        n_speccheck = n_recover = n_taken = n_fall = 0
        while True:
            fuel -= 1
            if fuel <= 0:
                fs.instructions += n_instr
                # every enclosing frame flushed its count at its _CALL,
                # so the per-function slices sum to the exact total here
                raise MachineFuelExhausted(
                    fn.name, f"#{block_index}",
                    sum(f.instructions for f in stats.fn_stats.values()))
            entered_at = cycle
            for instr in blocks[block_index]:
                code = instr[0]
                if code == _ADD:
                    sa = instr[4]
                    sb = instr[5]
                    t = ready[sa]
                    binding = sa
                    r = ready[sb]
                    if r > t:
                        t = r
                        binding = sb
                    if t > cycle:
                        if from_load[binding]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    a = regs[sa]
                    b = regs[sb]
                    dest = instr[3]
                    if a is nat or b is nat:
                        regs[dest] = nat    # poison propagates
                    else:
                        regs[dest] = a + b
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _BIN:
                    sa = instr[5]
                    sb = instr[6]
                    t = ready[sa]
                    binding = sa
                    r = ready[sb]
                    if r > t:
                        t = r
                        binding = sb
                    if t > cycle:
                        if from_load[binding]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    a = regs[sa]
                    b = regs[sb]
                    dest = instr[3]
                    if a is nat or b is nat:
                        regs[dest] = nat    # poison propagates
                    else:
                        regs[dest] = instr[4](a, b)
                    ready[dest] = cycle + instr[7]
                    from_load[dest] = False
                elif code == _CMPLT:
                    sa = instr[4]
                    sb = instr[5]
                    t = ready[sa]
                    binding = sa
                    r = ready[sb]
                    if r > t:
                        t = r
                        binding = sb
                    if t > cycle:
                        if from_load[binding]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    a = regs[sa]
                    b = regs[sb]
                    dest = instr[3]
                    if a is nat or b is nat:
                        regs[dest] = nat    # poison propagates
                    else:
                        regs[dest] = int(a < b)
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _MOV:
                    src = instr[4]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    dest = instr[3]
                    regs[dest] = regs[src]
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _MOVI:
                    if slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    dest = instr[3]
                    regs[dest] = instr[4]
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _LD:
                    src = instr[4]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 1
                    elif slots >= issue_width or ports >= mem_ports:
                        cycle += 1
                        slots = 1
                        ports = 1
                    else:
                        slots += 1
                        ports += 1
                    a = regs[src]
                    if a is nat:
                        raise MachineError(
                            "load address is NaT (unchecked speculative "
                            "value reached a non-speculative load)")
                    addr = int(a)
                    dest = instr[3]
                    try:
                        regs[dest] = memory[addr]
                    except KeyError:
                        raise MachineError(
                            f"load from unallocated address {addr}"
                        ) from None
                    # DataCache.load's L1-hit path, inlined (the common
                    # case by far); anything else falls through to the
                    # real method, which re-probes and fills
                    if instr[5]:
                        ready[dest] = cycle + cache_load(addr, True)
                    else:
                        line = addr // line_cells
                        l1e = l1_sets.get(line % l1_nsets)
                        if l1e is not None and line in l1e:
                            l1e.move_to_end(line)
                            cache.l1_hits += 1
                            ready[dest] = cycle + l1_latency
                        else:
                            ready[dest] = cycle + cache_load(addr, False)
                    from_load[dest] = True
                    n_plain += 1
                elif code == _BR:
                    src = instr[3]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    cond = regs[src]
                    if cond is nat:
                        raise MachineError(
                            "branch condition is NaT (unchecked "
                            "speculative value reached control flow)")
                    if cond:
                        block_index, taken = instr[4], instr[6]
                    else:
                        block_index, taken = instr[5], instr[7]
                    if taken:
                        n_taken += 1
                        cycle += 1 + branch_penalty
                        slots = 0
                        ports = 0
                    else:
                        n_fall += 1
                    n_instr += instr[8]
                    break
                elif code == _JMP:
                    if slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    block_index = instr[3]
                    if instr[4]:
                        n_taken += 1
                        cycle += 1 + branch_penalty
                        slots = 0
                        ports = 0
                    else:
                        n_fall += 1
                    n_instr += instr[5]
                    break
                elif code == _ST:
                    sa = instr[3]
                    sb = instr[4]
                    t = ready[sa]
                    binding = sa
                    r = ready[sb]
                    if r > t:
                        t = r
                        binding = sb
                    if t > cycle:
                        if from_load[binding]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 1
                    elif slots >= issue_width or ports >= mem_ports:
                        cycle += 1
                        slots = 1
                        ports = 1
                    else:
                        slots += 1
                        ports += 1
                    a = regs[sa]
                    value = regs[sb]
                    if a is nat or value is nat:
                        raise MachineError(
                            "store consumed NaT (unchecked speculative "
                            "value reached memory)")
                    addr = int(a)
                    if addr not in memory:
                        raise MachineError(
                            f"store to unallocated address {addr}")
                    if instr[5]:
                        value = float(value)
                    memory[addr] = value
                    # ALAT.invalidate against an empty set is a no-op —
                    # probe first and skip the call (most stores never
                    # touch an armed address)
                    if al_sets.get(addr % al_nsets):
                        alat_invalidate(addr)
                    # DataCache.store with the line already resident in
                    # both levels is two LRU refreshes — inlined; any
                    # other case falls through to the real write-allocate
                    if instr[6]:
                        cache_store(addr, True)
                    else:
                        line = addr // line_cells
                        l2e = l2_sets.get(line % l2_nsets)
                        l1e = l1_sets.get(line % l1_nsets)
                        if (l2e is not None and line in l2e
                                and l1e is not None and line in l1e):
                            l2e.move_to_end(line)
                            l1e.move_to_end(line)
                        else:
                            cache_store(addr, False)
                    n_store += 1
                    if injector is not None:
                        injector.after_store(alat, cache)
                elif code == _REM:
                    sa = instr[4]
                    sb = instr[5]
                    t = ready[sa]
                    binding = sa
                    r = ready[sb]
                    if r > t:
                        t = r
                        binding = sb
                    if t > cycle:
                        if from_load[binding]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    a = regs[sa]
                    b = regs[sb]
                    dest = instr[3]
                    if a is nat or b is nat:
                        regs[dest] = nat    # poison propagates
                    elif type(a) is int and type(b) is int and b:
                        # c_rem's int branch unfolded (the pointer-chasing
                        # workloads are rem-heavy); floats and the
                        # divide-by-zero raise take the call
                        q = abs(a) // abs(b)
                        regs[dest] = a - (q if (a >= 0) == (b >= 0)
                                          else -q) * b
                    else:
                        regs[dest] = c_rem(a, b)
                    ready[dest] = cycle + instr[6]
                    from_load[dest] = False
                elif code == _LDC:
                    dest = instr[3]
                    a = regs[instr[4]]
                    if a is nat:
                        raise MachineError(
                            "check-load address is NaT (unchecked "
                            "speculative value)")
                    addr = int(a)
                    # one ALAT probe serves both stages: nothing touches
                    # the ALAT between the classic engine's stall-set
                    # peek and its execute-stage check, so their answers
                    # are always identical
                    hit = alat_check(dest, addr, frame)
                    if hit:
                        t = ready[dest]    # hit: bind only on the tag
                        binding = dest
                    else:
                        src = instr[4]
                        t = ready[src]
                        binding = src
                        r = ready[dest]
                        if r > t:
                            t = r
                            binding = dest
                    if t > cycle:
                        if from_load[binding]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 0
                        ports = 0
                    if not check_issue_free:
                        if slots >= issue_width or ports >= mem_ports:
                            cycle += 1
                            slots = 1
                            ports = 1
                        else:
                            slots += 1
                            ports += 1
                    n_checkload += 1
                    if hit:
                        # hit: the register value stands at ~zero cost
                        ready[dest] = cycle + check_hit_latency
                        from_load[dest] = False
                    else:
                        try:
                            regs[dest] = memory[addr]
                        except KeyError:
                            raise MachineError(
                                f"check load from unallocated address "
                                f"{addr}") from None
                        alat_arm(dest, addr, frame)
                        if instr[5]:
                            ready[dest] = cycle + cache_load(addr, True)
                        else:
                            line = addr // line_cells
                            l1e = l1_sets.get(line % l1_nsets)
                            if l1e is not None and line in l1e:
                                l1e.move_to_end(line)
                                cache.l1_hits += 1
                                ready[dest] = cycle + l1_latency
                            else:
                                ready[dest] = cycle + cache_load(
                                    addr, False)
                        from_load[dest] = True
                        n_checkmiss += 1
                elif code == _LDA:
                    src = instr[4]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 1
                    elif slots >= issue_width or ports >= mem_ports:
                        cycle += 1
                        slots = 1
                        ports = 1
                    else:
                        slots += 1
                        ports += 1
                    dest = instr[3]
                    a = regs[src]
                    if a is nat:
                        regs[dest] = nat    # poison propagates, no arm
                        alat_disarm(dest, frame)
                        ready[dest] = cycle + 1
                    else:
                        addr = int(a)
                        value = mem_get(addr)
                        # no injector hook here: a real ld.a faults
                        # immediately (only ld.s defers), so its value may
                        # be consumed before any check — poisoning it would
                        # inject a wrong execution, not a misspeculation
                        if value is None:
                            regs[dest] = nat    # deferred fault
                            alat_disarm(dest, frame)
                            n_defer += 1
                        else:
                            regs[dest] = value
                            alat_arm(dest, addr, frame)
                        if instr[5]:
                            ready[dest] = cycle + cache_load(addr, True)
                        else:
                            line = addr // line_cells
                            l1e = l1_sets.get(line % l1_nsets)
                            if l1e is not None and line in l1e:
                                l1e.move_to_end(line)
                                cache.l1_hits += 1
                                ready[dest] = cycle + l1_latency
                            else:
                                ready[dest] = cycle + cache_load(
                                    addr, False)
                    from_load[dest] = True
                    n_adv += 1
                elif code == _LDS:
                    src = instr[4]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 1
                    elif slots >= issue_width or ports >= mem_ports:
                        cycle += 1
                        slots = 1
                        ports = 1
                    else:
                        slots += 1
                        ports += 1
                    dest = instr[3]
                    a = regs[src]
                    if a is nat:
                        regs[dest] = nat    # poison propagates
                        ready[dest] = cycle + 1
                    else:
                        addr = int(a)
                        value = mem_get(addr)
                        if value is None or (
                                injector is not None
                                and injector.poison_load("ld.s", addr)):
                            regs[dest] = nat    # deferred fault
                            n_defer += 1
                        else:
                            regs[dest] = value
                        if instr[5]:
                            ready[dest] = cycle + cache_load(addr, True)
                        else:
                            line = addr // line_cells
                            l1e = l1_sets.get(line % l1_nsets)
                            if l1e is not None and line in l1e:
                                l1e.move_to_end(line)
                                cache.l1_hits += 1
                                ready[dest] = cycle + l1_latency
                            else:
                                ready[dest] = cycle + cache_load(
                                    addr, False)
                    from_load[dest] = True
                    n_spec += 1
                elif code == _LDR:
                    src = instr[4]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 1
                    elif slots >= issue_width or ports >= mem_ports:
                        cycle += 1
                        slots = 1
                        ports = 1
                    else:
                        slots += 1
                        ports += 1
                    a = regs[src]
                    if a is nat:
                        raise MachineError(
                            "ld.r address is NaT (recovery block did not "
                            "replay the address chain)")
                    addr = int(a)
                    dest = instr[3]
                    # replay never faults: an unmapped cell reads as the
                    # architectural zero the seed's ld.s delivered
                    regs[dest] = mem_get(addr, 0)
                    if instr[5]:
                        ready[dest] = cycle + cache_load(addr, True)
                    else:
                        line = addr // line_cells
                        l1e = l1_sets.get(line % l1_nsets)
                        if l1e is not None and line in l1e:
                            l1e.move_to_end(line)
                            cache.l1_hits += 1
                            ready[dest] = cycle + l1_latency
                        else:
                            ready[dest] = cycle + cache_load(addr, False)
                    from_load[dest] = True
                    n_replay += 1
                elif code == _CHK:
                    src = instr[3]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    n_speccheck += 1
                    if regs[src] is nat:
                        # deferred fault caught: enter the recovery block
                        n_recover += 1
                        block_index, taken = instr[5], instr[7]
                    else:
                        block_index, taken = instr[4], instr[6]
                    if taken:
                        n_taken += 1
                        cycle += 1 + branch_penalty
                        slots = 0
                        ports = 0
                    else:
                        n_fall += 1
                    n_instr += instr[8]
                    break
                elif code == _LEA:
                    if slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    dest = instr[3]
                    regs[dest] = global_addr[instr[4]] if instr[5] \
                        else addr_of[instr[4]]
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _UN:
                    src = instr[5]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    dest = instr[3]
                    a = regs[src]
                    regs[dest] = nat if a is nat else instr[4](a)
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _CALL:
                    t = cycle
                    binding = False
                    for src in instr[1]:
                        r = ready[src]
                        if r > t:
                            t = r
                            binding = from_load[src]
                    if t > cycle:
                        if binding:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    callee = funcs_get(instr[4])
                    if callee is None:
                        raise MachineError(f"call to unknown function "
                                           f"{instr[4]!r}")
                    # bill this block's instructions up to and including
                    # the call (instr[5] is its position + 1); the block
                    # terminator then adds the whole block length, so
                    # the negative remainder cancels exactly
                    fs.instructions += n_instr + instr[5]
                    n_instr = -instr[5]
                    self.cycle = cycle
                    self.slots = slots
                    self.ports = ports
                    self.fuel = fuel
                    result = self._call(callee,
                                        [regs[s] for s in instr[1]])
                    cycle = self.cycle
                    slots = self.slots
                    ports = self.ports
                    fuel = self.fuel
                    dest = instr[3]
                    if dest is not None:
                        if result is None:
                            raise MachineError(
                                f"void result of {instr[4]} used")
                        regs[dest] = result
                        ready[dest] = cycle
                        from_load[dest] = False
                    entered_at = cycle  # callee cycles are its own
                elif code == _RET:
                    src = instr[3]
                    if src is not None:
                        t = ready[src]
                        if t > cycle:
                            if from_load[src]:
                                da_cycles += t - cycle
                            cycle = t
                            slots = 1
                            ports = 0
                        elif slots >= issue_width:
                            cycle += 1
                            slots = 1
                            ports = 0
                        else:
                            slots += 1
                        retval: Optional[Value] = regs[src]
                    else:
                        if slots >= issue_width:
                            cycle += 1
                            slots = 1
                            ports = 0
                        else:
                            slots += 1
                        retval = None
                    n_instr += instr[4]
                    fs_cycles += cycle - entered_at
                    cycle += self.call_overhead
                    self.cycle = cycle
                    self.slots = slots
                    self.ports = ports
                    self.fuel = fuel
                    # flush the buffered counters to the per-function
                    # slice only; the whole-run totals are the exact sum
                    # of the slices, recovered once in run()
                    fs.instructions += n_instr
                    stats.data_access_cycles += da_cycles
                    fs.cycles += fs_cycles
                    if n_taken:
                        fs.taken_branches += n_taken
                    if n_fall:
                        fs.fallthroughs += n_fall
                    if n_plain:
                        fs.plain_loads += n_plain
                    if n_store:
                        fs.stores += n_store
                    if n_checkload:
                        fs.check_loads += n_checkload
                    if n_checkmiss:
                        fs.check_misses += n_checkmiss
                    if n_adv:
                        fs.advanced_loads += n_adv
                    if n_spec:
                        fs.spec_loads += n_spec
                    if n_replay:
                        fs.replay_loads += n_replay
                    if n_defer:
                        fs.deferred_faults += n_defer
                    if n_speccheck:
                        fs.spec_checks += n_speccheck
                    if n_recover:
                        fs.spec_recoveries += n_recover
                    return retval
                elif code == _ALLOC:
                    src = instr[4]
                    t = ready[src]
                    if t > cycle:
                        if from_load[src]:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    a = regs[src]
                    if a is nat:
                        raise MachineError(
                            "alloc size is NaT (unchecked speculative "
                            "value)")
                    dest = instr[3]
                    regs[dest] = self._allocate(int(a))
                    ready[dest] = cycle + 1
                    from_load[dest] = False
                elif code == _PRINT:
                    t = cycle
                    binding = False
                    for src in instr[1]:
                        r = ready[src]
                        if r > t:
                            t = r
                            binding = from_load[src]
                    if t > cycle:
                        if binding:
                            da_cycles += t - cycle
                        cycle = t
                        slots = 1
                        ports = 0
                    elif slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    parts = []
                    for src in instr[1]:
                        value = regs[src]
                        if value is nat:
                            raise MachineError(
                                "print consumed NaT (unchecked "
                                "speculative value reached output)")
                        parts.append(f"{value:.6g}"
                                     if isinstance(value, float)
                                     else str(value))
                    self.output.append(" ".join(parts))
                else:   # _INPUT / _INPUTF
                    if slots >= issue_width:
                        cycle += 1
                        slots = 1
                        ports = 0
                    else:
                        slots += 1
                    dest = instr[3]
                    value = self._next_input()
                    regs[dest] = float(value) if code == _INPUTF \
                        else int(value)
                    ready[dest] = cycle + 1
                    from_load[dest] = False
            else:
                raise MachineError(f"{fn.name}: block without terminator")
            fs_cycles += cycle - entered_at


#: The selectable dispatch implementations (docs/performance.md).
ENGINES = ("predecode", "classic")


def run_program(program: MProgram, inputs: Sequence[Value] = (),
                fuel: int = 200_000_000, *,
                issue_width: int = 4, mem_ports: int = 2,
                branch_penalty: int = 1, call_overhead: int = 2,
                alat: Optional[ALAT] = None,
                cache: Optional[DataCache] = None,
                check_hit_latency: int = 0,
                check_latency: Optional[int] = None,
                check_issue_free: bool = False,
                mem_latency: Optional[int] = None,
                injector=None,
                engine: str = "predecode",
                machine_overrides: Optional[dict] = None
                ) -> Tuple[MachineStats, List[str]]:
    """Simulate ``program`` on the IA-64-flavoured machine.

    Returns ``(MachineStats, output lines)``.  ``inputs`` feeds the
    ``input()``/``inputf()`` intrinsics; ``fuel`` bounds executed basic
    blocks.  The keyword knobs (see docs/machine_model.md) configure the
    machine; ``machine_overrides`` may carry the same knobs as a dict
    (they win over the direct keywords).  ``check_latency`` is accepted
    as an alias of ``check_hit_latency``; ``mem_latency`` overrides the
    cache's memory latency without replacing its geometry.

    ``engine`` selects the dispatch implementation: ``"predecode"``
    (the default — the pre-decoded dispatch loop, docs/performance.md)
    or ``"classic"`` (the original interpretive loop: the reference
    engine the bit-identity tests compare against and the perf
    benchmark's wall-clock baseline).  Both produce identical output
    and identical :class:`MachineStats` on every run.

    The passed ``alat``/``cache`` objects are treated as *configuration*:
    the run clones them cold rather than mutating them, so one object can
    parameterize many runs.  ``injector`` (a
    :class:`repro.hazards.Injector`) is cloned the same way and gets to
    perturb the run: poison speculative loads, force ALAT evictions and
    flush the cache after stores — never affecting a correct program's
    output, only its cycle count (docs/recovery.md).
    """
    if machine_overrides:
        return run_program(program, inputs, fuel,
                           **{**dict(issue_width=issue_width,
                                     mem_ports=mem_ports,
                                     branch_penalty=branch_penalty,
                                     call_overhead=call_overhead,
                                     alat=alat, cache=cache,
                                     check_hit_latency=check_hit_latency,
                                     check_latency=check_latency,
                                     check_issue_free=check_issue_free,
                                     mem_latency=mem_latency,
                                     injector=injector, engine=engine),
                              **machine_overrides})
    if check_latency is not None:
        check_hit_latency = check_latency
    if engine not in ENGINES:
        raise MachineError(f"unknown engine {engine!r} "
                           f"(expected one of {ENGINES})")
    alat = alat.clone() if alat is not None else ALAT()
    cache = cache.clone(mem_latency) if cache is not None \
        else DataCache(**({} if mem_latency is None
                          else {"mem_latency": mem_latency}))
    if injector is not None:
        injector = injector.clone()
    if engine == "classic":
        from .machine_classic import _ClassicMachine

        machine_cls = _ClassicMachine
    else:
        machine_cls = _Machine
    machine = machine_cls(program, inputs, fuel, issue_width, mem_ports,
                          branch_penalty, call_overhead, alat, cache,
                          check_hit_latency, check_issue_free, injector)
    return machine.run()
