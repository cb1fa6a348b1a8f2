"""Pieces shared by the two execution engines.

The simulator has two dispatch loops.  The interpretive loop
(:mod:`machine_classic`) is the reference engine.  The pre-decoded
loop (:mod:`machine`) is the fast one, ``run_program``'s default.  Both
engines agree on this substrate: the NaT poison token and the machine
error types; the pre-decoded instruction encoding and the per-function
translation (:class:`_TFunc`) serve the fast loop.  Everything here is
engine-neutral; dispatch lives in :mod:`machine`.

``machine.py`` re-exports these names unchanged, so existing imports
(``from repro.target.machine import NAT``) keep working.
"""

from __future__ import annotations

from typing import Dict, List, Union

from ..errors import FuelExhausted
from ..ir import StorageKind
from ..profiling.interp import c_div, c_rem

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
