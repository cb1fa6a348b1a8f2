"""The *trace* execution engine: a hot-trace JIT for the simulator.

The predecode engine (:mod:`repro.target.machine`) pays one Python-level
dispatch — loop step, opcode test chain, payload tuple indexing — per
dynamic instruction.  This engine removes that cost on the paths that
dominate every campaign and benchmark, the way dynamic binary
translators (Dynamo, trace caches) do:

* **Warm-up profiling.**  Execution starts in the one pre-decoded
  dispatch loop (:meth:`repro.target.machine._Machine._call`), the
  same loop predecode runs; this engine only turns its trace hook on.
  Every block that could legally join a trace (anything without a
  ``call``/``ret``) carries an arrival counter in ``_TFunc.tr_tbl``;
  loop heads and entry blocks of hot callees cross
  :data:`HOT_THRESHOLD` quickly.
* **Trace recording.**  When a head turns hot, the interpreter keeps
  executing but records the block path actually taken — the
  most-recently-executed-tail flavour of mutual-most-likely successor
  selection — until the path revisits a recorded block (a loop closed),
  reaches an ineligible or already-compiled block, or hits
  :data:`~repro.target.machine.TRACE_MAX_BLOCKS`.
* **Trace compilation.**  The recorded path is compiled into **one
  fused Python closure**: real generated source, ``compile()``-d and
  ``exec``-d once.  Operand register numbers, immediates, latencies,
  machine geometry (issue width, ports, penalties, cache shape) and
  global addresses are all baked in as literals; ALU lambdas are
  inlined as expressions.  Scoreboard state and every
  :class:`~repro.target.stats.MachineStats` counter live in closure
  locals and are applied once, at the trace boundary.
* **Deoptimization.**  Conditional branches and ``chk.s`` checks guard
  the recorded direction; the untaken arm returns the full
  architectural state (next block, cycle/slots/ports, fuel, counter
  deltas) and the shared dispatch loop resumes exactly where the
  classic engine would be — ALAT, NaT poison, cache and injector
  perturbations all flow through the *same* calls in the same order,
  which is why the engine stays bit-identical to ``machine_classic``
  (pinned by tests/target/test_trace_engine.py, the fuzz corpus and
  the fault-injection campaign).

Traces live in ``_TFunc.tr_tbl`` — a per-translated-function table
built fresh for every run, so there is nothing to invalidate: programs
are immutable after codegen and a new run gets a new table.  Generated
*code objects* are memoized per ``MProgram`` (a
``WeakKeyDictionary``), so a campaign that simulates the same program
hundreds of times compiles each trace's source once and only re-binds
the per-run environment.

Dispatch-machinery counters (``traces_compiled``, ``trace_hits``,
``side_exits``, ``trace_dyn_instr``) are reported on
:class:`MachineStats` but excluded from its :meth:`arch_dict` — they
describe this engine, not the simulated architecture.
"""

from __future__ import annotations

import math
import re
import weakref
from typing import Dict, List, Optional, Sequence

from ..profiling.interp import c_div, c_rem
from .engine_common import (_ADD, _ALLOC, _BIN, _BIN_FN, _BR, _CALL,
                            _CHK, _CMPLT, _INPUT, _INPUTF, _JMP, _LD,
                            _LDA, _LDC, _LDR, _LDS, _LEA, _MOV, _MOVI,
                            _PRINT, _REM, _RET, _ST, _UN, _UN_FN, NAT,
                            MachineError, _TFunc)
from .machine import _EXIT_FUEL, _EXIT_NORMAL, _EXIT_SIDE, _Machine

#: arrivals at a block before it is considered a hot trace head (read
#: at machine construction, so tests may patch it)
HOT_THRESHOLD = 16

#: a non-looping trace shorter than this many instructions is not worth
#: the dispatch round-trip; its head is marked never-trace instead
MIN_TRACE_INSTRS = 4

#: generated code objects memoized per program: source compilation is
#: the expensive step, and a campaign re-simulates the same immutable
#: MProgram hundreds of times.  Keyed by the environment literals baked
#: into the source, so a different machine geometry regenerates.
_CODE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: ALU lambdas inlined as expressions at trace-compile time ("div"
#: stays a call: C semantics live in c_div/c_rem)
_BIN_EXPR = {
    _BIN_FN["sub"]: "({a} - {b})",
    _BIN_FN["mul"]: "({a} * {b})",
    _BIN_FN["div"]: "c_div({a}, {b})",
    _BIN_FN["cmp.le"]: "int({a} <= {b})",
    _BIN_FN["cmp.gt"]: "int({a} > {b})",
    _BIN_FN["cmp.ge"]: "int({a} >= {b})",
    _BIN_FN["cmp.eq"]: "int({a} == {b})",
    _BIN_FN["cmp.ne"]: "int({a} != {b})",
    _BIN_FN["and"]: "({a} & {b})",
    _BIN_FN["or"]: "({a} | {b})",
    _BIN_FN["xor"]: "({a} ^ {b})",
    _BIN_FN["shl"]: "({a} << {b})",
    _BIN_FN["shr"]: "({a} >> {b})",
}

_UN_EXPR = {
    _UN_FN["neg"]: "(-{a})",
    _UN_FN["not"]: "int(not {a})",
    _UN_FN["bnot"]: "(~int({a}))",
    _UN_FN["cvt.int"]: "int({a})",
    _UN_FN["cvt.float"]: "float({a})",
}

#: the counter slots every trace returns, in tuple order (after
#: next_block/cycle/slots/ports/fuel, before the exit kind).  ``n_cx``
#: is the cycle span the dispatch loop must *exclude* from the caller's
#: fs.cycles: inlined-call spans, which the interpreter's
#: ``entered_at = cycle`` reset after a call would never attribute
_COUNTERS = ("n_i", "da", "n_pl", "n_st", "n_cl", "n_cm", "n_ad",
             "n_sp", "n_rp", "n_df", "n_sk", "n_rc", "n_tk", "n_fa",
             "n_cx")

_RET_TUPLE = "cycle, slots, ports, fuel, " + ", ".join(_COUNTERS)

#: opcodes a leaf callee may contain and still be inlined into a
#: caller's trace.  ALAT-keyed ops (ld.a/ld.s/ld.r/ld.c) are out — they
#: reference the callee's frame serial — as is anything branching
#: (the inlined path must be the only path) or frame-relative
_INLINE_OK = frozenset((_ADD, _CMPLT, _BIN, _REM, _MOV, _MOVI, _LD,
                        _ST, _LEA, _UN, _ALLOC, _PRINT, _INPUT,
                        _INPUTF))
_INLINE_MAX_BLOCKS = 8
_INLINE_MAX_INSTRS = 48

#: register-array references in callee-rendered lines (always literal
#: indices) are renamed to per-site locals; per-function counter bumps
#: on a branch-free path are compile-time constants, stripped and
#: flushed straight to the callee's FnStats slice
_RX_REG = re.compile(r"\bregs\[(\d+)\]")
_RX_RDY = re.compile(r"\bready\[(\d+)\]")
_RX_FL = re.compile(r"\bfrom_load\[(\d+)\]")
_RX_CN = re.compile(r"^\s*n_([a-z]{1,2}) \+= (\d+)$")
_FS_FIELD = {"i": "instructions", "pl": "plain_loads", "st": "stores",
             "cl": "check_loads", "cm": "check_misses",
             "ad": "advanced_loads", "sp": "spec_loads",
             "rp": "replay_loads", "df": "deferred_faults",
             "sk": "spec_checks", "rc": "spec_recoveries",
             "tk": "taken_branches", "fa": "fallthroughs"}


class _TraceWriter:
    """Generates the fused closure's source for one recorded path.

    Beyond flattening dispatch, the writer runs two abstract
    interpretations over the recorded instructions and specializes the
    emitted code with what they prove:

    * **Symbolic scoreboard.**  For each register it tracks the
      relation between ``ready[r]`` and ``cycle`` — ``EXACT k``
      (``ready[r] == cycle + k``, established by the write
      ``ready[r] = cycle + latency`` and maintained across known cycle
      advances) or ``at-most-0`` (``ready[r] <= cycle``, established by
      any issue that stalled on ``r``; monotone under cycle growth).
      A consumer whose sources are all provably ready emits no stall
      test at all, and a def-use chain with a provable stall emits the
      literal ``cycle += k`` the dynamic test would have computed.
      ``slots``/``ports`` are tracked the same way, so runs of
      provably-ready instructions decay to bare ``slots += 1``
      accounting with the issue-width rollover decided at compile time.
    * **NaT proofs.**  A register is proven non-NaT by instructions
      that cannot produce poison (``movi``, ``lea``, ``alloc``,
      ``input``, any load that faults rather than defers) or by
      surviving an instruction that raises on poison (store address,
      branch condition, ...).  Proven registers skip the poison
      check/propagate branches entirely; only ``ld.s``/``ld.a``
      results and values entering the trace from outside stay dynamic.

    Entry state comes from the interpreter and is arbitrary, so a
    straight-line trace proves everything from its own instructions.
    **Loop traces are peeled**: the body is emitted once from the
    unknown entry state (the peel), the abstract state at its back
    edge seeds a fixpoint (re-running the transfer function and
    joining until stable), and the steady-state body inside
    ``while True:`` is compiled from the fixpoint — so the code the
    loop actually spins in knows every latency, slot and NaT proof the
    first iteration established.  Redundant architectural-array writes
    (``from_load``/``ready`` stores whose value provably already
    holds) are elided; the arrays are exact again at every exit.
    """

    def __init__(self, machine: "_TraceMachine", fn: _TFunc) -> None:
        self.m = machine
        self.fn = fn
        self.lines: List[str] = []
        self.used = set()       # environment names the source references
        self.consts: List[object] = []   # per-site objects (symbols)
        self.iw = machine.issue_width
        self.mp = machine.mem_ports
        self.bp = machine.branch_penalty
        self.co = machine.call_overhead
        self.chl = machine.check_hit_latency
        self.cif = machine.check_issue_free
        cache = machine.cache
        self.lc = cache.line_cells
        self.l1n = cache._l1.nsets
        self.l1l = cache.l1_latency
        self.l2n = cache._l2.nsets
        self.aln = machine.alat.nsets
        self.injected = machine.injector is not None
        # abstract state (reset per trace; see class docstring)
        self.rs: Dict[int, tuple] = {}   # reg -> ("e", k) | ("a0",)
        self.fl: Dict[int, bool] = {}    # reg -> known from_load flag
        self.nonnat = set()              # regs proven non-NaT
        #: reg -> source regs: dest is NaT *iff* one of them is (exact
        #: poison propagation), so a later proof flows backwards
        self.natdep: Dict[int, tuple] = {}
        self.sk: Optional[int] = None    # slots, when statically known
        self.pk: Optional[int] = None    # ports, when statically known
        # leaf-call inlining (see inline_call): per-site serial, the
        # known-cycle-delta accumulator active while a callee body is
        # being emitted, the renaming flag, and the FnStats slices the
        # closure preamble must bind
        self.site = 0
        self.cdk: Optional[int] = None
        self.rename: Optional[int] = None
        self.callee_fs: List[str] = []

    # ---- low-level emission -------------------------------------------
    def w(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def const(self, obj: object) -> str:
        for i, existing in enumerate(self.consts):
            if existing is obj:
                return f"k{i}"
        self.consts.append(obj)
        return f"k{len(self.consts) - 1}"

    def ret(self, target: object, kind: int) -> str:
        return f"return ({target}, {_RET_TUPLE}, {kind})"

    # ---- abstract-state transitions -----------------------------------
    def adv_known(self, d: int) -> None:
        """cycle advanced by exactly ``d`` (caller emitted it)."""
        if d:
            for r, st in self.rs.items():
                if st[0] == "e":
                    self.rs[r] = ("e", st[1] - d)
            if self.cdk is not None:
                self.cdk += d

    def adv_unknown(self) -> None:
        """cycle advanced by an unknown amount >= 0."""
        for r, st in list(self.rs.items()):
            if st[0] == "e":
                if st[1] <= 0:
                    self.rs[r] = ("a0",)
                else:
                    del self.rs[r]
        self.cdk = None

    def put_fl(self, ind: int, dest: int, flag: bool) -> None:
        """``from_load[dest] = flag`` — elided when the array provably
        already holds ``flag``."""
        if self.fl.get(dest) is not flag:
            self.w(ind, f"from_load[{dest}] = {flag}")

    def put_ready(self, ind: int, dest: int, lat: int) -> None:
        """``ready[dest] = cycle + lat`` — elided when the scoreboard
        array provably already holds exactly that value."""
        if self.rs.get(dest) != ("e", lat):
            self.w(ind, f"ready[{dest}] = cycle + {lat}" if lat
                   else f"ready[{dest}] = cycle")

    def set_dest(self, dest: int, lat: Optional[int],
                 from_load: bool, nonnat: bool,
                 dep: tuple = ()) -> None:
        """Record the scoreboard effect of writing ``dest``.  ``dep``
        names the sources whose poison the write propagates exactly
        (``dest`` is NaT iff one of them is)."""
        if lat is None:
            self.rs.pop(dest, None)
        else:
            self.rs[dest] = ("e", lat)
        self.fl[dest] = from_load
        if nonnat:
            self.nonnat.add(dest)
        else:
            self.nonnat.discard(dest)
        # the old value of dest dies: so do poison links through it
        self.natdep.pop(dest, None)
        for d, srcs in list(self.natdep.items()):
            if dest in srcs:
                del self.natdep[d]
        if dep and not nonnat:
            self.natdep[dest] = dep

    def prove(self, src: int) -> None:
        """Mark ``src`` non-NaT and flow the proof backwards through
        exact poison-propagation links."""
        stack = [src]
        while stack:
            r = stack.pop()
            if r not in self.nonnat:
                self.nonnat.add(r)
                stack.extend(self.natdep.get(r, ()))

    def stall_of(self, s: int):
        """``None`` unknown, ``0`` provably ready, ``k > 0`` provably
        stalls exactly k cycles."""
        st = self.rs.get(s)
        if st is None:
            return None
        if st[0] == "a0" or st[1] <= 0:
            return 0
        return st[1]

    # ---- state snapshots (loop fixpoint) -------------------------------
    def clear_state(self) -> None:
        self.rs = {}
        self.fl = {}
        self.nonnat = set()
        self.natdep = {}
        self.sk = None
        self.pk = None

    def snapshot(self) -> tuple:
        return (dict(self.rs), dict(self.fl), set(self.nonnat),
                dict(self.natdep), self.sk, self.pk)

    def restore(self, state: tuple) -> None:
        rs, fl, nonnat, natdep, sk, pk = state
        self.rs = dict(rs)
        self.fl = dict(fl)
        self.nonnat = set(nonnat)
        self.natdep = dict(natdep)
        self.sk = sk
        self.pk = pk

    @staticmethod
    def merge(sa: tuple, sb: tuple) -> tuple:
        """The join: keep only facts both states prove.  Two exact-but-
        different offsets survive as ``at-most-0`` when both are."""
        rs = {}
        for r, st in sa[0].items():
            st2 = sb[0].get(r)
            if st2 is None:
                continue
            if st == st2:
                rs[r] = st
            elif ((st[0] == "a0" or st[1] <= 0)
                    and (st2[0] == "a0" or st2[1] <= 0)):
                rs[r] = ("a0",)
        fl = {r: v for r, v in sa[1].items() if sb[1].get(r) is v}
        dep = {r: v for r, v in sa[3].items() if sb[3].get(r) == v}
        return (rs, fl, sa[2] & sb[2], dep,
                sa[4] if sa[4] == sb[4] else None,
                sa[5] if sa[5] == sb[5] else None)

    @staticmethod
    def state_key(state: tuple) -> tuple:
        return (tuple(sorted(state[0].items())),
                tuple(sorted(state[1].items())),
                tuple(sorted(state[2])),
                tuple(sorted(state[3].items())), state[4], state[5])

    # ---- stall/issue emission -----------------------------------------
    def issue(self, ind: int, srcs: Sequence[int], mem: bool) -> None:
        """The fused stall+issue stage for one instruction, specialized
        as far as the symbolic scoreboard allows."""
        ks = [self.stall_of(s) for s in srcs]
        if any(k is None for k in ks):
            # provably-ready sources can never attain the dynamic max
            # (their ready <= cycle < any stalling source), so the
            # emitted stall test only scans the unknown ones — unless a
            # source provably stalls, which re-enters the full scan to
            # keep the binding order exact
            if max((k for k in ks if k is not None), default=0) == 0:
                srcs = [s for s, k in zip(srcs, ks) if k is None]
            self.issue_generic(ind, srcs, mem)
            return
        K = max(ks, default=0)
        if K == 0:
            self.rollover(ind, mem)
            return
        # provable stall: the dynamic max/test collapses to a constant
        # cycle bump.  Binding = first source attaining the max (the
        # dispatch loop replaces only on strictly-greater).
        binding = next(s for s, k in zip(srcs, ks) if k == K)
        fb = self.fl.get(binding)
        if fb is True:
            self.w(ind, f"da += {K}")
        elif fb is None:
            self.w(ind, f"if from_load[{binding}]:")
            self.w(ind + 1, f"da += {K}")
        self.w(ind, f"cycle += {K}")
        self.w(ind, "slots = 1")
        self.w(ind, f"ports = {1 if mem else 0}")
        self.adv_known(K)
        self.sk = 1
        self.pk = 1 if mem else 0

    def rollover(self, ind: int, mem: bool) -> None:
        """Slot/port accounting when no source can stall."""
        w = self.w
        if not mem:
            if self.sk is not None:
                if self.sk >= self.iw:
                    w(ind, "cycle += 1")
                    w(ind, "slots = 1")
                    w(ind, "ports = 0")
                    self.adv_known(1)
                    self.sk = 1
                    self.pk = 0
                else:
                    w(ind, "slots += 1")
                    self.sk += 1
            else:
                w(ind, f"if slots >= {self.iw}:")
                w(ind + 1, "cycle += 1")
                w(ind + 1, "slots = 1")
                w(ind + 1, "ports = 0")
                w(ind, "else:")
                w(ind + 1, "slots += 1")
                self.adv_unknown()
                if self.pk != 0:
                    self.pk = None
        else:
            if self.sk is not None and self.pk is not None:
                if self.sk >= self.iw or self.pk >= self.mp:
                    w(ind, "cycle += 1")
                    w(ind, "slots = 1")
                    w(ind, "ports = 1")
                    self.adv_known(1)
                    self.sk = 1
                    self.pk = 1
                else:
                    w(ind, "slots += 1")
                    w(ind, "ports += 1")
                    self.sk += 1
                    self.pk += 1
            else:
                w(ind, f"if slots >= {self.iw} or ports >= {self.mp}:")
                w(ind + 1, "cycle += 1")
                w(ind + 1, "slots = 1")
                w(ind + 1, "ports = 1")
                w(ind, "else:")
                w(ind + 1, "slots += 1")
                w(ind + 1, "ports += 1")
                self.adv_unknown()
                self.sk = None
                self.pk = None

    def issue_generic(self, ind: int, srcs: Sequence[int],
                      mem: bool) -> None:
        """The full dynamic stall+issue block (sources unknown)."""
        w = self.w
        p = 1 if mem else 0
        srcs = list(srcs)
        if len(srcs) == 1:
            src = srcs[0]
            w(ind, f"t = ready[{src}]")
            w(ind, "if t > cycle:")
            f = self.fl.get(src)
            if f is True:
                w(ind + 1, "da += t - cycle")
            elif f is None:
                w(ind + 1, f"if from_load[{src}]:")
                w(ind + 2, "da += t - cycle")
            w(ind + 1, "cycle = t")
            w(ind + 1, "slots = 1")
            w(ind + 1, f"ports = {p}")
        elif len(srcs) == 2:
            sa, sb = srcs
            fa, fb = self.fl.get(sa), self.fl.get(sb)
            # binding only matters for da attribution: skip tracking
            # when both flags agree statically.  Inside an inlined
            # callee the binding's *flag value* is tracked instead of
            # its register number — the renamer only rewrites literal
            # array indices
            track = not (fa is fb and fa is not None)
            byval = self.rename is not None
            w(ind, f"t = ready[{sa}]")
            if track:
                w(ind, f"_bf = from_load[{sa}]" if byval else f"_b = {sa}")
            w(ind, f"r = ready[{sb}]")
            w(ind, "if r > t:")
            w(ind + 1, "t = r")
            if track:
                w(ind + 1,
                  f"_bf = from_load[{sb}]" if byval else f"_b = {sb}")
            w(ind, "if t > cycle:")
            if track:
                w(ind + 1, "if _bf:" if byval else "if from_load[_b]:")
                w(ind + 2, "da += t - cycle")
            elif fa is True:
                w(ind + 1, "da += t - cycle")
            w(ind + 1, "cycle = t")
            w(ind + 1, "slots = 1")
            w(ind + 1, f"ports = {p}")
        else:           # print: max over an unrolled source list
            w(ind, "t = cycle")
            w(ind, "_bl = False")
            for s in srcs:
                w(ind, f"r = ready[{s}]")
                w(ind, "if r > t:")
                w(ind + 1, "t = r")
                w(ind + 1, f"_bl = from_load[{s}]")
            w(ind, "if t > cycle:")
            w(ind + 1, "if _bl:")
            w(ind + 2, "da += t - cycle")
            w(ind + 1, "cycle = t")
            w(ind + 1, "slots = 1")
            w(ind + 1, f"ports = {p}")
        if mem:
            w(ind, f"elif slots >= {self.iw} or ports >= {self.mp}:")
        else:
            w(ind, f"elif slots >= {self.iw}:")
        w(ind + 1, "cycle += 1")
        w(ind + 1, "slots = 1")
        w(ind + 1, f"ports = {p}")
        w(ind, "else:")
        w(ind + 1, "slots += 1")
        if mem:
            w(ind + 1, "ports += 1")
        # after any issue, every stall source is at-most-0 (we waited)
        self.adv_unknown()
        for s in srcs:
            self.rs[s] = ("a0",)
        self.sk = None
        if mem or self.pk != 0:
            self.pk = None

    # ---- memory-latency completion ------------------------------------
    def load_ready(self, ind: int, dest: int, fp: bool) -> None:
        """``ready[dest]`` from the cache — the inlined L1-hit fast
        path of the predecode engine, or the full call for floats."""
        w = self.w
        self.used.add("cache_load")
        if fp:
            w(ind, f"ready[{dest}] = cycle + cache_load(addr, True)")
            return
        self.used.update(("l1_sets", "cache"))
        w(ind, f"line = addr // {self.lc}")
        w(ind, f"l1e = l1_sets.get(line % {self.l1n})")
        w(ind, "if l1e is not None and line in l1e:")
        w(ind + 1, "l1e.move_to_end(line)")
        w(ind + 1, "cache.l1_hits += 1")
        w(ind + 1, f"ready[{dest}] = cycle + {self.l1l}")
        w(ind, "else:")
        w(ind + 1, f"ready[{dest}] = cycle + cache_load(addr, False)")

    # ---- straight-line instructions -----------------------------------
    def alu_result(self, ind: int, dest: int, sa: int, sb: int,
                   expr: str, lat: int, exact: bool = True) -> None:
        """Result write for a two-source ALU op: one line when both
        inputs are proven clean, the poison-propagation split
        otherwise.  ``exact`` means the clean expression can never
        itself produce NaT (true for every builtin op), so the poison
        link is exact and proofs flow backwards through it."""
        w = self.w
        if sa in self.nonnat and sb in self.nonnat:
            w(ind, f"regs[{dest}] = "
                   + expr.format(a=f"regs[{sa}]", b=f"regs[{sb}]"))
            clean = True
        else:
            self.used.add("nat")
            w(ind, f"a = regs[{sa}]")
            w(ind, f"b = regs[{sb}]")
            w(ind, "if a is nat or b is nat:")
            w(ind + 1, f"regs[{dest}] = nat")
            w(ind, "else:")
            w(ind + 1, f"regs[{dest}] = " + expr.format(a="a", b="b"))
            clean = False
        self.put_ready(ind, dest, lat)
        self.put_fl(ind, dest, False)
        self.set_dest(dest, lat, False, clean,
                      (sa, sb) if exact else ())

    def nat_guard(self, ind: int, src: int, message: str) -> None:
        """Raise on poison unless ``src`` is already proven clean;
        either way ``src`` (and whatever fed it) is clean afterwards."""
        if src not in self.nonnat:
            self.used.update(("nat", "MachineError"))
            self.w(ind, f"if regs[{src}] is nat:")
            self.w(ind + 1, "raise MachineError(")
            self.w(ind + 2, f"{message!r})")
            self.prove(src)

    def emit_instr(self, ind: int, instr: tuple) -> None:
        w = self.w
        code = instr[0]
        if code == _ADD or code == _CMPLT:
            dest, sa, sb = instr[3], instr[4], instr[5]
            self.issue(ind, (sa, sb), False)
            expr = "({a} + {b})" if code == _ADD else "int({a} < {b})"
            self.alu_result(ind, dest, sa, sb, expr, 1)
        elif code == _BIN:
            dest, fn, sa, sb, lat = (instr[3], instr[4], instr[5],
                                     instr[6], instr[7])
            self.issue(ind, (sa, sb), False)
            if fn is _BIN_FN["div"]:
                # C-truncated division: floor-divide plus a one-step
                # correction when the signs differ and a remainder
                # exists; floats and b == 0 keep c_div's exact
                # behaviour (including its InterpError)
                self.used.add("c_div")
                clean = sa in self.nonnat and sb in self.nonnat
                w(ind, f"a = regs[{sa}]")
                w(ind, f"b = regs[{sb}]")
                if not clean:
                    self.used.add("nat")
                    w(ind, "if a is nat or b is nat:")
                    w(ind + 1, f"regs[{dest}] = nat")
                    w(ind, "elif type(a) is int and type(b) is int"
                           " and b:")
                else:
                    w(ind, "if type(a) is int and type(b) is int"
                           " and b:")
                w(ind + 1, "q = a // b")
                w(ind + 1, "if q < 0 and q * b != a:")
                w(ind + 2, "q += 1")
                w(ind + 1, f"regs[{dest}] = q")
                w(ind, "else:")
                w(ind + 1, f"regs[{dest}] = c_div(a, b)")
                self.put_ready(ind, dest, lat)
                self.put_fl(ind, dest, False)
                self.set_dest(dest, lat, False, clean, (sa, sb))
                return
            expr = _BIN_EXPR.get(fn)
            exact = expr is not None
            if expr is None:        # an embedder-registered op
                expr = self.const(fn) + "({a}, {b})"
            self.alu_result(ind, dest, sa, sb, expr, lat, exact)
        elif code == _REM:
            dest, sa, sb, lat = instr[3], instr[4], instr[5], instr[6]
            self.issue(ind, (sa, sb), False)
            self.used.add("c_rem")
            clean = sa in self.nonnat and sb in self.nonnat
            w(ind, f"a = regs[{sa}]")
            w(ind, f"b = regs[{sb}]")
            if not clean:
                self.used.add("nat")
                w(ind, "if a is nat or b is nat:")
                w(ind + 1, f"regs[{dest}] = nat")
                w(ind, "elif type(a) is int and type(b) is int and b:")
            else:
                w(ind, "if type(a) is int and type(b) is int and b:")
            w(ind + 1, "r = a % b")
            w(ind + 1, "if r and (r < 0) != (a < 0):")
            w(ind + 2, "r -= b")
            w(ind + 1, f"regs[{dest}] = r")
            w(ind, "else:")
            w(ind + 1, f"regs[{dest}] = c_rem(a, b)")
            self.put_ready(ind, dest, lat)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, lat, False, clean, (sa, sb))
        elif code == _MOV:
            dest, src = instr[3], instr[4]
            self.issue(ind, (src,), False)
            w(ind, f"regs[{dest}] = regs[{src}]")
            self.put_ready(ind, dest, 1)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 1, False, src in self.nonnat, (src,))
        elif code == _MOVI:
            dest = instr[3]
            self.rollover(ind, False)
            imm = instr[4]
            if isinstance(imm, int) or (isinstance(imm, float)
                                        and math.isfinite(imm)):
                w(ind, f"regs[{dest}] = {imm!r}")
            else:       # inf/nan/exotic: repr would not round-trip
                w(ind, f"regs[{dest}] = {self.const(imm)}")
            self.put_ready(ind, dest, 1)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 1, False, True)
        elif code == _LD:
            dest, src, fp = instr[3], instr[4], instr[5]
            self.issue(ind, (src,), True)
            self.used.add("memory")
            self.nat_guard(ind, src,
                           "load address is NaT (unchecked speculative "
                           "value reached a non-speculative load)")
            self.used.add("MachineError")
            w(ind, f"addr = int(regs[{src}])")
            w(ind, "try:")
            w(ind + 1, f"regs[{dest}] = memory[addr]")
            w(ind, "except KeyError:")
            w(ind + 1, "raise MachineError(")
            w(ind + 2, "f\"load from unallocated address {addr}\""
                       ") from None")
            self.load_ready(ind, dest, fp)
            self.put_fl(ind, dest, True)
            w(ind, "n_pl += 1")
            self.set_dest(dest, None, True, True)
        elif code == _ST:
            sa, sb, coerce, fp = instr[3], instr[4], instr[5], instr[6]
            self.issue(ind, (sa, sb), True)
            self.used.update(("MachineError", "memory", "al_sets",
                              "alat_invalidate"))
            if sa in self.nonnat and sb in self.nonnat:
                w(ind, f"value = regs[{sb}]")
            else:
                self.used.add("nat")
                w(ind, f"value = regs[{sb}]")
                w(ind, f"if regs[{sa}] is nat or value is nat:")
                w(ind + 1, "raise MachineError(")
                w(ind + 2, "\"store consumed NaT (unchecked speculative"
                           " \"")
                w(ind + 2, "\"value reached memory)\")")
                self.prove(sa)
                self.prove(sb)
            w(ind, f"addr = int(regs[{sa}])")
            w(ind, "if addr not in memory:")
            w(ind + 1, "raise MachineError(")
            w(ind + 2, "f\"store to unallocated address {addr}\")")
            if coerce:
                w(ind, "value = float(value)")
            w(ind, "memory[addr] = value")
            w(ind, f"if al_sets.get(addr % {self.aln}):")
            w(ind + 1, "alat_invalidate(addr)")
            if fp:
                self.used.add("cache_store")
                w(ind, "cache_store(addr, True)")
            else:
                self.used.update(("l1_sets", "l2_sets", "cache_store"))
                w(ind, f"line = addr // {self.lc}")
                w(ind, f"l2e = l2_sets.get(line % {self.l2n})")
                w(ind, f"l1e = l1_sets.get(line % {self.l1n})")
                w(ind, "if (l2e is not None and line in l2e")
                w(ind + 2, "and l1e is not None and line in l1e):")
                w(ind + 1, "l2e.move_to_end(line)")
                w(ind + 1, "l1e.move_to_end(line)")
                w(ind, "else:")
                w(ind + 1, "cache_store(addr, False)")
            w(ind, "n_st += 1")
            if self.injected:
                self.used.update(("after_store", "alat", "cache"))
                w(ind, "after_store(alat, cache)")
        elif code == _LDC:
            dest, src, fp = instr[3], instr[4], instr[5]
            self.used.update(("memory", "MachineError", "alat_check",
                              "alat_arm"))
            self.nat_guard(ind, src,
                           "check-load address is NaT (unchecked "
                           "speculative value)")
            w(ind, f"addr = int(regs[{src}])")
            w(ind, f"hit = alat_check({dest}, addr, frame)")
            w(ind, "if hit:")
            w(ind + 1, f"t = ready[{dest}]")
            w(ind + 1, f"_b = {dest}")
            w(ind, "else:")
            w(ind + 1, f"t = ready[{src}]")
            w(ind + 1, f"_b = {src}")
            w(ind + 1, f"r = ready[{dest}]")
            w(ind + 1, "if r > t:")
            w(ind + 2, "t = r")
            w(ind + 2, f"_b = {dest}")
            w(ind, "if t > cycle:")
            w(ind + 1, "if from_load[_b]:")
            w(ind + 2, "da += t - cycle")
            w(ind + 1, "cycle = t")
            w(ind + 1, "slots = 0")
            w(ind + 1, "ports = 0")
            if not self.cif:
                w(ind, f"if slots >= {self.iw} or ports >= {self.mp}:")
                w(ind + 1, "cycle += 1")
                w(ind + 1, "slots = 1")
                w(ind + 1, "ports = 1")
                w(ind, "else:")
                w(ind + 1, "slots += 1")
                w(ind + 1, "ports += 1")
            w(ind, "n_cl += 1")
            w(ind, "if hit:")
            self.put_ready(ind + 1, dest, self.chl)
            self.put_fl(ind + 1, dest, False)
            w(ind, "else:")
            w(ind + 1, "try:")
            w(ind + 2, f"regs[{dest}] = memory[addr]")
            w(ind + 1, "except KeyError:")
            w(ind + 2, "raise MachineError(")
            w(ind + 3, "f\"check load from unallocated address "
                       "{addr}\") from None")
            w(ind + 1, f"alat_arm({dest}, addr, frame)")
            self.load_ready(ind + 1, dest, fp)
            self.put_fl(ind + 1, dest, True)
            w(ind + 1, "n_cm += 1")
            self.adv_unknown()
            self.rs.pop(dest, None)
            self.fl.pop(dest, None)
            # conservatively NOT proven: an ALAT hit keeps the current
            # register value, whatever it is
            self.nonnat.discard(dest)
            self.natdep.pop(dest, None)
            for d, srcs in list(self.natdep.items()):
                if dest in srcs:
                    del self.natdep[d]
            self.sk = None
            self.pk = None
        elif code == _LDA:
            dest, src, fp = instr[3], instr[4], instr[5]
            self.issue(ind, (src,), True)
            self.used.update(("mem_get", "alat_arm", "alat_disarm"))
            if src in self.nonnat:
                w(ind, f"addr = int(regs[{src}])")
                w(ind, "value = mem_get(addr)")
                w(ind, "if value is None:")
                self.used.add("nat")
                w(ind + 1, f"regs[{dest}] = nat")
                w(ind + 1, f"alat_disarm({dest}, frame)")
                w(ind + 1, "n_df += 1")
                w(ind, "else:")
                w(ind + 1, f"regs[{dest}] = value")
                w(ind + 1, f"alat_arm({dest}, addr, frame)")
                self.load_ready(ind, dest, fp)
            else:
                self.used.add("nat")
                w(ind, f"a = regs[{src}]")
                w(ind, "if a is nat:")
                w(ind + 1, f"regs[{dest}] = nat")
                w(ind + 1, f"alat_disarm({dest}, frame)")
                w(ind + 1, f"ready[{dest}] = cycle + 1")
                w(ind, "else:")
                w(ind + 1, "addr = int(a)")
                w(ind + 1, "value = mem_get(addr)")
                w(ind + 1, "if value is None:")
                w(ind + 2, f"regs[{dest}] = nat")
                w(ind + 2, f"alat_disarm({dest}, frame)")
                w(ind + 2, "n_df += 1")
                w(ind + 1, "else:")
                w(ind + 2, f"regs[{dest}] = value")
                w(ind + 2, f"alat_arm({dest}, addr, frame)")
                self.load_ready(ind + 1, dest, fp)
            self.put_fl(ind, dest, True)
            w(ind, "n_ad += 1")
            self.set_dest(dest, None, True, False)
        elif code == _LDS:
            dest, src, fp = instr[3], instr[4], instr[5]
            self.issue(ind, (src,), True)
            self.used.update(("nat", "mem_get"))
            if self.injected:
                self.used.add("poison_load")
                deferred = ("if value is None or poison_load"
                            "(\"ld.s\", addr):")
            else:
                deferred = "if value is None:"
            if src in self.nonnat:
                w(ind, f"addr = int(regs[{src}])")
                w(ind, "value = mem_get(addr)")
                w(ind, deferred)
                w(ind + 1, f"regs[{dest}] = nat")
                w(ind + 1, "n_df += 1")
                w(ind, "else:")
                w(ind + 1, f"regs[{dest}] = value")
                self.load_ready(ind, dest, fp)
            else:
                w(ind, f"a = regs[{src}]")
                w(ind, "if a is nat:")
                w(ind + 1, f"regs[{dest}] = nat")
                w(ind + 1, f"ready[{dest}] = cycle + 1")
                w(ind, "else:")
                w(ind + 1, "addr = int(a)")
                w(ind + 1, "value = mem_get(addr)")
                w(ind + 1, deferred)
                w(ind + 2, f"regs[{dest}] = nat")
                w(ind + 2, "n_df += 1")
                w(ind + 1, "else:")
                w(ind + 2, f"regs[{dest}] = value")
                self.load_ready(ind + 1, dest, fp)
            self.put_fl(ind, dest, True)
            w(ind, "n_sp += 1")
            self.set_dest(dest, None, True, False)
        elif code == _LDR:
            dest, src, fp = instr[3], instr[4], instr[5]
            self.issue(ind, (src,), True)
            self.used.add("mem_get")
            self.nat_guard(ind, src,
                           "ld.r address is NaT (recovery block did not "
                           "replay the address chain)")
            w(ind, f"addr = int(regs[{src}])")
            w(ind, f"regs[{dest}] = mem_get(addr, 0)")
            self.load_ready(ind, dest, fp)
            self.put_fl(ind, dest, True)
            w(ind, "n_rp += 1")
            self.set_dest(dest, None, True, True)
        elif code == _LEA:
            dest, sym = instr[3], instr[4]
            self.rollover(ind, False)
            if instr[5]:        # global: the address is a run constant
                w(ind, f"regs[{dest}] = {self.m._global_addr[sym]}")
            else:
                w(ind, f"regs[{dest}] = addr_of[{self.const(sym)}]")
            self.put_ready(ind, dest, 1)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 1, False, True)
        elif code == _UN:
            dest, fn, src = instr[3], instr[4], instr[5]
            self.issue(ind, (src,), False)
            expr = _UN_EXPR.get(fn)
            exact = expr is not None
            if expr is None:
                expr = self.const(fn) + "({a})"
            if src in self.nonnat:
                w(ind, f"regs[{dest}] = "
                       + expr.format(a=f"regs[{src}]"))
                clean = True
            else:
                self.used.add("nat")
                w(ind, f"a = regs[{src}]")
                w(ind, f"regs[{dest}] = nat if a is nat else "
                       + expr.format(a="a"))
                clean = False
            self.put_ready(ind, dest, 1)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 1, False, clean,
                          (src,) if exact else ())
        elif code == _ALLOC:
            dest, src = instr[3], instr[4]
            self.issue(ind, (src,), False)
            self.used.add("allocate")
            self.nat_guard(ind, src,
                           "alloc size is NaT (unchecked speculative "
                           "value)")
            w(ind, f"regs[{dest}] = allocate(int(regs[{src}]))")
            self.put_ready(ind, dest, 1)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 1, False, True)
        elif code == _PRINT:
            srcs = instr[1]
            self.issue(ind, srcs, False)
            self.used.add("out_append")
            for s in srcs:
                self.nat_guard(ind, s,
                               "print consumed NaT (unchecked "
                               "speculative value reached output)")
            if len(srcs) == 1:
                w(ind, f"value = regs[{srcs[0]}]")
                w(ind, "out_append(f\"{value:.6g}\""
                       " if isinstance(value, float) else str(value))")
            else:
                w(ind, "parts = []")
                for s in srcs:
                    w(ind, f"value = regs[{s}]")
                    w(ind, "parts.append(f\"{value:.6g}\""
                           " if isinstance(value, float)"
                           " else str(value))")
                w(ind, "out_append(\" \".join(parts))")
        elif code == _INPUT or code == _INPUTF:
            dest = instr[3]
            self.rollover(ind, False)
            self.used.add("next_input")
            cvt = "float" if code == _INPUTF else "int"
            w(ind, f"regs[{dest}] = {cvt}(next_input())")
            self.put_ready(ind, dest, 1)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 1, False, True)
        else:       # _CALL / _RET can never be recorded into a trace
            raise MachineError(
                f"opcode {code} is not traceable (recorder bug)")

    # ---- leaf-call inlining -------------------------------------------
    def inline_call(self, ind: int, instr: tuple,
                    close_cx: bool) -> None:
        """Expand a call to a branch-free leaf callee in place.

        The callee's registers become per-site locals (its frame dies
        inside the trace), the scoreboard stays in the shared
        ``cycle``/``slots``/``ports`` locals exactly as the
        interpreter's nested ``_call`` would leave them, and the
        callee's per-function counters — compile-time constants on a
        branch-free path — flush straight to its FnStats slice.  The
        enclosing block's fuel guard reserves the path's fuel up
        front, so the exhaustion raise can never fire mid-callee.
        ``close_cx`` marks the block's last call: the span from the
        block-start anchor to here is the portion the interpreter's
        ``entered_at`` reset never attributes to the caller
        (returned as ``n_cx`` and subtracted by the dispatch hook)."""
        w = self.w
        srcs = instr[1]
        dest = instr[3]
        callee, path = self.m._inline_of(instr[4])
        self.issue(ind, srcs, False)
        k = self.site
        self.site += 1
        self.used.add("m")
        w(ind, "m._frame_serial += 1")
        # arguments copy into the fresh frame before the context switch
        for p, s in zip(callee.param_regs, srcs):
            w(ind, f"_c{k}r{p} = regs[{s}]")
        param_clean = {p for p, s in zip(callee.param_regs, srcs)
                       if s in self.nonnat}
        caller = self.snapshot()
        nregs = callee.nregs
        # entry state the interpreter builds: every value 0 (non-NaT),
        # ready at cycle 0, not from a load; parameters inherit only
        # what the caller proved about the argument
        self.rs = {r: ("a0",) for r in range(nregs)}
        self.fl = {r: False for r in range(nregs)}
        self.nonnat = ((set(range(nregs)) - set(callee.param_regs))
                       | param_clean)
        self.natdep = {}
        self.cdk = 0
        self.rename = k
        mark = len(self.lines)
        if self.co:
            w(ind, f"cycle += {self.co}")
            self.adv_known(self.co)
        w(ind, f"_ct{k} = cycle")
        w(ind, f"fuel -= {len(path)}")
        rsrc = None
        for bi in path:
            block = callee.blocks[bi]
            for ins in block[:-1]:
                self.emit_instr(ind, ins)
            t = block[-1]
            if t[0] == _JMP:
                self.rollover(ind, False)
                if t[4]:
                    w(ind, "n_tk += 1")
                    w(ind, f"cycle += {1 + self.bp}")
                    w(ind, "slots = 0")
                    w(ind, "ports = 0")
                    self.adv_known(1 + self.bp)
                    self.sk = 0
                    self.pk = 0
                else:
                    w(ind, "n_fa += 1")
                w(ind, f"n_i += {t[5]}")
            else:       # _RET ends the path
                rsrc = t[3]
                if rsrc is not None:
                    self.issue(ind, (rsrc,), False)
                    if dest is not None:
                        w(ind, f"_rv{k} = regs[{rsrc}]")
                else:
                    self.rollover(ind, False)
                w(ind, f"n_i += {t[4]}")
        # ---- rename the callee-rendered segment ------------------
        seg = self.lines[mark:]
        del self.lines[mark:]
        totals: Dict[str, int] = {}
        kept: List[str] = []
        for line in seg:
            mm = _RX_CN.match(line)
            if mm and mm.group(1) != "da":
                totals[mm.group(1)] = (totals.get(mm.group(1), 0)
                                       + int(mm.group(2)))
            else:
                kept.append(line)
        seg = [
            _RX_FL.sub(lambda m: f"_c{k}f{m.group(1)}",
                       _RX_RDY.sub(lambda m: f"_c{k}t{m.group(1)}",
                                   _RX_REG.sub(
                                       lambda m: f"_c{k}r{m.group(1)}",
                                       line)))
            for line in kept]
        for line in seg:
            if ("regs[" in line or "ready[" in line
                    or "from_load[" in line or "addr_of" in line
                    or re.search(r"\bframe\b", line)
                    or re.search(r"\bn_[a-z]{1,2} \+=", line)):
                raise MachineError(
                    f"un-renamable callee line in {callee.name}: "
                    f"{line.strip()!r} (writer bug)")
        # locals read before their first write hold the frame's entry
        # values (0 / 0 / False)
        local = re.compile(rf"_c{k}([rtf])(\d+)")
        assign = re.compile(rf"\s*(_c{k}[rtf]\d+) = (.*)$")
        defined = {f"_c{k}r{p}" for p in callee.param_regs}
        inits: List[str] = []
        for line in seg:
            am = assign.match(line)
            scan = am.group(2) if am else line
            for km, num in local.findall(scan):
                name = f"_c{k}{km}{num}"
                if name not in defined:
                    defined.add(name)
                    inits.append("    " * ind + name + " = "
                                 + ("False" if km == "f" else "0"))
            if am:
                defined.add(am.group(1))
        self.lines.extend(inits + seg)
        # ---- flush the callee's constant counters ----------------
        name = callee.name
        if name in self.callee_fs:
            fsj = self.callee_fs.index(name)
        else:
            fsj = len(self.callee_fs)
            self.callee_fs.append(name)
        for c in sorted(totals):
            w(ind, f"_cfs{fsj}.{_FS_FIELD[c]} += {totals[c]}")
        w(ind, f"_cfs{fsj}.cycles += cycle - _ct{k}")
        if self.co:
            w(ind, f"cycle += {self.co}")
            self.adv_known(self.co)
        if close_cx:
            w(ind, "n_cx += cycle - _ba")
        # ---- back to the caller ----------------------------------
        exit_sk, exit_pk = self.sk, self.pk
        ret_clean = rsrc is not None and rsrc in self.nonnat
        cdk = self.cdk
        self.cdk = None
        self.rename = None
        self.restore(caller)
        if cdk is None:
            self.adv_unknown()
        else:
            self.adv_known(cdk)
        self.sk = exit_sk
        self.pk = exit_pk
        if dest is not None:
            w(ind, f"regs[{dest}] = _rv{k}")
            self.put_ready(ind, dest, 0)
            self.put_fl(ind, dest, False)
            self.set_dest(dest, 0, False, ret_clean)

    # ---- terminators ---------------------------------------------------
    def emit_arm(self, ind: int, target: int, taken: bool, ninstr: int,
                 succ: int, last: bool, loop_head: Optional[int],
                 peel: bool) -> bool:
        """One branch arm: penalty accounting, then continue in-trace
        (fall through / loop back) or leave (normal or side exit).
        Returns True when execution proceeds into the code emitted
        next (so the caller applies this arm's state effects): a
        mid-trace fall-through, a steady-loop ``continue``, or the
        peel's back-edge arm falling through into ``while True:``."""
        w = self.w
        if taken:
            w(ind, "n_tk += 1")
            w(ind, f"cycle += {1 + self.bp}")
            w(ind, "slots = 0")
            w(ind, "ports = 0")
        else:
            w(ind, "n_fa += 1")
        w(ind, f"n_i += {ninstr}")
        if target != succ:
            w(ind, self.ret(target, _EXIT_SIDE))
            return False
        if last:
            if loop_head is not None and target == loop_head:
                if not peel:
                    w(ind, "continue")
                # peel: fall through into the steady-state loop
                return True
            w(ind, self.ret(target, _EXIT_NORMAL))
            return False
        return True     # recorded successor mid-trace: fall through

    def arm_effects(self, taken: bool) -> None:
        """Apply the continuing arm's scoreboard effects to the
        abstract state (penalty is a known cycle advance)."""
        if taken:
            self.adv_known(1 + self.bp)
            self.sk = 0
            self.pk = 0

    def join_arms(self, a_cont: bool, a_taken: bool,
                  b_cont: bool, b_taken: bool) -> None:
        """Fold the continuing arm's effects into the abstract state;
        when *both* arms reach the next emitted code (two arms with the
        same target), keep only what both agree on."""
        if a_cont and b_cont:
            if a_taken == b_taken:
                self.arm_effects(a_taken)
            else:
                base = self.snapshot()
                self.arm_effects(a_taken)
                sa = self.snapshot()
                self.restore(base)
                self.arm_effects(b_taken)
                self.restore(self.merge(sa, self.snapshot()))
        elif a_cont:
            self.arm_effects(a_taken)
        elif b_cont:
            self.arm_effects(b_taken)

    def emit_terminator(self, ind: int, instr: tuple, succ: int,
                        last: bool, loop_head: Optional[int],
                        peel: bool) -> None:
        w = self.w
        code = instr[0]
        if code == _JMP:
            self.rollover(ind, False)
            if self.emit_arm(ind, instr[3], instr[4], instr[5],
                             succ, last, loop_head, peel):
                self.arm_effects(instr[4])
        elif code == _BR:
            src = instr[3]
            self.issue(ind, (src,), False)
            self.nat_guard(ind, src,
                           "branch condition is NaT (unchecked "
                           "speculative value reached control flow)")
            w(ind, f"if regs[{src}]:")
            then_cont = self.emit_arm(ind + 1, instr[4], instr[6],
                                      instr[8], succ, last, loop_head,
                                      peel)
            w(ind, "else:")
            else_cont = self.emit_arm(ind + 1, instr[5], instr[7],
                                      instr[8], succ, last, loop_head,
                                      peel)
            self.join_arms(then_cont, instr[6], else_cont, instr[7])
        elif code == _CHK:
            src = instr[3]
            self.issue(ind, (src,), False)
            w(ind, "n_sk += 1")
            if src in self.nonnat and instr[4] == succ:
                # provably clean: the check can only fall through to
                # the continuation arm — no test, no side exit
                if self.emit_arm(ind, instr[4], instr[6], instr[8],
                                 succ, last, loop_head, peel):
                    self.arm_effects(instr[6])
            else:
                self.used.add("nat")
                w(ind, f"if regs[{src}] is nat:")
                w(ind + 1, "n_rc += 1")
                rec_cont = self.emit_arm(ind + 1, instr[5], instr[7],
                                         instr[8], succ, last,
                                         loop_head, peel)
                w(ind, "else:")
                cont_cont = self.emit_arm(ind + 1, instr[4], instr[6],
                                          instr[8], succ, last,
                                          loop_head, peel)
                self.join_arms(rec_cont, instr[7], cont_cont, instr[6])
                if cont_cont and not rec_cont:
                    # only the survived-the-check arm continues
                    self.prove(src)
        else:
            raise MachineError(
                f"opcode {code} cannot terminate a trace block")

    # ---- whole-trace assembly -----------------------------------------
    def emit_body(self, ind: int, seq: List[int], exit_block: int,
                  loop_head: Optional[int], peel: bool = False) -> None:
        """One copy of the recorded path, emitted from the current
        abstract state (which it advances to the path's exit state)."""
        for pos, bi in enumerate(seq):
            last = pos == len(seq) - 1
            succ = exit_block if last else seq[pos + 1]
            self.w(ind, f"# ---- block {bi}{' (peel)' if peel else ''}"
                        " ----")
            block = self.fn.blocks[bi]
            calls = [i for i, ins in enumerate(block)
                     if ins[0] == _CALL]
            # reserve the inlined paths' fuel up front: the guard may
            # deoptimize a touch early (the interpreter then just runs
            # the tail), but the exhaustion raise can never fire
            # inside an inlined callee
            margin = sum(len(self.m._inline_of(block[i][4])[1])
                         for i in calls)
            self.w(ind, f"if fuel <= {1 + margin}:")
            self.w(ind + 1, self.ret(bi, _EXIT_FUEL))
            self.w(ind, "fuel -= 1")
            if calls:
                self.w(ind, "_ba = cycle")
            for i, instr in enumerate(block[:-1]):
                if instr[0] == _CALL:
                    self.inline_call(ind, instr,
                                     close_cx=(i == calls[-1]))
                else:
                    self.emit_instr(ind, instr)
            self.emit_terminator(ind, block[-1], succ, last, loop_head,
                                 peel)

    def build(self, seq: List[int], exit_block: int) -> str:
        """The generated source for the recorded path ``seq`` whose
        recording stopped on arrival at ``exit_block``."""
        loop_head = seq[0] if exit_block == seq[0] else None
        if loop_head is None:
            # straight-line trace: every path returns; entry state is
            # whatever the interpreter had, so prove nothing
            body: List[str] = []
            self.lines = body
            self.clear_state()
            self.emit_body(1, seq, exit_block, None)
        else:
            # loop trace: peel one iteration from the unknown entry
            # state, then run the transfer function to a fixpoint over
            # the back edge and compile the steady-state body from it
            self.lines = []
            self.clear_state()
            self.emit_body(2, seq, exit_block, loop_head)
            first = self.snapshot()     # peel's back-edge state
            steady = first
            for _ in range(6):
                self.lines = []
                self.restore(steady)
                self.emit_body(2, seq, exit_block, loop_head)
                joined = self.merge(first, self.snapshot())
                if self.state_key(joined) == self.state_key(steady):
                    break
                steady = joined
            else:       # no convergence: steady body proves nothing
                steady = ({}, {}, set(), {}, None, None)
            peel_body: List[str] = []
            self.lines = peel_body
            self.clear_state()
            self.emit_body(1, seq, exit_block, loop_head, peel=True)
            loop_body: List[str] = []
            self.lines = loop_body
            self.restore(steady)
            self.emit_body(2, seq, exit_block, loop_head)
            body = peel_body + ["    while True:"] + loop_body
        header = ["def _trace(regs, ready, from_load, addr_of, frame,"
                  " cycle, slots, ports, fuel):"]
        for name in sorted(self.used):
            header.append(f"    {name} = _g_{name}")
        for i in range(len(self.consts)):
            header.append(f"    k{i} = _g_k{i}")
        for j in range(len(self.callee_fs)):
            header.append(f"    _cfs{j} = _g_cfs{j}")
        for name in _COUNTERS:
            header.append(f"    {name} = 0")
        return "\n".join(header + body) + "\n"


class _TraceMachine(_Machine):
    """The trace engine: the shared dispatch loop with tier-up on.  It
    only overrides :meth:`_init_traces`, so the loop's trace hook sees
    arrival counters and starts recording; recording installs fused
    closures through :meth:`_install_trace` (module docstring)."""

    def __init__(self, program, *args) -> None:
        super().__init__(program, *args)
        self.hot_threshold = HOT_THRESHOLD
        self._code_cache = _CODE_CACHE.setdefault(program, {})
        cache = self.cache
        self._env_key = (self.issue_width, self.mem_ports,
                         self.branch_penalty, self.call_overhead,
                         self.check_hit_latency, self.check_issue_free,
                         cache.line_cells, cache._l1.nsets,
                         cache.l1_latency, cache._l2.nsets,
                         self.alat.nsets, self.injector is not None)
        self._inline_cache: Dict[str, Optional[tuple]] = {}

    # ---- leaf-callee analysis -----------------------------------------
    def _inline_of(self, name: str) -> Optional[tuple]:
        """``(callee, path)`` when calls to ``name`` can be expanded
        inline in a trace: a known, frame-allocation-free function
        whose entry reaches ``ret`` through unconditional jumps only
        (a single static path, so no side exit can strand execution
        inside a frame the interpreter cannot rebuild), using only
        frame-independent opcodes.  ``None`` otherwise; memoized."""
        try:
            return self._inline_cache[name]
        except KeyError:
            pass
        fn = self.funcs.get(name)
        info = None
        if fn is not None and not fn.frame_allocs:
            path: List[int] = []
            bi, total = 0, 0
            seen = set()
            while True:
                if (bi in seen or len(path) >= _INLINE_MAX_BLOCKS):
                    path = None
                    break
                seen.add(bi)
                path.append(bi)
                block = fn.blocks[bi]
                total += len(block)
                if total > _INLINE_MAX_INSTRS or not block:
                    path = None
                    break
                ok = True
                for ins in block[:-1]:
                    if ins[0] not in _INLINE_OK or (
                            ins[0] == _LEA and not ins[5]):
                        ok = False
                        break
                if not ok:
                    path = None
                    break
                t = block[-1]
                if t[0] == _RET:
                    break
                if t[0] == _JMP:
                    bi = t[3]
                    continue
                path = None
                break
            if path is not None:
                info = (fn, path)
        self._inline_cache[name] = info
        return info

    # ---- trace management ---------------------------------------------
    def _init_traces(self, fn: _TFunc) -> List[Optional[object]]:
        """Build the per-block table on a function's first call: ``0``
        (an arrival counter) for every block that may join a trace,
        ``None`` for blocks that never can.  Returns need the
        interpreter's frame machinery; calls do too — unless every
        call in the block targets an inlinable leaf
        (:meth:`_inline_of`) with matching arity and a compatible
        return, in which case the block stays traceable and the
        writer expands the callee in place."""
        tbl: List[Optional[object]] = []
        for block in fn.blocks:
            ok = True
            for instr in block:
                code = instr[0]
                if code == _RET:
                    ok = False
                    break
                if code == _CALL:
                    info = self._inline_of(instr[4])
                    if info is None:
                        ok = False
                        break
                    callee, path = info
                    ret = callee.blocks[path[-1]][-1]
                    if (len(instr[1]) != len(callee.param_regs)
                            or (instr[3] is not None
                                and ret[3] is None)):
                        ok = False
                        break
            tbl.append(0 if ok else None)
        fn.tr_tbl = tbl
        return tbl

    def _trace_globals(self, consts: List[object],
                       callee_fs: Sequence[str] = ()) -> Dict[str, object]:
        """The execution environment the generated source binds in its
        preamble — per-run objects, never baked into (cached) source."""
        env = {
            "_g_m": self,
            "_g_nat": NAT,
            "_g_MachineError": MachineError,
            "_g_memory": self.memory,
            "_g_mem_get": self.memory.get,
            "_g_alat": self.alat,
            "_g_cache": self.cache,
            "_g_alat_check": self.alat.check,
            "_g_alat_arm": self.alat.arm,
            "_g_alat_invalidate": self.alat.invalidate,
            "_g_alat_disarm": self.alat.disarm,
            "_g_cache_load": self.cache.load,
            "_g_cache_store": self.cache.store,
            "_g_l1_sets": self.cache._l1.sets,
            "_g_l2_sets": self.cache._l2.sets,
            "_g_al_sets": self.alat._sets,
            "_g_allocate": self._allocate,
            "_g_next_input": self._next_input,
            "_g_out_append": self.output.append,
            "_g_c_rem": c_rem,
            "_g_c_div": c_div,
        }
        if self.injector is not None:
            env["_g_after_store"] = self.injector.after_store
            env["_g_poison_load"] = self.injector.poison_load
        for i, obj in enumerate(consts):
            env[f"_g_k{i}"] = obj
        for j, name in enumerate(callee_fs):
            env[f"_g_cfs{j}"] = self.stats.fn(name)
        return env

    def _install_trace(self, fn: _TFunc, seq: List[int],
                       exit_block: int) -> None:
        """Compile the recorded path into a fused closure and publish
        it at the trace head.  Non-looping scraps below
        :data:`MIN_TRACE_INSTRS` are not worth the dispatch round-trip;
        their head is retired instead.

        Codegen is the expensive step, so the per-program cache stores
        the compiled code object (plus the per-site constants its
        preamble binds): a campaign re-running the same program only
        pays ``exec`` + environment binding after the first run."""
        head = seq[0]
        if exit_block != head:
            total = sum(len(fn.blocks[bi]) for bi in seq)
            if total < MIN_TRACE_INSTRS:
                fn.tr_tbl[head] = None
                return
        key = (fn.name, tuple(seq), exit_block, self._env_key)
        cached = self._code_cache.get(key)
        if cached is None:
            writer = _TraceWriter(self, fn)
            source = writer.build(seq, exit_block)
            code = compile(source, f"<trace {fn.name}:{head}>", "exec")
            cached = self._code_cache[key] = (code, writer.consts,
                                              writer.callee_fs)
        namespace = self._trace_globals(cached[1], cached[2])
        exec(cached[0], namespace)
        fn.tr_tbl[head] = namespace["_trace"]
        self.stats.traces_compiled += 1
