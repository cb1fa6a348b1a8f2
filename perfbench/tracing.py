"""Outside-in instrumentation: wrappers around the public functions each
``repro`` layer exposes, patched where their callers look them up.

Nothing in ``src/`` changes.  A :class:`Probe` installs the wrappers
for the duration of the measured phase and restores the originals on
exit.  Untraced, only the simulator entry points are wrapped (the
campaign's ops are its simulations, and every workload records the
engine that ran); traced, every layer boundary records a span — name,
start, end, parent span, op id — kept in memory and written out when
the benchmark ends.  Pass timings come from the ``PassTrace`` the
pipeline already returns; they carry a duration but no timestamps, so
they are attached to their compile span as duration-only children.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import threading
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional

from metrics import self_times

#: (module, attribute, span name) of every traced boundary
TRACED = (
    ("repro.pipeline.passes.manager", "compile_source", "lang.compile_source"),
    ("repro.pipeline.driver", "compile_program", "pipeline.compile"),
    ("repro.hazards.campaign", "compile_program", "pipeline.compile"),
    ("repro.pipeline.driver", "collect_alias_profile", "profiling.train"),
    ("repro.pipeline.driver", "collect_edge_profile", "profiling.train"),
    ("repro.pipeline.driver", "run_module", "profiling.oracle"),
    ("repro.hazards.campaign", "run_module", "profiling.oracle"),
)
#: the simulator entry points, wrapped traced or not
SIMULATORS = (
    ("repro.pipeline.driver", "run_program"),
    ("repro.hazards.campaign", "run_program"),
)

#: pass name -> per-layer metric its wall time is charged to
PASS_LAYER = {
    "build-ssa": "ssa.build.s",
    "verify-ssa": "ssa.verify.s",
    "lower-ssa": "ssa.lower.s",
    "lower-module": "ssa.lower.s",
    "codegen": "target.codegen.s",
    "schedule": "target.schedule.s",
    "superblock-form": "target.schedule.s",
    "superblock-schedule": "target.schedule.s",
    "superblock-layout": "target.schedule.s",
}


def _core_phases() -> List[str]:
    from repro.core.phases import PHASES

    return [phase.name for phase in PHASES]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _IdMap:
    """Values keyed by object identity, without keeping the objects
    alive (the pipeline's records are unhashable dataclasses)."""

    def __init__(self) -> None:
        self._entries: Dict[int, tuple] = {}

    def put(self, obj, value) -> None:
        self._entries[id(obj)] = (weakref.ref(obj), value)

    def get(self, obj):
        entry = self._entries.get(id(obj))
        if entry is None or entry[0]() is not obj:
            return None
        return entry[1]


class Probe:
    """Wrappers plus the in-memory span store of one measured phase."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: List[dict] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[tuple] = []
        self.op: Optional[int] = None
        #: every simulation: (host seconds, engine, MachineStats,
        #: index of the simulated program in ``program_sizes``)
        self.sims: List[tuple] = []
        #: static machine instructions of each distinct program simulated
        self.program_sizes: List[int] = []
        self._programs = _IdMap()
        #: fresh compiles: span id, analysis-cache hits/misses, degraded
        self.compiles: List[dict] = []
        self.compile_cache_hits = 0
        #: oracle calls per (source digest, inputs, fuel), this pass
        self._oracle_keys: Counter = Counter()
        self.oracle_redundant = 0
        self._module_source = _IdMap()
        self._results = _IdMap()

    # ---- spans -------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> dict:
        stack = self._stack()
        with self._lock:
            self._ids += 1
            span = {"id": self._ids, "name": name,
                    "parent": stack[-1] if stack else None,
                    "op": getattr(self._local, "op", self.op),
                    "start": time.perf_counter(), "end": None, **attrs}
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def set_thread_op(self, op: Optional[int]) -> None:
        """Op id for spans begun on this thread (the service clients)."""
        self._local.op = op

    def new_pass(self) -> None:
        """Oracle redundancy is counted within one pass over the op set
        (a pass stands for one fresh process regenerating it)."""
        self._oracle_keys.clear()

    # ---- patching ----------------------------------------------------------
    def __enter__(self) -> "Probe":
        for module_name, attr in SIMULATORS:
            self._patch(module_name, attr, self._wrap_sim)
        if self.traced:
            for module_name, attr, span_name in TRACED:
                self._patch(module_name, attr,
                            lambda fn, name=span_name:
                            self._wrap_span(fn, name))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def _wrap_sim(self, fn: Callable) -> Callable:
        default_engine = inspect.signature(fn).parameters["engine"].default

        def run_program(program, *args, **kwargs):
            span = self.begin("target.sim") if self.traced else None
            start = time.perf_counter()
            try:
                stats, output = fn(program, *args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                if span is not None:
                    self.end(span)
            with self._lock:
                seq = self._programs.get(program)
                if seq is None:
                    seq = len(self.program_sizes)
                    self._programs.put(program, seq)
                    self.program_sizes.append(sum(
                        len(block.instrs)
                        for mfn in program.functions.values()
                        for block in mfn.blocks))
                self.sims.append((wall, kwargs.get("engine", default_engine),
                                  stats, seq))
            return stats, output

        return run_program

    def _wrap_span(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            self._observe(name, span, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name: str, span: dict, args, kwargs, result) -> None:
        if name == "lang.compile_source":
            span["bytes"] = len(args[0])
        elif name == "pipeline.compile":
            # a result seen before came from the compile cache: its
            # passes ran (and were counted) in an earlier op
            if self._results.get(result) is None:
                self._results.put(result, True)
                stats = result.analyses.stats() if result.analyses else {}
                self.compiles.append({
                    "span": span["id"], "hits": stats.get("hits", 0),
                    "misses": stats.get("misses", 0),
                    "degraded": dict(result.degraded),
                    # load occurrences SSAPRE turned into register uses
                    "promoted": sum(st.promotion.reloads
                                    for st in result.opt_stats.values()
                                    if st.promotion is not None)})
                for record in result.pass_trace.records:
                    self._add_pass(record, span["id"])
            else:
                self.compile_cache_hits += 1
            self._module_source.put(result.original, _digest(args[0]))
        elif name == "profiling.oracle":
            module = args[0]
            source = self._module_source.get(module) or str(id(module))
            key = (source, repr(tuple(kwargs.get("inputs", ()))),
                   kwargs.get("fuel"))
            if self._oracle_keys[key]:
                self.oracle_redundant += 1
            self._oracle_keys[key] += 1

    def _add_pass(self, record, parent: int) -> None:
        with self._lock:
            self._ids += 1
            self.spans.append({
                "id": self._ids, "name": f"pass.{record.pass_name}",
                "parent": parent, "op": self.op, "start": None,
                "end": None, "dur": record.wall_s, "rung": record.rung,
                "function": record.function, "failed": record.failed,
                "delta": list(record.delta)})

    # ---- per-layer aggregation ---------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Every in-process per-layer metric of the traced phase
        (layers the workload never entered report 0)."""
        selfs = self_times(self.spans)
        by_name: Dict[str, List[dict]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def self_s(name: str) -> float:
            return sum(selfs[s["id"]] for s in by_name.get(name, ()))

        m: Dict[str, float] = {}
        lang = by_name.get("lang.compile_source", [])
        m["lang.compile_source.s"] = self_s("lang.compile_source")
        m["lang.compile_source.calls"] = len(lang)
        nbytes = sum(s.get("bytes", 0) for s in lang)
        m["lang.bytes_per_s"] = (nbytes / m["lang.compile_source.s"]
                                 if m["lang.compile_source.s"] else 0.0)

        train = by_name.get("profiling.train", [])
        m["profiling.train.s"] = self_s("profiling.train")
        m["profiling.train.calls"] = len(train)
        trained = {s["parent"] for s in train}
        m["profiling.train.runs_per_profile_compile"] = (
            len(train) / len(trained) if trained else 0.0)
        oracle = by_name.get("profiling.oracle", [])
        m["profiling.oracle.s"] = self_s("profiling.oracle")
        m["profiling.oracle.calls"] = len(oracle)
        m["profiling.oracle.redundant_share"] = (
            self.oracle_redundant / len(oracle) if oracle else 0.0)

        compiles = by_name.get("pipeline.compile", [])
        m["pipeline.compile.self_s"] = self_s("pipeline.compile")
        m["pipeline.compile.calls"] = len(self.compiles)
        hits = sum(c["hits"] for c in self.compiles)
        misses = sum(c["misses"] for c in self.compiles)
        m["pipeline.analyses.hit_ratio"] = (hits / (hits + misses)
                                            if hits + misses else 0.0)
        lookups = len(compiles)
        m["pipeline.compile_cache.hit_ratio"] = (
            self.compile_cache_hits / lookups if lookups else 0.0)

        phases = _core_phases()
        for phase in phases:
            m[f"core.{phase}.s"] = 0.0
        for metric in set(PASS_LAYER.values()):
            m[metric] = 0.0
        retry = 0.0
        stmts_delta = 0
        final_rung = self._final_rungs()
        for span in self.spans:
            if span["start"] is not None:
                continue
            name = span["name"][len("pass."):]
            if name in PASS_LAYER:
                m[PASS_LAYER[name]] += span["dur"]
            elif name in phases:
                m[f"core.{name}.s"] += span["dur"]
            else:   # split-critical-edges and the verifier guards
                m["pipeline.compile.self_s"] += span["dur"]
            if span["failed"] or span["rung"] not in ("as-configured", "-"):
                retry += span["dur"]
            won = final_rung.get((span["parent"], span["function"]),
                                 "as-configured")
            if name in phases and not span["failed"] and span["rung"] == won:
                stmts_delta += span["delta"][0]
        m["pipeline.ladder.retry_s"] = retry
        m["pipeline.ladder.degraded_fns"] = sum(
            len(c["degraded"]) for c in self.compiles)
        m["core.loads_promoted"] = sum(c["promoted"] for c in self.compiles)
        m["core.stmts_delta"] = stmts_delta

        sim_s = sum(wall for wall, _, _, _ in self.sims)
        instrs = sum(stats.instructions for _, _, stats, _ in self.sims)
        m["target.sim.s"] = self_s("target.sim")
        m["target.sim.calls"] = len(self.sims)
        m["target.sim.dyn_instr_per_s"] = instrs / sim_s if sim_s else 0.0
        trace_instr = sum(s.trace_dyn_instr for _, _, s, _ in self.sims)
        hits = sum(s.trace_hits for _, _, s, _ in self.sims)
        m["target.trace.coverage"] = trace_instr / instrs if instrs else 0.0
        m["target.trace.side_exit_rate"] = (
            sum(s.side_exits for _, _, s, _ in self.sims) / hits
            if hits else 0.0)
        m["target.trace.compiled"] = sum(s.traces_compiled
                                         for _, _, s, _ in self.sims)
        return m

    def _final_rungs(self) -> Dict[tuple, str]:
        """(compile span, function) -> the ladder rung it ended on."""
        return {(c["span"], fn): rung for c in self.compiles
                for fn, rung in c["degraded"].items()}

    def dump(self) -> List[list]:
        """The spans as compact rows for the spans file."""
        return [[s["id"], s["name"], s["start"], s["end"], s["parent"],
                 s["op"], s.get("dur")] for s in self.spans]
