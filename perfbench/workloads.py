"""The benchmark's four workloads.

Each workload is built from the benchmark seed in :meth:`setup` (the
part ``setup_s`` covers: importing ``repro``, generating inputs,
booting the service), checked against the reference interpreter
inside :meth:`run`, and sized from ``--seconds`` through a nominal
rate measured on a 2-CPU x86-64 container, so that one run does a
fixed amount of work: the same seed and seconds give the same ops,
and therefore the same count metrics, on every run.

Every workload runs with library defaults: no pinned engine, the
default compile cache.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from metrics import fingerprint

#: the five configurations of the figure harness
CONFIGS = ("base", "profile", "heuristic", "static", "aggressive")

#: nominal rates on the reference container (2 vCPUs, shared host, at
#: its slower times), used to size a run
FIGURES_PASS_S = 7.0            # one pass over 10 workloads x 5 configs
FUZZ_PROGRAMS_PER_S = 5.5       # each program compiled under 5 configs
CAMPAIGN_RUNS_PER_S = 15.0      # injected simulations
SERVICE_REQUESTS_PER_S = 45.0   # two closed-loop clients, one worker

#: generator seeds of the service's hot set and fresh pool (disjoint
#: from the fuzz-compile corpus, which starts at 0)
SERVICE_HOT_BASE = 100_000
SERVICE_FRESH_BASE = 200_000
SERVICE_HOT_KEYS = 4
#: a request not answered within this is a failed op, not a hang
REQUEST_TIMEOUT_S = 60.0


#: the machine overrides of the §5.1 manually-tuned ``aggressive``
#: variant — free checks, an ALAT without capacity pressure — exactly as
#: ``benchmarks/conftest.py::workload_runs`` builds it
AGGRESSIVE_MACHINE = {"check_issue_free": True, "alat_entries": 4096,
                      "alat_ways": 4}


def spec_config(name: str):
    """A figure-harness configuration: ``(SpecConfig, machine
    overrides or None)``."""
    from repro.core import SpecConfig
    from repro.target import ALAT

    config = getattr(SpecConfig, name)()
    if name != "aggressive":
        return config, None
    return config, dict(check_issue_free=AGGRESSIVE_MACHINE[
                            "check_issue_free"],
                        alat=ALAT(entries=AGGRESSIVE_MACHINE["alat_entries"],
                                  ways=AGGRESSIVE_MACHINE["alat_ways"]))


def code_size(program) -> int:
    """Static machine instructions of a compiled program."""
    return sum(len(block.instrs) for fn in program.functions.values()
               for block in fn.blocks)


@dataclass
class Outcome:
    """What one measured phase produced."""

    wall_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: per op: (cycles, memory loads, check loads, check misses)
    samples: List[tuple] = field(default_factory=list)
    code_size: int = 0
    degraded_fns: int = 0
    engines: Set[str] = field(default_factory=set)
    extra_rss_mb: float = 0.0
    #: per-layer metrics only this workload can report
    layers: Dict[str, float] = field(default_factory=dict)
    #: determinism violations found inside the run
    nondeterminism: List[str] = field(default_factory=list)


def _sample(stats) -> tuple:
    return (stats.cycles, stats.memory_loads, stats.check_loads,
            stats.check_misses)


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def fingerprint(self) -> str:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work after set-up that is not the user's (reference outputs)."""

    def run(self, probe) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _CompileAndRun(Workload):
    """A fixed op list of ``compile_and_run`` calls, in seeded order,
    repeated ``passes`` times; each pass starts from an empty compile
    cache, standing for a fresh process regenerating the results."""

    passes = 1

    def op_list(self) -> List[tuple]:
        """``(label, source, config name, train, ref)`` per op."""
        raise NotImplementedError

    def call(self, op: tuple, config, overrides):
        """One op: a ``compile_and_run`` checked against the reference
        interpreter."""
        raise NotImplementedError

    def setup(self) -> None:
        from repro.pipeline import default_cache

        self._cache = default_cache()
        self.ops = self.op_list()
        self.rng.shuffle(self.ops)
        self.configs = {name: spec_config(name) for name in CONFIGS}

    def fingerprint(self) -> str:
        return fingerprint({
            "workload": self.name, "passes": self.passes,
            "aggressive_machine": AGGRESSIVE_MACHINE,
            "ops": [[label, src, cfg, list(train), list(ref)]
                    for label, src, cfg, train, ref in self.ops]})

    def run(self, probe) -> Outcome:
        out = Outcome()
        first: List[Optional[tuple]] = []
        start = time.perf_counter()
        for index in range(self.passes):
            self._cache.clear()
            probe.new_pass()
            for op, entry in enumerate(self.ops):
                label, _, cfg, _, _ = entry
                config, overrides = self.configs[cfg]
                probe.op = index * len(self.ops) + op
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = self.call(entry, config, overrides)
                except Exception as exc:  # noqa: BLE001 - counted
                    out.latencies.append(time.perf_counter() - t0)
                    out.failures.append(f"{label}/{cfg}: "
                                        f"{type(exc).__name__}: {exc}")
                    sample = None
                else:
                    out.latencies.append(time.perf_counter() - t0)
                    sample = _sample(result.stats)
                    out.samples.append(sample)
                    if index == 0:
                        out.code_size += code_size(result.program)
                        out.degraded_fns += len(result.degraded)
                if index == 0:
                    first.append(sample)
                elif sample != first[op]:
                    out.nondeterminism.append(
                        f"{label}/{cfg} counters differ in pass {index}")
        out.wall_s = time.perf_counter() - start
        out.engines = {engine for _, engine, _, _ in probe.sims}
        return out


class FiguresCold(_CompileAndRun):
    """Every registered workload x the figure harness's five configs."""

    name = "figures-cold"

    def setup(self) -> None:
        self.passes = max(1, round(self.seconds / FIGURES_PASS_S))
        super().setup()

    def op_list(self) -> List[tuple]:
        from repro.workloads import (all_workloads, recovery_workloads,
                                     run_workload)

        self._run_workload = run_workload
        self._registered = {w.name: w for w in all_workloads()
                            + recovery_workloads()}
        return [(w.name, w.source, cfg, tuple(w.train_inputs),
                 tuple(w.ref_inputs))
                for w in self._registered.values() for cfg in CONFIGS]

    def call(self, op: tuple, config, overrides):
        return self._run_workload(self._registered[op[0]], config,
                                  machine_overrides=overrides)


class FuzzCompile(_CompileAndRun):
    """A fixed corpus of generated programs x the five configs.  The
    corpus is generator seeds ``0..N-1`` whatever the benchmark seed,
    which orders the ops: per-program cost varies about 1:100, and a
    seed-dependent corpus of this size spreads the throughput by more
    than any bound the benchmark could hold (see README.md)."""

    name = "fuzz-compile"

    def op_list(self) -> List[tuple]:
        from repro.pipeline import compile_and_run
        from repro.workloads.fuzz import random_program

        self._compile_and_run = compile_and_run
        count = max(1, round(self.seconds * FUZZ_PROGRAMS_PER_S))
        return [(f"fuzz{i}", random_program(i), cfg, (), ())
                for i in range(count) for cfg in CONFIGS]

    def call(self, op: tuple, config, overrides):
        _, source, _, train, ref = op
        return self._compile_and_run(source, config, train_inputs=train,
                                     ref_inputs=ref, check_output=True,
                                     machine_kwargs=overrides)


class CampaignWarm(Workload):
    """``run_campaign`` over all ten workloads x {poison, storm, chaos}
    x a seed range derived from the benchmark seed, ``jobs=1``.  An op
    is one injected simulation, timed at the ``run_program`` the
    campaign calls; ``ops_per_s`` uses the whole call's wall time."""

    name = "campaign-warm"
    scenarios = ("poison", "storm", "chaos")

    def setup(self) -> None:
        from repro.hazards import run_campaign
        from repro.workloads import all_workloads, recovery_workloads

        self._run_campaign = run_campaign
        self.workloads = [w.name for w in all_workloads()
                          + recovery_workloads()]
        runs = self.seconds * CAMPAIGN_RUNS_PER_S
        count = max(1, round(runs / (len(self.workloads)
                                     * len(self.scenarios))))
        self.seeds = list(range(self.seed * count,
                                self.seed * count + count))

    def fingerprint(self) -> str:
        from repro.workloads import get_workload

        return fingerprint({
            "workload": self.name, "scenarios": self.scenarios,
            "seeds": self.seeds,
            "programs": [[name, w.source, list(w.train_inputs),
                          list(w.ref_inputs)]
                         for name in self.workloads
                         for w in [get_workload(name)]]})

    def run(self, probe) -> Outcome:
        out = Outcome()
        start = time.perf_counter()
        try:
            report = self._run_campaign(self.workloads,
                                        scenarios=self.scenarios,
                                        seeds=self.seeds, jobs=1)
        except Exception as exc:  # noqa: BLE001 - counted
            out.wall_s = time.perf_counter() - start
            out.attempted = 1
            out.failures.append(f"campaign: {type(exc).__name__}: {exc}")
            return out
        out.wall_s = time.perf_counter() - start
        out.attempted = len(report.runs)
        out.failures = [f"{r.workload}/{r.scenario}/{r.seed}: "
                        f"{r.error or 'output mismatch'}"
                        for r in report.failures]
        out.latencies = [wall for wall, _, _, _ in probe.sims]
        out.samples = [_sample(stats) for _, _, stats, _ in probe.sims]
        out.engines = {engine for _, engine, _, _ in probe.sims}
        out.code_size = sum(probe.program_sizes)
        out.degraded_fns = len(report.degraded)
        out.layers = {
            "hazards.injected_runs": len(report.runs),
            "hazards.recoveries": report.total_recoveries,
            "hazards.mismatches": len(report.failures),
        }
        return out


class ServiceMixed(Workload):
    """A ``DaemonThread`` with one worker subprocess, driven by up to
    two closed-loop clients (never more than ``nproc``).  Half the
    requests are ``run`` requests for a hot set of four keys (cache
    hits and in-flight dedup), half for fresh keys (compile plus cache
    insert), in seeded order.  The hot keys share their half evenly and
    the fresh pool is fixed — generated programs x the five configs —
    so the seed decides the order of the requests, and with it which
    requests meet in flight."""

    name = "service-mixed"

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.daemon import DaemonThread
        from repro.workloads.fuzz import random_program

        total = max(2 * SERVICE_HOT_KEYS,
                    round(self.seconds * SERVICE_REQUESTS_PER_S))
        fresh = total - total // 2
        self.hot = [(random_program(SERVICE_HOT_BASE + i),
                     CONFIGS[i % len(CONFIGS)])
                    for i in range(SERVICE_HOT_KEYS)]
        programs = [random_program(SERVICE_FRESH_BASE + i)
                    for i in range(-(-fresh // len(CONFIGS)))]
        fresh_keys = [(src, cfg) for src in programs
                      for cfg in CONFIGS][:fresh]
        schedule = [("fresh", key) for key in fresh_keys]
        schedule += [("hot", self.hot[i % len(self.hot)])
                     for i in range(total // 2)]
        self.rng.shuffle(schedule)
        self.schedule = schedule
        self.clients = max(1, min(2, os.cpu_count() or 1))
        self._client_cls = ServiceClient
        self.daemon = DaemonThread(workers=1)
        with ServiceClient(port=self.daemon.port) as client:
            self.worker_pid = client.stats()["workers"][0]["pid"]

    def fingerprint(self) -> str:
        return fingerprint({"workload": self.name,
                            "clients": self.clients,
                            "schedule": self.schedule})

    def prepare(self) -> None:
        from repro.lang import compile_source
        from repro.profiling import run_module

        self.expected = {}
        for _, (src, _) in self.schedule:
            if src not in self.expected:
                self.expected[src] = run_module(compile_source(src),
                                                inputs=[])

    def run(self, probe) -> Outcome:
        from repro.service.client import ServiceError
        from repro.service.registry import resolve_config

        out = Outcome()
        lock = threading.Lock()
        cursor = iter(range(len(self.schedule)))
        results: List[Optional[tuple]] = [None] * len(self.schedule)
        with self._client_cls(port=self.daemon.port) as client:
            before = client.stats()

        def drive() -> None:
            with self._client_cls(port=self.daemon.port,
                                  timeout=REQUEST_TIMEOUT_S) as client:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    kind, (src, cfg) = self.schedule[index]
                    probe.set_thread_op(index)
                    span = probe.begin("service.request", kind=kind) \
                        if probe.traced else None
                    t0 = time.perf_counter()
                    try:
                        resp = client.run_source(src, config=cfg)
                        error = None
                    except (ServiceError, OSError) as exc:
                        resp, error = None, f"{type(exc).__name__}: {exc}"
                    wall = time.perf_counter() - t0
                    if span is not None:
                        probe.end(span)
                    results[index] = (wall, resp, error)

        threads = [threading.Thread(target=drive, name=f"client{i}")
                   for i in range(self.clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall_s = time.perf_counter() - start

        hot_lat, fresh_lat = [], []
        degraded: Dict[tuple, int] = {}
        for (kind, (src, cfg)), (wall, resp, error) in zip(self.schedule,
                                                           results):
            out.attempted += 1
            out.latencies.append(wall)
            (hot_lat if kind == "hot" else fresh_lat).append(wall)
            if error is None and \
                    resp["result"]["output"] != self.expected[src]:
                error = "output differs from the reference interpreter"
            if error is not None:
                out.failures.append(f"{kind}/{cfg}: {error}")
                continue
            stats = resp["result"]["stats"]
            out.samples.append((stats["cycles"], stats["memory_loads"],
                                stats["check_loads"], stats["check_misses"]))
            degraded[(src, cfg)] = len(resp["result"]["degraded"])
        out.degraded_fns = sum(degraded.values())
        out.engines = {resolve_config(cfg).engine
                       for _, (_, cfg) in self.schedule}

        with self._client_cls(port=self.daemon.port) as client:
            after = client.stats()
            # code size of the hot set: its keys are cached, so these
            # compile requests are hits
            out.code_size = sum(
                client.compile_source(src, config=cfg)["result"]
                ["instructions"] for src, cfg in self.hot)
        out.extra_rss_mb = _peak_rss_mb(self.worker_pid)
        out.layers = {
            f"service.{name}": after[name] - before[name]
            for name in ("compiles", "cache_hits", "deduped", "shed",
                         "worker_restarts")}
        out.layers["service.queue_depth_peak"] = after["queue_depth_peak"]
        out.layers["service.hot_p50_ms"] = 1e3 * statistics.median(hot_lat)
        out.layers["service.fresh_p50_ms"] = \
            1e3 * statistics.median(fresh_lat)
        lookups = (out.layers["service.compiles"]
                   + out.layers["service.cache_hits"])
        out.layers["pipeline.compile_cache.hit_ratio"] = (
            out.layers["service.cache_hits"] / lookups if lookups else 0.0)
        return out

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop()
            self.daemon = None


def _peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


#: per-layer metrics of the layers only one workload enters
LAYER_DEFAULTS = {name: 0 for name in (
    "hazards.injected_runs", "hazards.recoveries", "hazards.mismatches",
    "service.compiles", "service.cache_hits", "service.deduped",
    "service.queue_depth_peak", "service.shed", "service.worker_restarts",
    "service.hot_p50_ms", "service.fresh_p50_ms")}

WORKLOADS = {cls.name: cls for cls in (FiguresCold, CampaignWarm,
                                        FuzzCompile, ServiceMixed)}
