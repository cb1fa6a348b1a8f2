"""Load generator for the compile service (docs/service.md).

Drives a running daemon with N concurrent client connections (one
:class:`~repro.service.client.ServiceClient` per thread) issuing
``run`` (or ``compile``) requests drawn from a key space of K distinct
generated programs, with configurable **skew**: ``skew=0`` spreads
requests uniformly over the keys; larger values concentrate them
Zipf-style on the low-numbered keys (``weight(k) ∝ (k+1)^-skew``) —
the shape real compile traffic has, where a handful of hot sources
dominate.

Runs as two phases by default — **cold** (first contact with every
key) then **warm** (same key space again, now cache-resident) — and
reports per-phase p50/p99 latency and request throughput plus the
daemon's dedup/compile counters; ``benchmarks/test_service_perf.py``
writes this report to ``BENCH_service.json``.

Everything is seeded and deterministic: the same arguments produce the
same request schedule.

CLI::

    python -m repro loadgen --port 7457 --clients 8 --requests 32 \
        --keys 4 --skew 1.0 --json BENCH_service_load.json
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .client import ServiceClient

#: one key = one distinct tiny program; {k} keeps sources (and
#: therefore content keys) distinct, the arithmetic keeps outputs
#: input-dependent so `run` exercises the whole pipeline + oracle
_KEY_TEMPLATE = """
void main() {{
  int a[8]; int i; int s;
  s = {k};
  i = input();
  a[0] = s + 3;
  s = a[0] * 2 + i;
  print(s);
}}
"""


def key_source(k: int) -> str:
    """The generated program for key index ``k``."""
    return _KEY_TEMPLATE.format(k=k)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(round(q / 100.0 * len(sorted_values))))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class PhaseReport:
    """Latency/throughput of one load phase."""

    name: str
    requests: int = 0
    errors: int = 0
    deduped: int = 0
    cached: int = 0
    persisted: int = 0
    elapsed_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        lat = sorted(self.latencies_ms)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "deduped": self.deduped,
            "cached": self.cached,
            "persisted": self.persisted,
            "elapsed_s": self.elapsed_s,
            "req_per_s": (self.requests / self.elapsed_s
                          if self.elapsed_s > 0 else 0.0),
            "p50_ms": _percentile(lat, 50),
            "p99_ms": _percentile(lat, 99),
            "max_ms": lat[-1] if lat else 0.0,
        }


@dataclass
class LoadReport:
    """The full load-generator report (see docs/service.md for how to
    read it when tuning latency)."""

    clients: int
    requests_per_client: int
    keys: int
    skew: float
    op: str
    phases: Dict[str, PhaseReport] = field(default_factory=dict)
    #: daemon counter deltas over the whole load (stats op before/after)
    compiles: int = 0
    cache_hits: int = 0
    deduped: int = 0
    #: responses answered from the persistent (on-disk) cache
    persisted: int = 0
    #: readiness-probe latency: seconds until the daemon answered ping
    time_to_ready_s: float = 0.0
    daemon_stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "keys": self.keys,
            "skew": self.skew,
            "op": self.op,
            "phases": {name: phase.to_dict()
                       for name, phase in self.phases.items()},
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "persisted": self.persisted,
            "time_to_ready_s": self.time_to_ready_s,
        }

    def summary(self) -> str:
        lines = [f"loadgen: {self.clients} clients x "
                 f"{self.requests_per_client} requests, {self.keys} keys, "
                 f"skew {self.skew}, op {self.op} "
                 f"(ready in {self.time_to_ready_s * 1000.0:.1f}ms)"]
        for name, phase in self.phases.items():
            d = phase.to_dict()
            lines.append(
                f"  {name:5s}: {d['requests']} requests "
                f"({d['errors']} errors) in {d['elapsed_s']:.3f}s — "
                f"{d['req_per_s']:.0f} req/s, "
                f"p50 {d['p50_ms']:.2f}ms, p99 {d['p99_ms']:.2f}ms")
        lines.append(f"  cache: {self.compiles} compiles, "
                     f"{self.cache_hits} hits, "
                     f"{self.deduped} requests deduplicated in flight")
        return "\n".join(lines)


def _schedule(clients: int, requests: int, keys: int, skew: float,
              seed: int) -> List[List[int]]:
    """Per-client key sequences (deterministic for a given seed).

    Each client's first ``min(requests, keys)`` draws sweep the key
    space in the same order, so every wave has all clients racing on
    the *same* key — the shape in-flight deduplication exists for: one
    compile, N waiters.  The tail follows the skewed random draw.  The
    sweep also guarantees a cold phase touches every key, making the
    expected cache-layer compile count exactly ``keys``."""
    rng = random.Random(seed)
    weights = [(k + 1) ** -skew for k in range(keys)]
    schedule = []
    for _ in range(clients):
        sweep = [j % keys for j in range(min(requests, keys))]
        tail = rng.choices(range(keys), weights=weights,
                           k=max(0, requests - keys))
        schedule.append(sweep + tail)
    return schedule


def _client_phase(host: str, port: int, key_seq: List[int], op: str,
                  config: str, part: PhaseReport, timeout: float) -> None:
    """One client thread's share of a phase, recorded into its own
    ``part`` (merged after ``join``, so no count is shared across
    threads).  A failed client counts one error and stops."""
    try:
        with ServiceClient(host, port, timeout=timeout) as client:
            for k in key_seq:
                t0 = time.perf_counter()
                req = {"op": op, "source": key_source(k),
                       "config": config, "train": [1]}
                if op == "run":
                    req["ref"] = [2]
                resp = client.request(req)
                part.latencies_ms.append(
                    (time.perf_counter() - t0) * 1000.0)
                part.requests += 1
                part.deduped += bool(resp.get("dedup"))
                part.cached += bool(resp.get("cached"))
                part.persisted += bool(resp.get("persisted"))
    except Exception:  # noqa: BLE001 - a failed client is counted
        part.errors += 1


def generate_load(host: str = "127.0.0.1", port: int = 7457,
                  clients: int = 8, requests: int = 8,
                  keys: int = 4, skew: float = 0.0,
                  op: str = "run", config: str = "profile",
                  seed: int = 0,
                  phases: tuple = ("cold", "warm"),
                  timeout: float = 120.0) -> LoadReport:
    """Drive the daemon and measure (see module docstring)."""
    report = LoadReport(clients=clients, requests_per_client=requests,
                        keys=keys, skew=skew, op=op)
    with ServiceClient(host, port, timeout=timeout) as probe:
        before = probe.stats()
        for phase_name in phases:
            schedule = _schedule(clients, requests, keys, skew, seed)
            parts = [PhaseReport(phase_name) for _ in range(clients)]
            threads = [threading.Thread(
                target=_client_phase,
                args=(host, port, schedule[c], op, config, parts[c],
                      timeout)) for c in range(clients)]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            phase = PhaseReport(
                phase_name, elapsed_s=time.perf_counter() - t0,
                latencies_ms=[ms for p in parts for ms in p.latencies_ms])
            for name in ("requests", "errors", "deduped", "cached",
                         "persisted"):
                setattr(phase, name, sum(getattr(p, name) for p in parts))
            report.phases[phase_name] = phase
        after = probe.stats()
    report.compiles = after["compiles"] - before["compiles"]
    report.cache_hits = after["cache_hits"] - before["cache_hits"]
    report.deduped = after["deduped"] - before["deduped"]
    report.persisted = sum(p.persisted for p in report.phases.values())
    report.daemon_stats = after
    return report


def run_load(wait: float = 10.0, **kwargs: Any) -> LoadReport:
    """:func:`generate_load` behind a readiness probe.

    First waits (with backoff, up to ``wait`` seconds) for the daemon
    to answer a ping — the readiness probe — and records the observed
    time-to-ready in the report."""
    from .backoff import wait_ready

    time_to_ready = 0.0
    if wait > 0:
        time_to_ready = wait_ready(kwargs.get("host", "127.0.0.1"),
                                   kwargs.get("port", 7457),
                                   budget_s=wait)
    report = generate_load(**kwargs)
    report.time_to_ready_s = time_to_ready
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry (``python -m repro loadgen`` / ``repro loadgen``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="drive a running compile-service daemon and report "
                    "p50/p99 latency + throughput (docs/service.md)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7457)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client connections")
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client per phase")
    parser.add_argument("--keys", type=int, default=4,
                        help="distinct program keys")
    parser.add_argument("--skew", type=float, default=0.0,
                        help="key skew: 0 uniform, >0 Zipf-style hot keys")
    parser.add_argument("--op", choices=("run", "compile"), default="run")
    parser.add_argument("--config", default="profile",
                        help="registry config spec (e.g. "
                             "profile+superblock)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--phases", default="cold,warm",
                        help="comma-separated phase names (each replays "
                             "the same schedule)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout (seconds)")
    parser.add_argument("--wait", type=float, default=10.0,
                        help="seconds to retry the first connection "
                             "(daemon may still be booting)")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the report as JSON to FILE")
    args = parser.parse_args(argv)

    # readiness probe (backoff-paced ping, see repro.service.backoff)
    # happens inside run_load; the measured time-to-ready lands in the
    # report summary and JSON.
    report = run_load(wait=args.wait,
                      host=args.host, port=args.port,
                      clients=args.clients, requests=args.requests,
                      keys=args.keys, skew=args.skew, op=args.op,
                      config=args.config, seed=args.seed,
                      phases=tuple(p for p in args.phases.split(",") if p),
                      timeout=args.timeout)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.json}")
    errors = sum(p.errors for p in report.phases.values())
    return 0 if errors == 0 else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    sys.exit(main())
