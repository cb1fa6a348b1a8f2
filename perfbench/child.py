"""One fresh benchmark process (started by ``run.py``).

Sets the workload up, prints ``PERFBENCH READY`` — the moment the first
op could issue, which ``run.py`` times from process start as
``setup_s`` — and, in ``measure`` mode, runs the measured phase and
prints ``PERFBENCH RESULT <json>``.  With ``--trace 1`` every layer
boundary records spans, written to ``--spans`` at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

from metrics import geomean, tail
from tracing import Probe
from workloads import LAYER_DEFAULTS, WORKLOADS


def emit(kind: str, payload: dict) -> None:
    sys.stdout.write(f"PERFBENCH {kind} {json.dumps(payload)}\n")
    sys.stdout.flush()


def summarize(outcome, fingerprint: str) -> dict:
    """The end-to-end figures of one measured phase."""
    ok = outcome.attempted - len(outcome.failures)
    tail_ms, tail_pct, tail_n = (tail(outcome.latencies)
                                 if outcome.latencies else (0.0, 0.0, 0))
    checks = sum(s[2] for s in outcome.samples)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "fingerprint": fingerprint,
        "engines": sorted(outcome.engines),
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures[:5],
        "nondeterminism": outcome.nondeterminism,
        "wall_s": outcome.wall_s,
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "error_rate": (len(outcome.failures) / outcome.attempted
                       if outcome.attempted else 0.0),
        "degraded_fns": outcome.degraded_fns,
        "worker_peak_rss_mb": outcome.extra_rss_mb,
        "e2e": {
            "ops_per_s": ok / outcome.wall_s if outcome.wall_s else 0.0,
            "op_p50_ms": 1e3 * (statistics.median(outcome.latencies)
                                if outcome.latencies else 0.0),
            "op_tail_ms": 1e3 * tail_ms,
            "peak_rss_mb": own_rss + outcome.extra_rss_mb,
            "sim_cycles_geomean": geomean(s[0] for s in outcome.samples),
            "sim_loads_geomean": geomean(s[1] for s in outcome.samples),
            "misspec_ratio": (sum(s[3] for s in outcome.samples) / checks
                              if checks else 0.0),
            "code_size_instrs": outcome.code_size,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        workload.setup()
        emit("READY", {})
        if args.mode == "setup":
            return 0
        workload.prepare()
        with Probe(traced=bool(args.trace)) as probe:
            outcome = workload.run(probe)
        report = summarize(outcome, workload.fingerprint())
    finally:
        workload.close()
    layers = dict(LAYER_DEFAULTS, **probe.layer_metrics()) \
        if args.trace else {}
    layers.update(outcome.layers)
    report["layers"] = layers
    if args.spans:
        with open(args.spans, "w") as f:
            json.dump({"columns": ["id", "name", "start", "end", "parent",
                                   "op", "dur"],
                       "spans": probe.dump()}, f)
    emit("RESULT", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
