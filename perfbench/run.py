"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Each run:

1. byte-compiles ``src/`` and ``perfbench/`` so that set-up is measured
   with bytecode already compiled;
2. starts the workload in several fresh processes that only set up,
   timing each from process start until the first op could issue, and
   reports the median as ``setup_s``;
3. starts a fresh process that sets up, runs the measured phase — every
   op checked against the reference interpreter — and reports;
   with ``--trace 1`` a second fresh process runs the same phase with
   every layer boundary traced, and the difference of the two wall
   times is the tracing overhead;
4. checks that the count metrics repeat exactly: between the two
   processes of a traced run, and against the last record of the same
   workload, seed, inputs and code in ``.perfbench_out/``;
5. writes the full report to ``.perfbench_out/report-*.json`` (see
   ``compare.py``) and prints it as a line starting ``report``, then as
   its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
   ``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its
   ``per_layer`` metrics traced.

It exits non-zero, printing no result, when the checkout holds no
``repro`` sources.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import count_mismatches, valid_metric_name  # noqa: E402

#: fresh processes timed for ``setup_s`` (measuring processes included)
SETUP_SAMPLES = 5
#: the whole invocation must end within this many seconds
BUDGET_S = 170.0
OUT_DIR = ".perfbench_out"

#: end-to-end counts that must repeat exactly for the same inputs and code
E2E_COUNTS = ("sim_cycles_geomean", "sim_loads_geomean", "misspec_ratio",
              "code_size_instrs", "degraded_fns")
#: per-layer counts that must repeat exactly (the service's hit/dedup
#: split and queue depth depend on client timing, so they are left out)
LAYER_COUNTS = (
    "lang.compile_source.calls", "profiling.train.calls",
    "profiling.train.runs_per_profile_compile", "profiling.oracle.calls",
    "profiling.oracle.redundant_share", "pipeline.compile.calls",
    "pipeline.analyses.hit_ratio", "pipeline.ladder.degraded_fns",
    "core.loads_promoted", "core.stmts_delta", "target.sim.calls",
    "target.trace.coverage", "target.trace.side_exit_rate",
    "target.trace.compiled", "hazards.injected_runs", "hazards.recoveries",
    "hazards.mismatches", "service.compiles", "service.shed",
    "service.worker_restarts")


class BenchError(Exception):
    """The benchmark could not run (no result is printed)."""


def _code_hash(root: str) -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


class Child:
    """One fresh benchmark process (``child.py``)."""

    def __init__(self, root: str, args, mode: str, trace: int,
                 deadline: float, spans: Optional[str] = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--trace", str(trace)]
        if spans:
            cmd += ["--spans", spans]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.ready_s: Optional[float] = None
        self.result: Optional[dict] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("PERFBENCH READY"):
                    self.ready_s = time.perf_counter() - start
                elif line.startswith("PERFBENCH RESULT "):
                    self.result = json.loads(line[len("PERFBENCH RESULT "):])
                else:
                    sys.stderr.write(line)
            code = self.proc.wait()
        finally:
            watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if code != 0 or self.ready_s is None \
                or (mode == "measure" and self.result is None):
            raise BenchError(f"{mode} process for {args.workload} failed "
                             f"(exit {code})")


def _spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _check_determinism(root: str, args, record: dict) -> List[str]:
    """Compare this run's counts with the last record of the same
    workload, seed, seconds, inputs and code, then store this one."""
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR,
                        f"{args.workload}-seed{args.seed}.json")
    mismatches: List[str] = []
    try:
        with open(path) as f:
            old = json.load(f)
    except (OSError, ValueError):
        old = None
    same = old is not None and all(
        old.get(key) == record[key]
        for key in ("fingerprint", "code_hash", "seconds"))
    if same:
        mismatches = count_mismatches(old["counts"], record["counts"],
                                      E2E_COUNTS + LAYER_COUNTS)
        # keep the per-layer counts of an earlier traced run
        merged = dict(old["counts"], **record["counts"])
        record = dict(record, counts=merged)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return mismatches


def _metrics(spec_list: List[dict], values: Dict[str, float]) -> dict:
    metrics = {}
    for entry in spec_list:
        name = entry["name"]
        if not valid_metric_name(name) or name not in values:
            raise BenchError(f"metric {name!r} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return metrics


def run(args) -> Tuple[dict, dict]:
    root = os.getcwd()
    spec = _spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        raise BenchError("no repro sources under src/ in this checkout")
    deadline = time.monotonic() + BUDGET_S
    for top in ("src", "perfbench"):
        if not compileall.compile_dir(os.path.join(root, top), quiet=1):
            raise BenchError(f"byte-compiling {top}/ failed")

    measured = 2 if args.trace else 1
    setup = [Child(root, args, "setup", 0, deadline).ready_s
             for _ in range(SETUP_SAMPLES - measured)]
    plain = Child(root, args, "measure", 0, deadline)
    setup.append(plain.ready_s)
    report = dict(plain.result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setup_samples_s=setup)
    e2e = dict(report.pop("e2e"), setup_s=statistics.median(setup))
    counts = {name: e2e[name] for name in E2E_COUNTS if name in e2e}
    counts["degraded_fns"] = report["degraded_fns"]
    nondeterminism = list(report["nondeterminism"])
    layers: Dict[str, float] = {}
    if args.trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        spans = os.path.join(OUT_DIR,
                             f"spans-{args.workload}-seed{args.seed}.json")
        traced = Child(root, args, "measure", 1, deadline, spans=spans)
        setup.append(traced.ready_s)
        e2e["setup_s"] = statistics.median(setup)
        layers = dict(traced.result["layers"])
        overhead = traced.result["wall_s"] - plain.result["wall_s"]
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / plain.result["wall_s"]
        traced_counts = dict(traced.result["e2e"],
                             degraded_fns=traced.result["degraded_fns"])
        nondeterminism += [f"{name} differs between the untraced and the "
                           f"traced process"
                           for name in count_mismatches(
                               counts, traced_counts, E2E_COUNTS)]
        nondeterminism += traced.result["nondeterminism"]
        if traced.result["fingerprint"] != report["fingerprint"]:
            nondeterminism.append("the traced process generated other "
                                  "inputs")
        counts.update({name: layers[name] for name in LAYER_COUNTS
                       if name in layers})
        report["failed"] += traced.result["failed"]
        report["attempted"] += traced.result["attempted"]
        report["failures"] += traced.result["failures"]
        report["spans_file"] = spans
    record = {"fingerprint": report["fingerprint"],
              "code_hash": _code_hash(root), "seconds": args.seconds,
              "counts": counts}
    nondeterminism += [f"{name} differs from the last run of the same "
                       f"inputs and code"
                       for name in _check_determinism(root, args, record)]
    report["nondeterminism"] = nondeterminism
    report["code_hash"] = record["code_hash"]
    report["e2e"] = e2e
    report["layers"] = layers
    values = layers if args.trace else e2e
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": report["failed"] == 0 and not nondeterminism,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": _metrics(listed, values),
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in report["nondeterminism"]:
        print(f"perfbench: nondeterministic count: {problem}",
              file=sys.stderr)
    for failure in report["failures"]:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1,
                  sort_keys=True)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
