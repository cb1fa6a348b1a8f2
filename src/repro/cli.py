"""Command-line interface.

Usage::

    python -m repro run FILE [--config NAME] [--spec-source SRC]
                             [--sched block|superblock]
                             [--engine predecode|classic]
                             [--train 1,2,3] [--ref 4,5,6] [--dump-ir]
                             [--inject SCENARIO] [--inject-seed N]
                             [--time-passes] [--trace-json FILE]
    python -m repro compare FILE [--train ...] [--ref ...]
    python -m repro workloads [--list | --name NAME] [--spec-source SRC]
    python -m repro campaign [--scenarios poison,storm] [--seeds 0,1,2]
                             [--adversary empty|shuffle|invert] [--jobs N]
                             [--spec-source SRC]

``--config`` names come from the shared service registry
(:mod:`repro.service.registry` — ``repro run --help`` lists them);
``--spec-source heuristic|profile|static`` overrides where speculation
flags come from (``static`` needs no train input at all);
``--engine predecode|classic`` picks the simulator dispatch
implementation (docs/performance.md — identical output and counters
on both).
    python -m repro figures [--out DIR]
    python -m repro serve [--host H] [--port P] [--workers N]
                          [--max-queue-depth N] [--max-inflight N]
                          [--cache-dir DIR]
    python -m repro submit (--ping | --stats | FILE) [--op run|compile]
                           [--config SPEC] [--train ...] [--ref ...]
    python -m repro loadgen [--clients N] [--requests N] [--keys K]
                            [--skew S] [--json FILE]
    python -m repro chaos [--seed N] [--scenarios a,b] [--report FILE]

``run`` compiles and simulates one mini-C file and prints its output and
counters; ``compare`` prints the base-vs-speculative row for a file;
``workloads`` runs the bundled SPEC2000-shaped programs; ``campaign``
runs the seeded fault-injection campaign (docs/recovery.md); ``figures``
regenerates every table of the paper's evaluation into a directory;
``serve``/``submit``/``loadgen`` are the compile-as-a-service surface
(docs/service.md): a long-lived daemon, a one-shot client, and a
latency/throughput load generator.

Exit codes: 0 success, 1 the simulated output diverged from the
reference interpreter (the readable diff is printed), 2 the run
exhausted its fuel (the function and instruction count are reported as
a diagnostic, not a stack trace), 3 the source FILE could not be read
or failed to lex, parse or lower, 4 the program faulted at run time
(for example ``input()`` past the end of its input stream).  Codes 2–4
print one ``error:`` line.  Usage errors — an unknown ``--config`` or
an unknown workload name — exit 2 with argparse's usage message.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core import SpecConfig
from .errors import FuelExhausted
from .lang import LexError, LowerError, ParseError
from .pipeline import Comparison, OutputMismatch, compile_and_run, \
    compile_program, format_table, run_compiled
from .profiling import InterpError
from .service.registry import available_configs, resolve_config
from .ssa import SpecMode
from .target import MachineError

#: the `--spec-source` axis: where speculation flags come from
_SPEC_SOURCES = ("heuristic", "profile", "static")


class _Unreadable(Exception):
    """A source FILE that cannot be opened (exit 3)."""


def _read_source(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise _Unreadable(f"cannot read {path}: {exc.strerror or exc}") \
            from None


def _workload_names() -> List[str]:
    from .workloads import all_workloads, recovery_workloads

    return [w.name for w in all_workloads() + recovery_workloads()]


def _workload_list(text: str) -> List[str]:
    """``--workloads a,b``: an unknown name is a usage error."""
    names = text.split(",")
    known = _workload_names()
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown workload {name!r} (choose from "
                f"{', '.join(known)})")
    return names


def _parse_inputs(text: str) -> List[float]:
    """argparse ``type=`` for ``--train``/``--ref``: comma-separated
    numbers, each an int if it reads as one, else a float; anything
    else is a usage error (exit 2)."""
    out: List[float] = []
    for part in text.split(",") if text else ():
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            try:
                out.append(float(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"not a number: {part!r}") from None
    return out


def _apply_sched(config: SpecConfig, args: argparse.Namespace) -> SpecConfig:
    sched = getattr(args, "sched", None)
    return config.but(scheduler=sched) if sched else config


def _apply_spec_source(config: SpecConfig,
                       args: argparse.Namespace) -> SpecConfig:
    """Honour ``--spec-source``: swap the flag provenance of the chosen
    config.  Profile-free sources also drop the edge profile, so the
    result genuinely needs no train run; ``profile`` turns it on (the
    train run is happening anyway)."""
    src = getattr(args, "spec_source", None)
    if not src:
        return config
    mode = SpecMode(src)
    return config.but(mode=mode,
                      use_edge_profile=(mode is SpecMode.PROFILE))


def _resolve_cli_config(args: argparse.Namespace) -> SpecConfig:
    return _apply_spec_source(
        _apply_sched(resolve_config(args.config), args), args)


def _config_label(args: argparse.Namespace) -> str:
    """The name the stats line reports: the config, plus the
    ``--spec-source`` override when it changed the flag provenance."""
    src = getattr(args, "spec_source", None)
    if src and src != args.config:
        return f"{args.config}+{src}"
    return args.config


def _cmd_run(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    config = _resolve_cli_config(args)
    machine_kwargs = {"engine": args.engine}
    if args.inject != "none":
        from .hazards import make_injector

        machine_kwargs["injector"] = make_injector(args.inject,
                                                   args.inject_seed)
    compiled = compile_program(source, config,
                               train_inputs=args.train,
                               fuel=args.fuel, cache=True)
    if args.dump_ir:
        from .ir import format_module

        print(format_module(compiled.optimized))
        print()
    result = run_compiled(compiled, source, args.ref,
                          check_output=not args.no_check, fuel=args.fuel,
                          machine_kwargs=machine_kwargs)
    for d in result.diagnostics:
        print(f"note: {d}", file=sys.stderr)
    from .pipeline import default_cache

    cache_stats = default_cache().stats()
    if args.time_passes and result.pass_trace is not None:
        print(result.pass_trace.format_table(), file=sys.stderr)
        print(f"compile cache: {cache_stats['hits']} hits, "
              f"{cache_stats['misses']} misses, "
              f"{cache_stats['bypasses']} bypasses "
              f"({cache_stats['entries']} entries); oracle: "
              f"{cache_stats['oracle_hits']} hits, "
              f"{cache_stats['oracle_misses']} misses", file=sys.stderr)
    if args.trace_json and result.pass_trace is not None:
        result.pass_trace.dump_json(
            args.trace_json, cache_stats=cache_stats,
            engine_stats={"engine": args.engine})
        print(f"pass trace written to {args.trace_json}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps({"output": result.output,
                          "stats": result.stats.to_dict(),
                          "degraded": result.degraded}, indent=2))
        return 0
    for line in result.output:
        print(line)
    s = result.stats
    print(f"--- {_config_label(args)}: cycles={s.cycles} "
          f"instructions={s.instructions} loads={s.memory_loads} "
          f"(plain={s.plain_loads} ld.a={s.advanced_loads} "
          f"ld.s={s.spec_loads} ld.c={s.check_loads} "
          f"misses={s.check_misses} deferred={s.deferred_faults} "
          f"recovered={s.spec_recoveries})", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    base = compile_and_run(source, SpecConfig.base(),
                           train_inputs=args.train, ref_inputs=args.ref)
    spec = compile_and_run(source, resolve_config(args.config),
                           train_inputs=args.train, ref_inputs=args.ref)
    comparison = Comparison(args.file, base, spec)
    print(format_table([comparison.row()]))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from .workloads import all_workloads, compare_workload

    if args.list:
        for w in all_workloads():
            print(f"{w.name:8s} ({w.spec_name}): {w.description}")
        return 0
    names = [args.name] if args.name else [w.name for w in all_workloads()]
    rows = []
    for name in names:
        comparison = compare_workload(
            name, spec_config=_resolve_cli_config(args))
        rows.append(comparison.row())
    title = args.config + (f" ({args.spec_source} flags)"
                           if args.spec_source else "")
    print(format_table(rows, title=f"{title} vs base"))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .hazards import ADVERSARIES, run_campaign

    transform = ADVERSARIES[args.adversary] if args.adversary else None
    config = None
    if args.spec_source:
        # same default the campaign uses (static control speculation —
        # the edge profile would optimize the recovery workloads' ld.s
        # sites away), with the requested flag provenance swapped in
        config = SpecConfig.profile().but(mode=SpecMode(args.spec_source),
                                          use_edge_profile=False)
    report = run_campaign(
        workload_names=args.workloads,
        config=config,
        scenarios=tuple(args.scenarios.split(",")),
        seeds=[int(s) for s in args.seeds.split(",")],
        profile_transform=transform,
        jobs=args.jobs,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    import subprocess

    # plain pytest: the benches use conftest fixtures and markers, not
    # the pytest-benchmark plugin (whose flags would be rejected here)
    cmd = [sys.executable, "-m", "pytest", "benchmarks/", "-q"]
    return subprocess.call(cmd)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import run_daemon

    return run_daemon(host=args.host, port=args.port,
                      workers=args.workers,
                      drain_grace=args.drain_grace,
                      max_queue_depth=args.max_queue_depth,
                      max_inflight=args.max_inflight,
                      cache_dir=args.cache_dir)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .hazards.service_chaos import SERVICE_SCENARIOS, \
        run_service_campaign

    scenarios = tuple(args.scenarios.split(",")) if args.scenarios \
        else SERVICE_SCENARIOS
    report = run_service_campaign(scenarios=scenarios, seed=args.seed)
    print(report.summary())
    if args.report:
        with open(args.report, "w") as f:
            f.write(report.matrix())
            f.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceClient, ServiceError, wait_ready

    if not (args.ping or args.stats) and not args.file:
        print("error: a source FILE (or --ping/--stats) is required",
              file=sys.stderr)
        return 2
    source = None if args.ping or args.stats else _read_source(args.file)
    try:
        if args.wait > 0:
            wait_ready(args.host, args.port, budget_s=args.wait)
        with ServiceClient(args.host, args.port,
                           timeout=args.timeout) as client:
            if args.ping:
                print(json.dumps(client.ping(), indent=2, sort_keys=True))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=2,
                                 sort_keys=True))
                return 0
            req = {"op": args.op, "source": source, "config": args.config,
                   "train": args.train}
            if args.op == "run":
                req["ref"] = args.ref
            if args.timeout_ms:
                req["timeout_ms"] = args.timeout_ms
            resp = client.request(req)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach the daemon at "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(resp, indent=2, sort_keys=True))
        return 0
    result = resp["result"]
    for line in result.get("output", ()):
        print(line)
    meta = (f"worker={resp['worker']} " if "worker" in resp else "")
    print(f"--- {args.op} ok: cached={resp.get('cached', False)} "
          f"dedup={resp.get('dedup', False)} {meta}"
          f"elapsed={resp.get('elapsed_ms', 0)}ms", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service.loadgen import main as loadgen_main

    rest = args.rest
    if rest and rest[0] == "--":
        rest = rest[1:]
    return loadgen_main(rest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speculative SSAPRE framework (PLDI 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile + simulate one file")
    run.add_argument("file")
    run.add_argument("--config", choices=available_configs(),
                     default="profile",
                     help="named configuration from the shared service "
                          "registry (repro.service.registry)")
    run.add_argument("--spec-source", choices=_SPEC_SOURCES,
                     help="override where speculation flags come from: "
                          "training-run alias profile, syntax "
                          "heuristics, or static probabilistic alias "
                          "analysis (no train input needed)")
    run.add_argument("--sched", choices=("block", "superblock"),
                     help="machine scheduling mode: per-block list "
                          "scheduling (default) or profile-guided "
                          "superblock formation + hot-path layout "
                          "(docs/scheduling.md)")
    from .target import ENGINES

    run.add_argument("--engine", choices=sorted(ENGINES),
                     default="predecode",
                     help="simulator dispatch implementation "
                          "(docs/performance.md): predecoded operands "
                          "(default) or the frozen classic baseline — "
                          "identical output and counters on both")
    run.add_argument("--train", type=_parse_inputs, default=[],
                     help="comma-separated train inputs")
    run.add_argument("--ref", type=_parse_inputs, default=[],
                     help="comma-separated ref inputs")
    run.add_argument("--dump-ir", action="store_true")
    run.add_argument("--no-check", action="store_true",
                     help="skip the interpreter oracle")
    run.add_argument("--json", action="store_true",
                     help="emit output + counters as JSON")
    from .hazards import SCENARIOS

    run.add_argument("--inject", choices=sorted(SCENARIOS),
                     default="none",
                     help="perturb the simulation with this fault-"
                          "injection scenario (docs/recovery.md)")
    run.add_argument("--inject-seed", type=int, default=0,
                     help="seed for the injection decision stream")
    run.add_argument("--fuel", type=int, default=50_000_000,
                     help="interpreter step budget (simulator gets 4x)")
    run.add_argument("--time-passes", action="store_true",
                     help="report per-pass wall time and IR deltas "
                          "(stmts/loads/stores) after compilation")
    run.add_argument("--trace-json", metavar="FILE",
                     help="write the machine-readable per-pass trace "
                          "to FILE")
    run.set_defaults(fn=_cmd_run)

    compare = sub.add_parser("compare", help="base vs speculative")
    compare.add_argument("file")
    compare.add_argument("--config", choices=available_configs(),
                         default="profile")
    compare.add_argument("--train", type=_parse_inputs, default=[])
    compare.add_argument("--ref", type=_parse_inputs, default=[])
    compare.set_defaults(fn=_cmd_compare)

    workloads = sub.add_parser("workloads",
                               help="run the SPEC2000-shaped workloads")
    workloads.add_argument("--list", action="store_true")
    workloads.add_argument("--name", choices=_workload_names())
    workloads.add_argument("--config", choices=available_configs(),
                           default="profile")
    workloads.add_argument("--spec-source", choices=_SPEC_SOURCES,
                           help="override the speculation-flag source "
                                "(see `run`)")
    workloads.add_argument("--sched", choices=("block", "superblock"),
                           help="machine scheduling mode (see `run`)")
    workloads.set_defaults(fn=_cmd_workloads)

    campaign = sub.add_parser(
        "campaign", help="seeded fault-injection campaign: every "
                         "perturbed run must match the reference "
                         "interpreter")
    campaign.add_argument("--workloads", type=_workload_list,
                          help="comma-separated workload names "
                               "(default: all, incl. recovery set)")
    campaign.add_argument("--scenarios", default="poison,storm,chaos",
                          help="comma-separated injection scenarios")
    campaign.add_argument("--seeds", default="0,1,2",
                          help="comma-separated injector seeds")
    campaign.add_argument("--adversary", choices=("empty", "shuffle",
                                                  "invert"),
                          help="feed the compiler this adversarial "
                               "alias-profile transform")
    campaign.add_argument("--spec-source", choices=_SPEC_SOURCES,
                          help="run the campaign with this speculation-"
                               "flag source (static: wrong guesses may "
                               "only cost recovery replays, never "
                               "output mismatches)")
    import os

    campaign.add_argument(
        "--jobs", type=int, metavar="N",
        default=min(os.cpu_count() or 1, 8),
        help="fan the injected runs over N worker processes "
             "(default: min(cpus, 8)).  Seeds stay deterministic and "
             "results are collected in submission order, so the report "
             "is bit-for-bit identical to --jobs 1")
    campaign.set_defaults(fn=_cmd_campaign)

    figures = sub.add_parser("figures",
                             help="regenerate every paper figure")
    figures.set_defaults(fn=_cmd_figures)

    serve = sub.add_parser(
        "serve", help="run the compile-as-a-service daemon "
                      "(docs/service.md): batched NDJSON requests over "
                      "TCP, worker pool sharding the compile cache, "
                      "in-flight dedup; SIGTERM drains gracefully")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7457,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes sharding the cache "
                            "(0 = execute in-process, single user)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="SECS",
                       help="how long SIGTERM waits for in-flight "
                            "requests before stopping the workers")
    serve.add_argument("--max-queue-depth", type=int, default=0,
                       metavar="N",
                       help="per-worker queue bound: beyond N queued "
                            "work requests a shard sheds with a typed "
                            "'overload' error carrying retry_after_ms "
                            "(0 = unbounded)")
    serve.add_argument("--max-inflight", type=int, default=0,
                       metavar="N",
                       help="daemon-wide in-flight work bound; beyond "
                            "it new work is shed with 'overload' "
                            "(0 = unbounded)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persist successful responses to DIR so a "
                            "restarted daemon answers warm keys from "
                            "disk (docs/service.md)")
    serve.set_defaults(fn=_cmd_serve)

    chaos = sub.add_parser(
        "chaos", help="seeded service-level chaos campaign: worker "
                      "kills, stalls, dropped connections, overload "
                      "storms and SIGTERM under load — every request "
                      "must end in exactly one typed outcome "
                      "(docs/service.md)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--scenarios",
                       help="comma-separated scenario names (default: "
                            "all; see `repro chaos --help`)")
    chaos.add_argument("--report", metavar="FILE",
                       help="also write the scenario x outcome matrix "
                            "to FILE (results/service_chaos.txt in CI)")
    chaos.set_defaults(fn=_cmd_chaos)

    submit = sub.add_parser(
        "submit", help="send one request to a running daemon")
    submit.add_argument("file", nargs="?",
                        help="mini-C source file (omit with "
                             "--ping/--stats)")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7457)
    submit.add_argument("--op", choices=("run", "compile"), default="run")
    submit.add_argument("--config", default="profile",
                        help="registry config spec, composable: e.g. "
                             "profile+superblock (docs/service.md)")
    submit.add_argument("--train", type=_parse_inputs, default=[],
                        help="comma-separated train inputs")
    submit.add_argument("--ref", type=_parse_inputs, default=[],
                        help="comma-separated ref inputs")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="client-side socket deadline (seconds)")
    submit.add_argument("--timeout-ms", type=float, default=None,
                        help="daemon-side deadline for this request")
    submit.add_argument("--wait", type=float, default=0.0,
                        help="seconds to poll the daemon with ping "
                             "before sending (it may still be booting)")
    submit.add_argument("--ping", action="store_true",
                        help="health-check the daemon and exit")
    submit.add_argument("--stats", action="store_true",
                        help="print daemon + worker-cache counters")
    submit.add_argument("--json", action="store_true",
                        help="print the raw response JSON")
    submit.set_defaults(fn=_cmd_submit)

    loadgen = sub.add_parser(
        "loadgen", help="drive a running daemon with concurrent "
                        "clients and report p50/p99 + req/s "
                        "(docs/service.md)")
    loadgen.add_argument("rest", nargs=argparse.REMAINDER,
                         help="arguments for the load generator "
                              "(see `repro loadgen -- --help`)")
    loadgen.set_defaults(fn=_cmd_loadgen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, mapping its failures to one ``error:`` line and
    the exit codes of the module docstring — never a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OutputMismatch as exc:
        print(exc.diff(), file=sys.stderr)
        return 1
    except FuelExhausted as exc:
        print(f"error: fuel exhausted in {exc.context()} — "
              f"likely an infinite loop in the program (or raise fuel)",
              file=sys.stderr)
        return 2
    except _Unreadable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LexError, ParseError, LowerError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (InterpError, MachineError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover - `python -m repro.cli`
    sys.exit(main())
