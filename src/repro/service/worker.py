"""The worker-process side of the service pool.

Each worker is a subprocess running :func:`main`: it reads one JSON
request per line on stdin, executes it through the pipeline, and
writes one JSON response per line on stdout.  A ``compile`` request is
one :func:`~repro.pipeline.compile_program` call and a ``run`` request
one :func:`~repro.pipeline.compile_and_run` call, both through the
process-wide :class:`~repro.pipeline.CompileCache`, which also holds
the oracle outputs ``run`` checks against.  The daemon
(:mod:`repro.service.daemon`) owns the sockets, sharding and
deduplication; a worker only ever sees requests whose content key
hashes into its shard, so its cache *is* that shard — warm keys stay
warm for the worker's whole lifetime without any cross-process cache
coherence.  A response's ``cached`` flag means a compile hit.

:func:`handle_request` is a pure request→response function so the
daemon's in-process mode (``workers=0``) and the tests can call it
directly; it never raises — every failure becomes a typed error
response (:data:`~repro.service.protocol.ERROR_TYPES`), because a
request must never be able to kill its worker.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

from . import protocol
from .registry import resolve_config

#: sentinel ops the daemon (not clients) sends to its workers
STATS_OP = "__stats__"
EXIT_OP = "__exit__"

#: environment variable the daemon sets so worker subprocesses find
#: the persistent cache directory (see configure_persistence)
CACHE_DIR_ENV = "REPRO_SERVICE_CACHE_DIR"

#: the process-wide persistent store (None = persistence disabled)
_STORE = None


def configure_persistence(cache_dir: Optional[str]):
    """Enable (or disable, with None) the on-disk response store this
    process consults before compiling and writes after every success.
    Returns the active :class:`~repro.service.persist.CacheStore`."""
    global _STORE
    if not cache_dir:
        _STORE = None
        return None
    from .persist import CacheStore

    _STORE = CacheStore(cache_dir)
    return _STORE


def _cache():
    from ..pipeline import default_cache

    return default_cache()


def _through_cache(run, req: Dict[str, Any], config, **kwargs):
    """Call ``run`` (``compile_program`` or ``compile_and_run``) on the
    request's source and compile arguments through the shard cache;
    returns ``(result, hit)`` where ``hit`` says the cache already held
    the compile."""
    cache = _cache()
    hits_before = cache.hits
    result = run(req["source"], config,
                 train_inputs=req.get("train", []),
                 fuel=req.get("fuel", 50_000_000),
                 failsafe=req.get("failsafe", True),
                 cache=cache, **kwargs)
    return result, cache.hits > hits_before


def _handle_compile(req: Dict[str, Any]) -> Dict[str, Any]:
    from ..pipeline import compile_program

    compiled, hit = _through_cache(
        compile_program, req, resolve_config(req.get("config", "base")))
    program = compiled.program
    result = {
        "functions": len(program.functions),
        "instructions": sum(len(block.instrs)
                            for fn in program.functions.values()
                            for block in fn.blocks),
        "degraded": list(compiled.degraded),
        "diagnostics": [str(d) for d in compiled.diagnostics],
    }
    return protocol.ok_response(req["id"], "compile", result, cached=hit)


def _handle_run(req: Dict[str, Any]) -> Dict[str, Any]:
    from ..pipeline import compile_and_run

    config = resolve_config(req.get("config", "base"))
    # the config spec string selects the simulator too ("profile+classic")
    run, hit = _through_cache(
        compile_and_run, req, config, ref_inputs=req.get("ref", []),
        check_output=req.get("check", True),
        machine_kwargs={"engine": config.engine})
    result = {
        "output": list(run.output),
        "stats": run.stats.to_dict(),
        "degraded": list(run.degraded),
    }
    return protocol.ok_response(req["id"], "run", result, cached=hit)


def _handle_campaign(req: Dict[str, Any]) -> Dict[str, Any]:
    from ..hazards import run_campaign

    config = req.get("config")
    report = run_campaign(
        workload_names=req.get("workloads"),
        config=resolve_config(config) if config else None,
        scenarios=tuple(req.get("scenarios", ["poison"])),
        seeds=[int(s) for s in req.get("seeds", [0])],
        jobs=1,  # the pool itself is the parallelism
    )
    result = {
        "runs": len(report.runs),
        "mismatches": len(report.failures),
        "ok": report.ok,
        "deferred_faults": sum(r.deferred_faults for r in report.runs),
        "recoveries": report.total_recoveries,
        "check_misses": sum(r.check_misses for r in report.runs),
        "degraded": list(report.degraded),
        "summary": report.summary(),
    }
    return protocol.ok_response(req["id"], "campaign", result)


def _persist_key(req: Dict[str, Any]) -> Optional[str]:
    """The content key to persist ``req`` under, or None (persistence
    off, non-work op, or an unkeyable request)."""
    if _STORE is None or req.get("op") not in protocol.WORK_OPS:
        return None
    try:
        return protocol.request_key(req)
    except Exception:  # noqa: BLE001 — a keying bug must not kill work
        return None


def handle_request(req: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one already-validated work request; never raises.

    With persistence configured, a work request first consults the
    on-disk store: a valid entry (revalidated by content key — see
    :mod:`repro.service.persist`) is returned as ``cached: true,
    persisted: true`` without touching the pipeline; every fresh
    success is persisted for the next daemon generation."""
    from ..errors import FuelExhausted
    from ..lang import LexError, LowerError, ParseError
    from ..pipeline import OutputMismatch
    from ..profiling import InterpError
    from ..target import MachineError

    rid = req.get("id")
    key = _persist_key(req)
    if key is not None:
        stored = _STORE.get(key)
        if stored is not None:
            return dict(stored, id=rid, cached=True, persisted=True)
    try:
        op = req.get("op")
        if op == "compile":
            resp = _handle_compile(req)
        elif op == "run":
            resp = _handle_run(req)
        elif op == "campaign":
            resp = _handle_campaign(req)
        else:
            if op == STATS_OP:
                result = dict(_cache().stats())
                if _STORE is not None:
                    result["persist"] = _STORE.stats()
                return protocol.ok_response(rid, STATS_OP, result)
            return protocol.error_response(
                rid, "bad-request", f"worker cannot handle op {op!r}")
        if key is not None and resp.get("ok"):
            _STORE.put(key, req["op"], resp)
        return resp
    except OutputMismatch as exc:
        return protocol.error_response(rid, "output-mismatch",
                                       exc.diff())
    except FuelExhausted as exc:
        return protocol.error_response(
            rid, "fuel-exhausted",
            f"fuel exhausted in {exc.context()}")
    except ValueError as exc:  # bad config spec, bad workload name, ...
        return protocol.error_response(rid, "bad-request", str(exc))
    except (LexError, ParseError, LowerError) as exc:  # CLI exit 3
        return protocol.error_response(
            rid, "source-error", f"{type(exc).__name__}: {exc}")
    except (InterpError, MachineError) as exc:  # CLI exit 4
        return protocol.error_response(
            rid, "runtime-error", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 — the worker must survive
        return protocol.error_response(
            rid, "compile-error", f"{type(exc).__name__}: {exc}")


def main() -> int:
    """NDJSON request loop over stdin/stdout (one request at a time —
    the pool, not the worker, is the unit of parallelism)."""
    configure_persistence(os.environ.get(CACHE_DIR_ENV))
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    for line in stdin:
        if not line.strip():
            continue
        try:
            req = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            stdout.write(protocol.encode(protocol.error_response(
                None, "bad-request", str(exc))))
            stdout.flush()
            continue
        if isinstance(req, dict) and req.get("op") == EXIT_OP:
            stdout.write(protocol.encode(protocol.ok_response(
                req.get("id"), EXIT_OP, {"draining": True})))
            stdout.flush()
            break
        resp = handle_request(req if isinstance(req, dict) else {})
        stdout.write(protocol.encode(resp))
        stdout.flush()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
