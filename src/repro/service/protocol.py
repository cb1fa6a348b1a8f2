"""The service wire protocol (docs/service.md).

Newline-delimited JSON over a TCP socket: every line the client sends
is one **request object** (or a JSON array of request objects — an
explicit batch), every line the daemon sends back is one **response
object**.  Responses stream back in *completion* order and carry the
request's ``id``, so clients pipeline freely: sending N requests
without waiting *is* the batching model.

Both sides — and the documentation round-trip test, which parses every
JSON snippet in docs/service.md — validate against the schemas here.
Keep this module dependency-light: the daemon imports it before any
pipeline machinery, and a validation failure must never require a
compiler import to diagnose.

Requests
--------

Common fields: ``id`` (any JSON string/int, echoed back; required),
``op`` (required), optional ``timeout_ms`` (server-side deadline for
this request).  Per-op fields:

========== ==========================================================
``ping``     —
``stats``    —
``compile``  ``source`` (required), ``config`` (registry spec string,
             default ``"base"``), ``train`` (list of numbers, default
             ``[]``), ``fuel`` (int), ``failsafe`` (bool)
``run``      everything ``compile`` takes, plus ``ref`` (list of
             numbers, default ``[]``) and ``check`` (bool, default
             true: verify against the reference interpreter)
``campaign`` ``workloads`` (list of names or null for all),
             ``scenarios`` (list), ``seeds`` (list of ints),
             ``config`` (registry spec string or null for the
             campaign default)
========== ==========================================================

Responses
---------

``{"id": ..., "ok": true, "op": ..., "result": {...}}`` plus metadata
fields (``cached``, ``dedup``, ``worker``, ``elapsed_ms``) — or
``{"id": ..., "ok": false, "error": {"type": ..., "message": ...}}``
with ``type`` one of :data:`ERROR_TYPES`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

#: protocol revision, reported by ``ping``
PROTOCOL_VERSION = 1

#: every operation a request may carry
OPS = ("ping", "stats", "compile", "run", "campaign")

#: ops that reach the worker pool (and therefore shard + deduplicate)
WORK_OPS = ("compile", "run", "campaign")

#: the closed set of typed error codes a response may carry
ERROR_TYPES = (
    "bad-request",      # malformed JSON / schema violation
    "compile-error",    # the pipeline raised (failsafe exhausted, ...)
    "source-error",     # the source failed to lex, parse or lower
    "runtime-error",    # the program faulted at run time (bad input())
    "output-mismatch",  # simulated output diverged from the oracle
    "fuel-exhausted",   # program ran out of fuel
    "timeout",          # the request's timeout_ms elapsed server-side
    "worker-crash",     # the worker process died mid-request
    "overload",         # queue bound hit: shed, carries retry_after_ms
    "shutdown",         # daemon is draining and refused new work
    "internal",         # anything else (bug in the service)
)

#: errors the submitted program itself causes: the same request fails
#: the same way every time, so clients never retry them
PROGRAM_ERRORS = ("source-error", "runtime-error")

_MAX_LINE = 64 * 1024 * 1024  # one request line; sources are small


class ProtocolError(ValueError):
    """A request (or response) violating the wire schema."""

    def __init__(self, message: str, request_id: Any = None) -> None:
        super().__init__(message)
        self.request_id = request_id


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode(obj: Any) -> bytes:
    """One wire line: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> Any:
    """Parse one wire line; :class:`ProtocolError` on malformed JSON."""
    if len(line) > _MAX_LINE:
        raise ProtocolError(f"line exceeds {_MAX_LINE} bytes")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------

def _require_numbers(req: Dict[str, Any], field: str) -> None:
    value = req.get(field, [])
    if not isinstance(value, list) or any(
            not isinstance(v, (int, float)) or isinstance(v, bool)
            for v in value):
        raise ProtocolError(f"{field!r} must be a list of numbers",
                            req.get("id"))


def validate_request(obj: Any) -> Dict[str, Any]:
    """Check one decoded request against the schema; returns it.

    Raises :class:`ProtocolError` (carrying the request id when one
    could be salvaged) — the daemon turns that into a ``bad-request``
    response without dropping the connection.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    rid = obj.get("id")
    if rid is None or not isinstance(rid, (str, int)):
        raise ProtocolError("'id' is required (string or int)",
                            rid if isinstance(rid, (str, int)) else None)
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})",
                            rid)
    timeout_ms = obj.get("timeout_ms")
    if timeout_ms is not None and (
            not isinstance(timeout_ms, (int, float))
            or isinstance(timeout_ms, bool) or timeout_ms <= 0):
        raise ProtocolError("'timeout_ms' must be a positive number", rid)
    if op in ("compile", "run"):
        if not isinstance(obj.get("source"), str):
            raise ProtocolError("'source' (string) is required", rid)
        if not isinstance(obj.get("config", "base"), str):
            raise ProtocolError("'config' must be a registry spec string",
                                rid)
        _require_numbers(obj, "train")
        fuel = obj.get("fuel", 50_000_000)
        if not isinstance(fuel, int) or isinstance(fuel, bool) or fuel <= 0:
            raise ProtocolError("'fuel' must be a positive int", rid)
        if not isinstance(obj.get("failsafe", True), bool):
            raise ProtocolError("'failsafe' must be a bool", rid)
    if op == "run":
        _require_numbers(obj, "ref")
        if not isinstance(obj.get("check", True), bool):
            raise ProtocolError("'check' must be a bool", rid)
    if op == "campaign":
        workloads = obj.get("workloads")
        if workloads is not None and (
                not isinstance(workloads, list)
                or any(not isinstance(w, str) for w in workloads)):
            raise ProtocolError("'workloads' must be null or a list of "
                                "names", rid)
        scenarios = obj.get("scenarios", ["poison"])
        if not isinstance(scenarios, list) or not scenarios or any(
                not isinstance(s, str) for s in scenarios):
            raise ProtocolError("'scenarios' must be a non-empty list of "
                                "names", rid)
        seeds = obj.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds or any(
                not isinstance(s, int) or isinstance(s, bool)
                for s in seeds):
            raise ProtocolError("'seeds' must be a non-empty list of ints",
                                rid)
        config = obj.get("config")
        if config is not None and not isinstance(config, str):
            raise ProtocolError("'config' must be a registry spec string",
                                rid)
    return obj


def validate_response(obj: Any) -> Dict[str, Any]:
    """Check one decoded response against the schema; returns it."""
    if not isinstance(obj, dict):
        raise ProtocolError("response must be a JSON object")
    if "id" not in obj:
        raise ProtocolError("response must echo an 'id'")
    ok = obj.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError("'ok' (bool) is required")
    if ok:
        if "result" not in obj or not isinstance(obj["result"], dict):
            raise ProtocolError("ok response must carry a 'result' object")
    else:
        error = obj.get("error")
        if not isinstance(error, dict):
            raise ProtocolError("error response must carry an 'error' "
                                "object")
        if error.get("type") not in ERROR_TYPES:
            raise ProtocolError(f"error type {error.get('type')!r} not in "
                                f"{ERROR_TYPES}")
        if not isinstance(error.get("message"), str):
            raise ProtocolError("'error.message' (string) is required")
        hint = error.get("retry_after_ms")
        if hint is not None and (
                not isinstance(hint, (int, float))
                or isinstance(hint, bool) or hint < 0):
            raise ProtocolError("'error.retry_after_ms' must be a "
                                "non-negative number")
    return obj


# ---------------------------------------------------------------------------
# response construction (the daemon and worker both use these, so the
# schema cannot drift between them)
# ---------------------------------------------------------------------------

def ok_response(rid: Any, op: str, result: Dict[str, Any],
                **meta: Any) -> Dict[str, Any]:
    resp = {"id": rid, "ok": True, "op": op, "result": result}
    resp.update(meta)
    return resp


def error_response(rid: Any, err_type: str, message: str,
                   retry_after_ms: Optional[float] = None,
                   **meta: Any) -> Dict[str, Any]:
    assert err_type in ERROR_TYPES, err_type
    error: Dict[str, Any] = {"type": err_type, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    resp = {"id": rid, "ok": False, "error": error}
    resp.update(meta)
    return resp


# ---------------------------------------------------------------------------
# content keys: dedup + sharding
# ---------------------------------------------------------------------------

def request_key(req: Dict[str, Any]) -> Optional[str]:
    """The deduplication/sharding key of a validated work request.

    Two requests with the same key would do identical work, so the
    daemon coalesces them while one is in flight and routes equal keys
    to the same worker shard.  For ``compile``/``run`` the key builds
    on :func:`repro.pipeline.content_key` — the process-portable slice
    of the CompileCache key — extended with the run-only fields;
    ``campaign`` keys hash the campaign matrix.  Non-work ops
    (``ping``/``stats``) have no key (returns None).
    """
    op = req["op"]
    if op not in WORK_OPS:
        return None
    if op == "campaign":
        h = hashlib.sha256()
        h.update(repr(("campaign", req.get("workloads"),
                       tuple(req.get("scenarios", ["poison"])),
                       tuple(req.get("seeds", [0])),
                       req.get("config"))).encode())
        return h.hexdigest()
    from ..pipeline import content_key
    from .registry import resolve_config

    base = content_key(req["source"],
                       resolve_config(req.get("config", "base")),
                       req.get("train", []),
                       req.get("fuel", 50_000_000),
                       req.get("failsafe", True))
    if op == "compile":
        return base
    h = hashlib.sha256()
    h.update(base.encode())
    h.update(repr(("run", tuple(req.get("ref", [])),
                   req.get("check", True))).encode())
    return h.hexdigest()
