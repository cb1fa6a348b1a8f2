"""Client library for the compile service (docs/service.md).

:class:`ServiceClient` is a synchronous library (plain sockets, no
event loop); callers wanting concurrency open one client per thread.
It speaks the NDJSON protocol of :mod:`repro.service.protocol` and
raises

* :class:`ServiceError` for typed daemon errors (``.type`` is one of
  :data:`~repro.service.protocol.ERROR_TYPES`);
* :class:`ServiceTimeout` — a :class:`ServiceError` subclass — when
  either the client-side socket deadline or the daemon-side
  ``timeout_ms`` elapses, so callers see one exception for "too slow"
  however it was detected, never a hang.

Batching: :meth:`ServiceClient.submit` pipelines many requests on one
connection and yields responses **as they complete** (tagged by
``id``), which is the protocol's batching model.

Resilience (docs/service.md, "Overload & recovery"): construct a client
with a :class:`~repro.service.backoff.RetryPolicy` and it retries shed
(``overload``) requests with exponential, deterministically-jittered
backoff, honouring the daemon's ``retry_after_ms`` hint, within a
bounded retry budget; add a
:class:`~repro.service.backoff.CircuitBreaker` and a dead daemon fails
fast with :class:`ServiceUnavailable` instead of paying a connect
timeout per call.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any, Dict, Iterator, List, Optional

from . import protocol
from .backoff import CircuitBreaker, RetryPolicy


class ServiceError(Exception):
    """A typed error response from the daemon."""

    def __init__(self, err_type: str, message: str,
                 retry_after_ms: Optional[float] = None) -> None:
        super().__init__(f"{err_type}: {message}")
        self.type = err_type
        self.message = message
        #: the daemon's backoff hint (``overload`` sheds carry one)
        self.retry_after_ms = retry_after_ms


class ServiceTimeout(ServiceError):
    """The request did not produce a result in time (client socket
    deadline or daemon-side ``timeout_ms``)."""

    def __init__(self, message: str) -> None:
        super().__init__("timeout", message)


class ServiceClosed(ServiceError):
    """The daemon closed the connection before answering."""

    def __init__(self, message: str) -> None:
        super().__init__("internal", message)


class ServiceUnavailable(ServiceError):
    """The daemon cannot be reached at all: the circuit breaker is
    open, or the retry budget was spent on connection failures."""

    def __init__(self, message: str) -> None:
        super().__init__("unavailable", message)


def raise_for_error(resp: Dict[str, Any]) -> Dict[str, Any]:
    """Raise the matching exception for an error response; return ok
    responses unchanged."""
    if resp.get("ok"):
        return resp
    error = resp.get("error") or {}
    err_type = error.get("type", "internal")
    message = error.get("message", "unknown error")
    if err_type == "timeout":
        raise ServiceTimeout(message)
    raise ServiceError(err_type, message,
                       retry_after_ms=error.get("retry_after_ms"))


def _build_request(rid: Any, op: str, *, source: Optional[str] = None,
                   config: Optional[str] = None,
                   train: Optional[List[float]] = None,
                   ref: Optional[List[float]] = None,
                   check: Optional[bool] = None,
                   fuel: Optional[int] = None,
                   failsafe: Optional[bool] = None,
                   workloads: Optional[List[str]] = None,
                   scenarios: Optional[List[str]] = None,
                   seeds: Optional[List[int]] = None,
                   timeout_ms: Optional[float] = None) -> Dict[str, Any]:
    req: Dict[str, Any] = {"id": rid, "op": op}
    for name, value in (("source", source), ("config", config),
                        ("train", train), ("ref", ref),
                        ("check", check), ("fuel", fuel),
                        ("failsafe", failsafe), ("workloads", workloads),
                        ("scenarios", scenarios), ("seeds", seeds),
                        ("timeout_ms", timeout_ms)):
        if value is not None:
            req[name] = value
    return req


class ServiceClient:
    """Synchronous client: one TCP connection, blocking calls.

    ``timeout`` is the client-side per-request socket deadline in
    seconds (None blocks forever).  After a :class:`ServiceTimeout`
    the connection's stream position is unknown, so the client
    reconnects transparently before the next request.

    ``retry`` (a :class:`~repro.service.backoff.RetryPolicy`) makes
    :meth:`request` spend a bounded budget retrying shed/retryable
    typed errors and connection failures with seeded-jitter backoff;
    ``breaker`` (a :class:`~repro.service.backoff.CircuitBreaker`)
    makes a dead daemon fail fast with :class:`ServiceUnavailable`.
    Both default to off, preserving the one-shot behaviour.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7457,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._ids = itertools.count(1)

    # ---- connection ------------------------------------------------------
    def connect(self) -> "ServiceClient":
        """Open the connection (:func:`~repro.service.backoff.wait_ready`
        first when the daemon may still be booting)."""
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._rfile = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _ensure(self) -> None:
        if self._sock is None:
            self.connect()

    def __enter__(self) -> "ServiceClient":
        self._ensure()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ---- raw request/response --------------------------------------------
    def _send(self, payload: Any) -> None:
        self._ensure()
        assert self._sock is not None
        self._sock.sendall(protocol.encode(payload))

    def _recv(self) -> Dict[str, Any]:
        assert self._rfile is not None
        try:
            line = self._rfile.readline()
        except socket.timeout:
            self.close()  # stream position unknown: force a reconnect
            raise ServiceTimeout(
                f"no response within {self.timeout}s") from None
        if not line:
            self.close()
            raise ServiceClosed("connection closed by the daemon")
        return protocol.validate_response(protocol.decode_line(line))

    # ---- resilient request loop ------------------------------------------
    def _check_breaker(self) -> None:
        if self.breaker is not None and not self.breaker.allow():
            raise ServiceUnavailable(
                f"circuit open: {self.breaker.failures} consecutive "
                f"connection failures to {self.host}:{self.port}")

    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, await its response, raise on typed
        errors; returns the full ok response (``result`` + metadata).

        With a :class:`~repro.service.backoff.RetryPolicy`, retryable
        typed errors (``overload`` by default, honouring the daemon's
        ``retry_after_ms``) and connection failures are retried with
        backoff until the budget runs out.  Errors the program itself
        causes (:data:`~repro.service.protocol.PROGRAM_ERRORS`) are
        never retried."""
        if req.get("id") is None:
            req["id"] = next(self._ids)
        policy = self.retry
        backoff = policy.backoff() if policy is not None else None
        attempt = 0
        while True:
            self._check_breaker()
            try:
                self._send(req)
                while True:
                    resp = self._recv()
                    if resp.get("id") == req["id"]:
                        break
                    # a straggler from an abandoned pipeline: drop it
            except (OSError, ServiceClosed) as exc:
                if self.breaker is not None:
                    self.breaker.record_failure()
                self.close()
                if policy is not None and policy.retry_connect \
                        and attempt < policy.retries:
                    time.sleep(backoff.delay_s(attempt))
                    attempt += 1
                    continue
                if self.breaker is not None and not self.breaker.allow():
                    raise ServiceUnavailable(
                        f"daemon at {self.host}:{self.port} unreachable: "
                        f"{exc}") from exc
                raise
            except ServiceTimeout:
                if policy is not None \
                        and "timeout" in policy.retry_types \
                        and attempt < policy.retries:
                    time.sleep(backoff.delay_s(attempt))
                    attempt += 1
                    continue
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            try:
                return raise_for_error(resp)
            except ServiceError as exc:
                if policy is not None and exc.type in policy.retry_types \
                        and exc.type not in protocol.PROGRAM_ERRORS \
                        and attempt < policy.retries:
                    time.sleep(backoff.delay_s(attempt,
                                               exc.retry_after_ms))
                    attempt += 1
                    continue
                raise

    def submit(self, requests: List[Dict[str, Any]],
               max_resends: int = 2) -> Iterator[Dict[str, Any]]:
        """Pipeline a batch; yield raw responses in completion order
        (match them to requests by ``id``; no exception is raised for
        per-request errors — inspect ``resp["ok"]``).

        If the connection times out or drops mid-batch, the client
        reconnects and **resends every request not yet answered** (up
        to ``max_resends`` times) — server-side dedup and the shard
        caches make resends cheap — so a batch never silently loses
        its tail.  The budget spent, the timeout propagates."""
        for req in requests:
            if req.get("id") is None:
                req["id"] = next(self._ids)
        pending = {req["id"]: req for req in requests}
        self._send(list(requests))
        resends = 0
        while pending:
            try:
                resp = self._recv()
            except (ServiceTimeout, ServiceClosed, OSError):
                if resends >= max_resends:
                    raise
                resends += 1
                self.close()
                self._send(list(pending.values()))  # reconnects
                continue
            rid = resp.get("id")
            if rid in pending:
                del pending[rid]
                yield resp
            # a response for an already-answered (resent) id: drop it

    # ---- convenience wrappers --------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})["result"]

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["result"]

    def compile_source(self, source: str, **kwargs: Any) -> Dict[str, Any]:
        return self.request(_build_request(None, "compile", source=source,
                                           **kwargs))

    def run_source(self, source: str, **kwargs: Any) -> Dict[str, Any]:
        return self.request(_build_request(None, "run", source=source,
                                           **kwargs))

    def campaign(self, **kwargs: Any) -> Dict[str, Any]:
        return self.request(_build_request(None, "campaign", **kwargs))
