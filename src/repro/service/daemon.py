"""The compile-as-a-service daemon (docs/service.md).

A stdlib-``asyncio`` TCP server speaking the newline-delimited JSON
protocol of :mod:`repro.service.protocol`.  Design:

* **Batching** — clients pipeline requests (or send JSON arrays);
  every request is dispatched concurrently and its response streamed
  back the moment it finishes, tagged with the request ``id``.
* **Worker pool, sharded cache** — work requests route to a pool of
  worker subprocesses (:mod:`repro.service.worker`) by
  ``shard_of(content_key)``: the same key always lands on the same
  worker, so each worker's process-wide
  :class:`~repro.pipeline.CompileCache` is one disjoint shard of the
  key space and stays warm for the daemon's lifetime.
* **In-flight deduplication** — while a work request is running, any
  identical request (same :func:`~repro.service.protocol.request_key`)
  awaits the same future: one compile, N waiters, each answered with
  its own ``id`` and ``"dedup": true``.
* **Robustness first** — a request's ``timeout_ms`` elapsing returns a
  typed ``timeout`` error (the work keeps running; later identical
  requests reuse it); a worker crash fails its in-flight requests with
  a typed ``worker-crash`` error and the worker is respawned for the
  next request, so a batch never hangs; malformed JSON gets a typed
  ``bad-request`` response without dropping the connection; SIGTERM
  drains gracefully (stop accepting, finish in-flight, stop workers,
  exit 0).
* **Backpressure** — ``max_queue_depth`` bounds the work queued per
  shard and ``max_inflight`` the distinct work in flight daemon-wide
  (0 = unbounded).  Past a bound, new work is **shed** with a typed
  ``overload`` error carrying a ``retry_after_ms`` hint instead of
  queueing without limit; dedup waiters are never shed (they add no
  work).  ``shed`` and ``queue_depth_peak`` are reported in ``stats``.
* **Warm restarts** — with ``cache_dir`` set, workers persist every
  successful work response to disk keyed by content key
  (:mod:`repro.service.persist`: atomic writes, versioned header,
  entries revalidated by key before reuse), so a restarted daemon
  answers previously-seen keys warm (``persisted: true``).

``workers=0`` runs requests in-process on a thread (no subprocesses) —
the mode unit tests and single-user embeddings use; ``workers>=1`` is
the service proper.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional, Set

from . import protocol
from . import worker as worker_mod
from .protocol import error_response, ok_response

#: asyncio stream high-water mark: one request line must fit
_STREAM_LIMIT = 16 * 1024 * 1024


class _WorkError(Exception):
    """Internal: a work request failed with a typed error."""

    def __init__(self, err_type: str, message: str) -> None:
        super().__init__(message)
        self.err_type = err_type


class DaemonStats:
    """Daemon-side counters (the ``stats`` op reports them)."""

    #: the integer counters to_dict reports verbatim
    _COUNTERS = ("connections", "requests", "responses", "deduped",
                 "errors", "timeouts", "worker_restarts", "shed",
                 "queue_depth_peak")

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.connections = 0
        self.requests = 0
        self.responses = 0
        self.deduped = 0
        self.errors = 0
        self.timeouts = 0
        self.worker_restarts = 0
        #: work requests refused with a typed ``overload`` error
        self.shed = 0
        #: deepest per-shard queue ever observed at dispatch time
        self.queue_depth_peak = 0
        self.by_op: Dict[str, int] = {}

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "uptime_s": time.monotonic() - self.started}
        for name in self._COUNTERS:
            payload[name] = getattr(self, name)
        payload["by_op"] = dict(self.by_op)
        return payload


def _worker_env(cache_dir: Optional[str] = None) -> Dict[str, str]:
    """The worker subprocess environment: inherit, but make sure the
    package is importable even when repro is run from a source tree,
    and hand down the persistent cache directory when configured."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    if cache_dir:
        env[worker_mod.CACHE_DIR_ENV] = cache_dir
    else:
        env.pop(worker_mod.CACHE_DIR_ENV, None)
    return env


class WorkerHandle:
    """Daemon-side handle of one worker subprocess."""

    def __init__(self, shard: int, cache_dir: Optional[str] = None) -> None:
        self.shard = shard
        self.cache_dir = cache_dir
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.alive = False
        self.requests = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._reader_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-c",
            "from repro.service.worker import main; "
            "raise SystemExit(main())",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=_STREAM_LIMIT,
            env=_worker_env(self.cache_dir),
        )
        self.alive = True
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                break
            try:
                resp = protocol.decode_line(line)
            except protocol.ProtocolError:
                continue  # a worker writing garbage is treated as noise
            fut = self._pending.pop(resp.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result(resp)
        # EOF: the worker died (or exited).  Fail everything in flight
        # with a typed error so no batch ever hangs on a dead worker.
        self.alive = False
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(_WorkError(
                    "worker-crash",
                    f"worker shard {self.shard} died mid-request"))

    async def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request to the worker and await its response.
        Raises :class:`_WorkError` on crash."""
        if not self.alive or self.proc is None or self.proc.stdin is None:
            raise _WorkError("worker-crash",
                             f"worker shard {self.shard} is not running")
        wid = self._next_id = self._next_id + 1
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[wid] = fut
        wire = dict(payload, id=wid)
        try:
            async with self._write_lock:
                self.proc.stdin.write(protocol.encode(wire))
                await self.proc.stdin.drain()
        except (ConnectionError, RuntimeError, BrokenPipeError):
            self._pending.pop(wid, None)
            raise _WorkError("worker-crash",
                             f"worker shard {self.shard} pipe closed")
        self.requests += 1
        return await fut

    async def stop(self, grace: float = 3.0) -> None:
        if self.proc is None:
            return
        if self.alive and self.proc.stdin is not None:
            try:
                async with self._write_lock:
                    self.proc.stdin.write(protocol.encode(
                        {"id": 0, "op": worker_mod.EXIT_OP}))
                    await self.proc.stdin.drain()
                    self.proc.stdin.close()
            except (ConnectionError, RuntimeError, BrokenPipeError):
                pass
        try:
            await asyncio.wait_for(self.proc.wait(), grace)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if self._reader_task is not None:
            await self._reader_task
        self.alive = False


class Daemon:
    """The service: see the module docstring for the design."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, drain_grace: float = 10.0,
                 max_queue_depth: int = 0, max_inflight: int = 0,
                 cache_dir: Optional[str] = None,
                 retry_hint_ms: float = 50.0) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_queue_depth < 0 or max_inflight < 0:
            raise ValueError("queue bounds must be >= 0 (0 = unbounded)")
        self.host = host
        self.port = port
        self.workers = workers
        self.drain_grace = drain_grace
        #: backpressure bounds (0 = unbounded, the pre-overload-safe
        #: behaviour): per-shard queued work / daemon-wide distinct
        #: in-flight work.  Past either bound new work is shed with a
        #: typed ``overload`` error carrying a retry_after_ms hint.
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight
        self.cache_dir = cache_dir
        self.retry_hint_ms = retry_hint_ms
        self.stats = DaemonStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._handles: List[WorkerHandle] = []
        self._inflight: Dict[str, asyncio.Future] = {}
        self._depth: Dict[Optional[int], int] = {}
        self._work_tasks: Set[asyncio.Future] = set()
        self._serve_tasks: Set[asyncio.Task] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._shutdown_requested: Optional[asyncio.Event] = None

    # ---- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool and start accepting connections."""
        if self.workers == 0:
            # in-process mode shares the worker module's store; set it
            # up for this daemon generation (None disables — a previous
            # generation's store must not leak into this one)
            worker_mod.configure_persistence(self.cache_dir)
        for shard in range(self.workers):
            handle = WorkerHandle(shard, self.cache_dir)
            await handle.start()
            self._handles.append(handle)
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=_STREAM_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work (up to
        ``drain_grace`` seconds), stop the workers, close connections."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._work_tasks if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.drain_grace)
        # let the per-request serve tasks write their responses before
        # the writers close — without this, in-process (workers=0)
        # drains could finish the work yet drop the response on the
        # floor, because nothing below awaits before writer.close()
        serves = [t for t in self._serve_tasks if not t.done()]
        if serves:
            await asyncio.wait(serves, timeout=2.0)
        for handle in self._handles:
            await handle.stop()
        for writer in list(self._writers):
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop teardown race
                pass
        conns = [t for t in self._conn_tasks if not t.done()]
        if conns:
            await asyncio.wait(conns, timeout=2.0)

    async def serve_forever(self) -> int:
        """CLI mode: start, announce, run until SIGTERM/SIGINT, drain."""
        await self.start()
        loop = asyncio.get_event_loop()
        self._shutdown_requested = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig,
                                        self._shutdown_requested.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(f"repro service listening on {self.host}:{self.port} "
              f"({self.workers} worker"
              f"{'s' if self.workers != 1 else ''}, pid {os.getpid()})",
              flush=True)
        await self._shutdown_requested.wait()
        print("repro service draining...", flush=True)
        await self.shutdown()
        print("repro service stopped", flush=True)
        return 0

    # ---- connection handling --------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        self._writers.add(writer)
        self._conn_tasks.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # unframeable input: answer once, then give up on
                    # the stream (we cannot find the next boundary)
                    await self._write(writer, write_lock, error_response(
                        None, "bad-request", "request line too long"))
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                self._serve_tasks.add(task)
                task.add_done_callback(self._serve_tasks.discard)
            if tasks:
                await asyncio.wait(tasks)
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - teardown race
                pass

    async def _serve_line(self, line: bytes,
                          writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        try:
            obj = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            self.stats.errors += 1
            await self._write(writer, write_lock, error_response(
                None, "bad-request", str(exc)))
            return
        requests = obj if isinstance(obj, list) else [obj]
        if not requests:
            await self._write(writer, write_lock, error_response(
                None, "bad-request", "empty batch"))
            return
        aws = [self._serve_one(req, writer, write_lock)
               for req in requests]
        await asyncio.gather(*aws)

    async def _serve_one(self, obj: Any, writer: asyncio.StreamWriter,
                         write_lock: asyncio.Lock) -> None:
        t0 = time.monotonic()
        self.stats.requests += 1
        try:
            req = protocol.validate_request(obj)
        except protocol.ProtocolError as exc:
            resp = error_response(exc.request_id, "bad-request", str(exc))
        else:
            self.stats.by_op[req["op"]] = \
                self.stats.by_op.get(req["op"], 0) + 1
            resp = await self._dispatch(req)
        if not resp.get("ok"):
            self.stats.errors += 1
        resp["elapsed_ms"] = round((time.monotonic() - t0) * 1000.0, 3)
        self.stats.responses += 1
        await self._write(writer, write_lock, resp)

    @staticmethod
    async def _write(writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock, resp: Dict[str, Any]) -> None:
        async with write_lock:
            try:
                writer.write(protocol.encode(resp))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; the work is done regardless

    # ---- dispatch --------------------------------------------------------
    async def _dispatch(self, req: Dict[str, Any]) -> Dict[str, Any]:
        rid, op = req["id"], req["op"]
        if op == "ping":
            return ok_response(rid, "ping", {
                "pong": True, "protocol": protocol.PROTOCOL_VERSION,
                "workers": self.workers, "draining": self._draining})
        if op == "stats":
            return ok_response(rid, "stats", await self._stats_result())
        # work ops: compile / run / campaign
        if self._draining:
            return error_response(rid, "shutdown",
                                  "daemon is draining; resubmit elsewhere")
        try:
            key = protocol.request_key(req)
        except ValueError as exc:
            return error_response(rid, "bad-request", str(exc))
        fut = self._inflight.get(key)
        dedup = fut is not None
        if dedup:
            # a waiter joining an in-flight compile adds no work, so
            # it is never shed — backpressure bounds work, not waiters
            self.stats.deduped += 1
        else:
            shard = (None if self.workers == 0
                     else self._shard_of(key))
            shed = self._overload_check(shard)
            if shed is not None:
                self.stats.shed += 1
                return error_response(
                    rid, "overload",
                    shed, retry_after_ms=self._retry_hint(shard),
                    dedup=False)
            depth = self._depth.get(shard, 0) + 1
            self._depth[shard] = depth
            self.stats.queue_depth_peak = max(
                self.stats.queue_depth_peak, depth)
            fut = asyncio.ensure_future(self._execute(req, key, shard))
            self._inflight[key] = fut
            self._work_tasks.add(fut)
            fut.add_done_callback(self._work_tasks.discard)
            fut.add_done_callback(
                lambda f, k=key: self._inflight.pop(k, None))
            fut.add_done_callback(
                lambda f, s=shard: self._depth.__setitem__(
                    s, max(0, self._depth.get(s, 1) - 1)))
            # every waiter may stop listening (timeouts); mark the
            # outcome retrieved so the loop never logs a stray error
            fut.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
        timeout_ms = req.get("timeout_ms")
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(fut),
                timeout_ms / 1000.0 if timeout_ms else None)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            return error_response(
                rid, "timeout",
                f"no result within {timeout_ms}ms (work continues; an "
                f"identical request may reuse it)", dedup=dedup)
        except _WorkError as exc:
            return error_response(rid, exc.err_type, str(exc), dedup=dedup)
        resp = dict(outcome, id=rid, dedup=dedup)
        return resp

    def _shard_of(self, key: str) -> int:
        from ..pipeline import shard_of

        return shard_of(key, self.workers)

    def _overload_check(self, shard: Optional[int]) -> Optional[str]:
        """The shed reason when admitting one more work request would
        exceed a configured bound, else None (admit)."""
        if self.max_inflight and len(self._inflight) >= self.max_inflight:
            return (f"daemon at max_inflight={self.max_inflight} "
                    f"distinct work requests; retry with backoff")
        if self.max_queue_depth \
                and self._depth.get(shard, 0) >= self.max_queue_depth:
            where = ("in-process queue" if shard is None
                     else f"worker shard {shard}")
            return (f"{where} at max_queue_depth={self.max_queue_depth}; "
                    f"retry with backoff")
        return None

    def _retry_hint(self, shard: Optional[int]) -> int:
        """A deterministic retry_after_ms hint scaled by the pressure
        that caused the shed (deeper queues -> longer hints)."""
        pressure = max(len(self._inflight), self._depth.get(shard, 0))
        return int(min(5000.0, self.retry_hint_ms * (1 + pressure)))

    async def _execute(self, req: Dict[str, Any], key: str,
                       shard: Optional[int]) -> Dict[str, Any]:
        """Run one deduplicated work request on its shard; returns the
        template response (no ``id``/``dedup`` — each waiter adds its
        own).  Raises :class:`_WorkError` on typed failures."""
        wire = {k: v for k, v in req.items() if k != "timeout_ms"}
        if shard is None:
            resp = await asyncio.to_thread(worker_mod.handle_request, wire)
        else:
            handle = self._handles[shard]
            if not handle.alive:
                handle = WorkerHandle(shard, self.cache_dir)
                await handle.start()
                self._handles[shard] = handle
                self.stats.worker_restarts += 1
            resp = await handle.submit(wire)
        if not resp.get("ok"):
            error = resp.get("error") or {}
            err_type = error.get("type", "internal")
            if err_type not in protocol.ERROR_TYPES:
                # a worker speaking an unknown dialect must not crash
                # the dispatch task — downgrade to a typed internal
                err_type = "internal"
            raise _WorkError(err_type,
                             error.get("message", "unknown worker error"))
        template = {"ok": True, "op": req["op"], "result": resp["result"]}
        for meta in ("cached", "persisted"):
            if meta in resp:
                template[meta] = resp[meta]
        if shard is not None:
            template["worker"] = shard
        return template

    # ---- stats -----------------------------------------------------------
    async def _stats_result(self) -> Dict[str, Any]:
        workers = []
        for handle in self._handles:
            entry: Dict[str, Any] = {
                "shard": handle.shard,
                "alive": handle.alive,
                "pid": handle.proc.pid if handle.proc else None,
                "requests": handle.requests,
            }
            if handle.alive:
                try:
                    resp = await handle.submit({"op": worker_mod.STATS_OP})
                    entry["cache"] = resp.get("result", {})
                except _WorkError:
                    entry["alive"] = False
            workers.append(entry)
        if self.workers == 0:
            resp = await asyncio.to_thread(
                worker_mod.handle_request, {"op": worker_mod.STATS_OP,
                                            "id": 0})
            workers.append({"shard": None, "alive": True,
                            "pid": os.getpid(),
                            "cache": resp.get("result", {})})
        shards = (range(self.workers) if self.workers else (None,))
        persist = [w.get("cache", {}).get("persist") for w in workers]
        payload = self.stats.to_dict()
        payload.update({
            "draining": self._draining,
            "inflight": len(self._inflight),
            "queue_depths": [self._depth.get(s, 0) for s in shards],
            "max_queue_depth": self.max_queue_depth,
            "max_inflight": self.max_inflight,
            "compiles": sum(w.get("cache", {}).get("misses", 0)
                            for w in workers),
            "cache_hits": sum(w.get("cache", {}).get("hits", 0)
                              for w in workers),
            "persist_hits": sum(p.get("hits", 0) for p in persist if p),
            "persist_stores": sum(p.get("stores", 0)
                                  for p in persist if p),
            "workers": workers,
        })
        return payload


class DaemonThread:
    """A daemon running on a background thread's event loop — the
    harness tests, benchmarks and notebooks embed::

        with DaemonThread(workers=0) as daemon:
            client = ServiceClient(port=daemon.port)
            ...

    ``stop()`` (or leaving the ``with`` block) performs the same
    graceful drain as SIGTERM."""

    def __init__(self, **kwargs: Any) -> None:
        import threading

        self.daemon: Optional[Daemon] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(kwargs)),
            name="repro-service", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise self._failure
        if self.port is None:
            raise RuntimeError("service daemon failed to start in time")

    async def _main(self, kwargs: Dict[str, Any]) -> None:
        try:
            self.daemon = Daemon(**kwargs)
            self._loop = asyncio.get_event_loop()
            self._stop = asyncio.Event()
            await self.daemon.start()
            self.host, self.port = self.daemon.host, self.daemon.port
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.daemon.shutdown()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "DaemonThread":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_daemon(host: str = "127.0.0.1", port: int = 7457,
               workers: int = 2, drain_grace: float = 10.0,
               max_queue_depth: int = 0, max_inflight: int = 0,
               cache_dir: Optional[str] = None) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT, drain, exit 0."""
    return asyncio.run(
        Daemon(host=host, port=port, workers=workers,
               drain_grace=drain_grace, max_queue_depth=max_queue_depth,
               max_inflight=max_inflight,
               cache_dir=cache_dir).serve_forever())
