"""Daemon behaviour: batching, in-flight dedup, typed errors,
timeouts, worker crash recovery, drain (docs/service.md).

Most tests run the daemon in-process (``workers=0`` on a background
thread) so they are fast and can monkeypatch the worker seam
(:func:`repro.service.worker.handle_request` is resolved late by the
daemon precisely for this); the crash-recovery test boots a real
worker subprocess.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import (DaemonThread, ServiceClient, ServiceError,
                           ServiceTimeout)
from repro.service import protocol
from repro.service import worker as worker_mod

SRC = "void main() { int x; x = input(); print(x + 7); }"


@pytest.fixture
def daemon():
    with DaemonThread(workers=0) as handle:
        yield handle


def _client(handle, **kwargs):
    kwargs.setdefault("timeout", 30.0)
    return ServiceClient(host=handle.host, port=handle.port, **kwargs)


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

def test_ping_run_and_cache_flag(daemon):
    with _client(daemon) as client:
        assert client.ping()["pong"] is True
        first = client.run_source(SRC, config="profile", train=[1],
                                  ref=[5])
        assert first["result"]["output"] == ["12"]
        assert first["cached"] is False
        again = client.run_source(SRC, config="profile", train=[1],
                                  ref=[5])
        assert again["result"]["output"] == ["12"]
        assert again["cached"] is True


def test_repeated_run_requests_share_one_oracle_run(monkeypatch):
    """Two identical ``run`` requests through the worker's handler
    interpret the program once: the second answers from the memoized
    oracle output, with an identical result."""
    from repro.pipeline import driver

    calls = []
    real = driver.run_module

    def counting(module, **kwargs):
        calls.append(kwargs)
        return real(module, **kwargs)

    monkeypatch.setattr(driver, "run_module", counting)
    monkeypatch.setattr(worker_mod, "_STORE", None)
    req = {"op": "run", "source": SRC, "config": "profile", "train": [1],
           "ref": [5]}
    first = worker_mod.handle_request(dict(req, id=1))
    second = worker_mod.handle_request(dict(req, id=2))
    assert first["ok"] and second["ok"]
    assert second["result"] == first["result"]
    assert second["cached"] is True
    assert len(calls) == 1


def test_batch_array_gets_one_response_per_request(daemon):
    with _client(daemon) as client:
        responses = list(client.submit(
            [{"op": "ping"}, {"op": "ping"}, {"op": "stats"}]))
        assert len(responses) == 3
        assert all(r["ok"] for r in responses)


def test_compile_op_reports_shape_not_output(daemon):
    with _client(daemon) as client:
        resp = client.compile_source(SRC, config="base")
        assert resp["result"]["functions"] == 1
        assert resp["result"]["instructions"] > 0
        assert "output" not in resp["result"]


# ---------------------------------------------------------------------------
# in-flight deduplication
# ---------------------------------------------------------------------------

def test_duplicate_inflight_keys_resolve_to_one_compile(daemon,
                                                        monkeypatch):
    """Eight identical concurrent requests: exactly one execution, the
    other seven wait on it and are answered with ``dedup: true``."""
    calls = []
    gate = threading.Event()

    def slow_handler(req):
        if req.get("op") == worker_mod.STATS_OP:
            return protocol.ok_response(req.get("id"), worker_mod.STATS_OP,
                                        {"hits": 0, "misses": len(calls)})
        calls.append(req["op"])
        gate.wait(5.0)  # hold every duplicate in the in-flight window
        return protocol.ok_response(req["id"], req["op"],
                                    {"output": ["held"]})

    monkeypatch.setattr(worker_mod, "handle_request", slow_handler)
    with _client(daemon) as client:
        batch = [{"op": "run", "source": SRC, "config": "profile",
                  "train": [1], "ref": [5]} for _ in range(8)]
        iterator = client.submit(batch)
        # responses only flow once the gate opens; release it after the
        # daemon has had time to coalesce all eight
        threading.Timer(0.4, gate.set).start()
        responses = list(iterator)
    assert len(calls) == 1, "duplicates must coalesce onto one compile"
    assert len(responses) == 8
    assert all(r["ok"] for r in responses)
    assert sum(1 for r in responses if r["dedup"]) == 7
    assert sum(1 for r in responses if not r["dedup"]) == 1
    with _client(daemon) as client:
        assert client.stats()["deduped"] == 7


def test_distinct_keys_do_not_dedup(daemon):
    # a source of its own: profile-free configs normalize train inputs
    # out of the compile-cache key, so reusing SRC would warm-hit the
    # base compile another test already did in this process
    src = "void main() { int x; x = input(); print(x + 11); }"
    with _client(daemon) as client:
        a = client.run_source(src, config="profile", train=[1], ref=[5])
        b = client.run_source(src, config="base", train=[1], ref=[5])
        assert not a["dedup"] and not b["dedup"]
        assert b["cached"] is False  # different config = different key


# ---------------------------------------------------------------------------
# typed errors; the connection always survives
# ---------------------------------------------------------------------------

def test_malformed_json_gets_typed_error_and_connection_survives(daemon):
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=10.0) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        resp = json.loads(rfile.readline())
        assert resp["ok"] is False
        assert resp["error"]["type"] == "bad-request"
        assert resp["id"] is None
        # same connection, next line: still fully functional
        sock.sendall(protocol.encode({"id": "after", "op": "ping"}))
        resp = json.loads(rfile.readline())
        assert resp["ok"] is True and resp["id"] == "after"


def test_schema_violation_echoes_salvaged_id(daemon):
    with _client(daemon) as client:
        with pytest.raises(ServiceError) as exc:
            client.request({"id": "r1", "op": "run"})  # no source
        assert exc.value.type == "bad-request"


def test_unknown_config_spec_is_bad_request(daemon):
    with _client(daemon) as client:
        with pytest.raises(ServiceError) as exc:
            client.run_source(SRC, config="profile+nonsense")
        assert exc.value.type == "bad-request"
        assert "nonsense" in exc.value.message


def test_compile_error_is_typed_not_fatal(daemon):
    with _client(daemon) as client:
        with pytest.raises(ServiceError) as exc:
            client.run_source("void main() { this is not mini-C }",
                              failsafe=False)
        assert exc.value.type in ("compile-error", "bad-request")
        # daemon still alive
        assert client.ping()["pong"] is True


# ---------------------------------------------------------------------------
# timeouts
# ---------------------------------------------------------------------------

def test_client_timeout_raises_service_timeout(daemon, monkeypatch):
    def slow_handler(req):
        if req.get("op") == worker_mod.STATS_OP:
            return protocol.ok_response(req.get("id"),
                                        worker_mod.STATS_OP, {})
        time.sleep(2.0)
        return protocol.ok_response(req["id"], req["op"], {})

    monkeypatch.setattr(worker_mod, "handle_request", slow_handler)
    with _client(daemon, timeout=0.2) as client:
        with pytest.raises(ServiceTimeout):
            client.run_source(SRC, train=[1], ref=[5])


def test_daemon_side_timeout_ms_is_typed(daemon, monkeypatch):
    def slow_handler(req):
        if req.get("op") == worker_mod.STATS_OP:
            return protocol.ok_response(req.get("id"),
                                        worker_mod.STATS_OP, {})
        time.sleep(2.0)
        return protocol.ok_response(req["id"], req["op"], {})

    monkeypatch.setattr(worker_mod, "handle_request", slow_handler)
    with _client(daemon) as client:
        with pytest.raises(ServiceTimeout):
            client.request({"op": "run", "source": SRC, "train": [1],
                            "ref": [5], "timeout_ms": 100})
        # the daemon survives its own timeout and still answers
        assert client.ping()["pong"] is True


# ---------------------------------------------------------------------------
# worker error hygiene
# ---------------------------------------------------------------------------

def test_worker_unknown_error_type_is_downgraded_to_internal(
        daemon, monkeypatch):
    """A worker speaking an unknown error dialect must surface as a
    typed ``internal`` error, never crash the dispatch task."""
    def weird_handler(req):
        if req.get("op") == worker_mod.STATS_OP:
            return protocol.ok_response(req.get("id"),
                                        worker_mod.STATS_OP, {})
        return {"id": req["id"], "ok": False,
                "error": {"type": "made-up-dialect", "message": "?"}}

    monkeypatch.setattr(worker_mod, "handle_request", weird_handler)
    with _client(daemon) as client:
        with pytest.raises(ServiceError) as exc:
            client.run_source(SRC, train=[1], ref=[5])
        assert exc.value.type == "internal"
        assert client.ping()["pong"] is True


# ---------------------------------------------------------------------------
# drain
# ---------------------------------------------------------------------------

def test_draining_daemon_refuses_work_with_typed_error(daemon):
    daemon.daemon._draining = True
    try:
        with _client(daemon) as client:
            # control ops still answer (health checks during drain)
            assert client.ping()["draining"] is True
            with pytest.raises(ServiceError) as exc:
                client.run_source(SRC, train=[1], ref=[5])
            assert exc.value.type == "shutdown"
    finally:
        daemon.daemon._draining = False


# ---------------------------------------------------------------------------
# real worker subprocesses: sharding, crash recovery
# ---------------------------------------------------------------------------

def test_worker_crash_yields_typed_error_then_respawns():
    """Killing a worker mid-request must fail that request with a typed
    ``worker-crash`` error (not a hang), and the next request must be
    served by a respawned worker."""
    import os
    import signal

    slow_src = """
void main() {
  int i; int s;
  s = 0;
  i = 0;
  while (i < 3000000) { s = s + i; i = i + 1; }
  print(s + input());
}
"""
    with DaemonThread(workers=1) as handle:
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as client:
            assert client.ping()["workers"] == 1
            pid = handle.daemon._handles[0].proc.pid
            killer = threading.Timer(
                0.5, lambda: os.kill(pid, signal.SIGKILL))
            killer.start()
            with pytest.raises(ServiceError) as exc:
                client.run_source(slow_src, config="base", train=[1],
                                  ref=[5])
            killer.cancel()
            assert exc.value.type == "worker-crash"
            # the pool heals: the next request respawns the shard
            resp = client.run_source(SRC, config="base", train=[1],
                                     ref=[5])
            assert resp["result"]["output"] == ["12"]
            stats = client.stats()
            assert stats["worker_restarts"] == 1


def test_sharding_routes_same_key_to_same_worker():
    from repro.service.loadgen import key_source

    with DaemonThread(workers=2) as handle:
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as client:
            workers = set()
            for _ in range(3):
                resp = client.run_source(key_source(1), config="profile",
                                         train=[1], ref=[2])
                workers.add(resp["worker"])
            assert len(workers) == 1, \
                "one content key must always land on one shard"
            # and the repeats were shard-cache hits
            assert resp["cached"] is True
