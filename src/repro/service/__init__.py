"""Compile-as-a-service: a long-lived daemon for the whole pipeline.

The :class:`~repro.pipeline.CompileCache` (docs/performance.md) made a
warm compile ~1000x cheaper than cold, but every caller still paid
process startup and held a private cache.  This package turns the
pipeline into a shared service (docs/service.md):

* :mod:`repro.service.daemon` — a stdlib-``asyncio`` daemon speaking
  newline-delimited JSON over TCP: batched ``compile``/``run``/
  ``campaign`` requests, a pool of worker processes sharding the
  content-addressed cache by key hash, in-flight deduplication (one
  compile, N waiters), per-request timeouts, typed worker-crash
  errors, graceful drain on SIGTERM;
* :mod:`repro.service.client` — the client library with retry/backoff
  policies and a circuit breaker for dead daemons;
* :mod:`repro.service.backoff` — deterministic (seeded-jitter)
  exponential backoff, retry policy, circuit breaker, readiness probe;
* :mod:`repro.service.persist` — on-disk response store behind
  ``--cache-dir`` so a restarted daemon answers warm keys immediately;
* :mod:`repro.service.loadgen` — a load generator with configurable
  concurrency and key skew, feeding ``BENCH_service.json``;
* :mod:`repro.service.registry` — named server configurations
  resolved and composed from strings (``"profile+superblock"``);
* :mod:`repro.service.protocol` — the wire schema both sides and the
  docs round-trip test validate against.

CLI surface: ``python -m repro serve`` / ``repro submit`` /
``repro loadgen``.
"""

from .backoff import Backoff, CircuitBreaker, RetryPolicy, wait_ready
from .client import ServiceClient, ServiceClosed, ServiceError, \
    ServiceTimeout, ServiceUnavailable
from .daemon import Daemon, DaemonThread, run_daemon
from .loadgen import LoadReport, run_load
from .persist import CacheStore
from .protocol import ProtocolError, request_key, validate_request, \
    validate_response
from .registry import available_configs, register_config, \
    register_modifier, resolve_config

__all__ = [
    "Backoff", "CacheStore", "CircuitBreaker",
    "Daemon", "DaemonThread", "LoadReport", "ProtocolError",
    "RetryPolicy", "ServiceClient", "ServiceClosed", "ServiceError",
    "ServiceTimeout", "ServiceUnavailable",
    "available_configs", "register_config", "register_modifier",
    "request_key", "resolve_config", "run_daemon", "run_load",
    "validate_request", "validate_response", "wait_ready",
]
