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

The names below load their submodule on first access, so importing a
light submodule (``repro.service.registry``, which ``repro.cli`` needs
for ``--config``) does not pull in ``asyncio`` and the daemon.
"""

import importlib

#: public name -> the submodule defining it
_EXPORTS = {
    "Backoff": "backoff", "CircuitBreaker": "backoff",
    "RetryPolicy": "backoff", "wait_ready": "backoff",
    "ServiceClient": "client", "ServiceClosed": "client",
    "ServiceError": "client", "ServiceTimeout": "client",
    "ServiceUnavailable": "client",
    "Daemon": "daemon", "DaemonThread": "daemon", "run_daemon": "daemon",
    "LoadReport": "loadgen", "run_load": "loadgen",
    "CacheStore": "persist",
    "ProtocolError": "protocol", "request_key": "protocol",
    "validate_request": "protocol", "validate_response": "protocol",
    "available_configs": "registry", "resolve_config": "registry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
