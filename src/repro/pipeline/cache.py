"""Content-addressed compile cache.

Most of the repository compiles the *same* eight workload sources with
the *same* handful of :class:`~repro.core.SpecConfig` presets over and
over — the workload runner, the fault-injection campaign, the figure
generators and the benchmark harness all call
:func:`~repro.pipeline.compile_and_run` on identical inputs.  The
:class:`CompileCache` memoizes the finished
:class:`~repro.pipeline.CompileResult` under a content key, so a repeat
compile is a dictionary lookup.

The key covers everything that can change the produced program:

* the **source text** (hashed);
* the resolved **SpecConfig** (its ``repr`` — a frozen dataclass, so
  the repr names every field);
* the **train inputs** and interpreter **fuel** (both feed the
  profiles) and the ``failsafe`` flag (changes the ladder);
* the **environment fingerprint**: the identities of the driver's
  monkeypatchable seams (``collect_alias_profile``,
  ``collect_edge_profile``, ``verify_ssa``) and of every
  ``PASS_REGISTRY`` entry.  Tests swap these to inject failures; a
  swap — or a restore — must change the key, never alias a stale
  result.

Calls carrying per-call observers or state (``dumps``,
``profile_transform``, a shared ``analyses`` manager) bypass the cache
entirely — their side effects are the point of the call — and are
tallied in :attr:`CompileCache.bypasses`.

A cached hit returns the **same** :class:`CompileResult` object to
every caller.  That is safe because nothing downstream mutates it: the
simulator translates the machine program into its own pre-decoded form
per run (see :mod:`repro.target.machine`) and never writes back.  The
test suite pins this with a before/after structural snapshot.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import SpecConfig
    from .results import CompileResult


def compiler_fingerprint() -> str:
    """The **portable** identity of the compiler itself: the package
    version plus the sorted pass-registry names.  Part of every
    :func:`content_key` — and therefore of the service ``request_key``
    and the persisted :class:`~repro.service.persist.CacheStore`
    entries — so a disk cache written by one compiler build is
    invalidated by the next build instead of serving stale compiles.
    Deliberately made of stable strings, never ``id()``s: two processes
    running the same build must agree."""
    from .. import __version__
    from .passes.base import PASS_REGISTRY

    return repr((__version__, tuple(sorted(PASS_REGISTRY))))


def content_key(source: str, config: "SpecConfig",
                train_inputs: Sequence[float], fuel: int,
                failsafe: bool) -> str:
    """The **process-portable** part of the content key: everything the
    *request* pins (source, config, train inputs, fuel, failsafe) plus
    the :func:`compiler_fingerprint`, and nothing the *process* pins
    (no seam or registry identities).

    Two processes given the same request compute the same
    ``content_key`` — this is the key the compile service
    (:mod:`repro.service`) shards on and deduplicates by, so that
    identical requests land on the same worker and coalesce.
    :meth:`CompileCache.key` extends it with the per-process
    environment fingerprint; never mix the two."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(repr(config).encode())
    h.update(repr((tuple(train_inputs), fuel, bool(failsafe))).encode())
    h.update(b"\x00")
    h.update(compiler_fingerprint().encode())
    return h.hexdigest()


def shard_of(key: str, shards: int) -> int:
    """Map a hex content key onto one of ``shards`` buckets.

    Pure and process-independent: every router given the same key and
    shard count picks the same bucket, which is what lets a pool of
    workers each own a disjoint slice of the key space (and therefore
    of the cache) with no coordination."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    return int(key[:16], 16) % shards


class CompileCache:
    """Bounded (LRU) content-addressed memo of compiled programs."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CompileResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0

    # ---- keying ----------------------------------------------------------
    @staticmethod
    def key(source: str, config: "SpecConfig",
            train_inputs: Sequence[float], fuel: int,
            failsafe: bool) -> str:
        """The content key for one compile request (see the module
        docstring for what it covers)."""
        from . import driver
        from .passes.base import PASS_REGISTRY

        h = hashlib.sha256()
        h.update(content_key(source, config, train_inputs, fuel,
                             failsafe).encode())
        seams = (driver.collect_alias_profile, driver.collect_edge_profile,
                 driver.verify_ssa)
        h.update(repr(tuple(id(seam) for seam in seams)).encode())
        h.update(repr(sorted((name, id(entry))
                             for name, entry in PASS_REGISTRY.items()))
                 .encode())
        return h.hexdigest()

    # ---- lookup ----------------------------------------------------------
    def get(self, key: str) -> Optional["CompileResult"]:
        """The cached result under ``key``, or None (counted as a miss —
        the caller is expected to compile and :meth:`put`)."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key: str, result: "CompileResult") -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ---- counters --------------------------------------------------------
    def stats(self) -> dict:
        """JSON-friendly counter snapshot (reported next to the
        :class:`~repro.pipeline.passes.analysis.AnalysisManager` stats
        in ``--time-passes`` / ``--trace-json``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CompileCache {len(self._entries)}/{self.capacity} "
                f"hits {self.hits} misses {self.misses}>")


#: The process-wide cache :func:`~repro.pipeline.compile_and_run` uses
#: by default.
_DEFAULT_CACHE = CompileCache()


def default_cache() -> CompileCache:
    """The process-wide compile cache."""
    return _DEFAULT_CACHE
