"""Cached, invalidatable analyses for the pass manager.

The old driver recomputed per-function analyses (alias info, dominance,
flow-sensitive points-to) from scratch on **every fallback-ladder
rung**: a function that crashed at full strength re-ran
``analyze_function`` three more times on the way down.  The
:class:`AnalysisManager` memoizes each analysis under a
``(name, scope)`` key — scope is a function name, or ``None`` for
module-level analyses (alias classifier, mod/ref, profiles) — so a
retry, or a repeat compile through a shared manager, is a cache hit.

Hit/miss counters are kept per analysis name; the test suite asserts
ladder retries actually reuse cached results through them.  The manager
is thread-safe, so compiles on several threads may share one instance.

Invalidation follows the pass protocol: a pass declares the analyses it
invalidates (:attr:`repro.pipeline.passes.base.Pass.invalidates`) and
the manager drops those entries after the pass runs.  Function passes
mutate only their function's SSA form — never the base module — so the
default is to preserve everything; transforms of the base module
(critical-edge splitting, out-of-SSA) invalidate all derived analyses.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Dict, Hashable, Optional, Tuple

Key = Tuple[str, Optional[Hashable]]

#: named analysis constructors — ``manager.get_registered(name, scope,
#: *args)`` resolves ``name`` here, so passes request shared analyses
#: by wire name instead of hand-rolling the compute closure each time
ANALYSIS_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_analysis(name: str) -> Callable:
    """Register a named analysis constructor (decorator)."""

    def deco(compute: Callable[..., object]) -> Callable[..., object]:
        ANALYSIS_REGISTRY[name] = compute
        return compute

    return deco


@register_analysis("prob-alias")
def _prob_alias(fn, dom=None):
    """Static probabilistic alias facts of one function (profile-free
    speculation source — repro.analysis.prob_alias)."""
    from ...analysis.prob_alias import compute_prob_alias

    return compute_prob_alias(fn, dom)


class AnalysisManager:
    """Memoizing analysis cache with per-analysis hit/miss counters."""

    def __init__(self) -> None:
        self._cache: Dict[Key, object] = {}
        # reentrant: computing one analysis may request another
        # (e.g. the alias classifier pulls mod/ref through the cache)
        self._lock = threading.RLock()
        self.hit_counts: Counter = Counter()
        self.miss_counts: Counter = Counter()
        self.invalidation_counts: Counter = Counter()

    # ---- lookup ----------------------------------------------------------
    def get(self, name: str, scope: Optional[Hashable],
            compute: Callable[[], object]) -> object:
        """The cached result of analysis ``name`` at ``scope``,
        computing (and caching) it on first request."""
        key = (name, scope)
        with self._lock:
            if key in self._cache:
                self.hit_counts[name] += 1
                return self._cache[key]
            self.miss_counts[name] += 1
            result = compute()
            self._cache[key] = result
            return result

    def get_registered(self, name: str, scope: Optional[Hashable],
                       *args) -> object:
        """The cached result of the *registered* analysis ``name`` at
        ``scope``, constructing it from ``args`` on first request."""
        compute = ANALYSIS_REGISTRY[name]
        return self.get(name, scope, lambda: compute(*args))

    def cached(self, name: str, scope: Optional[Hashable] = None) -> bool:
        with self._lock:
            return (name, scope) in self._cache

    # ---- invalidation ----------------------------------------------------
    def invalidate(self, name: Optional[str] = None,
                   scope: Optional[Hashable] = None) -> int:
        """Drop cached entries.  ``invalidate()`` clears everything;
        ``invalidate(name)`` drops every scope of one analysis;
        ``invalidate(name, scope)`` drops one entry.  Returns the number
        of entries dropped."""
        with self._lock:
            if name is None:
                victims = list(self._cache)
            elif scope is None:
                victims = [k for k in self._cache if k[0] == name]
            else:
                victims = [(name, scope)] if (name, scope) in self._cache \
                    else []
            for key in victims:
                del self._cache[key]
                self.invalidation_counts[key[0]] += 1
            return len(victims)

    def apply_invalidations(self, names: Tuple[str, ...]) -> None:
        """Honour a pass's ``invalidates`` declaration."""
        if "*" in names:
            self.invalidate()
        else:
            for name in names:
                self.invalidate(name)

    # ---- counters --------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(self.hit_counts.values())

    @property
    def misses(self) -> int:
        return sum(self.miss_counts.values())

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counter snapshot (part of the pass trace)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "by_analysis": {
                name: {"hits": self.hit_counts[name],
                       "misses": self.miss_counts[name],
                       "invalidations": self.invalidation_counts[name]}
                for name in sorted(set(self.hit_counts)
                                   | set(self.miss_counts)
                                   | set(self.invalidation_counts))
            },
        }
