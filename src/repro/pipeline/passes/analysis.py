"""Cached analyses for one compilation.

The old driver recomputed per-function analyses (alias info, dominance,
flow-sensitive points-to) from scratch on **every fallback-ladder
rung**: a function that crashed at full strength re-ran
``analyze_function`` three more times on the way down.  The
:class:`AnalysisManager` memoizes each analysis under a
``(name, scope)`` key — scope identifies the module, classifier and/or
function the result belongs to — so a retry is a cache hit.

The pass manager makes one manager per compile, so nothing needs
invalidating: the only module transform that runs after a lookup is
critical-edge splitting, and the only entries computed before it are
the two profiles, which the pass manager holds in locals and never
looks up again.

Hit/miss counters are kept per analysis name; the test suite asserts
ladder retries actually reuse cached results through them.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Hashable, Optional, Tuple

Key = Tuple[str, Optional[Hashable]]


class AnalysisManager:
    """Memoizing analysis cache with per-analysis hit/miss counters."""

    def __init__(self) -> None:
        self._cache: Dict[Key, object] = {}
        self.hit_counts: Counter = Counter()
        self.miss_counts: Counter = Counter()

    def get(self, name: str, scope: Optional[Hashable],
            compute: Callable[[], object]) -> object:
        """The cached result of analysis ``name`` at ``scope``,
        computing (and caching) it on first request."""
        key = (name, scope)
        if key in self._cache:
            self.hit_counts[name] += 1
            return self._cache[key]
        self.miss_counts[name] += 1
        result = self._cache[key] = compute()
        return result

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
                       "misses": self.miss_counts[name]}
                for name in sorted(set(self.hit_counts)
                                   | set(self.miss_counts))
            },
        }
