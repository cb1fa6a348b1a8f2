"""Pure helpers shared by the benchmark: the tail rule, geometric means,
span self time, metric-name validation and workload fingerprints.

Nothing here imports ``repro``; the self-tests in ``test_perfbench.py``
exercise every function in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Dict, Iterable, List, Sequence, Tuple

#: samples that must lie beyond the reported tail latency
TAIL_MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name: str) -> bool:
    """Metric names are ``[A-Za-z0-9_.-]+``, starting with a letter or
    a digit, at most 64 characters."""
    return (isinstance(name, str) and 0 < len(name) <= 64
            and _NAME.fullmatch(name) is not None and name[0].isalnum())


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile that
    has at least :data:`TAIL_MIN_BEYOND` samples beyond it: the
    ``(n - 10)``-th smallest of ``n`` samples, an order statistic (no
    interpolation, so a cluster boundary cannot pull it halfway
    between two groups).  With ten samples or fewer, the maximum is
    reported as percentile 100."""
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_MIN_BEYOND
    return ordered[k - 1], 100.0 * k / n, n


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; zero samples are floored at 1 (a run that
    retired no loads still counts, as the smallest possible value)."""
    logs = [math.log(max(1.0, float(v))) for v in values]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval its direct children cover.  A span is a dict with ``id``,
    ``start``, ``end`` and ``parent`` (None for a root); a child with
    ``start`` None carries only a ``dur`` (a duration the program
    reported without timestamps) and is subtracted as such."""
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        if span.get("start") is None:
            result[span["id"]] = span["dur"]
            continue
        lo, hi = span["start"], span["end"]
        kids = children.get(span["id"], [])
        timed = [(max(lo, k["start"]), min(hi, k["end"]))
                 for k in kids if k.get("start") is not None]
        covered = union_length((a, b) for a, b in timed if b > a)
        covered += sum(k["dur"] for k in kids if k.get("start") is None)
        result[span["id"]] = max(0.0, (hi - lo) - covered)
    return result


def fingerprint(parts: object) -> str:
    """sha256 over a JSON rendering of a workload's generated sources,
    configuration names and inputs."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def count_mismatches(old: Dict[str, float], new: Dict[str, float],
                     names: Iterable[str]) -> List[str]:
    """Names of count metrics present in both records whose values
    differ (the determinism check)."""
    return [name for name in names
            if name in old and name in new and old[name] != new[name]]
